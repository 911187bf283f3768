"""Tests for fuzzing method coverage and packer-vendor attribution."""


from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator, generate_corpus
from repro.dynamic.engine import AppExecutionEngine, EngineOptions
from repro.static_analysis.decompiler import Decompiler
from repro.static_analysis.obfuscation.detector import (
    PACKER_VENDOR_NAMESPACES,
    analyze_obfuscation,
    identify_packer_vendor,
)

from tests.helpers import downloads_and_loads_app, simple_payload_dex

PAYLOAD_URL = "http://cdn.sdk-demo.com/payload.jar"


class TestMethodCoverage:
    def test_fully_exercised_single_method_app(self):
        apk = downloads_and_loads_app()
        report = AppExecutionEngine(
            EngineOptions(remote_resources={PAYLOAD_URL: simple_payload_dex().to_bytes()})
        ).run(apk)
        # the app has exactly one method (onCreate) and it ran.
        assert report.methods_total == 1
        assert report.methods_executed == 1
        assert report.method_coverage == 1.0

    def test_dead_code_lowers_coverage(self):
        generator = CorpusGenerator(seed=61)
        blueprints = generator.sample_blueprints(300)
        target = next(
            b for b in blueprints
            if b.has_dex_dcl_code and not b.dex_dcl_reachable
            and not b.crashy and not b.anti_repackaging and not b.no_activity
            and not b.anti_decompilation
        )
        record = generator.build_record(target)
        report = AppExecutionEngine(
            EngineOptions(remote_resources=record.remote_resources)
        ).run(record.apk)
        # filler classes and the dead legacyPluginPath method never run.
        assert 0.0 < report.method_coverage < 1.0

    def test_coverage_zero_when_not_exercised(self):
        apk = downloads_and_loads_app()
        manifest = apk.manifest
        manifest.components = []
        apk.put_manifest(manifest)
        report = AppExecutionEngine(EngineOptions()).run(apk)
        assert report.methods_executed == 0
        assert report.method_coverage == 0.0

    def test_ui_trigger_needs_budget_for_coverage(self):
        generator = CorpusGenerator(seed=62)
        blueprints = generator.sample_blueprints(400)
        target = next(
            b for b in blueprints if b.dcl_trigger == "ui" and b.dex_dcl_reachable
        )
        record = generator.build_record(target)
        lifecycle_only = AppExecutionEngine(
            EngineOptions(remote_resources=record.remote_resources, monkey_budget=0)
        ).run(record.apk)
        fuzzed = AppExecutionEngine(
            EngineOptions(remote_resources=record.remote_resources, monkey_budget=25)
        ).run(record.apk)
        assert fuzzed.methods_executed > lifecycle_only.methods_executed


class TestPackerVendorAttribution:
    def _packed_record(self, seed=63):
        generator = CorpusGenerator(seed=seed)
        blueprints = generator.sample_blueprints(600)
        packed = next(b for b in blueprints if b.is_packed)
        return generator.build_record(packed)

    def test_vendor_identified(self):
        record = self._packed_record()
        program = Decompiler().decompile(record.apk)
        vendor = identify_packer_vendor(program)
        assert vendor in set(PACKER_VENDOR_NAMESPACES.values())

    def test_profile_carries_vendor(self):
        record = self._packed_record()
        program = Decompiler().decompile(record.apk)
        profile = analyze_obfuscation(record.apk, program)
        assert profile.dex_encryption
        assert profile.packer_vendor is not None

    def test_unpacked_app_has_no_vendor(self):
        apk = downloads_and_loads_app()
        profile = analyze_obfuscation(apk, Decompiler().decompile(apk))
        assert profile.packer_vendor is None

    def test_report_vendor_breakdown(self):
        corpus = generate_corpus(700, seed=64)
        dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2, run_replays=False))
        report = dydroid.measure(corpus)
        vendors = report.packer_vendors()
        packed_count = report.obfuscation_table()["DEX encryption"]
        assert sum(vendors.values()) == packed_count
        assert all(v in set(PACKER_VENDOR_NAMESPACES.values()) for v in vendors)
