"""Tests for the baseline systems (RiskRanker/Crowdroid) and the CLI."""

import pytest

from repro.baselines.crowdroid import CrowdroidMonitor, SyscallVector
from repro.baselines.riskranker import RiskRankerStatic
from repro.cli import build_parser, main
from repro.corpus.generator import CorpusGenerator
from repro.dynamic.engine import AppExecutionEngine, EngineOptions
from repro.runtime.device import Device
from repro.static_analysis.malware.droidnative import DroidNative
from repro.static_analysis.malware.families import (
    SWISS_CODE_MONKEYS,
    swiss_code_monkeys_dex,
    training_corpus,
)

from tests.helpers import downloads_and_loads_app


@pytest.fixture(scope="module")
def detector():
    d = DroidNative()
    d.train_corpus(training_corpus(samples_per_family=2, seed=0))
    return d


class TestRiskRankerBaseline:
    def test_flags_dcl_presence(self, detector):
        baseline = RiskRankerStatic(detector)
        report = baseline.analyze(downloads_and_loads_app())
        assert report.flags_dcl

    def test_finds_locally_packaged_malware(self, detector):
        # Malware shipped as a plain asset IS within the static baseline's reach.
        payload = swiss_code_monkeys_dex(seed=5)
        apk = downloads_and_loads_app()
        apk.add_asset("assets/plugin.bin", payload.to_bytes())
        report = RiskRankerStatic(detector).analyze(apk)
        assert report.detected_malware
        assert report.detected_malware[0][1].family == SWISS_CODE_MONKEYS

    def test_blind_to_remote_fetch(self, detector):
        # The same malware fetched at runtime is invisible statically --
        # the gap DyDroid's interception closes (paper Section VI).
        apk = downloads_and_loads_app()  # payload lives on the network only
        report = RiskRankerStatic(detector).analyze(apk)
        assert report.flags_dcl
        assert not report.detected_malware

    def test_blind_to_encrypted_payloads(self, detector):
        apk = downloads_and_loads_app()
        apk.add_asset("assets/enc.bin", swiss_code_monkeys_dex(1).encrypt(b"k"))
        report = RiskRankerStatic(detector).analyze(apk)
        assert not report.detected_malware
        assert "assets/enc.bin" in report.opaque_payloads

    def test_decompile_failure(self, detector):
        apk = downloads_and_loads_app()
        apk.enable_anti_decompilation()
        report = RiskRankerStatic(detector).analyze(apk)
        assert report.decompile_failed

    @pytest.mark.parametrize("manifest", [
        b"garbage",
        b"[" * 100_000,
        b'{"package": "p", "version_code": 1, "min_sdk": 1, "target_sdk": 1,'
        b' "permissions": [], "application_name": null, "components": [[]]}',
    ])
    def test_malformed_manifest_is_unparseable(self, detector, manifest):
        apk = downloads_and_loads_app()
        apk.entries["AndroidManifest.xml"] = manifest
        report = RiskRankerStatic(detector).analyze(apk)
        assert report.package == "<unparseable>"


class TestCrowdroidBaseline:
    def _vector(self, **overrides):
        base = dict(
            package="com.x", reads=10, writes=5, deletes=1, renames=0,
            fetches=2, sms=0, uploads=0,
        )
        base.update(overrides)
        return SyscallVector(**base)

    def test_fit_and_detect_anomaly(self):
        monitor = CrowdroidMonitor(threshold_sigmas=2.0)
        benign = [self._vector(package="b{}".format(i), reads=10 + i % 3) for i in range(20)]
        monitor.fit(benign)
        hostile = self._vector(package="mal", sms=40, uploads=30, fetches=50)
        assert monitor.is_anomalous(hostile)
        assert not monitor.is_anomalous(self._vector(package="ok"))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CrowdroidMonitor().distance(self._vector())

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            CrowdroidMonitor().fit([])

    def test_structural_limits_stated(self):
        assert not CrowdroidMonitor.attributes_to_loaded_code()
        assert not CrowdroidMonitor.produces_payload_sample()

    def test_vector_from_device(self):
        device = Device()
        device.vfs.write("/tmp/a", b"x")
        device.vfs.read("/tmp/a")
        vector = SyscallVector.from_run("com.x", device)
        assert vector.writes >= 1 and vector.reads >= 1

    def test_cannot_name_the_loaded_code(self):
        """The killer difference: Crowdroid sees *that* something misbehaved,
        DyDroid holds the actual binary."""
        generator = CorpusGenerator(seed=31)
        blueprints = generator.sample_blueprints(400)
        mal = next(b for b in blueprints if b.malware_family == SWISS_CODE_MONKEYS)
        record = generator.build_record(mal)
        report = AppExecutionEngine(
            EngineOptions(remote_resources=record.remote_resources)
        ).run(record.apk)
        vector = SyscallVector.from_report(report)
        # the vector carries only counts...
        assert not hasattr(vector, "payload")
        # ...while DyDroid intercepted the actual malicious DEX.
        assert any(p.as_dex() is not None for p in report.intercepted)


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["measure", "--apps", "50", "--table", "6"])
        assert args.command == "measure" and args.table == "6"

    def test_corpus_command(self, capsys):
        assert main(["corpus", "--apps", "300", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "DEX DCL code" in out and "malware carriers" in out

    def test_measure_single_table(self, capsys):
        assert main(["measure", "--apps", "120", "--seed", "5", "--table", "6",
                     "--train", "2", "--no-replays"]) == 0
        out = capsys.readouterr().out
        assert "TABLE VI" in out

    def test_analyze_by_role(self, capsys):
        assert main(["analyze", "--apps", "400", "--seed", "5", "--role", "packed"]) == 0
        out = capsys.readouterr().out
        assert "DEX encryption" in out

    def test_analyze_index_out_of_range(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--apps", "50", "--seed", "5", "--index", "999"])

    def test_families_command(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "chathook-ptrace  (Table VII)" in out
        assert len(out.strip().splitlines()) == 19

    def test_measure_fig3_table(self, capsys):
        assert main(["measure", "--apps", "400", "--seed", "11", "--table", "fig3",
                     "--train", "2", "--no-replays"]) == 0
        assert "FIGURE 3" in capsys.readouterr().out

    def test_measure_table8_requires_replays(self, capsys):
        # with replays on, Table VIII has content for the planted malware.
        assert main(["measure", "--apps", "400", "--seed", "11", "--table", "8",
                     "--train", "2"]) == 0
        out = capsys.readouterr().out
        assert "TABLE VIII" in out and "system-time-before-release" in out
