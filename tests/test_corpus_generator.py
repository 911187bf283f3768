"""Tests for the synthetic market generator: calibration, planting, assembly."""

import random

import pytest

from repro.corpus.behaviors import extract_url_constants
from repro.corpus.generator import CorpusGenerator, generate_corpus
from repro.corpus.metadata import CATEGORIES, sample_metadata
from repro.corpus.profiles import CorpusProfile, FIG3_CATEGORY_WEIGHTS
from repro.static_analysis.decompiler import Decompiler
from repro.static_analysis.malware import families
from repro.static_analysis.prefilter import prefilter


@pytest.fixture(scope="module")
def blueprints():
    return CorpusGenerator(seed=3).sample_blueprints(1200)


@pytest.fixture(scope="module")
def generator():
    return CorpusGenerator(seed=3)


class TestBlueprintCalibration:
    def test_dex_code_rate(self, blueprints):
        rate = sum(b.has_dex_dcl_code for b in blueprints) / len(blueprints)
        assert 0.62 <= rate <= 0.77  # paper: 69.5%

    def test_native_code_rate(self, blueprints):
        rate = sum(b.has_native_code for b in blueprints) / len(blueprints)
        assert 0.36 <= rate <= 0.50  # paper: 43.0%

    def test_union_rate_is_46k_like(self, blueprints):
        union = sum(
            b.has_dex_dcl_code or b.has_native_code for b in blueprints
        ) / len(blueprints)
        assert 0.72 <= union <= 0.85  # paper: 78.3%

    def test_dex_reachability_rate(self, blueprints):
        dex_apps = [b for b in blueprints if b.has_dex_dcl_code]
        exercised = [
            b for b in dex_apps if not (b.anti_repackaging or b.no_activity or b.crashy)
        ]
        rate = sum(b.dex_dcl_reachable for b in exercised) / len(exercised)
        assert 0.33 <= rate <= 0.52  # paper: 41.6%

    def test_entity_mix_mostly_third_party(self, blueprints):
        reachable = [b for b in blueprints if b.dex_dcl_reachable]
        third = sum(1 for b in reachable if b.dex_entity in ("third", "both"))
        assert third / len(reachable) > 0.95

    def test_planted_counts_scale(self):
        profile = CorpusProfile()
        assert profile.planted_count(27, 58_739) == 27
        assert profile.planted_count(27, 5_874) == 3
        assert profile.planted_count(1, 600) == 1   # never vanishes
        assert profile.planted_count(0, 600) == 0

    def test_rare_roles_planted(self, blueprints):
        assert sum(b.is_baidu_remote for b in blueprints) >= 1
        assert sum(b.is_packed for b in blueprints) >= 1
        assert sum(b.malware_family == families.CHATHOOK_PTRACE for b in blueprints) >= 1
        assert sum(b.vuln_kind == "dex-external" for b in blueprints) >= 1
        assert sum(b.vuln_kind == "native-other-app" for b in blueprints) >= 1
        assert sum(b.anti_decompilation for b in blueprints) >= 1

    def test_planted_roles_are_runnable(self, blueprints):
        for blueprint in blueprints:
            if blueprint.is_baidu_remote or blueprint.malware_family:
                assert not blueprint.crashy
                assert not blueprint.anti_repackaging
                assert not blueprint.no_activity

    def test_packed_apps_use_fig3_categories(self, blueprints):
        packed = [b for b in blueprints if b.is_packed]
        assert packed
        assert all(b.category in FIG3_CATEGORY_WEIGHTS for b in packed)

    def test_google_ads_dominates_privacy_hosts(self, blueprints):
        reachable = [
            b for b in blueprints
            if b.dex_dcl_reachable and not b.is_packed and not b.is_baidu_remote
            and b.malware_family is None
        ]
        ads = sum(b.uses_google_ads for b in reachable)
        assert ads / len(reachable) > 0.8  # paper: 15,012/16,768

    def test_obfuscation_rates(self, blueprints):
        lexical = sum(b.lexical_obfuscated for b in blueprints) / len(blueprints)
        reflection = sum(b.reflection for b in blueprints) / len(blueprints)
        assert 0.85 <= lexical <= 0.94   # paper: 89.95%
        assert 0.46 <= reflection <= 0.59  # paper: 52.20%

    def test_packages_unique(self, blueprints):
        packages = [b.package for b in blueprints]
        assert len(packages) == len(set(packages))


class TestAssembly:
    def test_determinism(self):
        a = generate_corpus(60, seed=9)
        b = generate_corpus(60, seed=9)
        assert [r.apk.sha256() for r in a] == [r.apk.sha256() for r in b]

    def test_different_seeds_differ(self):
        a = generate_corpus(30, seed=1)
        b = generate_corpus(30, seed=2)
        assert [r.apk.sha256() for r in a] != [r.apk.sha256() for r in b]

    def test_prefilter_agrees_with_blueprint(self, generator):
        decompiler = Decompiler()
        for record in generator.generate(120):
            blueprint = record.blueprint
            if blueprint.anti_decompilation:
                continue
            result = prefilter(decompiler.decompile(record.apk))
            assert result.has_dex_dcl == blueprint.has_dex_dcl_code or blueprint.is_packed, blueprint
            if blueprint.has_native_code:
                # native code presence implies JNI API references...
                assert result.has_native_dcl or blueprint.is_packed

    def test_baidu_record_hosts_remote_binaries(self, generator):
        blueprints = generator.sample_blueprints(1200)
        baidu = next(b for b in blueprints if b.is_baidu_remote)
        record = generator.build_record(baidu)
        jar_urls = [u for u in record.remote_resources if u.endswith(".jar")]
        apk_urls = [u for u in record.remote_resources if u.endswith(".apk")]
        assert jar_urls and apk_urls
        assert all(u.startswith("http://mobads.baidu.com/ads/pa/") for u in jar_urls + apk_urls)

    def test_vuln_native_record_has_companion(self, generator):
        blueprints = generator.sample_blueprints(1200)
        vuln = next(b for b in blueprints if b.vuln_kind == "native-other-app")
        record = generator.build_record(vuln)
        assert record.companions
        assert record.companions[0].package in ("com.adobe.air", "com.devicescape.offloader")

    def test_packed_app_structure(self, generator):
        blueprints = generator.sample_blueprints(1200)
        packed = next(b for b in blueprints if b.is_packed)
        record = generator.build_record(packed)
        apk = record.apk
        manifest = apk.manifest
        assert manifest.application_name == packed.packer_container
        assert apk.packed_payload_entries()              # encrypted payload
        # declared activity missing from the shipped bytecode (rule 2).
        program = Decompiler().decompile(apk)
        assert not manifest.component_names().issubset(program.class_names())

    def test_all_embedded_urls_hosted(self, generator):
        for record in generator.generate(80):
            if record.blueprint.anti_decompilation:
                continue
            for dex in record.apk.dex_files():
                for url in extract_url_constants(dex):
                    assert url in record.remote_resources, (record.package, url)

    def test_metadata_popularity_correlation(self):
        profile = CorpusProfile()
        rng = random.Random(5)
        native = [
            sample_metadata(rng, profile, True, True, "Tools", 0).downloads
            for _ in range(600)
        ]
        plain = [
            sample_metadata(rng, profile, False, False, "Tools", 0).downloads
            for _ in range(600)
        ]
        assert sum(native) / len(native) > sum(plain) / len(plain)

    def test_release_dates_before_crawl(self, generator):
        for record in generator.generate(30):
            assert record.release_time_ms < 1479168000000

    def test_category_pool(self):
        assert len(CATEGORIES) == 42
        assert len(set(CATEGORIES)) == 42

    def test_too_small_corpus_raises(self):
        with pytest.raises(RuntimeError):
            CorpusGenerator(seed=0).sample_blueprints(5)
