"""Unit tests for MeasurementReport aggregation over hand-built analyses."""


from repro.core.report import AppAnalysis, MeasurementReport, PayloadVerdict
from repro.corpus.metadata import AppMetadata
from repro.dynamic.engine import DynamicOutcome, DynamicReport
from repro.dynamic.interceptor import PayloadKind
from repro.dynamic.provenance import Entity, Provenance
from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.obfuscation.detector import ObfuscationProfile
from repro.static_analysis.prefilter import PrefilterResult
from repro.static_analysis.privacy.flowdroid import PrivacyLeak


def make_metadata(downloads=1000, category="Tools"):
    return AppMetadata(
        category=category,
        downloads=downloads,
        n_ratings=50,
        avg_rating=4.0,
        release_time_ms=0,
    )


def make_dynamic(outcome=DynamicOutcome.EXERCISED, dex=True, native=False):
    report = DynamicReport(package="p", outcome=outcome, environment="baseline")
    if dex:
        from repro.runtime.instrumentation import DexLoadEvent

        report.dcl.dex_events.append(
            DexLoadEvent(
                dex_paths=("/data/data/p/x.jar",),
                odex_dir=None,
                loader_kind="DexClassLoader",
                call_site="com.sdk.X",
                stack=(),
                app_package="p",
                timestamp_ms=0,
            )
        )
    if native:
        from repro.runtime.instrumentation import NativeLoadEvent

        report.dcl.native_events.append(
            NativeLoadEvent(
                lib_path="/data/data/p/lib/l.so",
                api="loadLibrary",
                call_site="com.sdk.X",
                stack=(),
                app_package="p",
                timestamp_ms=0,
            )
        )
    return report


def make_payload(
    entity=Entity.THIRD_PARTY,
    kind=PayloadKind.DEX,
    leaks=(),
    detection=None,
    provenance=Provenance.LOCAL,
    path="/data/data/p/x.jar",
):
    return PayloadVerdict(
        path=path,
        kind=kind,
        entity=entity,
        provenance=provenance,
        detection=detection,
        leaks=tuple(leaks),
    )


def leak(data_type="IMEI", category="PI"):
    return PrivacyLeak(
        data_type=data_type,
        category=category,
        sink_class="java.io.OutputStream",
        sink_method="write",
        channel="network",
        in_method="a.B.m",
    )


def app(package="com.a", **kwargs):
    defaults = dict(
        package=package,
        metadata=make_metadata(),
        prefilter=PrefilterResult(has_dex_dcl=True),
        obfuscation=ObfuscationProfile(),
        dynamic=make_dynamic(),
    )
    defaults.update(kwargs)
    return AppAnalysis(**defaults)


class TestAppAnalysisViews:
    def test_intercepted_requires_exercised(self):
        crashed = app(dynamic=make_dynamic(outcome=DynamicOutcome.CRASH))
        assert not crashed.dex_intercepted
        healthy = app()
        assert healthy.dex_intercepted

    def test_entities_partition_by_kind(self):
        analysis = app()
        analysis.payloads = [
            make_payload(entity=Entity.OWN, kind=PayloadKind.DEX),
            make_payload(entity=Entity.THIRD_PARTY, kind=PayloadKind.NATIVE),
        ]
        assert analysis.dex_entities() == {Entity.OWN}
        assert analysis.native_entities() == {Entity.THIRD_PARTY}

    def test_unknown_entity_excluded(self):
        analysis = app()
        analysis.payloads = [make_payload(entity=Entity.UNKNOWN)]
        assert analysis.dex_entities() == set()

    def test_leaked_types_merges_entities(self):
        analysis = app()
        analysis.payloads = [
            make_payload(entity=Entity.THIRD_PARTY, leaks=[leak("IMEI")]),
            make_payload(entity=Entity.OWN, leaks=[leak("IMEI")], path="/data/data/p/y.jar"),
        ]
        assert analysis.leaked_types() == {"IMEI": {Entity.THIRD_PARTY, Entity.OWN}}


class TestAggregation:
    def test_empty_report(self):
        report = MeasurementReport(apps=[])
        assert report.n_total == 0
        assert report.dynamic_summary()["dex"]["candidates"] == 0
        assert report.privacy_table() == {}
        assert report.malware_table() == {}
        assert report.remote_fetch_apps() == []
        # rendering an empty report must not crash.
        assert "TABLE II" in report.render_all()

    def test_entity_buckets_count_both_in_both_columns(self):
        analysis = app()
        analysis.payloads = [
            make_payload(entity=Entity.OWN),
            make_payload(entity=Entity.THIRD_PARTY, path="/data/data/p/z.jar"),
        ]
        report = MeasurementReport(apps=[analysis])
        table = report.entity_table()
        # Table IV semantics: both-apps count in *all three* columns.
        assert table["dex"] == {"apps": 1, "third": 1, "own": 1, "both": 1}

    def test_privacy_exclusivity(self):
        third_only = app("com.t")
        third_only.payloads = [make_payload(leaks=[leak("IMEI")])]
        mixed = app("com.m")
        mixed.payloads = [
            make_payload(leaks=[leak("IMEI")]),
            make_payload(entity=Entity.OWN, leaks=[leak("IMEI")], path="/q.jar"),
        ]
        report = MeasurementReport(apps=[third_only, mixed])
        row = report.privacy_table()["IMEI"]
        assert row["n_apps"] == 2
        assert row["exclusively_third"] == 1

    def test_malware_table_counts_files_and_apps(self):
        detection = Detection(
            family="fam", score=1.0, matched_sample_id="fam#1",
            matched_functions=5, total_functions=5,
        )
        carrier = app("com.mal", metadata=make_metadata(downloads=9999))
        carrier.payloads = [
            make_payload(detection=detection, path="/a"),
            make_payload(detection=detection, path="/b"),
        ]
        report = MeasurementReport(apps=[carrier])
        table = report.malware_table()
        assert table["fam"]["n_apps"] == 1
        assert table["fam"]["n_files"] == 2
        assert table["fam"]["sample_app"] == "com.mal"
        assert report.malicious_file_count() == 2

    def test_runtime_config_table_intersection(self):
        detection = Detection(
            family="fam", score=1.0, matched_sample_id="fam#1",
            matched_functions=1, total_functions=1,
        )
        carrier = app("com.mal")
        carrier.payloads = [make_payload(detection=detection, path="/mal.jar")]
        carrier.replay_loaded = {
            "location-off": {"/mal.jar"},
            "airplane-wifi-off": set(),
        }
        report = MeasurementReport(apps=[carrier])
        table = report.runtime_config_table()
        assert table["location-off"] == {"loaded": 1, "total": 1}
        assert table["airplane-wifi-off"] == {"loaded": 0, "total": 1}

    def test_popularity_groups_disjoint_union(self):
        with_dcl = app("com.a", metadata=make_metadata(downloads=100))
        without = app(
            "com.b",
            metadata=make_metadata(downloads=10),
            prefilter=PrefilterResult(),
            dynamic=None,
        )
        report = MeasurementReport(apps=[with_dcl, without])
        table = report.popularity()
        assert table["DEX"]["downloads"] == 100
        assert table["Without DEX"]["downloads"] == 10

    def test_decompile_failures_have_no_prefilter(self):
        failed = AppAnalysis(
            package="com.x",
            metadata=make_metadata(),
            decompile_failed=True,
            obfuscation=ObfuscationProfile(anti_decompilation=True),
        )
        report = MeasurementReport(apps=[failed])
        assert report.dex_candidates() == []
        assert report.obfuscation_table()["Anti-decompilation"] == 1
