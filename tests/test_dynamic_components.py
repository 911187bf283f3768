"""Tests for Monkey, DCL logger, interceptor, download tracker, provenance,
and the App Execution Engine (including Table VIII environment replays)."""


from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.corpus.behaviors import EnvGates, emit_asset_to_file, emit_dex_load, emit_env_gates
from repro.dynamic.download_tracker import DownloadTracker
from repro.dynamic.engine import AppExecutionEngine, DynamicOutcome, EngineOptions
from repro.dynamic.interceptor import PayloadKind, classify_payload
from repro.dynamic.monkey import Monkey, discover_handlers
from repro.dynamic.provenance import Entity, Provenance, entity_of, provenance_of
from repro.runtime.device import (
    BASELINE_CONFIG,
    TABLE_VIII_CONFIGS,
)
from repro.runtime.instrumentation import DexLoadEvent, Instrumentation
from repro.runtime.stacktrace import StackTraceElement

from tests.helpers import (
    build_manifest,
    downloads_and_loads_app,
    local_loader_app,
    simple_payload_dex,
)

PAYLOAD_URL = "http://cdn.sdk-demo.com/payload.jar"


class TestMonkey:
    def test_plan_starts_with_lifecycle(self):
        plan = Monkey(seed=1, event_budget=5).plan(["a.A"], {"a.A": ["onClick"]})
        assert [e.callback for e in plan[:3]] == ["onCreate", "onStart", "onResume"]
        assert all(e.callback == "onClick" for e in plan[3:])
        assert len(plan) == 8

    def test_plan_deterministic_per_seed(self):
        handlers = {"a.A": ["onClick", "onScroll", "onLongPress"]}
        plan_a = Monkey(seed=7, event_budget=10).plan(["a.A"], handlers)
        plan_b = Monkey(seed=7, event_budget=10).plan(["a.A"], handlers)
        assert plan_a == plan_b

    def test_plans_differ_across_seeds(self):
        handlers = {"a.A": ["onClick", "onScroll", "onLongPress"]}
        plan_a = Monkey(seed=1, event_budget=20).plan(["a.A"], handlers)
        plan_b = Monkey(seed=2, event_budget=20).plan(["a.A"], handlers)
        assert plan_a != plan_b

    def test_no_handlers_just_lifecycle(self):
        plan = Monkey(seed=0, event_budget=10).plan(["a.A"], {})
        assert len(plan) == 3

    def test_discover_handlers(self):
        cls = class_builder("a.A", superclass="android.app.Activity")
        for name in ("onCreate", "onClick", "onPause", "helper", "onSwipe"):
            b = MethodBuilder(name, "a.A", arity=1)
            b.ret_void()
            cls.add_method(b.build())
        assert discover_handlers(cls) == ["onClick", "onSwipe"]


class TestPayloadClassification:
    def test_kinds(self):
        dex = simple_payload_dex()
        assert classify_payload(dex.to_bytes()) is PayloadKind.DEX
        assert classify_payload(dex.to_odex()) is PayloadKind.DEX
        assert classify_payload(dex.encrypt(b"k")) is PayloadKind.ENCRYPTED
        assert classify_payload(b"\x7fELF\x02\x01\x01\x00x") is PayloadKind.NATIVE
        assert classify_payload(b"random") is PayloadKind.UNKNOWN


def _run_app(apk, payload_bytes=None, options=None):
    engine = AppExecutionEngine(options or EngineOptions(
        remote_resources={PAYLOAD_URL: payload_bytes} if payload_bytes else {}
    ))
    return engine.run(apk)


class TestEngine:
    def test_exercised_with_interception(self):
        report = _run_app(downloads_and_loads_app(), simple_payload_dex().to_bytes())
        assert report.outcome is DynamicOutcome.EXERCISED
        assert report.intercepted_any
        payload = report.intercepted[0]
        assert payload.kind is PayloadKind.DEX
        assert payload.call_site == "com.example.demo.MainActivity"
        assert "payload: loaded-code-ran" in report.logcat

    def test_temp_file_still_intercepted(self):
        report = _run_app(
            downloads_and_loads_app(delete_after=True), simple_payload_dex().to_bytes()
        )
        assert report.intercepted_any

    def test_blocking_disabled_payload_survives_because_dumped_at_load(self):
        # Even without delete-blocking the interceptor dumped at event time;
        # what is lost is only the on-device copy.
        options = EngineOptions(
            block_file_ops=False,
            remote_resources={PAYLOAD_URL: simple_payload_dex().to_bytes()},
        )
        report = _run_app(downloads_and_loads_app(delete_after=True), options=options)
        assert report.intercepted_any

    def test_no_activity(self):
        manifest = build_manifest(activities=())
        apk = Apk.build(manifest, dex_files=[simple_payload_dex()])
        report = _run_app(apk)
        assert report.outcome is DynamicOutcome.NO_ACTIVITY

    def test_rewriting_failure(self):
        apk = downloads_and_loads_app()
        manifest = apk.manifest
        manifest.permissions.clear()
        apk.put_manifest(manifest)
        apk.enable_anti_repackaging()
        report = _run_app(apk)
        assert report.outcome is DynamicOutcome.REWRITING_FAILURE

    def test_crash(self):
        activity = "com.crash.app.MainActivity"
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        b.throw_new("java.lang.IllegalStateException")
        b.ret_void()
        cls.add_method(b.build())
        apk = Apk.build(build_manifest("com.crash.app"), dex_files=[DexFile(classes=[cls])])
        report = _run_app(apk)
        assert report.outcome is DynamicOutcome.CRASH
        assert "IllegalStateException" in report.crash_reason

    def test_looping_handler_is_not_a_crash(self):
        activity = "com.loop.app.MainActivity"
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        b.label("again")
        b.goto("again")
        cls.add_method(b.build())
        apk = Apk.build(build_manifest("com.loop.app"), dex_files=[DexFile(classes=[cls])])
        report = _run_app(apk, options=EngineOptions(instruction_budget=2_000))
        assert report.outcome is DynamicOutcome.EXERCISED

    def test_companions_installed(self):
        companion = Apk.build(build_manifest("com.adobe.air", activities=()))
        apk, payload = local_loader_app()
        options = EngineOptions(companions=(companion,))
        report = AppExecutionEngine(options).run(apk)
        assert report.outcome is DynamicOutcome.EXERCISED

    def test_application_container_runs_first(self):
        # Packed-app style: container defines classes the activity needs.
        package = "com.packed.app"
        container_name = "com.vendor.guard.Stub"
        activity_name = "{}.MainActivity".format(package)

        container = class_builder(container_name, superclass="android.app.Application")
        boot = MethodBuilder("onCreate", container_name, arity=1)
        boot.call_void("android.util.Log", "d", boot.new_string("boot"), boot.new_string("container"))
        boot.ret_void()
        container.add_method(boot.build())

        activity = class_builder(activity_name, superclass="android.app.Activity")
        oc = MethodBuilder("onCreate", activity_name, arity=1)
        oc.call_void("android.util.Log", "d", oc.new_string("boot"), oc.new_string("activity"))
        oc.ret_void()
        activity.add_method(oc.build())

        manifest = build_manifest(package, application_name=container_name)
        apk = Apk.build(manifest, dex_files=[DexFile(classes=[container, activity])])
        report = _run_app(apk)
        assert report.logcat[0] == "boot: container"
        assert "boot: activity" in report.logcat


class TestEnvironmentReplay:
    def _gated_app(self, gates, release_ms=1_000_000_000_000):
        package = "com.gated.app"
        activity_name = "{}.MainActivity".format(package)
        payload = simple_payload_dex("com.mal.Entry")
        cls = class_builder(activity_name, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity_name, arity=1)
        emit_env_gates(b, gates, release_ms, "hide")
        emit_asset_to_file(b, "mal.bin", "/data/data/{}/files/mal.jar".format(package))
        emit_dex_load(
            b, "/data/data/{}/files/mal.jar".format(package),
            "/data/data/{}/cache/odex".format(package),
        )
        b.label("hide")
        b.ret_void()
        cls.add_method(b.build())
        return Apk.build(
            build_manifest(package),
            dex_files=[DexFile(classes=[cls])],
            assets={"assets/mal.bin": payload.to_bytes()},
        )

    def test_time_gate(self):
        apk = self._gated_app(EnvGates(system_time=True))
        engine = AppExecutionEngine(EngineOptions(release_time_ms=1_000_000_000_000))
        results = engine.replay_under_configs(apk, (BASELINE_CONFIG,) + TABLE_VIII_CONFIGS)
        assert results["baseline"].intercepted_any
        assert not results["system-time-before-release"].intercepted_any
        assert results["location-off"].intercepted_any

    def test_airplane_flag_gate(self):
        apk = self._gated_app(EnvGates(airplane_flag=True))
        engine = AppExecutionEngine(EngineOptions(release_time_ms=1_000_000_000_000))
        results = engine.replay_under_configs(apk, (BASELINE_CONFIG,) + TABLE_VIII_CONFIGS)
        assert results["baseline"].intercepted_any
        # the airplane *setting* hides the load even with WiFi re-enabled.
        assert not results["airplane-wifi-on"].intercepted_any
        assert not results["airplane-wifi-off"].intercepted_any

    def test_connectivity_gate(self):
        apk = self._gated_app(EnvGates(connectivity=True))
        engine = AppExecutionEngine(EngineOptions(release_time_ms=1_000_000_000_000))
        results = engine.replay_under_configs(apk, (BASELINE_CONFIG,) + TABLE_VIII_CONFIGS)
        assert results["baseline"].intercepted_any
        assert results["airplane-wifi-on"].intercepted_any     # WiFi counts
        assert not results["airplane-wifi-off"].intercepted_any

    def test_location_gate(self):
        apk = self._gated_app(EnvGates(location=True))
        engine = AppExecutionEngine(EngineOptions(release_time_ms=1_000_000_000_000))
        results = engine.replay_under_configs(apk, (BASELINE_CONFIG,) + TABLE_VIII_CONFIGS)
        assert results["baseline"].intercepted_any
        assert not results["location-off"].intercepted_any
        assert results["airplane-wifi-on"].intercepted_any


class TestDownloadTrackerAndProvenance:
    def test_remote_provenance(self):
        report = _run_app(downloads_and_loads_app(), simple_payload_dex().to_bytes())
        path = report.intercepted[0].path
        assert report.tracker.is_remote(path)
        assert provenance_of(path, report.tracker) is Provenance.REMOTE
        assert report.tracker.remote_sources(path) == [PAYLOAD_URL]

    def test_local_provenance(self):
        apk, _ = local_loader_app()
        report = _run_app(apk)
        path = report.intercepted[0].path
        assert not report.tracker.is_remote(path)
        assert provenance_of(path, report.tracker) is Provenance.LOCAL

    def test_flow_path_witness(self):
        report = _run_app(downloads_and_loads_app(), simple_payload_dex().to_bytes())
        path = report.intercepted[0].path
        chain = report.tracker.flow_path(PAYLOAD_URL, path)
        assert chain[0] == "URL" and chain[-1] == "File"
        assert "InputStream" in chain and "Buffer" in chain and "OutputStream" in chain

    def test_rename_extends_flow(self):
        tracker = DownloadTracker()
        instrumentation = Instrumentation(block_file_ops=False)
        tracker.attach(instrumentation)
        from repro.runtime.instrumentation import FlowNode

        url = FlowNode(key="URL@1", kind="URL", detail="http://x/a")
        file_a = FlowNode(key="file:/a", kind="File", detail="/a")
        file_b = FlowNode(key="file:/b", kind="File", detail="/b")
        instrumentation.emit_flow(url, file_a, "URL->InputStream")
        instrumentation.emit_flow(file_a, file_b, "File->File")
        assert tracker.is_remote("/b")

    def test_downloaded_files(self):
        report = _run_app(downloads_and_loads_app(), simple_payload_dex().to_bytes())
        assert "/data/data/com.example.demo/cache/payload.jar" in report.tracker.downloaded_files()

    def test_reachability_is_one_pass_per_payload(self):
        """Provenance is O(M) passes for M payloads, not O(N URLs * M).

        ``is_remote`` used to walk per-URL and ``remote_sources`` repeated
        the work; now one memoized reverse-reachability pass serves both.
        """
        tracker = DownloadTracker()
        instrumentation = Instrumentation(block_file_ops=False)
        tracker.attach(instrumentation)
        from repro.runtime.instrumentation import FlowNode

        n_urls, n_files = 10, 6
        for u in range(n_urls):
            url = FlowNode(
                key="URL@{}".format(u), kind="URL", detail="http://x/{}".format(u)
            )
            for f in range(n_files):
                file_node = FlowNode(
                    key="file:/f{}".format(f), kind="File", detail="/f{}".format(f)
                )
                instrumentation.emit_flow(url, file_node, "URL->InputStream")

        tracker.reachability_passes = 0
        for f in range(n_files):
            path = "/f{}".format(f)
            assert tracker.is_remote(path)
            assert len(tracker.remote_sources(path)) == n_urls
        assert tracker.reachability_passes == n_files

        # new evidence invalidates the memo; a re-query pays exactly one pass
        extra = FlowNode(key="URL@x", kind="URL", detail="http://x/extra")
        instrumentation.emit_flow(extra, FlowNode(
            key="file:/f0", kind="File", detail="/f0"
        ), "URL->InputStream")
        assert len(tracker.remote_sources("/f0")) == n_urls + 1
        assert tracker.reachability_passes == n_files + 1


class TestEntityAttribution:
    def _event(self, call_site, package="com.example.demo"):
        return DexLoadEvent(
            dex_paths=("/x.jar",),
            odex_dir=None,
            loader_kind="DexClassLoader",
            call_site=call_site,
            stack=(StackTraceElement(call_site or "x.Y", "m"),),
            app_package=package,
            timestamp_ms=0,
        )

    def test_own(self):
        assert entity_of(self._event("com.example.demo.ui.Loader")) is Entity.OWN

    def test_third_party(self):
        assert entity_of(self._event("com.google.ads.AdView")) is Entity.THIRD_PARTY

    def test_prefix_is_not_substring_match(self):
        # com.example.demo2 is NOT inside com.example.demo.
        assert entity_of(self._event("com.example.demo2.Loader")) is Entity.THIRD_PARTY

    def test_unknown_without_call_site(self):
        assert entity_of(self._event(None)) is Entity.UNKNOWN
