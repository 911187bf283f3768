"""Tests for the call-graph builder and the reachability prefilter."""


from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.corpus.generator import CorpusGenerator
from repro.static_analysis.callgraph import (
    build_call_graph,
    entry_points,
    prefilter_reachable,
    reachable_methods,
)
from repro.static_analysis.decompiler import Decompiler
from repro.static_analysis.prefilter import prefilter

from tests.helpers import build_manifest, downloads_and_loads_app, emit_load_dex


def _decompile(apk):
    return Decompiler().decompile(apk)


def _app_with_methods(method_specs, package="com.cg.app"):
    """method_specs: list of (class, name, [callee (class, name)...])."""
    classes = {}
    for class_name, method_name, callees in method_specs:
        cls = classes.setdefault(
            class_name,
            class_builder(
                class_name,
                superclass="android.app.Activity"
                if method_name == "onCreate"
                else "java.lang.Object",
            ),
        )
        b = MethodBuilder(method_name, class_name, arity=1)
        for callee_class, callee_name in callees:
            b.call_void(callee_class, callee_name, b.arg(0))
        b.ret_void()
        cls.add_method(b.build())
    manifest = build_manifest(package, activities=("MainActivity",))
    return Apk.build(manifest, dex_files=[DexFile(classes=list(classes.values()))])


class TestCallGraph:
    def test_direct_edges(self):
        apk = _app_with_methods(
            [
                ("com.cg.app.MainActivity", "onCreate", [("com.cg.app.Helper", "work")]),
                ("com.cg.app.Helper", "work", []),
            ]
        )
        graph = build_call_graph(_decompile(apk))
        assert graph.has_edge(
            ("com.cg.app.MainActivity", "onCreate"), ("com.cg.app.Helper", "work")
        )

    def test_cha_subclass_dispatch(self):
        # call through the base type reaches the subclass override.
        apk = _app_with_methods(
            [
                ("com.cg.app.MainActivity", "onCreate", [("com.cg.app.Base", "run")]),
                ("com.cg.app.Base", "run", []),
            ]
        )
        program = _decompile(apk)
        sub = class_builder("com.cg.app.Sub", superclass="com.cg.app.Base")
        b = MethodBuilder("run", "com.cg.app.Sub", arity=1)
        b.ret_void()
        sub.add_method(b.build())
        program.dex_files[0].classes.append(sub)
        graph = build_call_graph(program)
        assert graph.has_edge(
            ("com.cg.app.MainActivity", "onCreate"), ("com.cg.app.Sub", "run")
        )

    def test_entry_points_include_handlers_and_lifecycle(self):
        apk = _app_with_methods(
            [
                ("com.cg.app.MainActivity", "onCreate", []),
                ("com.cg.app.MainActivity", "onBannerClick", []),
            ]
        )
        entries = entry_points(_decompile(apk))
        assert ("com.cg.app.MainActivity", "onCreate") in entries
        assert ("com.cg.app.MainActivity", "onBannerClick") in entries

    def test_unreachable_method_excluded(self):
        apk = _app_with_methods(
            [
                ("com.cg.app.MainActivity", "onCreate", []),
                ("com.cg.app.Orphan", "never", []),
            ]
        )
        reachable = reachable_methods(_decompile(apk))
        assert ("com.cg.app.MainActivity", "onCreate") in reachable
        assert ("com.cg.app.Orphan", "never") not in reachable


class TestReachabilityPrefilter:
    def test_agrees_on_reachable_dcl(self):
        program = _decompile(downloads_and_loads_app())
        assert prefilter(program).has_dex_dcl
        assert prefilter_reachable(program).has_dex_dcl

    def test_dead_dcl_filtered_out(self):
        activity = "com.cg.app.MainActivity"
        cls = class_builder(activity, superclass="android.app.Activity")
        live = MethodBuilder("onCreate", activity, arity=1)
        live.ret_void()
        cls.add_method(live.build())
        dead = MethodBuilder("legacyLoader", activity, arity=1, is_public=False)
        emit_load_dex(dead, "/data/data/com.cg.app/files/x.jar", "/odex")
        dead.ret_void()
        cls.add_method(dead.build())
        apk = Apk.build(build_manifest("com.cg.app"), dex_files=[DexFile(classes=[cls])])
        program = _decompile(apk)
        assert prefilter(program).has_dex_dcl            # existence: flagged
        assert not prefilter_reachable(program).has_dex_dcl  # reachability: pruned

    def test_corpus_ground_truth_agreement(self):
        """On generated apps, reachability-pruned == blueprint reachability
        (no reflection-hidden DCL in the generator's direct-call templates)."""
        generator = CorpusGenerator(seed=81)
        blueprints = generator.sample_blueprints(250)
        checked = 0
        for blueprint in blueprints:
            if blueprint.anti_decompilation or blueprint.is_packed:
                continue
            if not blueprint.has_dex_dcl_code:
                continue
            record = generator.build_record(blueprint)
            program = _decompile(record.apk)
            reachable_verdict = prefilter_reachable(program).has_dex_dcl
            assert reachable_verdict == blueprint.dex_dcl_reachable, record.package
            checked += 1
        assert checked > 50
