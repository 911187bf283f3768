"""Additional runtime coverage: device, network, stack traces, package
contexts, storage exhaustion handling, report rendering details."""

import pytest

from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.runtime.device import (
    BASELINE_CONFIG,
    TABLE_VIII_CONFIGS,
    Device,
    DeviceConfig,
    EnvironmentConfig,
)
from repro.runtime.network import HttpNotFoundError, Network, NetworkUnavailableError
from repro.runtime.objects import VMException, VMObject, as_bool, object_key, type_name
from repro.runtime.stacktrace import StackTraceElement, call_site_class, render, shares_app_package
from repro.dynamic.engine import AppExecutionEngine, DynamicOutcome, EngineOptions

from tests.helpers import build_manifest, simple_payload_dex


class TestNetwork:
    def test_host_and_fetch(self):
        network = Network()
        network.host_resource("http://a.example/x/y", b"payload")
        assert network.fetch("http://a.example/x/y") == b"payload"
        assert network.fetch_log == [("http://a.example/x/y", True)]

    def test_missing_resource_404(self):
        network = Network()
        network.host_resource("http://a.example/x", b"d")
        with pytest.raises(HttpNotFoundError):
            network.fetch("http://a.example/other")

    def test_unknown_host_404(self):
        with pytest.raises(HttpNotFoundError):
            Network().fetch("http://nobody.example/")

    def test_offline(self):
        network = Network()
        network.host_resource("http://a.example/x", b"d")
        with pytest.raises(NetworkUnavailableError):
            network.fetch("http://a.example/x", online=False)
        assert network.fetch_log == [("http://a.example/x", False)]

    def test_callable_resource(self):
        network = Network()
        server = network.server("dyn.example")
        server.flags["on"] = False
        server.put("/p", lambda srv, path: b"yes" if srv.flags["on"] else None)
        with pytest.raises(HttpNotFoundError):
            network.fetch("http://dyn.example/p")
        server.flags["on"] = True
        assert network.fetch("http://dyn.example/p") == b"yes"


class TestDevice:
    def test_install_extracts_native_libs(self):
        from repro.android.nativelib import NativeLibrary

        apk = Apk.build(
            build_manifest("com.n.app"), native_libs=[NativeLibrary(name="libz.so")]
        )
        device = Device()
        device.install(apk)
        assert device.vfs.exists("/data/data/com.n.app/lib/libz.so")
        assert device.vfs.exists("/data/app/com.n.app-1.apk")

    def test_uninstall_wipes_data(self):
        apk = Apk.build(build_manifest("com.n.app"))
        device = Device()
        device.install(apk)
        device.vfs.write("/data/data/com.n.app/files/x", b"1", owner="com.n.app")
        assert device.uninstall("com.n.app")
        assert not device.vfs.exists("/data/data/com.n.app/files/x")
        assert not device.uninstall("com.n.app")

    def test_connectivity_matrix(self):
        device = Device()
        assert device.is_online()
        device.config.airplane_mode = True
        device.config.wifi_enabled = True
        assert device.is_online()
        device.config.wifi_enabled = False
        assert not device.is_online()

    def test_apply_environment_time_relative_to_release(self):
        device = Device()
        release = 1_000_000_000_000
        env = EnvironmentConfig(name="t", time_shift_days=-10)
        device.apply_environment(env, release_time_ms=release)
        assert device.now_ms() == release - 10 * 86_400_000

    def test_apply_environment_syncs_settings(self):
        device = Device()
        device.apply_environment(EnvironmentConfig(name="a", airplane_mode=True))
        assert device.settings["airplane_mode_on"] == "1"
        device.apply_environment(BASELINE_CONFIG)
        assert device.settings["airplane_mode_on"] == "0"

    def test_table_viii_config_names(self):
        assert [c.name for c in TABLE_VIII_CONFIGS] == [
            "system-time-before-release",
            "airplane-wifi-on",
            "airplane-wifi-off",
            "location-off",
        ]

    def test_system_libs_seeded(self):
        device = Device()
        assert device.vfs.exists("/system/lib/libc.so")


class TestStackTraces:
    def test_call_site_skips_framework(self):
        stack = (
            StackTraceElement("dalvik.system.DexClassLoader", "<init>"),
            StackTraceElement("java.lang.ClassLoader", "loadClass"),
            StackTraceElement("com.vendor.sdk.Loader", "start"),
            StackTraceElement("com.app.MainActivity", "onCreate"),
        )
        assert call_site_class(stack) == "com.vendor.sdk.Loader"

    def test_all_framework_returns_none(self):
        stack = (StackTraceElement("android.app.ActivityThread", "main"),)
        assert call_site_class(stack) is None

    def test_shares_app_package_boundaries(self):
        assert shares_app_package("com.app.ui.Widget", "com.app")
        assert shares_app_package("com.app", "com.app")
        assert not shares_app_package("com.application.X", "com.app")
        assert not shares_app_package("com.ap", "com.app")

    def test_render(self):
        lines = render([StackTraceElement("a.B", "m")])
        assert lines == ["  at a.B.m"]


class TestObjects:
    def test_as_bool(self):
        assert not as_bool(None) and not as_bool(0) and not as_bool("")
        assert as_bool(1) and as_bool(VMObject("x"))

    def test_type_names(self):
        assert type_name(None) == "null"
        assert type_name(5) == "int"
        assert type_name("s") == "java.lang.String"
        assert type_name(b"b") == "byte[]"
        assert type_name(VMObject("a.B")) == "a.B"

    def test_object_key_stable_and_unique(self):
        a, b = VMObject("x.Y"), VMObject("x.Y")
        assert object_key(a) != object_key(b)
        assert object_key(a) == object_key(a)

    def test_exception_carries_class(self):
        exc = VMException("java.io.IOException", "boom")
        assert exc.class_name == "java.io.IOException"
        assert "boom" in str(exc)


class TestPackageContexts:
    """Section II: apps can use package contexts to retrieve the classes
    contained in another application -- that is a DCL event too."""

    def _loader_app(self, target_package):
        package = "com.borrower.app"
        activity = "{}.MainActivity".format(package)
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        foreign = b.call_virtual(
            "android.content.Context", "createPackageContext",
            b.arg(0), b.new_string(target_package), b.new_int(1),
        )
        loader = b.call_virtual("android.content.Context", "getClassLoader", foreign)
        cls_handle = b.call_virtual(
            "java.lang.ClassLoader", "loadClass", loader, b.new_string("com.sdk.payload.Entry")
        )
        instance = b.call_virtual("java.lang.Class", "newInstance", cls_handle)
        b.call_void("com.sdk.payload.Entry", "run", instance, b.arg(0))
        b.ret_void()
        cls.add_method(b.build())
        return Apk.build(build_manifest(package), dex_files=[DexFile(classes=[cls])])

    def test_cross_package_class_loading(self):
        provider = Apk.build(
            build_manifest("com.provider.app"), dex_files=[simple_payload_dex()]
        )
        apk = self._loader_app("com.provider.app")
        report = AppExecutionEngine(EngineOptions(companions=(provider,))).run(apk)
        assert report.outcome is DynamicOutcome.EXERCISED
        # the load of the other app's APK was logged as a DCL event...
        assert report.dcl.dex_paths() == ["/data/app/com.provider.app-1.apk"]
        assert report.dcl.dex_events[0].loader_kind == "PathClassLoader"
        # ...and the borrowed code actually ran.
        assert "payload: loaded-code-ran" in report.logcat

    def test_missing_target_package(self):
        apk = self._loader_app("com.not.installed")
        report = AppExecutionEngine(EngineOptions()).run(apk)
        assert report.outcome is DynamicOutcome.CRASH
        assert "NameNotFoundException" in report.crash_reason

    def test_own_context_loader_is_not_dcl(self):
        package = "com.selfref.app"
        activity = "{}.MainActivity".format(package)
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        b.call_virtual("android.content.Context", "getClassLoader", b.arg(0))
        b.ret_void()
        cls.add_method(b.build())
        apk = Apk.build(build_manifest(package), dex_files=[DexFile(classes=[cls])])
        report = AppExecutionEngine(EngineOptions()).run(apk)
        assert report.dcl.dex_events == []


class TestStorageExhaustion:
    def test_engine_survives_enospc(self):
        """The paper: 'various types of exceptions are automatically
        handled, such as device storage running out.'"""
        package = "com.bigwriter.app"
        activity = "{}.MainActivity".format(package)
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        out = b.new_instance_of(
            "java.io.FileOutputStream",
            b.new_string("/data/data/{}/files/big.bin".format(package)),
        )
        size = b.new_int(1 << 20)  # a megabyte the tiny device cannot hold
        buf = b.reg()
        from repro.android import bytecode as bc

        b.emit(bc.Instruction(bc.Op.NEW_ARRAY, (buf, size)))
        b.call_void("java.io.OutputStream", "write", out, buf)
        b.ret_void()
        cls.add_method(b.build())
        apk = Apk.build(build_manifest(package), dex_files=[DexFile(classes=[cls])])

        tiny = DeviceConfig(storage_quota_bytes=64_000)
        report = AppExecutionEngine(
            EngineOptions(device_config=tiny, mirror_dumps_to_sdcard=True)
        ).run(apk)
        # ENOSPC triggered the engine's cleanup-and-retry cycle; when even
        # that can't make room the app crashes like it would on a real
        # device, but the engine itself never blows up.
        assert report.outcome in (DynamicOutcome.EXERCISED, DynamicOutcome.CRASH)
        if report.outcome is DynamicOutcome.CRASH:
            assert "ENOSPC" in report.crash_reason
        assert report.storage_cleanups >= 1


class TestSharedPreferences:
    def _apk(self, body):
        from repro.android.apk import Apk
        from repro.android.builders import MethodBuilder, class_builder
        from repro.android.dex import DexFile

        activity = "com.prefs.app.MainActivity"
        cls = class_builder(activity, superclass="android.app.Activity")
        b = MethodBuilder("onCreate", activity, arity=1)
        body(b)
        b.ret_void()
        cls.add_method(b.build())
        return Apk.build(build_manifest("com.prefs.app"), dex_files=[DexFile(classes=[cls])])

    def test_put_get_roundtrip_persists_to_file(self):
        def body(b):
            prefs = b.call_virtual(
                "android.content.Context", "getSharedPreferences",
                b.arg(0), b.new_string("settings"), b.new_int(0),
            )
            editor = b.call_virtual("android.content.SharedPreferences", "edit", prefs)
            b.call_virtual(
                "android.content.SharedPreferences", "putString",
                editor, b.new_string("token"), b.new_string("abc123"),
            )
            b.call_virtual("android.content.SharedPreferences", "commit", editor)
            value = b.call_virtual(
                "android.content.SharedPreferences", "getString",
                prefs, b.new_string("token"), b.new_null(),
            )
            b.call_void("android.util.Log", "d", b.new_string("prefs"), value)

        from repro.dynamic.engine import AppExecutionEngine, EngineOptions

        report = AppExecutionEngine(EngineOptions()).run(self._apk(body))
        assert "prefs: abc123" in report.logcat

    def test_default_when_missing(self):
        def body(b):
            prefs = b.call_virtual(
                "android.content.Context", "getSharedPreferences",
                b.arg(0), b.new_string("settings"), b.new_int(0),
            )
            value = b.call_virtual(
                "android.content.SharedPreferences", "getString",
                prefs, b.new_string("missing"), b.new_string("fallback"),
            )
            b.call_void("android.util.Log", "d", b.new_string("prefs"), value)

        from repro.dynamic.engine import AppExecutionEngine, EngineOptions

        report = AppExecutionEngine(EngineOptions()).run(self._apk(body))
        assert "prefs: fallback" in report.logcat
