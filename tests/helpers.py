"""Shared test fixtures: small hand-built apps exercising the runtime."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.android import bytecode as bc
from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.android.manifest import (
    INTERNET,
    WRITE_EXTERNAL_STORAGE,
    AndroidManifest,
    Component,
    ComponentKind,
)


def simple_payload_dex(
    class_name: str = "com.sdk.payload.Entry", log_tag: str = "payload"
) -> DexFile:
    """A loadable DEX whose Entry.run(ctx) writes one logcat line."""
    cls = class_builder(class_name)
    init = MethodBuilder("<init>", class_name, arity=1)
    init.ret_void()
    cls.add_method(init.build())
    run = MethodBuilder("run", class_name, arity=1)
    run.call_void(
        "android.util.Log", "d", run.new_string(log_tag), run.new_string("loaded-code-ran")
    )
    run.ret_void()
    cls.add_method(run.build())
    return DexFile(classes=[cls], source_name="payload.jar")


def build_manifest(
    package: str = "com.example.demo",
    activities: Iterable[str] = ("MainActivity",),
    permissions: Optional[set] = None,
    min_sdk: int = 14,
    application_name: Optional[str] = None,
) -> AndroidManifest:
    components = [
        Component(ComponentKind.ACTIVITY, "{}.{}".format(package, name), i == 0)
        for i, name in enumerate(activities)
    ]
    return AndroidManifest(
        package=package,
        min_sdk=min_sdk,
        permissions=permissions if permissions is not None else {INTERNET, WRITE_EXTERNAL_STORAGE},
        components=components,
        application_name=application_name,
    )


def emit_download_and_load(
    builder: MethodBuilder,
    url: str,
    dest_path: str,
    odex_dir: str,
    entry_class: Optional[str] = None,
    delete_after: bool = False,
) -> None:
    """Emit the canonical download -> write -> DexClassLoader -> run idiom."""
    url_obj = builder.new_instance_of("java.net.URL", builder.new_string(url))
    conn = builder.call_virtual("java.net.URL", "openConnection", url_obj)
    stream = builder.call_virtual("java.net.URLConnection", "getInputStream", conn)
    size = builder.new_int(1 << 20)
    buf = builder.reg()
    builder.emit(bc.Instruction(bc.Op.NEW_ARRAY, (buf, size)))
    builder.call_virtual("java.io.InputStream", "read", stream, buf)
    dest = builder.new_string(dest_path)
    out = builder.new_instance_of("java.io.FileOutputStream", dest)
    builder.call_void("java.io.OutputStream", "write", out, buf)
    builder.call_void("java.io.OutputStream", "close", out)
    emit_load_dex(builder, dest_path, odex_dir, entry_class)
    if delete_after:
        file_obj = builder.new_instance_of("java.io.File", dest)
        builder.call_virtual("java.io.File", "delete", file_obj)


def emit_load_dex(
    builder: MethodBuilder,
    dex_path: str,
    odex_dir: str,
    entry_class: Optional[str] = None,
    loader_kind: str = "dalvik.system.DexClassLoader",
) -> None:
    """Emit loader construction (and optional payload entry invocation)."""
    path_reg = builder.new_string(dex_path)
    null = builder.new_null()
    if loader_kind.endswith("DexClassLoader"):
        loader = builder.new_instance_of(
            loader_kind, path_reg, builder.new_string(odex_dir), null, null
        )
    else:
        loader = builder.new_instance_of(loader_kind, path_reg, null)
    if entry_class is not None:
        cls = builder.call_virtual(
            "java.lang.ClassLoader", "loadClass", loader, builder.new_string(entry_class)
        )
        instance = builder.call_virtual("java.lang.Class", "newInstance", cls)
        builder.call_void(entry_class, "run", instance, builder.arg(0))


def downloads_and_loads_app(
    package: str = "com.example.demo",
    url: str = "http://cdn.sdk-demo.com/payload.jar",
    delete_after: bool = False,
    entry_class: str = "com.sdk.payload.Entry",
) -> Apk:
    """An app whose MainActivity.onCreate downloads + loads a remote DEX."""
    activity_name = "{}.MainActivity".format(package)
    builder = MethodBuilder("onCreate", activity_name, arity=1)
    emit_download_and_load(
        builder,
        url=url,
        dest_path="/data/data/{}/cache/payload.jar".format(package),
        odex_dir="/data/data/{}/cache/odex".format(package),
        entry_class=entry_class,
        delete_after=delete_after,
    )
    builder.ret_void()
    activity = class_builder(activity_name, superclass="android.app.Activity")
    activity.add_method(builder.build())
    dex = DexFile(classes=[activity])
    return Apk.build(build_manifest(package), dex_files=[dex])


def local_loader_app(
    package: str = "com.example.localload",
    asset_name: str = "plugin.jar",
    entry_class: str = "com.plugin.Main",
) -> Tuple[Apk, DexFile]:
    """An app that copies a packaged asset to cache and loads it locally."""
    payload = simple_payload_dex(entry_class)
    activity_name = "{}.MainActivity".format(package)
    dest = "/data/data/{}/cache/{}".format(package, asset_name)
    builder = MethodBuilder("onCreate", activity_name, arity=1)
    assets = builder.call_virtual("android.content.Context", "getAssets", builder.arg(0))
    stream = builder.call_virtual(
        "android.content.res.AssetManager", "open", assets, builder.new_string(asset_name)
    )
    size = builder.new_int(1 << 20)
    buf = builder.reg()
    builder.emit(bc.Instruction(bc.Op.NEW_ARRAY, (buf, size)))
    builder.call_virtual("java.io.InputStream", "read", stream, buf)
    out = builder.new_instance_of("java.io.FileOutputStream", builder.new_string(dest))
    builder.call_void("java.io.OutputStream", "write", out, buf)
    emit_load_dex(builder, dest, "/data/data/{}/cache/odex".format(package), entry_class)
    builder.ret_void()
    activity = class_builder(activity_name, superclass="android.app.Activity")
    activity.add_method(builder.build())
    apk = Apk.build(
        build_manifest(package),
        dex_files=[DexFile(classes=[activity])],
        assets={"assets/{}".format(asset_name): payload.to_bytes()},
    )
    return apk, payload
