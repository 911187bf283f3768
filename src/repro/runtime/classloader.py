"""``DexClassLoader`` / ``PathClassLoader`` -- the bytecode DCL choke point.

All bytecode DCL goes through these two constructors (Section II: "all DCL
goes through one of these points, which provides us with a reliable way to
enforce complete mediation").  The hooked constructors:

1. resolve the ``dexPath`` list (``:``-separated, various container formats),
2. skip system binaries (``/system/...`` is vendor-trusted, out of scope),
3. capture the Java stack trace and emit a :class:`DexLoadEvent` carrying the
   loaded paths, the optimized-DEX directory, and the call-site class,
4. define the loaded classes into the VM class space (the actual load), and
5. write the ODEX translation into the optimized directory.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.android.apk import loadable_dex
from repro.android.dex import DexFile
from repro.runtime.instrumentation import CodeOriginEvent, DexLoadEvent
from repro.runtime.objects import VMException, VMObject
from repro.runtime.stacktrace import call_site_class
from repro.runtime.vfs import is_system, normalize

DALVIK_CACHE = "/data/dalvik-cache"


def install(vm) -> None:
    vm.register_api("dalvik.system.DexClassLoader", "<init>", _dex_class_loader_init)
    vm.register_api("dalvik.system.PathClassLoader", "<init>", _path_class_loader_init)
    vm.register_api("java.lang.ClassLoader", "loadClass", _load_class)


def _dex_class_loader_init(vm, args: List[Any]) -> None:
    # DexClassLoader(dexPath, optimizedDirectory, librarySearchPath, parent)
    loader = args[0]
    dex_path = args[1] if len(args) > 1 else None
    optimized_dir = args[2] if len(args) > 2 else None
    _construct_loader(vm, loader, "DexClassLoader", dex_path, optimized_dir)


def _path_class_loader_init(vm, args: List[Any]) -> None:
    # PathClassLoader(dexPath, parent) -- optimized output goes to dalvik-cache.
    loader = args[0]
    dex_path = args[1] if len(args) > 1 else None
    _construct_loader(vm, loader, "PathClassLoader", dex_path, DALVIK_CACHE)


def _construct_loader(
    vm,
    loader: VMObject,
    kind: str,
    dex_path: Optional[str],
    optimized_dir: Optional[str],
) -> None:
    if not dex_path:
        raise VMException("java.lang.NullPointerException", "dexPath")
    ctx = vm.context
    paths = _split_load_order(
        [normalize(p) for p in str(dex_path).split(":") if p]
    )
    app_paths = [p for p in paths if not is_system(p)]

    if app_paths:
        event = DexLoadEvent(
            dex_paths=tuple(app_paths),
            odex_dir=optimized_dir,
            loader_kind=kind,
            call_site=call_site_class(vm.stack_trace()),
            stack=vm.stack_trace(),
            app_package=ctx.package if ctx else "",
            timestamp_ms=vm.device.now_ms(),
        )
        vm.instrumentation.emit_dex_load(event)
        # Inline enforcement (repro.defense.firewall): the event is logged
        # and the interceptor has dumped the payload, but no class has been
        # defined yet -- a DENY/QUARANTINE verdict raises an app-catchable
        # SecurityException before any loaded code can run.
        firewall = getattr(vm, "firewall", None)
        if firewall is not None:
            firewall.check_dex_load(event)

    defined: List[str] = []
    for path in paths:
        dex = _read_dex(vm, path)
        if dex is None:
            continue
        defined_here = vm.load_dex(dex)
        defined.extend(defined_here)
        # Per-class origin facts chain provenance across staged loads:
        # code defined from this file may itself fetch the next payload.
        for class_name in defined_here:
            vm.instrumentation.emit_code_origin(
                CodeOriginEvent(
                    class_name=class_name,
                    path=path,
                    app_package=ctx.package if ctx else "",
                )
            )
        _write_odex(vm, dex, path, optimized_dir)
    loader.payload = {"kind": kind, "paths": paths, "defined": defined}


def _is_split_basename(basename: str) -> bool:
    return basename.startswith("split_") or basename.startswith("config.")


def _split_load_order(paths: List[str]) -> List[str]:
    """Split-aware dexPath ordering: base entries first, splits sorted.

    A dexPath mixing base code with feature/config splits must define the
    base first (splits may shadow base classes) and splits in a stable
    name order, whatever order the app passed them in.  Single-entry and
    split-free paths come back unchanged.
    """
    if len(paths) < 2:
        return paths
    base_like = [p for p in paths if not _is_split_basename(p.rsplit("/", 1)[-1])]
    splits = [p for p in paths if _is_split_basename(p.rsplit("/", 1)[-1])]
    if not splits:
        return paths
    return base_like + sorted(splits, key=lambda p: p.rsplit("/", 1)[-1])


def _read_dex(vm, path: str) -> Optional[DexFile]:
    """Parse loadable bytecode from any supported container format.

    ``dexPath`` entries may be bare DEX/ODEX or APK/JAR/ZIP containers
    (Section II: "stored in files with various formats, such as APK, JAR,
    ZIP, DEX, and ODEX").  Real loaders tolerate containers without
    classes.dex until ``loadClass()``, so encrypted or classless files
    define nothing; any other error is a bug and propagates.
    """
    try:
        data = vm.device.vfs.read(path)
    except FileNotFoundError:
        raise VMException("java.io.FileNotFoundException", path)
    return loadable_dex(data, path)


def _write_odex(vm, dex: DexFile, dex_path: str, optimized_dir: Optional[str]) -> None:
    if not optimized_dir:
        return
    base = dex_path.rsplit("/", 1)[-1]
    stem = base.rsplit(".", 1)[0] if "." in base else base
    odex_path = "{}/{}.odex".format(normalize(optimized_dir).rstrip("/"), stem)
    try:
        from repro.runtime.frameworkapi import vm_write_file

        vm_write_file(vm, odex_path, dex.to_odex())
    except VMException:
        # ODEX emission failure (quota/permissions) does not abort the load;
        # Dalvik falls back to interpreting the unoptimized DEX.
        pass


def _load_class(vm, args: List[Any]) -> VMObject:
    _, name = args[0], args[1]
    if name in vm.class_space or vm.is_framework_class(name):
        return VMObject("java.lang.Class", payload=name)
    raise VMException("java.lang.ClassNotFoundException", str(name))
