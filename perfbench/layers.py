"""Per-layer timing for traced benchmark runs.

The benchmark times calls into each module's public functions from here,
without editing the program: :func:`install` swaps timing wrappers onto
the classes and module attributes the pipeline calls through.  Each
wrapper counts every call and adds the call's duration to its key only
when no other call of the same layer is open on the thread, so nested
calls (``generate`` -> ``build_record``) are not counted twice.  Every
wrapped call is also a span in a benchmark-owned tracer, exported next to
the program's own spans.

:class:`SelfTimeTracer` is a drop-in :class:`~repro.observe.tracer.Tracer`
that keeps, per span name, the total duration and the self time (duration
minus the part its children cover) of the program's existing spans.

Everything lives in the process-wide :data:`STATS`; :func:`snapshot`
returns it as plain data, and the service daemon writes that to a file
(:func:`dump`) the benchmark process reads back.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.observe.tracer import Tracer

perf_counter = time.perf_counter


class LayerStats:
    """Counts, busy time, samples and span self times of one process."""

    def __init__(self) -> None:
        # re-entrant: a gc callback can fire while this thread holds it.
        self.lock = threading.RLock()
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.span_total: Dict[str, float] = defaultdict(float)
        self.span_self: Dict[str, float] = defaultdict(float)
        self.span_root: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, float] = defaultdict(float)
        self.tracers: List[Tracer] = []

    def record(self, key: str, seconds: float, sample: bool) -> None:
        with self.lock:
            self.calls[key] += 1
            self.seconds[key] += seconds
            if sample:
                self.samples[key].append(seconds)

    def add(self, key: str, value: float) -> None:
        with self.lock:
            self.extra[key] += value

    def to_dict(self) -> Dict[str, Any]:
        with self.lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "span_total": dict(self.span_total),
                "span_self": dict(self.span_self),
                "span_root": dict(self.span_root),
                "extra": dict(self.extra),
            }


STATS = LayerStats()
_local = threading.local()


def _thread_state():
    state = getattr(_local, "state", None)
    if state is None:
        tracer = Tracer()
        state = _local.state = {"active": defaultdict(int), "tracer": tracer}
        with STATS.lock:
            STATS.tracers.append(tracer)
    return state


class SelfTimeTracer(Tracer):
    """A :class:`Tracer` that folds span totals and self times into STATS."""

    def __init__(self) -> None:
        super().__init__()
        self._covered: Dict[int, float] = {}

    def _end(self, span) -> None:
        super()._end(span)
        covered = self._covered.pop(span.span_id, 0.0)
        if span.parent_id:
            self._covered[span.parent_id] = (
                self._covered.get(span.parent_id, 0.0) + span.duration_s
            )
        with STATS.lock:
            STATS.span_total[span.name] += span.duration_s
            STATS.span_self[span.name] += span.duration_s - covered
            if not span.parent_id:
                STATS.span_root[span.name] += span.duration_s


def timed(
    key: str,
    layer: str,
    fn: Callable,
    skip_inside: Iterable[str] = (),
    sample: bool = False,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Callable:
    """Wrap ``fn`` so each call is counted and timed under ``key``."""
    skip_inside = tuple(skip_inside)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _thread_state()
        active = state["active"]
        if any(active[name] for name in skip_inside):
            return fn(*args, **kwargs)
        outermost = not active[layer]
        active[layer] += 1
        started = perf_counter()
        try:
            with state["tracer"].span(key):
                result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            active[layer] -= 1
            STATS.record(key, elapsed if outermost else 0.0, sample)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


#: (owner, attribute, original) of every installed wrapper.
_patches: List[tuple] = []


def _replace(owner, name: str, value) -> None:
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    _patches.append((owner, name, original))
    setattr(owner, name, value)


def _patch(owner, name: str, layer: str, **options) -> None:
    """Wrap ``owner.name``; its key is the function's qualified name, with
    the module's last component for module-level functions
    (``DexFile.from_bytes``, ``flowdroid.analyze_dex``), so benchmark
    spans never share a name with the program's own spans."""
    current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    fn = current.__func__ if isinstance(current, classmethod) else current
    key = fn.__qualname__
    if "." not in key:
        key = "{}.{}".format(fn.__module__.rsplit(".", 1)[-1], key)
    wrapper = timed(key, layer, fn, **options)
    _replace(owner, name, classmethod(wrapper) if isinstance(current, classmethod) else wrapper)


def _count_store_hit(result) -> None:
    if result[0]:
        STATS.add("store.hits", 1)


def _record_full_scans(close: Callable) -> Callable:
    @functools.wraps(close)
    def wrapper(self):
        STATS.add("store.full_scans", self.index_stats()["full_scans"])
        return close(self)

    return wrapper


_gc_started: List[float] = []


def _on_gc(phase: str, info: Dict[str, int]) -> None:
    if phase == "start":
        _gc_started.append(perf_counter())
    elif _gc_started:
        STATS.add("gc.pause_s", perf_counter() - _gc_started.pop())
        if info.get("generation") == 2:
            STATS.add("gc.gen2_collections", 1)


def install() -> None:
    """Wrap every layer's public entry points; :func:`uninstall` undoes it."""
    if _patches:
        return
    from repro.android.apk import Apk
    from repro.android.dex import DexFile
    from repro.android.manifest import AndroidManifest
    from repro.core import pipeline
    from repro.core.report import MeasurementReport
    from repro.corpus.generator import CorpusGenerator
    from repro.dynamic.engine import AppExecutionEngine
    from repro.farm import coordinator, worker
    from repro.farm.checkpoint import CheckpointJournal
    from repro.farm.flight import FlightRecorder
    from repro.static_analysis.decompiler import Decompiler
    from repro.static_analysis.malware.droidnative import DroidNative
    from repro.service import daemon
    from repro.store.verdicts import VerdictStore

    _replace(worker, "Tracer", SelfTimeTracer)
    _replace(daemon, "Tracer", SelfTimeTracer)
    _replace(coordinator, "run_shard", run_shard_measured)
    generated = {"skip_inside": ("corpus",)}
    _patch(CorpusGenerator, "generate", "corpus")
    _patch(CorpusGenerator, "sample_blueprints", "corpus")
    _patch(CorpusGenerator, "build_record", "corpus")
    _patch(DexFile, "from_bytes", "android.dex", **generated)
    _patch(AndroidManifest, "from_bytes", "android.manifest", **generated)
    _patch(Apk, "from_bytes", "android.apk", **generated)
    _patch(Decompiler, "decompile", "decompiler")
    _patch(pipeline, "prefilter", "prefilter")
    _patch(AppExecutionEngine, "run", "dynamic")
    _patch(AppExecutionEngine, "replay_under_configs", "replay")
    _patch(DroidNative, "train_corpus", "droidnative")
    _patch(DroidNative, "detect", "droidnative")
    _patch(pipeline, "analyze_dex", "flowdroid")
    _patch(pipeline, "classify_loads", "vulnerability")
    _patch(pipeline, "analyze_obfuscation", "obfuscation")
    _patch(pipeline, "classify_hazards", "ecosystems")
    _patch(pipeline.DyDroid, "analyze_app", "pipeline", sample=True)
    _patch(MeasurementReport, "render_all", "report")
    _patch(MeasurementReport, "to_json", "report")
    _patch(coordinator, "merge_serialized", "report")
    for name in ("get_detection", "get_privacy"):
        _patch(VerdictStore, name, "store", on_result=_count_store_hit)
    for name in ("put_detection", "put_privacy"):
        _patch(VerdictStore, name, "store")
    _replace(VerdictStore, "close", _record_full_scans(VerdictStore.close))
    for name in ("append_result", "append_quarantine"):
        _patch(CheckpointJournal, name, "farm.checkpoint")
    for name in ("emit", "record_spans"):
        _patch(FlightRecorder, name, "observe")
    gc.callbacks.append(_on_gc)


def uninstall() -> None:
    while _patches:
        owner, name, original = _patches.pop()
        setattr(owner, name, original)
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)


def layer_spans() -> List[List[Dict[str, Any]]]:
    """The benchmark-owned span lists of every thread, as dicts."""
    with STATS.lock:
        return [tracer.to_dicts() for tracer in STATS.tracers]


def reset() -> None:
    STATS.reset()
    _local.__dict__.clear()


def snapshot() -> Dict[str, Any]:
    """This process's layer record, including its layer spans."""
    record = STATS.to_dict()
    record["layer_spans"] = layer_spans()
    return record


def dump(path: str) -> None:
    """Write this process's layer record to ``path``."""
    record = snapshot()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(tmp, path)


def run_shard_measured(job):
    """The farm's ``run_shard`` with its wall time added to STATS."""
    from repro.farm import worker

    started = perf_counter()
    try:
        return worker.run_shard(job)
    finally:
        STATS.add("farm.shard_wall_s", perf_counter() - started)
