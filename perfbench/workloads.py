"""The batch workloads: ``market-cold`` (serial) and ``farm-durable`` (farm).

Each ``*_rep`` function runs one repetition -- set-up, timed window,
ground-truth scoring -- on inputs generated from its seed and returns a
:class:`Rep`.  The same seed is the same work, so a repetition's
deterministic counters must repeat exactly; ``run.py`` repeats until the
run's time is used up.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import layers
import oracle

from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator, generate_corpus

perf_counter = time.perf_counter

#: apps per market-cold repetition (paper-profile corpus).
MARKET_APPS = 500
#: apps per farm-durable repetition: 4 shards of 20 apps.
FARM_APPS = 80
#: one worker, so the farm runs its shards in-process on the benchmark's
#: one CPU.  Two worker processes on both vCPUs of a 2-vCPU host swung
#: 15-24 apps/s between back-to-back runs, one stayed within 10-12; the
#: flight recorder's share of shard time is the same either way.
FARM_WORKERS = 1
#: the configuration ``repro measure`` uses by default (train 3, replays on,
#: no store, triage, firewall or ecosystems).
PIPELINE = DyDroidConfig(train_samples_per_family=3)

#: registry counters that repeat exactly for a repetition's seed.
DETERMINISTIC_COUNTERS = (
    "pipeline.apps",
    "prefilter.candidates",
    "cache.detection.lookups",
    "cache.detection.hit",
    "cache.privacy.lookups",
    "cache.privacy.hit",
)


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    window_s: float
    #: apps analyzed (batch) or requests completed (service) in the window.
    units: int
    latencies_s: List[float]
    peak_rss_mb: float
    attempted: int
    failures: List[str]
    counters: Dict[str, float]
    #: registry counters of the analyzing processes.
    registry: Dict[str, float] = field(default_factory=dict)
    #: folded layer record (traced repetitions only).
    layers: Optional[Dict[str, object]] = None
    #: per-layer values only this workload can compute.
    extra_layers: Dict[str, float] = field(default_factory=dict)
    #: program spans, exported with the layer spans (traced only).
    spans: List[Dict[str, object]] = field(default_factory=list)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def score(blueprints, analyses, failures: List[str], static_only: bool = False) -> None:
    for blueprint, analysis in zip(blueprints, analyses):
        bad = oracle.mismatches(blueprint, analysis, static_only=static_only)
        if bad:
            failures.append("{}: {}".format(blueprint.package, ",".join(bad)))


def market_rep(seed: int, traced: bool, workdir: str) -> Rep:
    started = perf_counter()
    corpus = generate_corpus(MARKET_APPS, seed=seed)
    tracer = layers.SelfTimeTracer() if traced else None
    dydroid = DyDroid(PIPELINE, tracer=tracer)
    setup_s = perf_counter() - started

    latencies: List[float] = []
    analyze_app = dydroid.analyze_app

    def timed_analyze(record):
        began = perf_counter()
        analysis = analyze_app(record)
        latencies.append(perf_counter() - began)
        return analysis

    dydroid.analyze_app = timed_analyze
    began = perf_counter()
    report = dydroid.measure(corpus)
    report.render_all()
    report.to_json(include_apps=True)
    window_s = perf_counter() - began
    record = layers.snapshot() if traced else None

    failures: List[str] = []
    score([record.blueprint for record in corpus], report.apps, failures)
    registry = dict(dydroid.metrics.to_dict()["counters"])
    return Rep(
        setup_s=setup_s,
        window_s=window_s,
        units=len(report.apps),
        latencies_s=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(corpus),
        failures=failures,
        counters={name: registry.get(name, 0) for name in DETERMINISTIC_COUNTERS},
        registry=registry,
        layers=record,
        spans=tracer.to_dicts() if traced else [],
    )


def farm_rep(seed: int, traced: bool, workdir: str) -> Rep:
    from repro.farm.checkpoint import CheckpointJournal
    from repro.farm.coordinator import FarmConfig, run_farm

    rundir = os.path.join(workdir, "farm-{}".format(perf_counter()))
    os.makedirs(rundir)
    config = FarmConfig(
        n_apps=FARM_APPS,
        corpus_seed=seed,
        workers=FARM_WORKERS,
        checkpoint=os.path.join(rundir, "checkpoint.jsonl"),
        verdict_store=os.path.join(rundir, "verdicts.jsonl"),
        pipeline=PIPELINE,
        trace=traced,
    )
    # The window starts at the first app's analysis; set-up is everything
    # before it, including the first shard's pipeline and blueprint pass.
    stamps: List[float] = []
    latencies: List[float] = []
    analyze_app = DyDroid.analyze_app
    append_result = CheckpointJournal.append_result

    def first_app(dydroid, record):
        if not stamps:
            stamps.append(perf_counter())
        return analyze_app(dydroid, record)

    def journal_result(journal, result):
        latencies.append(result.build_s + result.analyze_s)
        return append_result(journal, result)

    DyDroid.analyze_app = first_app
    CheckpointJournal.append_result = journal_result
    try:
        started = perf_counter()
        result = run_farm(config)
        result.report.render_all()
        result.report.to_json(include_apps=True)
        finished = perf_counter()
        farm_record = layers.snapshot() if traced else None
    finally:
        DyDroid.analyze_app = analyze_app
        CheckpointJournal.append_result = append_result

    failures: List[str] = []
    if result.resumed_apps:
        failures.append("resumed {} apps from a fresh journal".format(result.resumed_apps))
    failures.extend(
        "{}: quarantined: {}".format(record.package, record.error)
        for record in result.quarantined
    )
    blueprints = CorpusGenerator(seed=seed).sample_blueprints(FARM_APPS)
    by_index = {analysis.corpus_index: analysis for analysis in result.report.apps}
    missing = [b.package for b in blueprints if b.index not in by_index]
    failures.extend("{}: missing from the merged report".format(p) for p in missing)
    present = [b for b in blueprints if b.index in by_index]
    score(present, [by_index[b.index] for b in present], failures)

    registry = dict(result.metrics["registry"]["counters"])
    window_s = finished - stamps[0]
    rep = Rep(
        setup_s=stamps[0] - started,
        window_s=window_s,
        units=len(result.report.apps),
        latencies_s=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=FARM_APPS,
        failures=failures,
        counters={name: registry.get(name, 0) for name in DETERMINISTIC_COUNTERS},
        registry=registry,
        spans=result.spans,
    )
    if traced:
        rep.layers = farm_record
        shard_wall = rep.layers["extra"].get("farm.shard_wall_s", 0.0)
        rep.extra_layers["farm.worker_busy_share"] = shard_wall / (
            FARM_WORKERS * window_s
        )
    shutil.rmtree(rundir, ignore_errors=True)
    return rep
