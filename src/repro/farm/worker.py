"""The per-shard worker: crash-isolated, timeout-bounded app analysis.

``run_shard`` is a top-level function so :class:`ProcessPoolExecutor` can
ship it to a child process.  Within a shard each app gets:

- a **deadline** (``timeout_s``) enforced with ``SIGALRM`` where available
  (worker processes run jobs on their main thread, so the alarm is safe);
- **bounded retries** with exponential backoff -- analysis is deterministic,
  so retries exist to absorb environmental failures (OOM kills of a
  sibling, transient filesystem errors), not flaky verdicts;
- **quarantine** once retries are exhausted: the app is recorded and
  skipped instead of taking the whole shard (and run) down with it.

Results leave the worker already serialized (``AppAnalysis.to_dict``), so
no live session objects -- VM graphs, payload bytes -- cross the process
boundary or land in the checkpoint journal.

With ``job.flight_dir`` set the shard also streams live telemetry: a
crash-safe, append-and-compact :class:`~repro.farm.flight.FlightRecorder`
ring of recent events *and* spans (``flight-<shard>.jsonl``, kept only
when something went wrong) and an atomically-refreshed
``heartbeat-<shard>.json`` after every app, which is what the
coordinator's status writer and ``repro top`` watch for progress and
stalls.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator
from repro.farm.flight import FlightRecorder, write_heartbeat
from repro.farm.jobs import AppResult, ChaosSpec, QuarantineRecord, ShardJob, ShardResult
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import NULL_TRACER, Tracer


class AppTimeoutError(RuntimeError):
    """One app exceeded its per-app analysis deadline."""


class ChaosError(RuntimeError):
    """An injected (test-only) analysis failure."""


def _alarm_usable() -> bool:
    return hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


@contextmanager
def app_deadline(seconds: Optional[float], package: str) -> Iterator[None]:
    """Raise :class:`AppTimeoutError` if the body runs past ``seconds``.

    No-op when no timeout is configured or ``SIGALRM`` cannot be armed
    (non-main thread, non-POSIX platform) -- the farm degrades to
    retry/quarantine-only fault tolerance there.
    """
    if not seconds or not _alarm_usable():
        yield
        return

    def on_alarm(signum, frame):
        raise AppTimeoutError(
            "analysis of {} exceeded {:.3f}s deadline".format(package, seconds)
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _inject_chaos(chaos: ChaosSpec, package: str, attempt: int) -> None:
    if package in chaos.slow_packages and chaos.slow_s:
        time.sleep(chaos.slow_s)
    if package in chaos.fail_packages and attempt < chaos.fail_attempts:
        raise ChaosError("injected failure for {} (attempt {})".format(package, attempt))


def run_shard(job: ShardJob) -> ShardResult:
    """Analyze every app of one shard; never raises for a single bad app."""
    started = time.perf_counter()
    flight = (
        FlightRecorder(job.flight_dir, job.shard_id)
        if job.flight_dir is not None
        else None
    )
    # Fresh per-shard tracer/registry; both leave the worker serialized
    # inside the ShardResult and are merged deterministically by the
    # coordinator (span ids re-numbered in shard order, registry folded
    # with commutative merges).  Flight recording needs real spans even
    # when the coordinator did not ask for trace export.
    tracer = Tracer() if (job.trace or flight is not None) else NULL_TRACER
    registry = MetricsRegistry()
    generator = CorpusGenerator(seed=job.corpus_seed)
    blueprints = generator.sample_blueprints(job.n_apps)
    # Passing the path (not an instance) makes the pipeline open -- and
    # own -- a store handle in THIS worker process; flock coordinates the
    # sibling shards sharing the file.
    dydroid = DyDroid(
        job.config, tracer=tracer, metrics=registry,
        verdict_store=job.verdict_store,
    )
    result = ShardResult(shard_id=job.shard_id)

    settled = 0
    spans_recorded = 0

    def checkpoint_flight() -> None:
        """Fold new spans into the flight ring and refresh the heartbeat."""
        nonlocal spans_recorded
        if flight is None:
            return
        # only the spans since the last checkpoint: converting the whole
        # list per app would make the shard quadratic in its length.
        new_spans = tracer.spans[spans_recorded:]
        flight.record_spans([span.to_dict() for span in new_spans])
        spans_recorded += len(new_spans)
        write_heartbeat(job.flight_dir, job.shard_id, settled, len(job.indices))

    if flight is not None:
        # the heartbeat before the first flight record, so a kill can
        # never leave a flight file without a heartbeat beside it.
        write_heartbeat(job.flight_dir, job.shard_id, settled, len(job.indices))
        flight.emit(
            "shard.started", shard=job.shard_id,
            n_apps=len(job.indices), seed=job.corpus_seed,
        )
        checkpoint_flight()

    for index in job.indices:
        blueprint = blueprints[index]
        build_started = time.perf_counter()
        with tracer.span("farm.build", index=index):
            record = generator.build_record(blueprint)
        build_s = time.perf_counter() - build_started
        registry.histogram("stage.build").record(build_s)

        attempt = 0
        while True:
            analyze_started = time.perf_counter()
            try:
                with app_deadline(job.timeout_s, record.package):
                    _inject_chaos(job.chaos, record.package, attempt)
                    analysis = dydroid.analyze_app(record)
            except Exception as exc:
                attempt += 1
                registry.counter("farm.attempt_failures").inc()
                error = "{}: {}".format(type(exc).__name__, exc)
                if attempt > job.max_retries:
                    result.quarantined.append(
                        QuarantineRecord(
                            index=index,
                            package=record.package,
                            error=error,
                            attempts=attempt,
                        )
                    )
                    registry.counter("farm.quarantined").inc()
                    if flight is not None:
                        flight.emit(
                            "app.quarantined", level="error", index=index,
                            package=record.package, error=error, attempts=attempt,
                        )
                    settled += 1
                    checkpoint_flight()
                    break
                if flight is not None:
                    flight.emit(
                        "app.retry", level="warn", index=index,
                        package=record.package, error=error, attempt=attempt,
                    )
                if job.backoff_s:
                    time.sleep(job.backoff_s * (2 ** (attempt - 1)))
                continue
            analyze_s = time.perf_counter() - analyze_started
            registry.histogram("stage.analyze").record(analyze_s)
            result.results.append(
                AppResult(
                    index=index,
                    package=record.package,
                    analysis=analysis.to_dict(),
                    retries=attempt,
                    build_s=build_s,
                    analyze_s=analyze_s,
                )
            )
            if flight is not None:
                flight.emit(
                    "app.analyzed", level="debug", index=index,
                    package=record.package, analyze_s=round(analyze_s, 6),
                    retries=attempt,
                )
            settled += 1
            checkpoint_flight()
            break

    result.wall_s = time.perf_counter() - started
    result.spans = tracer.to_dicts() if job.trace else []
    result.metrics = registry.to_dict()
    dydroid.close()
    if flight is not None:
        flight.emit(
            "shard.completed", shard=job.shard_id,
            analyzed=len(result.results), quarantined=len(result.quarantined),
            wall_s=round(result.wall_s, 6),
        )
        write_heartbeat(
            job.flight_dir, job.shard_id, settled, len(job.indices), done=True
        )
        # a clean shard deletes its recording; one that retried or
        # quarantined leaves the dump behind for post-mortems.
        flight.close()
    return result
