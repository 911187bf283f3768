"""Live fleet telemetry: events, Prometheus exposition, SLOs, flight recorder, top."""

import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DyDroidConfig
from repro.farm import ChaosSpec, ShardJob, run_shard
from repro.farm.flight import (
    FlightRecorder,
    StatusWriter,
    flight_path,
    heartbeat_path,
    load_flight,
    read_heartbeats,
    write_heartbeat,
)
from repro.observe import MetricsRegistry
from repro.observe.events import EVENT_LEVELS, EventLog, NULL_EVENT_LOG, load_events
from repro.observe.prom import (
    PromParseError,
    histogram_quantiles,
    merge_expositions,
    parse_prometheus,
    quantile_from_buckets,
    to_prometheus,
)
from repro.observe.top import build_daemon_snapshot, build_farm_snapshot, render_top
from repro.service import AnalysisService, ServiceClient, ServiceConfig, make_server
from repro.service.slo import SloError, SloObjectives, SloTracker, parse_slo

SEED = 19
N_APPS = 12


def pipeline_config():
    return DyDroidConfig(train_samples_per_family=2, run_replays=False)


@contextmanager
def running_service(**overrides):
    defaults = dict(workers=1, pipeline=pipeline_config())
    defaults.update(overrides)
    service = AnalysisService(ServiceConfig(**defaults))
    service.start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", server.server_port)
    try:
        yield service, client
    finally:
        server.shutdown()
        service.drain(timeout=60.0)
        server.server_close()


def corpus_spec(index):
    return {"kind": "corpus", "seed": SEED, "n_apps": N_APPS, "index": index}


# -- event log -----------------------------------------------------------------


class TestEventLog:
    def test_emit_and_ring_bound(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tick", i=i)
        assert len(log) == 4
        assert log.emitted == 10
        assert log.dropped == 6
        records = log.to_dicts()
        assert [r["fields"]["i"] for r in records] == [6, 7, 8, 9]
        # seq survives eviction: consumers can detect the gap.
        assert [r["seq"] for r in records] == [6, 7, 8, 9]

    def test_level_filter(self):
        log = EventLog(capacity=8, level="warn")
        assert log.emit("fine", level="info") is None
        assert log.emit("bad", level="error") is not None
        assert [r["name"] for r in log.to_dicts()] == ["bad"]
        with pytest.raises(ValueError):
            log.emit("x", level="loud")

    def test_append_sink_written_through(self, tmp_path):
        sink = str(tmp_path / "events.jsonl")
        log = EventLog(capacity=2, sink=sink)
        for i in range(5):
            log.emit("tick", i=i)
        log.close()
        # append mode keeps every record, not just the ring.
        records = load_events(sink)
        assert [r["fields"]["i"] for r in records] == [0, 1, 2, 3, 4]

    def test_load_events_tolerates_torn_tail_only(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps({"seq": 0, "name": "a", "level": "info", "ts": 1.0, "fields": {}})
        path.write_text(good + "\n" + '{"seq": 1, "na')
        assert [r["seq"] for r in load_events(str(path))] == [0]
        path.write_text('{"torn' + "\n" + good + "\n")
        with pytest.raises(ValueError):
            load_events(str(path))

    def test_null_event_log(self):
        assert NULL_EVENT_LOG.emit("anything", level="error") is None
        assert NULL_EVENT_LOG.to_dicts() == []
        assert len(NULL_EVENT_LOG) == 0

    def test_concurrent_emits_no_lost_or_torn_records(self, tmp_path):
        """8 writer threads; every record lands exactly once, none torn."""
        sink = str(tmp_path / "events.jsonl")
        log = EventLog(capacity=64, sink=sink)
        n_threads, per_thread = 8, 50

        def writer(worker):
            for i in range(per_thread):
                log.emit("work", worker=worker, i=i)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()

        assert log.emitted == n_threads * per_thread
        # seq is a gap-free total order even under contention.
        records = load_events(sink)
        assert len(records) == n_threads * per_thread
        assert sorted(r["seq"] for r in records) == list(range(len(records)))
        # no torn interleavings: every thread's own counter is complete.
        seen = {}
        for record in records:
            seen.setdefault(record["fields"]["worker"], []).append(record["fields"]["i"])
        assert all(sorted(v) == list(range(per_thread)) for v in seen.values())


# -- prometheus exposition -----------------------------------------------------


def seeded_registry(seed):
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for name in ("service.cache.hit", "farm.quarantined", "pipeline.apps"):
        registry.counter(name).inc(rng.randrange(0, 20))
    for name in ("service.queue.depth", "slo.budget.p95.tenant-a"):
        registry.gauge(name).set(round(rng.uniform(0, 8), 3))
    for name in ("stage.analyze", "stage.build"):
        for _ in range(rng.randrange(1, 12)):
            registry.histogram(name).record(rng.uniform(0.0005, 40.0))
    for digest in range(rng.randrange(0, 6)):
        registry.distinct("cache.detection.digests").add("d{}".format(digest))
    return registry


class TestPrometheus:
    def test_round_trip_and_types(self):
        registry = seeded_registry(1)
        families = parse_prometheus(to_prometheus(registry))
        assert families["repro_service_cache_hit_total"]["type"] == "counter"
        assert families["repro_service_queue_depth"]["type"] == "gauge"
        assert families["repro_stage_analyze_seconds"]["type"] == "histogram"
        assert families["repro_cache_detection_digests_distinct"]["type"] == "gauge"

    def test_histogram_buckets_are_cumulative_and_consistent(self):
        registry = MetricsRegistry()
        for value in (0.003, 0.003, 0.4, 90.0, 1000.0):
            registry.histogram("stage.analyze").record(value)
        family = parse_prometheus(to_prometheus(registry))["repro_stage_analyze_seconds"]
        buckets = [
            (labels["le"], value)
            for name, labels, value in family["samples"]
            if name.endswith("_bucket")
        ]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        assert buckets[-1] == ("+Inf", 5.0)
        count = [v for n, _, v in family["samples"] if n.endswith("_count")][0]
        assert count == 5.0

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(PromParseError):
            parse_prometheus("repro_orphan_total 3\n")  # no TYPE line
        with pytest.raises(PromParseError):
            parse_prometheus("# TYPE repro_x counter\nrepro_x not-a-number\n")
        with pytest.raises(PromParseError):
            # histogram without its +Inf bucket
            parse_prometheus(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 1\nrepro_h_sum 0.5\nrepro_h_count 1\n'
            )
        with pytest.raises(PromParseError):
            # _count disagreeing with the +Inf bucket
            parse_prometheus(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="+Inf"} 2\nrepro_h_sum 0.5\nrepro_h_count 3\n'
            )

    def test_merge_expositions_matches_merged_registry(self):
        """Property: exposition-level merge == registry-level merge.

        Mirrors ``merge_dict``'s order-independence; ``_distinct``
        families are excluded (cardinalities do not merge from text).
        """
        for trial in range(8):
            registries = [seeded_registry(trial * 31 + i) for i in range(3)]
            texts = [to_prometheus(r) for r in registries]

            merged = MetricsRegistry()
            for registry in registries:
                merged.merge_dict(registry.to_dict())
            expected = {
                name: family
                for name, family in parse_prometheus(to_prometheus(merged)).items()
                if not name.endswith("_distinct")
            }

            for order in (texts, list(reversed(texts))):
                actual = merge_expositions(order)
                assert set(actual) == set(expected), "trial {}".format(trial)
                for name in expected:
                    want = {
                        (s, tuple(sorted(labels.items()))): value
                        for s, labels, value in expected[name]["samples"]
                    }
                    got = {
                        (s, tuple(sorted(labels.items()))): value
                        for s, labels, value in actual[name]["samples"]
                    }
                    assert got.keys() == want.keys()
                    for key in want:
                        assert got[key] == pytest.approx(want[key]), (name, key)

    def test_quantile_from_buckets(self):
        # 10 observations <= 1, 10 more <= 2: p50 on the first boundary.
        buckets = [(1.0, 10.0), (2.0, 20.0), (math.inf, 20.0)]
        assert quantile_from_buckets(buckets, 0.5) == pytest.approx(1.0)
        assert quantile_from_buckets(buckets, 0.75) == pytest.approx(1.5)
        # rank inside the +Inf bucket degrades to the top finite bound.
        assert quantile_from_buckets([(1.0, 1.0), (math.inf, 10.0)], 0.99) == 1.0
        assert quantile_from_buckets([], 0.5) == 0.0

    def test_histogram_quantiles_from_parsed_family(self):
        registry = MetricsRegistry()
        for _ in range(100):
            registry.histogram("stage.analyze").record(0.03)
        family = parse_prometheus(to_prometheus(registry))["repro_stage_analyze_seconds"]
        quantiles = histogram_quantiles(family, (0.5, 0.95))
        # all mass in the (0.02, 0.05] bucket: estimates stay inside it.
        assert 0.02 <= quantiles[0.5] <= 0.05
        assert 0.02 <= quantiles[0.95] <= 0.05


# -- SLO tracking --------------------------------------------------------------


class TestSlo:
    def test_parse_slo(self):
        objectives = parse_slo("p95=30s,error_rate=1%")
        assert objectives.latency == {"p95": 30.0}
        assert objectives.error_rate == pytest.approx(0.01)
        assert parse_slo("p50=250ms").latency == {"p50": 0.25}
        assert parse_slo("error_rate=0.05").error_rate == pytest.approx(0.05)
        for bad in ("", "p95", "latency=3s", "p95=fast", "error_rate=150%", "p0=1s"):
            with pytest.raises(SloError):
                parse_slo(bad)

    def test_error_budget_burns_and_recovers(self):
        tracker = SloTracker(parse_slo("error_rate=10%"), window=10)
        for _ in range(10):
            tracker.observe("tenant-a", 0.01, ok=True)
        report = tracker.snapshot()["clients"]["tenant-a"]
        assert report["budgets"]["error_rate"] == pytest.approx(1.0)
        assert report["met"] is True

        tracker.observe("tenant-a", 0.01, ok=False)  # window allows exactly 1
        report = tracker.snapshot()["clients"]["tenant-a"]
        assert report["budgets"]["error_rate"] == pytest.approx(0.0)
        assert report["met"] is False

        for _ in range(10):  # failure ages out of the rolling window
            tracker.observe("tenant-a", 0.01, ok=True)
        report = tracker.snapshot()["clients"]["tenant-a"]
        assert report["budgets"]["error_rate"] == pytest.approx(1.0)
        assert report["total_jobs"] == 21

    def test_latency_budget_counts_threshold_violations(self):
        tracker = SloTracker(parse_slo("p50=1s"), window=100)
        for _ in range(60):
            tracker.observe("t", 0.5, ok=True)
        for _ in range(40):
            tracker.observe("t", 2.0, ok=True)
        report = tracker.snapshot()["clients"]["t"]
        # 40 violations vs an allowance of 50: 20% of budget remains.
        assert report["budgets"]["p50"] == pytest.approx(0.2)
        assert report["achieved_p50_s"] == pytest.approx(0.5)
        assert report["met"] is True

    def test_windows_are_per_client(self):
        tracker = SloTracker(parse_slo("error_rate=50%"), window=4)
        tracker.observe("noisy", 0.1, ok=False)
        tracker.observe("noisy", 0.1, ok=False)
        tracker.observe("quiet", 0.1, ok=True)
        clients = tracker.snapshot()["clients"]
        assert clients["noisy"]["met"] is False
        assert clients["quiet"]["met"] is True

    def test_export_gauges(self):
        tracker = SloTracker(parse_slo("p95=1s,error_rate=50%"), window=8)
        tracker.observe("tenant-a", 0.2, ok=True)
        registry = MetricsRegistry()
        tracker.export_gauges(registry)
        payload = registry.to_dict()["gauges"]
        assert payload["slo.budget.error_rate.tenant-a"] == 1.0
        assert payload["slo.budget.p95.tenant-a"] == 1.0
        assert payload["slo.window_jobs.tenant-a"] == 1

    def test_objectives_validation(self):
        with pytest.raises(SloError):
            SloObjectives(latency={"q95": 1.0})
        assert SloObjectives().empty


# -- flight recorder + heartbeats ----------------------------------------------


def shard_job(indices=(0, 1), flight_dir=None, chaos=None, max_retries=1):
    return ShardJob(
        shard_id=3,
        corpus_seed=SEED,
        n_apps=N_APPS,
        indices=tuple(indices),
        config=pipeline_config(),
        max_retries=max_retries,
        backoff_s=0.0,
        chaos=chaos or ChaosSpec(),
        flight_dir=flight_dir,
    )


class TestFlightRecorder:
    def test_clean_shard_deletes_recording_keeps_heartbeat(self, tmp_path):
        directory = str(tmp_path)
        result = run_shard(shard_job(flight_dir=directory))
        assert len(result.results) == 2
        assert not os.path.exists(flight_path(directory, 3))
        beat = read_heartbeats(directory)[3]
        assert beat["done"] is True
        assert (beat["completed"], beat["total"]) == (2, 2)

    def test_chaos_retry_keeps_dump_with_events_and_spans(self, tmp_path):
        directory = str(tmp_path)
        from repro.corpus.generator import CorpusGenerator

        package = CorpusGenerator(seed=SEED).sample_blueprints(N_APPS)[1].package
        chaos = ChaosSpec(fail_packages=(package,), fail_attempts=1)
        result = run_shard(shard_job(flight_dir=directory, chaos=chaos))
        assert len(result.results) == 2  # retry succeeded
        records = load_flight(flight_path(directory, 3))
        names = [r["name"] for r in records]
        assert "shard.started" in names
        assert "app.retry" in names
        assert "span" in names  # span records folded into the ring
        retry = next(r for r in records if r["name"] == "app.retry")
        assert retry["level"] == "warn"
        assert retry["fields"]["package"] == package

    def test_quarantine_marks_dump_dirty(self, tmp_path):
        directory = str(tmp_path)
        from repro.corpus.generator import CorpusGenerator

        package = CorpusGenerator(seed=SEED).sample_blueprints(N_APPS)[0].package
        chaos = ChaosSpec(fail_packages=(package,), fail_attempts=5)
        result = run_shard(
            shard_job(flight_dir=directory, chaos=chaos, max_retries=1)
        )
        assert len(result.quarantined) == 1
        names = [r["name"] for r in load_flight(flight_path(directory, 3))]
        assert "app.quarantined" in names

    def test_ring_file_parses_at_every_instant(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), shard_id=7, capacity=3)
        for i in range(10):
            recorder.emit("tick", level="warn", i=i)
            records = load_flight(flight_path(str(tmp_path), 7))
            assert len(records) <= 3
            assert records[-1]["fields"]["i"] == i
        recorder.close()
        assert os.path.exists(flight_path(str(tmp_path), 7))  # dirty: kept

    def test_heartbeat_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        write_heartbeat(directory, 0, completed=1, total=4)
        write_heartbeat(directory, 1, completed=4, total=4, done=True)
        (tmp_path / "heartbeat-bad.json").write_text("{torn")
        beats = read_heartbeats(directory)
        assert set(beats) == {0, 1}
        assert os.path.exists(heartbeat_path(directory, 0))


def span_dicts(first, count):
    return [
        {"name": "s{}".format(i), "span_id": i, "parent_id": 0, "ts": 0.5,
         "dur": 0.25, "attrs": {"i": i}}
        for i in range(first, first + count)
    ]


#: one step of a recorder's life: ``("emit", level, i)`` or ``("spans", n)``.
flight_steps = st.lists(
    st.tuples(st.just("emit"), st.sampled_from(sorted(EVENT_LEVELS)), st.integers(0, 99))
    | st.tuples(st.just("spans"), st.integers(0, 40)),
    max_size=40,
)


class TestFlightRing:
    """The append-and-compact file reads back as an in-memory ring."""

    @given(capacity=st.integers(1, 16), steps=flight_steps)
    @settings(max_examples=150, deadline=None)
    def test_load_flight_matches_a_deque_model(self, capacity, steps):
        with tempfile.TemporaryDirectory() as directory:
            recorder = FlightRecorder(directory, shard_id=0, capacity=capacity)
            path = flight_path(directory, 0)
            model = deque(maxlen=capacity)
            emitted = 0
            for step in steps:
                if step[0] == "emit":
                    _, level, i = step
                    recorder.emit("tick", level=level, i=i)
                    model.append(("tick", level, {"i": i}))
                    emitted += 1
                else:
                    spans = span_dicts(emitted, step[1])
                    recorder.record_spans(spans)
                    model.extend(
                        ("span", "debug", dict(
                            name_=s["name"], span_id=s["span_id"], parent_id=0,
                            ts=s["ts"], dur=s["dur"], attrs=s["attrs"],
                        ))
                        for s in spans
                    )
                    emitted += len(spans)
                records = load_flight(path)
                assert [(r["name"], r["level"], r["fields"]) for r in records] == list(model)
                assert [r["seq"] for r in records] == list(
                    range(emitted - len(records), emitted)
                )
                # compaction bounds the file: header + fewer than 2N records.
                assert len(load_events(path)) <= 2 * capacity
                assert records == recorder.events.to_dicts()
            recorder.close(keep=True)
            assert os.path.exists(path) == bool(steps)

    def test_first_record_creates_the_file_with_its_header(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), shard_id=1, capacity=5)
        path = flight_path(str(tmp_path), 1)
        assert not os.path.exists(path)
        recorder.emit("shard.started")
        header, record = load_events(path)
        assert header == {"kind": "header", "version": 1, "capacity": 5}
        assert record["name"] == "shard.started"
        recorder.close()
        assert not os.path.exists(path)  # clean: deleted


FLIGHT_CHILD = """
import sys
sys.path[:0] = [{src!r}]
from repro.farm.flight import FlightRecorder
recorder = FlightRecorder({directory!r}, shard_id=0, capacity={capacity})
recorder.emit("started")
print("ready", flush=True)
span = {{"name": "s", "span_id": 1, "parent_id": 0, "ts": 0.0, "dur": 0.0,
        "attrs": {{"pad": "y" * 4096}}}}
i = 0
while True:
    recorder.emit("tick", i=i, pad="x" * 512)
    recorder.record_spans([span] * (i % 9))
    i += 1
"""


@pytest.mark.parametrize("seed, capacity", [(0, 1), (1, 7), (2, 64)])
def test_sigkill_mid_emit_loop_leaves_a_readable_ring(tmp_path, seed, capacity):
    src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    script = FLIGHT_CHILD.format(src=src, directory=str(tmp_path), capacity=capacity)
    child = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
    )
    try:
        assert child.stdout.readline() == "ready\n"
        time.sleep(random.Random(seed).uniform(0.02, 0.3))
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    records = load_flight(flight_path(str(tmp_path), 0))
    assert 1 <= len(records) <= capacity
    seqs = [r["seq"] for r in records]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


class TestStatusWriter:
    def test_compose_flags_stalled_shards(self):
        now = 1000.0
        heartbeats = {
            0: {"shard": 0, "completed": 2, "total": 4, "done": False, "ts": now - 1},
            1: {"shard": 1, "completed": 1, "total": 4, "done": False, "ts": now - 60},
            2: {"shard": 2, "completed": 4, "total": 4, "done": True, "ts": now - 60},
        }
        status = StatusWriter.compose(
            {"state": "running"}, heartbeats, now, stall_after_s=10.0
        )
        assert status["shards"]["0"]["state"] == "running"
        assert status["shards"]["1"]["state"] == "stalled"
        assert status["shards"]["2"]["state"] == "done"  # done never stalls
        assert status["stalled"] == [1]
        assert status["shards"]["1"]["silent_s"] == pytest.approx(60.0, abs=0.01)

    def test_write_once_and_stop(self, tmp_path):
        directory = str(tmp_path)
        write_heartbeat(directory, 0, completed=1, total=2)
        writer = StatusWriter(directory, n_apps=2, shards_planned=1, interval_s=0.05)
        writer.update(apps_settled=1)
        writer.start()
        time.sleep(0.15)
        writer.stop(state="done")
        with open(os.path.join(directory, "status.json")) as handle:
            status = json.load(handle)
        assert status["state"] == "done"
        assert status["n_apps"] == 2
        assert status["apps_settled"] == 1
        assert status["shards"]["0"]["completed"] == 1


# -- service integration -------------------------------------------------------


class TestServiceTelemetry:
    def test_prom_endpoint_content_negotiation(self):
        with running_service() as (service, client):
            client.submit_and_wait(corpus_spec(3), client="tenant-a")
            text = client.metrics_prom()
            families = parse_prometheus(text)  # validates strictly
            hits = {
                name: sum(v for _, _, v in family["samples"])
                for name, family in families.items()
                if family["type"] == "counter"
            }
            assert hits["repro_service_submit_requests_total"] >= 1
            assert "repro_stage_service_analyze_seconds" in families
            # default stays JSON
            assert "counters" in client.metrics()

    def test_slo_in_stats_and_gauges(self):
        slo = parse_slo("p95=30s,error_rate=50%")
        with running_service(slo=slo) as (service, client):
            client.submit_and_wait(corpus_spec(3), client="tenant-a")
            client.submit_and_wait(corpus_spec(3), client="tenant-a")  # cache hit
            stats = client.stats()
            report = stats["slo"]["clients"]["tenant-a"]
            assert report["window_jobs"] == 2
            assert report["met"] is True
            assert report["budgets"]["p95"] == pytest.approx(1.0)
            gauges = parse_prometheus(client.metrics_prom())
            assert "repro_slo_budget_p95_tenant_a" in gauges
            events = stats["events"]
            assert events["emitted"] >= 2
            names = {r["name"] for r in events["recent"]}
            assert "job.admitted" in names
            assert "job.completed" in names

    def test_event_log_sink(self, tmp_path):
        sink = str(tmp_path / "service-events.jsonl")
        with running_service(event_log=sink) as (service, client):
            client.submit_and_wait(corpus_spec(5), client="tenant-b")
        records = load_events(sink)
        names = [r["name"] for r in records]
        assert "job.admitted" in names
        assert "job.completed" in names
        assert "service.drained" in names
        admitted = next(r for r in records if r["name"] == "job.admitted")
        assert admitted["fields"]["client"] == "tenant-b"

    def test_top_snapshot_from_live_daemon(self):
        with running_service(slo=parse_slo("p95=30s")) as (service, client):
            client.submit_and_wait(corpus_spec(3), client="tenant-a")
            snapshot = build_daemon_snapshot(client.stats(), client.metrics_prom())
        assert snapshot["source"] == "daemon"
        assert snapshot["jobs"]["done"] == 1
        assert snapshot["cache"]["misses"] >= 1
        assert "service_analyze" in snapshot["stages"]
        assert snapshot["slo"]["clients"]["tenant-a"]["met"] is True
        rendered = render_top(snapshot)
        assert "repro top -- daemon" in rendered
        assert "tenant-a" in rendered

    def test_render_top_farm(self):
        snapshot = build_farm_snapshot(
            {
                "state": "running",
                "uptime_s": 4.2,
                "n_apps": 8,
                "apps_settled": 3,
                "apps_quarantined": 1,
                "shards_done": 1,
                "shards_planned": 4,
                "shards": {
                    "0": {"completed": 2, "total": 2, "silent_s": 0.1, "state": "done"},
                    "1": {"completed": 1, "total": 2, "silent_s": 42.0, "state": "stalled"},
                },
                "stalled": [1],
            }
        )
        rendered = render_top(snapshot)
        assert "repro top -- farm" in rendered
        assert "STALLED" in rendered


# -- CLI: trace summary regression, top --once, metrics export -----------------


class TestTelemetryCli:
    def test_trace_summary_missing_file_is_not_an_error(self, capsys, tmp_path):
        from repro.cli import main

        missing = str(tmp_path / "never-written.jsonl")
        assert main(["trace", "summary", missing]) == 0
        out = capsys.readouterr().out
        assert "no spans recorded" in out
        assert "does not exist" in out

    def test_trace_summary_empty_file_is_not_an_error(self, capsys, tmp_path):
        from repro.cli import main

        empty = tmp_path / "trace.jsonl"
        empty.write_text("")
        assert main(["trace", "summary", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "no spans recorded" in out
        assert "is empty" in out

    def test_trace_summary_corrupt_file_still_fails(self, tmp_path):
        from repro.cli import main

        corrupt = tmp_path / "trace.jsonl"
        corrupt.write_text("{not json\n")
        with pytest.raises(SystemExit):
            main(["trace", "summary", str(corrupt)])

    def test_top_once_against_daemon(self, capsys):
        from repro.cli import main

        with running_service() as (service, client):
            client.submit_and_wait(corpus_spec(3), client="tenant-a")
            assert main(
                ["top", "--once", "--port", str(client.port)]
            ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["source"] == "daemon"
        assert snapshot["jobs"]["done"] == 1

    def test_top_once_against_farm_status(self, capsys, tmp_path):
        from repro.cli import main

        status = tmp_path / "status.json"
        status.write_text(json.dumps({"state": "done", "n_apps": 4, "shards": {}}))
        assert main(["top", "--once", "--status", str(status)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["source"] == "farm"
        assert snapshot["state"] == "done"

    def test_top_unreachable_daemon_exits_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["top", "--once", "--port", "1"])
        assert "top:" in str(excinfo.value)

    def test_metrics_export_plain_registry(self, capsys, tmp_path):
        from repro.cli import main

        registry = seeded_registry(4)
        metrics_file = tmp_path / "metrics.json"
        metrics_file.write_text(json.dumps(registry.to_dict()))
        assert main(["metrics", "export", str(metrics_file)]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert "repro_service_cache_hit_total" in families

    def test_metrics_export_unwraps_farm_summary(self, tmp_path):
        from repro.cli import main

        registry = seeded_registry(5)
        summary = {"elapsed_s": 1.0, "registry": registry.to_dict()}
        metrics_file = tmp_path / "farm-metrics.json"
        metrics_file.write_text(json.dumps(summary))
        out_file = tmp_path / "metrics.prom"
        assert main(
            ["metrics", "export", str(metrics_file), "--out", str(out_file)]
        ) == 0
        families = parse_prometheus(out_file.read_text())
        assert "repro_farm_quarantined_total" in families

    def test_metrics_export_rejects_garbage(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit):
            main(["metrics", "export", str(bad)])
        with pytest.raises(SystemExit):
            main(["metrics", "export", str(tmp_path / "missing.json")])
