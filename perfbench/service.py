"""The ``service-upload`` workload: a ``repro serve`` daemon under two
closed-loop upload clients.

Each client owns half of the seeded APKs and alternates a fresh upload
with a repeat of one of its own earlier uploads, so about half the
submissions repeat an APK.  A client waits for each result before it
sends the next request, so a repeat always finds its first submission
finished: it is a cache hit, never a coalesced in-flight duplicate, and
the cached share is the same on every run.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import signal
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from workloads import Rep, percentile, score

from repro.core.report import AppAnalysis
from repro.corpus.generator import generate_corpus
from repro.service.client import ServiceClient, ServiceClientError

perf_counter = time.perf_counter

#: distinct APKs uploaded per repetition.
SERVICE_APPS = 150
CLIENTS = 2
#: job poll interval, well below the ~10 ms median analysis time.
POLL_S = 0.002
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@dataclass
class Upload:
    blueprint: object
    apk_b64: str
    sha256: str


@dataclass
class Inputs:
    uploads: List[Upload]
    #: per client: upload indices in submission order.
    schedules: List[List[int]]


def make_inputs(seed: int) -> Inputs:
    uploads = []
    for record in generate_corpus(SERVICE_APPS, seed=seed):
        data = record.apk.to_bytes()
        uploads.append(
            Upload(
                blueprint=record.blueprint,
                apk_b64=base64.b64encode(data).decode("ascii"),
                sha256=hashlib.sha256(data).hexdigest(),
            )
        )
    rng = random.Random(seed)
    schedules = []
    for client in range(CLIENTS):
        own = list(range(client, len(uploads), CLIENTS))
        schedule: List[int] = []
        for k, index in enumerate(own):
            schedule.append(index)
            if k:
                schedule.append(own[rng.randrange(k)])
        schedules.append(schedule)
    return Inputs(uploads=uploads, schedules=schedules)


@dataclass
class Request:
    index: int
    latency_s: float = 0.0
    polls: int = 0
    cached: bool = False
    coalesced: bool = False
    job: Dict[str, object] = field(default_factory=dict)
    analysis: Optional[Dict[str, object]] = None
    error: str = ""


def _one_request(client: ServiceClient, name: str, upload: Upload, index: int) -> Request:
    request = Request(index=index)
    began = perf_counter()
    try:
        response = client.submit({"kind": "apk", "apk_b64": upload.apk_b64}, client=name)
        request.cached = bool(response["cached"])
        request.coalesced = bool(response["coalesced"])
        job = response
        while job["state"] not in ("done", "failed"):
            time.sleep(POLL_S)
            job = client.job(response["job_id"])
            request.polls += 1
        if job["state"] == "failed":
            request.error = "job failed: {}".format(job.get("error"))
        else:
            request.analysis = client.result(job["digest"])["analysis"]
        request.job = job
    except ServiceClientError as exc:
        request.error = str(exc)
    request.latency_s = perf_counter() - began
    return request


def _client_loop(port: int, name: str, inputs: Inputs, schedule, out: List[Request]) -> None:
    client = ServiceClient("127.0.0.1", port)
    for index in schedule:
        out.append(_one_request(client, name, inputs.uploads[index], index))


def _wait_for_port(path: str, proc: subprocess.Popen) -> int:
    while True:
        if proc.poll() is not None:
            raise RuntimeError("daemon exited with {} before listening".format(proc.returncode))
        with open(path, encoding="utf-8") as handle:
            line = handle.readline()
        if line.endswith("\n") and "listening on" in line:
            return int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        time.sleep(0.002)


def _vm_hwm_mb(pid: int) -> float:
    with open("/proc/{}/status".format(pid), encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


def service_rep(seed: int, traced: bool, workdir: str) -> Rep:
    inputs = make_inputs(seed)
    rundir = os.path.join(workdir, "serve-{}".format(perf_counter()))
    os.makedirs(rundir)
    serve = [
        "serve", "--port", "0",
        "--persist", os.path.join(rundir, "results.jsonl"),
        "--verdict-store", os.path.join(rundir, "verdicts.jsonl"),
    ]
    layers_out = os.path.join(rundir, "layers.json")
    trace_out = os.path.join(rundir, "trace.jsonl")
    if traced:
        argv = [os.path.join(HERE, "serve_traced.py"), layers_out] + serve
        argv += ["--trace-out", trace_out]
    else:
        argv = ["-m", "repro"] + serve
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    stdout_path = os.path.join(rundir, "serve.out")
    failures: List[str] = []
    started = perf_counter()
    with open(stdout_path, "w") as stdout, open(os.path.join(rundir, "serve.err"), "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr
        )
    try:
        port = _wait_for_port(stdout_path, proc)
        probe = ServiceClient("127.0.0.1", port)
        while True:
            try:
                probe.healthz()
                break
            except ServiceClientError:
                time.sleep(0.002)
        setup_s = perf_counter() - started

        results: List[List[Request]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(port, "client-{}".format(c), inputs, inputs.schedules[c], results[c]),
            )
            for c in range(CLIENTS)
        ]
        began = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_s = perf_counter() - began
        registry = probe.metrics()
        stats = probe.stats()
        peak_rss_mb = _vm_hwm_mb(proc.pid)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0:
        failures.append("daemon did not drain cleanly (exit {})".format(code))

    requests = [request for client in results for request in client]
    first: Dict[int, Dict[str, object]] = {}
    fresh: List[Request] = []
    for request in sorted(requests, key=lambda r: (r.cached, r.index)):
        upload = inputs.uploads[request.index]
        if request.error:
            failures.append("{}: {}".format(upload.blueprint.package, request.error))
            continue
        if request.job.get("digest") != upload.sha256:
            failures.append("{}: digest {} is not the upload's sha256".format(
                upload.blueprint.package, request.job.get("digest")))
        if request.index not in first:
            first[request.index] = request.analysis
            score([upload.blueprint], [AppAnalysis.from_dict(request.analysis)],
                   failures, static_only=True)
        elif request.analysis != first[request.index]:
            failures.append("{}: repeat returned a different analysis".format(
                upload.blueprint.package))
        if not request.cached:
            fresh.append(request)

    counters = dict(registry.get("counters", {}))
    total = len(requests)
    rep = Rep(
        setup_s=setup_s,
        window_s=window_s,
        units=total,
        # a failed request misses every latency limit.
        latencies_s=[
            float("inf") if request.error else request.latency_s for request in requests
        ],
        peak_rss_mb=peak_rss_mb,
        attempted=total,
        failures=failures,
        counters={
            "requests": total,
            "service.cached": sum(r.cached for r in requests),
            "service.coalesced": sum(r.coalesced for r in requests),
            "service.pipeline.runs": stats["counters"]["service.pipeline.runs"],
            "pipeline.apps": counters.get("pipeline.apps", 0),
            "prefilter.candidates": counters.get("prefilter.candidates", 0),
        },
        registry=counters,
    )
    rep.extra_layers = {
        "service.queue_wait_ms_p50": 1e3 * percentile(
            [r.job["started_ts"] - r.job["submitted_ts"] for r in fresh], 0.5),
        "service.analyze_ms_p50": 1e3 * percentile(
            [r.job["finished_ts"] - r.job["started_ts"] for r in fresh], 0.5),
        "service.client_overhead_ms_p50": 1e3 * percentile(
            [r.latency_s - (r.job["finished_ts"] - r.job["submitted_ts"]) for r in fresh], 0.5),
        "service.cached_share": sum(r.cached for r in requests) / total,
        "service.coalesced_share": sum(r.coalesced for r in requests) / total,
        "service.polls_per_request": sum(r.polls for r in requests) / total,
    }
    if traced:
        with open(layers_out, encoding="utf-8") as handle:
            rep.layers = json.load(handle)
        with open(trace_out, encoding="utf-8") as handle:
            rep.spans = [json.loads(line) for line in handle if line.strip()]
    shutil.rmtree(rundir, ignore_errors=True)
    return rep
