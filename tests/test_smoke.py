"""End-to-end smoke runs through ``repro.cli.main``.

Run on their own with ``pytest -m smoke``.  Each drives the verbs and
shared flags (``--verdict-store``, ``--metrics-out``, ``--persist``) the
way an operator would and checks the files they leave behind.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parents[1] / "src"

EVOLVE_ARGV = [
    "evolve", "run", "--apps", "12", "--versions", "3", "--seed", "7",
    "--workers", "1", "--train", "2", "--no-replays", "--hazard", "0.3",
]


FARM_ARGV = [
    "farm", "run", "--apps", "24", "--seed", "7", "--workers", "2",
    "--shards", "4", "--train", "2", "--no-replays", "--table", "2",
]


class TestFarmSmoke:
    def test_cold_run_then_warm_rerun_recomputes_nothing(self, tmp_path):
        store = str(tmp_path / "verdicts.jsonl")
        checkpoint = tmp_path / "farm.jsonl"
        trace_out = tmp_path / "farm-trace.json"
        cold_out, warm_out = tmp_path / "metrics.json", tmp_path / "warm.json"
        assert main(FARM_ARGV + [
            "--checkpoint", str(checkpoint), "--metrics-out", str(cold_out),
            "--verdict-store", store,
            "--trace-out", str(trace_out), "--trace-format", "chrome",
        ]) == 0
        metrics = json.loads(cold_out.read_text())
        assert metrics["apps_analyzed"] == 24, metrics
        assert metrics["apps_quarantined"] == 0, metrics
        # cold store: every distinct payload digest missed at least once
        # (parallel shards may race on a shared digest, never under-count)
        detection = metrics["verdict_store"]["detection"]
        assert detection["misses"] >= metrics["verdict_cache"]["detection"]["misses"] > 0
        assert len(checkpoint.read_text().splitlines()) == 1 + 24
        events = json.loads(trace_out.read_text())["traceEvents"]
        assert events, "empty farm trace"
        for event in events:
            assert event["ph"] == "X" and event["name"], event
            assert "ts" in event and "dur" in event, event

        assert main(FARM_ARGV + [
            "--verdict-store", store, "--metrics-out", str(warm_out),
        ]) == 0
        warm = json.loads(warm_out.read_text())["verdict_store"]
        for kind in ("detection", "privacy"):
            assert warm[kind]["misses"] == 0, warm
            assert warm[kind]["hits"] > 0, warm


class TestEvolutionSmoke:
    def test_cold_then_warm_run_dedups_and_diffs_stay_stable(self, tmp_path, capsys):
        warehouse = str(tmp_path / "warehouse.jsonl")
        store = str(tmp_path / "verdicts.jsonl")
        runs = {}
        for label in ("cold", "warm"):
            metrics_out = tmp_path / "{}.json".format(label)
            assert main(EVOLVE_ARGV + [
                "--warehouse", warehouse, "--verdict-store", store,
                "--metrics-out", str(metrics_out),
            ]) == 0
            runs[label] = json.loads(metrics_out.read_text())
        cold, warm = runs["cold"], runs["warm"]
        assert cold["snapshots_analyzed"] == 36, cold
        assert warm["snapshots_analyzed"] == 36, warm
        for kind in ("detection", "privacy"):
            # cold: only distinct payload digests reach the analyzers,
            # unchanged later versions ride the store.
            assert cold["verdict_store"][kind]["misses"] == (
                cold["verdict_cache"][kind]["misses"]
            ) > 0, cold
            assert cold["verdict_store"][kind]["hits"] > 0, cold
            assert warm["verdict_store"][kind]["misses"] == 0, warm
            assert warm["verdict_store"][kind]["hits"] > 0, warm
        assert cold["drift"] == warm["drift"]

        capsys.readouterr()
        diffs = []
        for _ in range(2):
            assert main(["evolve", "diff", "--warehouse", warehouse]) == 0
            diffs.append(capsys.readouterr().out)
        assert diffs[0] == diffs[1]
        assert "diff digest: " in diffs[0]
        assert main(["evolve", "report", "--warehouse", warehouse]) == 0
        assert capsys.readouterr().out.strip()


class TestServiceSmoke:
    def test_duplicate_submission_is_cached_and_the_daemon_drains(
        self, tmp_path, capsys
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--train", "2", "--no-replays",
             "--persist", "service.jsonl", "--verdict-store", "verdicts.jsonl"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=tmp_path, env=env,
        )
        try:
            banner = daemon.stdout.readline()
            assert "listening on" in banner, banner
            port = banner.split(":")[-1].split()[0]

            def submit():
                assert main([
                    "submit", "--port", port, "--seed", "7", "--apps", "24",
                    "--index", "1", "--wait",
                ]) == 0
                return json.loads(capsys.readouterr().out)

            first = submit()
            assert first["state"] == "done" and not first["cached"], first
            second = submit()
            assert second["state"] == "done" and second["cached"], second
            assert second["digest"] == first["digest"]

            daemon.send_signal(signal.SIGTERM)
            output, _ = daemon.communicate(timeout=120)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert daemon.returncode == 0, output
        assert "drained: 1 completed" in output, output

        journal = (tmp_path / "service.jsonl").read_text().splitlines()
        assert len(journal) == 2, journal  # header + the one analyzed APK
        assert json.loads(journal[1])["digest"] == first["digest"]
        store = [
            json.loads(line)
            for line in (tmp_path / "verdicts.jsonl").read_text().splitlines()
        ]
        assert store[0]["kind"] == "header", store
        assert len(store) > 1, "verdict store stayed empty"
