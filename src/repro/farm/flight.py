"""Flight recorder + heartbeats: post-mortems without reruns.

Two shapes of live farm telemetry, both landing next to the checkpoint
journal:

- **flight recorder** (worker side): each shard keeps its last N events
  *and* span records in a ring that is atomically rewritten to
  ``flight-<shard>.jsonl`` on every record.  Atomic rewrite (temp file +
  ``os.replace``) means the on-disk file always parses -- a SIGKILL can
  never tear a line -- and always holds the shard's final moments, so a
  timeout, retry storm, quarantine, or crash can be diagnosed from the
  dump alone instead of re-running the shard.  Shards that finish clean
  delete their file: a surviving ``flight-*.jsonl`` *is* the anomaly
  signal.
- **heartbeats + status** (both sides): workers atomically refresh
  ``heartbeat-<shard>.json`` after every app; the coordinator's
  :class:`StatusWriter` thread folds those into a periodically-rewritten
  ``status.json`` with per-shard progress and stall detection (a shard
  whose heartbeat goes silent past ``stall_after_s`` is flagged, which
  is how an operator -- or ``repro top`` -- spots a hung worker while
  the run is still going).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.observe.events import EventLog, load_events
from repro.store.journal import replace_atomically

__all__ = [
    "FlightRecorder",
    "StatusWriter",
    "flight_path",
    "heartbeat_path",
    "load_flight",
    "read_heartbeats",
    "write_heartbeat",
]

#: records kept in each shard's flight ring.
DEFAULT_FLIGHT_CAPACITY = 512


def flight_path(directory: str, shard_id: int) -> str:
    return os.path.join(directory, "flight-{}.jsonl".format(shard_id))


def heartbeat_path(directory: str, shard_id: int) -> str:
    return os.path.join(directory, "heartbeat-{}.json".format(shard_id))


class FlightRecorder:
    """One shard's crash-safe ring of recent events and spans."""

    def __init__(
        self, directory: str, shard_id: int, capacity: int = DEFAULT_FLIGHT_CAPACITY
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = flight_path(directory, shard_id)
        self.shard_id = shard_id
        #: rewrite-mode sink: every emit atomically rewrites the ring, so
        #: the file is parseable at every instant of the shard's life.
        self.events = EventLog(capacity=capacity, sink=self.path, sink_mode="rewrite")
        #: a blocking verdict, retry, timeout, or quarantine marks the
        #: recording worth keeping after a clean shard exit.
        self.dirty = False

    def emit(self, name: str, level: str = "info", **fields: Any) -> None:
        if level in ("warn", "error"):
            self.dirty = True
        self.events.emit(name, level=level, **fields)

    def record_spans(self, spans: List[Dict[str, Any]]) -> None:
        """Fold finished span dicts into the ring as ``span`` records."""
        for span in spans:
            self.events.emit(
                "span",
                level="debug",
                name_=span["name"],
                span_id=span["span_id"],
                parent_id=span["parent_id"],
                ts=span["ts"],
                dur=span["dur"],
                attrs=span.get("attrs", {}),
            )

    def close(self, keep: Optional[bool] = None) -> None:
        """Finish the recording; delete the file unless it is worth keeping."""
        self.events.close()
        if keep is None:
            keep = self.dirty
        if not keep:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass


def load_flight(path: str) -> List[Dict[str, Any]]:
    """Read one flight recording (JSONL event records, torn-tail tolerant)."""
    return load_events(path)


# -- heartbeats ----------------------------------------------------------------


def write_heartbeat(
    directory: str,
    shard_id: int,
    completed: int,
    total: int,
    done: bool = False,
) -> None:
    """Atomically refresh one shard's heartbeat file."""
    os.makedirs(directory, exist_ok=True)
    payload = {
        "shard": shard_id,
        "completed": completed,
        "total": total,
        "done": done,
        "ts": round(time.time(), 6),
        "pid": os.getpid(),
    }
    replace_atomically(heartbeat_path(directory, shard_id), json.dumps(payload, sort_keys=True))


def read_heartbeats(directory: str) -> Dict[int, Dict[str, Any]]:
    """All current ``heartbeat-*.json`` files, keyed by shard id."""
    heartbeats: Dict[int, Dict[str, Any]] = {}
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return heartbeats
    for name in names:
        if not (name.startswith("heartbeat-") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            heartbeats[int(payload["shard"])] = payload
        except (OSError, ValueError, KeyError):
            continue  # a heartbeat mid-replace on a non-atomic filesystem
    return heartbeats


# -- coordinator status --------------------------------------------------------


class StatusWriter:
    """A daemon thread refreshing ``status.json`` while the farm runs.

    The coordinator feeds it run-level progress (shards merged, apps
    settled, quarantines); worker heartbeats are read off disk each
    tick.  ``compose`` is a pure function of those inputs so stall
    detection is unit-testable without threads or sleeps.
    """

    def __init__(
        self,
        directory: str,
        n_apps: int,
        shards_planned: int,
        interval_s: float = 1.0,
        stall_after_s: float = 10.0,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, "status.json")
        self.n_apps = n_apps
        self.shards_planned = shards_planned
        self.interval_s = interval_s
        self.stall_after_s = stall_after_s
        self._progress: Dict[str, Any] = {
            "shards_done": 0,
            "apps_settled": 0,
            "apps_quarantined": 0,
            "state": "running",
        }
        self._started = time.time()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- coordinator-side updates ----------------------------------------------

    def update(self, **progress: Any) -> None:
        with self._lock:
            self._progress.update(progress)

    @staticmethod
    def compose(
        run: Dict[str, Any],
        heartbeats: Dict[int, Dict[str, Any]],
        now: float,
        stall_after_s: float,
    ) -> Dict[str, Any]:
        """Fold run progress + heartbeats into one status document."""
        shards: Dict[str, Dict[str, Any]] = {}
        stalled: List[int] = []
        for shard_id in sorted(heartbeats):
            beat = heartbeats[shard_id]
            silent_s = max(0.0, now - float(beat.get("ts", now)))
            state = "done" if beat.get("done") else "running"
            if state == "running" and silent_s > stall_after_s:
                state = "stalled"
                stalled.append(shard_id)
            shards[str(shard_id)] = {
                "completed": beat.get("completed", 0),
                "total": beat.get("total", 0),
                "last_heartbeat_ts": beat.get("ts"),
                "silent_s": round(silent_s, 3),
                "state": state,
            }
        return dict(run, shards=shards, stalled=stalled, updated_ts=round(now, 6))

    def write_once(self) -> Dict[str, Any]:
        now = time.time()
        with self._lock:
            run = dict(
                self._progress,
                n_apps=self.n_apps,
                shards_planned=self.shards_planned,
                started_ts=round(self._started, 6),
                uptime_s=round(now - self._started, 3),
            )
        status = self.compose(run, read_heartbeats(self.directory), now, self.stall_after_s)
        replace_atomically(self.path, json.dumps(status, indent=1, sort_keys=True) + "\n")
        return status

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "StatusWriter":
        self.write_once()
        self._thread = threading.Thread(
            target=self._loop, name="repro-farm-status", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.write_once()
            except OSError:  # pragma: no cover - disk full mid-run
                pass

    def stop(self, state: str = "done") -> None:
        """Final refresh with a terminal state, then stop the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.update(state=state)
        try:
            self.write_once()
        except OSError:  # pragma: no cover
            pass
