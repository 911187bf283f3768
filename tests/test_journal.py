"""The crash-safe journal primitive, proven once for every adapter.

One crash matrix runs against :mod:`repro.store.journal` in each of its
shapes: the owned journal (checkpoint, result journal), the shared
journal that keeps payloads in memory (verdict store) and the shared
journal that keeps offsets plus a trailing index (warehouse).  Adapter
regression tests follow: records are never lost after a tail that parses,
and every open path and compaction answer a lookup the same way.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import DyDroidConfig
from repro.evolution import SnapshotWarehouse, compact_warehouse
from repro.farm.checkpoint import CheckpointJournal
from repro.farm.jobs import AppResult
from repro.service.persist import ResultJournal
from repro.static_analysis.malware.droidnative import Detection
from repro.store import StoreIndex, VerdictStore, compact_store, index_path, sqlite_available
from repro.store.journal import JournalSpec, OwnedJournal, SharedJournal, compact

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(sys.modules["repro"].__file__).resolve().parents[1]

needs_sqlite = pytest.mark.skipif(not sqlite_available(), reason="sqlite3 unavailable")


class JournalTestError(ValueError):
    pass


HEADER = {"kind": "header", "version": 1}


def _key(entry):
    if entry.get("kind") == "rec" and "k" in entry:
        return "rec", entry["k"]
    return None


def _spec(**extra):
    return JournalSpec(
        noun="test journal",
        error=JournalTestError,
        header=HEADER,
        mismatch="{}: written by another writer",
        key=_key,
        sidecar=lambda header: "test:v1",
        **extra
    )


SPECS = {
    "shared": _spec(value=lambda entry: entry.get("v")),
    "shared-trailer": _spec(trailer="rec"),
}


class Shape:
    """One journal shape behind a uniform open/append/lookup facade."""

    def __init__(self, name):
        self.name = name
        self.owned = name == "owned"

    def open(self, path, index=True):
        path = Path(path)
        if self.owned:
            resume = path.exists() and path.stat().st_size > 0
            return OwnedJournal(
                path, HEADER, {"rec": ("k", "v")}, JournalTestError,
                "{} is already owned", "{}: written by another writer", resume,
            )
        return SharedJournal(path, SPECS[self.name], index=index)

    def append(self, journal, k, v):
        entry = {"kind": "rec", "k": k, "v": v}
        if self.owned:
            journal.append(entry)
        elif journal.put(entry):
            journal.dirty = True  # the trailing index needs rewriting

    def values(self, journal, keys):
        """``{k: v}`` for every key in ``keys`` the journal holds."""
        if self.owned:
            return {e["k"]: e["v"] for e in journal.entries if e["k"] in keys}
        found = {}
        for k in keys:
            hit, value = journal.lookup(("rec", k))
            if hit:
                found[k] = journal.read(value)["v"] if self.name == "shared-trailer" else value
        return found

    def close(self, journal):
        # Like the warehouse: a fast open already ends in a trailing index.
        if self.name == "shared-trailer" and (
            getattr(journal, "dirty", False) or not journal.fast_opened
        ):
            journal.seal()
        journal.close()


SHAPES = {name: Shape(name) for name in ("owned", "shared", "shared-trailer")}
SHARED = ("shared", "shared-trailer")


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return SHAPES[request.param]


@pytest.fixture(params=SHARED)
def shared(request):
    return SHAPES[request.param]


def write(shape, path, *pairs):
    journal = shape.open(path)
    for k, v in pairs:
        shape.append(journal, k, v)
    shape.close(journal)


def reopen(shape, path, keys, index=True):
    journal = shape.open(path, index=index)
    try:
        return shape.values(journal, keys)
    finally:
        shape.close(journal)


def record_line(k, v):
    return json.dumps({"kind": "rec", "k": k, "v": v}, sort_keys=True).encode()


# -- the crash matrix -------------------------------------------------------------

CHILD = """
import os, resource, signal, sys
sys.path[:0] = [{root!r}, {src!r}]
from tests.test_journal import SHAPES
shape = SHAPES[{name!r}]
journal = shape.open({path!r})
shape.append(journal, "a", "small")
size = os.path.getsize({path!r})
# The kernel cuts the write of the large line off halfway; then the
# writer dies before it can finish or clean up.
resource.setrlimit(resource.RLIMIT_FSIZE, (size + {big} // 2, resource.RLIM_INFINITY))
try:
    shape.append(journal, "b", "x" * {big})
finally:
    os.kill(os.getpid(), signal.SIGKILL)
"""


def test_sigkill_mid_append_of_a_large_line(shape, tmp_path):
    path = tmp_path / "j.jsonl"
    big = 1 << 22
    script = CHILD.format(root=str(ROOT), src=str(SRC), name=shape.name, path=str(path), big=big)
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()
    data = path.read_bytes()
    assert not data.endswith(b"\n")  # the large line is torn on disk
    assert len(data) > big // 4

    assert reopen(shape, path, {"a", "b"}) == {"a": "small"}
    write(shape, path, ("c", "after"))
    assert reopen(shape, path, {"a", "b", "c"}) == {"a": "small", "c": "after"}
    assert reopen(shape, path, {"a", "b", "c"}, index=False) == {"a": "small", "c": "after"}


@pytest.mark.parametrize("tail_parses", [False, True], ids=["garbage", "parses"])
def test_torn_tail(shape, tail_parses, tmp_path):
    """A dead writer's unterminated tail, then a surviving writer appends.

    Owned: the tail is truncated before the first append, even when it
    parses.  Shared: it is sealed and becomes an ordinary line -- kept
    when it parses, counted corrupt when not.
    """
    path = tmp_path / "j.jsonl"
    write(shape, path, ("a", 1))
    tail = record_line("t", "tail") if tail_parses else b'{"kind": "rec", "k": "t'
    with path.open("ab") as handle:
        handle.write(tail)
    write(shape, path, ("b", 2))
    expected = {"a": 1, "b": 2}
    if tail_parses and not shape.owned:
        expected["t"] = "tail"
    assert reopen(shape, path, {"a", "b", "t"}) == expected
    assert reopen(shape, path, {"a", "b", "t"}, index=False) == expected
    if shape.owned:
        assert all(json.loads(line) for line in path.read_bytes().splitlines())
    elif shape.name == "shared":  # the trailer shape fast-opens: no scan
        journal = shape.open(path, index=False)
        assert journal.corrupt_lines == (0 if tail_parses else 1)
        shape.close(journal)


def test_sibling_torn_tail_under_a_live_handle(shared, tmp_path):
    """A sibling dies mid-append while a survivor's handle stays open."""
    path = tmp_path / "j.jsonl"
    survivor = shared.open(path)
    shared.append(survivor, "a", 1)
    with path.open("ab") as handle:
        handle.write(record_line("t", "tail"))  # complete JSON, no newline
    shared.append(survivor, "b", 2)  # seals the tail before appending
    live = shared.values(survivor, {"a", "b", "t"})
    shared.close(survivor)
    assert live == {"a": 1, "b": 2, "t": "tail"}
    assert reopen(shared, path, {"a", "b", "t"}) == live
    assert reopen(shared, path, {"a", "b", "t"}, index=False) == live


def test_double_resume(shape, tmp_path):
    path = tmp_path / "j.jsonl"
    write(shape, path, ("a", 1), ("b", 2))
    with path.open("ab") as handle:
        handle.write(b'{"kind": "rec", "k": "t')  # torn mid-record
    write(shape, path, ("c", 3))
    write(shape, path, ("d", 4))
    expected = {"a": 1, "b": 2, "c": 3, "d": 4}
    assert reopen(shape, path, set(expected) | {"t"}) == expected
    size = path.stat().st_size
    assert reopen(shape, path, set(expected) | {"t"}) == expected
    assert path.stat().st_size == size  # a read-only resume changes nothing


def test_second_owner(shape, tmp_path):
    """Owned journals refuse a second opener; shared ones welcome it."""
    path = tmp_path / "j.jsonl"
    first = shape.open(path)
    shape.append(first, "a", 1)
    if shape.owned:
        with pytest.raises(JournalTestError, match="already owned"):
            shape.open(path)
        shape.close(first)
        assert reopen(shape, path, {"a"}) == {"a": 1}
        return
    second = shape.open(path)
    shape.append(second, "b", 2)
    shape.close(second)
    shape.append(first, "c", 3)
    shape.close(first)
    assert reopen(shape, path, {"a", "b", "c"}) == {"a": 1, "b": 2, "c": 3}


def test_compaction_is_idempotent_and_keeps_lookups(shared, tmp_path):
    path = tmp_path / "j.jsonl"
    write(shared, path, ("a", 1), ("b", 2))
    with path.open("ab") as handle:
        handle.write(record_line("a", 1) + b"\n")  # a racing duplicate
        handle.write(b"junk\n")
        handle.write(record_line("t", "tail"))  # sealed, then kept
    keys = {"a", "b", "t", "z"}
    before = reopen(shared, path, keys)
    assert before == {"a": 1, "b": 2, "t": "tail"}
    stats = compact(path, SPECS[shared.name])
    assert stats["records"] == 3
    assert stats["dropped_duplicates"] == 1
    assert stats["dropped_corrupt"] == 1
    once = path.read_bytes()
    again = compact(path, SPECS[shared.name])
    assert path.read_bytes() == once
    assert again["bytes_before"] == again["bytes_after"] == len(once)
    assert reopen(shared, path, keys) == before
    assert reopen(shared, path, keys, index=False) == before
    journal = shared.open(path)
    assert journal.full_scans == 0  # compaction rebuilt the sidecar
    shared.close(journal)


@needs_sqlite
def test_sidecar_reset_on_fingerprint_mismatch(shared, tmp_path):
    path = tmp_path / "j.jsonl"
    write(shared, path, ("a", 1), ("b", 2))
    StoreIndex(index_path(path), "someone-else", path.stat().st_size).close()
    journal = shared.open(path)
    assert not journal.sidecar_opened  # the foreign sidecar was reset...
    # ...so the open scanned, or trusted the trailing index instead
    assert journal.full_scans == (0 if shared.name == "shared-trailer" else 1)
    assert shared.values(journal, {"a", "b"}) == {"a": 1, "b": 2}
    shared.close(journal)
    journal = shared.open(path)
    assert journal.full_scans == 0  # ...and rebuilt by that open
    assert shared.values(journal, {"a", "b"}) == {"a": 1, "b": 2}
    shared.close(journal)


@needs_sqlite
def test_sidecar_reset_on_watermark_past_eof(shared, tmp_path):
    path = tmp_path / "j.jsonl"
    write(shared, path, ("a", 1))
    write(shared, path, ("b", 2))
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2]))  # header + a: shorter than the watermark
    journal = shared.open(path)
    assert journal.full_scans == 1
    assert shared.values(journal, {"a", "b"}) == {"a": 1}
    shared.close(journal)


# -- adapters: no record lost after a tail that parses ------------------------------


def _checkpoint_open(path, resume):
    return CheckpointJournal(path, 7, 24, DyDroidConfig(train_samples_per_family=2), resume=resume)


def _checkpoint_append(journal, index):
    journal.append_result(AppResult(index=index, package="p{}".format(index), analysis={}))


def _result_open(path, resume):
    return ResultJournal(path, DyDroidConfig(train_samples_per_family=2))


def _result_append(journal, index):
    journal.append_result("k{}".format(index), "d{}".format(index), "p", 0.1, {})


ADAPTERS = {
    "checkpoint": (
        _checkpoint_open, _checkpoint_append,
        lambda journal: sorted(journal.settled_indices()),
    ),
    "result-journal": (
        _result_open, _result_append,
        lambda journal: sorted(int(e["digest"][1:]) for e in journal.restored),
    ),
}


@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
def test_owned_adapter_keeps_every_record_after_a_tail_that_parses(adapter, tmp_path):
    """A final record that parses but lost its newline must not swallow
    the next append: every record a resume restores, plus every record
    appended after it, survives the following resume."""
    open_journal, append, restored = ADAPTERS[adapter]
    path = tmp_path / "journal.jsonl"
    journal = open_journal(path, resume=False)
    append(journal, 1)
    journal.close()
    path.write_bytes(path.read_bytes()[:-1])  # killed before the newline

    first = open_journal(path, resume=True)
    after_first = restored(first)
    append(first, 2)
    first.close()

    second = open_journal(path, resume=True)
    assert restored(second) == sorted(set(after_first) | {2})
    second.close()
    for line in path.read_bytes().splitlines():
        json.loads(line)


# -- adapters: every open path and compaction agree on a sealed tail ---------------

DETECTION = Detection(
    family="DroidKungFu", score=0.97, matched_sample_id="DroidKungFu-003",
    matched_functions=9, total_functions=10,
)


def _store_config():
    return DyDroidConfig(train_samples_per_family=2, run_replays=False)


def _store_answers(path, digests):
    """One lookup table per open path: sidecar, full scan, no sidecar file."""
    answers = {}
    for label, index in (("sidecar", True), ("scan", False)):
        with VerdictStore(path, _store_config(), index=index) as store:
            answers[label] = {d: store.get_detection(d) for d in digests}
    return answers


def test_verdict_store_paths_and_compaction_agree_on_a_sealed_tail(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    digests = ("d1", "dX", "d2")
    live = VerdictStore(path, _store_config())
    live.put_detection("d1", DETECTION)
    with path.open("ab") as handle:  # a sibling died right before its newline
        handle.write(json.dumps(
            {"kind": "detection", "digest": "dX", "verdict": None}, sort_keys=True
        ).encode())
    crashed = path.read_bytes()
    live.put_detection("d2", None)  # seals the tail under the exclusive lock
    live_answers = {d: live.get_detection(d) for d in digests}
    live.close()
    assert live_answers["dX"] == (True, None)
    before = _store_answers(path, digests)
    assert all(table == live_answers for table in before.values())
    compact_store(path)
    assert _store_answers(path, digests) == before
    index_path(path).unlink()
    assert _store_answers(path, digests) == before
    # compaction straight after the crash, before any open sealed the tail
    fresh = tmp_path / "fresh.jsonl"
    fresh.write_bytes(crashed)
    compact_store(fresh)
    with VerdictStore(fresh, _store_config()) as store:
        assert store.get_detection("dX") == (True, None)


def _snapshot(package):
    return {"package": package, "metadata": {"version_code": 1}}


def _warehouse_answers(path, packages):
    answers = {}
    for label, index in (("sidecar", True), ("trailing-index", False)):
        with SnapshotWarehouse(path, index=index) as warehouse:
            answers[label] = {p: (p, 1) in warehouse for p in packages}
    return answers


@pytest.mark.parametrize("live_opens", ["sidecar", "trailing-index", "before-the-crash"])
def test_warehouse_paths_and_compaction_agree_on_a_sealed_tail(live_opens, tmp_path):
    path = tmp_path / "warehouse.jsonl"
    packages = ("com.a", "com.b", "com.c")
    with SnapshotWarehouse(path) as warehouse:
        warehouse.append(_snapshot("com.a"))  # sealed: ends in a trailing index
    torn = json.dumps(
        {"kind": "snapshot", "package": "com.b", "version_code": 1,
         "analysis": _snapshot("com.b")},
        sort_keys=True,
    ).encode()
    live = SnapshotWarehouse(path) if live_opens == "before-the-crash" else None
    with path.open("ab") as handle:
        handle.write(torn)  # a sibling died right before its newline
    crashed = path.read_bytes()
    if live is None:
        live = SnapshotWarehouse(path, index=live_opens == "sidecar")
    live.append(_snapshot("com.c"))
    live_answers = {p: (p, 1) in live for p in packages}
    live.close()
    assert live_answers == {"com.a": True, "com.b": True, "com.c": True}
    before = _warehouse_answers(path, packages)
    assert all(table == live_answers for table in before.values())
    compact_warehouse(path)
    assert _warehouse_answers(path, packages) == before
    with SnapshotWarehouse(path) as warehouse:
        assert warehouse.get("com.b", 1)["package"] == "com.b"
    # compaction straight after the crash, before any open sealed the tail
    fresh = tmp_path / "fresh.jsonl"
    fresh.write_bytes(crashed)
    compact_warehouse(fresh)
    with SnapshotWarehouse(fresh) as warehouse:
        assert warehouse.packages() == ["com.a", "com.b"]


# -- ``repro store compact`` through the CLI -----------------------------------------


def _cli_compact(path, capsys):
    assert main(["store", "compact", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_store_compact_cli_verdict_store(tmp_path, capsys):
    path = tmp_path / "verdicts.jsonl"
    with VerdictStore(path, _store_config()) as store:
        for i in range(6):
            store.put_detection("d{}".format(i), DETECTION if i % 2 else None)
            store.put_privacy("d{}".format(i), ())
    lines = path.read_bytes().splitlines(keepends=True)
    with path.open("ab") as handle:
        handle.writelines(lines[1:4])  # duplicate publishes
        handle.write(b'{"kind": "privacy", "digest": "dT"')  # torn
    digests = ["d{}".format(i) for i in range(7)]

    def dump():
        with VerdictStore(path, _store_config()) as store:
            return [(d, store.get_detection(d), store.get_privacy(d)) for d in digests]

    before = dump()
    stats = _cli_compact(path, capsys)
    assert stats["kind"] == "verdict store"
    assert stats["entries"] == 12
    assert stats["dropped_duplicates"] == 3
    once = path.read_bytes()
    assert dump() == before
    assert _cli_compact(path, capsys)["kind"] == "verdict store"
    assert path.read_bytes() == once


def test_store_compact_cli_warehouse(tmp_path, capsys):
    path = tmp_path / "warehouse.jsonl"
    packages = ["com.p{}".format(i) for i in range(4)]
    for package in packages:  # one open per append: stale interior indexes
        with SnapshotWarehouse(path) as warehouse:
            warehouse.append(_snapshot(package))

    def dump():
        with SnapshotWarehouse(path) as warehouse:
            return [warehouse.get(p, 1) for p in packages], warehouse.counts()

    before = dump()
    stats = _cli_compact(path, capsys)
    assert stats["kind"] == "warehouse"
    assert stats["snapshots"] == 4
    assert stats["dropped_index_lines"] == 4
    once = path.read_bytes()
    assert dump() == before
    assert _cli_compact(path, capsys)["kind"] == "warehouse"
    assert path.read_bytes() == once
