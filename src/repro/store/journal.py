"""Crash-safe JSONL journals: the one mechanism under every durable file.

The checkpoint journal, the service result journal, the verdict store and
the snapshot warehouse are typed adapters over this module.  Each file is
line-oriented JSON: line 1 is a ``{"kind": "header", "version": ...}``
record binding the file to its writer, every later line is one record,
and a record exists only once its terminating newline is on disk.  The
module has two shapes, because the files have two usage patterns.

**Owned journal** (:class:`OwnedJournal`: checkpoint, result journal).
One process owns the file for its whole life through a non-blocking
exclusive ``flock``; a second opener fails fast with the adapter's error
instead of interleaving.  Torn-tail rule: before the first append the
unterminated tail is truncated, *even one that parses* -- appending after
it would glue the next record onto it, and the resume after that would
lose both.  A corrupt line before the tail cannot come from a crash, so
it is a hard error.

**Shared journal** (:class:`SharedJournal`: verdict store, warehouse).
Any number of processes append through ``O_APPEND`` handles, each line
one buffered write+flush under an exclusive ``flock``; reads take a
shared lock and consume only through the last newline, so a writer
killed mid-line never corrupts a reader.  Torn-tail rule: under the
exclusive lock -- at open and before every append -- a missing final
newline can only be a dead sibling's debris, so the tail is sealed with
a newline.  From then on it is an ordinary line, kept if it parses and
counted in ``corrupt_lines`` if not.  The tail-follow, the full scan, the
sidecar, the trailing index and compaction all see the sealed line the
same way, so a lookup answers identically whichever path served it.
Duplicate records are legal; every fold is first write wins.

**The sidecar** (:class:`~repro.store.index.StoreIndex`, ``<file>.idx``)
maps ``(kind, key)`` to the byte offset of the first line holding it,
plus a watermark: the byte offset the table covers.  The journal opens
it after the header is validated (a refused file never grows one), folds
every scanned range into it in one transaction with the watermark, resets
it when a recorded offset no longer holds its record, and drops it on any
sqlite error -- it is derived data, losing it costs one full scan
(counted in ``full_scans``).

Journals whose adapter keeps every key in memory (``JournalSpec.trailer``,
the warehouse) also write a trailing ``{"kind": "index", "entries": {key:
offset}}`` line on :meth:`SharedJournal.seal`.  An open whose last
complete line is that index trusts it and skips the scan; any later
append demotes it to a stale interior line, which scans skip.

**Compaction** (:func:`compact`, ``repro store compact``) rewrites the
file in place under the exclusive lock: header, then the first line of
every key, then a fresh trailing index where the spec has one; corrupt
lines, duplicates and stale index lines are dropped and the sidecar is
rebuilt.  It is idempotent and offline-only: siblings' ``O_APPEND``
handles survive the rewrite but their scan horizons go stale.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.store.index import SQLITE_ERRORS, StoreIndex, index_path, sqlite_available

try:  # POSIX only; elsewhere locking degrades to in-process thread safety.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "JournalSpec",
    "OwnedJournal",
    "SharedJournal",
    "compact",
    "journal_counter",
    "read_complete_lines",
    "replace_atomically",
]

#: kind of the trailing in-file index line.
TRAILER_KIND = "index"

#: a record's identity: (kind, key).
RecordKey = Tuple[str, str]


def encode(entry: Dict[str, object]) -> bytes:
    return json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"


def parse(raw: bytes) -> Optional[Dict[str, object]]:
    """One JSON object, or None for anything else."""
    try:
        entry = json.loads(raw)
    except ValueError:
        return None
    return entry if isinstance(entry, dict) else None


@contextmanager
def file_lock(handle, exclusive: bool) -> Iterator[None]:
    """Advisory whole-file lock; a no-op where ``fcntl`` is unavailable."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def replace_atomically(path: str, text: str) -> None:
    """Write ``text`` through a temp file + ``os.replace``: readers see the
    old file or the new one, never a torn one."""
    tmp = "{}.tmp{}".format(path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def read_complete_lines(path: Union[str, Path]) -> Tuple[List[bytes], int]:
    """The newline-terminated lines of a file and their byte length.

    The unterminated tail is not a record under the owned-journal rule,
    so it is left out of both.
    """
    data = Path(path).read_bytes()
    end = data.rfind(b"\n") + 1
    return data[:end].split(b"\n")[:-1], end


def check_header(
    path: Path,
    entry: Optional[Dict[str, object]],
    header: Dict[str, object],
    noun: str,
    error: Type[Exception],
    mismatch: str,
) -> None:
    """Validate line 1 against ``header``; ``None`` values match anything."""
    if entry is None or entry.get("kind") != "header":
        raise error("{}: no {} header found".format(path, noun))
    if entry.get("version") != header["version"]:
        raise error(
            "{}: unsupported {} version {}".format(path, noun, entry.get("version"))
        )
    if any(v is not None and entry.get(k) != v for k, v in header.items()):
        raise error(mismatch.format(path))


def journal_counter(name: str) -> property:
    """Expose one of the journal's counters on an adapter."""
    return property(lambda self: getattr(self._journal, name))


# -- owned journals -----------------------------------------------------------------


class OwnedJournal:
    """A journal one process owns for the handle's whole lifetime.

    ``fields`` maps every legal record kind to its required fields;
    :attr:`entries` holds the records restored on ``resume``, in order.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Dict[str, object],
        fields: Dict[str, Sequence[str]],
        error: Type[Exception],
        owned: str,
        mismatch: str,
        resume: bool,
    ) -> None:
        self.path = Path(path)
        self.entries: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        valid = 0
        if resume:
            lines, valid = read_complete_lines(self.path)
            first = parse(lines[0]) if lines else None
            check_header(self.path, first, header, "journal", error, mismatch)
            for line_no, raw in enumerate(lines[1:], start=2):
                self.entries.append(self._checked(parse(raw), line_no, fields, error))
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # Open append-mode and lock *before* truncating, so a second owner
        # can never clobber the live one's file.
        self._handle = self.path.open("ab")
        if fcntl is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._handle.close()
                raise error(owned.format(self.path) + "; refusing to double-write it")
        self._handle.truncate(valid)
        if not resume:
            self.append(header)

    def _checked(self, entry, line_no, fields, error) -> Dict[str, object]:
        where = "{}:{}".format(self.path, line_no)
        if entry is None:
            raise error("{}: corrupt journal line".format(where))
        kind = entry.get("kind")
        if kind not in fields:
            raise error("{}: unknown entry kind {!r}".format(where, kind))
        for key in fields[kind]:
            if key not in entry:
                raise error(
                    "{}: {} entry is missing required field {!r}".format(where, kind, key)
                )
        return entry

    def append(self, entry: Dict[str, object]) -> None:
        line = encode(entry)
        with self._lock:
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


# -- shared journals ----------------------------------------------------------------


@dataclass(frozen=True)
class JournalSpec:
    """What an adapter tells a shared journal about its file format."""

    #: names the file in error messages ("store", "warehouse").
    noun: str
    error: Type[Exception]
    #: the header line written on create; on open, ``None`` values match
    #: anything and any other difference raises ``mismatch``.
    header: Dict[str, object]
    #: message (``{}`` = path) for a header written by another writer.
    mismatch: str
    #: the identity of a record line, or None when it is not a record.
    key: Callable[[Dict[str, object]], Optional[RecordKey]]
    #: the sidecar fingerprint, derived from the validated header.
    sidecar: Callable[[Dict[str, object]], str]
    #: what memory holds per key: a payload read from the line, or (None)
    #: the line's byte offset.
    value: Optional[Callable[[Dict[str, object]], object]] = None
    #: the one record kind a trailing index covers; journals with one keep
    #: every key in memory and fold siblings' lines before each append.
    trailer: Optional[str] = None


class SharedJournal:
    """An append-only JSONL file many processes read and append.

    Every public method takes the journal's mutex, so one instance is
    safe to share across threads.
    """

    def __init__(self, path: Union[str, Path], spec: JournalSpec, index: bool = True) -> None:
        self.path = Path(path)
        self.spec = spec
        #: first-wins fold: record key -> payload (or byte offset).
        self.records: Dict[RecordKey, object] = {}
        #: bytes folded so far; always at a line boundary.
        self.horizon = 0
        #: lines that are neither records nor the header (or a trailer).
        self.corrupt_lines = 0
        #: scans that started at byte 0; warm opens keep this at zero.
        self.full_scans = 0
        #: point lookups served by the sidecar (one line read).
        self.index_hits = 0
        #: sidecar probes that found nothing and fell through to a scan.
        self.index_misses = 0
        #: the open used a trailing index, or a sidecar covering the file.
        self.fast_opened = False
        #: the open started from the sidecar's watermark.
        self.sidecar_opened = False
        self.sidecar: Optional[StoreIndex] = None
        self._complete = spec.trailer is not None
        self._mutex = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # "a+b" creates the file if missing and opens O_APPEND: every
        # write lands at the end regardless of the read position.
        self._handle = self.path.open("a+b")
        try:
            with file_lock(self._handle, exclusive=True):
                size = self._seal_tail()
                created = size == 0
                if created:
                    line = encode(spec.header)
                    size = self._write(line) + len(line)
            with file_lock(self._handle, exclusive=False):
                self._handle.seek(0)
                header = parse(self._handle.readline())
            check_header(self.path, header, spec.header, spec.noun, spec.error, spec.mismatch)
        except BaseException:
            self._handle.close()
            raise
        if index and sqlite_available():
            try:
                self.sidecar = StoreIndex(index_path(self.path), spec.sidecar(header), size)
                self.horizon = self.sidecar.watermark()
            except SQLITE_ERRORS:
                self.sidecar = None
        if not self._complete:
            self._refresh()
        elif created:
            self.horizon = size
            self._advance([], size)
        elif not self._open_from_sidecar(size):
            self._open_from_file(size)

    # -- opening journals that keep every key in memory ---------------------------

    def _open_from_sidecar(self, size: int) -> bool:
        if self.sidecar is None or self.horizon <= 0:
            return False
        try:
            entries = self.sidecar.entries(self.spec.trailer)
        except SQLITE_ERRORS:
            self.drop_sidecar()
            return False
        self.records = {(self.spec.trailer, key): offset for key, offset in entries}
        self.sidecar_opened = True
        # Watermark at EOF: nothing but the header line was read.
        self.fast_opened = self.horizon == size
        self._refresh()
        return True

    def _open_from_file(self, size: int) -> None:
        self.horizon = 0
        with file_lock(self._handle, exclusive=False):
            self._handle.seek(0)
            data = self._handle.read(size)
        last = parse(data[data.rfind(b"\n", 0, len(data) - 1) + 1 :])
        if last and last.get("kind") == TRAILER_KIND and isinstance(last.get("entries"), dict):
            kind = self.spec.trailer
            self.records = {(kind, str(k)): int(v) for k, v in last["entries"].items()}
            self.fast_opened = True
            self.horizon = size
            if self.sidecar is not None:
                rows = [(kind, key, offset) for (_, key), offset in self.records.items()]
                try:
                    self.sidecar.rebuild(rows, size)
                except SQLITE_ERRORS:
                    self.drop_sidecar()
            return
        rows = self._fold(data, 0)
        self.horizon = size
        self._advance(rows, size)

    # -- reading and writing the file (mutex held) ---------------------------------

    def _value(self, entry: Dict[str, object], offset: int) -> object:
        return offset if self.spec.value is None else self.spec.value(entry)

    def _fold(self, chunk: bytes, base: int) -> List[Tuple[str, str, int]]:
        """Fold the complete lines of ``chunk`` (at file offset ``base``);
        returns their sidecar rows."""
        rows: List[Tuple[str, str, int]] = []
        offset = base
        lines = chunk.split(b"\n")[:-1]
        if base == 0:
            self.full_scans += 1
            offset += len(lines[0]) + 1  # the header, validated at open
            lines = lines[1:]
        for raw in lines:
            entry = parse(raw)
            rkey = self.spec.key(entry) if entry is not None else None
            if rkey is not None:
                self.records.setdefault(rkey, self._value(entry, offset))
                rows.append((rkey[0], rkey[1], offset))
            elif not (self._complete and entry and entry.get("kind") == TRAILER_KIND):
                self.corrupt_lines += 1
            offset += len(raw) + 1
        return rows

    def _scan(self) -> Optional[List[Tuple[str, str, int]]]:
        """Fold lines past the horizon (a file lock held); None when there
        was no complete line to fold."""
        self._handle.seek(0, os.SEEK_END)
        size = self._handle.tell()
        if size <= self.horizon:
            return None
        self._handle.seek(self.horizon)
        chunk = self._handle.read(size - self.horizon)
        cut = chunk.rfind(b"\n") + 1  # a writer may still be mid-line
        if not cut:
            return None
        rows = self._fold(chunk[:cut], self.horizon)
        self.horizon += cut
        return rows

    def _refresh(self) -> None:
        """Tail-follow: fold what other writers appended since the last scan.

        Whichever process scans a range first indexes it for the fleet.
        """
        with file_lock(self._handle, exclusive=False):
            rows = self._scan()
        if rows is not None:
            self._advance(rows, self.horizon)

    def _read_at(self, offset: int) -> Optional[Dict[str, object]]:
        with file_lock(self._handle, exclusive=False):
            self._handle.seek(offset)
            return parse(self._handle.readline())

    def _write(self, line: bytes) -> int:
        """Append one line (exclusive lock held); returns its offset."""
        self._handle.seek(0, os.SEEK_END)
        offset = self._handle.tell()
        self._handle.write(line)
        self._handle.flush()
        return offset

    def _seal_tail(self) -> int:
        """Terminate a crash-torn final line (exclusive lock held); returns
        the file size.  No live writer is mid-append under the lock, so a
        missing final newline can only be a dead sibling's debris."""
        self._handle.seek(0, os.SEEK_END)
        size = self._handle.tell()
        if size:
            self._handle.seek(size - 1)
            if self._handle.read(1) != b"\n":
                self._write(b"\n")
                size += 1
        return size

    # -- the sidecar (mutex held) -------------------------------------------------

    def _advance(self, rows, watermark: int) -> None:
        if self.sidecar is None:
            return
        try:
            self.sidecar.advance(rows, watermark)
        except SQLITE_ERRORS:
            self._sidecar_failed()

    def _sidecar_failed(self) -> None:
        """Run without the sidecar.  Memory may only cover [watermark, EOF),
        so a journal that does not keep every key rescans from zero."""
        self.drop_sidecar()
        if not self._complete:
            self.horizon = 0
            self._refresh()

    def drop_sidecar(self) -> None:
        sidecar, self.sidecar = self.sidecar, None
        if sidecar is not None:
            try:
                sidecar.close()
            except SQLITE_ERRORS:  # pragma: no cover - close is best-effort
                pass

    def _probe(self, rkey: RecordKey) -> Tuple[bool, object]:
        """Serve one key from its sidecar offset (one line read)."""
        try:
            offset = self.sidecar.lookup(*rkey)
        except SQLITE_ERRORS:
            self._sidecar_failed()
            return False, None
        if offset is None:
            self.index_misses += 1
            return False, None
        entry = self._read_at(offset)
        if entry is not None and self.spec.key(entry) == rkey:
            self.index_hits += 1
            value = self.records[rkey] = self._value(entry, offset)
            return True, value
        # The offset no longer holds that record: the file was rewritten
        # underneath the sidecar.  Rebuild rather than trust any other row.
        try:
            self.sidecar.reset()
        except SQLITE_ERRORS:
            self._sidecar_failed()
        else:
            self.horizon = 0
        return False, None

    # -- public API ---------------------------------------------------------------

    def lookup(self, rkey: RecordKey) -> Tuple[bool, object]:
        """``(found, value)``: memory, then the sidecar, then the tail."""
        with self._mutex:
            if rkey in self.records:
                return True, self.records[rkey]
            if self._complete:
                return False, None
            if self.sidecar is not None:
                found, value = self._probe(rkey)
                if found:
                    return True, value
            self._refresh()
            if rkey in self.records:
                return True, self.records[rkey]
            return False, None

    def read(self, offset: int) -> Optional[Dict[str, object]]:
        """The record on the line starting at ``offset``."""
        with self._mutex:
            return self._read_at(offset)

    def put(self, entry: Dict[str, object]) -> bool:
        """Append one record; False if its key was already published."""
        rkey = self.spec.key(entry)
        line = encode(entry)
        with self._mutex:
            if rkey in self.records:
                return False
            if not self._complete:
                if self.sidecar is not None:
                    try:
                        if self.sidecar.lookup(*rkey) is not None:
                            return False
                    except SQLITE_ERRORS:
                        self._sidecar_failed()
                with file_lock(self._handle, exclusive=True):
                    self._seal_tail()
                    offset = self._write(line)
                self.records.setdefault(rkey, self._value(entry, offset))
                return True
            with file_lock(self._handle, exclusive=True):
                self._seal_tail()
                # Fold siblings' appends first: one may hold this key
                # (first write wins across processes too).
                rows = self._scan() or []
                if rkey not in self.records:
                    offset = self._write(line)
                    self.records[rkey] = offset
                    rows.append((rkey[0], rkey[1], offset))
                    self.horizon = offset + len(line)
                    written = True
                else:
                    written = False
            self._advance(rows, self.horizon)
            return written

    def seal(self) -> None:
        """Append the trailing index so the next open can skip the scan."""
        with self._mutex:
            with file_lock(self._handle, exclusive=True):
                self._seal_tail()
                rows = self._scan() or []
                entries = {key: off for (_, key), off in self.records.items()}
                line = encode({"kind": TRAILER_KIND, "entries": entries})
                self.horizon = self._write(line) + len(line)
            self._advance(rows, self.horizon)

    def keys(self, kind: str) -> List[str]:
        with self._mutex:
            return [key for k, key in self.records if k == kind]

    def counts(self, kinds: Sequence[str]) -> Dict[str, int]:
        """Records per kind, from the sidecar when there is one."""
        with self._mutex:
            self._refresh()
            if self.sidecar is not None:
                try:
                    return {kind: self.sidecar.count(kind) for kind in kinds}
                except SQLITE_ERRORS:
                    self._sidecar_failed()
            return {kind: sum(1 for k, _ in self.records if k == kind) for kind in kinds}

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def close(self) -> None:
        with self._mutex:
            if not self._handle.closed:
                # Final sync: advance the sidecar through EOF so the next
                # open starts at the watermark instead of re-scanning.
                self._refresh()
                self._handle.close()
            self.drop_sidecar()


# -- compaction ---------------------------------------------------------------------


def compact(path: Union[str, Path], spec: JournalSpec) -> Dict[str, int]:
    """Garbage-collect a shared journal in place and rebuild its sidecar.

    Keeps the header and the first line of every key, byte-identical, so
    every lookup answers as before; appends a fresh trailing index when
    the spec has one.  Returns ``{"records", "dropped_duplicates",
    "dropped_corrupt", "dropped_index_lines", "bytes_before",
    "bytes_after"}``.
    """
    path = Path(path)
    if not path.exists():
        raise spec.error("{}: no such {}".format(path, spec.noun))
    with path.open("r+b") as handle:
        with file_lock(handle, exclusive=True):
            data = handle.read()
            # The shared rule: an unterminated tail is sealed, then it is
            # an ordinary line.
            sealed = data if data.endswith(b"\n") or not data else data + b"\n"
            lines = sealed.split(b"\n")[:-1]
            header = parse(lines[0]) if lines else None
            check_header(path, header, spec.header, spec.noun, spec.error, spec.mismatch)
            kept = [lines[0] + b"\n"]
            offset = len(kept[0])
            offsets: Dict[RecordKey, int] = {}
            stats = dict.fromkeys(("dropped_duplicates", "dropped_corrupt", "dropped_index_lines"), 0)
            for raw in lines[1:]:
                entry = parse(raw)
                rkey = spec.key(entry) if entry is not None else None
                if rkey is None:
                    trailer = spec.trailer and entry and entry.get("kind") == TRAILER_KIND
                    stats["dropped_index_lines" if trailer else "dropped_corrupt"] += 1
                elif rkey in offsets:
                    stats["dropped_duplicates"] += 1
                else:
                    offsets[rkey] = offset
                    kept.append(raw + b"\n")
                    offset += len(raw) + 1
            if spec.trailer:
                entries = {key: off for (_, key), off in offsets.items()}
                kept.append(encode({"kind": TRAILER_KIND, "entries": entries}))
            compacted = b"".join(kept)
            if compacted != data:
                handle.seek(0)
                handle.write(compacted)
                handle.truncate(len(compacted))
                handle.flush()
            if sqlite_available():
                try:
                    sidecar = StoreIndex(index_path(path), spec.sidecar(header), len(compacted))
                    sidecar.rebuild(
                        [(kind, key, off) for (kind, key), off in offsets.items()],
                        len(compacted),
                    )
                    sidecar.close()
                except SQLITE_ERRORS:  # pragma: no cover - derived data
                    pass  # a stale sidecar self-heals on the next open
    return dict(
        stats, records=len(offsets), bytes_before=len(data), bytes_after=len(compacted)
    )
