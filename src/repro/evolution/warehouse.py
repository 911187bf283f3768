"""The snapshot warehouse: per-version analyses, durable and diffable.

An evolution run produces one :class:`~repro.core.report.AppAnalysis` per
``(package, version_code)``; the warehouse is their append-only home, a
shared journal (:class:`repro.store.journal.SharedJournal`) with the same
locking, torn-tail sealing and sqlite sidecar as the verdict store.

File layout (one JSON document per line)::

    {"kind": "header", "version": 1, "serialization": 1}
    {"kind": "snapshot", "package": "...", "version_code": 7, "analysis": {...}}
    {"kind": "index", "entries": {"<package>@<version_code>": <byte offset>, ...}}

The trailing ``index`` line is the in-file index: :meth:`seal` (also run
by ``close``) appends one, so a reader -- even one without sqlite -- can
skip the full scan.  The sidecar (``<warehouse>.idx``) covers the case
the trailing index cannot: a writer that died *without* sealing, whose
reopen then scans only the unindexed tail.  Either way the in-memory
index holds offsets only -- ``get`` seeks and parses a single line, so
opening a multi-gigabyte warehouse never materializes every snapshot.

Snapshots are immutable: appending a key that already exists is a no-op
(first write wins, across processes too), which makes warm re-runs
idempotent -- the file, and therefore ``repro evolve diff`` output, is
byte-stable across repeats.  :func:`compact_warehouse` is the GC for what
append-only leaves behind (duplicate snapshots, stale interior index
lines, corrupt debris).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.report import SERIALIZATION_VERSION, AppAnalysis
from repro.store.journal import JournalSpec, SharedJournal, compact, journal_counter

__all__ = [
    "WAREHOUSE_VERSION",
    "SnapshotWarehouse",
    "WarehouseError",
    "compact_warehouse",
]

WAREHOUSE_VERSION = 1


def _warehouse_fingerprint() -> str:
    """What the sidecar must have been built against to be trusted."""
    return "warehouse:v{}:s{}".format(WAREHOUSE_VERSION, SERIALIZATION_VERSION)


class WarehouseError(ValueError):
    """The warehouse file is unusable or from an incompatible writer."""


def _key(package: str, version_code: int) -> str:
    return "{}@{}".format(package, version_code)


def _record_key(entry: Dict[str, object]) -> Optional[Tuple[str, str]]:
    if entry.get("kind") == "snapshot" and "package" in entry and "version_code" in entry:
        return "snapshot", _key(entry["package"], entry["version_code"])
    return None


_SPEC = JournalSpec(
    noun="warehouse",
    error=WarehouseError,
    header={
        "kind": "header",
        "version": WAREHOUSE_VERSION,
        "serialization": SERIALIZATION_VERSION,
    },
    mismatch="{{}}: snapshots use another report serialization; this build "
    "reads {}".format(SERIALIZATION_VERSION),
    key=_record_key,
    sidecar=lambda header: _warehouse_fingerprint(),
    trailer="snapshot",
)


class SnapshotWarehouse:
    """Append-only store of per-version analyses keyed by (package, version)."""

    corrupt_lines = journal_counter("corrupt_lines")
    #: True when the last open used the trailing index line (or a sidecar
    #: covering the whole file) instead of a scan.
    fast_opened = journal_counter("fast_opened")
    #: True when the last open came from the sqlite sidecar (possibly plus
    #: a tail scan) instead of reading the whole file.
    sidecar_opened = journal_counter("sidecar_opened")
    #: opens that fell all the way back to scanning every line of the
    #: log; warm opens (sidecar or trailing index intact) keep this at 0.
    full_scans = journal_counter("full_scans")

    def __init__(self, path: Union[str, Path], index: bool = True) -> None:
        self.path = Path(path)
        self._journal = SharedJournal(self.path, _SPEC, index=index)
        # The raw handle and sidecar drop, for simulating a crash that
        # skips seal() and close().
        self._handle = self._journal._handle
        self._drop_sidecar = self._journal.drop_sidecar
        # A fast open already ends in a complete index: read-only opens
        # must not grow the file with another identical one on close.
        self._sealed = self._journal.fast_opened

    # -- appends -----------------------------------------------------------------

    def append(self, analysis: Union[AppAnalysis, Dict[str, object]]) -> bool:
        """Store one snapshot; returns False if its key already exists."""
        if isinstance(analysis, AppAnalysis):
            analysis = analysis.to_dict()
        entry = {
            "kind": "snapshot",
            "package": analysis["package"],
            "version_code": int(analysis.get("metadata", {}).get("version_code", 1)),
            "analysis": analysis,
        }
        if not self._journal.put(entry):
            return False
        self._sealed = False
        return True

    def seal(self) -> None:
        """Append the in-file index so the next open can skip the scan."""
        if self._sealed or self._journal.closed:
            return
        self._journal.seal()
        self._sealed = True

    # -- reads -------------------------------------------------------------------

    def get(self, package: str, version_code: int) -> Dict[str, object]:
        """The serialized analysis dict stored for one snapshot key."""
        key = _key(package, version_code)
        found, offset = self._journal.lookup(("snapshot", key))
        if not found:
            raise KeyError(key)
        entry = self._journal.read(offset)
        if not entry or entry.get("kind") != "snapshot":
            raise WarehouseError(
                "{}: offset {} for {} does not hold a snapshot".format(
                    self.path, offset, key
                )
            )
        return entry["analysis"]

    def get_analysis(self, package: str, version_code: int) -> AppAnalysis:
        return AppAnalysis.from_dict(self.get(package, version_code))

    def __contains__(self, key: Tuple[str, int]) -> bool:
        package, version_code = key
        return self._journal.lookup(("snapshot", _key(package, version_code)))[0]

    def __len__(self) -> int:
        return len(self._journal.keys("snapshot"))

    def packages(self) -> List[str]:
        return sorted({key.rsplit("@", 1)[0] for key in self._journal.keys("snapshot")})

    def versions(self, package: str) -> List[int]:
        """Stored version codes for one package, ascending."""
        prefix = package + "@"
        return sorted(
            int(key.rsplit("@", 1)[1])
            for key in self._journal.keys("snapshot")
            if key.startswith(prefix)
        )

    def counts(self) -> Dict[str, int]:
        """Stored versions per package, from the in-memory index."""
        table: Dict[str, int] = {}
        for key in self._journal.keys("snapshot"):
            package = key.rsplit("@", 1)[0]
            table[package] = table.get(package, 0) + 1
        return table

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.seal()
        self._journal.close()

    def __enter__(self) -> "SnapshotWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- compaction (``repro store compact``) ------------------------------------------


def compact_warehouse(path: Union[str, Path]) -> Dict[str, int]:
    """Garbage-collect a warehouse file in place; rebuild both indexes.

    Keeps the first line of every snapshot key byte-identically and
    appends one fresh trailing index, so ``get`` answers exactly as
    before, from a smaller file that fast-opens with or without sqlite;
    see :func:`repro.store.journal.compact` (offline only).

    Returns ``{"snapshots", "dropped_duplicates", "dropped_corrupt",
    "dropped_index_lines", "bytes_before", "bytes_after"}``.
    """
    stats = compact(path, _SPEC)
    stats["snapshots"] = stats.pop("records")
    return stats
