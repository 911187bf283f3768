"""The cross-shard verdict store: expensive verdicts computed once, fleet-wide.

DyDroid's scale claim rests on never re-analyzing the SDK payloads that
dominate a market: a handful of third-party SDKs account for most
intercepted DEX files, so DroidNative/FlowDroid work is naturally keyed by
payload digest, not by app.  The per-process
:class:`~repro.core.pipeline.LruCache` already deduplicates *within* one
pipeline instance; this module extends that to *every* pipeline instance
sharing a store path -- serial runs, farm shards (separate processes),
network farm nodes (separate hosts sharing a filesystem), and service
workers (separate threads):

- **tier 1** stays the in-process LRU in front (zero-cost hits);
- **tier 2** is this store: an append-only JSONL file, advisory-locked
  with ``fcntl.flock`` so concurrent writers (farm worker processes)
  never interleave partial lines, and re-scanned incrementally on miss so
  readers see verdicts other processes published mid-run.

File layout (one file, line-oriented)::

    {"kind": "header", "version": 1, "fingerprint": "<sha256[:16]>"}
    {"kind": "detection", "digest": "<payload sha256>", "verdict": {...} | null}
    {"kind": "privacy",   "digest": "<payload sha256>", "leaks": [{...}, ...]}

``verdict: null`` records a *computed* benign outcome -- distinct from
absence, which means "never analyzed".  The header fingerprint covers only
the configuration fields verdicts depend on (detector threshold, training
corpus identity, which analyses run), so Monkey seeds, replay settings and
other app-level knobs never invalidate a warm store.  A store written
under a different verdict configuration is refused with
:class:`StoreError`, mirroring the journal fingerprint contracts in
:mod:`repro.farm.checkpoint` and :mod:`repro.service.persist`.

The file is a shared journal (:class:`repro.store.journal.SharedJournal`):
flock-serialized ``O_APPEND`` appends, tail-following reads, torn tails
sealed under the exclusive lock, first-write-wins folds everywhere, and
a sqlite sidecar index (``<store>.idx``, :mod:`repro.store.index`) that
serves warm opens and point lookups with one line read instead of a
scan.  Within one process the journal's mutex makes one store instance
safely shareable across service worker threads.  ``repro store compact``
garbage-collects duplicate and corrupt lines and rebuilds the sidecar.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import DyDroidConfig
from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.privacy.flowdroid import PrivacyLeak
from repro.store.index import sqlite_available  # noqa: F401 - re-exported, callers import it from here
from repro.store.journal import JournalSpec, SharedJournal, compact, journal_counter

__all__ = [
    "STORE_VERSION",
    "StoreError",
    "VerdictStore",
    "compact_store",
    "verdict_fingerprint",
]

STORE_VERSION = 1


class StoreError(ValueError):
    """The store file is unusable or was written for another configuration."""


def verdict_fingerprint(config: DyDroidConfig) -> str:
    """Identity of the configuration fields a payload verdict depends on.

    Deliberately narrower than the farm's run fingerprint or the service
    journal's whole-config fingerprint: detection and privacy verdicts are
    pure functions of the payload bytes and the analyzer setup, so only
    the analyzer knobs participate.  Changing the Monkey budget must not
    throw away a week of DroidNative work.
    """
    raw = repr(
        (
            "verdict-store",
            config.droidnative_threshold,
            config.train_samples_per_family,
            config.training_seed,
            config.run_malware,
            config.run_privacy,
        )
    ).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


def _detection_to_plain(detection: Optional[Detection]) -> Optional[Dict[str, object]]:
    if detection is None:
        return None
    return {f.name: getattr(detection, f.name) for f in fields(detection)}


def _detection_from_plain(data: Optional[Dict[str, object]]) -> Optional[Detection]:
    return None if data is None else Detection(**data)


def _leaks_to_plain(leaks: Tuple[PrivacyLeak, ...]) -> List[Dict[str, object]]:
    return [{f.name: getattr(leak, f.name) for f in fields(leak)} for leak in leaks]


def _leaks_from_plain(data: List[Dict[str, object]]) -> Tuple[PrivacyLeak, ...]:
    return tuple(PrivacyLeak(**leak) for leak in data)


_KINDS = ("detection", "privacy")


def _record_key(entry: Dict[str, object]) -> Optional[Tuple[str, str]]:
    if entry.get("kind") in _KINDS and "digest" in entry:
        return entry["kind"], entry["digest"]
    return None


def _payload(entry: Dict[str, object]) -> object:
    if entry["kind"] == "detection":
        return entry.get("verdict")
    return entry.get("leaks") or []


def _spec(fingerprint: Optional[str]) -> JournalSpec:
    """The store's journal format; ``fingerprint=None`` accepts any."""
    return JournalSpec(
        noun="store",
        error=StoreError,
        header={"kind": "header", "version": STORE_VERSION, "fingerprint": fingerprint},
        mismatch="verdict store {} was written under a different analyzer "
        "configuration; refusing to serve its verdicts",
        key=_record_key,
        sidecar=lambda header: str(header.get("fingerprint")),
        value=_payload,
    )


class VerdictStore:
    """Content-addressed detection/privacy verdicts shared across processes.

    One instance per process (or per daemon, shared across its worker
    threads); any number of instances may point at the same path.  Lookups
    miss through three layers: the in-memory fold, the sqlite sidecar
    index (one ``pread`` of the recorded line), and finally an incremental
    scan of the file tail, so a verdict published by a sibling shard is
    visible before this process recomputes it.
    """

    #: unparseable lines skipped during scans (a sealed torn tail or
    #: external tampering; the records are a cache, so skipping only costs
    #: a recomputation).
    corrupt_lines = journal_counter("corrupt_lines")
    #: scans that started at byte 0 -- a warm open with a healthy sidecar
    #: never performs one.
    full_scans = journal_counter("full_scans")
    #: point lookups served by the sidecar index (one line read).
    index_hits = journal_counter("index_hits")
    #: sidecar probes that found nothing and fell through to a scan.
    index_misses = journal_counter("index_misses")

    def __init__(
        self,
        path: Union[str, Path],
        config: DyDroidConfig,
        index: bool = True,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = verdict_fingerprint(config)
        self._journal = SharedJournal(self.path, _spec(self.fingerprint), index=index)

    # -- detection tier ----------------------------------------------------------

    def get_detection(self, digest: str) -> Tuple[bool, Optional[Detection]]:
        """``(found, verdict)``; ``(True, None)`` means computed-benign."""
        found, payload = self._journal.lookup(("detection", digest))
        if not found:
            return False, None
        return True, _detection_from_plain(payload)

    def put_detection(self, digest: str, detection: Optional[Detection]) -> None:
        payload = _detection_to_plain(detection)
        self._journal.put({"kind": "detection", "digest": digest, "verdict": payload})

    # -- privacy tier ------------------------------------------------------------

    def get_privacy(self, digest: str) -> Tuple[bool, Tuple[PrivacyLeak, ...]]:
        found, payload = self._journal.lookup(("privacy", digest))
        if not found:
            return False, ()
        return True, _leaks_from_plain(payload)

    def put_privacy(self, digest: str, leaks: Tuple[PrivacyLeak, ...]) -> None:
        payload = _leaks_to_plain(leaks)
        self._journal.put({"kind": "privacy", "digest": digest, "leaks": payload})

    # -- introspection / lifecycle -----------------------------------------------

    def counts(self) -> Dict[str, int]:
        return self._journal.counts(_KINDS)

    def index_stats(self) -> Dict[str, object]:
        """Sidecar health counters (for stats endpoints and benchmarks)."""
        return {
            "enabled": self._journal.sidecar is not None,
            "full_scans": self.full_scans,
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
        }

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- compaction (``repro store compact``) ------------------------------------------


def compact_store(path: Union[str, Path]) -> Dict[str, int]:
    """Garbage-collect a store file in place and rebuild its sidecar index.

    Keeps the first publish of every ``(kind, digest)`` byte-identically,
    so every lookup answers exactly as before, from a smaller file; see
    :func:`repro.store.journal.compact` (offline only).

    Returns ``{"entries", "dropped_duplicates", "dropped_corrupt",
    "bytes_before", "bytes_after"}``.
    """
    stats = compact(path, _spec(None))
    del stats["dropped_index_lines"]
    stats["entries"] = stats.pop("records")
    return stats
