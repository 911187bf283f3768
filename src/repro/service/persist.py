"""Result persistence: append-only JSONL surviving daemon restarts.

Modeled on :mod:`repro.farm.checkpoint`: line 1 is a header binding the
journal to the daemon's pipeline configuration::

    {"kind": "header", "version": 1, "fingerprint": "<sha256[:16] of config>"}

then one line per *distinct* analyzed APK, in completion order::

    {"kind": "result", "digest": "...", "spec_key": "...",
     "package": "com.a.b", "analyze_s": 0.12, "analysis": {...}}

An owned journal (:class:`repro.store.journal.OwnedJournal`): a killed
daemon loses at most the job in flight, and a second daemon started on
the same file fails fast.  The fingerprint check refuses to serve results
computed under a different pipeline configuration -- the same contract
the farm checkpoint enforces for ``--resume``.

Unlike the farm journal, opening an existing file *resumes by default*:
a restarted daemon should serve what it already computed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Union

from repro.core.config import DyDroidConfig
from repro.store.journal import OwnedJournal

__all__ = ["JOURNAL_VERSION", "ResultJournal", "ServicePersistError", "pipeline_fingerprint"]

JOURNAL_VERSION = 1


class ServicePersistError(ValueError):
    """The journal is unreadable or was written under another pipeline config."""


def pipeline_fingerprint(config: DyDroidConfig) -> str:
    """Stable identity of the pipeline configuration alone.

    The cache is content-addressed, so unlike the farm's
    :func:`~repro.farm.jobs.run_fingerprint` no corpus identity is mixed
    in -- results are reusable across seeds as long as the *analysis*
    behaves identically.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


class ResultJournal:
    """Single-file journal shared by all scheduler threads (lock-serialized)."""

    def __init__(self, path: Union[str, Path], config: DyDroidConfig) -> None:
        self.path = Path(path)
        self.fingerprint = pipeline_fingerprint(config)
        self._journal = OwnedJournal(
            self.path,
            header={
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
            },
            fields={"result": ("spec_key", "digest", "package", "analysis")},
            error=ServicePersistError,
            owned="result journal {} is already owned by a live daemon",
            mismatch="journal {} was written under a different pipeline "
            "configuration; refusing to serve its results",
            resume=self.path.exists() and self.path.stat().st_size > 0,
        )
        #: entries restored from a previous daemon's lifetime.
        self.restored: List[Dict[str, object]] = self._journal.entries

    def append_result(
        self,
        spec_key: str,
        digest: str,
        package: str,
        analyze_s: float,
        analysis: Dict[str, object],
    ) -> None:
        self._journal.append(
            {
                "kind": "result",
                "spec_key": spec_key,
                "digest": digest,
                "package": package,
                "analyze_s": round(analyze_s, 6),
                "analysis": analysis,
            }
        )

    def close(self) -> None:
        self._journal.close()
