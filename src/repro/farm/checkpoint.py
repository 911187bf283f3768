"""The checkpoint journal: append-only JSONL making farm runs resumable.

Line 1 is a header binding the journal to its run inputs::

    {"kind": "header", "version": 1, "corpus_seed": 7, "n_apps": 600,
     "fingerprint": "<sha256[:16] of (seed, n_apps, config)>"}

then one line per settled app, in completion order::

    {"kind": "result", "index": 17, "package": "com.a.b", "retries": 0,
     "build_s": 0.01, "analyze_s": 0.12, "analysis": {...AppAnalysis...}}
    {"kind": "quarantine", "index": 23, "package": "com.c.d",
     "error": "...", "attempts": 3}

An owned journal (:class:`repro.store.journal.OwnedJournal`): the
coordinator owns the file, worker processes ship results back instead of
writing here, and a killed run loses at most the app in flight.
Quarantined apps are remembered too -- resuming does not re-run an app
that already proved poisonous.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Set, Union

from repro.core.config import DyDroidConfig
from repro.farm.jobs import AppResult, QuarantineRecord, run_fingerprint
from repro.store.journal import OwnedJournal

JOURNAL_VERSION = 1


class CheckpointError(ValueError):
    """The journal is unreadable or belongs to a different run."""


class CheckpointJournal:
    """Single-writer journal owned by the coordinator process."""

    def __init__(
        self,
        path: Union[str, Path],
        corpus_seed: int,
        n_apps: int,
        config: DyDroidConfig,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = run_fingerprint(corpus_seed, n_apps, config)
        self.corpus_seed = corpus_seed
        self.n_apps = n_apps
        if resume and not self.path.exists():
            raise CheckpointError("no checkpoint to resume at {}".format(self.path))
        self._journal = OwnedJournal(
            self.path,
            header={
                "kind": "header",
                "version": JOURNAL_VERSION,
                "corpus_seed": corpus_seed,
                "n_apps": n_apps,
                "fingerprint": self.fingerprint,
            },
            fields={"result": ("index", "analysis"), "quarantine": ("index",)},
            error=CheckpointError,
            owned="checkpoint {} is already owned by a live coordinator",
            mismatch="checkpoint {} was written for a different run "
            "(seed/corpus size/pipeline config changed)",
            resume=resume,
        )
        #: index -> serialized AppAnalysis restored from a previous run.
        self.completed: Dict[int, Dict[str, object]] = {}
        #: index -> quarantine line restored from a previous run.
        self.quarantined: Dict[int, Dict[str, object]] = {}
        for entry in self._journal.entries:
            if entry["kind"] == "result":
                self.completed[entry["index"]] = entry["analysis"]
            else:
                self.quarantined[entry["index"]] = entry

    # -- append ---------------------------------------------------------------

    def append_result(self, result: AppResult) -> None:
        self._journal.append(
            {
                "kind": "result",
                "index": result.index,
                "package": result.package,
                "retries": result.retries,
                "build_s": result.build_s,
                "analyze_s": result.analyze_s,
                "analysis": result.analysis,
            }
        )

    def append_quarantine(self, record: QuarantineRecord) -> None:
        self._journal.append(
            {
                "kind": "quarantine",
                "index": record.index,
                "package": record.package,
                "error": record.error,
                "attempts": record.attempts,
            }
        )

    # -- queries ---------------------------------------------------------------

    def settled_indices(self) -> Set[int]:
        """Indices a resumed run must not re-analyze."""
        return set(self.completed) | set(self.quarantined)

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
