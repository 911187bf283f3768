"""Process-safe, content-addressed verdict store (tier 2 behind the LRU).

The verdict-store names are imported on first use, so importing
:mod:`repro.store.journal` (as :mod:`repro.observe` and :mod:`repro.farm`
do) does not pull in the verdict store and, through :mod:`repro.core`,
the pipeline that imports those packages back.
"""

from repro.store.index import (
    INDEX_SCHEMA_VERSION,
    StoreIndex,
    index_path,
    sqlite_available,
)

_VERDICTS = ("STORE_VERSION", "StoreError", "VerdictStore", "compact_store", "verdict_fingerprint")

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "StoreIndex",
    "index_path",
    "sqlite_available",
    *_VERDICTS,
]


def __getattr__(name: str):
    if name in _VERDICTS:
        from repro.store import verdicts

        return getattr(verdicts, name)
    raise AttributeError("module 'repro.store' has no attribute {!r}".format(name))
