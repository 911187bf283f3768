"""Crowdroid-style low-level behavioural monitoring (baseline).

Crowdroid (Burguera et al., SPSM 2011) crowd-sources per-app syscall-count
vectors and clusters them to separate benign from malicious behaviour.  Its
structural limits, which the paper calls out: syscall interposition loses
Android-middleware context, so it "cannot differentiate the bytecode in the
original application with that additionally loaded", and it never yields
the loaded binary itself.

Reproduced contract: consume only the coarse observables a syscall tracer
would see (file IO counts, network fetches, SMS, uploads), build per-app
vectors, and classify by distance to the centroid of known-benign runs --
a 2-means-style split in plain stdlib arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import List, Optional, Sequence, Tuple

from repro.dynamic.engine import DynamicReport
from repro.runtime.device import Device

VECTOR_FIELDS = ("reads", "writes", "deletes", "renames", "fetches", "sms", "uploads")


@dataclass(frozen=True)
class SyscallVector:
    """One monitored run reduced to syscall-ish counters."""

    package: str
    reads: int
    writes: int
    deletes: int
    renames: int
    fetches: int
    sms: int
    uploads: int

    def as_array(self) -> Tuple[float, ...]:
        return tuple(float(getattr(self, f)) for f in VECTOR_FIELDS)

    @classmethod
    def from_run(cls, package: str, device: Device) -> "SyscallVector":
        """Capture the counters a tracer would have recorded on ``device``."""
        ops = device.vfs.op_counts
        return cls(
            package=package,
            reads=ops["read"],
            writes=ops["write"],
            deletes=ops["delete"],
            renames=ops["rename"],
            fetches=len(device.network.fetch_log),
            sms=len(device.sms_sent),
            uploads=len(device.network.exfil_log),
        )

    @classmethod
    def from_report(cls, report: DynamicReport) -> "SyscallVector":
        """Approximate capture from a finished DynamicReport (device gone)."""
        return cls(
            package=report.package,
            reads=len(report.intercepted) * 2,
            writes=len(report.intercepted),
            deletes=0,
            renames=0,
            fetches=sum(1 for _ in report.tracker.url_nodes()),
            sms=0,
            uploads=len(report.exfiltrated),
        )


class CrowdroidMonitor:
    """Distance-to-benign-centroid anomaly detection over syscall vectors."""

    def __init__(self, threshold_sigmas: float = 3.0) -> None:
        self.threshold_sigmas = threshold_sigmas
        self._centroid: Optional[List[float]] = None
        self._scale: Optional[List[float]] = None
        self._cutoff: Optional[float] = None

    def fit(self, benign_vectors: Sequence[SyscallVector]) -> None:
        if not benign_vectors:
            raise ValueError("need at least one benign vector")
        matrix = [v.as_array() for v in benign_vectors]
        columns = list(zip(*matrix))
        self._centroid = [fmean(column) for column in columns]
        self._scale = [pstdev(column) or 1.0 for column in columns]
        distances = [self._scaled_norm(row) for row in matrix]
        self._cutoff = fmean(distances) + self.threshold_sigmas * max(
            pstdev(distances), 1e-9
        )

    def _scaled_norm(self, row: Sequence[float]) -> float:
        return math.hypot(*(
            (x - c) / s for x, c, s in zip(row, self._centroid, self._scale)
        ))

    def distance(self, vector: SyscallVector) -> float:
        if self._centroid is None:
            raise RuntimeError("monitor not fitted")
        return self._scaled_norm(vector.as_array())

    def is_anomalous(self, vector: SyscallVector) -> bool:
        return self.distance(vector) > (self._cutoff or 0.0)

    def classify(self, vectors: Sequence[SyscallVector]) -> List[bool]:
        return [self.is_anomalous(v) for v in vectors]

    # -- the structural limitation, stated as API ------------------------------

    @staticmethod
    def attributes_to_loaded_code() -> bool:
        """Syscall-level monitoring cannot say *which code* misbehaved."""
        return False

    @staticmethod
    def produces_payload_sample() -> bool:
        """No binary is ever captured for offline analysis."""
        return False
