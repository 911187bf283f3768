"""RiskRanker-style purely static DCL analysis (baseline).

RiskRanker (Grace et al., MobiSys 2012) detects DCL statically and runs a
Dalvik code execution scheme over payloads it can find *inside the
package*.  Reproduced contract:

- flags apps whose IR references DCL APIs (same signal as our prefilter);
- scans every locally packaged payload that parses as DEX with the trained
  malware matcher;
- is structurally blind to (a) code fetched remotely at runtime, (b)
  encrypted payloads, and (c) anything only materialized on-device -- the
  gap DyDroid's dynamic interception closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.android.apk import Apk, ApkFormatError
from repro.android.dex import DexFile, DexFormatError, is_dex_bytes
from repro.android.manifest import ManifestError
from repro.static_analysis.decompiler import DecompilationError, Decompiler
from repro.static_analysis.malware.droidnative import Detection, DroidNative
from repro.static_analysis.prefilter import prefilter


@dataclass
class StaticRiskReport:
    """What a static-only analysis concludes about one app."""

    package: str
    decompile_failed: bool = False
    flags_dcl: bool = False
    #: (entry path, detection) for packaged payloads the scanner could parse.
    payload_verdicts: List[Tuple[str, Optional[Detection]]] = field(default_factory=list)
    #: packaged entries that look like payload containers but cannot be
    #: analyzed (encrypted blobs, unknown formats).
    opaque_payloads: List[str] = field(default_factory=list)

    @property
    def detected_malware(self) -> List[Tuple[str, Detection]]:
        return [(p, d) for p, d in self.payload_verdicts if d is not None]


class RiskRankerStatic:
    """The static baseline: decompile, flag, scan local payloads."""

    def __init__(self, detector: DroidNative) -> None:
        self.detector = detector
        self.decompiler = Decompiler(strict=True)

    def analyze(self, apk: Apk) -> StaticRiskReport:
        report = StaticRiskReport(package=_safe_package(apk))
        try:
            program = self.decompiler.decompile(apk)
        except DecompilationError:
            report.decompile_failed = True
            return report

        report.flags_dcl = prefilter(program).has_any_dcl
        if not report.flags_dcl:
            return report

        # "Dalvik code execution scheme" over locally packaged payloads.
        for path, data in apk.asset_entries():
            if is_dex_bytes(data):
                try:
                    dex = DexFile.from_bytes(data)
                except DexFormatError:
                    report.opaque_payloads.append(path)
                    continue
                report.payload_verdicts.append((path, self.detector.detect(dex)))
            elif path.endswith((".jar", ".zip", ".dex", ".apk", ".bin", ".dat")):
                report.opaque_payloads.append(path)
        return report


def _safe_package(apk: Apk) -> str:
    try:
        return apk.package
    except (ApkFormatError, ManifestError):
        return "<unparseable>"
