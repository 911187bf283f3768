"""Ground-truth scoring of analyses against the generator's blueprints.

The predicates are the ones ``tests/test_detector_accuracy.py`` holds to
zero false positives and negatives.  The reference is always the
:class:`~repro.corpus.generator.AppBlueprint` the generator planted, never
another run of the analyzer under test.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.report import AppAnalysis
from repro.corpus.generator import AppBlueprint

Predicate = Tuple[str, Callable[[AppBlueprint], bool], Callable[[AppAnalysis], bool]]

#: predicates decided by the APK bytes alone (no companions, no network).
STATIC: List[Predicate] = [
    (
        "dex_prefilter",
        lambda b: (b.has_dex_dcl_code or b.is_packed) and not b.anti_decompilation,
        lambda a: a.has_dex_dcl_code,
    ),
    (
        "native_prefilter",
        lambda b: (b.has_native_code or b.is_packed) and not b.anti_decompilation,
        lambda a: a.has_native_dcl_code,
    ),
    (
        "packing",
        lambda b: b.is_packed,
        lambda a: bool(a.obfuscation and a.obfuscation.dex_encryption),
    ),
    (
        "anti_decompilation",
        lambda b: b.anti_decompilation,
        lambda a: bool(a.obfuscation and a.obfuscation.anti_decompilation),
    ),
    (
        "reflection",
        lambda b: b.reflection and not b.anti_decompilation and not b.is_packed,
        lambda a: bool(a.obfuscation and a.obfuscation.reflection),
    ),
]

#: predicates that also need the app's companions and remote resources.
DYNAMIC: List[Predicate] = [
    (
        "vulnerability",
        lambda b: b.vuln_kind is not None,
        lambda a: bool(a.vulnerabilities),
    ),
    (
        "remote_fetch",
        lambda b: b.is_baidu_remote,
        lambda a: bool(a.remote_payloads()),
    ),
    (
        "malware",
        lambda b: b.malware_family is not None,
        lambda a: bool(a.malicious_payloads()),
    ),
]


def mismatches(
    blueprint: AppBlueprint, analysis: AppAnalysis, static_only: bool = False
) -> List[str]:
    """Names of the predicates on which ``analysis`` contradicts ``blueprint``."""
    failed = [
        name
        for name, truth, verdict in STATIC + ([] if static_only else DYNAMIC)
        if truth(blueprint) != verdict(analysis)
    ]
    if not static_only and not blueprint.anti_decompilation:
        expected = blueprint.dex_dcl_reachable or blueprint.is_packed
        if analysis.dex_intercepted != expected:
            failed.append("interception")
    return failed
