"""Statistical backing for the measurement claims.

Table III reports group means and the paper carefully notes "we cannot
assert there is any causal relation between usage of DCL and application
reputation".  This module quantifies the *association* properly:

- :func:`popularity_association` -- Mann-Whitney U (one-sided) on the
  download/rating distributions of DCL apps vs their complements, which is
  the right test for heavy-tailed popularity data where means mislead;
- :func:`category_concentration` -- a chi-square goodness-of-fit check that
  packed apps concentrate in the Figure 3 categories rather than spreading
  uniformly;
- :func:`rate_confidence_interval` -- Wilson intervals for the per-table
  proportions, so scaled-corpus numbers come with honest error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.report import MeasurementReport


@dataclass(frozen=True)
class AssociationResult:
    """One Mann-Whitney comparison between a DCL group and its complement."""

    metric: str
    group: str
    n_group: int
    n_complement: int
    group_mean: float
    complement_mean: float
    u_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def _mann_whitney_greater(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """U statistic and one-sided p-value for H1: a stochastically > b.

    Uses scipy when available; falls back to the normal approximation so the
    library degrades gracefully without it.
    """
    try:
        from scipy.stats import mannwhitneyu

        result = mannwhitneyu(list(a), list(b), alternative="greater")
        return float(result.statistic), float(result.pvalue)
    except ImportError:  # pragma: no cover - scipy ships in the dev env
        return _mann_whitney_normal_approx(a, b)


def _mann_whitney_normal_approx(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    pooled = sorted((value, 0) for value in a) + sorted((value, 1) for value in b)
    pooled.sort(key=lambda pair: pair[0])
    rank_sum_a = 0.0
    index = 0
    while index < len(pooled):
        tail = index
        while tail + 1 < len(pooled) and pooled[tail + 1][0] == pooled[index][0]:
            tail += 1
        average_rank = (index + tail) / 2.0 + 1.0
        for position in range(index, tail + 1):
            if pooled[position][1] == 0:
                rank_sum_a += average_rank
        index = tail + 1
    n_a, n_b = len(a), len(b)
    u = rank_sum_a - n_a * (n_a + 1) / 2.0
    mean_u = n_a * n_b / 2.0
    std_u = math.sqrt(n_a * n_b * (n_a + n_b + 1) / 12.0) or 1.0
    z = (u - mean_u) / std_u
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return u, p


def popularity_association(report: MeasurementReport) -> List[AssociationResult]:
    """Mann-Whitney tests for Table III's 'DCL apps are more popular'."""
    results: List[AssociationResult] = []
    groups = {
        "DEX": lambda a: a.has_dex_dcl_code,
        "Native": lambda a: a.has_native_dcl_code,
    }
    metrics = {
        "downloads": lambda a: float(a.metadata.downloads),
        "n_ratings": lambda a: float(a.metadata.n_ratings),
    }
    for group_name, predicate in groups.items():
        in_group = [a for a in report.apps if predicate(a)]
        complement = [a for a in report.apps if not predicate(a)]
        if not in_group or not complement:
            continue
        for metric_name, extract in metrics.items():
            sample_a = [extract(a) for a in in_group]
            sample_b = [extract(a) for a in complement]
            u, p = _mann_whitney_greater(sample_a, sample_b)
            results.append(
                AssociationResult(
                    metric=metric_name,
                    group=group_name,
                    n_group=len(sample_a),
                    n_complement=len(sample_b),
                    group_mean=sum(sample_a) / len(sample_a),
                    complement_mean=sum(sample_b) / len(sample_b),
                    u_statistic=u,
                    p_value=p,
                )
            )
    return results


def category_concentration(
    report: MeasurementReport, dominant: Sequence[str] = ("Entertainment", "Tools", "Shopping")
) -> Tuple[float, float]:
    """Chi-square: packed apps concentrate in the dominant categories.

    H0: a packed app lands in the dominant categories at the base rate
    those categories hold in the whole corpus.  Returns (chi2, p).
    """
    packed = [
        a for a in report.apps if a.obfuscation and a.obfuscation.dex_encryption
    ]
    if not packed:
        return 0.0, 1.0
    total = len(report.apps)
    base_rate = (
        sum(1 for a in report.apps if a.metadata.category in dominant) / total
        if total
        else 0.0
    )
    observed_in = sum(1 for a in packed if a.metadata.category in dominant)
    observed = [observed_in, len(packed) - observed_in]
    expected = [len(packed) * base_rate, len(packed) * (1 - base_rate)]
    chi2 = sum(
        (obs - exp) ** 2 / exp for obs, exp in zip(observed, expected) if exp > 0
    )
    # 1 degree of freedom: p = erfc(sqrt(chi2/2)).
    p = math.erfc(math.sqrt(chi2 / 2.0))
    return chi2, p


def rate_confidence_interval(
    successes: int, total: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a measured proportion."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denominator = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denominator
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
        / denominator
    )
    return max(0.0, center - margin), min(1.0, center + margin)
