"""z-scores and empirical p-values for motif counts (Section 6.3)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def z_score(real_value: float, random_values: Sequence[float]) -> float:
    """The paper's ``z_M = (r_M - µ_M) / σ_M``.

    ``σ`` is the population standard deviation of the randomized counts.
    Returns ``inf`` (signed) when σ is zero but the real value differs from
    the mean, and ``0.0`` when all values coincide.
    """
    if not random_values:
        raise ValueError("need at least one randomized count")
    n = len(random_values)
    mean = sum(random_values) / n
    variance = sum((v - mean) ** 2 for v in random_values) / n
    sigma = math.sqrt(variance)
    if sigma == 0.0:
        if real_value == mean:
            return 0.0
        return math.inf if real_value > mean else -math.inf
    return (real_value - mean) / sigma


def exceeding_count(real_value: float, random_values: Sequence[float]) -> int:
    """How many randomized counts reach the real count: the paper's raw
    "k of n", which it reports as 0 for every tested motif."""
    return sum(1 for v in random_values if v >= real_value)


def empirical_p_value(real_value: float, random_values: Sequence[float]) -> float:
    """Permutation p-value ``(k + 1) / (n + 1)`` of the real count.

    ``k`` of the ``n`` randomized counts reach the real one. Counting the
    real network as one of the permutations (Phipson & Smyth 2010) keeps
    the test valid: the p-value is never 0, and with ``n`` permutations
    it cannot go below ``1 / (n + 1)``.
    """
    if not random_values:
        raise ValueError("need at least one randomized count")
    k = exceeding_count(real_value, random_values)
    return (k + 1) / (len(random_values) + 1)


@dataclass(frozen=True)
class SignificanceSummary:
    """Distribution summary of randomized counts plus significance scores."""

    real: float
    mean: float
    std: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    z: float
    p_value: float
    #: The paper's raw "k of n": randomized counts reaching the real one.
    exceeding: int
    num_random: int


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("empty sequence")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


def summarize_significance(
    real_value: float, random_values: Sequence[float]
) -> SignificanceSummary:
    """Box-plot statistics (Figure 14) plus z-score and p-value."""
    if not random_values:
        raise ValueError("need at least one randomized count")
    ordered = sorted(random_values)
    n = len(ordered)
    mean = sum(ordered) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in ordered) / n)
    return SignificanceSummary(
        real=real_value,
        mean=mean,
        std=std,
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
        z=z_score(real_value, ordered),
        p_value=empirical_p_value(real_value, ordered),
        exceeding=exceeding_count(real_value, ordered),
        num_random=n,
    )
