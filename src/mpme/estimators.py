"""Classical baseline estimators.

The pooled estimators are named baselines only; the default benchmark
comparison is sample estimation against the two learned-prior methods.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import DataError, Method, MomentEstimate, SufficientStats

__all__ = [
    "sample_estimate",
    "pooled_variance",
    "pooled_mean",
]


def sample_estimate(stats: SufficientStats) -> MomentEstimate:
    """Per-population sample mean and unbiased sample variance."""
    return MomentEstimate(
        mu=stats.mean, sigma_sq=stats.var_unbiased, method=Method.SAMPLE_EST
    )


def pooled_variance(stats_list: Sequence[SufficientStats]) -> float:
    """Average of the per-population sample variances.

    Appropriate when all populations share one variance; its RMSE then
    shrinks like sigma^2 * sqrt(2 / (P (n - 1))).
    """
    if len(stats_list) == 0:
        raise DataError("pooled_variance needs at least one population")
    return math.fsum(s.var_unbiased for s in stats_list) / len(stats_list)


def pooled_mean(stats_list: Sequence[SufficientStats]) -> float:
    """Average of the per-population sample means."""
    if len(stats_list) == 0:
        raise DataError("pooled_mean needs at least one population")
    return math.fsum(s.mean for s in stats_list) / len(stats_list)
