"""The sample estimator, the baseline the learned-prior methods are
scored against."""

from __future__ import annotations

from .core import MomentEstimate, SufficientStats

__all__ = ["sample_estimate"]


def sample_estimate(stats: SufficientStats) -> MomentEstimate:
    """Per-population sample mean and unbiased sample variance."""
    return MomentEstimate(mu=stats.mean, sigma_sq=stats.var_unbiased)
