"""Core value types and sufficient statistics.

Every quantity the estimators consume is reduced to per-population
sufficient statistics ``(n, mean, var_unbiased)``; raw samples are only
needed once, at ingestion time.  All value types are immutable and
validate their invariants on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class MpmeError(Exception):
    """Base class for all errors raised by this package."""


class DataError(MpmeError, ValueError):
    """Invalid input data or parameters."""


class NumericalError(MpmeError):
    """A numerical routine failed to produce a trustworthy result."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget.

    Carries the best estimate and its error bound so callers can decide
    whether the partial result is still useful.
    """

    def __init__(self, message: str, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class OptimizationError(NumericalError):
    """The optimizer failed; carries the best point found and its objective."""

    def __init__(self, message: str, best_point=None, best_objective=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_objective = best_objective


class DegeneratePriorError(OptimizationError):
    """The data admit no proper prior: ``learn_uni`` raises it before any
    search when every population has zero scatter, as the likelihood then
    grows without bound while the variance prior collapses onto zero."""


class Method(Enum):
    """Names an estimator: the keys of ``experiments.ESTIMATORS``, and the
    method names that reports record."""

    SAMPLE_EST = "sample"
    MPME_NIX = "mpme-nix"
    MPME_NIX_UNBIASED = "mpme-nix-unbiased"
    MPME_UNI = "mpme-uni"


def _check_finite(values: Iterable[float], what: str) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise DataError(f"invalid datum: {what}[{i}] = {v!r} is not finite")


@dataclass(frozen=True)
class PopulationSample:
    """Raw measurements from one population.

    Parameters
    ----------
    id : str
        Caller-chosen identifier, unique within a dataset.  It may not
        hold U+0000, which no report can carry.
    values : tuple of float
        At least one finite measurement.
    """

    id: str
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if not self.id:
            raise DataError("population id must be non-empty")
        if "\x00" in self.id:
            raise DataError(f"population id {self.id!r} holds U+0000, which no report can carry")
        if len(values) == 0:
            raise DataError(f"population {self.id!r} has no values")
        if not all(map(math.isfinite, values)):
            _check_finite(values, f"population {self.id!r}")  # names the bad index


@dataclass(frozen=True)
class SufficientStats:
    """Sufficient statistics of one population: size, mean, unbiased variance."""

    n: int
    mean: float
    var_unbiased: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DataError(f"insufficient sample: n = {self.n!r}, need n >= 2")
        if not math.isfinite(self.mean):
            raise DataError(f"invalid datum: mean = {self.mean!r}")
        if not (math.isfinite(self.var_unbiased) and self.var_unbiased >= 0.0):
            raise DataError(
                f"invalid datum: var_unbiased = {self.var_unbiased!r}, need >= 0"
            )


def sufficient_stats(sample: PopulationSample) -> SufficientStats:
    """Reduce a sample to its sufficient statistics.

    Uses two passes with exact (compensated) summation: the mean first,
    then squared deviations from it.  This keeps the variance accurate
    even when the spread is many orders of magnitude below the mean.

    Raises
    ------
    DataError
        If the sample has fewer than two values, or values so large that
        their sum or squared deviations overflow a float.
    """
    n = len(sample.values)
    if n < 2:
        raise DataError(
            f"insufficient sample: population {sample.id!r} has n = {n}, need n >= 2"
        )
    try:
        mean = math.fsum(sample.values) / n
        ss = math.fsum([(v - mean) ** 2 for v in sample.values])
    except OverflowError:
        raise DataError(
            f"invalid datum: population {sample.id!r} has values whose sum or "
            "squared deviations overflow a float"
        ) from None
    return SufficientStats(n=n, mean=mean, var_unbiased=ss / (n - 1))


@dataclass(frozen=True)
class MomentEstimate:
    """An estimate of one population's mean and variance."""

    mu: float
    sigma_sq: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DataError(f"invalid estimate: mu = {self.mu!r}")
        if not (math.isfinite(self.sigma_sq) and self.sigma_sq >= 0.0):
            raise DataError(f"invalid estimate: sigma_sq = {self.sigma_sq!r}, need >= 0")


@dataclass(frozen=True)
class ErrorReport:
    """Benchmark errors: per-population RMSEs for mu and sigma^2.

    ``eps_mu`` and ``eps_sigma_sq`` are the means of the corresponding
    per-population RMSE lists.
    """

    per_population_mu_rmse: tuple[float, ...]
    per_population_var_rmse: tuple[float, ...]
    trials: int

    def __post_init__(self):
        object.__setattr__(
            self, "per_population_mu_rmse", tuple(self.per_population_mu_rmse)
        )
        object.__setattr__(
            self, "per_population_var_rmse", tuple(self.per_population_var_rmse)
        )
        if self.trials < 1:
            raise DataError(f"trials = {self.trials}, need >= 1")
        if len(self.per_population_mu_rmse) == 0 or len(
            self.per_population_mu_rmse
        ) != len(self.per_population_var_rmse):
            raise DataError("per-population RMSE lists must be non-empty, equal length")
        for name, pp in (
            ("eps_mu", self.per_population_mu_rmse),
            ("eps_sigma_sq", self.per_population_var_rmse),
        ):
            _check_finite(pp, name)
            if any(v < 0 for v in pp):
                raise DataError(f"{name} per-population RMSE must be >= 0")

    @property
    def eps_mu(self) -> float:
        return math.fsum(self.per_population_mu_rmse) / len(self.per_population_mu_rmse)

    @property
    def eps_sigma_sq(self) -> float:
        return math.fsum(self.per_population_var_rmse) / len(self.per_population_var_rmse)
