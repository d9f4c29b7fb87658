"""Normal-inverse-chi-squared (NIX) prior: update, marginal likelihood,
learning, and MAP estimation.

The NIX prior on one population,

.. math::

    \\mu \\mid \\sigma^2 \\sim \\mathcal{N}(\\mu_0, \\sigma^2/\\kappa_0),
    \\qquad
    \\sigma^2 \\sim \\chi^{-2}(\\nu_0, \\sigma_0^2),

is conjugate to Gaussian sampling, so both the posterior and the marginal
likelihood of the sufficient statistics are available in closed form.
``kappa0`` and ``nu0`` act as effective pseudo-sample counts added to each
population's mean and variance information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy import special as _sp

from .core import DataError, MomentEstimate, NumericalError, OptimizationError, SufficientStats
from .optim import _LOG_CLIP, maximize

__all__ = [
    "NixHyperparams",
    "VarianceMode",
    "nix_posterior_update",
    "nix_log_marginal_likelihood",
    "learn_nix",
    "nix_map",
]

_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class NixHyperparams:
    """Prior hyperparameters (mu0, kappa0, nu0, sigma0_sq)."""

    mu0: float
    kappa0: float
    nu0: float
    sigma0_sq: float

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise DataError(f"mu0 = {self.mu0!r}, need finite")
        for name in ("kappa0", "nu0", "sigma0_sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DataError(f"{name} = {v!r}, need finite > 0")


class VarianceMode(Enum):
    """Which divisor :func:`nix_map` applies to the posterior scatter."""

    BIASED = "biased"
    UNBIASED = "unbiased"


def nix_posterior_update(stats: SufficientStats, hyper: NixHyperparams):
    """Conjugate update of the NIX prior with one population's statistics.

    Returns the posterior parameters as the tuple ``(kappa_n, mu_n, nu_n,
    sigma_n_sq)``.  The posterior mean interpolates the prior mean and the
    sample mean with weights kappa0 and n; the posterior sum of squares
    collects the prior pseudo-scatter, the within-sample scatter, and a
    between term from the prior-mean/sample-mean discrepancy.
    """
    n, xbar = stats.n, stats.mean
    mu0, kappa0, nu0 = hyper.mu0, hyper.kappa0, hyper.nu0
    kappa_n = kappa0 + n
    mu_n = (kappa0 * mu0 + n * xbar) / kappa_n
    nu_n = nu0 + n
    scatter = (
        nu0 * hyper.sigma0_sq
        + (n - 1) * stats.var_unbiased
        + kappa0 * n * (mu0 - xbar) ** 2 / kappa_n
    )
    return kappa_n, mu_n, nu_n, scatter / nu_n


def _stats_arrays(stats_list: Sequence[SufficientStats]):
    if len(stats_list) == 0:
        raise DataError("need at least one population")
    n = np.array([s.n for s in stats_list], dtype=float)
    xbar = np.array([s.mean for s in stats_list])
    var = np.array([s.var_unbiased for s in stats_list])
    return n, xbar, var


class _NixData:
    """The hyperparameter-free parts of the NIX marginal for one dataset.

    Every term that depends on a population only through ``n`` is
    evaluated once per distinct size and gathered back through
    ``size_index``.  The data takes one of two forms.  When every
    population has the same size, as in every synthetic and bootstrap
    trial, ``n``, ``half_n``, ``half_n_log_pi``, ``sizes``, ``half_sizes``
    and ``lgamma_half_sizes`` are Python floats, with the bits of the numpy
    values they were converted from, and ``size_index`` is ``()``; so the
    size terms are float arithmetic whose results broadcast.  Otherwise
    ``sizes`` holds the distinct sizes and ``size_index`` gathers each
    population's terms from them.  ``xbar``, ``var`` and ``scatter`` are
    arrays in both forms.

    The kernel hands numpy arrays only.  ``n_``, ``half_n_``,
    ``half_n_log_pi_`` and ``half_sizes_`` are those values as arrays,
    0-d in the equal-size form and the arrays themselves otherwise; they
    are built here and never written.  ``scratch`` holds six 0-d arrays,
    ``(mu0, prior_ss, nu0 / 2, betaln, shrink, size_terms)``, and
    ``buffers`` two arrays of the populations' shape.  The kernel writes
    the scratch scalars at the start of every evaluation (the last three
    in the equal-size form only) and the buffers during it, so one
    instance serves one evaluation at a time.
    """

    __slots__ = ("n", "xbar", "var", "scatter", "half_n", "half_n_log_pi",
                 "sizes", "half_sizes", "lgamma_half_sizes", "size_index",
                 "n_", "half_n_", "half_n_log_pi_", "half_sizes_", "scratch", "buffers")

    def __init__(self, stats_list: Sequence[SufficientStats]):
        n, xbar, var = _stats_arrays(stats_list)
        self.xbar, self.var = xbar, var
        self.scatter = (n - 1.0) * var
        self.buffers = (np.empty_like(xbar), np.empty_like(xbar))
        self.scratch = tuple(np.zeros(()) for _ in range(6))
        equal = (n == n[0]).all()
        if equal:
            n = float(n[0])
            self.sizes, self.size_index = n, ()
        else:
            self.sizes, self.size_index = np.unique(n, return_inverse=True)
        self.n = n
        self.half_n = 0.5 * n
        self.half_n_log_pi = self.half_n * _LOG_PI
        self.half_sizes = 0.5 * self.sizes
        self.lgamma_half_sizes = _sp.gammaln(self.half_sizes)
        if equal:
            self.lgamma_half_sizes = float(self.lgamma_half_sizes)
        self.n_, self.half_n_, self.half_n_log_pi_, self.half_sizes_ = (
            np.asarray(v) for v in (n, self.half_n, self.half_n_log_pi, self.half_sizes)
        )


def _nix_log_marginal(data: _NixData, mu0, kappa0, nu0, sigma0_sq) -> float:
    """Sum over populations of the closed-form log marginal likelihood.

    Algebraically equal to

        lgamma(nu_n/2) - lgamma(nu0/2) + (1/2) log(kappa0/kappa_n)
        + (nu0/2) log(nu0 sigma0_sq) - (nu_n/2) log(nu_n sigma_n_sq)
        - (n/2) log pi,

    but arranged so that no term multiplies a large hyperparameter by a
    near-cancelling logarithm: the lgamma difference goes through betaln
    and the (nu0/2) log ratio through log1p.  This keeps the value exact
    in the flat large-kappa0 / large-nu0 regime the optimizer explores.

    On a few dozen populations the cost of a ufunc call is numpy's
    dispatch, not its arithmetic, and the dispatch costs more for a Python
    float operand than for a 0-d float64 array, and more for a keyword
    ``out=`` than for a positional output.  So every scalar operand is one
    of ``data``'s 0-d arrays, written once per evaluation, and every output
    is positional.  IEEE ``+ - * /`` round a 0-d operand exactly as the
    float it holds, and scipy's betaln runs the same loop on both, so the
    value keeps its bits.

    prior_ss can underflow to 0 while the optimizer probes the
    sigma0_sq -> 0 corner; the resulting -inf (or NaN at a = 0) is the
    honest value there and is handled by the caller, which also decides
    how numpy reports the division by zero.
    """
    mu0_, prior_ss_, half_nu0_, beta_, shrink, size_terms = data.scratch
    mu0_[()] = mu0
    prior_ss_[()] = nu0 * sigma0_sq
    half_nu0_[()] = 0.5 * nu0
    ratio = data.sizes / kappa0
    # Every population's term has the bits it has when evaluated on its
    # own: gathering is exact, each operation runs in the order of the
    # closed form, and a commuted + or * rounds alike.  With one size the
    # size terms are floats, but log1p and betaln stay numpy's and scipy's:
    # math.log1p rounds some ratios differently.
    if isinstance(ratio, float):
        _sp.betaln(half_nu0_, data.half_sizes_, beta_)
        size_terms[()] = (
            data.lgamma_half_sizes - float(beta_) - 0.5 * float(np.log1p(ratio))
        )
        shrink[()] = 1.0 + ratio
    else:
        size_terms = (
            data.lgamma_half_sizes
            - _sp.betaln(half_nu0_, data.half_sizes)
            - 0.5 * np.log1p(ratio)
        )[data.size_index]
        shrink = (1.0 + ratio)[data.size_index]
    a, t = data.buffers
    # a = scatter + n (mu0 - xbar)^2 / shrink
    np.subtract(mu0_, data.xbar, a)
    np.square(a, a)
    np.multiply(a, data.n_, a)
    np.divide(a, shrink, a)
    np.add(a, data.scatter, a)
    # t = size_terms - (nu0/2) log1p(a / prior_ss)
    np.divide(a, prior_ss_, t)
    np.log1p(t, t)
    np.multiply(t, half_nu0_, t)
    np.subtract(size_terms, t, t)
    # t -= (n/2) log(prior_ss + a), then (n/2) log pi
    np.add(a, prior_ss_, a)
    np.log(a, a)
    np.multiply(a, data.half_n_, a)
    np.subtract(t, a, t)
    np.subtract(t, data.half_n_log_pi_, t)
    return float(np.add.reduce(t))


def nix_log_marginal_likelihood(
    stats_list: Sequence[SufficientStats], hyper: NixHyperparams
) -> float:
    """Log marginal likelihood of all populations under a NIX prior.

    Factorizes over populations; each term integrates the Gaussian
    likelihood against the prior in closed form.
    """
    data = _NixData(stats_list)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _nix_log_marginal(
            data, hyper.mu0, hyper.kappa0, hyper.nu0, hyper.sigma0_sq
        )


def _natural(z) -> tuple[float, float, float, float]:
    """``(mu0, kappa0, nu0, sigma0_sq)`` at the optimizer point
    ``z = (mu0, log kappa0, log nu0, log sigma0_sq)``: the one map that both
    the objective and the returned prior go through.

    Each log is clipped to +-``_LOG_CLIP`` before exp, as ``exp_clipped``
    clips it.  The map runs once per objective evaluation, so it is one
    call, and the clip runs only when some log is not in range, where it
    can change the value.
    """
    mu0, k, v, s = z
    c = _LOG_CLIP
    if not (-c <= k <= c and -c <= v <= c and -c <= s <= c):
        k, v, s = (min(max(t, -c), c) for t in (k, v, s))
    return float(mu0), math.exp(k), math.exp(v), math.exp(s)


def learn_nix(stats_list: Sequence[SufficientStats]) -> NixHyperparams:
    """Learn NIX hyperparameters by type-II maximum likelihood.

    Maximizes the marginal likelihood over (mu0, log kappa0, log nu0,
    log sigma0_sq); the log transforms enforce positivity.  Starts from
    mu0 = mean of sample means, sigma0_sq = mean of sample variances,
    kappa0 = nu0 = 1.

    Raises
    ------
    OptimizationError
        If the optimizer fails to converge; carries the best point found
        and its objective.
    """
    if len(stats_list) < 2:
        raise DataError("learn_nix needs at least 2 populations")
    data = _NixData(stats_list)

    def objective(z):
        return _nix_log_marginal(data, *_natural(z))

    mu0_init = float(np.mean(data.xbar))
    s0_init = float(np.mean(data.var))
    if s0_init <= 0.0:
        # All-constant data carries no variance information; start from a
        # scale-appropriate floor instead of log(0).
        s0_init = 1e-12 * max(1.0, mu0_init * mu0_init)
    result = maximize(objective, [mu0_init, 0.0, 0.0, math.log(s0_init)])
    if not result.converged:
        raise OptimizationError(
            "learn_nix did not converge",
            best_point=result.point,
            best_objective=result.objective,
        )
    return NixHyperparams(*_natural(result.point))


def nix_map(
    stats: SufficientStats,
    hyper: NixHyperparams,
    variance_mode: VarianceMode = VarianceMode.BIASED,
) -> MomentEstimate:
    """MAP estimate of one population's moments under a NIX prior.

    The mean estimate is the posterior mean ``mu_n``.  ``variance_mode``
    picks the divisor of the posterior scatter ``nu_n * sigma_n_sq``:
    ``nu_n + 3`` for the joint posterior mode (``BIASED``), ``nu_n - 1``
    for the unbiased variant.  Valid statistics (n >= 2) and a valid
    prior (nu0 > 0) give nu_n > 2, so both divisors are positive.

    Raises
    ------
    NumericalError
        If the posterior mean or scatter overflows the float range.
    """
    _, mu_n, nu_n, sigma_n_sq = nix_posterior_update(stats, hyper)
    scatter = nu_n * sigma_n_sq
    if not (math.isfinite(mu_n) and math.isfinite(scatter)):
        raise NumericalError(
            f"NIX posterior overflows: mu_n = {mu_n!r}, nu_n * sigma_n_sq = {scatter!r}"
        )
    if variance_mode is VarianceMode.BIASED:
        return MomentEstimate(mu_n, scatter / (nu_n + 3.0))
    if variance_mode is VarianceMode.UNBIASED:
        return MomentEstimate(mu_n, scatter / (nu_n - 1.0))
    raise DataError(f"unknown variance mode {variance_mode!r}")
