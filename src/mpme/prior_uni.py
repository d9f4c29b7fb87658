"""Independent-uniform (UNI) prior: marginal likelihood via quadrature,
hyperparameter learning, and clamped MAP estimation.

The prior places mu uniformly on [a, b] and sigma^2 uniformly on [c, d],
independently.  Its marginal likelihood has no closed form; the mu
integral reduces to a difference of normal CDFs and the remaining
sigma^2 integral is done by adaptive quadrature, shared across all
populations and evaluated in log(sigma^2) to resolve the scale-free peak.
The same quadrature yields the gradient in (a, b, c, d): the a and b
derivatives need the likelihood with mu fixed at a box edge, integrated
over sigma^2, which rides along as extra rows; the c and d derivatives
are the integrand at the ends of the sigma^2 interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DataError,
    DegeneratePriorError,
    MomentEstimate,
    OptimizationError,
    SufficientStats,
)
from .optim import maximize
from .prior_nix import _stats_arrays
from .special import integrate_adaptive, log_normal_cdf_diff

__all__ = [
    "UniHyperparams",
    "uni_log_marginal_likelihood",
    "learn_uni",
    "uni_map",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_CLIP = 700.0


@dataclass(frozen=True)
class UniHyperparams:
    """Box prior bounds: mu in [a, b], sigma^2 in [c, d]."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} = {getattr(self, name)!r}, need finite")
        if not self.a < self.b:
            raise DataError(f"need a < b, got a = {self.a!r}, b = {self.b!r}")
        if not 0 < self.c < self.d:
            raise DataError(f"need 0 < c < d, got c = {self.c!r}, d = {self.d!r}")


def _log_sigma_integrals(
    n: np.ndarray,
    xbar: np.ndarray,
    var: np.ndarray,
    hyper: UniHyperparams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-population log of the sigma^2 integral I_i over [c, d], and the
    logs of the four integrals that its derivatives in (a, b, c, d) need,
    one row each: E_i(a), E_i(b), and the integrand (in sigma^2) at
    sigma^2 = c and at sigma^2 = d.

    Integrates, in t = log(sigma^2),

        f_i(t) = exp(-((n_i-1)/2) (log(2 pi) + t) - (1/2) log n_i
                     - (n_i-1) S_i / (2 e^t)) * (Phi(hi) - Phi(lo)) * e^t,

    with hi/lo the standardized box endpoints (b - xbar_i) sqrt(n_i) / sigma
    and (a - xbar_i) sqrt(n_i) / sigma.  E_i(mu) is the likelihood with mu
    held fixed at a box edge, integrated over the same interval,

        g_i(t) = exp(-(n_i/2) log(2 pi) - s_i t - q_i e^-t),

    with s_i = n_i/2 - 1 and q_i = ((n_i-1) S_i + n_i (xbar_i - mu)^2) / 2.
    All 3P rows share one adaptive quadrature.  Each row is shifted by its
    maximum so the adaptive rule works on O(1) values; populations whose
    integral underflows to zero come back as -inf.

    The interval length is formed as log1p((d-c)/c) and the quadrature
    runs in u = t - log(c) over [0, dt]: computing log(d) - log(c), or
    letting the quadrature re-derive the length from rounded endpoints,
    loses almost all bits when the interval is a sliver (the endpoint
    rounding is a fixed multiple of ulp(log c)), and that error is
    identical for every population, so it would show up as a correlated
    nat-level artifact in the total that the optimizer then chases.
    """
    t_lo = math.log(hyper.c)
    dt = math.log1p((hyper.d - hyper.c) / hyper.c)
    t_hi = t_lo + dt
    root_n = np.sqrt(n)
    scatter = (n - 1.0) * var

    def log_f(t):
        # t broadcasts against one row per population.
        t = np.atleast_2d(t)
        k = root_n[:, None] / np.exp(0.5 * t)
        hi = (hyper.b - xbar)[:, None] * k
        lo = (hyper.a - xbar)[:, None] * k
        # The width goes in separately: forming hi - lo from the rounded
        # endpoints costs ~1e-16/(b-a) in relative terms, which for sliver
        # boxes turns into node-dependent noise that stalls the quadrature.
        log_phi_diff = log_normal_cdf_diff(lo, hi, width=(hyper.b - hyper.a) * k)
        return (
            -0.5 * (n - 1.0)[:, None] * (_LOG_2PI + t)
            - 0.5 * np.log(n)[:, None]
            - 0.5 * scatter[:, None] * np.exp(-t)
            + log_phi_diff
            + t
        )

    # The E rows: row k is population k % P with mu at a (k < P) or at b.
    q = (0.5 * (scatter + n * (xbar - np.array([[hyper.a], [hyper.b]])) ** 2)).ravel()
    s = np.tile(0.5 * n - 1.0, 2)
    log_norm = np.tile(-0.5 * n * _LOG_2PI, 2)

    def log_g(t):
        t = np.atleast_2d(t)
        return log_norm[:, None] - s[:, None] * t - q[:, None] * np.exp(-t)

    # Shift f_i by its per-population peak; the un-truncated maximizer of
    # the sigma^2 profile sits at sigma^2 = S, clipped into [c, d].
    # linspace returns both ends exactly, so the scan's first and last
    # columns are the integrand at sigma^2 = c and at sigma^2 = d.
    scan = log_f(np.linspace(t_lo, t_hi, 9))
    t_peak = np.log(np.clip(var, hyper.c, hyper.d))
    shift = np.maximum(scan.max(axis=1), log_f(t_peak[:, None])[:, 0])
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)
    # log g_i is concave in t and peaks at log(q/s), clipped into the
    # interval: at the right end when s = 0, at the left end when q = 0.
    # s = q = 0 (n = 2, S = 0, mean on the edge) is flat; any end will do.
    with np.errstate(divide="ignore"):
        t_edge = np.log(np.divide(q, s, out=np.full_like(q, np.inf), where=s > 0))
    edge_shift = log_g(np.clip(t_edge, t_lo, t_hi)[:, None])[:, 0]
    shifts = np.concatenate([safe_shift, edge_shift])

    def integrand(u):
        t = u + t_lo
        return np.exp(np.concatenate([log_f(t), log_g(t)]) - shifts[:, None])

    value, _err = integrate_adaptive(integrand, 0.0, dt)
    with np.errstate(divide="ignore"):
        log_all = shifts + np.log(value)
    p = len(n)
    # Drop the Jacobian e^t of the log(sigma^2) variable at the ends.
    log_ends = [scan[:, 0] - t_lo, scan[:, -1] - t_hi]
    return log_all[:p], np.concatenate([log_all[p:].reshape(2, p), log_ends])


def uni_log_marginal_likelihood(
    stats_list: Sequence[SufficientStats], hyper: UniHyperparams, *, gradient: bool = False
):
    """Log marginal likelihood of all populations under the box prior.

    Sum over populations of

        log [ (1 / ((b-a)(d-c))) * integral over the box of the Gaussian
              likelihood of the population's sufficient statistics ].

    Returns -inf if any population's integral is numerically zero, e.g.
    when the box excludes all plausible moments.

    With ``gradient=True`` returns ``(value, grad)``, where ``value`` is
    the same float and ``grad`` holds the partial derivatives in
    (a, b, c, d).  With I_i the population's box integral and P the
    number of populations,

        d/da = P/(b-a) - sum_i E_i(a) / I_i,   d/db = sum_i E_i(b) / I_i - P/(b-a),
        d/dc = P/(d-c) - sum_i L_i(c) / I_i,   d/dd = sum_i L_i(d) / I_i - P/(d-c),

    where E_i(mu) integrates the likelihood over sigma^2 with mu fixed at
    a box edge, and L_i(sigma^2) integrates it over mu with sigma^2 fixed
    at one.  E_i comes from the same adaptive quadrature as I_i, which is
    run on both paths, so ``gradient`` only chooses the return shape.  At
    a -inf value the gradient is NaN.

    Raises
    ------
    QuadratureError
        If adaptive quadrature fails to converge; carries partial results.
    """
    n, xbar, var = _stats_arrays(stats_list)
    log_int, log_pulls = _log_sigma_integrals(n, xbar, var, hyper)
    log_box = math.log(hyper.b - hyper.a) + math.log(hyper.d - hyper.c)
    if np.any(np.isneginf(log_int)):
        return (-math.inf, np.full(4, math.nan)) if gradient else -math.inf
    value = float(np.sum(log_int - log_box))
    if not gradient:
        return value
    # sum_i E_i(a) / I_i, sum_i E_i(b) / I_i, sum_i L_i(c) / I_i, sum_i L_i(d) / I_i
    pulls = np.exp(log_pulls - log_int).sum(axis=1)
    sides = np.array([hyper.b - hyper.a] * 2 + [hyper.d - hyper.c] * 2)
    return value, np.array([-1.0, 1.0, -1.0, 1.0]) * (pulls - len(n) / sides)


def _box_from_point(z) -> tuple[float, float, float, float]:
    # Widths below one ulp of the anchor collapse in float arithmetic; map
    # them to the closest representable proper box so the objective stays
    # defined however deep the optimizer rides a flat width ridge.
    m = float(z[0])
    w = math.exp(min(max(z[1], -_LOG_CLIP), _LOG_CLIP))
    a, b = m - 0.5 * w, m + 0.5 * w
    if b <= a:
        b = math.nextafter(a, math.inf)
    c = math.exp(min(max(z[2], -_LOG_CLIP), _LOG_CLIP))
    d = c + math.exp(min(max(z[3], -_LOG_CLIP), _LOG_CLIP))
    if d <= c:
        d = math.nextafter(c, math.inf)
    return a, b, c, d


def learn_uni(stats_list: Sequence[SufficientStats]) -> UniHyperparams:
    """Learn the box bounds by type-II maximum likelihood.

    Optimizes over (m, log w, log c, log(d - c)) with a = m - w/2 and
    b = m + w/2, which keeps a < b and 0 < c < d unconditionally.  The
    maximizing box is typically much narrower than the spread of the
    sample means (clamping noisy means toward the consensus is what makes
    the box prior useful), so the search starts from a standard-error
    sized box at the median rather than one spanning the data; a spanning
    start has to ride a nearly flat width ridge and tends to overshoot
    into the degeneracy guard.

    The search is BFGS on the exact gradient, in centred, scaled
    coordinates: (m - m_init) / w_init, and the three logs minus their
    starting values.  A change of units x -> s x + t moves the starting
    point with the data, so the search takes the same steps and the
    learned box moves with the data.

    For some draws the type-II likelihood has no interior maximizer: it
    increases monotonically toward a finite limit as one box side shrinks
    to zero width (the limiting prior is a point mass in that coordinate).
    The optimizer then stalls somewhere on the flat asymptote, at a width
    too small to be numerically meaningful.  Such a side is widened back
    to 1e-4 of its data scale; because the objective is flat there, this
    changes the attained value by less than 1e-3 nats and keeps the MAP
    arithmetic well conditioned.  A side that shrinks below 1e-6 of its
    data scale while still *gaining* likelihood marks a genuinely
    unbounded objective (e.g. identical samples in every population) and
    aborts instead.

    Raises
    ------
    DegeneratePriorError
        If a box side collapses below 1e-6 of its data scale and widening
        it back costs more than 1e-3 nats, i.e. the likelihood grows
        without bound as the box degenerates.
    OptimizationError
        On non-convergence; carries the best point and its objective.
    """
    if len(stats_list) < 2:
        raise DataError("learn_uni needs at least 2 populations")
    n, xbar, var = _stats_arrays(stats_list)

    se = np.sqrt(var / n)
    span = float(xbar.max() - xbar.min())
    pad = max(float(np.median(se)), 1e-9 * max(1.0, float(np.abs(xbar).max())))
    w0 = max(2.0 * pad, 0.5 * span)
    v0 = max(float(np.median(var)), pad * pad, 1e-12)
    c0 = v0 / 2.5
    d0 = v0 * 2.5
    init = [
        float(np.median(xbar)),
        math.log(w0),
        math.log(c0),
        math.log(d0 - c0),
    ]

    def natural(z):
        return (init[0] + w0 * z[0], init[1] + z[1], init[2] + z[2], init[3] + z[3])

    def objective(z):
        a, b, c, d = _box_from_point(natural(z))
        value, (ga, gb, gc, gd) = uni_log_marginal_likelihood(
            stats_list, UniHyperparams(a=a, b=b, c=c, d=d), gradient=True
        )
        return value, (w0 * (ga + gb), 0.5 * (b - a) * (gb - ga), c * (gc + gd), (d - c) * gd)

    scale_w = max(span, 2.0 * pad)
    scale_v = v0

    # Boxes far from the data overflow on the way to a -inf marginal.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = maximize(objective, [0.0] * 4, gradient=True)
    best_point = tuple(float(v) for v in natural(result.point))
    a, b, c, d = _box_from_point(best_point)
    if (b - a) < 1e-6 * scale_w or (d - c) < 1e-6 * scale_v:
        collapsed = (b - a, d - c)
        if (b - a) < 1e-6 * scale_w:
            mid = 0.5 * (a + b)
            a, b = mid - 5e-5 * scale_w, mid + 5e-5 * scale_w
        if (d - c) < 1e-6 * scale_v:
            mid = 0.5 * (c + d)
            half = min(5e-5 * scale_v, 0.99 * mid)
            c, d = mid - half, mid + half
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            widened = uni_log_marginal_likelihood(
                stats_list, UniHyperparams(a=a, b=b, c=c, d=d)
            )
        if not widened >= result.objective - 1e-3:
            raise DegeneratePriorError(
                f"learned box degenerated to widths {collapsed!r} and the "
                "likelihood keeps growing as it collapses; no proper maximizer "
                "exists for this data",
                best_point=best_point,
                best_objective=result.objective,
            )
    if not result.converged:
        raise OptimizationError(
            "learn_uni did not converge",
            best_point=best_point,
            best_objective=result.objective,
        )
    return UniHyperparams(a=a, b=b, c=c, d=d)


def uni_map(
    stats: SufficientStats,
    hyper: UniHyperparams,
    use_unbiased_variance: bool = True,
) -> MomentEstimate:
    """MAP estimate under the box prior: sample moments clamped into the box.

    The posterior over the box is the likelihood itself, so its mode is
    the in-box point closest to the unconstrained maximizer.  The variance
    plug-in defaults to the unbiased sample variance S, matching the
    sample-estimator convention; ``use_unbiased_variance=False`` selects
    the strict MLE (n-1) S / n, which is the exact posterior mode.
    """
    mu = min(max(stats.mean, hyper.a), hyper.b)
    sig2 = stats.var_unbiased
    if not use_unbiased_variance:
        sig2 *= (stats.n - 1.0) / stats.n
    sig2 = min(max(sig2, hyper.c), hyper.d)
    return MomentEstimate(mu=mu, sigma_sq=sig2)
