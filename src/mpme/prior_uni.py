"""Independent-uniform (UNI) prior: marginal likelihood via quadrature,
hyperparameter learning, and clamped MAP estimation.

The prior places mu uniformly on [a, b] and sigma^2 uniformly on [c, d],
independently.  Its marginal likelihood has no closed form; the mu
integral reduces to a difference of normal CDFs and the remaining
sigma^2 integral is done by adaptive quadrature, shared across all
populations and evaluated in log(sigma^2) to resolve the scale-free peak.
Its gradient in (a, b, c, d) needs no further quadrature: the c and d
derivatives are the integrand at the ends of the sigma^2 interval, and
the a and b derivatives are incomplete gamma integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DataError,
    DegeneratePriorError,
    Method,
    MomentEstimate,
    OptimizationError,
    SufficientStats,
)
from .optim import maximize
from .prior_nix import _stats_arrays
from .special import (
    integrate_adaptive,
    log_lower_gamma,
    log_normal_cdf_diff,
    log_upper_gamma,
)

__all__ = [
    "UniHyperparams",
    "uni_log_marginal_likelihood",
    "learn_uni",
    "uni_map",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_CLIP = 700.0
# 8-point Gauss-Legendre rule on [-1, 1] (symmetric), for the edge
# integrals over narrow sigma^2 intervals.
_GL_HALF_NODES = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_HALF_WEIGHTS = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)
_GL_NODES = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_HALF_WEIGHTS)) + list(_GL_HALF_WEIGHTS))


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
    """Per-population log of the sigma^2 integral over [c, d], and the log
    of its integrand (in sigma^2) at sigma^2 = c and at sigma^2 = d, one
    row each.

    Integrates, in t = log(sigma^2),

        f_i(t) = exp(-((n_i-1)/2) (log(2 pi) + t) - (1/2) log n_i
                     - (n_i-1) S_i / (2 e^t)) * (Phi(hi) - Phi(lo)) * e^t,

    with hi/lo the standardized box endpoints (b - xbar_i) sqrt(n_i) / sigma
    and (a - xbar_i) sqrt(n_i) / sigma.  Each population is shifted by the
    maximum of its log integrand over a coarse scan so the adaptive rule
    works on O(1) values; populations whose integral underflows to zero
    come back as -inf.

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
        sig = np.exp(0.5 * t)
        k = root_n[:, None] / sig[None, :]
        hi = (hyper.b - xbar)[:, None] * k
        lo = (hyper.a - xbar)[:, None] * k
        # The width goes in separately: forming hi - lo from the rounded
        # endpoints costs ~1e-16/(b-a) in relative terms, which for sliver
        # boxes turns into node-dependent noise that stalls the quadrature.
        log_phi_diff = log_normal_cdf_diff(lo, hi, width=(hyper.b - hyper.a) * k)
        return (
            -0.5 * (n - 1.0)[:, None] * (_LOG_2PI + t[None, :])
            - 0.5 * np.log(n)[:, None]
            - 0.5 * scatter[:, None] * np.exp(-t)[None, :]
            + log_phi_diff
            + t[None, :]
        )

    # Shift by the per-population peak; the un-truncated maximizer of the
    # sigma^2 profile sits at sigma^2 = S, clipped into [c, d].
    t_peak = np.log(np.clip(var, hyper.c, hyper.d))
    sig_peak = np.exp(0.5 * t_peak)
    peak_vals = (
        -0.5 * (n - 1.0) * (_LOG_2PI + t_peak)
        - 0.5 * np.log(n)
        - 0.5 * scatter * np.exp(-t_peak)
        + log_normal_cdf_diff(
            (hyper.a - xbar) * root_n / sig_peak,
            (hyper.b - xbar) * root_n / sig_peak,
            width=(hyper.b - hyper.a) * root_n / sig_peak,
        )
        + t_peak
    )
    # linspace returns both ends exactly, so the scan's first and last
    # columns are the integrand at sigma^2 = c and at sigma^2 = d.
    scan = log_f(np.linspace(t_lo, t_hi, 9))
    shift = np.maximum(scan.max(axis=1), peak_vals)
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)

    def integrand(u):
        return np.exp(log_f(u + t_lo) - safe_shift[:, None])

    value, _err = integrate_adaptive(integrand, 0.0, dt)
    with np.errstate(divide="ignore"):
        log_int = safe_shift + np.log(value)
    # Drop the Jacobian e^t of the log(sigma^2) variable.
    return log_int, np.array([scan[:, 0] - t_lo, scan[:, -1] - t_hi])


def _log_edge_integrals(
    n: np.ndarray,
    xbar: np.ndarray,
    var: np.ndarray,
    hyper: UniHyperparams,
) -> np.ndarray:
    """Per-population log of E_i(mu), the likelihood with mu held fixed at
    mu = a (first row) and at mu = b (second row), integrated over sigma^2
    in [c, d]:

        E_i(mu) = int_c^d (2 pi sigma^2)^(-n_i/2) exp(-Q_i / (2 sigma^2)) dsigma^2,

    with Q_i = (n_i - 1) S_i + n_i (xbar_i - mu)^2.  Substituting
    y = Q_i / (2 sigma^2) gives (2 pi)^(-n/2) (Q/2)^(-s) times the
    incomplete gamma integral of y^(s-1) e^-y over [Q/2d, Q/2c], with
    s = n/2 - 1.  That integral is a difference of lower incomplete gamma
    functions below the mode of the gamma density (y <= s) and of upper
    ones above it (at n = 2, where s = 0, of E1), so the difference never
    cancels by more than a factor of a few.  It would cancel on a narrow
    interval, so there an 8-point Gauss-Legendre rule in log(sigma^2),
    over which the log integrand moves by less than one, is used instead;
    that rule also covers Q = 0.  Q = 0 on a wider interval (zero
    scatter, mean at the box edge) is the power-law integral.
    """
    t_lo = math.log(hyper.c)
    dt = math.log1p((hyper.d - hyper.c) / hyper.c)
    # Both edges side by side: element k is population k % P at edge k // P.
    edges = np.array([[hyper.a], [hyper.b]])
    q_half = (0.5 * ((n - 1.0) * var + n * (xbar - edges) ** 2)).ravel()
    s = np.tile(0.5 * n - 1.0, 2)
    y_hi = q_half * math.exp(-t_lo)  # Q / (2c)
    y_lo = y_hi * math.exp(-dt)  # Q / (2d)
    out = np.tile(-0.5 * n * _LOG_2PI, 2)

    narrow = dt * (s + y_hi + 1.0) < 1.0
    if narrow.any():
        t = t_lo + 0.5 * dt * (1.0 + _GL_NODES)
        terms = np.log(_GL_WEIGHTS) - s[narrow, None] * t - q_half[narrow, None] * np.exp(-t)
        peak = terms.max(axis=1)
        out[narrow] += (
            math.log(0.5 * dt) + peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
        )
    zero = ~narrow & (q_half == 0.0)
    if zero.any():
        # int_c^d x^(-s-1) dx = c^-s (1 - e^(-s dt)) / s, or dt at s = 0.
        sz = s[zero]
        sz_pos = np.where(sz > 0, sz, 1.0)
        out[zero] += np.where(
            sz > 0,
            -sz * t_lo + np.log(-np.expm1(-sz_pos * dt)) - np.log(sz_pos),
            math.log(dt),
        )
    # Each branch evaluates both interval ends in one call.
    lower = ~narrow & ~zero & (y_lo <= s)
    if lower.any():
        k = int(lower.sum())
        both = log_lower_gamma(np.tile(s[lower], 2), np.concatenate([y_hi[lower], y_lo[lower]]))
        hi, lo = both[:k], both[k:]
        out[lower] += hi + np.log1p(-np.exp(lo - hi)) - s[lower] * np.log(q_half[lower])
    upper = ~narrow & ~zero & ~lower
    if upper.any():
        k = int(upper.sum())
        both = log_upper_gamma(np.tile(s[upper], 2), np.concatenate([y_lo[upper], y_hi[upper]]))
        lo, hi = both[:k], both[k:]
        out[upper] += lo + np.log1p(-np.exp(hi - lo)) - s[upper] * np.log(q_half[upper])
    return out.reshape(2, len(n))


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
    at one.  At a -inf value the gradient is NaN.

    Raises
    ------
    QuadratureError
        If adaptive quadrature fails to converge; carries partial results.
    """
    n, xbar, var = _stats_arrays(stats_list)
    log_int, log_ends = _log_sigma_integrals(n, xbar, var, hyper)
    log_box = math.log(hyper.b - hyper.a) + math.log(hyper.d - hyper.c)
    if np.any(np.isneginf(log_int)):
        return (-math.inf, np.full(4, math.nan)) if gradient else -math.inf
    value = float(np.sum(log_int - log_box))
    if not gradient:
        return value
    # sum_i E_i(a) / I_i, sum_i E_i(b) / I_i, sum_i L_i(c) / I_i, sum_i L_i(d) / I_i
    log_pulls = np.concatenate([_log_edge_integrals(n, xbar, var, hyper), log_ends])
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
        On non-convergence; carries the best point and objective trace.
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
                trace=result.trace,
            )
    if not result.converged:
        raise OptimizationError(
            "learn_uni did not converge",
            best_point=best_point,
            best_objective=result.objective,
            trace=result.trace,
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
    return MomentEstimate(mu=mu, sigma_sq=sig2, method=Method.MPME_UNI)
