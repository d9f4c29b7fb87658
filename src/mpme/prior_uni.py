"""Independent-uniform (UNI) prior: marginal likelihood via quadrature,
hyperparameter learning, and clamped MAP estimation.

The prior places mu uniformly on [a, b] and sigma^2 uniformly on [c, d],
independently.  Its marginal likelihood has no closed form; the mu
integral reduces to a difference of normal CDFs and the remaining
sigma^2 integral is done by adaptive quadrature, shared across all
populations and evaluated in log(sigma^2) to resolve the scale-free peak.
The same quadrature yields the gradient and Hessian in (a, b, c, d): the
a and b derivatives need the likelihood with mu fixed at a box edge,
integrated over sigma^2 (and, for the second derivatives, over sigma^2
divided by sigma^2), which rides along as extra rows; the c and d
derivatives are the integrand and its slope at the ends of the sigma^2
interval, and the mixed ones the likelihood at the box's corners.
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
    NumericalError,
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
_LOG_SQRT_2PI = 0.5 * _LOG_2PI
_LOG_CLIP = 700.0


@dataclass(frozen=True)
class UniHyperparams:
    """Box prior bounds: mu in [a, b], sigma^2 in [c, d].

    ``c == d`` is the variance face of the box: the prior on sigma^2 is a
    point mass at c.  The mean side stays a proper interval, ``a < b``.
    """

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
        if not 0 < self.c <= self.d:
            raise DataError(f"need 0 < c <= d, got c = {self.c!r}, d = {self.d!r}")


class _UniData:
    """The hyperparameter-free parts of the UNI marginal for one dataset:
    the statistics and scatter, the per-population columns that
    ``_log_mu_integral`` reads (sqrt n, the halved log n, and the halved
    degrees of freedom and scatter), each of shape (P, 1), and the
    constants of the E rows of ``_log_sigma_integrals``.  ``learn_uni``
    builds it once per fit.
    """

    __slots__ = ("n", "xbar", "var", "scatter", "root_n", "half_log_n",
                 "neg_half_dof", "half_scatter", "e_s", "e_log_norm")

    def __init__(self, stats_list: Sequence[SufficientStats]):
        n, xbar, var = _stats_arrays(stats_list)
        self.n, self.xbar, self.var = n, xbar, var
        self.scatter = (n - 1.0) * var
        self.root_n = np.sqrt(n)[:, None]
        self.half_log_n = 0.5 * np.log(n)[:, None]
        self.neg_half_dof = -0.5 * (n - 1.0)[:, None]
        self.half_scatter = 0.5 * self.scatter[:, None]
        # Two E rows per population, one per edge of the mean side.
        n_rows = np.concatenate([n, n])
        self.e_s = 0.5 * n_rows - 1.0
        self.e_log_norm = (-0.5 * n_rows * _LOG_2PI)[:, None]


def _log_mu_integral(t, data: _UniData, a, b, decay):
    """log L_i(e^t), the Gaussian likelihood of population i integrated
    over mu in [a, b] at sigma^2 = e^t, with the standardized box edges
    lo, hi and log(Phi(hi) - Phi(lo)) it is built from.  ``t`` is 2-d and
    broadcasts against the (P, 1) columns of ``data``; ``decay`` is e^-t,
    which the caller may share with other rows.
    """
    k = data.root_n / np.exp(0.5 * t)
    hi = (b - data.xbar)[:, None] * k
    lo = (a - data.xbar)[:, None] * k
    # The width goes in separately: forming hi - lo from the rounded
    # endpoints costs ~1e-16/(b-a) in relative terms, which for sliver
    # boxes turns into node-dependent noise that stalls the quadrature.
    log_phi_diff = log_normal_cdf_diff(lo, hi, (b - a) * k)
    log_l = (
        data.neg_half_dof * (_LOG_2PI + t)
        - data.half_log_n
        - data.half_scatter * decay
        + log_phi_diff
    )
    return log_l, lo, hi, log_phi_diff


def _log_l_slope(data: _UniData, sigma_sq, lo, hi, log_phi_diff):
    """d log L_i / d sigma^2 at ``sigma_sq``, with the pieces it is built
    from: D'/D and the ratios r_lo = phi(lo) / D and r_hi = phi(hi) / D,
    where D = Phi(hi) - Phi(lo).  ``lo``, ``hi`` and ``log_phi_diff`` have
    one row per population, like the columns of ``data``.  See
    ``_face_log_marginal``."""
    r_hi = np.exp(-0.5 * hi * hi - _LOG_SQRT_2PI - log_phi_diff)
    r_lo = np.exp(-0.5 * lo * lo - _LOG_SQRT_2PI - log_phi_diff)
    d1 = -(r_hi * hi - r_lo * lo) / (2.0 * sigma_sq)
    l1 = data.neg_half_dof / sigma_sq + data.half_scatter / (sigma_sq * sigma_sq) + d1
    return l1, d1, r_lo, r_hi


# Far boxes overflow q and take the log of zero on the way to -inf.
@np.errstate(divide="ignore", over="ignore")
def _log_sigma_integrals(data: _UniData, hyper: UniHyperparams):
    """Per-population log of the sigma^2 integral I_i over [c, d], and
    what its first and second derivatives in (a, b, c, d) need.

    Returns ``(log_int, log_edges, log_corners, ends)``:

    - ``log_int``, shape (P,): log I_i.
    - ``log_edges``, shape (4, P): log E_i(a), log E_i(b), log F_i(a) and
      log F_i(b), from the same quadrature as I_i.
    - ``log_corners``, shape (2, P, 2): the log likelihood with mu at a
      (first index 0) or b, and sigma^2 at c (last index 0) or d.
    - ``ends``: log L_i(sigma^2) and the standardized box edges lo, hi
      and log(Phi(hi) - Phi(lo)) it is built from, each of shape (P, 2),
      at sigma^2 = c and d.

    Integrates, in t = log(sigma^2),

        f_i(t) = exp(-((n_i-1)/2) (log(2 pi) + t) - (1/2) log n_i
                     - (n_i-1) S_i / (2 e^t)) * (Phi(hi) - Phi(lo)) * e^t,

    with hi/lo the standardized box endpoints (b - xbar_i) sqrt(n_i) / sigma
    and (a - xbar_i) sqrt(n_i) / sigma.  E_i(mu) is the likelihood with mu
    held fixed at a box edge, integrated over the same interval,

        g_i(t) = exp(-(n_i/2) log(2 pi) - s_i t - q_i e^-t),

    with s_i = n_i/2 - 1 and q_i = ((n_i-1) S_i + n_i (xbar_i - mu)^2) / 2,
    and F_i(mu) integrates the likelihood over sigma^2 divided by sigma^2,
    g_i(t) e^-t.  All 5P rows share one adaptive quadrature.  Each row is
    shifted by its maximum so the adaptive rule works on O(1) values; a
    row whose maximum is not finite is shifted by zero, so a row that
    underflows to zero comes back as -inf.  That covers a box edge about
    1e154 or more from the data, where q_i overflows to inf.  The f rows'
    maxima come from a 10-point scan in t that rides along in the
    integrand's first call: one ``_log_mu_integral`` call takes the first
    nodes and the scan, and the shifts are taken from the scan's columns
    before anything is exponentiated.

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
    if not math.isfinite(dt):
        # (d - c)/c overflows when d/c passes the float range.
        raise NumericalError(
            f"variance side [{hyper.c!r}, {hyper.d!r}] spans more than the float range"
        )
    t_hi = t_lo + dt
    n, xbar, scatter = data.n, data.xbar, data.scatter
    p = len(n)
    a, b = hyper.a, hyper.b

    # The E rows: row k is population k % P with mu at a (k < P) or at b.
    q = (0.5 * (scatter + n * (xbar - np.array([[a], [b]])) ** 2)).ravel()
    s, log_norm = data.e_s, data.e_log_norm
    s_col, q_col = s[:, None], q[:, None]

    def log_g(t, decay):
        return log_norm - s_col * t - q_col * decay

    # Shift f_i by its per-population peak; the un-truncated maximizer of
    # the sigma^2 profile sits at sigma^2 = S, clipped into [c, d].  The
    # scan is 9 points and that point as a tenth column.  linspace returns
    # both ends exactly, so the scan's first and ninth columns are the
    # integrand at sigma^2 = c and at sigma^2 = d.
    t_scan = np.empty((p, 10))
    t_scan[:, :9] = np.linspace(t_lo, t_hi, 9)
    t_scan[:, 9] = np.log(np.clip(data.var, hyper.c, hyper.d))
    # log g_i is concave in t and peaks at log(q/s), clipped into the
    # interval: at the right end when s = 0, at the left end when q = 0.
    # s = q = 0 (n = 2, S = 0, mean on the edge) is flat; any end will do.
    # log g_i - t peaks at log(q/(s+1)), with s + 1 = n/2 > 0.  One log_g
    # call takes both peaks and, as its last two columns, the corners of
    # the box at sigma^2 = c and d.
    t_peaks = np.empty((2 * p, 4))
    t_peaks[:, 0] = np.log(np.divide(q, s, out=np.full_like(q, np.inf), where=s > 0))
    t_peaks[:, 1] = np.log(q / (s + 1.0))
    t_peaks[:, 2] = t_lo
    t_peaks[:, 3] = t_hi
    np.clip(t_peaks, t_lo, t_hi, out=t_peaks)
    log_peaks = log_g(t_peaks, np.exp(-t_peaks))
    e_shifts = [log_peaks[:, 0], log_peaks[:, 1] - t_peaks[:, 1]]
    # Set by the integrand's first call, from the scan.
    shifts = ends = None

    def integrand(u):
        nonlocal shifts, ends
        t = (u + t_lo)[None, :]
        decay = np.exp(-t)
        log_e = log_g(t, decay)
        if shifts is None:
            k = len(u)
            t_first = np.empty((p, k + 10))
            t_first[:, :k] = t
            t_first[:, k:] = t_scan
            first = _log_mu_integral(t_first, data, a, b, np.exp(-t_first))
            shifts = np.concatenate([(first[0][:, k:] + t_scan).max(axis=1), *e_shifts])
            shifts = np.where(np.isfinite(shifts), shifts, 0.0)[:, None]
            ends = tuple(v[:, k::8] for v in first)
            log_f = first[0][:, :k] + t
        else:
            log_f = _log_mu_integral(t, data, a, b, decay)[0] + t
        return np.exp(np.concatenate([log_f, log_e, log_e - t]) - shifts)

    value, _err = integrate_adaptive(integrand, 0.0, dt)
    log_all = shifts[:, 0] + np.log(value)
    log_corners = (log_peaks[:, 2:] - t_peaks[:, 2:]).reshape(2, p, 2)
    return log_all[:p], log_all[p:].reshape(4, p), log_corners, ends


def _face_log_marginal(data: _UniData, a, b, c):
    """The marginal on the variance face c = d, its gradient and Hessian in
    (a, b, c), and the coefficient that decides whether the face is a
    maximum.

    With sigma^2 fixed at c, each population's integral is L_i(c), so the
    value is sum_i log L_i(c) - P log(b - a), with no quadrature.  With
    z_a, z_b the standardized box edges, k = sqrt(n_i / c) and r_z =
    phi(z) / (Phi(z_b) - Phi(z_a)), the derivatives of log L_i are r_b k
    in b, -r_a k in a, and, in sigma^2,

        l' = -(n_i-1)/(2c) + (n_i-1) S_i/(2c^2) + D'/D,
        D'/D = -(r_b z_b - r_a z_a) / (2c),
        D''/D = (r_b z_b (3 - z_b^2) - r_a z_a (3 - z_a^2)) / (4c^2),
        l'' = (n_i-1)/(2c^2) - (n_i-1) S_i/c^3 + D''/D - (D'/D)^2.

    Its second derivatives are k^2 (z_a r_a - r_a^2) in (a, a),
    -k^2 (z_b r_b + r_b^2) in (b, b), k^2 r_a r_b in (a, b), l'' in (c, c),
    and +-(k r_z / (2c)) (z^2 + r_b z_b - r_a z_a - 1) in (b, c) and, with
    the minus sign and z = z_a, in (a, c).  -P log(b - a) adds P/(b-a)^2 in
    (a, a) and (b, b), and takes it from (a, b).

    The interior marginal of the box [c - w/2, c + w/2] is the face value
    plus K w^2 + O(w^4), with K = sum_i L_i''(c) / (24 L_i(c)) and
    L''/L = l'' + l'^2: the mean of L_i over a centred interval has no
    first-order term.  At a face optimum, re-optimizing the other
    coordinates moves the value by O(w^4) only, so K <= 0 keeps the face
    and K > 0 means a proper box beats it.  Returns (value, grad, hess, K);
    at a -inf value the gradient, the Hessian and K are NaN.
    """
    t = np.array([[math.log(c)]])
    at_c = _log_mu_integral(t, data, a, b, np.exp(-t))
    log_l, lo, hi, log_phi_diff = (v[:, 0] for v in at_c)
    n, scatter = data.n, data.scatter
    p = len(n)
    if np.any(np.isneginf(log_l)):
        return -math.inf, np.full(3, math.nan), np.full((3, 3), math.nan), math.nan
    value = float(np.sum(log_l - math.log(b - a)))
    l1, d1, r_lo, r_hi = (v[:, 0] for v in _log_l_slope(data, c, *at_c[1:]))
    d2 = (r_hi * hi * (3.0 - hi * hi) - r_lo * lo * (3.0 - lo * lo)) / (4.0 * c * c)
    l2 = 0.5 * (n - 1.0) / (c * c) - scatter / c**3 + d2 - d1 * d1
    k = np.sqrt(n / c)
    grad = np.array([
        p / (b - a) - float(np.sum(r_lo * k)),
        float(np.sum(r_hi * k)) - p / (b - a),
        float(np.sum(l1)),
    ])
    box = p / (b - a) ** 2
    # r_b z_b - r_a z_a - 1, shared by the (a, c) and (b, c) entries
    pull = r_hi * hi - r_lo * lo - 1.0
    hac = -float(np.sum(k * r_lo * (lo * lo + pull))) / (2.0 * c)
    hbc = float(np.sum(k * r_hi * (hi * hi + pull))) / (2.0 * c)
    hab = float(np.sum(k * k * r_lo * r_hi)) - box
    hess = np.array([
        [float(np.sum(k * k * (lo * r_lo - r_lo * r_lo))) + box, hab, hac],
        [hab, box - float(np.sum(k * k * (hi * r_hi + r_hi * r_hi))), hbc],
        [hac, hbc, float(np.sum(l2))],
    ])
    return value, grad, hess, float(np.sum(l2 + l1 * l1)) / 24.0


def uni_log_marginal_likelihood(
    stats_list: Sequence[SufficientStats] | _UniData,
    hyper: UniHyperparams,
    *,
    hessian: bool = False,
):
    """Log marginal likelihood of all populations under the box prior.

    Sum over populations of

        log [ (1 / ((b-a)(d-c))) * integral over the box of the Gaussian
              likelihood of the population's sufficient statistics ].

    Returns -inf if any population's integral is numerically zero, e.g.
    when the box excludes all plausible moments.

    ``stats_list`` is a sequence of sufficient statistics, or the
    ``_UniData`` that ``learn_uni`` prepares from one once per fit; both
    give the same bits.

    With ``hessian=True`` returns ``(value, grad, hess)``, where ``value``
    is the same float, ``grad`` holds the partial derivatives in
    (a, b, c, d) and ``hess`` the 4 x 4 matrix of second derivatives.  With
    I_i the population's box integral and P the number of populations,

        d/da = P/(b-a) - sum_i E_i(a) / I_i,   d/db = sum_i E_i(b) / I_i - P/(b-a),
        d/dc = P/(d-c) - sum_i L_i(c) / I_i,   d/dd = sum_i L_i(d) / I_i - P/(d-c),

    where E_i(mu) integrates the likelihood over sigma^2 with mu fixed at
    a box edge, and L_i(sigma^2) integrates it over mu with sigma^2 fixed
    at one.  The Hessian is

        sum_i (H_i / I_i - (grad I_i)(grad I_i)^T / I_i^2) + P B,

    where B holds 1/(b-a)^2 in (a, a) and (b, b), -1/(b-a)^2 in (a, b),
    and the same in (c, d) with d - c.  The Hessian H_i of I_i has
    -n_i (xbar_i - a) F_i(a) in (a, a), n_i (xbar_i - b) F_i(b) in (b, b),
    l_i(a, c), -l_i(a, d), -l_i(b, c) and l_i(b, d) in (a, c), (a, d),
    (b, c) and (b, d), -L_i'(c) in (c, c), L_i'(d) in (d, d), and zero in
    (a, b) and (c, d).  F_i(mu) integrates the likelihood divided by
    sigma^2 over sigma^2 with mu at a box edge, l_i(mu, sigma^2) is the
    likelihood at a corner of the box, and L_i' is the derivative of L_i
    in sigma^2.  E_i and F_i come from the same adaptive quadrature as
    I_i, which is run on both paths, so ``hessian`` only chooses the
    return shape.  At a -inf value the gradient and the Hessian are NaN.

    On the variance face c == d the prior on sigma^2 is a point mass and
    the value is the d -> c limit, sum_i log L_i(c) - P log(b-a), which
    needs no quadrature.  The derivatives there are those of the limit
    too: near the face the marginal is F((c+d)/2) + K (d-c)^2 + O((d-c)^4),
    with F the face value and K the coefficient of ``_face_log_marginal``,
    so the c and d derivatives are each half of F's derivative in c, and
    the (c, c), (d, d) and (c, d) entries are F''/4 + 2K, F''/4 + 2K and
    F''/4 - 2K.

    Raises
    ------
    QuadratureError
        If adaptive quadrature fails to converge; carries partial results.
    """
    data = stats_list if isinstance(stats_list, _UniData) else _UniData(stats_list)
    if hyper.c == hyper.d:
        value, (ga, gb, gc), face_hess, curvature = _face_log_marginal(
            data, hyper.a, hyper.b, hyper.c
        )
        if not hessian:
            return value
        lift = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.5]])
        hess = lift @ face_hess @ lift.T
        hess[2:, 2:] += 2.0 * curvature * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return value, np.array([ga, gb, 0.5 * gc, 0.5 * gc]), hess
    log_int, log_edges, log_corners, (log_l, lo, hi, log_phi_diff) = _log_sigma_integrals(
        data, hyper
    )
    mean_side, var_side = hyper.b - hyper.a, hyper.d - hyper.c
    log_box = math.log(mean_side) + math.log(var_side)
    if (log_int == -np.inf).any():
        return (-math.inf, np.full(4, math.nan), np.full((4, 4), math.nan)) if hessian else -math.inf
    value = float((log_int - log_box).sum())
    if not hessian:
        return value
    n, xbar, p = data.n, data.xbar, len(data.n)
    # E_i(a), E_i(b), F_i(a), F_i(b), and L_i at c and d, each over I_i
    e_a, e_b, f_a, f_b = np.exp(log_edges - log_int)
    l_ends = np.exp(log_l - log_int[:, None])
    # grad I_i / I_i, one column per population
    pulls = np.stack([-e_a, e_b, -l_ends[:, 0], l_ends[:, 1]])
    grad = pulls.sum(axis=1) + np.array(
        [p / mean_side, -(p / mean_side), p / var_side, -(p / var_side)]
    )
    (c_ac, c_ad), (c_bc, c_bd) = np.exp(log_corners - log_int[:, None]).sum(axis=1).tolist()
    slopes = _log_l_slope(data, np.array([hyper.c, hyper.d]), lo, hi, log_phi_diff)[0]
    rise_c, rise_d = (slopes * l_ends).sum(axis=0).tolist()
    h_aa = -float((n * (xbar - hyper.a) * f_a).sum())
    h_bb = float((n * (xbar - hyper.b) * f_b).sum())
    # P B: the second derivatives of -P log(b - a) - P log(d - c)
    ab_in, ab_out = p * (1.0 / mean_side**2), p * (-1.0 / mean_side**2)
    cd_in, cd_out = p * (1.0 / var_side**2), p * (-1.0 / var_side**2)
    h_sum = np.array([
        [h_aa, 0.0, c_ac, -c_ad],
        [0.0, h_bb, -c_bc, c_bd],
        [c_ac, -c_bc, -rise_c, 0.0],
        [-c_ad, c_bd, 0.0, rise_d],
    ])
    box = np.array([
        [ab_in, ab_out, 0.0, 0.0],
        [ab_out, ab_in, 0.0, 0.0],
        [0.0, 0.0, cd_in, cd_out],
        [0.0, 0.0, cd_out, cd_in],
    ])
    return value, grad, h_sum - pulls @ pulls.T + box


# The interior search hands over to the variance face c = d at the first
# new best point whose variance side d - c is below this fraction of its
# data scale.
_FACE_DEPTH = 1e-1


class _FaceReached(Exception):
    """Raised by the interior objective at the point where the search hands
    over to the variance face."""

    def __init__(self, z):
        super().__init__()
        self.z = z


def _box_from_point(z) -> tuple[float, float, float, float]:
    # A mean width below one ulp of the anchor collapses in float
    # arithmetic; map it to the closest representable proper interval so
    # the objective stays defined however deep the optimizer rides a flat
    # width ridge.  A point without a fourth coordinate is on the face c = d.
    m = float(z[0])
    w = math.exp(min(max(z[1], -_LOG_CLIP), _LOG_CLIP))
    a, b = m - 0.5 * w, m + 0.5 * w
    if b <= a:
        b = math.nextafter(a, math.inf)
    c = math.exp(min(max(z[2], -_LOG_CLIP), _LOG_CLIP))
    d = c + math.exp(min(max(z[3], -_LOG_CLIP), _LOG_CLIP)) if len(z) == 4 else c
    return a, b, c, d


def learn_uni(stats_list: Sequence[SufficientStats]) -> UniHyperparams:
    """Learn the box bounds by type-II maximum likelihood.

    Optimizes over (m, log w, log c, log(d - c)) with a = m - w/2 and
    b = m + w/2, which keeps a < b and 0 < c < d unconditionally.  The
    maximizing box is typically much narrower than the spread of the
    sample means (clamping noisy means toward the consensus is what makes
    the box prior useful), so the search starts from a standard-error
    sized box at the median rather than one spanning the data; a spanning
    start has to ride a nearly flat width ridge for many steps.

    The search is Newton's method on the exact gradient and Hessian,
    damped where the Hessian is not safely negative definite (see
    ``optim``), in centred, scaled coordinates: (m - m_init) / w_init, and
    the three logs minus their starting values.  A change of units
    x -> s x + t moves the starting point with the data, so the search
    takes the same steps and the learned box moves with the data.  On the
    200 trials of example 1 at seed 2026 a fit takes 12.5 quadrature-backed
    marginal evaluations and 4.0 on the face.

    For many draws the type-II likelihood has no interior maximizer in the
    variance side: it increases toward its value on the face c = d, where
    the prior on sigma^2 is a point mass, and approaches it like (d - c)^2,
    a ridge that a local search would ride for many steps.  So at the
    first point that beats every earlier one with d - c below 1e-1 of its
    data scale, the search moves to the face and maximizes its closed-form
    value over (m, log w, log c), from that point, by the same method.
    The face is kept, and the returned box has c == d, if the (d - c)^2
    coefficient of the marginal of a box centred on the face optimum is
    not positive.  Otherwise a proper box beats the face, and the interior
    search resumes once from the centred box of height 1e-1 of the data
    scale.

    The returned box is the point where the search stopped.  Its mean
    side can be narrow: the likelihood may rise toward the mean face
    a = b, and the search stops on that ridge by its tolerances.

    If every population has positive scatter the likelihood is bounded:
    each population's average over the box is at most its maximum
    Gaussian likelihood.  If none has, it grows without bound as c -> 0,
    and the data is refused before any evaluation.

    Raises
    ------
    DegeneratePriorError
        If every population has zero scatter, so no proper maximizer
        exists.
    OptimizationError
        On non-convergence; carries the best point and its objective.
    """
    if len(stats_list) < 2:
        raise DataError("learn_uni needs at least 2 populations")
    data = _UniData(stats_list)
    n, xbar, var = data.n, data.xbar, data.var
    if not np.any(data.scatter > 0):
        raise DegeneratePriorError(
            "every population has zero scatter, so the likelihood grows "
            "without bound as the variance prior collapses onto zero; no "
            "proper maximizer exists for this data"
        )

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
    depth = _FACE_DEPTH * v0

    def natural(z):
        return (init[0] + w0 * z[0], *(x + y for x, y in zip(init[1:], z[1:])))

    # The best interior value so far; +inf turns the hand-over off.
    best = -math.inf

    def searched(value, grad, hess, jac):
        # The chain rule to the search coordinates: jac holds the
        # derivatives of (a, b, c[, d]) in them.  Each of the last
        # coordinates is the log of a side or of c, whose second
        # derivative equals its first.
        g = jac.T @ grad
        return value, g, jac.T @ hess @ jac + np.diag([0.0, *g[1:]])

    def jacobian(a, b, c, d):
        half = 0.5 * (b - a)
        return np.array([
            [w0, -half, 0.0, 0.0],
            [w0, half, 0.0, 0.0],
            [0.0, 0.0, c, 0.0],
            [0.0, 0.0, c, d - c],
        ])

    def interior(z):
        nonlocal best
        a, b, c, d = _box_from_point(natural(z))
        value, grad, hess = uni_log_marginal_likelihood(
            data, UniHyperparams(a=a, b=b, c=c, d=d), hessian=True
        )
        if d - c < depth and value > best:
            raise _FaceReached(z)
        best = max(best, value)
        return searched(value, grad, hess, jacobian(a, b, c, d))

    # The face value goes through the private helper, never the public
    # marginal, so every public marginal evaluation runs one quadrature.
    def face(z):
        a, b, c, _ = _box_from_point(natural(z))
        value, grad, hess, _ = _face_log_marginal(data, a, b, c)
        return searched(value, grad, hess, jacobian(a, b, c, c)[:3, :3])

    # Boxes far from the data overflow on the way to a -inf marginal.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            result = maximize(interior, [0.0] * 4, hessian=True)
        except _FaceReached as reached:
            result = maximize(face, reached.z[:3], hessian=True)
            a, b, c, _ = _box_from_point(natural(result.point))
            if _face_log_marginal(data, a, b, c)[3] > 0.0:
                # A proper box beats the face: resume the interior search
                # once, from the box of height `depth` centred on the face
                # optimum.
                h = min(depth, c)
                start = [*result.point[:2], math.log(c - 0.5 * h) - init[2], math.log(h) - init[3]]
                best = math.inf
                result = maximize(interior, start, hessian=True)
    best_point = tuple(float(v) for v in natural(result.point))
    if not result.converged:
        raise OptimizationError(
            "learn_uni did not converge",
            best_point=best_point,
            best_objective=result.objective,
        )
    return UniHyperparams(*_box_from_point(best_point))


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
