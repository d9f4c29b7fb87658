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

A side of the box may collapse to a point: a = b is the mean face and
c = d the variance face.  The marginal there is the limit of the
interior's, in closed form on the variance face and at the corner where
both sides collapse, and by one quadrature in sigma^2 on the mean face.
``learn_uni`` searches in squared widths, in which each face is a bound
of Newton's method.
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
from .optim import exp_clipped, maximize
from .prior_nix import _stats_arrays
from .special import (
    _HALF,
    _LOG_SQRT_2PI,
    _NEG_INF,
    _add_reduce,
    _max_reduce,
    _or_reduce,
    integrate_adaptive,
    log_normal_cdf_diff,
)

__all__ = [
    "UniHyperparams",
    "uni_log_marginal_likelihood",
    "learn_uni",
    "uni_map",
]

# The marginal's arrays have a few hundred elements, where numpy's
# per-call overhead outweighs the arithmetic.  So it reduces through the
# ufuncs' own ``reduce`` and takes constants as 0-d arrays (see
# ``special``), writes intermediates into preallocated outputs, and builds
# fixed-shape matrices from flat lists; each value keeps the bits of the
# plain expressions.
_LOG_2PI = np.array(math.log(2.0 * math.pi))
_NEG_HALF = np.array(-0.5)
# The node numbers of the 9-point scan of _log_sigma_integrals.
_SCAN = np.arange(9.0)
# The smallest normal float.
_MIN_NORMAL = 2.0**-1022


@dataclass(frozen=True)
class UniHyperparams:
    """Box prior bounds: mu in [a, b], sigma^2 in [c, d].

    ``a == b`` is the mean face of the box and ``c == d`` its variance
    face: the prior on that side is a point mass.  Both at once is the
    corner, a point mass at (a, c).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} = {getattr(self, name)!r}, need finite")
        if not self.a <= self.b:
            raise DataError(f"need a <= b, got a = {self.a!r}, b = {self.b!r}")
        if not 0 < self.c <= self.d:
            raise DataError(f"need 0 < c <= d, got c = {self.c!r}, d = {self.d!r}")


class _UniData:
    """The hyperparameter-free parts of the UNI marginal for one dataset:
    the statistics and scatter, the per-population columns that
    ``_log_mu_integral`` reads (sqrt n, the halved log n, and the halved
    degrees of freedom and scatter), each of shape (P, 1), and the
    constants of the E rows of ``_log_sigma_integrals``: s, its positive
    entries, s + 1 and the normalizing log.  ``learn_uni`` builds it once
    per fit.
    """

    __slots__ = ("n", "xbar", "var", "scatter", "root_n", "half_log_n",
                 "neg_half_dof", "half_scatter", "e_s", "e_s_positive",
                 "e_s_plus_one", "e_log_norm")

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
        self.e_s_positive = self.e_s > 0
        self.e_s_plus_one = self.e_s + 1.0
        self.e_log_norm = (-0.5 * n_rows * _LOG_2PI)[:, None]


def _mean_side(data: _UniData, a, b):
    """The mean side [a, b] as ``_log_mu_integral`` takes it: the columns
    a - xbar_i and b - xbar_i, of shape (P, 1), and the width b - a as a
    0-d array.  A marginal forms them once for all of its
    ``_log_mu_integral`` calls."""
    return (a - data.xbar)[:, None], (b - data.xbar)[:, None], np.array(b - a)


def _log_mu_integral(t, data: _UniData, side, decay):
    """log L_i(e^t), the Gaussian likelihood of population i integrated
    over mu in [a, b] at sigma^2 = e^t, with the standardized box edges
    lo, hi and log(Phi(hi) - Phi(lo)) it is built from.  ``t`` is 2-d and
    broadcasts against the (P, 1) columns of ``data``; ``side`` is
    ``_mean_side(data, a, b)``; ``decay`` is e^-t, which the caller may
    share with other rows.
    """
    a_off, b_off, width = side
    k = data.root_n / np.exp(_HALF * t)
    hi = b_off * k
    lo = a_off * k
    # The width goes in separately: forming hi - lo from the rounded
    # endpoints costs ~1e-16/(b-a) in relative terms, which for sliver
    # boxes turns into node-dependent noise that stalls the quadrature.
    log_phi_diff = log_normal_cdf_diff(lo, hi, width * k)
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
    r_hi = np.exp(_NEG_HALF * hi * hi - _LOG_SQRT_2PI - log_phi_diff)
    r_lo = np.exp(_NEG_HALF * lo * lo - _LOG_SQRT_2PI - log_phi_diff)
    d1 = -(r_hi * hi - r_lo * lo) / (2.0 * sigma_sq)
    l1 = data.neg_half_dof / sigma_sq + data.half_scatter / (sigma_sq * sigma_sq) + d1
    return l1, d1, r_lo, r_hi


def _log_variance_side(hyper: UniHyperparams):
    """log(c) and the length log1p((d - c)/c) of the variance side in
    log(sigma^2); see ``_log_sigma_integrals``."""
    dt = math.log1p((hyper.d - hyper.c) / hyper.c)
    if not math.isfinite(dt):
        # (d - c)/c overflows when d/c passes the float range.
        raise NumericalError(
            f"variance side [{hyper.c!r}, {hyper.d!r}] spans more than the float range"
        )
    return math.log(hyper.c), dt


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

    A learn_uni fit evaluates this a dozen times or more, on arrays of a
    few hundred elements, where numpy's per-call overhead outweighs the
    arithmetic.  So the integrand writes its 5P rows into one array, each
    block through explicit outputs, and shifts and exponentiates them in
    place; the scan is linspace's own arithmetic on a constant row, and
    the mean side's columns are formed once per marginal.  Every value
    keeps the bits of the plain expressions.  The integrand returns one
    (5P, K) array, and the quadrature goes through the module's
    ``integrate_adaptive``.

    Far boxes overflow q and take the log of zero on the way to -inf;
    the caller holds numpy's error state (``uni_log_marginal_likelihood``).
    """
    t_lo, dt = _log_variance_side(hyper)
    t_hi = t_lo + dt
    t_lo_0d = np.array(t_lo)
    n, xbar, scatter = data.n, data.xbar, data.scatter
    p = len(n)
    a, b = hyper.a, hyper.b
    side = _mean_side(data, a, b)

    # The E rows: row k is population k % P with mu at a (k < P) or at b.
    q = (_HALF * (scatter + n * (xbar - np.array((a, b))[:, None]) ** 2)).ravel()
    s_col, q_col, log_norm = data.e_s[:, None], q[:, None], data.e_log_norm

    def log_g(t, decay, out, scratch):
        # log_norm - s t - q e^-t, into out; scratch takes q e^-t.
        np.multiply(s_col, t, out)
        np.subtract(log_norm, out, out)
        np.multiply(q_col, decay, scratch)
        return np.subtract(out, scratch, out)

    # Shift f_i by its per-population peak; the un-truncated maximizer of
    # the sigma^2 profile sits at sigma^2 = S, clipped into [c, d].  The
    # scan is 9 points and that point as a tenth column.  The 9 points
    # are np.linspace(t_lo, t_hi, 9), formed by linspace's own arithmetic,
    # which returns both ends exactly, so the scan's first and ninth
    # columns are the integrand at sigma^2 = c and at sigma^2 = d.
    # linspace divides before it multiplies only when the step rounds to
    # zero, which differs from this only for a subnormal t_hi - t_lo, and
    # that cannot occur: t_lo = log c is 0 or at least 1.1e-16 in
    # magnitude, and dt is at least 1.1e-16, so t_hi - t_lo is 0 or far
    # above the subnormal range.  At 0 both give t_lo throughout.
    t_scan = np.empty((p, 10))
    row = t_scan[:, :9]
    np.multiply(_SCAN, (t_hi - t_lo) / 8, row)
    row += t_lo_0d
    row[:, 8] = t_hi
    np.log(np.minimum(np.maximum(data.var, hyper.c), hyper.d), t_scan[:, 9])
    # log g_i is concave in t and peaks at log(q/s), clipped into the
    # interval: at the right end when s = 0, at the left end when q = 0.
    # s = q = 0 (n = 2, S = 0, mean on the edge) is flat; any end will do.
    # log g_i - t peaks at log(q/(s+1)), with s + 1 = n/2 > 0.  One log_g
    # call takes both peaks and, as its last two columns, the corners of
    # the box at sigma^2 = c and d.
    t_peaks = np.empty((2 * p, 4))
    q_over_s = np.empty(2 * p)
    q_over_s.fill(np.inf)
    np.log(np.divide(q, data.e_s, out=q_over_s, where=data.e_s_positive), t_peaks[:, 0])
    np.log(q / data.e_s_plus_one, t_peaks[:, 1])
    t_peaks[:, 2] = t_lo
    t_peaks[:, 3] = t_hi
    np.maximum(t_peaks, t_lo_0d, out=t_peaks)
    np.minimum(t_peaks, t_hi, out=t_peaks)
    decay_peaks = np.exp(-t_peaks)
    log_peaks = log_g(t_peaks, decay_peaks, np.empty((2 * p, 4)), decay_peaks)
    e_shifts = [log_peaks[:, 0], log_peaks[:, 1] - t_peaks[:, 1]]
    # Set by the integrand's first call, from the scan.
    shifts = ends = None

    def integrand(u):
        nonlocal shifts, ends
        k = len(u)
        t = (u + t_lo_0d)[None, :]
        decay = np.exp(-t)
        # The f rows, the E rows and the F rows, log g - t; the F rows
        # hold q e^-t until then.
        out = np.empty((5 * p, k))
        log_e, log_e_over_var = out[p:3 * p], out[3 * p:]
        log_g(t, decay, log_e, log_e_over_var)
        np.subtract(log_e, t, log_e_over_var)
        if shifts is None:
            t_first = np.empty((p, k + 10))
            t_first[:, :k] = t
            t_first[:, k:] = t_scan
            first = _log_mu_integral(t_first, data, side, np.exp(-t_first))
            shifts = np.concatenate([_max_reduce(first[0][:, k:] + t_scan, axis=1), *e_shifts])
            shifts = np.where(np.isfinite(shifts), shifts, 0.0)[:, None]
            ends = tuple(v[:, k::8] for v in first)
            log_mu = first[0][:, :k]
        else:
            log_mu = _log_mu_integral(t, data, side, decay)[0]
        np.add(log_mu, t, out[:p])
        np.subtract(out, shifts, out)
        return np.exp(out, out)

    value, _err = integrate_adaptive(integrand, 0.0, dt)
    log_all = shifts[:, 0] + np.log(value)
    log_corners = (log_peaks[:, 2:] - t_peaks[:, 2:]).reshape(2, p, 2)
    return log_all[:p], log_all[p:].reshape(4, p), log_corners, ends


# A face's coordinates lifted to (a, b, c, d): the shared coordinate of a
# collapsed side splits in halves, and the side's block of the Hessian
# gains 2K times _SPLIT, K being the face's curvature coefficient.
_MEAN_LIFT = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_VARIANCE_LIFT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.5]])
_CORNER_LIFT = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]])
_SPLIT = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _log_mean_face_integrals(data: _UniData, hyper: UniHyperparams):
    """Per-population log E_i(m), log F_i(m) and log G_i(m), shape (3, P),
    on the mean face a = b = m, and log l_i(m, sigma^2) at sigma^2 = c and
    d, shape (P, 2).

    E, F and G integrate the likelihood, the likelihood over sigma^2 and
    the likelihood over sigma^4, with mu at m, over [c, d]: in
    t = log(sigma^2) the rows g_i(t) e^(-k t), k = 0, 1, 2, with g_i as
    in ``_log_sigma_integrals``.  Each row is shifted by its maximum, at
    log(q_i / (s_i + k)) clipped into the interval, and all 3P rows share
    one adaptive quadrature over the same u = t - log(c) as there.
    """
    t_lo, dt = _log_variance_side(hyper)
    p = len(data.n)
    q = np.tile(_HALF * (data.scatter + data.n * (data.xbar - hyper.a) ** 2), 3)[:, None]
    power = (data.e_s[:p] + np.arange(3.0)[:, None]).reshape(-1, 1)
    log_norm = np.tile(data.e_log_norm[:p], (3, 1))

    def log_rows(t):
        return log_norm - power * t - q * np.exp(-t)

    # The rows peak where power = q e^-t; a row with power 0 (n = 2, k = 0)
    # rises throughout, and q = 0 puts the peak at the left end.
    with np.errstate(divide="ignore"):
        peaks = np.log(np.divide(q, power, out=np.full_like(q, np.inf), where=power > 0))
    shifts = log_rows(np.clip(peaks, t_lo, t_lo + dt))
    shifts[~np.isfinite(shifts)] = 0.0
    value, _err = integrate_adaptive(lambda u: np.exp(log_rows(u + t_lo) - shifts), 0.0, dt)
    log_ends = log_rows(np.array([t_lo, t_lo + dt]))[p:2 * p]
    return (shifts[:, 0] + np.log(value)).reshape(3, p), log_ends


def _mean_face_log_marginal(data: _UniData, hyper: UniHyperparams):
    """The marginal on the mean face a = b = m of ``hyper``, its gradient
    and Hessian in (m, c, d), and the coefficient K_mu of its rise off the
    face.

    The value is sum_i log E_i(m) - P log(d - c).  With x_i = n_i (xbar_i
    - m), E_i' = x_i F_i and E_i'' = x_i^2 G_i - n_i F_i are the first two
    derivatives of E_i in m, and the c and d derivatives are those of the
    interior with E_i for I_i and the likelihood l_i(m, .) for L_i.  A box
    of width w centred on m has the marginal F + K_mu w^2 + O(w^4), with
    F the face value and K_mu = sum_i E_i'' / (24 E_i).  Returns (value,
    grad, hess, K_mu); at a -inf value, or where (d - c)^2 leaves the
    float range, the gradient, the Hessian and K_mu are NaN.
    """
    (log_e, log_f, log_g), log_ends = _log_mean_face_integrals(data, hyper)
    p = len(data.n)
    c, d = hyper.c, hyper.d
    if _or_reduce(log_e == _NEG_INF):
        return -math.inf, np.full(3, math.nan), np.full((3, 3), math.nan), math.nan
    value = float(_add_reduce(log_e) - p * math.log(d - c))
    squares = _powers_in_range((d - c, 2))
    if squares is None:
        return value, np.full(3, math.nan), np.full((3, 3), math.nan), math.nan
    n = data.n
    x = n * (data.xbar - hyper.a)
    f_e, g_e = np.exp(log_f - log_e), np.exp(log_g - log_e)
    l_c, l_d = np.exp(log_ends - log_e[:, None]).T
    pull = x * f_e
    bend = x * x * g_e - n * f_e
    q = 0.5 * (data.scatter + x * (data.xbar - hyper.a))
    slope_c = (q / c - 0.5 * n) / c
    slope_d = (q / d - 0.5 * n) / d
    g_m = float(_add_reduce(pull))
    h_mc = float(_add_reduce((pull - x / c) * l_c))
    h_md = float(_add_reduce((x / d - pull) * l_d))
    box = p / squares[0]
    h_cc = box - float(_add_reduce((slope_c + l_c) * l_c))
    h_dd = box + float(_add_reduce((slope_d - l_d) * l_d))
    h_cd = float(_add_reduce(l_c * l_d)) - box
    grad = np.array([g_m, p / (d - c) - float(_add_reduce(l_c)), float(_add_reduce(l_d)) - p / (d - c)])
    hess = np.array([
        float(_add_reduce(bend - pull * pull)), h_mc, h_md,
        h_mc, h_cc, h_cd,
        h_md, h_cd, h_dd,
    ]).reshape(3, 3)
    return value, grad, hess, float(_add_reduce(bend)) / 24.0


def _corner_log_marginal(data: _UniData, m, c):
    """The marginal at the corner a = b = m, c = d: the Gaussian log
    likelihood sum_i log l_i(m, c), in closed form, with its gradient and
    Hessian in (a, b, c, d) as ``uni_log_marginal_likelihood`` gives them
    on a face: each side's two derivatives are half of the likelihood's
    derivative in m or in c, and each side adds its +-2K terms, with the
    point mass standing for the other side's integral."""
    n = data.n
    x = n * (data.xbar - m)
    # q_i / c, and the log likelihood's derivatives in m and in c, per
    # population; dividing by c one factor at a time keeps them in range.
    q_c = 0.5 * (data.scatter + x * (data.xbar - m)) / c
    value = float(_add_reduce(-0.5 * n * (_LOG_2PI + math.log(c)) - q_c))
    l_m = x / c
    l_c = (q_c - 0.5 * n) / c
    l_mm = -n / c
    l_cc = (0.5 * n - 2.0 * q_c) / c / c
    grad = np.array([float(_add_reduce(l_m)), float(_add_reduce(l_c))])
    h_mc = float(_add_reduce(-l_m / c))
    hess = np.array([float(_add_reduce(l_mm)), h_mc, h_mc, float(_add_reduce(l_cc))]).reshape(2, 2)
    hess = _CORNER_LIFT @ hess @ _CORNER_LIFT.T
    hess[:2, :2] += float(_add_reduce(l_mm + l_m * l_m)) / 12.0 * _SPLIT
    hess[2:, 2:] += float(_add_reduce(l_cc + l_c * l_c)) / 12.0 * _SPLIT
    return value, _CORNER_LIFT @ grad, hess


def _powers_in_range(*pairs):
    """``base ** exponent`` for each ``(base, exponent)`` pair, or None if
    one leaves the float range: a float power raises ``OverflowError``
    above it and rounds to zero below it, and the derivatives divide by
    these powers.  The face passes c^3 only for its overflow, which comes
    before that of the c * c it also divides by."""
    try:
        powers = [base**exponent for base, exponent in pairs]
    except OverflowError:
        return None
    return None if 0.0 in powers else powers


# ``verify`` calls it outside the public marginal's error state.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
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
    at a -inf value the gradient, the Hessian and K are NaN, and so are
    they when c^3 overflows or (b - a)^2 leaves the float range, by
    overflow or by underflow to zero.
    """
    t = np.array([[math.log(c)]])
    at_c = _log_mu_integral(t, data, _mean_side(data, a, b), np.exp(-t))
    log_l, lo, hi, log_phi_diff = (v[:, 0] for v in at_c)
    n, scatter = data.n, data.scatter
    p = len(n)
    if _or_reduce(log_l == _NEG_INF):
        return -math.inf, np.full(3, math.nan), np.full((3, 3), math.nan), math.nan
    value = float(_add_reduce(log_l - math.log(b - a)))
    powers = _powers_in_range((max(c, 1.0), 3), (b - a, 2))
    if powers is None:
        return value, np.full(3, math.nan), np.full((3, 3), math.nan), math.nan
    width_sq = powers[1]
    # c^3 leaves the normal range below c of about 2.8e-103 and is zero
    # below 1.7e-108; there the scatter term divides by c three times.
    c_cubed = c**3
    scatter_term = scatter / c_cubed if c_cubed >= _MIN_NORMAL else scatter / c / c / c
    l1, d1, r_lo, r_hi = (v[:, 0] for v in _log_l_slope(data, c, *at_c[1:]))
    d2 = (r_hi * hi * (3.0 - hi * hi) - r_lo * lo * (3.0 - lo * lo)) / (4.0 * c * c)
    l2 = 0.5 * (n - 1.0) / (c * c) - scatter_term + d2 - d1 * d1
    k = np.sqrt(n / c)
    grad = np.array([
        p / (b - a) - float(_add_reduce(r_lo * k)),
        float(_add_reduce(r_hi * k)) - p / (b - a),
        float(_add_reduce(l1)),
    ])
    box = p / width_sq
    # r_b z_b - r_a z_a - 1, shared by the (a, c) and (b, c) entries
    pull = r_hi * hi - r_lo * lo - 1.0
    hac = -float(_add_reduce(k * r_lo * (lo * lo + pull))) / (2.0 * c)
    hbc = float(_add_reduce(k * r_hi * (hi * hi + pull))) / (2.0 * c)
    hab = float(_add_reduce(k * k * r_lo * r_hi)) - box
    haa = float(_add_reduce(k * k * (lo * r_lo - r_lo * r_lo))) + box
    hbb = box - float(_add_reduce(k * k * (hi * r_hi + r_hi * r_hi)))
    hess = np.array([haa, hab, hac, hab, hbb, hbc, hac, hbc, float(_add_reduce(l2))]).reshape(3, 3)
    return value, grad, hess, float(_add_reduce(l2 + l1 * l1)) / 24.0


def _mean_face(data: _UniData, hyper: UniHyperparams):
    """``_mean_face_log_marginal`` in (a, b, c, d), as
    ``uni_log_marginal_likelihood`` gives it."""
    value, (gm, gc, gd), face_hess, curvature = _mean_face_log_marginal(data, hyper)
    hess = _MEAN_LIFT @ face_hess @ _MEAN_LIFT.T
    hess[:2, :2] += 2.0 * curvature * _SPLIT
    return value, np.array([0.5 * gm, 0.5 * gm, gc, gd]), hess


def _variance_face(data: _UniData, hyper: UniHyperparams):
    """The marginal on the variance face c == d, or at the corner when a ==
    b as well, with its gradient and Hessian in (a, b, c, d) as
    ``uni_log_marginal_likelihood`` gives them; it needs no quadrature."""
    if hyper.a == hyper.b:
        return _corner_log_marginal(data, hyper.a, hyper.c)
    value, (ga, gb, gc), face_hess, curvature = _face_log_marginal(
        data, hyper.a, hyper.b, hyper.c
    )
    hess = _VARIANCE_LIFT @ face_hess @ _VARIANCE_LIFT.T
    hess[2:, 2:] += 2.0 * curvature * _SPLIT
    return value, np.array([ga, gb, 0.5 * gc, 0.5 * gc]), hess


# Far boxes overflow q and take the log of zero on the way to -inf.
@np.errstate(divide="ignore", over="ignore")
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
    return shape.  At a -inf value the gradient and the Hessian are NaN,
    and so are they when the square of a side leaves the float range, by
    overflow or by underflow to zero.  Below c of about 1.5e-154 the
    square of c underflows to zero in the slope of L_i at c, and the
    (c, c) entry is NaN.  Neither path warns in these cases, but numpy
    still reports an invalid operation anywhere else in the marginal.

    On the variance face c == d the prior on sigma^2 is a point mass and
    the value is the d -> c limit, sum_i log L_i(c) - P log(b-a), which
    needs no quadrature.  The derivatives there are those of the limit
    too: near the face the marginal is F((c+d)/2) + K (d-c)^2 + O((d-c)^4),
    with F the face value and K the coefficient of ``_face_log_marginal``,
    so the c and d derivatives are each half of F's derivative in c, and
    the (c, c), (d, d) and (c, d) entries are F''/4 + 2K, F''/4 + 2K and
    F''/4 - 2K.  The mean face a == b mirrors it: the value is the b -> a
    limit, sum_i log E_i(a) - P log(d-c), from one quadrature of the E, F
    and G rows at mu = a (G_i integrates the likelihood over sigma^4), and
    the a and b derivatives are each half of the face value's derivative
    in m = a, with the coefficient K_mu of ``_mean_face_log_marginal`` in
    the (a, b) block.  At the corner a == b, c == d the value is the
    Gaussian log likelihood at (a, c), and each side takes the face's
    convention.

    Raises
    ------
    QuadratureError
        If adaptive quadrature fails to converge; carries partial results.
    """
    data = stats_list if isinstance(stats_list, _UniData) else _UniData(stats_list)
    if hyper.a == hyper.b or hyper.c == hyper.d:
        face = _variance_face if hyper.c == hyper.d else _mean_face
        value, grad, hess = face(data, hyper)
        return (value, grad, hess) if hessian else value
    log_int, log_edges, log_corners, (log_l, lo, hi, log_phi_diff) = _log_sigma_integrals(
        data, hyper
    )
    mean_side, var_side = hyper.b - hyper.a, hyper.d - hyper.c
    log_box = math.log(mean_side) + math.log(var_side)
    if _or_reduce(log_int == _NEG_INF):
        return (-math.inf, np.full(4, math.nan), np.full((4, 4), math.nan)) if hessian else -math.inf
    value = float(_add_reduce(log_int - log_box))
    if not hessian:
        return value
    squares = _powers_in_range((mean_side, 2), (var_side, 2))
    if squares is None:
        return value, np.full(4, math.nan), np.full((4, 4), math.nan)
    mean_sq, var_sq = squares
    n, xbar, p = data.n, data.xbar, len(data.n)
    # E_i(a), E_i(b), F_i(a), F_i(b), and L_i at c and d, each over I_i
    e_a, e_b, f_a, f_b = np.exp(log_edges - log_int)
    l_ends = np.exp(log_l - log_int[:, None])
    # grad I_i / I_i, one column per population
    pulls = np.empty((4, p))
    np.negative(e_a, pulls[0])
    pulls[1] = e_b
    np.negative(l_ends[:, 0], pulls[2])
    pulls[3] = l_ends[:, 1]
    grad = _add_reduce(pulls, axis=1) + np.array(
        [p / mean_side, -(p / mean_side), p / var_side, -(p / var_side)]
    )
    (c_ac, c_ad), (c_bc, c_bd) = _add_reduce(np.exp(log_corners - log_int[:, None]), axis=1).tolist()
    # Below c of about 1.5e-154 the square of c underflows to zero in the
    # slope, which is then infinite, and its product with L_i(c) is NaN.
    with np.errstate(invalid="ignore"):
        slopes = _log_l_slope(data, np.array([hyper.c, hyper.d]), lo, hi, log_phi_diff)[0]
        rise_c, rise_d = _add_reduce(slopes * l_ends, axis=0).tolist()
    h_aa = -float(_add_reduce(n * (xbar - hyper.a) * f_a))
    h_bb = float(_add_reduce(n * (xbar - hyper.b) * f_b))
    # P B: the second derivatives of -P log(b - a) - P log(d - c)
    ab_in, ab_out = p * (1.0 / mean_sq), p * (-1.0 / mean_sq)
    cd_in, cd_out = p * (1.0 / var_sq), p * (-1.0 / var_sq)
    h_sum = np.array([
        h_aa, 0.0, c_ac, -c_ad,
        0.0, h_bb, -c_bc, c_bd,
        c_ac, -c_bc, -rise_c, 0.0,
        -c_ad, c_bd, 0.0, rise_d,
    ]).reshape(4, 4)
    box = np.array([
        ab_in, ab_out, 0.0, 0.0,
        ab_out, ab_in, 0.0, 0.0,
        0.0, 0.0, cd_in, cd_out,
        0.0, 0.0, cd_out, cd_in,
    ]).reshape(4, 4)
    return value, grad, h_sum - pulls @ pulls.T + box


# A side whose squared width, in the search's units, is below this is
# evaluated on its face, as the face value plus its first-order rise; the
# uni-gradient suite of ``verify`` checks both sides of the switch.
_FACE_BELOW = 1e-6


def _searched(value, grad, hess, box: UniHyperparams, m_scale, sides):
    """The marginal's value, gradient and Hessian in (a, b, c, d), at
    ``box``, taken to the search coordinates (m / m_scale, s_mu, l,
    s_sigma) by the chain rule.  ``sides`` holds, for the mean and the
    variance side, the triple (r, k, s) with r = w or u the side's width
    coordinate and r^2 = k s; r = 0 is the side's face.

    First to (m, w, l, u), with a, b = m -+ w/2 and c, d = e^(l -+ u),
    whose second derivatives in l and u add c g_c + d g_d to the (l, l)
    and (u, u) entries and d g_d - c g_c to (l, u).  Then to s = r^2 / k.
    Inside the box r = sqrt(k s) adds g_r (-k^2 / (4 r^3)) to the (s, s)
    entry.  On a face the marginal is even in r, so its derivative in s
    is k/2 times its second derivative in r, and that rise is added to the
    value; the second derivatives in s are left at zero there.
    """
    c, d = box.c, box.d
    jac = np.array([
        1.0, -0.5, 0.0, 0.0,
        1.0, 0.5, 0.0, 0.0,
        0.0, 0.0, c, -c,
        0.0, 0.0, d, d,
    ]).reshape(4, 4)
    g = jac.T @ grad
    h = jac.T @ hess @ jac
    h[2:, 2:] += np.array([[g[2], g[3]], [g[3], g[2]]])
    scale = np.array([m_scale, 0.0, 1.0, 0.0])
    extra = np.zeros(4)
    rise = np.zeros(4)
    for i, (r, k, s) in zip((1, 3), sides):
        if r == 0.0:
            rise[i] = 0.5 * k * h[i, i]
            # Where the derivatives leave the float range the value stays
            # the face's, and the step is rejected on its derivatives.
            if math.isfinite(rise[i]):
                value += rise[i] * s
        else:
            scale[i] = 0.5 * k / r
            extra[i] = -g[i] * k * k / (4.0 * r * r * r)
    return value, scale * g + rise, scale[:, None] * h * scale + np.diag(extra)


def learn_uni(stats_list: Sequence[SufficientStats]) -> UniHyperparams:
    """Learn the box bounds by type-II maximum likelihood.

    The maximizing box is typically much narrower than the spread of the
    sample means (clamping noisy means toward the consensus is what makes
    the box prior useful), so the search starts from a standard-error
    sized box at the median rather than one spanning the data; a spanning
    start has to ride a nearly flat width ridge for many steps.  The
    start's variance side is [v0/5, 2 v0], with v0 the median sample
    variance.  It reaches further below v0 than above it: the likelihood
    often has two maxima joined by a ridge, one on the variance face near
    v0 and a wide box reaching far below it, and a start centred on v0
    lies near the saddle between them.  From [v0/2.5, 2.5 v0], 2 of the
    200 trials of example 1 at seed 2026 end on the face 0.13 and 0.23
    nats below the wide box.  The floors that keep the start box proper
    when most populations have no scatter are multiples of the data's own
    scales, so the start box scales with the data's units.

    The search runs over (m, s_mu, l, s_sigma), with a, b = m -+ w/2,
    s_mu = (w / w0)^2, c, d = e^(l -+ u) and s_sigma = (u / u0)^2, where
    w0 and e^(l0 -+ u0) are the start box's sides; m is centred on the
    start and scaled by w0, and l centred on l0.  A change of units
    x -> s x + t moves the starting point with the data, so the search
    takes the same steps and the learned box moves with the data.  The
    marginal is an average over the box, so it is even in w and in u, and
    smooth in their squares.  So each face of the box, a = b or c = d, is
    the bound s = 0, and the derivative there is the face's curvature
    coefficient.  Below s = 1e-6 a side is evaluated on its face, as the
    face value plus that derivative times s; ``verify``'s uni-gradient
    suite checks the switch.

    The search is Newton's method on the exact gradient and Hessian,
    damped where the Hessian is not safely negative definite, with the
    two bounds kept by an active set (see ``optim``).  A fit whose
    likelihood rises toward a face ends exactly on it, with a == b or
    c == d.  On the 200 trials of example 1 at seed 2026 a fit takes 4.4
    quadrature-backed marginal evaluations and 5.8 on the variance face
    or the corner, which need no quadrature.

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
        On non-convergence, as when the derivatives at the start box leave
        the float range; names and carries the box where the search
        stopped, and carries its objective.
    NumericalError
        If a Newton step is not finite, or the start box's variance side
        underflows (a largest sample variance deep in the subnormal range).
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
    # The floors are multiples of the data's own scales, so they move with
    # its units: the largest sample variance is positive, as some
    # population has scatter, and so is its square root.
    var_max = float(var.max())
    pad = max(float(np.median(se)), 1e-9 * max(math.sqrt(var_max), float(np.abs(xbar).max())))
    w0 = max(2.0 * pad, 0.5 * span)
    v0 = max(float(np.median(var)), pad * pad, 1e-12 * var_max)
    c0, d0 = v0 / 5.0, 2.0 * v0
    if c0 == 0.0:
        # Only a largest sample variance deep in the subnormal range gets here.
        raise NumericalError(
            f"the start box's variance side underflows: largest sample variance {var_max!r}"
        )
    m0 = float(np.median(xbar))
    l0 = 0.5 * (math.log(c0) + math.log(d0))
    u0 = 0.5 * (math.log(d0) - math.log(c0))
    k_mu, k_sigma = w0 * w0, u0 * u0

    def box(z):
        # The search point as a box, with its sides' width coordinates w
        # and u; 0 is the face.
        s_mu, s_sigma = float(z[1]), float(z[3])
        w = 0.0 if s_mu < _FACE_BELOW else math.sqrt(k_mu * s_mu)
        u = 0.0 if s_sigma < _FACE_BELOW else math.sqrt(k_sigma * s_sigma)
        m, l = m0 + w0 * float(z[0]), l0 + float(z[2])
        return UniHyperparams(m - 0.5 * w, m + 0.5 * w, exp_clipped(l - u), exp_clipped(l + u)), w, u

    # The variance face and the corner go through a private helper, never
    # the public marginal, so every public marginal evaluation runs one
    # quadrature.
    def objective(z):
        hyper, w, u = box(z)
        if hyper.c == hyper.d:
            value, grad, hess = _variance_face(data, hyper)
        else:
            value, grad, hess = uni_log_marginal_likelihood(data, hyper, hessian=True)
        sides = ((w, k_mu, float(z[1])), (u, k_sigma, float(z[3])))
        return _searched(value, grad, hess, hyper, w0, sides)

    bounds = [-math.inf, 0.0, -math.inf, 0.0]
    result = maximize(objective, [0.0, 1.0, 0.0, 1.0], hessian=True, lower=bounds)
    stop = box(result.point)[0]
    if not result.converged:
        raise OptimizationError(
            f"learn_uni did not converge at box (a, b, c, d) = {(stop.a, stop.b, stop.c, stop.d)!r}",
            best_point=(stop.a, stop.b, stop.c, stop.d),
            best_objective=result.objective,
        )
    return stop


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
