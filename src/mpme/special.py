"""Log normal-CDF differences and adaptive quadrature.

One adaptive Gauss-Kronrod routine serves every integral in the package.
It takes finite limits only; a caller with an infinite limit maps it to a
finite interval first (``verify.owen_q`` substitutes ``y = u / (1 - u)``).
The routine is vectorized: the integrand may return one row per component
(e.g. per population), and all components share the same subdivision of
the integration interval.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special as _sp

from .core import DataError, QuadratureError

__all__ = [
    "integrate_adaptive",
    "log_normal_cdf_diff",
]


# Tolerances and budget of integrate_adaptive.  _MAX_SUBDIVISIONS caps the
# number of interval bisections; exceeding it raises QuadratureError.
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 200


# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1], symmetric).
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_XGK = np.array([-x for x in _XGK_HALF] + [x for x in reversed(_XGK_HALF[:-1])])
_WGK = np.array(list(_WGK_HALF) + list(reversed(_WGK_HALF[:-1])))
# Gauss nodes are the odd-indexed Kronrod nodes.
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array(list(_WG_HALF) + list(reversed(_WG_HALF[:-1])))

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray):
    """Evaluate the G7/K15 pair on a batch of intervals.

    Returns per-interval Kronrod estimates and |K15 - G7| error estimates,
    each of shape ``(components, intervals)``.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _XGK
    y = np.asarray(f(x.reshape(-1)), dtype=float)
    y = y.reshape(-1, len(a), 15)
    if not np.isfinite(y).all():
        raise QuadratureError("integrand returned a non-finite value")
    k15 = (y @ _WGK) * half
    g7 = (y[:, :, _GAUSS_IDX] @ _WG) * half
    return k15, np.abs(k15 - g7)


def integrate_adaptive(f: Callable, lo: float, hi: float):
    """Adaptively integrate a vector-valued function over [lo, hi].

    Parameters
    ----------
    f : callable
        Maps a 1-d array of abscissae to integrand values, either shape
        ``(k,)`` for a scalar integrand or ``(components, k)``.  Every
        component is integrated over one shared, adaptively refined
        subdivision.
    lo, hi : float
        Finite integration limits, ``lo < hi``.

    Returns
    -------
    value, error : ndarray of shape ``(components,)``
        Integral estimates and error bounds.  Convergence requires every
        component to satisfy ``error <= max(1e-12, 1e-9 * |value|)``.

    Raises
    ------
    QuadratureError
        If the budget of 200 subdivisions is exhausted first; the exception
        carries the best estimate and its error bound.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DataError(f"invalid integration interval [{lo!r}, {hi!r}]")
    a = np.array([lo])
    b = np.array([hi])
    est, err = _gk15(f, a, b)
    splits_left = _MAX_SUBDIVISIONS
    width = hi - lo
    while True:
        total = est.sum(axis=1)
        total_err = err.sum(axis=1)
        tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        pending = total_err > tol
        if not pending.any():
            return total, total_err
        # Split every interval whose error exceeds its width-proportional
        # share of the tolerance for some still-unconverged component.
        err_pending = err[pending]
        share = (b - a) / width
        split = (err_pending > tol[pending, None] * share).any(axis=0)
        if not split.any():
            split[np.argmax(err_pending.max(axis=0))] = True
        n_split = np.count_nonzero(split)
        if n_split > splits_left:
            raise QuadratureError(
                f"quadrature did not converge within "
                f"{_MAX_SUBDIVISIONS} subdivisions",
                estimate=total,
                error_bound=total_err,
            )
        splits_left -= n_split
        keep = ~split
        a_split, b_split = a[split], b[split]
        mid = 0.5 * (a_split + b_split)
        new_a = np.concatenate([a_split, mid])
        new_b = np.concatenate([mid, b_split])
        new_est, new_err = _gk15(f, new_a, new_b)
        est = np.concatenate([est[:, keep], new_est], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])


def log_normal_cdf_diff(lo, hi, width=None):
    """log(Phi(hi) - Phi(lo)) without cancellation, elementwise.

    Pairs lying in the upper tail are reflected to the lower tail where
    ``log_ndtr`` is accurate; the difference is then formed in log space.
    Returns -inf where ``hi <= lo``.

    Narrow intervals switch to a midpoint expansion,

        Phi(z + h/2) - Phi(z - h/2)
            = h phi(z) (1 + h^2 (z^2 - 1) / 24
                          + h^4 (z^4 - 6 z^2 + 3) / 1920 + ...),

    whenever h^2 (z^2 + 1) < 2.4e-7, where the truncation error is below
    1e-16.  The log-space difference degrades there: its inputs carry one
    ulp of absolute error each, so the relative error of the difference
    grows like 1e-16 / (h |z|), which for h ~ 1e-9 is loud enough that
    adaptive quadrature over these values never settles.  Since
    h^2 (z^2 + 1) >= h^2, the mask of narrow elements is built only when
    some h^2 alone is below 2.4e-7; a call on wide intervals skips it.

    ``width``, when given, is used as ``hi - lo`` in the expansion.  For
    interval endpoints formed as q*x - s and q*y - s the subtraction
    ``hi - lo`` inherits the independent rounding of both endpoints, a
    relative error of order 1e-16 / (hi - lo); a caller that knows
    ``x - y`` exactly can supply q*(x - y) and keep the expansion fully
    accurate however narrow the interval.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    flip = (lo + hi) > 0
    low = np.where(flip, -hi, lo)
    high = np.where(flip, -lo, hi)
    log_hi = _sp.log_ndtr(high)
    log_lo = _sp.log_ndtr(low)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.asarray(log_hi + np.log1p(-np.exp(np.minimum(log_lo - log_hi, 0.0))))
        # log_ndtr(high) = -inf means even the larger CDF is an exact zero,
        # so the difference is too; the log-space subtraction above gives
        # nan for these.  Such a high is below -1e154; for lo <= hi so is
        # zm, whose square overflows, so no narrow element below overrides it.
        out[(high <= low) | (log_hi == -np.inf)] = -np.inf
        if width is None:
            h = high - low
        else:
            h = np.asarray(width, dtype=float)
            if h.shape != high.shape:
                h = np.broadcast_to(h, high.shape)
        h_sq = h * h
        if (h_sq < 2.4e-7).any():
            zm = 0.5 * (high + low)
            zm_sq = zm * zm
            narrow = (h > 0) & (h_sq * (zm_sq + 1.0) < 2.4e-7)
            if narrow.any():
                # Elementwise, so the narrow elements alone give the same bits.
                h, h_sq, zm_sq = h[narrow], h_sq[narrow], zm_sq[narrow]
                series = h_sq * (zm_sq - 1.0) / 24.0 + h**4 * (
                    zm_sq * (zm_sq - 6.0) + 3.0
                ) / 1920.0
                out[narrow] = -0.5 * zm_sq - _LOG_SQRT_2PI + np.log(h) + np.log1p(series)
    if out.ndim == 0:
        return float(out)
    return out
