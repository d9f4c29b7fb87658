"""Log normal-CDF differences and adaptive quadrature.

One adaptive Gauss-Kronrod routine serves every integral in the package.
It takes finite limits only; a caller with an infinite limit maps it to a
finite interval first (``verify.owen_q`` substitutes ``y = u / (1 - u)``).
The routine is vectorized: the integrand may return one row per component
(e.g. per population), and all components share the same subdivision of
the integration interval.  ``log_normal_cdf_diff``, the UNI marginal's
mean-side integral, takes arrays of interval ends with their exact widths.
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


# The quadrature, the UNI marginal and Newton's method work on arrays of a
# few hundred elements or fewer, where numpy's per-call overhead outweighs
# the arithmetic.  So they reduce through the ufuncs' own ``reduce`` (the
# same loops and the same pairwise summation as ``ndarray.sum/any/all/max``,
# without the Python wrappers those methods go through) and take constant
# operands as 0-d arrays, which numpy takes faster than Python floats and
# rounds alike.  ``prior_uni`` and ``optim`` import these from here.
_add_reduce = np.add.reduce
_or_reduce = np.logical_or.reduce
_and_reduce = np.logical_and.reduce
_max_reduce = np.maximum.reduce
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_NEG_INF = np.array(-np.inf)

# Tolerances and budget of integrate_adaptive.  _MAX_SUBDIVISIONS caps the
# number of interval bisections; exceeding it raises QuadratureError.
_REL_TOL = np.array(1e-9)
_ABS_TOL = np.array(1e-12)
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

_LOG_SQRT_2PI = np.array(0.5 * math.log(2.0 * math.pi))
_NARROW_H_SQ = np.array(2.4e-7)


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray):
    """Evaluate the G7/K15 pair on a batch of intervals.

    Returns per-interval Kronrod estimates and |K15 - G7| error estimates,
    each of shape ``(components, intervals)``.

    The two weighted sums stay ``y @ _WGK`` and ``y[:, :, _GAUSS_IDX] @
    _WG``.  The fancy index stores the Gauss nodes in its outermost axis,
    and each alternative (a contiguous copy, ``np.take``, a strided view,
    one flattened matmul) rounds some sums differently.
    """
    half = _HALF * (b - a)
    mid = _HALF * (a + b)
    x = mid[:, None] + half[:, None] * _XGK
    y = np.asarray(f(x.reshape(-1)), dtype=float)
    y = y.reshape(-1, len(a), 15)
    if not _and_reduce(np.isfinite(y), axis=None):
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

    Notes
    -----
    The loop runs a few times per call on arrays of a few hundred
    elements, where numpy's per-call overhead outweighs the arithmetic.
    So it reduces through the ufuncs' own ``reduce`` (``np.add.reduce``
    and not ``ndarray.sum``: the same loop, without a Python wrapper) and
    takes its constants as 0-d arrays; every value keeps its bits.  The
    GK15 rule's weighted sums are another matter: the Gauss sum gathers
    its nodes with a fancy index, and every cheaper gather rounds some
    sums differently, so ``_gk15`` keeps it.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DataError(f"invalid integration interval [{lo!r}, {hi!r}]")
    a = np.array([lo])
    b = np.array([hi])
    est, err = _gk15(f, a, b)
    splits_left = _MAX_SUBDIVISIONS
    width = np.array(hi - lo)
    while True:
        total = _add_reduce(est, axis=1)
        total_err = _add_reduce(err, axis=1)
        tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        pending = total_err > tol
        if not _or_reduce(pending):
            return total, total_err
        # Split every interval whose error exceeds its width-proportional
        # share of the tolerance for some still-unconverged component.
        err_pending = err[pending]
        share = (b - a) / width
        split = _or_reduce(err_pending > tol[pending, None] * share, axis=0)
        if not _or_reduce(split):
            split[np.argmax(_max_reduce(err_pending, axis=0))] = True
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
        mid = _HALF * (a_split + b_split)
        new_a = np.concatenate([a_split, mid])
        new_b = np.concatenate([mid, b_split])
        new_est, new_err = _gk15(f, new_a, new_b)
        est = np.concatenate([est[:, keep], new_est], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])


def log_normal_cdf_diff(lo, hi, width):
    """log(Phi(hi) - Phi(lo)) without cancellation, elementwise.

    ``lo``, ``hi`` and ``width``, the exact hi - lo, are float arrays of
    one shape with at least one dimension, and so is the result.  Pairs
    lying in the upper tail are reflected to the lower tail where
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

    ``width`` is h in the expansion.  For interval endpoints formed as
    q*x - s and q*y - s the subtraction ``hi - lo`` inherits the
    independent rounding of both endpoints, a relative error of order
    1e-16 / (hi - lo); a caller that knows ``x - y`` exactly supplies
    q*(x - y) and keeps the expansion fully accurate however narrow the
    interval.

    A call works on a few hundred elements, where numpy's per-call
    overhead outweighs the arithmetic.  So the log-space difference runs
    through one buffer with explicit outputs, the -inf entries are set by
    ``np.putmask`` from a 0-d -inf, and the test for narrow intervals is
    the ufunc's own ``reduce``; each value keeps the bits of the plain
    expressions.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # lo = -inf, hi = inf sums to NaN, which is not > 0: not reflected.
        flip = (lo + hi) > _ZERO
        low = np.where(flip, -hi, lo)
        high = np.where(flip, -lo, hi)
        log_hi = _sp.log_ndtr(high)
        log_lo = _sp.log_ndtr(low)
        # log_hi + log1p(-exp(min(log_lo - log_hi, 0))), in place.
        out = np.subtract(log_lo, log_hi)
        np.minimum(out, _ZERO, out=out)
        np.exp(out, out)
        np.negative(out, out)
        np.log1p(out, out)
        np.add(log_hi, out, out)
        # log_ndtr(high) = -inf means even the larger CDF is an exact zero,
        # so the difference is too; the log-space subtraction above gives
        # nan for these.  Such a high is below -1e154; for lo <= hi so is
        # zm, whose square overflows, so no narrow element below overrides it.
        np.putmask(out, (high <= low) | (log_hi == _NEG_INF), _NEG_INF)
        h_sq = width * width
        if _or_reduce(h_sq < _NARROW_H_SQ, axis=None):
            zm = 0.5 * (high + low)
            zm_sq = zm * zm
            narrow = (width > 0) & (h_sq * (zm_sq + 1.0) < _NARROW_H_SQ)
            if _or_reduce(narrow, axis=None):
                # Elementwise, so the narrow elements alone give the same bits.
                h, h_sq, zm_sq = width[narrow], h_sq[narrow], zm_sq[narrow]
                series = h_sq * (zm_sq - 1.0) / 24.0 + h**4 * (
                    zm_sq * (zm_sq - 6.0) + 3.0
                ) / 1920.0
                out[narrow] = -0.5 * zm_sq - _LOG_SQRT_2PI + np.log(h) + np.log1p(series)
    return out
