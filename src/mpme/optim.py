"""Derivative-free maximization with Nelder-Mead.

The marginal-likelihood surfaces this package optimizes are smooth but
have no cheap gradients, so a simplex search with deterministic restarts
is used everywhere.  Reflection, expansion, contraction and shrink
coefficients are 1, 2, 0.5 and 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DataError, NumericalError

__all__ = ["OptimResult", "maximize"]


# A run stops when the simplex diameter falls below _X_TOL or the spread
# of objective values across the simplex falls below _F_TOL, whichever
# happens first, or after _MAX_ITERS iterations.  maximize restarts the
# search _RESTARTS times; every initial simplex steps each coordinate by
# _SIMPLEX_SCALE * max(1, |x_i|).
_MAX_ITERS = 2000
_X_TOL = 1e-8
_F_TOL = 1e-10
_RESTARTS = 2
_SIMPLEX_SCALE = 0.1


@dataclass(frozen=True)
class OptimResult:
    """Outcome of a maximization.

    ``trace`` records ``(iteration, best objective so far)`` pairs across
    all restarts, so the recorded objective is non-decreasing.
    ``converged`` is true only if every restart terminated on a tolerance
    rather than on the iteration cap.
    """

    point: tuple[float, ...]
    objective: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...]


def _check_value(fx: float, x: np.ndarray) -> float:
    if math.isnan(fx):
        point = ", ".join(repr(float(t)) for t in x)
        raise NumericalError(f"objective returned NaN at point ({point})")
    return fx


def _nelder_mead(neg_f: Callable, x0: np.ndarray):
    """Minimize ``neg_f`` from ``x0``; returns (x, fx, iterations, converged, values_per_iter).

    Vertices and values are kept as Python floats, which is several times
    cheaper than small-array arithmetic for the few dimensions used here;
    each vertex is handed to ``neg_f`` as an array.  The centroid is a
    sequential sum from 0.0 divided by ``dim``, as ``mean(axis=0)``
    computes it, so every vertex keeps the bits of the array arithmetic.
    """
    dim = len(x0)

    def evaluate(v):
        x = np.array(v)
        return _check_value(neg_f(x), x)

    simplex = [x0.tolist()]
    for i in range(dim):
        v = x0.tolist()
        v[i] += _SIMPLEX_SCALE * max(1.0, abs(v[i]))
        simplex.append(v)
    values = [evaluate(v) for v in simplex]

    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    best_per_iter = []
    iterations = 0
    converged = False
    for iterations in range(_MAX_ITERS + 1):
        # A stable sort: tied vertices keep their order.
        order = sorted(range(dim + 1), key=values.__getitem__)
        simplex = [simplex[k] for k in order]
        values = [values[k] for k in order]
        best = simplex[0]
        best_per_iter.append(values[0])
        diameter = max([abs(p - b) for v in simplex[1:] for p, b in zip(v, best)])
        # The values are sorted, so the ends are finite only if all are.
        finite = math.isfinite(values[0]) and math.isfinite(values[-1])
        spread = values[-1] - values[0] if finite else math.inf
        if diameter < _X_TOL or spread < _F_TOL:
            converged = True
            break
        if iterations == _MAX_ITERS:
            break

        centroid = [0.0] * dim
        for v in simplex[:-1]:
            centroid = [c + p for c, p in zip(centroid, v)]
        centroid = [c / dim for c in centroid]
        worst = simplex[-1]
        xr = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        fr = evaluate(xr)
        if fr < values[0]:
            xe = [c + gamma * (r - c) for c, r in zip(centroid, xr)]
            fe = evaluate(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc = [c + beta * (r - c) for c, r in zip(centroid, xr)]
            else:
                xc = [c - beta * (c - w) for c, w in zip(centroid, worst)]
            fc = evaluate(xc)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for k in range(1, dim + 1):
                    simplex[k] = [b + delta * (p - b) for b, p in zip(best, simplex[k])]
                    values[k] = evaluate(simplex[k])
    i_best = min(range(dim + 1), key=values.__getitem__)
    return np.array(simplex[i_best]), values[i_best], iterations, converged, best_per_iter


def maximize(
    objective: Callable[[Sequence[float]], float],
    init: Sequence[float],
) -> OptimResult:
    """Maximize a scalar objective with Nelder-Mead plus restarts.

    Restart ``r`` starts from the best point found so far, displaced by a
    fixed pseudo-random direction (seeded only by ``r``), so the whole
    search is deterministic.  The returned point never scores below the
    initial point.

    Raises
    ------
    NumericalError
        If the objective evaluates to NaN; the offending point is named.
        Values of -inf are allowed and treated as "worse than anything".
    """
    x0 = np.asarray(init, dtype=float)
    if x0.ndim != 1 or len(x0) == 0 or not np.all(np.isfinite(x0)):
        raise DataError(f"init point must be a finite 1-d vector, got {init!r}")

    def neg_f(x):
        return -float(objective(x))

    best_x = x0.copy()
    best_v = _check_value(neg_f(x0), x0)
    trace: list[tuple[int, float]] = []
    total_iters = 0
    all_converged = True
    for r in range(_RESTARTS + 1):
        if r == 0:
            start = x0
        else:
            rng = np.random.default_rng(2654435761 + r)
            step = rng.standard_normal(len(x0))
            start = best_x + _SIMPLEX_SCALE * step * np.maximum(1.0, np.abs(best_x))
        x, v, iters, conv, per_iter = _nelder_mead(neg_f, np.asarray(start, dtype=float))
        all_converged = all_converged and conv
        running = best_v
        for k, val in enumerate(per_iter):
            running = min(running, val)
            trace.append((total_iters + k, -running))
        total_iters += iters
        if v < best_v:
            best_x, best_v = x, v
    return OptimResult(
        point=tuple(float(t) for t in best_x),
        objective=float(-best_v),
        iterations=total_iters,
        converged=all_converged,
        trace=tuple(trace),
    )
