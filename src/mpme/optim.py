"""Maximization: Newton's method for objectives that supply their gradient
and Hessian, Nelder-Mead for those that do not.

The UNI marginal likelihood returns its exact gradient and Hessian, so
its fit runs a deterministic damped Newton method: the Hessian is shifted
until it is safely positive definite, and the shift grows after a step
that fails to improve the value (Nocedal & Wright, Numerical
Optimization, 2006, sec. 3.4).  Lower bounds on chosen coordinates, the
UNI box's faces, are kept by projection with an active set (Bertsekas,
SIAM J. Control Optim. 20:221, 1982).  The NIX fit still uses a simplex
search with deterministic restarts, whose reflection, expansion,
contraction and shrink coefficients are 1, 2, 0.5 and 0.5 (Nelder &
Mead, Computer Journal 7:308, 1965).

Newton's method hands the objective each point as a numpy array.  The
simplex search hands it the list of Python floats it computes with,
which spares an array per evaluation and the numpy scalars read from it.
Its centroid is one pass over the simplex's columns, each summed from
0.0 in vertex order and divided by the dimension, so it has the bits of
the array mean over the vertices.  Its convergence test stops at the
first coordinate gap too wide to pass, and decides as ``max`` over all
gaps would.

``maximize`` owns the floating-point policy of a search: numpy reports
no error inside it, as ``maximize`` itself ranks -inf last and raises on
NaN.  The UNI fit maps log coordinates back through ``exp_clipped``;
``prior_nix._natural`` clips to the same ``_LOG_CLIP`` inline.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import add, le, sub
from typing import Callable, Sequence

import numpy as np

from .core import DataError, NumericalError
from .special import _and_reduce, _max_reduce

__all__ = ["OptimResult", "exp_clipped", "maximize"]


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

# Newton's method stops when every gradient component is below _GRAD_TOL
# in absolute value, or when the decrease of an iteration, achieved or
# predicted for the next step, is at most _REL_DECREASE times the whole
# decrease since the start, or after _MAX_ITERS iterations.  Measuring the
# decrease against the progress made, not against the value, keeps the
# rule blind to an additive constant such as the one a change of data
# units adds to a log-likelihood; the predicted decrease stops the search
# before the achieved one sinks into the rounding of the value.  The
# Hessian is shifted until its smallest eigenvalue is at least the damping
# lambda, which starts at _DAMPING, grows tenfold after a rejected step
# and shrinks tenfold, down to _MIN_DAMPING, after an accepted one.  Each
# step is capped at max-norm _MAX_STEP; after _MAX_REJECTIONS rejected
# steps in a row no decrease is left to find.
_GRAD_TOL = 1e-7
_REL_DECREASE = 1e-12
_MAX_STEP = 4.0
_DAMPING = 1e-3
_MIN_DAMPING = 1e-6
_MAX_REJECTIONS = 20

# A log search coordinate is clipped to +-_LOG_CLIP before exp, in range.
_LOG_CLIP = 700.0


def exp_clipped(z) -> float:
    return math.exp(min(max(z, -_LOG_CLIP), _LOG_CLIP))


@dataclass(frozen=True)
class OptimResult:
    """Outcome of a maximization.

    ``converged`` is false if the iteration cap stopped the search (for
    Nelder-Mead, any of its restarts).
    """

    point: tuple[float, ...]
    objective: float
    iterations: int
    converged: bool


def _point_text(x: Sequence[float]) -> str:
    return "(" + ", ".join(repr(float(t)) for t in x) + ")"


def _check_value(fx: float, x: Sequence[float]) -> float:
    if math.isnan(fx):
        raise NumericalError(f"objective returned NaN at point {_point_text(x)}")
    return fx


def _nelder_mead(neg_f: Callable, x0: np.ndarray):
    """Minimize ``neg_f`` from ``x0``; returns (x, fx, iterations, converged).

    Vertices and values are kept as Python floats, which is several times
    cheaper than small-array arithmetic for the few dimensions used here;
    ``neg_f`` receives each vertex as the list of floats it is, and must
    not modify it.  The centroid is formed in one pass over the columns of
    the simplex without its worst vertex: each coordinate is a sequential
    sum from 0.0, in vertex order, divided by ``dim``, as ``mean(axis=0)``
    computes it, so every vertex keeps the bits of the array arithmetic.
    The simplex is kept in the order a stable sort by value gives: a new
    vertex goes after every vertex whose value it ties, and only a shrink
    sorts the whole simplex again.
    """
    dim = len(x0)
    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5

    simplex = [x0.tolist()]
    for i in range(dim):
        v = x0.tolist()
        v[i] += _SIMPLEX_SCALE * max(1.0, abs(v[i]))
        simplex.append(v)
    values = [_check_value(neg_f(v), v) for v in simplex]
    simplex, values = _stable_sort(simplex, values)

    iterations = 0
    converged = False
    for iterations in range(_MAX_ITERS + 1):
        best = simplex[0]
        gaps = map(abs, map(sub, chain.from_iterable(simplex[1:]), best * dim))
        # The values are sorted, so the ends are finite only if all are.
        finite = math.isfinite(values[0]) and math.isfinite(values[-1])
        if _max_below(gaps, _X_TOL) or (finite and values[-1] - values[0] < _F_TOL):
            converged = True
            break
        if iterations == _MAX_ITERS:
            break

        centroid = [reduce(add, col, 0.0) / dim for col in zip(*simplex[:-1])]
        worst = simplex[-1]
        xr = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        fr = neg_f(xr)
        if fr != fr:
            _check_value(fr, xr)
        if fr < values[0]:
            xe = [c + gamma * (r - c) for c, r in zip(centroid, xr)]
            fe = neg_f(xe)
            if fe != fe:
                _check_value(fe, xe)
            new, f_new = (xe, fe) if fe < fr else (xr, fr)
        elif fr < values[-2]:
            new, f_new = xr, fr
        else:
            if fr < values[-1]:
                xc = [c + beta * (r - c) for c, r in zip(centroid, xr)]
            else:
                xc = [c - beta * (c - w) for c, w in zip(centroid, worst)]
            fc = neg_f(xc)
            if fc != fc:
                _check_value(fc, xc)
            if fc < min(fr, values[-1]):
                new, f_new = xc, fc
            else:
                for k in range(1, dim + 1):
                    v = [b + delta * (p - b) for b, p in zip(best, simplex[k])]
                    fx = neg_f(v)
                    if fx != fx:
                        _check_value(fx, v)
                    simplex[k], values[k] = v, fx
                simplex, values = _stable_sort(simplex, values)
                continue
        del simplex[-1], values[-1]
        k = bisect_right(values, f_new)
        simplex.insert(k, new)
        values.insert(k, f_new)
    return np.array(simplex[0]), values[0], iterations, converged


def _max_below(gaps, tol: float) -> bool:
    """``max(gaps) < tol``, decided at the first gap of at least ``tol``.

    ``max`` keeps a NaN that comes first and passes over one that comes
    later, so a NaN first gap decides False and a later one is ignored.
    """
    gaps = iter(gaps)
    return next(gaps) < tol and not any(map(le, repeat(tol), gaps))


def _stable_sort(simplex: list, values: list):
    """The simplex and its values in ascending order of value; tied
    vertices keep their order."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return [simplex[k] for k in order], [values[k] for k in order]


def _newton(neg_f: Callable, x0: np.ndarray, lower: np.ndarray):
    """Minimize ``neg_f``, which returns ``(value, gradient, Hessian)`` as a
    float and two float arrays, from ``x0`` subject to ``x >= lower``
    (-inf where a coordinate is free); returns (x, fx, iterations,
    converged).

    Each step solves (A + mu I) s = -g, with A the Hessian and
    mu = max(0, lambda - lambda_min(A)), so the shifted Hessian is positive
    definite and an indefinite start still descends (Nocedal & Wright,
    Numerical Optimization, 2006, sec. 3.4).  A trial point whose value
    is infinite, or whose gradient or Hessian is not finite, counts as a
    rejected step, as does one that does not lower the value.  While lambda
    does not exceed lambda_min(A) a rejected step would be tried again
    unchanged, so lambda grows tenfold until it does.  A step that is not
    finite raises ``NumericalError``.

    The bounds are kept by a projected Newton method with an active set
    (Bertsekas, SIAM J. Control Optim. 20:221, 1982).  A coordinate is
    active when it lies on its bound and its gradient pushes it outward;
    it stays there, and the others take the Newton step on their own
    block of g and A.  The trial point is projected onto the bounds, so a
    step that crosses a bound ends on it.  The search stops when every
    component of x - P(x - g), with P the projection onto the bounds, is
    below _GRAD_TOL in absolute value.
    """

    def evaluate(x):
        fx, grad, hess = neg_f(x)
        if fx != fx:  # NaN; _check_value raises, naming the point
            _check_value(fx, x)
        ok = (
            math.isfinite(fx)
            and bool(_and_reduce(np.isfinite(grad), axis=None))
            and bool(_and_reduce(np.isfinite(hess), axis=None))
        )
        return fx, grad, hess, ok

    x = x0
    fx, grad, hess, ok = evaluate(x)
    if not ok:
        return x, fx, 0, False
    f_start = fx
    damping = _DAMPING
    iterations = 0
    while True:
        gap = x - lower
        outward = grad > 0
        projected = float(_max_reduce(np.abs(np.where(outward, np.minimum(grad, gap), grad))))
        if projected < _GRAD_TOL:
            return x, fx, iterations, True
        if iterations == _MAX_ITERS:
            return x, fx, iterations, False
        free = ~(outward & (gap == 0.0))
        eig, vec = np.linalg.eigh(hess[np.ix_(free, free)])
        along = vec.T @ grad[free]
        for _ in range(_MAX_REJECTIONS):
            # When |lambda_min(A)| dwarfs lambda, the shifted smallest
            # eigenvalue rounds to zero and the step overflows.
            step = -(vec @ (along / (eig + max(0.0, damping - eig[0]))))
            if not _and_reduce(np.isfinite(step), axis=None):
                raise NumericalError(f"Newton step is not finite at point {_point_text(x)}")
            if -0.5 * float(grad[free] @ step) <= _REL_DECREASE * (f_start - fx):
                return x, fx, iterations, True
            step *= min(1.0, _MAX_STEP / float(_max_reduce(np.abs(step))))
            x_new = x.copy()
            x_new[free] = np.maximum(x[free] + step, lower[free])
            f_new, grad_new, hess_new, ok = evaluate(x_new)
            if ok and f_new < fx:
                break
            damping *= 10.0
            while damping <= eig[0]:
                damping *= 10.0
        else:
            return x, fx, iterations, True
        damping = max(0.1 * damping, _MIN_DAMPING)
        iterations += 1
        decrease = fx - f_new
        x, fx, grad, hess = x_new, f_new, grad_new, hess_new
        if decrease <= _REL_DECREASE * (f_start - fx):
            return x, fx, iterations, True


@lru_cache(maxsize=None)
def _restart_steps(dim: int) -> tuple[np.ndarray, ...]:
    """The fixed directions of restarts 1 to ``_RESTARTS`` in ``dim``
    dimensions, drawn once and read-only; restart ``r`` draws from the
    generator seeded ``2654435761 + r``."""
    steps = tuple(
        np.random.default_rng(2654435761 + r).standard_normal(dim)
        for r in range(1, _RESTARTS + 1)
    )
    for step in steps:
        step.flags.writeable = False
    return steps


@np.errstate(all="ignore")
def maximize(
    objective: Callable[[Sequence[float]], float],
    init: Sequence[float],
    *,
    hessian: bool = False,
    lower: Sequence[float] | None = None,
) -> OptimResult:
    """Maximize a scalar objective.

    With ``hessian=True`` the objective returns ``(value, gradient,
    Hessian)`` and the search is one deterministic run of Newton's method,
    which keeps each coordinate at or above its entry of ``lower`` (-inf,
    or ``lower`` None, leaves it free; the init point must satisfy the
    bounds).
    Otherwise it is Nelder-Mead plus restarts: restart ``r`` starts from
    the best point found so far, displaced by a fixed pseudo-random
    direction (seeded only by ``r``), so the whole search is deterministic.
    Either way the returned point never scores below the initial point.
    Newton's method passes the objective a numpy array, Nelder-Mead a
    list of floats that the objective must not modify.

    Raises
    ------
    NumericalError
        If the objective evaluates to NaN, or a Newton step is not finite;
        the offending point is named.
        Values of -inf are allowed and treated as "worse than anything".
    """
    x0 = np.asarray(init, dtype=float)
    if x0.ndim != 1 or len(x0) == 0 or not np.all(np.isfinite(x0)):
        raise DataError(f"init point must be a finite 1-d vector, got {init!r}")

    if hessian:

        def neg_f_derivs(x):
            value, grad, hess = objective(x)
            return -float(value), -np.asarray(grad, dtype=float), -np.asarray(hess, dtype=float)

        bounds = np.full(len(x0), -np.inf) if lower is None else np.asarray(lower, dtype=float)
        if bounds.shape != x0.shape or not np.all(x0 >= bounds):
            raise DataError(f"init point {init!r} is outside the lower bounds {lower!r}")
        x, v, iterations, converged = _newton(neg_f_derivs, x0, bounds)
    else:

        def neg_f(x):
            return -float(objective(x))

        # The first search scores x0 as its first vertex, and returns it
        # unless some point scores strictly better.
        x, v, iterations, converged = _nelder_mead(neg_f, x0)
        for step in _restart_steps(len(x0)):
            start = x + _SIMPLEX_SCALE * step * np.maximum(1.0, np.abs(x))
            x_r, v_r, iters, conv = _nelder_mead(neg_f, start)
            iterations += iters
            converged = converged and conv
            if v_r < v:
                x, v = x_r, v_r
    return OptimResult(tuple(float(t) for t in x), float(-v), iterations, converged)
