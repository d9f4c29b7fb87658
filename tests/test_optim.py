import math

import numpy as np
import pytest

from mpme.core import DataError, NumericalError
from mpme import optim
from mpme.optim import OptimResult, _check_value, _nelder_mead, maximize


def test_maximize_quadratic():
    target = np.array([1.5, -2.0])

    def f(x):
        d = np.asarray(x) - target
        return -float(d @ d)

    res = maximize(f, [0.0, 0.0])
    assert res.converged
    # f_tol = 1e-10 terminates when the objective is flat to 1e-10, which
    # on a quadratic bowl pins the point only to ~1e-5.
    assert res.point == pytest.approx(tuple(target), abs=1e-4)
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_maximize_one_dimensional():
    res = maximize(lambda x: -((x[0] - 3.0) ** 4), [10.0])
    assert res.converged
    assert res.point[0] == pytest.approx(3.0, abs=1e-2)


def test_maximize_never_below_init():
    # A plateau objective: the returned point must not score worse than
    # the starting point.
    def f(x):
        return min(0.0, -abs(x[0]))

    res = maximize(f, [0.0])
    assert res.objective >= f([0.0])


def test_maximize_is_deterministic():
    def f(x):
        return -((x[0] - 1.0) ** 2) - (x[1] + 2.0) ** 2 + 0.1 * math.sin(5.0 * x[0])

    a = maximize(f, [0.3, 0.7])
    b = maximize(f, [0.3, 0.7])
    assert a == b


def test_maximize_trace_monotone():
    res = maximize(lambda x: -(x[0] ** 2), [5.0])
    objs = [v for _, v in res.trace]
    assert all(b >= a for a, b in zip(objs, objs[1:]))
    assert res.objective == pytest.approx(objs[-1])


def test_maximize_neg_inf_is_tolerated():
    def f(x):
        if x[0] < 0:
            return -math.inf
        return -((x[0] - 0.5) ** 2)

    res = maximize(f, [2.0])
    assert res.point[0] == pytest.approx(0.5, abs=1e-5)


def test_maximize_nan_raises():
    # The point is named in plain floats, not numpy scalar reprs.
    with pytest.raises(NumericalError, match=r"NaN at point \(5\.0, 52\.6\)$"):
        maximize(lambda x: math.nan, [5.0, 52.6])

    def f(x):
        # NaN just past the first simplex vertex at 0.9 + 0.1 * 1.0.
        if x[0] > 0.95:
            return math.nan
        return -(x[0] ** 2)

    with pytest.raises(NumericalError, match=r"NaN at point \(1\.0\)$"):
        maximize(f, [0.9])


def test_maximize_rejects_bad_init():
    with pytest.raises(DataError):
        maximize(lambda x: 0.0, [])
    with pytest.raises(DataError):
        maximize(lambda x: 0.0, [math.inf])
    with pytest.raises(DataError):
        maximize(lambda x: 0.0, [[1.0, 2.0]])


def test_converged_requires_all_restarts(monkeypatch):
    # One iteration is never enough to shrink the simplex below the x
    # tolerance on this curved objective, so the cap fires and converged
    # is False.
    monkeypatch.setattr(optim, "_MAX_ITERS", 1)
    res = maximize(lambda x: -(x[0] ** 2) - x[1] ** 4, [3.0, 3.0])
    assert not res.converged
    assert isinstance(res, OptimResult)


def _reference_nelder_mead(neg_f, x0):
    # The array arrangement the float loop replaced; it must keep its bits.
    dim = len(x0)
    simplex = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += optim._SIMPLEX_SCALE * max(1.0, abs(v[i]))
        simplex.append(v)
    simplex = np.array(simplex)
    values = np.array([_check_value(neg_f(v), v) for v in simplex])
    best_per_iter = []
    iterations = 0
    converged = False
    for iterations in range(optim._MAX_ITERS + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        best_per_iter.append(values[0])
        diameter = np.max(np.abs(simplex[1:] - simplex[0]))
        spread = values[-1] - values[0] if np.isfinite(values).all() else math.inf
        if diameter < optim._X_TOL or spread < optim._F_TOL:
            converged = True
            break
        if iterations == optim._MAX_ITERS:
            break
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + 1.0 * (centroid - simplex[-1])
        fr = _check_value(neg_f(xr), xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = _check_value(neg_f(xe), xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - simplex[-1])
            fc = _check_value(neg_f(xc), xc)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for k in range(1, dim + 1):
                    simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                    values[k] = _check_value(neg_f(simplex[k]), simplex[k])
    i_best = int(np.argmin(values))
    return simplex[i_best], values[i_best], iterations, converged, best_per_iter


def _recording(f):
    seen = []

    def neg_f(x):
        assert isinstance(x, np.ndarray)
        seen.append(x.tobytes())  # keeps the sign of zero
        return -float(f(x))

    return neg_f, seen


@pytest.mark.parametrize(
    "f, x0",
    [
        (lambda x: -((x[0] - 3.0) ** 4), [10.0]),
        (lambda x: -abs(x[0]) - 2.0 * abs(x[1]), [0.0, -0.0]),
        (lambda x: -math.inf if x[0] < 0 else -((x[0] - 0.5) ** 2), [2.0]),
        (lambda x: min(0.0, -abs(x[0])) + 0.0 * x[1], [0.0, 1.0]),
        (
            lambda x: -((1.0 - x[0]) ** 2 + 5.0 * (x[1] - x[0] ** 2) ** 2 + x[2] ** 2 + abs(x[3])),
            [-1.2, 1.0, 0.0, -0.0],
        ),
    ],
    ids=["quartic", "signed-zero", "neg-inf", "plateau", "rosenbrock-4d"],
)
@pytest.mark.parametrize("max_iters", [3, 2000])
def test_nelder_mead_keeps_bits(monkeypatch, f, x0, max_iters):
    monkeypatch.setattr(optim, "_MAX_ITERS", max_iters)
    x0 = np.array(x0)
    neg_f, seen = _recording(f)
    got = _nelder_mead(neg_f, x0)
    ref_f, ref_seen = _recording(f)
    want = _reference_nelder_mead(ref_f, x0)
    assert seen == ref_seen
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:4] == want[1:4]
    assert got[4] == want[4]
