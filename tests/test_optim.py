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


def _with_gradient(f, grad):
    return lambda x: (f(x), grad(x))


def test_bfgs_quadratic():
    target = np.array([1.5, -2.0, 0.25])
    scales = np.array([1.0, 10.0, 0.1])

    def f(x):
        d = np.asarray(x) - target
        return -float(d @ (scales * d))

    res = maximize(_with_gradient(f, lambda x: -2.0 * scales * (np.asarray(x) - target)),
                   [0.0, 0.0, 0.0], gradient=True)
    assert res.converged
    # The run stops once the next step would gain at most 1e-12 of the
    # progress made (about 40 here), which pins the point to ~1e-5.
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert res.point == pytest.approx(tuple(target), abs=1e-5)
    # A quasi-Newton run needs a handful of iterations on a quadratic.
    assert res.iterations <= 20


def test_bfgs_rosenbrock():
    def f(x):
        return -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    def grad(x):
        return -np.array([
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ])

    res = maximize(_with_gradient(f, grad), [-1.2, 1.0], gradient=True)
    assert res.converged
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert res.point == pytest.approx((1.0, 1.0), abs=1e-4)
    assert res.iterations < 200


def test_bfgs_trace_monotone_and_ends_at_objective():
    res = maximize(_with_gradient(lambda x: -(x[0] ** 4) - x[1] ** 2,
                                  lambda x: np.array([-4.0 * x[0] ** 3, -2.0 * x[1]])),
                   [3.0, -2.0], gradient=True)
    iters = [k for k, _ in res.trace]
    objs = [v for _, v in res.trace]
    assert iters == list(range(res.iterations + 1))
    assert all(b >= a for a, b in zip(objs, objs[1:]))
    assert objs[-1] == res.objective


def test_bfgs_neg_inf_region_is_a_failed_step():
    # Left of zero the objective is -inf and its gradient NaN; the first
    # capped step lands there and has to be halved back.
    def objective(x):
        if x[0] < 0:
            return -math.inf, np.array([math.nan])
        return -((x[0] - 0.5) ** 2), np.array([-2.0 * (x[0] - 0.5)])

    res = maximize(objective, [2.0], gradient=True)
    assert res.converged
    assert res.point[0] == pytest.approx(0.5, abs=1e-8)


def test_bfgs_non_finite_gradient_at_finite_value_is_a_failed_step():
    def objective(x):
        grad = np.array([-2.0 * (x[0] - 0.5)])
        return -((x[0] - 0.5) ** 2), (grad if x[0] < 3.0 else np.array([math.inf]))

    res = maximize(objective, [2.5], gradient=True)
    assert res.converged
    assert res.point[0] == pytest.approx(0.5, abs=1e-8)


def test_bfgs_neg_inf_start_is_not_converged():
    res = maximize(lambda x: (-math.inf, np.array([math.nan])), [1.0], gradient=True)
    assert not res.converged
    assert res.point == (1.0,) and res.objective == -math.inf and res.iterations == 0


def test_bfgs_nan_raises():
    with pytest.raises(NumericalError, match=r"NaN at point \(5\.0, 52\.6\)$"):
        maximize(lambda x: (math.nan, np.zeros(2)), [5.0, 52.6], gradient=True)

    def objective(x):
        # NaN at the first trial point, x0 + 4 (the capped step).
        if x[0] > 4.0:
            return math.nan, np.zeros(1)
        return -((x[0] - 3.0) ** 2), np.array([-2.0 * (x[0] - 3.0)])

    with pytest.raises(NumericalError, match=r"NaN at point \(4\.5\)$"):
        maximize(objective, [0.5], gradient=True)


def test_bfgs_iteration_cap(monkeypatch):
    monkeypatch.setattr(optim, "_MAX_ITERS", 3)

    def f(x):
        return -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    def grad(x):
        return -np.array([
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ])

    res = maximize(_with_gradient(f, grad), [-1.2, 1.0], gradient=True)
    assert not res.converged
    assert res.iterations == 3
    assert res.objective > f([-1.2, 1.0])


def test_bfgs_is_deterministic():
    def objective(x):
        value = -((x[0] - 1.0) ** 2) - (x[1] + 2.0) ** 2 + 0.1 * math.sin(5.0 * x[0])
        grad = np.array([-2.0 * (x[0] - 1.0) + 0.5 * math.cos(5.0 * x[0]), -2.0 * (x[1] + 2.0)])
        return value, grad

    seen = [[], []]
    results = []
    for run in seen:
        def recorded(x, run=run):
            run.append(np.asarray(x).tobytes())
            return objective(x)

        results.append(maximize(recorded, [0.3, 0.7], gradient=True))
    assert results[0] == results[1]
    assert seen[0] == seen[1]


def test_bfgs_stops_when_no_step_decreases(monkeypatch):
    # A flat value with a gradient that claims otherwise: every halved
    # step along steepest descent fails the Armijo test, so no decrease is
    # left to find and the search stops at the start.
    monkeypatch.setattr(optim, "_MAX_HALVINGS", 5)
    calls = []

    def objective(x):
        calls.append(float(x[0]))
        return 0.0, np.array([1.0])

    res = maximize(objective, [0.0], gradient=True)
    assert res.converged and res.iterations == 0
    assert res.point == (0.0,) and res.trace == ((0, 0.0),)
    assert calls == [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
