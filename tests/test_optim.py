import math
import warnings

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
    # the starting point, for either algorithm.  The gradient handed to
    # Newton's method points off the plateau, so every step it tries fails.
    def f(x):
        return min(0.0, -abs(x[0]))

    with_derivs = (lambda x: (f(x), np.array([-1.0]), np.array([[-1.0]])))
    for objective, hessian in ((f, False), (with_derivs, True)):
        res = maximize(objective, [0.0], hessian=hessian)
        assert res.objective >= f([0.0]), hessian


def test_maximize_is_deterministic():
    def f(x):
        return -((x[0] - 1.0) ** 2) - (x[1] + 2.0) ** 2 + 0.1 * math.sin(5.0 * x[0])

    a = maximize(f, [0.3, 0.7])
    b = maximize(f, [0.3, 0.7])
    assert a == b


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


def test_maximize_hands_the_objective_floats():
    # Every point, the initial one included, arrives as a list of floats.
    seen = []

    def f(x):
        seen.append(x)
        return -((x[0] - 1.0) ** 2) - (x[1] + 2.0) ** 2

    maximize(f, np.array([0.3, 0.7]))
    assert seen and all(type(x) is list and all(type(t) is float for t in x) for x in seen)


def test_maximize_evaluates_the_initial_point_once(monkeypatch):
    # maximize leaves the initial point to the first simplex search, which
    # scores it as its first vertex, so the objective sees the point once,
    # and a fit makes exactly the evaluations of its searches run alone.
    def wavy(x):
        return -((x[0] - 1.0) ** 2) - (x[1] + 2.0) ** 2 + 0.1 * math.sin(5.0 * x[0])

    seen = []

    def f(x):
        seen.append(list(x))
        return wavy(x)

    starts = []
    real = optim._nelder_mead

    def spy(neg_f, x0):
        starts.append(x0.copy())
        return real(neg_f, x0)

    monkeypatch.setattr(optim, "_nelder_mead", spy)
    maximize(f, [0.3, 0.7])
    assert seen[0] == [0.3, 0.7]
    assert seen[1] != seen[0]
    alone = []
    for x0 in starts:
        real(lambda x: alone.append(x) or -wavy(x), x0)
    assert len(starts) == optim._RESTARTS + 1
    assert len(seen) == len(alone)


def test_maximize_keeps_the_initial_point_when_nothing_scores_better():
    # On a plateau every vertex ties with the initial one, which a stable
    # order keeps first, so the point comes back with its bits, the sign
    # of zero included.
    res = maximize(lambda x: 1.5, [-0.0, 2.0])
    assert res.objective == 1.5
    assert [math.copysign(1.0, t) for t in res.point] == [-1.0, 1.0]
    assert res.point == (0.0, 2.0)


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


def test_restart_steps_are_fresh_draws_and_read_only():
    steps = optim._restart_steps(4)
    assert len(steps) == optim._RESTARTS
    for r, step in enumerate(steps, start=1):
        assert np.array_equal(step, np.random.default_rng(2654435761 + r).standard_normal(4))
        assert not step.flags.writeable
        with pytest.raises(ValueError):
            step[0] = 0.0
    assert optim._restart_steps(4) is steps
    assert [len(step) for step in optim._restart_steps(3)] == [3] * optim._RESTARTS


_TINY = 0.5 * optim._X_TOL
_WIDE = 2.0 * optim._X_TOL


@pytest.mark.parametrize(
    "gaps",
    [
        [_TINY, 0.0, _TINY],
        [_WIDE, _TINY, _TINY],
        [_TINY, _WIDE, _TINY],
        [_TINY, _TINY, _WIDE],
        [_TINY, optim._X_TOL],
        [_TINY, math.inf],
        [-0.0, _TINY],
        [_TINY, -0.0],
        [math.nan, _TINY],
        [_TINY, math.nan],
        [_TINY, math.nan, _WIDE],
    ],
    ids=["tiny", "wide-first", "wide-middle", "wide-last", "at-tol", "inf", "neg-zero-first",
         "neg-zero-last", "nan-first", "nan-after-tiny", "nan-then-wide"],
)
def test_convergence_decision_is_max_below_tol(gaps):
    # max keeps a NaN that comes first and passes over a later one; the
    # early exit must decide alike, which all(g < tol) does not.
    assert optim._max_below(gaps, optim._X_TOL) == (max(gaps) < optim._X_TOL)


def test_convergence_decision_stops_at_the_first_wide_gap():
    gaps = iter([_TINY, _WIDE, math.nan])
    assert not optim._max_below(gaps, optim._X_TOL)
    assert math.isnan(next(gaps))


def _reference_nelder_mead(neg_f, x0):
    # The array arrangement the float loop replaced; it must keep its bits.
    # Each point is handed to neg_f as a list of floats, as the float loop
    # hands it.
    dim = len(x0)
    simplex = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += optim._SIMPLEX_SCALE * max(1.0, abs(v[i]))
        simplex.append(v)
    simplex = np.array(simplex)
    values = np.array([_check_value(neg_f(v.tolist()), v) for v in simplex])
    iterations = 0
    converged = False
    for iterations in range(optim._MAX_ITERS + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        diameter = np.max(np.abs(simplex[1:] - simplex[0]))
        spread = values[-1] - values[0] if np.isfinite(values).all() else math.inf
        if diameter < optim._X_TOL or spread < optim._F_TOL:
            converged = True
            break
        if iterations == optim._MAX_ITERS:
            break
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + 1.0 * (centroid - simplex[-1])
        fr = _check_value(neg_f(xr.tolist()), xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = _check_value(neg_f(xe.tolist()), xe)
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
            fc = _check_value(neg_f(xc.tolist()), xc)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for k in range(1, dim + 1):
                    simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                    values[k] = _check_value(neg_f(simplex[k].tolist()), simplex[k])
    i_best = int(np.argmin(values))
    return simplex[i_best], values[i_best], iterations, converged


def _recording(f):
    seen = []

    def neg_f(x):
        assert type(x) is list and all(type(t) is float for t in x)
        seen.append(np.array(x).tobytes())  # keeps the sign of zero
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
    assert got[1:] == want[1:]


def _rosenbrock(x):
    value = -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)
    grad = -np.array([
        -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])
    hess = -np.array([
        [2.0 - 400.0 * (x[1] - 3.0 * x[0] ** 2), -400.0 * x[0]],
        [-400.0 * x[0], 200.0],
    ])
    return value, grad, hess


def _log_barrier(x):
    # log x - x, maximal at 1, and -inf with NaN derivatives at x <= 0.
    if x[0] <= 0:
        return -math.inf, np.array([math.nan]), np.array([[math.nan]])
    return math.log(x[0]) - x[0], np.array([1.0 / x[0] - 1.0]), np.array([[-1.0 / x[0] ** 2]])


def test_newton_quadratic_in_one_step():
    target = np.array([1.5, -2.0, 0.25])
    scales = np.array([1.0, 10.0, 0.1])

    def objective(x):
        d = np.asarray(x) - target
        return -float(d @ (scales * d)), -2.0 * scales * d, -2.0 * np.diag(scales)

    res = maximize(objective, [0.0, 0.0, 0.0], hessian=True)
    # The Hessian is negative definite well beyond the damping, so the
    # first step is the full Newton step, which lands on the maximum.
    assert res.converged and res.iterations == 1
    assert res.objective == pytest.approx(0.0, abs=1e-20)
    assert res.point == pytest.approx(tuple(target), abs=1e-12)


def test_newton_rosenbrock():
    res = maximize(_rosenbrock, [-1.2, 1.0], hessian=True)
    assert res.converged
    assert res.objective == pytest.approx(0.0, abs=1e-16)
    assert res.point == pytest.approx((1.0, 1.0), abs=1e-8)
    assert res.iterations < 50


def test_newton_ascends_from_an_indefinite_start():
    # -(x^2 - 1)^2 - y^2 curves upward in x at x = 0.1: an unmodified
    # Newton step would head for the minimum at x = 0.  The shifted
    # Hessian turns it uphill, toward the maximum at x = 1.
    def objective(x):
        u = x[0] * x[0] - 1.0
        return (
            -(u * u) - x[1] ** 2,
            np.array([-4.0 * x[0] * u, -2.0 * x[1]]),
            np.array([[-12.0 * x[0] ** 2 + 4.0, 0.0], [0.0, -2.0]]),
        )

    res = maximize(objective, [0.1, 0.5], hessian=True)
    assert res.converged
    # The run stops once the next step would gain at most 1e-12 of the
    # progress made, which pins the point to ~1e-6.
    assert res.point == pytest.approx((1.0, 0.0), abs=1e-6)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_newton_neg_inf_region_is_a_failed_step():
    # From x = 3 the full Newton step, capped at 4, lands at x = -1, where
    # the objective is -inf and its derivatives NaN; it must be rejected
    # and the damping raised until a step stays inside.
    seen = []

    def objective(x):
        seen.append(float(x[0]))
        return _log_barrier(x)

    res = maximize(objective, [3.0], hessian=True)
    assert seen[0] == 3.0 and seen[1] == pytest.approx(-1.0, abs=1e-12)
    assert res.converged
    assert res.point[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("bad", ["gradient", "hessian"])
def test_newton_non_finite_derivative_at_finite_value_is_a_failed_step(bad):
    # Left of zero the value is 0, above every value of log x - x, but a
    # derivative is not finite: the step there must still be rejected.
    def objective(x):
        if x[0] > 0:
            return _log_barrier(x)
        grad, hess = np.array([-1.0]), np.array([[-1.0]])
        if bad == "gradient":
            grad = np.array([math.inf])
        else:
            hess = np.array([[math.nan]])
        return 0.0, grad, hess

    res = maximize(objective, [3.0], hessian=True)
    assert res.converged
    assert res.point[0] == pytest.approx(1.0, abs=1e-6)


def test_newton_neg_inf_start_is_not_converged():
    res = maximize(lambda x: _log_barrier([-1.0]), [1.0], hessian=True)
    assert not res.converged
    assert res.point == (1.0,) and res.objective == -math.inf and res.iterations == 0


def test_newton_nan_raises():
    with pytest.raises(NumericalError, match=r"NaN at point \(5\.0, 52\.6\)$"):
        maximize(lambda x: (math.nan, np.zeros(2), np.zeros((2, 2))), [5.0, 52.6], hessian=True)

    def objective(x):
        # NaN at the first trial point, the Newton step from 0.5 to 3.0.
        if x[0] > 2.9:
            return math.nan, np.zeros(1), np.zeros((1, 1))
        return -((x[0] - 3.0) ** 2), np.array([-2.0 * (x[0] - 3.0)]), np.array([[-2.0]])

    with pytest.raises(NumericalError, match=r"NaN at point \(3\.0\)$"):
        maximize(objective, [0.5], hessian=True)


def test_newton_non_finite_step_raises():
    # f = 0.5e69 x^2 + x curves upward far beyond the damping 1e-3: the
    # shifted Hessian's eigenvalue -1e69 + (1e-3 + 1e69) rounds to 0, so
    # the step overflows.  The search raises there, and never hands the
    # objective a point that is not finite.
    seen = []

    def objective(x):
        seen.append(float(x[0]))
        return 0.5e69 * x[0] ** 2 + x[0], np.array([1e69 * x[0] + 1.0]), np.array([[1e69]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"Newton step is not finite at point \(0\.0\)$"):
            maximize(objective, [0.0], hessian=True)
    assert seen == [0.0]


def test_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(optim, "_MAX_ITERS", 3)
    res = maximize(_rosenbrock, [-1.2, 1.0], hessian=True)
    assert not res.converged
    assert res.iterations == 3
    assert res.objective > _rosenbrock([-1.2, 1.0])[0]


def test_newton_is_deterministic():
    def objective(x):
        value = -((x[0] - 1.0) ** 2) - (x[1] + 2.0) ** 2 + 0.1 * math.sin(5.0 * x[0])
        grad = np.array([-2.0 * (x[0] - 1.0) + 0.5 * math.cos(5.0 * x[0]), -2.0 * (x[1] + 2.0)])
        hess = np.array([[-2.0 - 2.5 * math.sin(5.0 * x[0]), 0.0], [0.0, -2.0]])
        return value, grad, hess

    seen = [[], []]
    results = []
    for run in seen:
        def recorded(x, run=run):
            run.append(np.asarray(x).tobytes())
            return objective(x)

        results.append(maximize(recorded, [0.3, 0.7], hessian=True))
    assert results[0] == results[1]
    assert seen[0] == seen[1]
    assert results[0].converged


def test_newton_stops_when_no_step_decreases(monkeypatch):
    # A flat value with derivatives that claim otherwise.  The full step
    # to 1 fails; the damping then grows past the Hessian's eigenvalue 1
    # (a smaller damping would retry the same step) and tenfold after
    # each further failure, so the steps shrink tenfold.  After
    # _MAX_REJECTIONS failures in a row no decrease is left to find.
    monkeypatch.setattr(optim, "_MAX_REJECTIONS", 5)
    calls = []

    def objective(x):
        calls.append(float(x[0]))
        return 0.0, np.array([1.0]), np.array([[-1.0]])

    res = maximize(objective, [0.0], hessian=True)
    assert res.converged and res.iterations == 0
    assert res.point == (0.0,) and res.objective == 0.0
    assert calls == [0.0, 1.0, 0.1, 0.01, 0.001, 0.0001]
