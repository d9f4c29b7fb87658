import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpme import prior_uni
from mpme.core import (
    DataError,
    DegeneratePriorError,
    NumericalError,
    OptimizationError,
    PopulationSample,
    SufficientStats,
    sufficient_stats,
)
from mpme.experiments import SyntheticConfig, generate_synthetic
from mpme.prior_uni import (
    UniHyperparams,
    learn_uni,
    uni_log_marginal_likelihood,
    uni_map,
)
from mpme.special import log_normal_cdf_diff

_LOG_2PI = math.log(2.0 * math.pi)


def _stats(n, mean, var):
    return SufficientStats(n=n, mean=mean, var_unbiased=var)


def _gaussian_loglik(stats, mu, sigma_sq):
    # Exact log likelihood of the sufficient statistics at a point.
    return -0.5 * stats.n * (_LOG_2PI + math.log(sigma_sq)) - (
        (stats.n - 1) * stats.var_unbiased + stats.n * (stats.mean - mu) ** 2
    ) / (2.0 * sigma_sq)


def test_hyperparams_validation():
    UniHyperparams(a=0.0, b=1.0, c=0.5, d=1.5)
    # c == d is the variance face, a point-mass prior on sigma^2; the mean
    # side must still be a proper interval.
    UniHyperparams(a=0.0, b=1.0, c=0.5, d=0.5)
    with pytest.raises(DataError):
        UniHyperparams(a=1.0, b=1.0, c=0.5, d=1.5)
    with pytest.raises(DataError):
        UniHyperparams(a=1.0, b=1.0, c=0.5, d=0.5)
    with pytest.raises(DataError):
        UniHyperparams(a=2.0, b=1.0, c=0.5, d=1.5)
    with pytest.raises(DataError):
        UniHyperparams(a=0.0, b=1.0, c=0.0, d=1.5)
    with pytest.raises(DataError):
        UniHyperparams(a=0.0, b=1.0, c=1.5, d=0.5)
    with pytest.raises(DataError):
        UniHyperparams(a=math.nan, b=1.0, c=0.5, d=1.5)


def test_log_marginal_likelihood_frozen():
    # Frozen from a 60-digit 2-d integration of the Gaussian likelihood
    # over the box, per population.
    stats = [_stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8)]
    lml = uni_log_marginal_likelihood(
        stats, UniHyperparams(a=9.5, b=10.5, c=0.95, d=1.05)
    )
    assert lml == pytest.approx(-12.363643069577513817, rel=1e-11)


def test_log_marginal_likelihood_factorizes():
    hyper = UniHyperparams(a=9.5, b=10.5, c=0.95, d=1.05)
    s1, s2 = _stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8)
    joint = uni_log_marginal_likelihood([s1, s2], hyper)
    split = uni_log_marginal_likelihood([s1], hyper) + uni_log_marginal_likelihood(
        [s2], hyper
    )
    assert joint == pytest.approx(split, rel=1e-12)


def test_log_marginal_likelihood_point_prior_limit():
    # As the box shrinks onto (m, v), the box-averaged marginal tends to
    # the likelihood evaluated at (m, v).
    stats = [_stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8)]
    m, v = 9.9, 1.1
    expected = sum(_gaussian_loglik(s, m, v) for s in stats)
    for w in (1e-6, 1e-8, 1e-10):
        hyper = UniHyperparams(a=m - w / 2, b=m + w / 2, c=v - w / 2, d=v + w / 2)
        got = uni_log_marginal_likelihood(stats, hyper)
        assert got == pytest.approx(expected, abs=1e-6), w


def test_log_marginal_likelihood_flat_in_sliver_width():
    # The attained value must not drift with the sliver width; endpoint
    # rounding once produced a correlated nat-level artifact here.
    stats = [_stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8)]
    m, v = 9.9, 1.1
    vals = [
        uni_log_marginal_likelihood(
            stats, UniHyperparams(a=m - w / 2, b=m + w / 2, c=v - w / 2, d=v + w / 2)
        )
        for w in (1e-8, 1e-10, 1e-12)
    ]
    assert max(vals) - min(vals) < 1e-6


@pytest.mark.parametrize(
    "stats",
    [
        [_stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8)],
        [_stats(2, 9.5, 0.0), _stats(30, 10.2, 0.7), _stats(3, 12.0, 2.5)],
    ],
    ids=["box", "edge-and-far"],
)
def test_face_marginal_is_the_limit_of_the_interior(stats):
    # On c == d the marginal is sum_i log L_i(c) - P log(b - a), computed
    # without quadrature; a box of height w around c must approach it.
    # Centred boxes leave it by K w^2, and K is O(1) here.
    a, b, c = 9.6, 10.4, 0.9
    face = uni_log_marginal_likelihood(stats, UniHyperparams(a=a, b=b, c=c, d=c))
    for w in (1e-5, 1e-7):
        centred = UniHyperparams(a=a, b=b, c=c - 0.5 * w, d=c + 0.5 * w)
        assert uni_log_marginal_likelihood(stats, centred) == pytest.approx(face, abs=1e-9)
    _value, grad, hess = uni_log_marginal_likelihood(
        stats, UniHyperparams(a=a, b=b, c=c, d=c), hessian=True
    )
    # The c and d derivatives share the face value's derivative in c.
    assert grad[2] == grad[3]
    # The Hessian is the limit too, K terms included: a centred box's
    # Hessian leaves it linearly in w.
    for w in (1e-4, 1e-5):
        centred = UniHyperparams(a=a, b=b, c=c - 0.5 * w, d=c + 0.5 * w)
        near = uni_log_marginal_likelihood(stats, centred, hessian=True)[2]
        assert np.max(np.abs(near - hess)) <= 10.0 * w * np.max(np.abs(hess)), w


def test_log_marginal_likelihood_zero_warns_neg_inf():
    # Box far from the data: every integral underflows to zero, and the
    # result is -inf without a warning, as for the NIX marginal.
    stats = [_stats(5, 0.0, 1.0)]
    hyper = UniHyperparams(a=100.0, b=101.0, c=0.01, d=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lml = uni_log_marginal_likelihood(stats, hyper)
    assert lml == -math.inf


def test_derivatives_at_a_tiny_c_do_not_warn():
    # Below c of about 1.5e-154 the square of c underflows to zero in the
    # slope of L_i at c, so the (c, c) entry is NaN; the derivative path is
    # as silent as the value path, and the value keeps its bits.
    stats = [_stats(5, 0.1, 1.0), _stats(5, -0.2, 0.9), _stats(3, 0.4, 1.3)]
    hyper = UniHyperparams(a=-0.5, b=0.5, c=1e-200, d=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = uni_log_marginal_likelihood(stats, hyper)
        got, grad, hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
    assert got == value and math.isfinite(value)
    assert np.isfinite(grad).all()
    assert np.isnan(hess[2, 2])
    assert np.isfinite(np.delete(hess.ravel(), 10)).all()


@pytest.mark.parametrize("mirror", [False, True], ids=["right", "left"])
@pytest.mark.parametrize("far", [1e150, 1e154, 1e160, 1e200])
def test_box_past_the_overflow_of_q_is_neg_inf(far, mirror):
    # From a box edge about 1e154 away, q = ((n-1) S + n (xbar - a)^2) / 2
    # overflows in the E rows; the marginal is still -inf, with NaN
    # derivatives, and no warning.
    stats = [_stats(5, 0.0, 1.0), _stats(3, 0.5, 2.0), _stats(30, -0.2, 0.8)]
    a, b = (-2.0 * far, -far) if mirror else (far, 2.0 * far)
    hyper = UniHyperparams(a=a, b=b, c=0.01, d=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uni_log_marginal_likelihood(stats, hyper) == -math.inf
        value, grad, hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
    assert value == -math.inf
    assert np.isnan(grad).all() and np.isnan(hess).all()


def _dense_log_marginal(stats, hyper, points=200_001):
    # Log-shifted trapezoid in t = log(sigma^2) of the integrand that
    # _log_sigma_integrals documents, on a fixed grid.
    t = np.linspace(math.log(hyper.c), math.log(hyper.d), points)
    n, xbar, scatter = stats.n, stats.mean, (stats.n - 1) * stats.var_unbiased
    k = math.sqrt(n) / np.exp(0.5 * t)
    log_f = (
        -0.5 * (n - 1) * (_LOG_2PI + t)
        - 0.5 * math.log(n)
        - 0.5 * scatter * np.exp(-t)
        + log_normal_cdf_diff((hyper.a - xbar) * k, (hyper.b - xbar) * k,
                              width=(hyper.b - hyper.a) * k)
        + t
    )
    peak = log_f.max()
    integral = np.trapezoid(np.exp(log_f - peak), t)
    return peak + math.log(integral) - math.log(hyper.b - hyper.a) - math.log(hyper.d - hyper.c)


@pytest.mark.parametrize(
    "far, width, c, d", [(100, 0.2, 0.01, 1e4), (100, 1e-3, 0.05, 300), (200, 0.01, 1.0, 1e6)]
)
def test_far_box_marginal_matches_dense_grid(far, width, c, d):
    # A box of mean far out in the tail of a large-n population puts a
    # narrow peak of the sigma^2 integrand far from sigma^2 = S.  The
    # 9-point scan in _log_sigma_integrals finds the row shift there;
    # shifting from the ends and the clipped-S point alone overflowed,
    # and an exact envelope-peak shift let GK15 accept panels whose
    # nodes all missed the peak (the marginal came out 31 nats low).
    n = 1000
    se = math.sqrt(1.0 / n)
    stats = _stats(n, 0.0, 1.0)
    hyper = UniHyperparams(a=far * se, b=(far + width) * se, c=c, d=d)
    got = uni_log_marginal_likelihood([stats], hyper)
    assert got == pytest.approx(_dense_log_marginal(stats, hyper), rel=1e-9)


def test_log_marginal_likelihood_rejects_empty():
    with pytest.raises(DataError):
        uni_log_marginal_likelihood([], UniHyperparams(a=0.0, b=1.0, c=0.5, d=1.5))


def _central_gradient(stats, hyper):
    # Five-point central differences, with steps of 1e-3 of b - a for a
    # and b, and of min(d - c, c) for c and d.
    box = [hyper.a, hyper.b, hyper.c, hyper.d]
    steps = [1e-3 * (hyper.b - hyper.a)] * 2 + [1e-3 * min(hyper.d - hyper.c, hyper.c)] * 2
    out = []
    for i, h in enumerate(steps):
        def at(k):
            moved = list(box)
            moved[i] += k * h
            return uni_log_marginal_likelihood(stats, UniHyperparams(*moved))

        out.append((8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h))
    return np.array(out)


_GRADIENT_BOXES = [
    UniHyperparams(a=9.5, b=10.5, c=0.95, d=1.05),
    UniHyperparams(a=9.9, b=9.9 + 1e-6, c=1.0, d=1.0 + 1e-6),
    UniHyperparams(a=0.0, b=1.0, c=0.01, d=0.02),
    UniHyperparams(a=9.0, b=11.0, c=50.0, d=60.0),
]


@pytest.mark.parametrize("hyper", _GRADIENT_BOXES, ids=["box", "sliver", "low", "high"])
def test_gradient_keeps_the_value_bits(hyper):
    stats = [_stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8), _stats(2, 10.4, 0.0)]
    plain = uni_log_marginal_likelihood(stats, hyper)
    value, grad, hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
    assert type(plain) is float and type(value) is float
    assert repr(value) == repr(plain)
    assert grad.shape == (4,)
    assert hess.shape == (4, 4) and np.array_equal(hess, hess.T)


def _central_hessian(stats, hyper):
    # Five-point central differences of the closed-form gradient, with the
    # steps of _central_gradient.
    box = [hyper.a, hyper.b, hyper.c, hyper.d]
    steps = [1e-3 * (hyper.b - hyper.a)] * 2 + [1e-3 * min(hyper.d - hyper.c, hyper.c)] * 2
    columns = []
    for i, h in enumerate(steps):
        def at(k):
            moved = list(box)
            moved[i] += k * h
            return uni_log_marginal_likelihood(stats, UniHyperparams(*moved), hessian=True)[1]

        columns.append((8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h))
    return np.array(columns).T, np.array(steps)


@pytest.mark.parametrize(
    "hyper", _GRADIENT_BOXES[:1] + _GRADIENT_BOXES[2:], ids=["box", "low", "high"]
)
def test_hessian_matches_central_differences(hyper):
    stats = [_stats(5, 10.1, 1.2), _stats(4, 9.7, 0.8), _stats(2, 10.4, 0.0)]
    _value, _grad, hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
    numeric, steps = _central_hessian(stats, hyper)
    # Entry (i, j) in units of the steps, so that a and c entries weigh alike.
    scale = np.outer(steps, steps)
    assert np.max(np.abs(hess - numeric) * scale) <= 1e-7 * np.max(np.abs(numeric) * scale)


def test_gradient_at_neg_inf_is_nan():
    value, grad, hess = uni_log_marginal_likelihood(
        [_stats(5, 0.0, 1.0)], UniHyperparams(a=100.0, b=101.0, c=0.01, d=0.02), hessian=True
    )
    assert value == -math.inf
    assert np.all(np.isnan(grad)) and np.all(np.isnan(hess))


@pytest.mark.parametrize(
    "hyper",
    [
        UniHyperparams(a=-0.5, b=0.5, c=0.5, d=2.0),
        UniHyperparams(a=-0.5, b=0.5, c=0.01, d=0.02),
        UniHyperparams(a=-0.5, b=0.5, c=50.0, d=60.0),
    ],
    ids=["box", "low", "high"],
)
def test_gradient_far_from_underflow(hyper):
    # The population at 40 sits so far outside every box that its box-edge
    # integrals E_i are below e^-1000, and the n = 2000 population's are
    # sharply peaked in sigma^2; each row is shifted by its own maximum in
    # the shared quadrature, so both still pull on the box.
    stats = [_stats(5, 0.1, 1.0), _stats(5, -0.2, 0.9), _stats(5, 40.0, 1.1), _stats(2000, 0.0, 1.0)]
    _value, grad, _hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
    numeric = _central_gradient(stats, hyper)
    assert np.max(np.abs(grad - numeric)) <= 1e-8 * np.max(np.abs(numeric))


@pytest.mark.parametrize(
    "stats, hyper",
    [
        # n = 2, S = 0 and the mean on a: E_i(a) integrates a constant.
        ([_stats(2, 9.5, 0.0), _stats(5, 10.1, 1.2)], UniHyperparams(a=9.5, b=10.5, c=0.5, d=2.0)),
        # n = 5, S = 0 and the mean on b: E_i(b) peaks at sigma^2 = c.
        ([_stats(5, 10.5, 0.0), _stats(4, 9.7, 0.8)], UniHyperparams(a=9.5, b=10.5, c=0.5, d=2.0)),
    ],
    ids=["flat-edge-row", "zero-scatter-on-b"],
)
def test_gradient_zero_scatter_on_a_box_edge(stats, hyper):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad, _hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
        numeric = _central_gradient(stats, hyper)
    assert value == uni_log_marginal_likelihood(stats, hyper)
    assert math.isfinite(value)
    assert np.max(np.abs(grad - numeric)) <= 1e-8 * np.max(np.abs(numeric))


def _box_trial_stats():
    rng = np.random.default_rng(3)
    stats = []
    for _ in range(20):
        mu = rng.uniform(9.5, 10.5)
        s2 = rng.uniform(0.95, 1.05)
        x = mu + math.sqrt(s2) * rng.standard_normal(5)
        stats.append(_stats(5, float(x.mean()), float(x.var(ddof=1))))
    return stats


def test_learn_uni_recovers_plausible_box():
    stats = _box_trial_stats()
    h = learn_uni(stats)
    # Means were drawn from [9.5, 10.5]: the learned mu side must sit
    # inside the data range, not span the noisy sample means.
    assert 9.0 < h.a < h.b < 11.0
    assert h.b - h.a < 3.0
    # The true variances span only [0.95, 1.05]; this fit ends on the
    # variance face, c == d.
    assert 0.0 < h.c <= h.d < 10.0


def test_learn_uni_deterministic():
    stats = _box_trial_stats()
    assert learn_uni(stats) == learn_uni(stats)


def test_learn_uni_needs_two_populations():
    with pytest.raises(DataError):
        learn_uni([_stats(5, 0.0, 1.0)])


def test_learn_uni_degenerate_data_raises(monkeypatch):
    # Zero scatter everywhere: the likelihood grows without bound as
    # c -> 0, so no proper box maximizes it.  That is decided from the
    # data, before any marginal is evaluated.
    def unreachable(*args, **kwargs):
        raise AssertionError("a UNI marginal was evaluated")

    monkeypatch.setattr(prior_uni, "uni_log_marginal_likelihood", unreachable)
    monkeypatch.setattr(prior_uni, "_face_log_marginal", unreachable)
    for n, count in [(3, 3), (2, 4)]:
        zstats = [_stats(n, 5.0, 0.0) for _ in range(count)]
        with pytest.raises(DegeneratePriorError, match="zero scatter"):
            learn_uni(zstats)


def _synthetic_stats(cfg, trial):
    return [sufficient_stats(s) for s in generate_synthetic(cfg, trial)[1]]


def test_learn_uni_returns_the_box_it_reached():
    # Every population has positive scatter, so the likelihood is bounded,
    # yet the search ends with a mean side near 8e-7 of the span of the
    # means.  The fit returns that box, not a wider one of lower value
    # (-234.0236126 for a side of 1e-4 of the span).
    cfg = SyntheticConfig(
        populations=50,
        samples_per_population=2,
        mu_range=(9.5, 10.5),
        sigma_range=(0.2, 5.0),
        trials=7,
        seed=99,
    )
    stats = _synthetic_stats(cfg, 6)
    h = learn_uni(stats)
    assert h.c < h.d
    assert uni_log_marginal_likelihood(stats, h) >= -234.0232


def test_learn_uni_resumes_inside_when_the_face_loses(monkeypatch):
    # The search reaches the variance face, but its (d - c)^2 coefficient
    # is positive there, so the fit resumes inside and ends on a proper
    # box.
    cfg = SyntheticConfig(
        populations=3,
        samples_per_population=5,
        mu_range=(0.0, 100.0),
        sigma_range=(0.5, 2.0),
        trials=6,
        seed=7,
    )
    face_calls = []
    face = prior_uni._face_log_marginal

    def counted(*args):
        face_calls.append(args)
        return face(*args)

    monkeypatch.setattr(prior_uni, "_face_log_marginal", counted)
    h = learn_uni(_synthetic_stats(cfg, 0))
    assert face_calls
    assert h.c < h.d
    assert (h.a, h.b, h.c, h.d) == pytest.approx(
        (-1.13711, 101.37747, 0.20308, 1.61442), abs=5e-6
    )


def test_learn_uni_overflowing_step_is_a_numerical_error():
    # Tight, well separated clusters: the start box lies far out in the
    # likelihood's tail, where the Hessian's eigenvalues run from about
    # -1.7e69 to 1.3e85 and Newton's step overflows.  That is a numerical
    # failure, not invalid data.
    values = {
        "pop-000": (-1.4648666760420443, -1.3878114684069169),
        "pop-001": (50.595715935349332, 49.871652090186679),
        "pop-002": (99.439434166227713, 99.472532913238581),
    }
    stats = [sufficient_stats(PopulationSample(id=k, values=v)) for k, v in values.items()]
    with pytest.raises(NumericalError, match="Newton step is not finite"):
        learn_uni(stats)


@pytest.mark.parametrize("c, d", [(1e-310, 1.0), (1e-300, 1e10)])
def test_variance_side_past_the_float_range_is_a_numerical_error(c, d):
    # d/c overflows a float: the box is valid, but its sigma^2 interval
    # length in log space cannot be formed.
    hyper = UniHyperparams(a=-1.0, b=1.0, c=c, d=d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="float range"):
            uni_log_marginal_likelihood([_stats(5, 0.0, 1.0)], hyper)


@pytest.mark.parametrize(
    "hyper",
    [
        # (d - c)^2 passes the float range.
        UniHyperparams(a=-1e100, b=1e100, c=1e199, d=1e201),
        # On the face c = d, c^3 does.
        UniHyperparams(a=-1e52, b=1e52, c=1e104, d=1e104),
        # (d - c)^2 underflows to zero.
        UniHyperparams(a=-1e-140, b=1e-140, c=1e-281, d=1e-280),
        # On the face, c^3 does.
        UniHyperparams(a=-1e-55, b=1e-55, c=1e-110, d=1e-110),
    ],
    ids=["interior", "face", "interior-underflow", "face-underflow"],
)
def test_hessian_past_the_float_range_is_nan(hyper):
    # A Python-float power that overflows raises OverflowError, and one
    # that underflows is 0, which the derivatives would divide by; either
    # makes the derivatives NaN, so Newton rejects the step, and the value
    # is that of the value-only call.
    scale = math.sqrt(hyper.c)
    stats = [_stats(5, 0.0, hyper.c), _stats(4, 0.3 * scale, 2.0 * hyper.c)]
    value, grad, hess = uni_log_marginal_likelihood(stats, hyper, hessian=True)
    assert math.isfinite(value)
    assert value == uni_log_marginal_likelihood(stats, hyper)
    assert np.isnan(grad).all() and np.isnan(hess).all()


def _six_row_stats(scale):
    # The six-row dataset a: 1, 2; b: 3, 1; c: 2, 2.5, times `scale`.
    rows = {"a": (1.0, 2.0), "b": (3.0, 1.0), "c": (2.0, 2.5)}
    return [
        sufficient_stats(PopulationSample(id=k, values=tuple(v * scale for v in vs)))
        for k, vs in rows.items()
    ]


def test_learn_uni_box_moves_with_the_data_at_small_scale():
    # The start box's floors are multiples of the data's own scales, so at
    # 1e-20 the search takes the unit-scale steps and the box scales.
    unit = learn_uni(_six_row_stats(1.0))
    small = learn_uni(_six_row_stats(1e-20))
    for got, want in ((small.a, unit.a), (small.b, unit.b)):
        assert got == pytest.approx(1e-20 * want, rel=1e-9)
    for got, want in ((small.c, unit.c), (small.d, unit.d)):
        assert got == pytest.approx(1e-40 * want, rel=1e-9)


def test_learn_uni_mostly_zero_scatter_at_zero_means_has_a_start():
    # The median sample variance and every mean are 0; the floors still
    # give the start box a positive width and variance side, so the search
    # starts and reports that it did not converge, with no log(0).
    for v in (1.0, 1e-250):
        stats = [_stats(2, 0.0, 0.0), _stats(2, 0.0, 0.0), _stats(2, 0.0, v)]
        with pytest.raises(OptimizationError):
            learn_uni(stats)


def test_learn_uni_subnormal_variance_scale_is_a_numerical_error():
    stats = [_stats(2, 0.0, 0.0), _stats(2, 0.0, 0.0), _stats(2, 0.0, 5e-324)]
    with pytest.raises(NumericalError, match="underflows"):
        learn_uni(stats)


def test_uni_map_interior_passthrough():
    hyper = UniHyperparams(a=9.5, b=10.5, c=0.5, d=3.0)
    est = uni_map(_stats(5, 10.0, 2.0), hyper)
    assert est.mu == 10.0
    assert est.sigma_sq == 2.0


def test_uni_map_clamps_into_box():
    hyper = UniHyperparams(a=9.5, b=10.5, c=0.95, d=1.05)
    est = uni_map(_stats(5, 10.9, 2.0), hyper)
    assert est.mu == 10.5
    assert est.sigma_sq == 1.05
    est = uni_map(_stats(5, 8.0, 0.1), hyper)
    assert est.mu == 9.5
    assert est.sigma_sq == 0.95


def test_uni_map_variance_conventions():
    hyper = UniHyperparams(a=0.0, b=20.0, c=0.5, d=3.0)
    stats = _stats(5, 10.0, 2.0)
    assert uni_map(stats, hyper).sigma_sq == 2.0
    strict = uni_map(stats, hyper, use_unbiased_variance=False)
    assert strict.sigma_sq == pytest.approx(1.6, rel=1e-15)


def _example1_trial_stats():
    # Trial 0 of example 1 at seed 7; its type-II optimum is interior,
    # with both box sides near 1.
    cfg = SyntheticConfig(
        populations=20,
        samples_per_population=5,
        mu_range=(9.5, 10.5),
        sigma_range=(0.95, 1.05),
        trials=1,
        seed=7,
    )
    return [sufficient_stats(s) for s in generate_synthetic(cfg, 0)[1]]


_INTERIOR_STATS = _example1_trial_stats()
_INTERIOR_BOX = learn_uni(_INTERIOR_STATS)


@settings(max_examples=25, deadline=None)
@given(
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    shift=st.floats(min_value=-1e4, max_value=1e4),
)
def test_learn_uni_is_equivariant_under_change_of_units(log_scale, shift):
    # Under x -> s x + t the learned box maps to s [a, b] + t and s^2 [c, d].
    s = 10.0**log_scale
    stats = [
        _stats(x.n, s * x.mean + shift, s * s * x.var_unbiased) for x in _INTERIOR_STATS
    ]
    got = learn_uni(stats)
    box = _INTERIOR_BOX
    width = s * (box.b - box.a)
    height = s * s * (box.d - box.c)
    assert abs(got.a - (s * box.a + shift)) <= 1e-8 * width
    assert abs(got.b - (s * box.b + shift)) <= 1e-8 * width
    assert abs(got.c - s * s * box.c) <= 1e-8 * height
    assert abs(got.d - s * s * box.d) <= 1e-8 * height


# The UNI marginal's bits, pinned as float hex (value, gradient and
# Hessian; NaN positions included) before its data-only arrays were
# prepared once per fit and its shift scan was folded into the first
# integrand call.  The cases are built from a fixed seed; the file keeps
# the SHA-256 of their float-hex statistics and boxes, so a change in the
# generator shows as such and not as a change in the marginal.
_BIT_SIZES = ("n=2", "n=3", "n=30", "n=3000", "mixed")
_BIT_BOXES = ("interior", "wide", "face", "sliver", "sliver face", "thin", "far", "zero-scatter edge")
_BIT_POPS = (3, 4, 7, 20, 50, 200)


def _bit_box(rng, kind, mu, sigma, se):
    a = mu - rng.uniform(0.5, 3.0) * se
    b = mu + rng.uniform(0.5, 3.0) * se
    c = sigma**2 * math.exp(-rng.uniform(0.3, 1.5))
    d = sigma**2 * math.exp(rng.uniform(0.3, 1.5))
    if kind == "wide":
        a, b, c, d = mu - 20.0 * sigma, mu + 20.0 * sigma, 1e-2 * sigma**2, 1e2 * sigma**2
    elif kind == "face":
        d = c
    elif kind in ("sliver", "sliver face"):
        # 1e-4 to 1e-12 of a standard error: log_normal_cdf_diff's series.
        b = a + 10.0 ** -rng.uniform(4.0, 12.0) * se
        if kind == "sliver face":
            d = c
    elif kind == "thin":
        d = c * (1.0 + 1e-3)
    elif kind == "far":
        c, d = 0.05 * sigma**2, 0.15 * sigma**2
    return UniHyperparams(a=a, b=b, c=c, d=d)


def _marginal_bit_cases():
    """48 cases over every (P, sizes) pair and box kind, then two boxes far
    from the data whose marginal is -inf, inside and on the face."""
    rng = np.random.default_rng(20)
    cases = []
    for k in range(48):
        p, sizes, box = _BIT_POPS[k % 6], _BIT_SIZES[k % 5], _BIT_BOXES[k % 8]
        if sizes == "mixed":
            ns = rng.choice([2, 3, 5, 8, 30, 300, 3000], size=p)
        else:
            ns = [int(sizes[2:])] * p
        mu = rng.uniform(-5.0, 5.0)
        sigma = math.exp(rng.uniform(math.log(0.3), math.log(2.0)))
        stats = []
        for n in ns:
            values = mu + sigma * (0.5 * rng.standard_normal() + rng.standard_normal(int(n)))
            stats.append(_stats(int(n), float(values.mean()), float(values.var(ddof=1))))
        hyper = _bit_box(rng, box, mu, sigma, sigma / math.sqrt(float(np.median(ns))))
        if box == "zero-scatter edge":
            stats[0] = _stats(stats[0].n, hyper.a, 0.0)
        cases.append((f"P={p} {sizes} {box}", stats, hyper))
    far = [_stats(5, 0.0, 1.0), _stats(3, 0.5, 2.0), _stats(30, -0.2, 0.8)]
    cases.append(("far -inf", far, UniHyperparams(a=100.0, b=101.0, c=0.01, d=0.02)))
    # On the face the standardized edges must pass -1e154 for log_ndtr to
    # reach -inf.
    cases.append(("far -inf face", far, UniHyperparams(a=1e200, b=2e200, c=0.01, d=0.01)))
    return cases


def _marginal_bits(value, grad, hess):
    return {
        "value": float(value).hex(),
        "grad": [float(g).hex() for g in grad],
        "hess": [float(h).hex() for h in np.ravel(hess)],
    }


def _bit_case_digest(cases):
    lines = []
    for name, stats, hyper in cases:
        lines.append(name)
        lines.extend(f"{s.n} {s.mean.hex()} {s.var_unbiased.hex()}" for s in stats)
        lines.append(" ".join(v.hex() for v in (hyper.a, hyper.b, hyper.c, hyper.d)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_MARGINAL_BITS = json.loads((Path(__file__).parent / "data" / "uni_marginal_bits.json").read_text())
_BIT_CASES = _marginal_bit_cases()


def test_marginal_bit_cases_are_the_recorded_ones():
    assert _bit_case_digest(_BIT_CASES) == _MARGINAL_BITS["inputs_sha256"]
    assert [name for name, _, _ in _BIT_CASES] == [c["name"] for c in _MARGINAL_BITS["cases"]]


@pytest.mark.parametrize("case", range(len(_BIT_CASES)), ids=[name for name, _, _ in _BIT_CASES])
def test_marginal_keeps_its_bits(case):
    _name, stats, hyper = _BIT_CASES[case]
    recorded = _MARGINAL_BITS["cases"][case]
    assert recorded["box"] == [v.hex() for v in (hyper.a, hyper.b, hyper.c, hyper.d)]
    with np.errstate(all="ignore"):
        for data in (stats, prior_uni._UniData(stats)):
            value, grad, hess = uni_log_marginal_likelihood(data, hyper, hessian=True)
            assert _marginal_bits(value, grad, hess) == {k: recorded[k] for k in ("value", "grad", "hess")}
            assert uni_log_marginal_likelihood(data, hyper).hex() == recorded["value"]
