import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpme.core import (
    DataError,
    DegeneratePriorError,
    SufficientStats,
)
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


def test_learn_uni_degenerate_data_raises():
    # Zero scatter everywhere with equal means: the search reaches the
    # variance face, whose value grows without bound as c -> 0, so no
    # proper box maximizes the likelihood.
    for n, count in [(3, 3), (2, 4)]:
        zstats = [_stats(n, 5.0, 0.0) for _ in range(count)]
        with pytest.raises(DegeneratePriorError, match="zero scatter"):
            learn_uni(zstats)


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
    from mpme.experiments import SyntheticConfig, generate_synthetic
    from mpme.core import sufficient_stats

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
