import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import special as sp

from mpme import prior_nix
from mpme.core import DataError, NumericalError, SufficientStats, sufficient_stats
from mpme.experiments import EXAMPLES, SyntheticConfig, generate_synthetic
from mpme.optim import maximize
from mpme.prior_nix import (
    NixHyperparams,
    VarianceMode,
    _natural,
    _NixData,
    _nix_log_marginal,
    _stats_arrays,
    learn_nix,
    nix_log_marginal_likelihood,
    nix_map,
    nix_posterior_update,
)


def _stats(n, mean, var):
    return SufficientStats(n=n, mean=mean, var_unbiased=var)


def test_hyperparams_validation():
    NixHyperparams(mu0=0.0, kappa0=1.0, nu0=1.0, sigma0_sq=1.0)
    with pytest.raises(DataError):
        NixHyperparams(mu0=math.inf, kappa0=1.0, nu0=1.0, sigma0_sq=1.0)
    with pytest.raises(DataError):
        NixHyperparams(mu0=0.0, kappa0=0.0, nu0=1.0, sigma0_sq=1.0)
    with pytest.raises(DataError):
        NixHyperparams(mu0=0.0, kappa0=1.0, nu0=-1.0, sigma0_sq=1.0)
    with pytest.raises(DataError):
        NixHyperparams(mu0=0.0, kappa0=1.0, nu0=1.0, sigma0_sq=math.nan)


def test_posterior_update_hand_computed():
    # kappa_n = 1 + 4, mu_n = (0 + 4 * 2) / 5, nu_n = 2 + 4,
    # scatter = 2 * 0.5 + 3 * 1 + 1 * 4 * 4 / 5 = 7.2.
    kappa_n, mu_n, nu_n, sigma_n_sq = nix_posterior_update(
        _stats(4, 2.0, 1.0),
        NixHyperparams(mu0=0.0, kappa0=1.0, nu0=2.0, sigma0_sq=0.5),
    )
    assert kappa_n == pytest.approx(5.0, rel=1e-15)
    assert mu_n == pytest.approx(1.6, rel=1e-15)
    assert nu_n == pytest.approx(6.0, rel=1e-15)
    assert sigma_n_sq == pytest.approx(1.2, rel=1e-15)


def test_posterior_mean_is_convex_combination():
    hyper = NixHyperparams(mu0=3.0, kappa0=2.5, nu0=1.0, sigma0_sq=1.0)
    stats = _stats(5, -1.0, 0.4)
    mu_n = nix_posterior_update(stats, hyper)[1]
    w = hyper.kappa0 / (hyper.kappa0 + stats.n)
    assert mu_n == pytest.approx(w * 3.0 + (1 - w) * -1.0, rel=1e-14)
    assert min(-1.0, 3.0) <= mu_n <= max(-1.0, 3.0)


# Expected values frozen from a 120-digit evaluation of the closed form
#   lgamma(nu_n/2) - lgamma(nu0/2) + log(kappa0/kappa_n)/2
#   + (nu0/2) log(nu0 sigma0_sq) - (nu_n/2) log(scatter) - (n/2) log(pi).


def test_log_marginal_likelihood_frozen_single():
    lml = nix_log_marginal_likelihood(
        [_stats(3, 1.2, 0.5)],
        NixHyperparams(mu0=1.0, kappa0=2.0, nu0=3.0, sigma0_sq=1.5),
    )
    assert lml == pytest.approx(-4.2455071887093316196, rel=1e-13)


def test_log_marginal_likelihood_frozen_two_populations():
    stats = [_stats(5, -0.3, 2.0), _stats(4, 0.7, 0.25)]
    lml = nix_log_marginal_likelihood(
        stats, NixHyperparams(mu0=0.2, kappa0=0.5, nu0=1.0, sigma0_sq=1.0)
    )
    assert lml == pytest.approx(-15.797993828708195666, rel=1e-13)


def test_log_marginal_likelihood_factorizes():
    hyper = NixHyperparams(mu0=0.2, kappa0=0.5, nu0=1.0, sigma0_sq=1.0)
    s1, s2 = _stats(5, -0.3, 2.0), _stats(4, 0.7, 0.25)
    joint = nix_log_marginal_likelihood([s1, s2], hyper)
    split = nix_log_marginal_likelihood([s1], hyper) + nix_log_marginal_likelihood(
        [s2], hyper
    )
    assert joint == pytest.approx(split, rel=1e-14)


def test_log_marginal_likelihood_huge_nu0_no_cancellation():
    # The naive closed form subtracts two ~1e21 terms here; the rearranged
    # evaluation must agree with the 120-digit reference and be already
    # converged to its nu0 -> inf limit.
    stats = [_stats(3, 1.2, 0.5)]
    for nu0 in (1e20, 1e40):
        lml = nix_log_marginal_likelihood(
            stats, NixHyperparams(mu0=1.0, kappa0=2.0, nu0=nu0, sigma0_sq=1.5)
        )
        assert lml == pytest.approx(-4.1724919610466756642, rel=1e-12), nu0


def test_log_marginal_likelihood_rejects_empty():
    with pytest.raises(DataError):
        nix_log_marginal_likelihood(
            [], NixHyperparams(mu0=0.0, kappa0=1.0, nu0=1.0, sigma0_sq=1.0)
        )


def _heterogeneous_stats():
    rng = np.random.default_rng(42)
    stats = []
    for _ in range(15):
        mu = 10.0 + rng.standard_normal()
        sig = float(np.exp(0.4 * rng.standard_normal()))
        x = mu + sig * rng.standard_normal(6)
        stats.append(_stats(6, float(x.mean()), float(x.var(ddof=1))))
    return stats


def test_learn_nix_improves_on_moment_init():
    stats = _heterogeneous_stats()
    learned = learn_nix(stats)
    init = NixHyperparams(
        mu0=float(np.mean([s.mean for s in stats])),
        kappa0=1.0,
        nu0=1.0,
        sigma0_sq=float(np.mean([s.var_unbiased for s in stats])),
    )
    assert nix_log_marginal_likelihood(stats, learned) >= nix_log_marginal_likelihood(
        stats, init
    )
    # Generating process: means ~ N(10, 1), shared-scale noise, n = 6.
    assert 9.0 < learned.mu0 < 11.0
    assert 0.3 < learned.kappa0 < 10.0
    assert 1.0 < learned.nu0 < 50.0
    assert 0.15 < learned.sigma0_sq < 3.0


def test_learn_nix_deterministic():
    stats = _heterogeneous_stats()
    assert learn_nix(stats) == learn_nix(stats)


def test_learn_nix_returns_the_point_it_scored(monkeypatch):
    # Over the 400 fits of the criterion 6/7 data (examples 1 and 2, 200
    # trials each, seed 2026), the returned prior is the optimizer's point
    # mapped exactly as the objective maps it, so it scores exactly the
    # optimizer's reported objective.  Each prior also keeps the bits
    # recorded before the simplex loop stopped building arrays.
    recorded = json.loads(
        (Path(__file__).parent / "data" / "nix_criterion67_priors.json").read_text()
    )["priors"]
    results = []

    def spy(objective, init, **kwargs):
        results.append(maximize(objective, init, **kwargs))
        return results[-1]

    monkeypatch.setattr(prior_nix, "maximize", spy)
    for example in (1, 2):
        mu_range, sigma_range = EXAMPLES[example]
        cfg = SyntheticConfig(20, 5, mu_range, sigma_range, trials=200, seed=2026)
        for t in range(cfg.trials):
            stats = [sufficient_stats(s) for s in generate_synthetic(cfg, t)[1]]
            hyper = learn_nix(stats)
            result = results[-1]
            assert hyper == NixHyperparams(*_natural(result.point)), (example, t)
            assert nix_log_marginal_likelihood(stats, hyper) == result.objective, (example, t)
            want = [float.fromhex(h) for h in recorded[str(example)][t]]
            assert [hyper.mu0, hyper.kappa0, hyper.nu0, hyper.sigma0_sq] == want, (example, t)
    assert len(results) == 400


def test_learn_nix_needs_two_populations():
    with pytest.raises(DataError):
        learn_nix([_stats(5, 0.0, 1.0)])


def test_learn_nix_zero_variance_data_fails_loudly():
    # sigma0_sq -> 0 is a supremum here; the learner must raise rather
    # than silently return a degenerate prior.
    zstats = [_stats(2, m, 0.0) for m in (4.9, 5.0, 5.1)]
    with pytest.raises(NumericalError):
        learn_nix(zstats)


def test_learn_nix_on_all_constant_data_is_quiet():
    # The search overflows a / prior_ss on its way down sigma0_sq; maximize
    # keeps numpy quiet, and the prior keeps its pinned bits.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hyper = learn_nix([_stats(2, 1.0, 0.0)] * 3)
    want = ["0x1.0000000000000p+0", "0x1.05e04c062779bp+46",
            "0x1.421b6d86a1a18p+74", "0x1.14f2b0fb9307fp-1010"]
    assert [hyper.mu0, hyper.kappa0, hyper.nu0, hyper.sigma0_sq] == [
        float.fromhex(h) for h in want
    ]


@pytest.mark.parametrize(
    "hyper",
    [
        # nu0 * sigma0_sq passes the float range: the posterior scatter is inf.
        NixHyperparams(mu0=1e150, kappa0=1.0, nu0=1e10, sigma0_sq=1e300),
        # kappa0 * mu0 does: the posterior mean is inf.
        NixHyperparams(mu0=1e150, kappa0=1e160, nu0=1.0, sigma0_sq=1.0),
    ],
    ids=["scatter", "mean"],
)
def test_nix_map_overflow_is_a_numerical_error(hyper):
    with pytest.raises(NumericalError, match="NIX posterior overflows"):
        nix_map(_stats(2, 1e150, 1e300), hyper)


def test_nix_map_hand_computed():
    stats = _stats(4, 2.0, 1.0)
    hyper = NixHyperparams(mu0=0.0, kappa0=1.0, nu0=2.0, sigma0_sq=0.5)
    # Posterior: mu_n = 1.6, nu_n = 6, scatter = 7.2.
    biased = nix_map(stats, hyper)
    assert biased.mu == pytest.approx(1.6, rel=1e-15)
    assert biased.sigma_sq == pytest.approx(7.2 / 9.0, rel=1e-14)
    unbiased = nix_map(stats, hyper, VarianceMode.UNBIASED)
    assert unbiased.mu == biased.mu
    assert unbiased.sigma_sq == pytest.approx(7.2 / 5.0, rel=1e-14)
    assert unbiased.sigma_sq > biased.sigma_sq


def test_nix_map_shrinkage_monotone_in_kappa0():
    stats = _stats(5, 4.0, 1.0)
    base = dict(mu0=0.0, nu0=2.0, sigma0_sq=1.0)
    gaps = [
        abs(nix_map(stats, NixHyperparams(kappa0=k, **base)).mu)
        for k in (0.1, 1.0, 10.0, 100.0)
    ]
    assert gaps == sorted(gaps, reverse=True)


def test_nix_map_variance_approaches_prior_scale_in_nu0():
    stats = _stats(5, 0.0, 4.0)
    base = dict(mu0=0.0, kappa0=1.0, sigma0_sq=1.0)
    gaps = [
        abs(nix_map(stats, NixHyperparams(nu0=v, **base)).sigma_sq - 1.0)
        for v in (1.0, 10.0, 100.0, 1000.0)
    ]
    assert gaps == sorted(gaps, reverse=True)


def _reference_log_marginal(n, xbar, var, mu0, kappa0, nu0, sigma0_sq):
    # The per-population arrangement the kernel replaced: every term on
    # every population, summed with np.sum.  The kernel must keep its bits.
    prior_ss = nu0 * sigma0_sq
    half_n = 0.5 * n
    between = n * (mu0 - xbar) ** 2 / (1.0 + n / kappa0)
    a = (n - 1.0) * var + between
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (
            sp.gammaln(half_n)
            - sp.betaln(0.5 * nu0, half_n)
            - 0.5 * np.log1p(n / kappa0)
            - 0.5 * nu0 * np.log1p(a / prior_ss)
            - half_n * np.log(prior_ss + a)
            - half_n * math.log(math.pi)
        )
    return float(np.sum(terms))


def _mixed_size_stats(zero_var_at=None):
    # n from 2 to 8 plus one large population, in shuffled order.
    rng = np.random.default_rng(11)
    sizes = list(rng.integers(2, 9, size=300)) + [5000]
    stats = []
    for i, n in enumerate(sizes):
        x = 3.0 + rng.standard_normal(int(n))
        stats.append(_stats(int(n), float(x.mean()), float(x.var(ddof=1))))
    if zero_var_at is not None:
        stats[0] = _stats(4, zero_var_at, 0.0)
    return stats


def _kernel_pair(stats, mu0, kappa0, nu0, sigma0_sq):
    # At exp(+-700) some quotients overflow, as they always did; only the
    # values are compared here.
    with np.errstate(all="ignore"):
        got = _nix_log_marginal(_NixData(stats), mu0, kappa0, nu0, sigma0_sq)
        want = _reference_log_marginal(*_stats_arrays(stats), mu0, kappa0, nu0, sigma0_sq)
    return got, want


# The optimizer clips log-hyperparameters to +-700.
_EDGE = pytest.mark.parametrize(
    "value", [math.exp(-700.0), 1.0, math.exp(700.0)], ids=["tiny", "one", "huge"]
)
_EDGE_NAMES = ("kappa0", "nu0", "sigma0_sq")


@pytest.mark.parametrize("mu0", [3.0, -40.0], ids=["near", "far"])
@pytest.mark.parametrize("name", _EDGE_NAMES)
@_EDGE
def test_kernel_keeps_bits_at_extreme_hyperparameters(mu0, name, value):
    hyper = {"kappa0": 0.37, "nu0": 12.5, "sigma0_sq": 0.8, name: value}
    got, want = _kernel_pair(_mixed_size_stats(), mu0, **hyper)
    assert_array_equal(got, want)


@pytest.mark.parametrize("mu0", [3.0, -40.0], ids=["near", "far"])
@_EDGE
def test_kernel_keeps_bits_with_every_hyperparameter_extreme(mu0, value):
    got, want = _kernel_pair(_mixed_size_stats(), mu0, value, value, value)
    assert_array_equal(got, want)


@pytest.mark.parametrize("mu0", [3.0, -40.0])
@pytest.mark.parametrize("kappa0", [1e-3, 0.37, 5.0, 1e6])
@pytest.mark.parametrize("nu0", [0.5, 12.5, 1e9])
def test_kernel_keeps_bits_on_mixed_sizes(mu0, kappa0, nu0):
    got, want = _kernel_pair(_mixed_size_stats(), mu0, kappa0, nu0, 0.8)
    assert math.isfinite(got)
    assert_array_equal(got, want)


def test_kernel_keeps_bits_at_the_corners():
    # sigma0_sq -> 0 underflows prior_ss to 0: the value is -inf.
    got, want = _kernel_pair(_mixed_size_stats(), 3.0, 1.0, 1e-300, 1e-300)
    assert got == -math.inf
    assert_array_equal(got, want)
    # A population with a = 0 (zero variance, mean at mu0) makes 0/0: NaN.
    got, want = _kernel_pair(_mixed_size_stats(zero_var_at=3.0), 3.0, 1.0, 1e-300, 1e-300)
    assert math.isnan(got)
    assert_array_equal(got, want)


def _equal_size_stats(zero_var_at=None, n=5):
    # Every population of one size: _NixData's scalar form.
    rng = np.random.default_rng(12)
    stats = []
    for _ in range(300):
        x = 3.0 + rng.standard_normal(n)
        stats.append(_stats(n, float(x.mean()), float(x.var(ddof=1))))
    if zero_var_at is not None:
        stats[0] = _stats(n, zero_var_at, 0.0)
    return stats


def test_nix_data_holds_equal_sizes_as_scalars():
    data = _NixData(_equal_size_stats())
    assert data.size_index == ()
    for name in ("n", "half_n", "half_n_log_pi", "sizes", "half_sizes", "lgamma_half_sizes"):
        assert isinstance(getattr(data, name), np.float64), name
    assert data.xbar.shape == data.var.shape == data.scatter.shape == (300,)
    mixed = _NixData(_mixed_size_stats())
    assert mixed.size_index.shape == mixed.n.shape == (301,)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("mu0", [3.0, -40.0], ids=["near", "far"])
@pytest.mark.parametrize("name", _EDGE_NAMES)
@_EDGE
def test_kernel_keeps_bits_on_equal_sizes_at_extreme_hyperparameters(mu0, name, value, n):
    hyper = {"kappa0": 0.37, "nu0": 12.5, "sigma0_sq": 0.8, name: value}
    got, want = _kernel_pair(_equal_size_stats(n=n), mu0, **hyper)
    assert_array_equal(got, want)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("mu0", [3.0, -40.0], ids=["near", "far"])
@_EDGE
def test_kernel_keeps_bits_on_equal_sizes_with_every_hyperparameter_extreme(mu0, value, n):
    got, want = _kernel_pair(_equal_size_stats(n=n), mu0, value, value, value)
    assert_array_equal(got, want)


@pytest.mark.parametrize("mu0", [3.0, -40.0])
@pytest.mark.parametrize("kappa0", [1e-3, 0.37, 5.0, 1e6])
@pytest.mark.parametrize("nu0", [0.5, 12.5, 1e9])
def test_kernel_keeps_bits_on_equal_sizes(mu0, kappa0, nu0):
    got, want = _kernel_pair(_equal_size_stats(), mu0, kappa0, nu0, 0.8)
    assert math.isfinite(got)
    assert_array_equal(got, want)


def test_kernel_keeps_bits_on_equal_sizes_at_the_corners():
    # prior_ss underflows to 0: -inf, as with mixed sizes.
    got, want = _kernel_pair(_equal_size_stats(), 3.0, 1.0, 1e-300, 1e-300)
    assert got == -math.inf
    assert_array_equal(got, want)
    # a = 0 at one population: NaN.
    got, want = _kernel_pair(_equal_size_stats(zero_var_at=3.0), 3.0, 1.0, 1e-300, 1e-300)
    assert math.isnan(got)
    assert_array_equal(got, want)


def test_log_marginal_likelihood_corner_is_quiet_under_raise():
    hyper = NixHyperparams(mu0=3.0, kappa0=1.0, nu0=1e-300, sigma0_sq=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            lml = nix_log_marginal_likelihood(_mixed_size_stats(), hyper)
    assert lml == -math.inf
