import hashlib
import math

import numpy as np
import pytest
from scipy import stats as st

from mpme import prior_nix, verify
from mpme.cli import cli_main
from mpme.core import DataError, NumericalError, SufficientStats
from mpme.prior_nix import NixHyperparams, nix_log_marginal_likelihood
from mpme.prior_uni import UniHyperparams, uni_log_marginal_likelihood
from mpme.verify import (
    SUITES,
    SuiteResult,
    grid_map_argmax,
    nix_posterior_windows,
    nix_prior_density,
    numeric_marginal,
    run_suite,
    suite_correlation,
    suite_map_argmax,
    suite_nix_likelihood,
    suite_uni_gradient,
    suite_uni_likelihood,
    uni_log_marginal_via_q,
)


def _stats(n, mean, var):
    return SufficientStats(n=n, mean=mean, var_unbiased=var)


def test_numeric_marginal_matches_nix_closed_form():
    stats = _stats(5, 1.0, 0.8)
    hyper = NixHyperparams(mu0=0.5, kappa0=2.0, nu0=3.0, sigma0_sq=1.5)
    closed = math.exp(nix_log_marginal_likelihood([stats], hyper))
    mu_w, s_w = nix_posterior_windows(stats, hyper)
    oracle = numeric_marginal(stats, nix_prior_density(hyper), mu_w, s_w, 2000)
    assert oracle == pytest.approx(closed, rel=1e-7)


def test_numeric_marginal_converges_with_nodes():
    stats = _stats(5, 1.0, 0.8)
    hyper = NixHyperparams(mu0=0.5, kappa0=2.0, nu0=3.0, sigma0_sq=1.5)
    closed = math.exp(nix_log_marginal_likelihood([stats], hyper))
    mu_w, s_w = nix_posterior_windows(stats, hyper)
    coarse = abs(numeric_marginal(stats, nix_prior_density(hyper), mu_w, s_w, 250) - closed)
    fine = abs(numeric_marginal(stats, nix_prior_density(hyper), mu_w, s_w, 2000) - closed)
    assert fine < coarse


def test_numeric_marginal_validation():
    stats = _stats(5, 1.0, 0.8)
    flat = lambda mu, s2: np.ones_like(mu + s2)
    with pytest.raises(DataError):
        numeric_marginal(stats, flat, (0.0, 1.0), (0.5, 1.5), nodes=1)
    with pytest.raises(DataError):
        numeric_marginal(stats, flat, (1.0, 0.0), (0.5, 1.5))
    with pytest.raises(DataError):
        numeric_marginal(stats, flat, (0.0, 1.0), (-0.5, 1.5))
    with pytest.raises(NumericalError):
        numeric_marginal(
            stats, lambda mu, s2: np.full_like(mu + s2, np.inf), (0.0, 1.0), (0.5, 1.5)
        )


def test_grid_map_argmax_finds_interior_peak():
    def log_post(mu, s2):
        return -((mu - 0.7) ** 2) - (np.log(s2) - math.log(1.3)) ** 2

    mu_g, s2_g = grid_map_argmax(log_post, (0.0, 2.0), (0.5, 3.0), nodes=2000)
    assert mu_g == pytest.approx(0.7, abs=2.0 / 1999)
    assert s2_g == pytest.approx(1.3, rel=2.0 * math.log(6.0) / 1999)


def test_grid_map_argmax_flat_tie_breaks_to_first_point():
    mu_g, s2_g = grid_map_argmax(
        lambda mu, s2: np.zeros(np.broadcast(mu, s2).shape), (0.0, 2.0), (0.5, 3.0), nodes=101
    )
    assert mu_g == 0.0
    assert s2_g == 0.5


def test_grid_map_argmax_boundary_max_rejected():
    with pytest.raises(NumericalError, match="window too small"):
        grid_map_argmax(lambda mu, s2: mu + 0.0 * s2, (0.0, 2.0), (0.5, 3.0), nodes=101)


def test_grid_map_argmax_rejects_nan_and_bad_nodes():
    with pytest.raises(NumericalError):
        grid_map_argmax(
            lambda mu, s2: np.full(np.broadcast(mu, s2).shape, np.nan),
            (0.0, 2.0),
            (0.5, 3.0),
        )
    with pytest.raises(DataError):
        grid_map_argmax(lambda mu, s2: mu, (0.0, 2.0), (0.5, 3.0), nodes=2)


def test_nix_posterior_windows_cover_posterior_center():
    stats = _stats(5, 1.0, 0.8)
    hyper = NixHyperparams(mu0=0.5, kappa0=2.0, nu0=3.0, sigma0_sq=1.5)
    (m_lo, m_hi), (v_lo, v_hi) = nix_posterior_windows(stats, hyper)
    from mpme.prior_nix import nix_posterior_update

    _, mu_n, _, sigma_n_sq = nix_posterior_update(stats, hyper)
    assert m_lo < mu_n < m_hi
    assert v_lo < sigma_n_sq < v_hi


def _reference_posterior_windows(stats, hyper):
    # The scipy.stats expression whose bits nix_posterior_windows keeps.
    kappa_n, mu_n, nu_n, sigma_n_sq = prior_nix.nix_posterior_update(stats, hyper)
    ig = st.invgamma(a=0.5 * nu_n, scale=0.5 * nu_n * sigma_n_sq)
    s_lo, s_hi = ig.ppf(1e-9) / 4.0, ig.ppf(1.0 - 1e-9) * 4.0
    half = 12.0 * math.sqrt(s_hi / kappa_n)
    return (mu_n - half, mu_n + half), (s_lo, s_hi)


def _wide_nix_hyper(rng):
    # Hyperparameters over the decades a learned prior reaches.
    e = rng.uniform(-3.0, 6.0, 3)
    return NixHyperparams(float(rng.uniform(-5.0, 5.0)), *(10.0**e).tolist())


@pytest.mark.parametrize("draw_hyper", [verify._random_nix_hyper, _wide_nix_hyper],
                         ids=["suite", "wide"])
def test_nix_posterior_windows_keep_the_scipy_stats_bits(draw_hyper):
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        stats, hyper = verify._random_stats(rng), draw_hyper(rng)
        got = nix_posterior_windows(stats, hyper)
        want = _reference_posterior_windows(stats, hyper)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (stats, hyper)


def test_q_decomposition_agrees_with_production_quadrature():
    stats = [_stats(5, 10.1, 1.2)]
    hyper = UniHyperparams(a=9.5, b=10.5, c=0.95, d=1.05)
    ll = uni_log_marginal_likelihood(stats, hyper)
    ll_q = uni_log_marginal_via_q(stats, hyper)
    assert ll == pytest.approx(ll_q, abs=1e-7)


def test_q_decomposition_validation():
    hyper = UniHyperparams(a=9.5, b=10.5, c=0.95, d=1.05)
    with pytest.raises(DataError, match="n >= 4"):
        uni_log_marginal_via_q([_stats(3, 10.0, 1.0)], hyper)
    with pytest.raises(DataError, match="positive sample variance"):
        uni_log_marginal_via_q([_stats(5, 10.0, 0.0)], hyper)


def test_suite_nix_likelihood_reduced():
    res = suite_nix_likelihood(cases=3)
    assert isinstance(res, SuiteResult)
    assert res.passed and res.cases == 3
    assert res.worst <= res.tolerance == 1e-6
    assert len(res.lines) == 3


def test_suite_uni_likelihood_reduced():
    res = suite_uni_likelihood(cases=2)
    assert res.passed and res.cases == 2
    assert res.worst <= res.tolerance == 1e-5


def test_suite_map_argmax_reduced():
    res = suite_map_argmax(cases=2)
    # Each case checks both prior families.
    assert res.passed and res.cases == 4
    assert res.worst <= res.tolerance == 1.0


def test_suite_correlation_reduced():
    res = suite_correlation(draws=200_000, tol=2e-2)
    assert res.passed and res.cases == 3


def test_suite_fails_on_nan(monkeypatch):
    # max(0.0, nan) is 0.0, so a plain fold would pass a NaN closed form.
    monkeypatch.setattr(prior_nix, "nix_log_marginal_likelihood", lambda *a: math.nan)
    res = suite_nix_likelihood(cases=2)
    assert not res.passed
    assert math.isnan(res.worst)


def test_run_suite_dispatch():
    assert set(SUITES) == {
        "nix-likelihood", "uni-likelihood", "uni-gradient", "map-argmax", "correlation"
    }
    res = run_suite("nix-likelihood", cases=2)
    assert res.name == "nix-likelihood" and res.cases == 2
    res = run_suite("correlation", cases=100_000)
    assert res.name == "correlation" and res.cases == 3
    with pytest.raises(DataError, match="unknown verification suite"):
        run_suite("nope")


def test_suite_uni_gradient_passes():
    res = run_suite("uni-gradient")
    assert res.passed and res.cases == 24
    assert res.worst <= res.tolerance == 1e-6
    # Every kind of case is covered, four times.
    for kind in ("n=2", "n=3", "n=30", "narrow", "zero-scatter edge", "far box"):
        assert sum(f"({kind})" in line for line in res.lines) == 4


def test_suite_uni_gradient_catches_a_wrong_gradient(monkeypatch):
    from mpme import prior_uni

    real = prior_uni.uni_log_marginal_likelihood

    def off(stats_list, hyper, **derivs):
        if not derivs:
            return real(stats_list, hyper)
        value, grad, *hess = real(stats_list, hyper, **derivs)
        return value, grad * (1.0 + 1e-5), *hess

    monkeypatch.setattr(prior_uni, "uni_log_marginal_likelihood", off)
    assert not suite_uni_gradient(cases=6).passed


@pytest.mark.parametrize("entry", [(0, 0), (0, 2)], ids=["a-a", "a-c"])
def test_suite_uni_gradient_catches_a_wrong_hessian_entry(monkeypatch, entry):
    from mpme import prior_uni

    real = prior_uni.uni_log_marginal_likelihood

    def off(stats_list, hyper, **derivs):
        if not derivs.get("hessian"):
            return real(stats_list, hyper, **derivs)
        value, grad, hess = real(stats_list, hyper, **derivs)
        hess = hess.copy()
        i, j = entry
        hess[i, j] *= 1.0 + 1e-5
        hess[j, i] = hess[i, j]
        return value, grad, hess

    monkeypatch.setattr(prior_uni, "uni_log_marginal_likelihood", off)
    assert not suite_uni_gradient(cases=6).passed


@pytest.mark.parametrize(
    "part", [1, 3, 2], ids=["face-gradient", "face-curvature", "face-hessian"]
)
def test_suite_uni_gradient_catches_a_wrong_face(monkeypatch, part):
    from mpme import prior_uni

    real = prior_uni._face_log_marginal

    def off(*args):
        out = list(real(*args))
        out[part] = out[part] * (1.0 + 1e-5)
        return tuple(out)

    monkeypatch.setattr(prior_uni, "_face_log_marginal", off)
    assert not suite_uni_gradient(cases=1).passed


# sha256 of what `mpme verify --suite NAME` printed before the UNI marginal
# gained its gradient; the default suites must print the same bytes.  The
# nix-likelihood suite (14 s) is left out: it runs no UNI code.
_DEFAULT_SUITE_OUTPUT = {
    "uni-likelihood": "4762f42efaa2d42a674632bf0776b7ea2cf6368a07abe245d4dc782dad4d70aa",
    "map-argmax": "caed1591caa57e9e896da8d02aba315d1e47a3771cc894a4c0120f5e8a7d3324",
    "correlation": "bcb53707b1d969af41cacad194e409f5caeda3b103c529c430e3f5b3621d7044",
}


@pytest.mark.parametrize("name", sorted(_DEFAULT_SUITE_OUTPUT))
def test_default_suites_print_the_same_bytes(name, capsys):
    assert cli_main(["verify", "--suite", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _DEFAULT_SUITE_OUTPUT[name]
