import math

import numpy as np
import pytest

from mpme.core import (
    DataError,
    ErrorReport,
    Method,
    MomentEstimate,
    PopulationSample,
    SufficientStats,
    sufficient_stats,
)


def test_population_sample_validation():
    p = PopulationSample(id="a", values=(1.0, 2.0))
    assert p.values == (1.0, 2.0)
    with pytest.raises(DataError):
        PopulationSample(id="", values=(1.0,))
    with pytest.raises(DataError):
        PopulationSample(id="a", values=())
    with pytest.raises(DataError):
        PopulationSample(id="a", values=(1.0, math.nan))
    with pytest.raises(DataError):
        PopulationSample(id="a", values=(1.0, math.inf))


def test_population_sample_names_the_bad_index():
    with pytest.raises(DataError, match=r"population 'a'\[2\] = inf is not finite"):
        PopulationSample(id="a", values=[1.0, 2.0, math.inf, math.nan])


def test_population_sample_coerces_to_float_tuple():
    p = PopulationSample(id="a", values=[1, 2, 3])
    assert p.values == (1.0, 2.0, 3.0)
    assert all(isinstance(v, float) for v in p.values)


def test_sufficient_stats_validation():
    s = SufficientStats(n=3, mean=0.5, var_unbiased=1.0)
    assert (s.n, s.mean, s.var_unbiased) == (3, 0.5, 1.0)
    with pytest.raises(DataError):
        SufficientStats(n=1, mean=0.0, var_unbiased=0.0)
    with pytest.raises(DataError):
        SufficientStats(n=2, mean=math.nan, var_unbiased=0.0)
    with pytest.raises(DataError):
        SufficientStats(n=2, mean=0.0, var_unbiased=-1.0)


def test_sufficient_stats_known_values():
    s = sufficient_stats(PopulationSample(id="a", values=(1.0, 2.0, 3.0, 4.0)))
    assert s.n == 4
    assert s.mean == pytest.approx(2.5, rel=1e-15)
    assert s.var_unbiased == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_sufficient_stats_requires_two_values():
    with pytest.raises(DataError, match="n = 1"):
        sufficient_stats(PopulationSample(id="solo", values=(1.0,)))


def test_sufficient_stats_offset_stability():
    # Spread ten orders of magnitude below the mean; a naive one-pass
    # E[x^2] - E[x]^2 loses every significant digit here.  Base and
    # offsets are powers of two so the inputs are exact in binary.
    base = float(2**30)
    values = (base - 0.125, base, base + 0.125)
    s = sufficient_stats(PopulationSample(id="a", values=values))
    assert s.mean == base
    assert s.var_unbiased == 0.015625


def test_method_enum_wire_values():
    assert Method.SAMPLE_EST.value == "sample"
    assert Method.MPME_NIX.value == "mpme-nix"
    assert Method.MPME_NIX_UNBIASED.value == "mpme-nix-unbiased"
    assert Method.MPME_UNI.value == "mpme-uni"
    assert len(Method) == 4


def test_moment_estimate_validation():
    e = MomentEstimate(mu=1.0, sigma_sq=2.0)
    assert e.mu == 1.0 and e.sigma_sq == 2.0
    with pytest.raises(DataError):
        MomentEstimate(mu=math.nan, sigma_sq=1.0)
    with pytest.raises(DataError):
        MomentEstimate(mu=0.0, sigma_sq=-1.0)


def test_error_report_aggregation():
    rep = ErrorReport(
        per_population_mu_rmse=[0.1, 0.3], per_population_var_rmse=[0.2, 0.6], trials=7
    )
    assert rep.eps_mu == pytest.approx(0.2, rel=1e-15)
    assert rep.eps_sigma_sq == pytest.approx(0.4, rel=1e-15)
    assert rep.trials == 7
    assert np.allclose(rep.per_population_mu_rmse, (0.1, 0.3))


@pytest.mark.parametrize(
    "mu_rmse, var_rmse, trials",
    [
        ([0.1], [0.2], 0),
        ([], [], 1),
        ([0.1, 0.2], [0.2], 1),
        ([math.nan], [0.2], 1),
        ([0.1], [math.inf], 1),
        ([-0.1], [0.2], 1),
    ],
)
def test_error_report_validation(mu_rmse, var_rmse, trials):
    with pytest.raises(DataError):
        ErrorReport(mu_rmse, var_rmse, trials)


@pytest.mark.parametrize(
    "values",
    [(1e308, 1e308), (1.0, 1e308)],
    ids=["mean-overflow", "variance-overflow"],
)
def test_sufficient_stats_overflow_is_data_error(values):
    # Finite inputs whose sum (fsum) or squared deviation ((v - mean) ** 2)
    # overflows: a data error naming the population, not an OverflowError.
    with pytest.raises(DataError, match="'huge'.*overflow"):
        sufficient_stats(PopulationSample(id="huge", values=values))
