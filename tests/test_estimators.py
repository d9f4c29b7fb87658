import pytest

from mpme.core import DataError, Method, SufficientStats
from mpme.estimators import pooled_mean, pooled_variance, sample_estimate


def _stats(mean, var, n=5):
    return SufficientStats(n=n, mean=mean, var_unbiased=var)


def test_sample_estimate_passthrough():
    est = sample_estimate(_stats(1.5, 0.75))
    assert est.mu == 1.5
    assert est.sigma_sq == 0.75
    assert est.method is Method.SAMPLE_EST


def test_pooled_estimators_average():
    stats = [_stats(1.0, 2.0), _stats(3.0, 4.0), _stats(5.0, 0.0)]
    assert pooled_mean(stats) == pytest.approx(3.0, rel=1e-15)
    assert pooled_variance(stats) == pytest.approx(2.0, rel=1e-15)


def test_pooled_estimators_reject_empty():
    with pytest.raises(DataError):
        pooled_mean([])
    with pytest.raises(DataError):
        pooled_variance([])
