from mpme.core import SufficientStats
from mpme.estimators import sample_estimate


def _stats(mean, var, n=5):
    return SufficientStats(n=n, mean=mean, var_unbiased=var)


def test_sample_estimate_passthrough():
    est = sample_estimate(_stats(1.5, 0.75))
    assert est.mu == 1.5
    assert est.sigma_sq == 0.75
