import math

import numpy as np
import pytest

import mpme.experiments as experiments
from mpme.core import (
    DataError,
    Method,
    MomentEstimate,
    NumericalError,
    PopulationSample,
    SufficientStats,
    sufficient_stats,
)
from mpme.estimators import sample_estimate
from mpme.experiments import (
    GroundTruth,
    SyntheticConfig,
    bootstrap_benchmark,
    error_report,
    generate_synthetic,
    induced_correlation,
    prune_outliers,
    run_benchmark,
    run_benchmark_detailed,
    standin_dataset,
)


def _cfg(**kw):
    base = dict(
        populations=4,
        samples_per_population=5,
        mu_range=(9.5, 10.5),
        sigma_range=(0.95, 1.05),
        trials=3,
        seed=0,
    )
    base.update(kw)
    return SyntheticConfig(**base)


def test_synthetic_config_validation():
    _cfg()
    with pytest.raises(DataError):
        _cfg(populations=0)
    with pytest.raises(DataError):
        _cfg(samples_per_population=1)
    with pytest.raises(DataError):
        _cfg(mu_range=(2.0, 1.0))
    with pytest.raises(DataError):
        _cfg(sigma_range=(0.0, 1.0))
    with pytest.raises(DataError):
        _cfg(trials=0)
    with pytest.raises(DataError):
        _cfg(seed=-1)
    with pytest.raises(DataError):
        _cfg(seed=2**64)


def test_ground_truth_validation():
    GroundTruth(mu=(1.0, 2.0), sigma=(1.0, 1.0))
    with pytest.raises(DataError):
        GroundTruth(mu=(1.0,), sigma=(1.0, 1.0))
    with pytest.raises(DataError):
        GroundTruth(mu=(), sigma=())
    with pytest.raises(DataError):
        GroundTruth(mu=(1.0,), sigma=(0.0,))


def test_generate_synthetic_equal_spacing():
    truth, samples = generate_synthetic(_cfg(populations=2), 0)
    assert truth.mu == (9.5, 10.5)
    assert truth.sigma == (0.95, 1.05)
    truth3, _ = generate_synthetic(_cfg(populations=3), 0)
    assert truth3.mu == pytest.approx((9.5, 10.0, 10.5))
    assert truth3.sigma == pytest.approx((0.95, 1.0, 1.05))
    truth_wide, _ = generate_synthetic(
        _cfg(populations=2, sigma_range=(1.9, 2.1)), 0
    )
    assert truth_wide.sigma == (1.9, 2.1)
    assert [s.id for s in samples] == ["pop-000", "pop-001"]
    assert all(len(s.values) == 5 for s in samples)


def test_generate_synthetic_single_population_needs_point_ranges():
    cfg = _cfg(populations=1, mu_range=(10.0, 10.0), sigma_range=(1.0, 1.0))
    truth, samples = generate_synthetic(cfg, 0)
    assert truth.mu == (10.0,)
    with pytest.raises(DataError, match="equal spacing undefined"):
        generate_synthetic(_cfg(populations=1), 0)


def test_generate_synthetic_deterministic_per_trial():
    cfg = _cfg()
    _, a = generate_synthetic(cfg, 1)
    _, b = generate_synthetic(cfg, 1)
    assert [s.values for s in a] == [s.values for s in b]
    _, c = generate_synthetic(cfg, 2)
    assert [s.values for s in a] != [s.values for s in c]


def test_generate_synthetic_trial_index_bounds():
    with pytest.raises(DataError):
        generate_synthetic(_cfg(trials=3), 3)
    with pytest.raises(DataError):
        generate_synthetic(_cfg(trials=3), -1)


def test_error_report_hand_computed():
    truth = GroundTruth(mu=(0.0,), sigma=(1.0,))

    def est(mu, var):
        return MomentEstimate(mu=mu, sigma_sq=var)

    report = error_report([[est(1.0, 1.0)], [est(-1.0, 3.0)]], truth)
    assert report.eps_mu == pytest.approx(1.0, rel=1e-15)
    assert report.eps_sigma_sq == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert report.trials == 2
    exact = error_report([[est(0.0, 1.0)]], truth)
    assert exact.eps_mu == 0.0 and exact.eps_sigma_sq == 0.0


def test_error_report_validation():
    truth = GroundTruth(mu=(0.0, 1.0), sigma=(1.0, 1.0))
    e = MomentEstimate(mu=0.0, sigma_sq=1.0)
    with pytest.raises(DataError):
        error_report([], truth)
    with pytest.raises(DataError):
        error_report([[e]], truth)


def test_run_benchmark_sample_only_composition():
    # The harness must reproduce exactly what manual generation plus
    # estimation plus aggregation gives.
    cfg = _cfg()
    reports = run_benchmark(cfg, [Method.SAMPLE_EST])
    assert set(reports) == {Method.SAMPLE_EST}
    truth, _ = generate_synthetic(cfg, 0)
    rows = []
    for t in range(cfg.trials):
        _, samples = generate_synthetic(cfg, t)
        rows.append([sample_estimate(sufficient_stats(s)) for s in samples])
    assert reports[Method.SAMPLE_EST] == error_report(rows, truth)


def test_run_benchmark_detailed_collects_hypers_and_failures():
    cfg = _cfg(populations=8, trials=2)
    result = run_benchmark_detailed(cfg, [Method.SAMPLE_EST, Method.MPME_NIX])
    assert result.failures == []
    assert len(result.nix_hypers) == 2
    assert result.uni_hypers == []
    assert set(result.reports) == {Method.SAMPLE_EST, Method.MPME_NIX}
    assert result.truth == generate_synthetic(cfg, 0)[0]


def test_run_benchmark_bit_identical_across_threads():
    cfg = _cfg(populations=8, trials=4, seed=7)
    methods = [Method.SAMPLE_EST, Method.MPME_NIX]
    serial = run_benchmark_detailed(cfg, methods, threads=None)
    pooled = run_benchmark_detailed(cfg, methods, threads=3)
    assert serial.reports == pooled.reports
    assert serial.nix_hypers == pooled.nix_hypers


def test_run_benchmark_rejects_bad_methods():
    with pytest.raises(DataError, match="no methods requested"):
        run_benchmark(_cfg(), [])
    with pytest.raises(DataError):
        run_benchmark(_cfg(), [Method.SAMPLE_EST], threads=0)


def test_nix_learned_once_per_trial_for_both_nix_methods(monkeypatch):
    calls = []
    original = experiments.learn_nix

    def counting(stats_list):
        calls.append(len(stats_list))
        return original(stats_list)

    monkeypatch.setattr(experiments, "learn_nix", counting)
    result = run_benchmark_detailed(
        _cfg(populations=6), [Method.MPME_NIX, Method.MPME_NIX_UNBIASED]
    )
    assert calls == [6, 6, 6]
    assert len(result.nix_hypers) == 3
    assert set(result.reports) == {Method.MPME_NIX, Method.MPME_NIX_UNBIASED}


def test_pruning_learns_from_kept_populations_and_scores_all(monkeypatch):
    calls = []
    original = experiments.learn_nix

    def counting(stats_list):
        calls.append(len(stats_list))
        return original(stats_list)

    monkeypatch.setattr(experiments, "learn_nix", counting)
    cfg = _cfg(populations=8, trials=4, seed=3)
    methods = [Method.SAMPLE_EST, Method.MPME_NIX]
    plain = run_benchmark_detailed(cfg, methods)
    assert calls == [8] * 4
    calls.clear()
    pruned = run_benchmark_detailed(cfg, methods, prune_k=0.5)
    assert len(calls) == 4 and all(c <= 8 for c in calls) and min(calls) < 8
    for result in (plain, pruned):
        for report in result.reports.values():
            assert len(report.per_population_mu_rmse) == 8
            assert len(report.per_population_var_rmse) == 8


def test_benchmark_settings_are_keyword_only():
    with pytest.raises(TypeError):
        run_benchmark(_cfg(), [Method.SAMPLE_EST], 5.0)
    with pytest.raises(TypeError):
        bootstrap_benchmark(standin_dataset(), 5, 2, 0, [Method.SAMPLE_EST], 1)


def test_run_benchmark_aborts_when_too_many_trials_fail(monkeypatch):
    def broken(stats_list):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(experiments, "learn_nix", broken)
    with pytest.raises(NumericalError, match="> 5%"):
        run_benchmark(_cfg(trials=2), [Method.MPME_NIX])


def test_bootstrap_full_subsample_is_exact():
    # n_sub equal to the full sample size makes every subsample a
    # permutation of the full data, so sample estimates hit the "truth"
    # (the full-sample moments) exactly.
    dataset = standin_dataset()
    n_full = len(dataset[0].values)
    reports = bootstrap_benchmark(
        dataset, n_sub=n_full, trials=2, seed=5, methods=[Method.SAMPLE_EST]
    )
    rep = reports[Method.SAMPLE_EST]
    assert rep.eps_mu == 0.0
    # Truth is stored as sigma and squared back for the report, so the
    # variance residual is one sqrt/square round-trip, not exactly zero.
    assert rep.eps_sigma_sq < 1e-14


def test_bootstrap_deterministic_and_validated():
    dataset = standin_dataset()
    kw = dict(n_sub=5, trials=2, seed=5, methods=[Method.SAMPLE_EST])
    assert bootstrap_benchmark(dataset, **kw) == bootstrap_benchmark(dataset, **kw)
    with pytest.raises(DataError):
        bootstrap_benchmark([], **kw)
    with pytest.raises(DataError):
        bootstrap_benchmark(dataset, n_sub=1, trials=2, seed=5, methods=[Method.SAMPLE_EST])
    with pytest.raises(DataError):
        bootstrap_benchmark(dataset, n_sub=51, trials=2, seed=5, methods=[Method.SAMPLE_EST])
    with pytest.raises(DataError):
        bootstrap_benchmark(dataset, n_sub=5, trials=0, seed=5, methods=[Method.SAMPLE_EST])
    with pytest.raises(DataError):
        bootstrap_benchmark(dataset, n_sub=5, trials=2, seed=-1, methods=[Method.SAMPLE_EST])


def _stats_with_means(means, var=1.0, n=5):
    return [SufficientStats(n=n, mean=m, var_unbiased=var) for m in means]


def test_prune_outliers_keeps_clean_data():
    kept, removed = prune_outliers(_stats_with_means([1.0, 1.1, 0.9, 1.05]))
    assert len(kept) == 4 and removed == []


def test_prune_outliers_flags_far_mean():
    stats = _stats_with_means([1.0, 1.1, 0.9, 1.05, 50.0])
    kept, removed = prune_outliers(stats)
    assert [s.mean for s in removed] == [50.0]
    assert len(kept) == 4


def test_prune_outliers_zero_mad_rule():
    # Identical means everywhere except one: MAD is zero, so any nonzero
    # deviation is an outlier regardless of k.
    stats = _stats_with_means([5.0, 5.0, 5.0, 5.0001])
    kept, removed = prune_outliers(stats, k=1e9)
    assert [s.mean for s in removed] == [5.0001]


def test_prune_outliers_all_removed_is_error():
    # Even count: the median sits between points, so a tiny k can flag
    # every population at once.
    with pytest.raises(DataError, match="every population"):
        prune_outliers(_stats_with_means([1.0, 2.0, 4.0, 8.0]), k=0.01)


def test_prune_outliers_validation():
    stats = _stats_with_means([1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        prune_outliers(stats, k=0.0)
    with pytest.raises(DataError):
        prune_outliers(stats, k=math.inf)
    with pytest.raises(DataError):
        prune_outliers(stats[:2])


def test_induced_correlation_values():
    assert induced_correlation(1.0, 2.0) == pytest.approx(0.8, rel=1e-15)
    assert induced_correlation(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert induced_correlation(2.0, 1.0) == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(DataError):
        induced_correlation(0.0, 1.0)
    with pytest.raises(DataError):
        induced_correlation(1.0, math.inf)


def test_standin_dataset_shape_and_determinism():
    data = standin_dataset()
    assert [p.id for p in data] == [f"die-{i}" for i in range(1, 9)]
    assert all(len(p.values) == 50 for p in data)
    again = standin_dataset()
    assert [p.values for p in data] == [p.values for p in again]
    # The first population was generated with the widest spread.
    stds = [np.std(p.values, ddof=1) for p in data]
    assert int(np.argmax(stds)) == 0
