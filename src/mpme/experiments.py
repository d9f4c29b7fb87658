"""Benchmark harness: synthetic generators, Monte Carlo trial runner,
bootstrap resampling, error metrics, and outlier pruning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .core import (
    DataError,
    ErrorReport,
    Method,
    MomentEstimate,
    NumericalError,
    PopulationSample,
    SufficientStats,
    sufficient_stats,
)
from .estimators import sample_estimate
from .prior_nix import NixHyperparams, VarianceMode, learn_nix, nix_map
from .prior_uni import UniHyperparams, learn_uni, uni_map

__all__ = [
    "ESTIMATORS",
    "METHOD_NAMES",
    "EXAMPLES",
    "estimate_populations",
    "SyntheticConfig",
    "GroundTruth",
    "BenchmarkResult",
    "generate_synthetic",
    "error_report",
    "run_benchmark",
    "run_benchmark_detailed",
    "bootstrap_benchmark",
    "bootstrap_benchmark_detailed",
    "prune_outliers",
    "induced_correlation",
    "standin_dataset",
]

# The one table of estimators: each method's short name, the prior it
# learns (None for none) and its MAP rule.  The rules name their functions
# at call time, so a function replaced on this module is the one called.
ESTIMATORS = {
    Method.SAMPLE_EST: ("sample", None, lambda s, hyper: sample_estimate(s)),
    Method.MPME_NIX: ("nix", "nix", lambda s, hyper: nix_map(s, hyper, VarianceMode.BIASED)),
    Method.MPME_NIX_UNBIASED: (
        "nix-unbiased",
        "nix",
        lambda s, hyper: nix_map(s, hyper, VarianceMode.UNBIASED),
    ),
    Method.MPME_UNI: ("uni", "uni", lambda s, hyper: uni_map(s, hyper)),
}

METHOD_NAMES = {name: method for method, (name, _, _) in ESTIMATORS.items()}


def estimate_populations(
    methods,
    stats_list: Sequence[SufficientStats],
    learn_stats: Sequence[SufficientStats],
) -> tuple[dict[Method, list[MomentEstimate]], dict[str, NixHyperparams | UniHyperparams]]:
    """Estimate every population's moments by each requested method.

    Each prior the methods need is learned once, from ``learn_stats``;
    every method's MAP rule is then applied to each of ``stats_list``.
    Returns the estimates by method and the learned hyperparameters by
    prior name (``"nix"``, ``"uni"``).
    """
    hypers: dict[str, NixHyperparams | UniHyperparams] = {}
    estimates: dict[Method, list[MomentEstimate]] = {}
    # Table order fixes which prior is learned first, and with it which
    # failure a trial reports when both fail.
    for method in [m for m in ESTIMATORS if m in methods]:
        _, prior, map_rule = ESTIMATORS[method]
        if prior == "nix" and prior not in hypers:
            hypers[prior] = learn_nix(learn_stats)
        elif prior == "uni" and prior not in hypers:
            hypers[prior] = learn_uni(learn_stats)
        estimates[method] = [map_rule(s, hypers.get(prior)) for s in stats_list]
    return estimates, hypers


_MAX_SEED = 2**64

# Generator ranges of the two synthetic examples, as (mu_range,
# sigma_range): means equally spaced over [9.5, 10.5]; standard deviations
# over [0.95, 1.05] (example 1, near-equal variances) or [1.9, 2.1]
# (example 2, larger variances).
EXAMPLES = {
    1: ((9.5, 10.5), (0.95, 1.05)),
    2: ((9.5, 10.5), (1.9, 2.1)),
}


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings: P populations of N draws each, repeated M times.

    True means are equally spaced over ``mu_range`` and true standard
    deviations over ``sigma_range``.
    """

    populations: int
    samples_per_population: int
    mu_range: tuple[float, float]
    sigma_range: tuple[float, float]
    trials: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.populations, int) or self.populations < 1:
            raise DataError(f"populations = {self.populations!r}, need integer >= 1")
        if not isinstance(self.samples_per_population, int) or self.samples_per_population < 2:
            raise DataError(
                f"samples_per_population = {self.samples_per_population!r}, need integer >= 2"
            )
        mu_lo, mu_hi = self.mu_range
        s_lo, s_hi = self.sigma_range
        if not (math.isfinite(mu_lo) and math.isfinite(mu_hi) and mu_lo <= mu_hi):
            raise DataError(f"mu_range = {self.mu_range!r}, need finite lo <= hi")
        if not (math.isfinite(s_lo) and 0 < s_lo <= s_hi and math.isfinite(s_hi)):
            raise DataError(f"sigma_range = {self.sigma_range!r}, need finite 0 < lo <= hi")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise DataError(f"trials = {self.trials!r}, need integer >= 1")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise DataError(f"seed = {self.seed!r}, need unsigned 64-bit integer")


@dataclass(frozen=True)
class GroundTruth:
    """True per-population moments behind a synthetic benchmark."""

    mu: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "sigma", tuple(float(v) for v in self.sigma))
        if len(self.mu) != len(self.sigma) or not self.mu:
            raise DataError("ground truth needs matching, non-empty mu and sigma lists")
        if any(s <= 0 or not math.isfinite(s) for s in self.sigma):
            raise DataError("ground-truth sigmas must be positive and finite")


def _population_rng(seed: int, trial: int, population: int) -> Generator:
    # Counter-based scheme: one Philox stream keyed by (seed, trial, population),
    # so any trial regenerates identically, in isolation, on any worker.
    return Generator(Philox(key=np.array([seed, (trial << 32) | population], dtype=np.uint64)))


def _gaussian(rng: Generator, n: int) -> np.ndarray:
    # Inverse-CDF transform of uniforms shifted off 0 so ndtri stays finite;
    # fixed choice keeps draws identical across platforms and numpy versions.
    return ndtri(rng.random(n) + 2.0**-54)


def _spaced(lo: float, hi: float, count: int, what: str) -> np.ndarray:
    if count == 1:
        if lo != hi:
            raise DataError(
                f"{what} = ({lo}, {hi}) with one population: equal spacing undefined"
            )
        return np.array([lo])
    return np.linspace(lo, hi, count)


def _ground_truth(cfg: SyntheticConfig) -> GroundTruth:
    """The true moments of every trial: equally spaced over the ranges."""
    return GroundTruth(
        mu=tuple(_spaced(*cfg.mu_range, cfg.populations, "mu_range")),
        sigma=tuple(_spaced(*cfg.sigma_range, cfg.populations, "sigma_range")),
    )


def generate_synthetic(
    cfg: SyntheticConfig, trial_index: int
) -> tuple[GroundTruth, list[PopulationSample]]:
    """One trial's worth of data: P populations of N Gaussian draws."""
    if not isinstance(trial_index, int) or not 0 <= trial_index < cfg.trials:
        raise DataError(
            f"trial_index = {trial_index!r}, need integer in [0, {cfg.trials})"
        )
    truth = _ground_truth(cfg)
    samples = []
    for i, (mu, sigma) in enumerate(zip(truth.mu, truth.sigma)):
        rng = _population_rng(cfg.seed, trial_index, i)
        values = mu + sigma * _gaussian(rng, cfg.samples_per_population)
        samples.append(PopulationSample(id=f"pop-{i:03d}", values=values))
    return truth, samples


def error_report(
    estimates_per_trial: Sequence[Sequence[MomentEstimate]], truth: GroundTruth
) -> ErrorReport:
    """Aggregate M x P estimates into per-population RMSEs and their means.

    ``per_population_mu_rmse[i]`` is the root mean square over trials of
    ``mu_i - mu_hat``; variance errors use ``sigma_i^2 - sigma_sq_hat``.
    A squared error that overflows the float range raises
    ``NumericalError``.
    """
    n_pops = len(truth.mu)
    trials = len(estimates_per_trial)
    if trials == 0:
        raise DataError("error_report needs at least one trial")
    for row in estimates_per_trial:
        if len(row) != n_pops:
            raise DataError(
                f"estimate row has {len(row)} populations, ground truth has {n_pops}"
            )
    mu_hat = np.array([[e.mu for e in row] for row in estimates_per_trial])
    var_hat = np.array([[e.sigma_sq for e in row] for row in estimates_per_trial])
    true_mu = np.asarray(truth.mu)
    with np.errstate(over="ignore"):
        true_var = np.asarray(truth.sigma) ** 2
        mu_rmse = np.sqrt(np.mean((mu_hat - true_mu) ** 2, axis=0))
        var_rmse = np.sqrt(np.mean((var_hat - true_var) ** 2, axis=0))
    if not (np.isfinite(mu_rmse).all() and np.isfinite(var_rmse).all()):
        raise NumericalError("error_report: a squared error overflows the float range")
    return ErrorReport(mu_rmse, var_rmse, trials)


def prune_outliers(
    stats_list: Sequence[SufficientStats], k: float = 5.0
) -> tuple[list[SufficientStats], list[SufficientStats]]:
    """Split populations into (kept, removed) by sample-mean deviation.

    A population is removed when its sample mean deviates from the median
    of sample means by more than ``k`` times the scaled median absolute
    deviation (1.4826 x MAD).  When the MAD is zero, any nonzero
    deviation counts as an outlier.
    """
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k > 0):
        raise DataError(f"k = {k!r}, need positive finite real")
    if len(stats_list) < 3:
        raise DataError(f"pruning needs >= 3 populations, got {len(stats_list)}")
    means = np.array([s.mean for s in stats_list])
    dev = np.abs(means - np.median(means))
    mad = float(np.median(dev))
    if mad == 0.0:
        removed_mask = dev > 0.0
    else:
        removed_mask = dev > k * 1.4826 * mad
    kept = [s for s, out in zip(stats_list, removed_mask) if not out]
    removed = [s for s, out in zip(stats_list, removed_mask) if out]
    if not kept:
        raise DataError("outlier pruning removed every population")
    return kept, removed


def induced_correlation(sigma: float, sigma0: float) -> float:
    """Correlation between two populations' values induced by a shared
    Gaussian prior with standard deviation sigma0 over their common mean."""
    for name, v in (("sigma", sigma), ("sigma0", sigma0)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise DataError(f"{name} = {v!r}, need positive finite real")
    return sigma0**2 / (sigma**2 + sigma0**2)


# ---------------------------------------------------------------------------
# Trial runner.  One picklable spec + top-level worker so trials can run in
# worker processes; the pool's map, like the serial loop, returns outcomes
# in trial order, so aggregation order is independent of scheduling.


@dataclass(frozen=True)
class _TrialSpec:
    methods: frozenset
    prune_k: float | None = None
    synth: SyntheticConfig | None = None
    dataset: tuple[tuple[float, ...], ...] | None = None
    n_sub: int = 0
    seed: int = 0


@dataclass
class _TrialOutcome:
    estimates: Mapping[Method, list[MomentEstimate]] | None
    hypers: Mapping[str, NixHyperparams | UniHyperparams] | None = None
    failure: str | None = None


def _trial_stats(spec: _TrialSpec, trial: int) -> list[SufficientStats]:
    if spec.synth is not None:
        _, samples = generate_synthetic(spec.synth, trial)
    else:
        samples = []
        for i, values in enumerate(spec.dataset):
            rng = _population_rng(spec.seed, trial, i)
            picked = rng.choice(len(values), size=spec.n_sub, replace=False)
            samples.append(
                PopulationSample(id=f"pop-{i:03d}", values=[values[j] for j in picked])
            )
    return [sufficient_stats(s) for s in samples]


def _run_trial(spec: _TrialSpec, trial: int) -> _TrialOutcome:
    stats_list = _trial_stats(spec, trial)
    learn_stats = stats_list
    if spec.prune_k is not None:
        learn_stats, _ = prune_outliers(stats_list, spec.prune_k)
    try:
        estimates, hypers = estimate_populations(spec.methods, stats_list, learn_stats)
    except NumericalError as exc:
        return _TrialOutcome(None, failure=f"trial {trial}: {exc}")
    return _TrialOutcome(estimates, hypers)


@dataclass
class BenchmarkResult:
    """Everything a benchmark run produced.

    ``reports`` maps each method to its ErrorReport over the successful
    trials; ``nix_hypers``/``uni_hypers`` hold the per-trial learned
    hyperparameters (empty when the prior was not requested);
    ``failures`` lists human-readable messages for excluded trials.
    """

    reports: dict[Method, ErrorReport]
    truth: GroundTruth
    nix_hypers: list[NixHyperparams]
    uni_hypers: list[UniHyperparams]
    failures: list[str]


def _check_methods(methods) -> frozenset:
    methods = frozenset(methods)
    if not methods:
        raise DataError("no methods requested")
    return methods


# Trials per task sent to a pool worker.
_CHUNK = 8


def _execute(spec: _TrialSpec, trials: int, truth: GroundTruth, threads) -> BenchmarkResult:
    if not isinstance(threads, int) or threads < 1:
        raise DataError(f"threads = {threads!r}, need integer >= 1")
    if threads > 1:
        # Imported only here: it loads multiprocessing, which would slow
        # every start-up of the command line.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers up front; more than there are
        # chunks would sit idle.
        workers = min(threads, math.ceil(trials / _CHUNK))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(_run_trial, [spec] * trials, range(trials), chunksize=_CHUNK)
            )
    else:
        outcomes = [_run_trial(spec, t) for t in range(trials)]

    failures = [o.failure for o in outcomes if o.failure is not None]
    if len(failures) > 0.05 * trials:
        raise NumericalError(
            f"{len(failures)} of {trials} trials failed (> 5%); first: {failures[0]}"
        )
    good = [o for o in outcomes if o.failure is None]
    reports = {
        m: error_report([o.estimates[m] for o in good], truth) for m in spec.methods
    }
    return BenchmarkResult(
        reports=reports,
        truth=truth,
        nix_hypers=[o.hypers["nix"] for o in good if "nix" in o.hypers],
        uni_hypers=[o.hypers["uni"] for o in good if "uni" in o.hypers],
        failures=failures,
    )


def run_benchmark_detailed(
    cfg: SyntheticConfig,
    methods,
    *,
    prune_k: float | None = None,
    threads: int = 1,
) -> BenchmarkResult:
    """Paired Monte Carlo benchmark over synthetic data.

    Every requested method sees the same generated data within a trial.
    A trial whose prior learning fails is excluded from all methods'
    aggregates; more than 5% failed trials aborts the run.  Results are
    bit-identical for any ``threads`` value.

    With ``prune_k`` set, each trial learns its priors only from the
    populations :func:`prune_outliers` keeps at that ``k``, and still
    estimates every population; ``None`` turns pruning off.
    """
    methods = _check_methods(methods)
    spec = _TrialSpec(methods, prune_k, synth=cfg)
    return _execute(spec, cfg.trials, _ground_truth(cfg), threads)


def run_benchmark(
    cfg: SyntheticConfig,
    methods,
    *,
    prune_k: float | None = None,
    threads: int = 1,
) -> dict[Method, ErrorReport]:
    """Like :func:`run_benchmark_detailed` but returning only the reports."""
    return run_benchmark_detailed(cfg, methods, prune_k=prune_k, threads=threads).reports


def bootstrap_benchmark_detailed(
    dataset: Sequence[PopulationSample],
    n_sub: int,
    trials: int,
    seed: int,
    methods,
    *,
    threads: int = 1,
) -> BenchmarkResult:
    """Subsampling benchmark against full-sample moments as ground truth.

    Each trial draws ``n_sub`` values per population without replacement;
    the full dataset's sample mean and unbiased variance play the role of
    the true moments.
    """
    methods = _check_methods(methods)
    if not dataset:
        raise DataError("bootstrap needs a non-empty dataset")
    if not isinstance(n_sub, int) or n_sub < 2:
        raise DataError(f"n_sub = {n_sub!r}, need integer >= 2")
    if not isinstance(trials, int) or trials < 1:
        raise DataError(f"trials = {trials!r}, need integer >= 1")
    if not isinstance(seed, int) or not 0 <= seed < _MAX_SEED:
        raise DataError(f"seed = {seed!r}, need unsigned 64-bit integer")
    for pop in dataset:
        if len(pop.values) < n_sub:
            raise DataError(
                f"population {pop.id!r} has {len(pop.values)} values, fewer than n_sub = {n_sub}"
            )
    full = [sufficient_stats(p) for p in dataset]
    truth = GroundTruth(
        mu=tuple(s.mean for s in full),
        sigma=tuple(math.sqrt(s.var_unbiased) for s in full),
    )
    spec = _TrialSpec(
        methods, dataset=tuple(p.values for p in dataset), n_sub=n_sub, seed=seed
    )
    return _execute(spec, trials, truth, threads)


def bootstrap_benchmark(
    dataset: Sequence[PopulationSample],
    n_sub: int,
    trials: int,
    seed: int,
    methods,
    *,
    threads: int = 1,
) -> dict[Method, ErrorReport]:
    """Like :func:`bootstrap_benchmark_detailed` but returning only the reports."""
    return bootstrap_benchmark_detailed(
        dataset, n_sub, trials, seed, methods, threads=threads
    ).reports


_STANDIN_SEED = 0x5EED_DA7A


def standin_dataset() -> list[PopulationSample]:
    """Fixed 8-population, 50-value dataset for bootstrap demonstrations.

    Generated once from a hard-coded seed: clustered means with
    heterogeneous spreads, the first population the widest, standing in
    for a small published measurement set that is not redistributable.
    """
    mus = [25.9, 25.3, 26.4, 25.6, 26.1, 25.1, 26.7, 25.8]
    sigmas = [0.80, 0.55, 0.47, 0.62, 0.41, 0.58, 0.52, 0.44]
    dataset = []
    for i, (mu, sigma) in enumerate(zip(mus, sigmas)):
        rng = _population_rng(_STANDIN_SEED, 0, i)
        values = mu + sigma * _gaussian(rng, 50)
        dataset.append(PopulationSample(id=f"die-{i + 1}", values=values))
    return dataset
