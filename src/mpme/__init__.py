"""Moment estimation across many small-sample populations.

Per-population Gaussian moments are estimated jointly: a prior over
``(mu_i, sigma_i^2)`` is learned from all populations by type-II maximum
likelihood, then each population's estimate is the posterior mode under
that prior.  Two prior families are provided (conjugate
normal-inverse-chi-squared and a uniform box), along with the sample
estimator baseline, brute-force verification oracles, and a reproducible
benchmark harness.
"""

from .core import (
    DataError,
    DegeneratePriorError,
    ErrorReport,
    Method,
    MomentEstimate,
    MpmeError,
    NumericalError,
    OptimizationError,
    PopulationSample,
    QuadratureError,
    SufficientStats,
    sufficient_stats,
)
from .dataio import DataFormat, DatasetFile, load_dataset, save_dataset
from .estimators import sample_estimate
from .experiments import (
    BenchmarkResult,
    GroundTruth,
    SyntheticConfig,
    bootstrap_benchmark,
    bootstrap_benchmark_detailed,
    generate_synthetic,
    induced_correlation,
    prune_outliers,
    run_benchmark,
    run_benchmark_detailed,
    standin_dataset,
)
from .optim import OptimResult, maximize
from .prior_nix import (
    NixHyperparams,
    VarianceMode,
    learn_nix,
    nix_log_marginal_likelihood,
    nix_map,
    nix_posterior_update,
)
from .prior_uni import (
    UniHyperparams,
    learn_uni,
    uni_log_marginal_likelihood,
    uni_map,
)
from .special import integrate_adaptive
from .verify import SUITES, SuiteResult, grid_map_argmax, numeric_marginal, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MpmeError",
    "DataError",
    "NumericalError",
    "QuadratureError",
    "OptimizationError",
    "DegeneratePriorError",
    "Method",
    "PopulationSample",
    "SufficientStats",
    "sufficient_stats",
    "MomentEstimate",
    "ErrorReport",
    "DataFormat",
    "DatasetFile",
    "load_dataset",
    "save_dataset",
    "sample_estimate",
    "NixHyperparams",
    "VarianceMode",
    "nix_posterior_update",
    "nix_log_marginal_likelihood",
    "learn_nix",
    "nix_map",
    "UniHyperparams",
    "uni_log_marginal_likelihood",
    "learn_uni",
    "uni_map",
    "OptimResult",
    "maximize",
    "integrate_adaptive",
    "SyntheticConfig",
    "GroundTruth",
    "BenchmarkResult",
    "generate_synthetic",
    "run_benchmark",
    "run_benchmark_detailed",
    "bootstrap_benchmark",
    "bootstrap_benchmark_detailed",
    "prune_outliers",
    "induced_correlation",
    "standin_dataset",
    "SUITES",
    "SuiteResult",
    "numeric_marginal",
    "grid_map_argmax",
    "run_suite",
]
