"""Moment estimation across many small-sample populations.

Per-population Gaussian moments are estimated jointly: a prior over
``(mu_i, sigma_i^2)`` is learned from all populations by type-II maximum
likelihood, then each population's estimate is the posterior mode under
that prior.  Two prior families are provided (conjugate
normal-inverse-chi-squared and a uniform box), along with the sample
estimator baseline, brute-force verification oracles, and a reproducible
benchmark harness.

Each public name is imported from its module (``mpme.prior_nix``,
``mpme.experiments``, ...); importing one module loads only what it
needs.  The package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
