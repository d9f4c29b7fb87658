"""Golden results: exact learned hyperparameters and optimizer outcomes.

Every expected value is the ``repr`` of the float the code returned when
the value was recorded; the assertions compare with ``==``, so any change
in the optimizer's arithmetic or in the NIX/UNI objectives that moves a
single bit of a learned prior fails here.  Rewrite these values only for
a change that is meant to alter results, and say so in CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np

from mpme.core import PopulationSample, sufficient_stats
from mpme.experiments import SyntheticConfig, generate_synthetic
from mpme.optim import maximize
from mpme.prior_nix import learn_nix
from mpme.prior_uni import learn_uni, uni_log_marginal_likelihood


def example1_stats(seed):
    """Trial 0 of example 1 (P = 20 populations of n = 5) at ``seed``."""
    cfg = SyntheticConfig(
        populations=20,
        samples_per_population=5,
        mu_range=(9.5, 10.5),
        sigma_range=(0.95, 1.05),
        trials=1,
        seed=seed,
    )
    _, samples = generate_synthetic(cfg, 0)
    return [sufficient_stats(s) for s in samples]


def wide_stats(seed=5, pops=2000):
    """``pops`` populations of 2..8 values each, with spread-out truths."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 9, size=pops)
    mus = rng.normal(10.0, 0.5, size=pops)
    sigmas = rng.uniform(0.8, 1.25, size=pops)
    return [
        sufficient_stats(
            PopulationSample(id=f"p{i}", values=mus[i] + sigmas[i] * rng.standard_normal(sizes[i]))
        )
        for i in range(pops)
    ]


def bumpy(x):
    """A smooth non-quadratic objective in three variables."""
    return -(
        (1.0 - x[0]) ** 2
        + 5.0 * (x[1] - x[0] ** 2) ** 2
        + 0.5 * x[2] ** 4
        - 0.3 * math.sin(3.0 * x[2] + x[0])
    )


def hyper_reprs(hyper):
    return [repr(v) for v in (hyper.mu0, hyper.kappa0, hyper.nu0, hyper.sigma0_sq)]


def box_reprs(hyper):
    return [repr(v) for v in (hyper.a, hyper.b, hyper.c, hyper.d)]


# Re-recorded when learn_nix came to return its prior through the same
# point-to-prior map as its objective (math.exp rather than np.exp); the
# previous sigma0_sq was 0.8942664612432859 at seed 2026 and
# 1.1366008126161817 at seed 31337, one ulp away.
GOLDEN_NIX_EXAMPLE1 = {
    1: [
        "10.146322555396747",
        "5.6424321677878675",
        "15.589834202101565",
        "0.8557844223272921",
    ],
    2026: [
        "10.04119847298953",
        "6.343370575785008",
        "15.203236681450361",
        "0.894266461243286",
    ],
    31337: [
        "9.97698226309469",
        "6.3567758664443925",
        "53680215491.59516",
        "1.1366008126161815",
    ],
}

GOLDEN_NIX_WIDE = [
    "10.01945740351956",
    "4.70512538185244",
    "39.61518374409611",
    "1.0362816345328874",
]

# Re-recorded when learn_uni moved from Nelder-Mead to BFGS on the exact
# gradient; the Nelder-Mead box was (9.284602013842093, 10.335477940259619,
# 0.40352110304634486, 1.8407831639721308).  Re-recorded again when the
# box-edge integrals joined the marginal's quadrature, which changes its
# shared subdivision; the previous box was (9.284601414220562,
# 10.33548008083647, 0.4035207044432596, 1.8407837792401194).
GOLDEN_UNI_EXAMPLE1 = [
    "9.28460141422056",
    "10.335480080836472",
    "0.40352070444326",
    "1.8407837792401167",
]

GOLDEN_MAXIMIZE = {
    "point": [
        "1.0021064402753739",
        "1.0042194066676835",
        "0.1848792607534403",
    ],
    "objective": "0.29938179627243744",
    "iterations": 230,
    "trace_len": 233,
}


def test_learn_nix_example1_golden():
    for seed, expected in GOLDEN_NIX_EXAMPLE1.items():
        assert hyper_reprs(learn_nix(example1_stats(seed))) == expected, seed


def test_learn_nix_wide_golden():
    assert hyper_reprs(learn_nix(wide_stats())) == GOLDEN_NIX_WIDE


def test_learn_uni_example1_golden():
    assert box_reprs(learn_uni(example1_stats(7))) == GOLDEN_UNI_EXAMPLE1


def test_maximize_golden():
    res = maximize(bumpy, [-1.2, 1.0, 0.8])
    got = {
        "point": [repr(v) for v in res.point],
        "objective": repr(res.objective),
        "iterations": res.iterations,
        "trace_len": len(res.trace),
    }
    assert got == GOLDEN_MAXIMIZE


def test_learn_uni_reaches_nelder_mead_loglik():
    # The log marginal likelihood of every learned box, against the one
    # Nelder-Mead reached on the same 200 trials (the criterion-6 data),
    # recorded before learn_uni moved to BFGS.  On average the fit must
    # not get worse, and no trial may lose more than 0.05 nats; the
    # trials that lose more than 1e-6 sit on or near a collapsed side.
    doc = json.loads((Path(__file__).parent / "data" / "uni_nelder_mead_loglik.json").read_text())
    golden = doc["loglik"]
    cfg = SyntheticConfig(
        populations=20,
        samples_per_population=5,
        mu_range=(9.5, 10.5),
        sigma_range=(0.95, 1.05),
        trials=len(golden),
        seed=2026,
    )
    gains = []
    for t, want in enumerate(golden):
        stats = [sufficient_stats(s) for s in generate_synthetic(cfg, t)[1]]
        got = uni_log_marginal_likelihood(stats, learn_uni(stats))
        assert got >= want - 0.05, (t, got, want)
        gains.append(got - want)
    assert math.fsum(gains) >= 0.0
