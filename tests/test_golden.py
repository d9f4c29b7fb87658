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
import pytest

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
# 10.33548008083647, 0.4035207044432596, 1.8407837792401194).  Re-recorded
# again when learn_uni moved from BFGS to Newton's method on the exact
# Hessian, whose F rows join the same quadrature; the previous box was
# (9.28460141422056, 10.335480080836472, 0.40352070444326,
# 1.8407837792401167), where the gradient in (a, b, c, d) was about 1e-6
# against about 1e-8 now, and the value 2e-13 nats lower.
GOLDEN_UNI_EXAMPLE1 = [
    "9.28460138327436",
    "10.335480072416935",
    "0.4035206078310297",
    "1.8407840143856058",
]

GOLDEN_MAXIMIZE = {
    "point": [
        "1.0021064402753739",
        "1.0042194066676835",
        "0.1848792607534403",
    ],
    "objective": "0.29938179627243744",
    "iterations": 230,
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
    }
    assert got == GOLDEN_MAXIMIZE


def recorded_loglik(name):
    return json.loads((Path(__file__).parent / "data" / name).read_text())["loglik"]


@pytest.fixture(scope="module")
def criterion6_fits():
    """The box learn_uni returns on each of the 200 trials of the
    criterion-6 data, with its log marginal likelihood."""
    cfg = SyntheticConfig(
        populations=20,
        samples_per_population=5,
        mu_range=(9.5, 10.5),
        sigma_range=(0.95, 1.05),
        trials=200,
        seed=2026,
    )
    out = []
    for t in range(cfg.trials):
        stats = [sufficient_stats(s) for s in generate_synthetic(cfg, t)[1]]
        hyper = learn_uni(stats)
        out.append((hyper, uni_log_marginal_likelihood(stats, hyper)))
    return out


@pytest.fixture(scope="module")
def criterion6_loglik(criterion6_fits):
    return [value for _, value in criterion6_fits]


def test_learn_uni_criterion6_boxes_golden(criterion6_fits):
    # Recorded as float hex before the marginal's quadrature was trimmed
    # for speed; every box and its value must keep its bits.  A change to
    # the estimator that is meant to move results re-records this file.
    recorded = json.loads((Path(__file__).parent / "data" / "uni_criterion6_boxes.json").read_text())
    for t, ((hyper, value), box, loglik) in enumerate(
        zip(criterion6_fits, recorded["boxes"], recorded["loglik"], strict=True)
    ):
        assert [hyper.a, hyper.b, hyper.c, hyper.d] == [float.fromhex(h) for h in box], t
        assert value == float.fromhex(loglik), t


def test_learn_uni_reaches_nelder_mead_loglik(criterion6_loglik):
    # Against the value Nelder-Mead reached on the same trials, recorded
    # before learn_uni moved to a gradient-based search.  No trial may
    # lose more than 1e-6 nats.
    golden = recorded_loglik("uni_nelder_mead_loglik.json")
    for t, (got, want) in enumerate(zip(criterion6_loglik, golden, strict=True)):
        assert got >= want - 1e-6, (t, got, want)


def test_learn_uni_reaches_interior_bfgs_loglik(criterion6_loglik):
    # Against the value BFGS reached when it searched the interior only,
    # riding a collapsing variance side toward the face c = d, recorded
    # before the search moved onto that face.  No trial may lose more
    # than 1e-6 nats.
    golden = recorded_loglik("uni_bfgs_loglik.json")
    for t, (got, want) in enumerate(zip(criterion6_loglik, golden, strict=True)):
        assert got >= want - 1e-6, (t, got, want)


def test_learn_uni_reaches_face_bfgs_loglik(criterion6_loglik):
    # Against the value BFGS reached with the variance face solved in
    # closed form, recorded before learn_uni moved to Newton's method.
    # No trial may lose more than 1e-6 nats.
    golden = recorded_loglik("uni_face_bfgs_loglik.json")
    for t, (got, want) in enumerate(zip(criterion6_loglik, golden, strict=True)):
        assert got >= want - 1e-6, (t, got, want)
