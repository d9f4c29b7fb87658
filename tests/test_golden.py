"""Golden results: exact learned hyperparameters and optimizer outcomes.

Every expected value is the ``repr`` of the float the code returned when
the value was recorded; the assertions compare with ``==``, so any change
in the optimizer's arithmetic or in the NIX/UNI objectives that moves a
single bit of a learned prior fails here.  Rewrite these values only for
a change that is meant to alter results, and say so in CHANGES.md.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mpme import prior_nix, prior_uni
from mpme.core import PopulationSample, sufficient_stats
from mpme.experiments import SyntheticConfig, generate_synthetic
from mpme.optim import maximize
from mpme.prior_nix import learn_nix
from mpme.prior_uni import learn_uni, uni_log_marginal_likelihood


def example1_stats(seed, trial=0):
    """Trial ``trial`` of example 1 (P = 20 populations of n = 5) at ``seed``."""
    cfg = SyntheticConfig(
        populations=20,
        samples_per_population=5,
        mu_range=(9.5, 10.5),
        sigma_range=(0.95, 1.05),
        trials=trial + 1,
        seed=seed,
    )
    _, samples = generate_synthetic(cfg, trial)
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


# The number of evaluations and the SHA-256 of their float-hex lines, one
# line per evaluation in the order the objective received them: from
# maximize on bumpy, from learn_nix on trial 0 of the criterion-6 data
# (example 1, seed 2026), and from learn_uni on its trials 0, which stays
# interior, and 4, which moves to the variance face.  A line holds the
# point and the value, and for learn_uni the gradient and the Hessian too,
# over every maximize call of the fit.  An evaluation that hands the search
# over to the face returns nothing, so its line holds its point alone.
GOLDEN_CALL_SEQUENCES = {
    "bumpy": (426, "79f82e5c77d1132a8ba8dab63bab2ab95780685d6efa5edc5054558e53d502ff"),
    "learn_nix": (717, "b7c56964992ebf9070d5cfb9902cb38de10e08c9cfa65ddfe2f1450d7484d7f3"),
    "learn_uni trial 0": (5, "178773140693d13807bfcf2233300d3a6a6f5ac99cb38565dfdcaeb9396d7280"),
    "learn_uni trial 4": (18, "3951e636e755fc0149a15288acfd5f758b3e7974f5ffdeb7ea37f1f4cf7ab58d"),
}


def recording(objective, lines):
    """``objective``, appending each point it sees, and what it returned
    there, to ``lines``."""

    def recorded(x):
        point = [float(t).hex() for t in x]
        try:
            result = objective(x)
        except prior_uni._FaceReached:
            lines.append(" ".join(point))
            raise
        returned = result if isinstance(result, tuple) else (result,)
        lines.append(" ".join(point + [float(t).hex() for v in returned for t in np.ravel(v)]))
        return result

    return recorded


def test_maximize_call_sequences_golden(monkeypatch):
    lines = {name: [] for name in GOLDEN_CALL_SEQUENCES}

    def recorded_maximize(name):
        return lambda objective, init, **kw: maximize(recording(objective, lines[name]), init, **kw)

    maximize(recording(bumpy, lines["bumpy"]), [-1.2, 1.0, 0.8])
    monkeypatch.setattr(prior_nix, "maximize", recorded_maximize("learn_nix"))
    learn_nix(example1_stats(2026))
    for trial in (0, 4):
        monkeypatch.setattr(prior_uni, "maximize", recorded_maximize(f"learn_uni trial {trial}"))
        learn_uni(example1_stats(2026, trial))
    got = {
        name: (len(recorded), hashlib.sha256("\n".join(recorded).encode()).hexdigest())
        for name, recorded in lines.items()
    }
    assert got == GOLDEN_CALL_SEQUENCES


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


def test_learn_uni_reaches_earlier_solvers_loglik(criterion6_fits):
    # Against the best value that Nelder-Mead, interior-only BFGS and BFGS
    # with the variance face in closed form reached on the same trials,
    # recorded before learn_uni moved to Newton's method.  No trial may
    # lose more than 1e-6 nats.
    floor = json.loads((Path(__file__).parent / "data" / "uni_loglik_floor.json").read_text())
    for t, ((_, got), want) in enumerate(zip(criterion6_fits, floor["loglik"], strict=True)):
        assert got >= want - 1e-6, (t, got, want)
