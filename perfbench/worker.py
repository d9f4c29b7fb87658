"""One run of one benchmark workload, in a process of its own.

Started by ``run.py`` with ``PYTHONPATH=src``; prints one JSON object
(metric values without units, check results and run information) as
its last line of standard output.  Every workload is a closed loop with
one client: the next ``cli_main`` call starts when the previous one has
returned.

A workload is a cycle of ``cycle`` distinct calls whose inputs derive
from ``--seed``.  After one untimed warm-up call the timed phase makes
at least two passes over the cycle and goes on while ``--seconds`` allow
another pass.  Every call's wall time is normalized to a reference CPU
speed with the probe of ``probe.py``, taken between calls; the run's
information line also gives the raw times.  Accuracy metrics come from
the first pass and are exact functions of the seed.

With ``--trace 1`` the run instead times a fixed prefix of the cycle
untraced, then again with every public layer function wrapped in a
span, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import mpme
from mpme import cli
from mpme.core import PopulationSample, sufficient_stats
from mpme.dataio import DatasetFile, load_dataset, save_dataset
from mpme.estimators import sample_estimate
from mpme.experiments import SyntheticConfig, error_report, generate_synthetic
from mpme.prior_nix import NixHyperparams, nix_log_marginal_likelihood
from mpme.prior_uni import UniHyperparams, uni_log_marginal_likelihood

from probe import normalized, probe
from spans import Tracer, layer_metrics, tail

SAMPLE = "sample"
MIN_PASSES = 2


def derive_seed(seed: int, stream: int, k: int) -> int:
    """Seed of input ``k`` in ``stream``: a fixed function of the run seed."""
    state = np.random.SeedSequence([seed % 2**63, stream, k]).generate_state(1, np.uint64)
    return int(state[0])


def combined_eps(reports, method):
    """(eps_mu, eps_sigma_sq) with each population's RMSE pooled over all
    reports' trials, then averaged over populations."""
    trials = np.array([r["reports"][method]["trials"] for r in reports], dtype=float)
    out = []
    for field in ("per_population_mu_rmse", "per_population_var_rmse"):
        rmse = np.array([r["reports"][method][field] for r in reports])
        out.append(float(np.mean(np.sqrt(trials @ rmse**2 / trials.sum()))))
    return out


class Workload:
    """A cycle of cli_main calls plus the checks on their reports."""

    cycle: int  # distinct inputs
    trace_calls: int  # inputs of the cycle timed in a traced run
    trials: int = 1  # trials (prior fits) per call
    pool_trials: int = 0  # size of the --threads 2 vs 1 comparison in a traced run

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def argv(self, k: int, **overrides) -> list[str]:
        raise NotImplementedError

    def check_call(self, report) -> list[str]:
        """Checks on one call's report; each message is one failure."""
        return []

    def accuracy(self, reports) -> tuple[float, float, float, list[str]]:
        """(eps_mu_ratio, eps_var_ratio, neg_loglik_mean, failures) of one cycle."""
        raise NotImplementedError

    def identities(self, m: dict, calls: int) -> list[str]:
        """Exact count identities that a traced run of ``calls`` calls must satisfy."""
        raise NotImplementedError


class Synth(Workload):
    """``mpme synth`` on example 1 (P = 20 populations of n = 5)."""

    pops = 20

    def __init__(self, method, trials, cycle, trace_calls, stream, pool_trials=0):
        self.method, self.trials, self.cycle = method, trials, cycle
        self.trace_calls, self.stream = trace_calls, stream
        self.learned = "mpme-" + method
        self.pool_trials = pool_trials

    def setup(self, work, seed):
        self.out = work / "report.json"
        self.seeds = [derive_seed(seed, self.stream, k) for k in range(self.cycle)]

    def argv(self, k, trials=None, threads=1):
        return [
            "synth", "--example", "1", "--pops", str(self.pops), "--n", "5",
            "--methods", "sample," + self.method, "--threads", str(threads),
            "--trials", str(trials or self.trials), "--seed", str(self.seeds[k % self.cycle]),
            "--output", str(self.out),
        ]

    def rebuilt_stats(self, report):
        """Per successful trial, the statistics the fit saw, rebuilt through
        the public generator; also the ground truth."""
        cfg = report["config"]
        scfg = SyntheticConfig(
            populations=cfg["populations"],
            samples_per_population=cfg["samples_per_population"],
            mu_range=tuple(cfg["mu_range"]),
            sigma_range=tuple(cfg["sigma_range"]),
            trials=cfg["trials"],
            seed=cfg["seed"],
        )
        # Failure messages read "trial <t>: ...".
        failed = {int(f.split(":", 1)[0].split()[1]) for f in report["failures"]}
        truth, rows = None, []
        for t in range(scfg.trials):
            if t not in failed:
                truth, samples = generate_synthetic(scfg, t)
                rows.append([sufficient_stats(s) for s in samples])
        return truth, rows

    def loglik(self, stats, hyper_doc):
        if self.method == "nix":
            return nix_log_marginal_likelihood(stats, NixHyperparams(**hyper_doc))
        return uni_log_marginal_likelihood(stats, UniHyperparams(**hyper_doc))

    def accuracy(self, reports):
        problems, logliks = [], []
        for k, report in enumerate(reports):
            truth, rows = self.rebuilt_stats(report)
            # The rebuilt statistics must reproduce the report's sample
            # errors bit for bit, or the log-likelihoods below would be
            # evaluated on other data than the fits saw.
            rebuilt = error_report([[sample_estimate(s) for s in row] for row in rows], truth)
            if list(rebuilt.per_population_mu_rmse) != report["reports"][SAMPLE]["per_population_mu_rmse"]:
                problems.append(f"input {k}: rebuilt statistics do not reproduce the sample errors")
            hypers = report["hyperparameters"][self.method]
            logliks += [self.loglik(row, h) for row, h in zip(rows, hypers)]
        mu_s, var_s = combined_eps(reports, SAMPLE)
        mu_l, var_l = combined_eps(reports, self.learned)
        if self.method == "nix":
            # Acceptance criterion 6 bands.
            if not mu_l <= 0.85 * mu_s:
                problems.append(f"NIX eps_mu {mu_l:.6g} > 0.85 x sample {mu_s:.6g}")
            if not var_l <= 0.60 * var_s:
                problems.append(f"NIX eps_sigma_sq {var_l:.6g} > 0.60 x sample {var_s:.6g}")
        elif not (mu_l < mu_s and var_l < var_s):
            problems.append(f"UNI errors ({mu_l:.6g}, {var_l:.6g}) do not beat sample ({mu_s:.6g}, {var_s:.6g})")
        return mu_l / mu_s, var_l / var_s, -statistics.fmean(logliks), problems

    def identities(self, m, calls):
        trials = calls * self.trials
        problems = []
        if self.method == "nix" and m["prior_nix.learn_nix.calls"] != trials:
            problems.append(f"learn_nix calls {m['prior_nix.learn_nix.calls']} != trials {trials}")
        if m["core.sufficient_stats.calls"] != trials * self.pops:
            problems.append(f"sufficient_stats calls {m['core.sufficient_stats.calls']} != {trials} x {self.pops}")
        integrals = m["special.integrate_adaptive.calls"]
        marginals = m["prior_uni.uni_log_marginal_likelihood.calls"]
        if integrals != marginals or (self.method == "uni") != (integrals > 0):
            problems.append(f"integrate_adaptive calls {integrals} != UNI marginal calls {marginals}")
        return problems


class EstimateWide(Workload):
    """``mpme estimate --prior nix`` on wide datasets: P populations of 2..8
    values, one NIX fit per call.  Every dataset shares one ground truth
    (per-population mean, standard deviation and size) drawn from the seed,
    so the cycle's datasets act as trials for the accuracy metrics."""

    pops, cycle, trace_calls = 2000, 24, 8

    def setup(self, work, seed):
        rng = np.random.default_rng(derive_seed(seed, 3, 0))
        self.n = rng.integers(2, 9, size=self.pops)
        self.mu = rng.normal(10.0, 0.5, size=self.pops)
        self.sigma = rng.uniform(0.8, 1.25, size=self.pops)
        self.csvs = []
        for k in range(self.cycle):
            draw = np.random.default_rng(derive_seed(seed, 3, k + 1))
            samples = [
                PopulationSample(id=f"pop-{i:04d}", values=self.mu[i] + self.sigma[i] * draw.standard_normal(self.n[i]))
                for i in range(self.pops)
            ]
            path = work / f"wide-{k}.csv"
            save_dataset(DatasetFile(populations=samples), path)
            self.csvs.append(path)
        self.out = work / "report.json"

    def argv(self, k):
        return [
            "estimate", "--input", str(self.csvs[k % self.cycle]), "--prior", "nix",
            "--prune-outliers", "3.0", "--output", str(self.out),
        ]

    def check_call(self, report):
        # NIX shrinkage is convex: each posterior mean lies between the
        # population's sample mean and the learned mu0.
        mu0 = report["hyperparameters"]["mu0"]
        tol = 1e-12 * max(1.0, abs(mu0))
        bad = 0
        for row in report["estimates"]:
            lo, hi = sorted((row["mean"], mu0))
            sig2 = row["sigma_sq"]
            if not (lo - tol <= row["mu"] <= hi + tol and math.isfinite(sig2) and sig2 > 0):
                bad += 1
        return [f"{bad} estimates outside the shrinkage interval or with a bad variance"] if bad else []

    def accuracy(self, reports):
        problems, logliks = [], []
        sq = defaultdict(list)
        true_var = self.sigma**2
        for k, report in enumerate(reports):
            rows = report["estimates"]
            stats = [sufficient_stats(p) for p in load_dataset(self.csvs[k]).populations]
            if [(s.mean, s.var_unbiased) for s in stats] != [(r["mean"], r["var_unbiased"]) for r in rows]:
                problems.append(f"input {k}: recomputed statistics differ from the report")
            pruned = set(report["pruned"])
            kept = [s for s, r in zip(stats, rows) if r["population"] not in pruned]
            logliks.append(nix_log_marginal_likelihood(kept, NixHyperparams(**report["hyperparameters"])))
            for key, truth, name in (("mean", self.mu, "mu_s"), ("var_unbiased", true_var, "var_s"),
                                     ("mu", self.mu, "mu_l"), ("sigma_sq", true_var, "var_l")):
                sq[name].append((np.array([r[key] for r in rows]) - truth) ** 2)
        eps = {name: float(np.mean(np.sqrt(np.mean(v, axis=0)))) for name, v in sq.items()}
        return eps["mu_l"] / eps["mu_s"], eps["var_l"] / eps["var_s"], -statistics.fmean(logliks), problems

    def identities(self, m, calls):
        problems = []
        if m["prior_nix.learn_nix.calls"] != calls:
            problems.append(f"learn_nix calls {m['prior_nix.learn_nix.calls']} != calls {calls}")
        if m["core.sufficient_stats.calls"] != calls * self.pops:
            problems.append(f"sufficient_stats calls {m['core.sufficient_stats.calls']} != {calls} x {self.pops}")
        return problems


WORKLOADS = {
    "synth-nix": lambda: Synth("nix", trials=5, cycle=48, trace_calls=20, stream=1, pool_trials=64),
    "synth-uni": lambda: Synth("uni", trials=1, cycle=32, trace_calls=8, stream=2),
    "estimate-wide": EstimateWide,
}


class Runner:
    """Makes calls and counts attempted and failed operations."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)

    def call(self, k: int, **overrides):
        """One cli_main call on input ``k``; returns (seconds, report bytes or None)."""
        argv = self.wl.argv(k, **overrides)
        ops = overrides.get("trials", self.wl.trials)
        self.attempted += ops
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.cli_main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            self.fail(ops, f"input {k}: exit code {code}: {err.getvalue().strip()[:300]}")
            return seconds, None
        data = Path(argv[argv.index("--output") + 1]).read_bytes()
        report = json.loads(data)
        problems = self.wl.check_call(report)
        if problems:
            self.fail(ops, f"input {k}: " + "; ".join(problems))
        else:
            self.failed += report.get("failed_trials", 0)
        return seconds, data

    def same(self, k: int, data, first) -> None:
        if data is not None and first is not None and data != first:
            self.fail(self.wl.trials, f"input {k}: report differs from an earlier call on the same input")


def measure(wl: Workload, seconds: float) -> dict:
    run = Runner(wl)
    run.call(0)  # warm-up, untimed
    run.attempted = run.failed = 0
    first: list = [None] * wl.cycle
    raw, probes = [], [probe()]
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i in range(wl.cycle):
            dt, data = run.call(i)
            probes.append(probe())
            raw.append(dt)
            if passes == 0:
                first[i] = data
            else:
                run.same(i, data, first[i])
        passes += 1
    measured = time.perf_counter() - start
    # Call k ran between probes k and k + 1; the median of the six probes
    # around it smooths the probe's own jitter.
    norm = [normalized(dt, statistics.median(probes[max(0, k - 2):k + 4])) for k, dt in enumerate(raw)]
    metrics = {}
    if all(d is not None for d in first):
        mu_ratio, var_ratio, nll, problems = wl.accuracy([json.loads(d) for d in first])
        for p in problems:
            run.fail(wl.cycle * wl.trials, p)
        metrics.update(eps_mu_ratio=mu_ratio, eps_var_ratio=var_ratio, neg_loglik_mean=nll)
    metrics.update(
        trials_per_s=len(norm) * wl.trials / sum(norm),
        latency_s_p50=statistics.median(norm),
        latency_s_tail=tail(norm),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    info = {
        "latency_samples": len(norm),
        "latency_tail_percentile": round(100.0 * (len(norm) - 10) / len(norm), 1),
        "trials_per_call": wl.trials,
        "passes": passes,
        "measured_s": measured,
        "raw_latency_s_p50": statistics.median(raw),
        "raw_latency_s_tail": tail(raw),
        "probe_s_p50": statistics.median(probes),
    }
    return {"attempted": run.attempted, "failed": min(run.failed, run.attempted),
            "problems": run.problems, "metrics": metrics, "info": info}


def measure_traced(wl: Workload) -> dict:
    run = Runner(wl)
    calls = range(wl.trace_calls)
    run.call(0)  # warm-up, untimed
    # Untraced and traced calls alternate, so that both see the same
    # phases of machine load.
    tracer = Tracer()
    untraced, traced = [], []
    for k in calls:
        untraced.append(run.call(k))
        with tracer:
            traced.append(run.call(k))
    for k, (a, b) in enumerate(zip(untraced, traced)):
        run.same(k, b[1], a[1])
    metrics = layer_metrics(tracer)
    for p in wl.identities(metrics, wl.trace_calls):
        run.fail(wl.trace_calls * wl.trials, p)
    traced_s = sum(dt for dt, _ in traced)
    untraced_s = sum(dt for dt, _ in untraced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    speedup = 0.0
    if wl.pool_trials:
        # The process pool in experiments: one call at --threads 2 against
        # the same call at --threads 1.  Acceptance criterion 11 asks for
        # byte-identical reports.
        pooled_s, pooled = run.call(0, trials=wl.pool_trials, threads=2)
        serial_s, serial = run.call(0, trials=wl.pool_trials, threads=1)
        if pooled != serial:
            run.fail(wl.pool_trials, "--threads 2 report differs from the --threads 1 report")
        speedup = serial_s / pooled_s
    metrics["experiments.pool_speedup"] = speedup
    metrics["experiments.pool_efficiency"] = speedup / 2
    info = {"traced_calls": wl.trace_calls, "traced_trials": wl.trace_calls * wl.trials,
            "traced_s": traced_s, "untraced_s": untraced_s}
    return {"attempted": run.attempted, "failed": min(run.failed, run.attempted),
            "problems": run.problems, "metrics": metrics, "info": info}


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpme": mpme.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    Path(args.work_dir).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir))
    try:
        wl.setup(work, args.seed)
        result = measure_traced(wl) if args.trace else measure(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["info"].update(environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
