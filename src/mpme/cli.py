"""Command-line interface: estimate, synth, bootstrap, and verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
optimizer failure, 4 verification failure.  Results go to the output
path (or standard output); diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .core import DataError, Method, NumericalError, sufficient_stats
from .dataio import dump_json, load_dataset
from .experiments import (
    EXAMPLES,
    METHOD_NAMES,
    SyntheticConfig,
    bootstrap_benchmark_detailed,
    estimate_populations,
    prune_outliers,
    run_benchmark_detailed,
)
from .verify import SUITES, run_suite

__all__ = ["cli_main", "run"]

REPORT_SCHEMA = "mpme/1"


def _parse_methods(text: str) -> tuple[Method, ...]:
    methods = []
    for name in text.split(","):
        name = name.strip()
        if name not in METHOD_NAMES:
            known = ", ".join(sorted(METHOD_NAMES))
            raise argparse.ArgumentTypeError(f"unknown method {name!r}; known: {known}")
        methods.append(METHOD_NAMES[name])
    # A repeated name runs once, so the recorded config lists it once.
    return tuple(dict.fromkeys(methods))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {output}: {exc.strerror or exc}") from None


def _cmd_estimate(args) -> int:
    dataset = load_dataset(args.input)
    ids = [p.id for p in dataset.populations]
    stats_list = [sufficient_stats(p) for p in dataset.populations]

    removed_ids: list[str] = []
    learn_stats = stats_list
    if args.prune_outliers is not None:
        learn_stats, removed = prune_outliers(stats_list, args.prune_outliers)
        # Pruning goes by sample mean alone, so equal statistics share a fate.
        removed_set = set(removed)
        removed_ids = [pid for pid, s in zip(ids, stats_list) if s in removed_set]
        if removed_ids:
            print(f"pruned populations: {', '.join(removed_ids)}", file=sys.stderr)

    method = METHOD_NAMES[args.prior]
    estimates, hypers = estimate_populations([method], stats_list, learn_stats)
    # One method learns at most one prior.
    hyper = next(iter(hypers.values()), None)

    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": "estimate",
        "config": {
            "input": str(args.input),
            "prior": args.prior,
            "prune_outliers": args.prune_outliers,
        },
        "method": method.value,
        "hyperparameters": None if hyper is None else asdict(hyper),
        "pruned": removed_ids,
        "estimates": [
            {
                "population": pid,
                "n": s.n,
                "mean": s.mean,
                "var_unbiased": s.var_unbiased,
                "mu": est.mu,
                "sigma_sq": est.sigma_sq,
            }
            for pid, s, est in zip(ids, stats_list, estimates[method])
        ],
    }
    _emit(dump_json(report), args.output)
    return 0


def _benchmark_report(command: str, config: dict, result, population_ids=None) -> dict:
    """The report shared by ``synth`` and ``bootstrap``."""
    truth = {} if population_ids is None else {"population": population_ids}
    truth.update(mu=list(result.truth.mu), sigma=list(result.truth.sigma))
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "truth": truth,
        "reports": {
            method.value: {
                "eps_mu": report.eps_mu,
                "eps_sigma_sq": report.eps_sigma_sq,
                "per_population_mu_rmse": list(report.per_population_mu_rmse),
                "per_population_var_rmse": list(report.per_population_var_rmse),
                "trials": report.trials,
            }
            for method, report in sorted(result.reports.items(), key=lambda kv: kv[0].value)
        },
        "hyperparameters": {
            "nix": [asdict(h) for h in result.nix_hypers],
            "uni": [asdict(h) for h in result.uni_hypers],
        },
        "failed_trials": len(result.failures),
        "failures": list(result.failures),
    }


def _cmd_synth(args) -> int:
    mu_range, sigma_range = EXAMPLES[args.example]
    cfg = SyntheticConfig(
        populations=args.pops,
        samples_per_population=args.n,
        mu_range=mu_range,
        sigma_range=sigma_range,
        trials=args.trials,
        seed=args.seed,
    )
    result = run_benchmark_detailed(
        cfg,
        args.methods,
        prune_k=args.prune_outliers,
        threads=args.threads,
    )
    config = {
        "example": args.example,
        "populations": args.pops,
        "samples_per_population": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "methods": [m.value for m in args.methods],
        "mu_range": list(mu_range),
        "sigma_range": list(sigma_range),
        "prune_outliers": args.prune_outliers,
    }
    _emit(dump_json(_benchmark_report("synth", config, result)), args.output)
    return 0


def _cmd_bootstrap(args) -> int:
    dataset = load_dataset(args.input)
    result = bootstrap_benchmark_detailed(
        dataset.populations,
        n_sub=args.subsample,
        trials=args.trials,
        seed=args.seed,
        methods=args.methods,
        threads=args.threads,
    )
    config = {
        "input": str(args.input),
        "subsample": args.subsample,
        "trials": args.trials,
        "seed": args.seed,
        "methods": [m.value for m in args.methods],
    }
    ids = [p.id for p in dataset.populations]
    _emit(dump_json(_benchmark_report("bootstrap", config, result, ids)), args.output)
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, cases=args.cases, seed=args.seed)
    for line in result.lines:
        print(line)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status} {result.name}: {result.cases} cases, worst {result.worst:.3g}, "
        f"tolerance {result.tolerance:g}"
    )
    return 0 if result.passed else 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpme",
        description="Moment estimation across many small-sample populations.",
    )
    parser.add_argument("--version", action="version", version=f"mpme {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate per-population moments from a dataset")
    est.add_argument("--input", required=True, help="dataset file (CSV or JSON)")
    est.add_argument("--prior", choices=tuple(METHOD_NAMES), required=True)
    est.add_argument("--prune-outliers", type=float, metavar="K", default=None)
    est.add_argument("--output", default=None, help="output path; default stdout")
    est.set_defaults(handler=_cmd_estimate)

    synth = sub.add_parser("synth", help="synthetic benchmark of estimator accuracy")
    synth.add_argument("--example", type=int, choices=sorted(EXAMPLES), default=1)
    synth.add_argument("--pops", type=_positive_int, default=20)
    synth.add_argument("--n", type=_positive_int, default=5)
    synth.add_argument("--trials", type=_positive_int, default=200)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--methods",
        type=_parse_methods,
        default=(Method.SAMPLE_EST, Method.MPME_NIX),
        help="comma-separated: " + ",".join(METHOD_NAMES),
    )
    synth.add_argument("--prune-outliers", type=float, metavar="K", default=None)
    synth.add_argument("--threads", type=_positive_int, default=1)
    synth.add_argument("--output", default=None)
    synth.set_defaults(handler=_cmd_synth)

    boot = sub.add_parser("bootstrap", help="subsampling benchmark on a measured dataset")
    boot.add_argument("--input", required=True)
    boot.add_argument("--subsample", type=_positive_int, required=True)
    boot.add_argument("--trials", type=_positive_int, default=500)
    boot.add_argument("--seed", type=int, default=0)
    boot.add_argument(
        "--methods",
        type=_parse_methods,
        default=(Method.SAMPLE_EST, Method.MPME_NIX),
    )
    boot.add_argument("--threads", type=_positive_int, default=1)
    boot.add_argument("--output", default=None)
    boot.set_defaults(handler=_cmd_bootstrap)

    ver = sub.add_parser("verify", help="run oracle cross-checks")
    ver.add_argument("--suite", choices=sorted(SUITES), required=True)
    ver.add_argument("--cases", type=_positive_int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.set_defaults(handler=_cmd_verify)

    return parser


def cli_main(argv=None) -> int:
    """Run one ``mpme`` command and return its exit code.

    The argument parser is built on the first call and reused by every
    later one in the same process, so a harness that calls ``cli_main``
    in a loop pays for it once; it is not built at import.  Parsing keeps
    no state between calls: each call gets a fresh namespace.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except DataError as exc:
        print(f"mpme: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"mpme: numerical failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    run()
