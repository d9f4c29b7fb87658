"""Compare two checkouts on the benchmark and write a BENCH_*.json record.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seed N \
        [--seconds S] [--pairs K] --out BENCH_n.json [WORKLOAD ...]

Each directory is a checkout holding ``BENCHMARK.json``, ``perfbench/``
and ``src/``.  For every workload (all by default) the script runs
``perfbench/run.py --trace 0`` K times on each checkout, in pairs whose
order alternates (parent first in even pairs), then one ``--trace 1`` run
on each.  The record gives, per workload and side, every run's value and
the quartiles of each end-to-end metric, the number of pairs in which the
change read better on each metric, and from the traced run the
objective-evaluation count, the share of converged fits, the cost per
evaluation, the UNI marginal and quadrature counts, and the time spent
in the UNI fit and in the I/O and per-population layers.  Runs are strictly sequential, so
the two sides never compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED = ("optim.evals_per_fit", "optim.iterations_per_fit", "optim.converged_frac",
          "optim.objective.calls", "optim.objective.s_per_eval", "prior_nix.learn_nix.calls",
          "prior_uni.learn_uni.s", "prior_uni.uni_log_marginal_likelihood.calls",
          "special.integrand_calls_per_integral", "dataio.dump_json.s",
          "dataio.load_dataset.s", "core.sufficient_stats.s", "prior_nix.nix_map.s")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout} {workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return json.loads(lines[-2]), {k: v["value"] for k, v in result["metrics"].items()}, result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs, "workloads": {}}
    for workload in workloads:
        values = {side: {name: [] for name in better} for side in SIDES}
        accounting = {side: {"attempted": 0, "failed": 0, "correct_runs": 0} for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                info, metrics, result = run(dirs[side], workload, args.seed, seconds, 0)
                for name in better:
                    values[side][name].append(metrics[name])
                acc = accounting[side]
                acc["attempted"] += result["attempted"]
                acc["failed"] += result["failed"]
                acc["correct_runs"] += bool(result["correct"])
                print(f"{workload} pair {pair} {side}: trials_per_s {metrics['trials_per_s']:.4g}",
                      file=sys.stderr)
        record.update({k: info[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy")})
        wins = {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            wins[name] = sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"][name], values["change"][name])
            )
        entry = {"change_wins": wins}
        for side in SIDES:
            traced = run(dirs[side], workload, args.seed, seconds, 1)[1]
            entry[side] = {
                "end_to_end": {name: {**quartiles(v), "runs": v} for name, v in values[side].items()},
                "traced": {name: traced[name] for name in TRACED},
                **accounting[side],
            }
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
