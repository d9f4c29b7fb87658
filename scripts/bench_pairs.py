"""Compare two checkouts on the benchmark and write a BENCH_*.json record.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seed N \
        [--seconds S] [--pairs K] --out BENCH_n.json [WORKLOAD ...]

Each directory is a checkout holding ``BENCHMARK.json``, ``perfbench/``
and ``src/``.  For every workload (all by default) the script runs
``perfbench/run.py --trace 0`` K times on each checkout, in pairs whose
order alternates (parent first in even pairs); each pair then makes one
``--trace 1`` run on each checkout, in the same order.  The record gives,
per workload and side, every run's value and the quartiles of each
end-to-end metric, the number of pairs in which the change read better on
each metric, and every per-layer metric that ``BENCHMARK.json`` names:
its value in each traced run under ``traced_runs`` and the median of
those under ``traced``, so that one loaded run cannot decide a per-layer
comparison.  A metric whose unit is ``count`` must repeat exactly across
a side's traced runs; ``counts_differ`` lists those that did not.  Runs
are strictly sequential, so the two sides never compete for the
processor.  A run whose output checks fail (exit 1) is recorded like any
other, and counts in ``failed`` and against ``correct_runs``; the script
stops only when a run could not be made (exit 2) or printed no result
line.

For each end-to-end metric, ``gate`` states the rule that a claimed gain
must clear, and the rule that every other metric must keep.
``parent_spread`` is the parent's quartile spread (q3 - q1), and
``median_gap`` is the change's median minus the parent's, signed so that
positive is better.  ``clears`` is true when the change won at least 9 in
10 of the pairs and ``median_gap`` exceeds ``parent_spread``.  ``bound``
is the metric's bound in ``BENCHMARK.json``, and ``worse_by`` is the
change's median against the parent's, relative to the parent's and signed
so that positive is worse (null if the parent's median is zero and the
change's is not).  ``within_bound`` is true when ``worse_by`` is at most
``bound``.  ``unresolved`` is true when the parent's quartile spread,
relative to its median, exceeds ``bound``, unless every change run reads
better than every parent run: the runs then spread too widely to tell a
change within the bound from one past it.

perfbench's ``optim.*_per_fit`` metrics count ``maximize`` calls as fits;
each ``learn_uni`` makes one, so on ``synth-uni`` they read per fit.  The
record also gives ``per_learn_uni``: the UNI marginal calls (each one
quadrature) and the objective calls per ``learn_uni`` call, which differ
by the closed-form evaluations on the variance face and the corner.
And ``per_uni_marginal`` gives the seconds of one UNI marginal
evaluation: the marginal's and its quadrature's self times plus the
integrand's time, over the marginal calls.  Both are taken from the
traced medians, and both are null on a workload without UNI fits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Ratios to prior_uni.learn_uni.calls, from the traced medians.
PER_LEARN_UNI = {"uni_marginals": "prior_uni.uni_log_marginal_likelihood.calls",
                 "objective_calls": "optim.objective.calls"}
UNI_MARGINAL = ("prior_uni.uni_log_marginal_likelihood.self_s",
                "special.integrate_adaptive.self_s", "prior_uni.integrand.s")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    # Exit 1 means an output check failed; the run still measured, and its
    # result line says so through "correct", "attempted" and "failed".
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{checkout} {workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return json.loads(lines[-2]), {k: v["value"] for k, v in result["metrics"].items()}, result


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
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
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    record = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs, "workloads": {}}
    for workload in workloads:
        values = {side: {name: [] for name in better} for side in SIDES}
        traced = {side: {name: [] for name in per_layer} for side in SIDES}
        accounting = {side: {"attempted": 0, "failed": 0, "correct_runs": 0} for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                info, metrics, result = run(dirs[side], workload, args.seed, seconds, 0)
                for name in better:
                    values[side][name].append(metrics[name])
                acc = accounting[side]
                acc["attempted"] += result["attempted"]
                acc["failed"] += result["failed"]
                acc["correct_runs"] += bool(result["correct"])
                print(f"{workload} pair {pair} {side}: correct {result['correct']}", file=sys.stderr)
            for side in order:
                metrics = run(dirs[side], workload, args.seed, seconds, 1)[1]
                for name in per_layer:
                    traced[side][name].append(metrics[name])
        record.update({k: info[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy")})
        wins, gate = {}, {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            parent, change = values["parent"][name], values["change"][name]
            wins[name] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            q = quartiles(parent)
            spread = q["q3"] - q["q1"]
            gap = sign * (quartiles(change)["median"] - q["median"])
            scale = abs(q["median"])
            worse_by = -gap / scale if scale else (0.0 if gap == 0 else None)
            all_better = min(sign * c for c in change) > max(sign * p for p in parent)
            gate[name] = {
                "parent_spread": spread,
                "median_gap": gap,
                "clears": 10 * wins[name] >= 9 * args.pairs and gap > spread,
                "bound": bounds[name],
                "worse_by": worse_by,
                "within_bound": worse_by is not None and worse_by <= bounds[name],
                "unresolved": (spread > bounds[name] * scale) and not all_better,
            }
        entry = {"change_wins": wins, "gate": gate}
        for side in SIDES:
            runs = traced[side]
            median = {name: statistics.median(v) for name, v in runs.items()}
            fits = median["prior_uni.learn_uni.calls"]
            marginals = median["prior_uni.uni_log_marginal_likelihood.calls"]
            entry[side] = {
                "end_to_end": {name: {**quartiles(v), "runs": v} for name, v in values[side].items()},
                "traced": median,
                "traced_runs": runs,
                "counts_differ": [name for name in counts if len(set(runs[name])) > 1],
                "per_learn_uni": {
                    name: median[counter] / fits if fits else None
                    for name, counter in PER_LEARN_UNI.items()
                },
                "per_uni_marginal": {
                    "s": sum(median[name] for name in UNI_MARGINAL) / marginals if marginals else None
                },
                **accounting[side],
            }
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
