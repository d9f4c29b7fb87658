"""Self-test of the benchmark: two traced runs at one seed must agree.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice for each workload (all by default).  Each
traced run already checks its exact count identities (``learn_nix``
calls = trials, ``sufficient_stats`` calls = trials x P,
``integrate_adaptive`` calls = UNI marginal calls) and exits non-zero if
one fails.  This script also requires every deterministic per-layer
counter, the metrics with unit ``count``, ``B`` or ``fraction``, to be
identical across the two runs.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "B", "fraction"}


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    counters = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    ok = True
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        diff = {c: (first[c]["value"], second[c]["value"]) for c in counters
                if first[c]["value"] != second[c]["value"]}
        ok = ok and not diff
        shown = {c: first[c]["value"] for c in counters if first[c]["value"]}
        print(f"{workload}: {'identical' if not diff else 'DIFFERENT ' + json.dumps(diff)} {json.dumps(shown)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
