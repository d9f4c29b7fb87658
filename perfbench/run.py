"""Run one mpme benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Measures set-up (fresh interpreters importing ``mpme.cli``), then runs
the workload in a process of its own (``worker.py``) so that its peak
memory belongs to it alone.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's environment.  Metric
names and units come from ``BENCHMARK.json``: with ``--trace 0`` every
end-to-end metric, with ``--trace 1`` every per-layer metric.  Exits 1 if
any output check failed and 2 if the run could not be made at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import normalized, probe

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(argv, env, timeout):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def time_child(argv, env) -> float:
    """Wall time of a child process, normalized to the reference CPU speed."""
    before = probe()
    start = time.perf_counter()
    code, _out, err = run_child(argv, env, timeout=60)
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()[-300:]}")
    return normalized(seconds, 0.5 * (before + probe()))


def measure_setup(env) -> tuple[float, float]:
    """Medians of a bare interpreter's and an ``import mpme.cli`` run's wall time."""
    bare, full = [], []
    for _ in range(SETUP_REPEATS):
        bare.append(time_child([sys.executable, "-c", "pass"], env))
        full.append(time_child([sys.executable, "-c", "import mpme.cli"], env))
    return statistics.median(bare), statistics.median(full)


def main(argv=None) -> int:
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    parser = argparse.ArgumentParser(description="Run one mpme benchmark workload.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (root / "src" / "mpme" / "__init__.py").is_file():
        return fail(f"no mpme source tree at {root / 'src'}; run from the root of a checkout")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("MPME_THREADS", None)
    try:
        bare_s, import_s = measure_setup(env)
        code, out, err = run_child(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(root / ".perfbench_run")],
            env, timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        with contextlib.suppress(OSError):
            (root / ".perfbench_run").rmdir()  # left only if empty
    if code != 0:
        return fail(f"worker exited {code}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])

    values = result["metrics"]
    if args.trace:
        values.update({"setup.interpreter_s": bare_s, "setup.import_s": import_s - bare_s})
    else:
        values["setup_s"] = import_s
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"workload {args.workload} produced no value for {', '.join(missing)}")

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result["info"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
