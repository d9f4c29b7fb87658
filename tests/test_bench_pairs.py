import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: it prints an info line and a result
# line that give trials_per_s the value TPS and every other metric 1.0,
# and exits with CODE.  A run with exit code 1 failed its output checks,
# as perfbench reports it.  Its k-th traced run gives each metric named in
# TRACED the k-th value listed for it.  Every run appends the checkout's
# name and its --trace to runs.log beside the checkout.
_FAKE_RUN = """
import json, os, sys
spec = json.load(open("BENCHMARK.json"))
trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
with open(os.path.join("..", "runs.log"), "a+") as log:
    log.seek(0)
    me = os.path.basename(os.getcwd())
    k = log.read().split().count(me + ":1")
    log.write(f"{me}:{int(trace)} ")
names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
values = {n: TPS if n == "trials_per_s" else 1.0 for n in names}
if trace:
    values.update({n: v[k] for n, v in TRACED.items()})
print(json.dumps({"nproc": 2, "cpu_model": "x", "python": "3", "numpy": "1", "scipy": "1"}))
if CODE != 2:
    print(json.dumps({"correct": CODE == 0, "attempted": 4, "failed": 1 if CODE else 0,
                      "metrics": {n: {"value": v, "unit": ""} for n, v in values.items()}}))
sys.exit(CODE)
"""


def _checkout(tmp_path, name, code, trials_per_s=1.0, traced=None):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    run = (_FAKE_RUN.replace("CODE", str(code)).replace("TPS", repr(trials_per_s))
           .replace("TRACED", repr(traced or {})))
    (root / "perfbench" / "run.py").write_text(run)
    return root


def _main(tmp_path, parent, change, pairs):
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seed", "1",
                      "--seconds", "1", "--pairs", str(pairs), "--out", str(out), "synth-nix"])
    return json.loads(out.read_text())["workloads"]["synth-nix"]


def test_failed_checks_are_recorded(tmp_path):
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 1), 2)
    assert (entry["parent"]["correct_runs"], entry["parent"]["failed"]) == (2, 0)
    assert (entry["change"]["correct_runs"], entry["change"]["failed"]) == (0, 2)
    assert entry["change"]["attempted"] == 8
    assert entry["change"]["end_to_end"]["trials_per_s"]["runs"] == [1.0, 1.0]


def test_one_pair_gives_its_value_as_every_quartile(tmp_path):
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 0), 1)
    assert entry["change"]["end_to_end"]["setup_s"] == {
        "q1": 1.0, "median": 1.0, "q3": 1.0, "runs": [1.0],
    }


def test_a_run_that_could_not_be_made_stops_the_record(tmp_path):
    with pytest.raises(SystemExit, match="exit 2"):
        _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 2), 1)


def test_the_uni_marginal_layer_is_recorded(tmp_path):
    # Every stand-in metric is 1.0: one marginal call whose own, quadrature
    # and integrand times are 1 s each.
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 0), 1)
    for side in ("parent", "change"):
        assert entry[side]["per_uni_marginal"] == {"s": 3.0}


def test_the_cli_and_data_generation_layers_are_recorded(tmp_path):
    # These layers, like every other, are recorded because BENCHMARK.json
    # names them: the traced keys are exactly its per-layer names.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert {"cli.cli_main.self_s", "experiments.generate_synthetic.s"} <= set(names)
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 0), 1)
    for side in ("parent", "change"):
        assert entry[side]["traced"] == dict.fromkeys(names, 1.0)


def test_a_change_better_on_every_pair_clears_the_gate(tmp_path):
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0),
                  _checkout(tmp_path, "change", 0, trials_per_s=1.5), 10)
    assert entry["change_wins"]["trials_per_s"] == 10
    assert entry["gate"]["trials_per_s"] == {
        "parent_spread": 0.0, "median_gap": 0.5, "clears": True,
    }


def test_a_tie_does_not_clear_the_gate(tmp_path):
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 0), 10)
    for gate in entry["gate"].values():
        assert gate == {"parent_spread": 0.0, "median_gap": 0.0, "clears": False}


def test_each_pair_makes_one_traced_run_per_side_in_its_order(tmp_path):
    _main(tmp_path, _checkout(tmp_path, "parent", 0), _checkout(tmp_path, "change", 0), 2)
    assert (tmp_path / "runs.log").read_text().split() == [
        "parent:0", "change:0", "parent:1", "change:1",
        "change:0", "parent:0", "change:1", "parent:1",
    ]


def test_per_layer_metrics_are_medians_of_the_traced_runs(tmp_path):
    # Three pairs: the change's per-evaluation time reads high in one
    # loaded run, and its median ignores it; the UNI layers derive from
    # the medians.
    traced = {"optim.objective.s_per_eval": [1e-5, 9e-5, 2e-5],
              "prior_uni.learn_uni.calls": [2.0, 2.0, 2.0],
              "prior_uni.uni_log_marginal_likelihood.calls": [6.0, 6.0, 6.0],
              "prior_uni.integrand.s": [1.0, 4.0, 7.0]}
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0),
                  _checkout(tmp_path, "change", 0, traced=traced), 3)
    change = entry["change"]
    assert change["traced_runs"]["optim.objective.s_per_eval"] == [1e-5, 9e-5, 2e-5]
    assert change["traced"]["optim.objective.s_per_eval"] == 2e-5
    assert change["traced"]["prior_uni.integrand.s"] == 4.0
    assert change["per_learn_uni"] == {"uni_marginals": 3.0, "objective_calls": 0.5}
    assert change["per_uni_marginal"] == {"s": 1.0}
    assert change["counts_differ"] == entry["parent"]["counts_differ"] == []
    assert entry["parent"]["traced_runs"]["optim.objective.s_per_eval"] == [1.0] * 3


def test_counts_that_differ_between_traced_runs_are_named(tmp_path):
    # A time may vary between runs; a count may not.
    traced = {"optim.objective.calls": [5.0, 5.0, 6.0], "optim.maximize.self_s": [1.0, 2.0, 3.0]}
    entry = _main(tmp_path, _checkout(tmp_path, "parent", 0),
                  _checkout(tmp_path, "change", 0, traced=traced), 3)
    assert entry["change"]["counts_differ"] == ["optim.objective.calls"]
    assert entry["parent"]["counts_differ"] == []
