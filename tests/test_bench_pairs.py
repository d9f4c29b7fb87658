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
# as perfbench reports it.
_FAKE_RUN = """
import json, sys
spec = json.load(open("BENCHMARK.json"))
trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
print(json.dumps({"nproc": 2, "cpu_model": "x", "python": "3", "numpy": "1", "scipy": "1"}))
if CODE != 2:
    print(json.dumps({"correct": CODE == 0, "attempted": 4, "failed": 1 if CODE else 0,
                      "metrics": {n: {"value": TPS if n == "trials_per_s" else 1.0, "unit": ""}
                                  for n in names}}))
sys.exit(CODE)
"""


def _checkout(tmp_path, name, code, trials_per_s=1.0):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    run = _FAKE_RUN.replace("CODE", str(code)).replace("TPS", repr(trials_per_s))
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
