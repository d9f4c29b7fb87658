import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mpme.cli as cli
from mpme.cli import cli_main
import mpme.experiments as experiments
from mpme.core import NumericalError, PopulationSample, sufficient_stats
from mpme.dataio import DatasetFile, load_dataset, save_dataset
from mpme.experiments import METHOD_NAMES, estimate_populations, standin_dataset
from mpme.verify import SuiteResult


@pytest.fixture
def clustered_csv(tmp_path):
    # Means spread ~1 with heterogeneous scales: prior learning has an
    # interior optimum here.
    rng = np.random.default_rng(42)
    pops = []
    for i in range(10):
        mu = 10.0 + rng.standard_normal()
        sig = float(np.exp(0.4 * rng.standard_normal()))
        values = mu + sig * rng.standard_normal(6)
        pops.append(PopulationSample(id=f"p{i}", values=tuple(float(v) for v in values)))
    path = tmp_path / "data.csv"
    save_dataset(DatasetFile(populations=tuple(pops)), path)
    return path


def test_version_and_usage_exit_codes(capsys):
    assert cli_main(["--version"]) == 0
    assert "mpme" in capsys.readouterr().out
    assert cli_main([]) == 1
    assert cli_main(["estimate"]) == 1  # --input and --prior are required
    assert cli_main(["synth", "--methods", "bogus"]) == 1


def test_estimate_sample_prior_stdout(clustered_csv, capsys):
    assert cli_main(["estimate", "--input", str(clustered_csv), "--prior", "sample"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "mpme/1"
    assert doc["command"] == "estimate"
    assert doc["method"] == "sample"
    assert doc["hyperparameters"] is None
    assert len(doc["estimates"]) == 10
    row = doc["estimates"][0]
    assert row["population"] == "p0"
    assert row["n"] == 6
    assert row["mu"] == row["mean"]
    assert row["sigma_sq"] == row["var_unbiased"]


def test_estimate_nix_prior_writes_output_file(clustered_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(
        ["estimate", "--input", str(clustered_csv), "--prior", "nix", "--output", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["method"] == "mpme-nix"
    assert set(doc["hyperparameters"]) == {"mu0", "kappa0", "nu0", "sigma0_sq"}
    # Shrinkage: every posterior mean lies between the sample mean and mu0.
    mu0 = doc["hyperparameters"]["mu0"]
    for row in doc["estimates"]:
        lo, hi = sorted((row["mean"], mu0))
        assert lo <= row["mu"] <= hi


def test_estimate_nix_unbiased_prior(clustered_csv, capsys):
    argv = ["estimate", "--input", str(clustered_csv), "--prior"]
    assert cli_main(argv + ["nix"]) == 0
    mode = json.loads(capsys.readouterr().out)
    assert cli_main(argv + ["nix-unbiased"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "mpme-nix-unbiased"
    assert doc["config"] == {
        "input": str(clustered_csv),
        "prior": "nix-unbiased",
        "prune_outliers": None,
    }
    # Both learn the same prior; the unbiased posterior variance divides
    # the same scatter by nu_n - 1 instead of the mode's nu_n + 3.
    assert doc["hyperparameters"] == mode["hyperparameters"]
    for row, mode_row in zip(doc["estimates"], mode["estimates"], strict=True):
        assert row["mu"] == mode_row["mu"]
        assert row["sigma_sq"] > mode_row["sigma_sq"]


def test_estimate_unbiased_variance_flag_is_gone(clustered_csv):
    # The variance mode is part of the method name, so the old flag is a
    # usage error.
    argv = ["estimate", "--input", str(clustered_csv), "--prior", "nix", "--unbiased-variance"]
    assert cli_main(argv) == 1


def test_estimate_uni_prior(tmp_path, capsys):
    rng = np.random.default_rng(3)
    pops = []
    for i in range(20):
        mu = rng.uniform(9.5, 10.5)
        s2 = rng.uniform(0.95, 1.05)
        values = mu + math.sqrt(s2) * rng.standard_normal(5)
        pops.append(PopulationSample(id=f"p{i}", values=tuple(float(v) for v in values)))
    path = tmp_path / "data.csv"
    save_dataset(DatasetFile(populations=tuple(pops)), path)
    assert cli_main(["estimate", "--input", str(path), "--prior", "uni"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "mpme-uni"
    h = doc["hyperparameters"]
    # This fit ends on the variance face, c == d.
    assert h["a"] < h["b"] and 0 < h["c"] <= h["d"]
    for row in doc["estimates"]:
        assert h["a"] <= row["mu"] <= h["b"]
        assert h["c"] <= row["sigma_sq"] <= h["d"]


@pytest.mark.parametrize("name", ["sample", "nix", "nix-unbiased", "uni"])
def test_estimate_matches_shared_estimators(clustered_csv, capsys, name):
    # The CLI and the benchmark harness compute one estimator per name.
    assert cli_main(["estimate", "--input", str(clustered_csv), "--prior", name]) == 0
    doc = json.loads(capsys.readouterr().out)
    method = METHOD_NAMES[name]
    assert doc["method"] == method.value
    stats = [sufficient_stats(p) for p in load_dataset(clustered_csv).populations]
    estimates, _ = estimate_populations([method], stats, stats)
    rows = [(row["mu"], row["sigma_sq"]) for row in doc["estimates"]]
    assert rows == [(e.mu, e.sigma_sq) for e in estimates[method]]


def test_estimate_prune_reports_to_stderr(tmp_path, capsys):
    rng = np.random.default_rng(1)
    pops = [
        PopulationSample(
            id=f"p{i}", values=tuple(float(v) for v in 10.0 + rng.standard_normal(5))
        )
        for i in range(8)
    ]
    pops.append(
        PopulationSample(
            id="wild", values=tuple(float(v) for v in 500.0 + rng.standard_normal(5))
        )
    )
    path = tmp_path / "data.csv"
    save_dataset(DatasetFile(populations=tuple(pops)), path)
    code = cli_main(
        ["estimate", "--input", str(path), "--prior", "nix", "--prune-outliers", "5"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "pruned populations: wild" in captured.err
    doc = json.loads(captured.out)
    assert doc["pruned"] == ["wild"]
    # Pruning affects learning only; every population is still estimated.
    assert len(doc["estimates"]) == 9


def test_estimate_data_errors_exit_2(tmp_path, capsys):
    assert cli_main(["estimate", "--input", str(tmp_path / "no.csv"), "--prior", "sample"]) == 2
    assert "data error" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("population,value\na,1.0\na,oops\n")
    assert cli_main(["estimate", "--input", str(bad), "--prior", "sample"]) == 2


@pytest.mark.parametrize(
    "text",
    ["[" * 100000, '{"populations": [{"id": "a", "values": %s}]}' % ("[" * 50000 + "]" * 50000)],
    ids=["bare", "values"],
)
def test_estimate_deeply_nested_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert cli_main(["estimate", "--input", str(path), "--prior", "sample"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_estimate_overflowing_values_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("population,value\na,1\na,1e308\nb,1\nb,-1e308\n")
    assert cli_main(["estimate", "--input", str(path), "--prior", "sample"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'a'" in err


@pytest.mark.parametrize(
    "pop_id", ["\\u0000a\\u0000", "\\u00001.5\\u0000"], ids=["word", "number"]
)
def test_estimate_nul_population_id_exits_2(tmp_path, capsys, pop_id):
    path = tmp_path / "nul.json"
    path.write_text(
        '{"populations": [{"id": "%s", "values": [1.0, 2.0]}, '
        '{"id": "b", "values": [3.0, 5.0]}]}' % pop_id
    )
    assert cli_main(["estimate", "--input", str(path), "--prior", "sample"]) == 2
    assert "U+0000" in capsys.readouterr().err


def test_estimate_nul_population_id_in_csv_exits_2_before_fitting(tmp_path, monkeypatch, capsys):
    def unreachable(stats_list):
        raise AssertionError("learn_uni ran on a dataset that cannot be reported")

    monkeypatch.setattr(experiments, "learn_uni", unreachable)
    path = tmp_path / "nul.csv"
    path.write_text("population,value\na,1.0\na,2.0\nbad\x00id,3.0\nbad\x00id,5.0\n")
    assert cli_main(["estimate", "--input", str(path), "--prior", "uni"]) == 2
    assert "U+0000" in capsys.readouterr().err


def test_estimate_numerical_failure_exits_3(clustered_csv, monkeypatch, capsys):
    def broken(stats_list):
        raise NumericalError("forced failure")

    monkeypatch.setattr(experiments, "learn_nix", broken)
    assert cli_main(["estimate", "--input", str(clustered_csv), "--prior", "nix"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_estimate_uni_overflowing_step_exits_3(tmp_path, capsys):
    # Tight, well separated clusters put the UNI start box far out in the
    # tail, where Newton's step overflows: a numerical failure, exit 3.
    path = tmp_path / "tail.csv"
    path.write_text(
        "population,value\n"
        "pop-000,-1.4648666760420443\n"
        "pop-000,-1.3878114684069169\n"
        "pop-001,50.595715935349332\n"
        "pop-001,49.871652090186679\n"
        "pop-002,99.439434166227713\n"
        "pop-002,99.472532913238581\n"
    )
    assert cli_main(["estimate", "--input", str(path), "--prior", "uni"]) == 3
    assert "Newton step is not finite" in capsys.readouterr().err


def test_estimate_nix_on_all_constant_data_leaks_no_warning(tmp_path, capsys):
    # The NIX search overflows on its way down sigma0_sq; pyproject turns a
    # leaked RuntimeWarning into an error, which would exit 1.
    path = tmp_path / "const.csv"
    path.write_text("population,value\na,1\na,1\nb,1\nb,1\n")
    assert cli_main(["estimate", "--input", str(path), "--prior", "nix"]) == 0
    assert capsys.readouterr().err == ""


def _scaled_csv(tmp_path, scale):
    path = tmp_path / f"scaled-{scale:g}.csv"
    rows = [("a", 1.0), ("a", 2.0), ("b", 3.0), ("b", 1.0), ("c", 2.0), ("c", 2.5)]
    path.write_text("population,value\n" + "".join(f"{p},{v * scale!r}\n" for p, v in rows))
    return str(path)


_BOOTSTRAP = ["--subsample", "2", "--trials", "4"]


@pytest.mark.parametrize(
    "scale, args, message",
    [
        # UNI: a side's square or c^3 passes the float range, or at 1e-140
        # underflows to zero, so Newton cannot take a step from the start box.
        (1e52, ["estimate", "--prior", "uni"], "learn_uni did not converge at box"),
        (1e80, ["estimate", "--prior", "uni"], "learn_uni did not converge at box"),
        (1e150, ["estimate", "--prior", "uni"], "learn_uni did not converge at box"),
        (1e-140, ["estimate", "--prior", "uni"], "learn_uni did not converge at box"),
        (1e52, ["bootstrap", *_BOOTSTRAP, "--methods", "sample,uni"], "4 of 4 trials failed"),
        (1e80, ["bootstrap", *_BOOTSTRAP, "--methods", "sample,uni"], "4 of 4 trials failed"),
        (1e150, ["bootstrap", *_BOOTSTRAP, "--methods", "sample,uni"], "4 of 4 trials failed"),
        # NIX: the posterior scatter overflows in nix_map.
        (1e150, ["estimate", "--prior", "nix"], "NIX posterior overflows"),
        (1e150, ["bootstrap", *_BOOTSTRAP, "--methods", "sample,nix"], "NIX posterior overflows"),
        # The squared variance errors overflow in error_report.
        (1e80, ["bootstrap", *_BOOTSTRAP, "--methods", "sample,nix"], "squared error overflows"),
    ],
    ids=["uni-1e52", "uni-1e80", "uni-1e150", "uni-1e-140", "bootstrap-uni-1e52",
         "bootstrap-uni-1e80", "bootstrap-uni-1e150", "nix-1e150", "bootstrap-nix-1e150",
         "bootstrap-nix-1e80"],
)
def test_overflow_at_extreme_scale_exits_3(tmp_path, capsys, scale, args, message):
    command, *rest = args
    assert cli_main([command, "--input", _scaled_csv(tmp_path, scale), *rest]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err


def test_synth_sample_only_report(capsys):
    code = cli_main(
        ["synth", "--pops", "4", "--n", "5", "--trials", "2", "--seed", "3",
         "--methods", "sample"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "synth"
    assert doc["config"]["mu_range"] == [9.5, 10.5]
    assert doc["config"]["sigma_range"] == [0.95, 1.05]
    assert doc["truth"]["mu"] == [9.5, pytest.approx(9.8333333333333339), pytest.approx(10.166666666666666), 10.5]
    rep = doc["reports"]["sample"]
    assert rep["trials"] == 2
    assert rep["eps_mu"] > 0
    assert len(rep["per_population_mu_rmse"]) == 4
    assert doc["failed_trials"] == 0


def test_output_dash_prints_the_file_bytes(clustered_csv, tmp_path, capsys):
    for args in (
        ["estimate", "--input", str(clustered_csv), "--prior", "nix"],
        ["synth", "--pops", "4", "--n", "5", "--trials", "2", "--methods", "sample,nix"],
    ):
        out = tmp_path / f"{args[0]}.json"
        assert cli_main(args + ["--output", str(out)]) == 0
        assert cli_main(args + ["--output", "-"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


def test_synth_repeated_method_recorded_once(capsys):
    code = cli_main(
        ["synth", "--pops", "4", "--n", "5", "--trials", "1", "--methods", "sample,sample"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["methods"] == ["sample"]
    assert list(doc["reports"]) == ["sample"]


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    code = cli_main(
        ["synth", "--pops", "4", "--n", "5", "--trials", "1", "--methods", "sample",
         "--output", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "cannot write" in err


def test_estimate_has_no_seed_option(clustered_csv, capsys):
    argv = ["estimate", "--input", str(clustered_csv), "--prior", "sample"]
    assert cli_main(argv + ["--seed", "1"]) == 1
    assert cli_main(argv) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)["config"]


def test_synth_example_2_ranges(capsys):
    code = cli_main(
        ["synth", "--example", "2", "--pops", "2", "--n", "5", "--trials", "1",
         "--seed", "0", "--methods", "sample"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["sigma_range"] == [1.9, 2.1]
    assert doc["truth"]["sigma"] == [1.9, 2.1]


def test_synth_example_records_its_table_entry(capsys):
    assert experiments.EXAMPLES == {
        1: ((9.5, 10.5), (0.95, 1.05)),
        2: ((9.5, 10.5), (1.9, 2.1)),
    }
    argv = ["synth", "--pops", "2", "--n", "5", "--trials", "1", "--methods", "sample"]
    for k, (mu_range, sigma_range) in experiments.EXAMPLES.items():
        assert cli_main(argv + ["--example", str(k)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["mu_range"] == list(mu_range)
        assert config["sigma_range"] == list(sigma_range)
    assert cli_main(argv + ["--example", "3"]) == 1


def test_console_entry_point_exits_with_cli_main_code(tmp_path, monkeypatch, capsys):
    # The installed ``mpme`` script calls cli.run, which reads sys.argv.
    missing = str(tmp_path / "missing.csv")
    for argv, code in (
        (["--version"], 0),
        (["estimate", "--input", missing, "--prior", "sample"], 2),
    ):
        monkeypatch.setattr(sys, "argv", ["mpme", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == code, argv
    assert "data error" in capsys.readouterr().err


_FOOTPRINT = """
import sys
import mpme.prior_nix
loaded = {"mpme.verify", "mpme.experiments", "mpme.dataio", "mpme.cli"} & set(sys.modules)
assert not loaded, f"import mpme.prior_nix loads {sorted(loaded)}"
import mpme.cli
assert "scipy.stats" not in sys.modules, "import mpme.cli loads scipy.stats"
import mpme
print(mpme.__version__)
"""


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this mpme."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_import_footprint():
    # A fresh interpreter: once any test has loaded scipy.stats, the check
    # cannot run in this process.
    proc = _fresh_python("-c", _FOOTPRINT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{cli.__version__}\n"


def test_cli_import_does_not_load_multiprocessing():
    # The process pool is imported only when --threads asks for workers.
    proc = _fresh_python("-c", "import sys, mpme.cli; print('multiprocessing' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_cli_import_does_not_build_the_parser():
    # The parser is built by the first cli_main call, so import time, which
    # every mpme invocation pays, does not include it.
    proc = _fresh_python("-c", "import mpme.cli; print(mpme.cli._build_parser.cache_info().misses)")
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_parser_is_built_once_and_reused(capsys):
    # One process, one parser: a usage error and --version between two
    # runs of the same command leave its report byte-identical.
    cli._build_parser.cache_clear()
    command = ["synth", "--pops", "4", "--n", "5", "--trials", "2", "--seed", "3",
               "--methods", "sample,uni"]
    assert cli_main(command) == 0
    first = capsys.readouterr().out
    assert cli_main(["synth", "--pops", "0"]) == 1
    assert "--pops" in capsys.readouterr().err
    assert cli_main(["--version"]) == 0
    assert capsys.readouterr().out == f"mpme {cli.__version__}\n"
    assert cli_main(command) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["reports"]["mpme-uni"]["trials"] == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_module_run_exits_with_cli_main_code(tmp_path):
    proc = _fresh_python("-m", "mpme.cli", "--version")
    assert (proc.returncode, proc.stdout) == (0, f"mpme {cli.__version__}\n")
    proc = _fresh_python("-m", "mpme.cli", "estimate", "--input",
                         str(tmp_path / "missing.csv"), "--prior", "sample")
    assert proc.returncode == 2
    assert "data error" in proc.stderr


def test_synth_byte_identical_across_threads(tmp_path):
    args = ["synth", "--pops", "8", "--n", "5", "--trials", "2", "--seed", "7",
            "--methods", "sample,nix"]
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert cli_main(args + ["--threads", "1", "--output", str(out1)]) == 0
    assert cli_main(args + ["--threads", "2", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_uni_byte_identical_across_threads(tmp_path):
    args = ["synth", "--pops", "20", "--n", "5", "--trials", "6", "--seed", "5",
            "--methods", "sample,uni"]
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    assert cli_main(args + ["--threads", "1", "--output", str(out1)]) == 0
    assert cli_main(args + ["--threads", "2", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["failed_trials"] == 0


def test_bootstrap_command(tmp_path, capsys):
    path = tmp_path / "standin.json"
    save_dataset(DatasetFile(populations=tuple(standin_dataset())), path)
    code = cli_main(
        ["bootstrap", "--input", str(path), "--subsample", "5", "--trials", "2",
         "--seed", "5", "--methods", "sample"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "bootstrap"
    assert doc["truth"]["population"] == [f"die-{i}" for i in range(1, 9)]
    assert doc["reports"]["sample"]["trials"] == 2
    # Subsample larger than any population is a data error.
    assert (
        cli_main(
            ["bootstrap", "--input", str(path), "--subsample", "51", "--trials", "2",
             "--methods", "sample"]
        )
        == 2
    )


def test_verify_pass_and_fail_exit_codes(monkeypatch, capsys):
    assert cli_main(["verify", "--suite", "correlation", "--cases", "200000"]) == 0
    out = capsys.readouterr().out
    assert "PASS correlation" in out

    def fake_run_suite(name, cases=None, seed=None):
        return SuiteResult(name, False, 1, worst=1.0, tolerance=0.1, lines=["case 0: bad"])

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    assert cli_main(["verify", "--suite", "correlation"]) == 4
    assert "FAIL correlation" in capsys.readouterr().out


def test_verify_nan_fails(capsys, monkeypatch):
    # A NaN comparison must not pass as error 0.
    monkeypatch.setattr(experiments, "induced_correlation", lambda sigma, sigma0: math.nan)
    assert cli_main(["verify", "--suite", "correlation", "--cases", "100"]) == 4
    assert "FAIL correlation: 3 cases, worst nan" in capsys.readouterr().out


def test_verify_correlation_one_draw_exits_2(capsys):
    # One draw has no correlation; it is refused before numpy warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["verify", "--suite", "correlation", "--cases", "1"]) == 2
    assert "data error: draws = 1" in capsys.readouterr().err


def test_verify_negative_seed_exits_2(capsys):
    assert cli_main(["verify", "--suite", "correlation", "--seed", "-1"]) == 2
    assert "data error: seed = -1" in capsys.readouterr().err
