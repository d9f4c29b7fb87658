import json
import math
import re
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpme import cli, experiments
from mpme.cli import cli_main
from mpme.core import DataError, NumericalError, PopulationSample
from mpme.dataio import (
    DATASET_SCHEMA,
    DataFormat,
    DatasetFile,
    dump_json,
    format_float,
    load_dataset,
    save_dataset,
)


def _dataset(metadata=None):
    return DatasetFile(
        populations=(
            PopulationSample(id="a", values=(0.1 + 0.2, 1.0 / 3.0)),
            PopulationSample(id="b", values=(-1.5, 2.0, 1e-300)),
        ),
        metadata=metadata or {},
    )


def test_format_float_17_digits():
    assert format_float(math.pi) == "3.1415926535897931"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"


@pytest.mark.parametrize(
    "x", [0.1 + 0.2, 1.0 / 3.0, 1e-300, -1e300, 2.0**-1074, 123456789.123456789]
)
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_dump_json_pins_float_digits():
    text = dump_json({"x": 0.1, "nested": [1.0 / 3.0]})
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    assert "\\u0000" not in text
    assert text.endswith("\n")
    assert json.loads(text) == {"x": 0.1, "nested": [1.0 / 3.0]}


def test_dump_json_passthrough_types():
    doc = {"b": True, "n": None, "i": 7, "s": "x", "l": [1, "y"]}
    assert json.loads(dump_json(doc)) == doc


def test_dump_json_rejects_non_finite_and_unknown():
    with pytest.raises(DataError):
        dump_json({"x": math.inf})
    with pytest.raises(DataError):
        dump_json({"x": math.nan})
    with pytest.raises(DataError):
        dump_json({"x": object()})


@pytest.mark.parametrize(
    "doc", [{"a\0": 1.0}, {"x": ["\x001.5\x00"]}], ids=["key", "value"]
)
def test_dump_json_rejects_nul_in_strings(doc):
    # No report or dataset file carries U+0000: a string holding it is
    # refused, and reference_dump_json could not tell it from a float.
    with pytest.raises(DataError, match="U\\+0000"):
        dump_json(doc)


_FLOAT_TOKEN = chr(0)
_TOKEN_RE = re.compile(r'"\\u0000([^"]*)\\u0000"')


def reference_dump_json(obj) -> str:
    """The stdlib-based writer that ``dump_json`` replaced, as its reference.

    Floats become ``"\\0<17 digits>\\0"`` sentinel strings, the stdlib
    encoder writes the layout, and a regex unquotes the sentinels.
    """

    def checked(v: str) -> str:
        if _FLOAT_TOKEN in v:
            raise DataError(f"cannot serialize string {v!r}: it contains U+0000")
        return v

    def encode(v):
        if isinstance(v, bool) or v is None or isinstance(v, int):
            return v
        if isinstance(v, str):
            return checked(v)
        if isinstance(v, float):
            if not math.isfinite(v):
                raise DataError(f"cannot serialize non-finite value {v!r}")
            return f"{_FLOAT_TOKEN}{format_float(v)}{_FLOAT_TOKEN}"
        if isinstance(v, Mapping):
            return {checked(str(k)): encode(u) for k, u in v.items()}
        if isinstance(v, (list, tuple)):
            return [encode(u) for u in v]
        raise DataError(f"cannot serialize {type(v).__name__} to JSON")

    text = json.dumps(encode(obj), indent=2, ensure_ascii=False)
    return _TOKEN_RE.sub(lambda m: m.group(1), text) + "\n"


EDGE_DOCUMENTS = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {}}},
    "float-edges": [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e-7, 1e16, 2.0**53, 1.7976931348623157e308],
    "numpy-floats": {"x": np.float64(0.1), "y": [np.float64(-2.5e-300)]},
    "constants-in-lists": [True, False, None, [True, [False, None]], 0, -1, 2**70],
    "tuples": {"t": (1.0, (2, "three"), ()), "u": ()},
    "non-ascii": {"µ": "σ² ≥ 0", "ключ": ["日本語", "\u2028", "\U0001f600"]},
    "escapes": {'say "hi"': 'a\\b"c', "tab\tkey": "line\nbreak\r\x01\x1f\x7f"},
    "non-str-keys": {1: "one", 2.5: "two and a half", None: "none", False: "false"},
    "scalar": 3.0,
}


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS.values(), ids=EDGE_DOCUMENTS.keys())
def test_dump_json_matches_reference_on_edge_values(doc):
    assert dump_json(doc) == reference_dump_json(doc)


_json_text = st.text(st.characters(exclude_characters="\0"), max_size=8)
_json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _json_text,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_json_text, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_documents)
def test_dump_json_matches_reference_on_random_documents(doc):
    assert dump_json(doc) == reference_dump_json(doc)


def _report_object(monkeypatch, argv):
    """The object a CLI command hands to ``dump_json``."""
    docs = []
    monkeypatch.setattr(cli, "dump_json", lambda obj: docs.append(obj) or dump_json(obj))
    assert cli_main(argv) == 0
    (doc,) = docs
    return doc


def test_dump_json_matches_reference_on_estimate_report(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text(
        "population,value\n"
        + "".join(f"p{i},{10.0 + 0.1 * i + 0.37 * (j % 3)}\n" for i in range(12) for j in range(4))
        + '"µ, ""quoted"" \\ x",1.5\n"µ, ""quoted"" \\ x",2.25\n'
    )
    for prior in ("nix", "uni", "sample"):
        doc = _report_object(
            monkeypatch, ["estimate", "--input", str(path), "--prior", prior, "--prune-outliers", "3.0",
                          "--output", str(tmp_path / "out.json")]
        )
        assert doc["estimates"][-1]["population"] == 'µ, "quoted" \\ x'
        assert dump_json(doc) == reference_dump_json(doc)


def test_dump_json_matches_reference_on_synth_and_bootstrap_reports(tmp_path, monkeypatch):
    out = str(tmp_path / "out.json")
    doc = _report_object(
        monkeypatch, ["synth", "--pops", "6", "--trials", "3", "--seed", "5",
                      "--methods", "sample,nix,nix-unbiased,uni", "--output", out]
    )
    assert dump_json(doc) == reference_dump_json(doc)
    data = tmp_path / "standin.json"
    save_dataset(DatasetFile(populations=experiments.standin_dataset()), data)
    doc = _report_object(
        monkeypatch, ["bootstrap", "--input", str(data), "--subsample", "5", "--trials", "3",
                      "--methods", "sample,nix", "--output", out]
    )
    assert dump_json(doc) == reference_dump_json(doc)


def test_dump_json_matches_reference_on_failure_records(tmp_path, monkeypatch):
    real_learn = experiments.learn_nix
    calls = []

    def fails_once(stats_list):
        calls.append(None)
        if len(calls) == 3:
            raise NumericalError('objective is nan at point (5.0, 52.6): "σ²" \\ stop')
        return real_learn(stats_list)

    monkeypatch.setattr(experiments, "learn_nix", fails_once)
    doc = _report_object(
        monkeypatch, ["synth", "--pops", "5", "--trials", "20", "--seed", "1", "--threads", "1",
                      "--methods", "sample,nix", "--output", str(tmp_path / "out.json")]
    )
    assert doc["failures"] == ['trial 2: objective is nan at point (5.0, 52.6): "σ²" \\ stop']
    assert dump_json(doc) == reference_dump_json(doc)


def test_dataset_file_validation():
    with pytest.raises(DataError, match="duplicate population id"):
        DatasetFile(
            populations=(
                PopulationSample(id="a", values=(1.0, 2.0)),
                PopulationSample(id="a", values=(3.0, 4.0)),
            )
        )
    with pytest.raises(DataError, match="need >= 2"):
        DatasetFile(populations=(PopulationSample(id="a", values=(1.0,)),))
    with pytest.raises(DataError, match="metadata"):
        DatasetFile(
            populations=(PopulationSample(id="a", values=(1.0, 2.0)),),
            metadata={"k": 3},
        )


def test_csv_round_trip_is_exact(tmp_path):
    ds = _dataset()
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.populations == ds.populations
    assert back.metadata == {}


def test_json_round_trip_keeps_metadata(tmp_path):
    ds = _dataset(metadata={"units": "mm", "source": "bench"})
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back == ds
    assert f'"schema": "{DATASET_SCHEMA}"' in path.read_text()


def test_explicit_format_overrides_suffix(tmp_path):
    ds = _dataset()
    path = tmp_path / "data.txt"
    save_dataset(ds, path, format=DataFormat.CSV)
    back = load_dataset(path, format=DataFormat.CSV)
    assert back.populations == ds.populations
    with pytest.raises(DataError, match="cannot infer format"):
        load_dataset(path)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_dataset(tmp_path / "absent.csv")


def test_csv_groups_interleaved_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("population,value\na,1.0\nb,2.0\n\nb,4.0\na,3.0\n")
    ds = load_dataset(path)
    assert [p.id for p in ds.populations] == ["a", "b"]
    assert ds.populations[0].values == (1.0, 3.0)
    assert ds.populations[1].values == (2.0, 4.0)


@pytest.mark.parametrize(
    "pop_id",
    ["a\nb", "a\rb", "a\r\nb", "a\u2028b", "a\x0cb", 'say "hi", then go'],
    ids=["lf", "cr", "crlf", "line-separator", "form-feed", "quotes-comma"],
)
def test_csv_round_trips_ids_with_line_breaks(tmp_path, pop_id):
    ds = DatasetFile(
        populations=(
            PopulationSample(id=pop_id, values=(1.0, 2.5)),
            PopulationSample(id="plain", values=(3.0, 4.0)),
        )
    )
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    assert load_dataset(path).populations == ds.populations


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_csv_accepts_other_line_ends(tmp_path, end):
    path = tmp_path / "data.csv"
    path.write_bytes(end.join(["population,value", "a,1.0", "a,2.0", "b,x", ""]).encode())
    with pytest.raises(DataError, match="line 4: 'x' is not a number"):
        load_dataset(path)
    path.write_bytes(end.join(["population,value", "a,1.0", "a,2.0", ""]).encode())
    assert load_dataset(path).populations == (PopulationSample(id="a", values=(1.0, 2.0)),)


def test_csv_line_numbers_count_physical_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('population,value\n"a\nb",1.0\n"a\nb",2.0\nc,abc\n')
    with pytest.raises(DataError, match="line 6: 'abc' is not a number"):
        load_dataset(path)


def test_csv_errors_name_the_line_where_the_record_started(tmp_path):
    # The quote opened on line 3 swallows lines 3-5 into one record.
    path = tmp_path / "data.csv"
    path.write_text('population,value\na,1.0\n"a,2.0\na,3.0\nb,1.0\n')
    with pytest.raises(DataError, match="invalid datum at line 3: expected 2 fields"):
        load_dataset(path)


def test_csv_unclosed_quote_names_its_opening_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('population,value\n"a,1.0\n' + "a,2.0\n" * 40000)
    with pytest.raises(DataError, match="invalid CSV at line 2: field larger than field limit"):
        load_dataset(path)


def test_csv_unclosed_quote_is_a_data_error(tmp_path, capsys):
    # The quoted field runs to the end of the file, past the csv module's
    # field size limit.
    path = tmp_path / "data.csv"
    path.write_text('population,value\n"a,1.0\n' + "a,2.0\n" * 40000)
    with pytest.raises(DataError, match="invalid CSV at line .*field larger than field limit"):
        load_dataset(path)
    assert cli_main(["estimate", "--input", str(path), "--prior", "sample"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("pop_id", [" a", "a ", "\ta", "a\n"])
def test_csv_refuses_ids_with_surrounding_whitespace(tmp_path, pop_id):
    ds = DatasetFile(populations=(PopulationSample(id=pop_id, values=(1.0, 2.0)),))
    path = tmp_path / "data.csv"
    with pytest.raises(DataError, match="save it as JSON"):
        save_dataset(ds, path)
    assert not path.exists()
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_csv_error_messages_carry_line_numbers(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("wrong,header\na,1.0\n")
    with pytest.raises(DataError, match="expected header"):
        load_dataset(path)
    path.write_text("population,value\na,1.0,extra\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(path)
    path.write_text("population,value\na,1.0\na,abc\n")
    with pytest.raises(DataError, match="line 3.*not a number"):
        load_dataset(path)
    path.write_text("population,value\na,inf\n")
    with pytest.raises(DataError, match="not finite"):
        load_dataset(path)
    path.write_text("population,value\n")
    with pytest.raises(DataError, match="no data rows"):
        load_dataset(path)


def test_json_error_messages(tmp_path):
    path = tmp_path / "data.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="invalid JSON at line 1"):
        load_dataset(path)
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="'populations' list"):
        load_dataset(path)
    path.write_text('{"schema": "mpme/99", "populations": []}')
    with pytest.raises(DataError, match="unsupported schema"):
        load_dataset(path)
    path.write_text('{"populations": [{"values": [1.0, 2.0]}]}')
    with pytest.raises(DataError, match=r"populations\[0\]"):
        load_dataset(path)
    path.write_text('{"populations": [{"id": "a", "values": [1.0, true]}]}')
    with pytest.raises(DataError, match=r"values\[1\]"):
        load_dataset(path)
    path.write_text('{"populations": [{"id": "a", "values": [1.0, 2.0]}], "metadata": 3}')
    with pytest.raises(DataError, match="metadata"):
        load_dataset(path)


@pytest.mark.parametrize(
    "name, payload, match",
    [
        ("bytes.csv", b"population,value\na,\xff\xfe", "not UTF-8"),
        (
            "huge.json",
            b'{"populations": [{"id": "a", "values": [1.0, ' + b"9" * 400 + b"]}]}",
            r"populations\[0\]\.values\[1\]",
        ),
        ("digits.json", b'{"populations": [' + b"1" * 5000 + b"]}", "invalid JSON"),
    ],
)
def test_malformed_bytes_are_data_errors(tmp_path, capsys, name, payload, match):
    path = tmp_path / name
    path.write_bytes(payload)
    with pytest.raises(DataError, match=match):
        load_dataset(path)
    assert cli_main(["estimate", "--input", str(path), "--prior", "sample"]) == 2
    assert "data error" in capsys.readouterr().err


def test_json_schema_tag_optional_on_load(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"populations": [{"id": "a", "values": [1.0, 2.0]}]}')
    ds = load_dataset(path)
    assert ds.populations[0].id == "a"
