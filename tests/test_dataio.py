import json
import math

import pytest

from mpme.cli import cli_main
from mpme.core import DataError, PopulationSample
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
    # U+0000 marks the float sentinels, so a string holding it is refused
    # instead of being unquoted into bare JSON.
    with pytest.raises(DataError, match="U\\+0000"):
        dump_json(doc)


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
