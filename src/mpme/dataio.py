"""Dataset files: CSV/JSON ingestion, validation, and serialization.

Two on-disk formats carry the same payload.  CSV is the interchange
format (one ``population,value`` row per measurement); JSON also
carries a schema tag.  Loading reads JSON when the text's first
non-whitespace character is ``{`` or ``[`` and CSV otherwise, whatever
the file is named; saving writes JSON when the name ends in ``.json``
(any case) and CSV otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .core import DataError, PopulationSample

__all__ = [
    "DATASET_SCHEMA",
    "DatasetFile",
    "load_dataset",
    "save_dataset",
    "format_float",
    "dump_json",
]

DATASET_SCHEMA = "mpme/1"


@dataclass(frozen=True)
class DatasetFile:
    """A validated collection of population samples.

    Parameters
    ----------
    populations : tuple of PopulationSample
        Unique ids, each with at least two values (one value cannot yield
        an unbiased variance).
    """

    populations: tuple[PopulationSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        seen = set()
        for pop in self.populations:
            if pop.id in seen:
                raise DataError(f"duplicate population id {pop.id!r}")
            seen.add(pop.id)
            if len(pop.values) < 2:
                raise DataError(
                    f"population {pop.id!r} has {len(pop.values)} value(s); need >= 2"
                )


def format_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly.

    An integral value that ``.17g`` prints as an integer literal gains
    ``.0``, so a JSON reader still gets a float.
    """
    s = format(float(x), ".17g")
    return s + ".0" if s.lstrip("-").isdigit() else s


_encode_str = json.encoder.encode_basestring  # escapes as ensure_ascii=False does


def dump_json(obj) -> str:
    """Serialize to indented JSON with every float printed by ``format_float``.

    The layout is that of ``json.dumps(obj, indent=2, ensure_ascii=False)``
    plus a final newline: two-space indent, ``{}`` and ``[]`` for empty
    containers, and mapping keys written as ``str(k)``.  Tuples are
    written as lists.

    Raises
    ------
    DataError
        For a non-finite float, a string or key containing U+0000, or a
        value of any other type than dict-like mappings, lists, tuples,
        str, int, float, bool and None.
    """
    parts: list[str] = []
    append = parts.append
    keys: dict[str, str] = {}  # str(key) -> its encoding plus ": "

    def string(v: str) -> str:
        if "\0" in v:
            raise DataError(f"cannot serialize string {v!r}: it contains U+0000")
        return _encode_str(v)

    def write(v, indent: str) -> None:
        if isinstance(v, float):
            if not math.isfinite(v):
                raise DataError(f"cannot serialize non-finite value {v!r}")
            s = format(float(v), ".17g")  # format_float, inlined
            append(s + ".0" if s.lstrip("-").isdigit() else s)
        elif isinstance(v, str):
            append(string(v))
        elif v is None:
            append("null")
        elif v is True:
            append("true")
        elif v is False:
            append("false")
        elif isinstance(v, int):
            append(int.__repr__(v))
        elif isinstance(v, (dict, Mapping)):
            if not v:
                append("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for k, u in v.items():
                append(sep)
                k = str(k)
                key = keys.get(k)
                if key is None:
                    key = keys[k] = string(k) + ": "
                append(key)
                write(u, inner)
                sep = "," + inner
            append(indent + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                append("[]")
                return
            inner = indent + "  "
            sep = "[" + inner
            for u in v:
                append(sep)
                write(u, inner)
                sep = "," + inner
            append(indent + "]")
        else:
            raise DataError(f"cannot serialize {type(v).__name__} to JSON")

    write(obj, "\n")
    append("\n")
    return "".join(parts)


def _parse_csv(text: str, origin: str) -> DatasetFile:
    try:
        values = _group_csv_rows(text, origin)
    except csv.Error as exc:  # e.g. an unclosed quote running past the field size limit
        raise DataError(f"{origin}: invalid CSV at line {_record_start(text)}: {exc}") from None
    return DatasetFile(
        populations=tuple(
            PopulationSample(id=pid, values=group) for pid, group in values.items()
        )
    )


def _csv_reader(text: str):
    # newline="" hands the csv module the raw line ends, so a quoted id may
    # hold any of them; reader.line_num counts physical lines.
    return csv.reader(io.StringIO(text, newline=""))


def _record_start(text: str, end_line: float = math.inf) -> int:
    """The line on which the record that ends on ``end_line`` started, or by
    default the one the csv module fails on.

    A quoted field may span lines, so messages name where a record started,
    not ``reader.line_num``, where the reader stopped.  Only error paths
    call this, so it reads the text again rather than tracking every row.
    """
    reader = _csv_reader(text)
    start = 1
    try:
        for _row in reader:
            if reader.line_num >= end_line:
                break
            start = reader.line_num + 1
    except csv.Error:
        pass
    return start


def _group_csv_rows(text: str, origin: str) -> dict[str, list[float]]:
    """Values by population id, in order of first appearance."""
    reader = _csv_reader(text)

    def bad_datum(problem):
        line = _record_start(text, reader.line_num)
        return DataError(f"{origin}: invalid datum at line {line}: {problem}")

    header = next(reader, None)
    if header is None or [cell.strip() for cell in header] != ["population", "value"]:
        raise DataError(f"{origin}: expected header 'population,value' on line 1")
    values: dict[str, list[float]] = {}
    for row in reader:
        if not row:
            continue  # blank line
        if len(row) != 2:
            raise bad_datum("expected 2 fields")
        pop_id, raw = row
        try:
            value = float(raw)  # float() ignores surrounding whitespace
        except ValueError:
            raise bad_datum(f"{raw.strip()!r} is not a number") from None
        if not math.isfinite(value):
            raise bad_datum(f"{raw.strip()!r} is not finite")
        pop_id = pop_id.strip()
        group = values.get(pop_id)
        if group is None:
            values[pop_id] = [value]
        else:
            group.append(value)
    if not values:
        raise DataError(f"{origin}: no data rows")
    return values


def _parse_json(text: str, origin: str) -> DatasetFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{origin}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise DataError(f"{origin}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DataError(f"{origin}: invalid JSON: nesting too deep") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("populations"), list):
        raise DataError(f"{origin}: expected an object with a 'populations' list")
    schema = doc.get("schema", DATASET_SCHEMA)
    if schema != DATASET_SCHEMA:
        raise DataError(f"{origin}: unsupported schema {schema!r}, expected {DATASET_SCHEMA!r}")
    pops = []
    for i, entry in enumerate(doc["populations"]):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("id"), str)
            or not isinstance(entry.get("values"), list)
        ):
            raise DataError(
                f"{origin}: populations[{i}] must be an object with 'id' and 'values'"
            )
        values = []
        for j, v in enumerate(entry["values"]):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DataError(
                    f"{origin}: invalid datum at populations[{i}].values[{j}]: {v!r}"
                )
            try:
                values.append(float(v))
            except OverflowError:
                raise DataError(
                    f"{origin}: invalid datum at populations[{i}].values[{j}]: "
                    "integer too large for a float"
                ) from None
        pops.append(PopulationSample(id=entry["id"], values=tuple(values)))
    return DatasetFile(populations=tuple(pops))


def load_dataset(path) -> DatasetFile:
    """Read and validate a dataset file, JSON or CSV as its text says.

    Raises
    ------
    DataError
        An unreadable or non-UTF-8 file, malformed rows (with line
        number), duplicate population ids, or any population with fewer
        than two values.
    """
    path = Path(path)
    try:
        # Decoded without newline translation, so a CR inside a quoted CSV
        # field survives.
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    text = text.removeprefix("\ufeff")  # a BOM, as spreadsheet tools often write
    if text.lstrip()[:1] in ("{", "["):
        return _parse_json(text, str(path))
    return _parse_csv(text, str(path))


def save_dataset(dataset: DatasetFile, path) -> None:
    """Write a dataset so that loading it back compares equal.

    A name ending in ``.json`` (any case) gets JSON tagged with the schema
    version; any other name gets CSV.

    Raises
    ------
    DataError
        For CSV, if a population id has leading or trailing whitespace,
        which loading strips; JSON keeps such an id.
    """
    path = Path(path)
    if path.name.lower().endswith(".json"):
        doc = {
            "schema": DATASET_SCHEMA,
            "populations": [
                {"id": pop.id, "values": list(pop.values)} for pop in dataset.populations
            ],
        }
        path.write_text(dump_json(doc), encoding="utf-8")
        return
    for pop in dataset.populations:
        if pop.id != pop.id.strip():
            raise DataError(
                f"population id {pop.id!r} has leading or trailing whitespace, "
                "which CSV loading strips; save it as JSON to keep it"
            )
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # The writer quotes a field only for the characters of its line
        # terminator, so an id holding a bare CR is quoted explicitly.
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["population", "value"])
        for pop in dataset.populations:
            out = quote_all if "\r" in pop.id else writer
            for v in pop.values:
                out.writerow([pop.id, format_float(v)])
