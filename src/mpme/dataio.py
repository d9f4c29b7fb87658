"""Dataset files: CSV/JSON ingestion, validation, and serialization.

Two on-disk formats carry the same payload.  CSV is the interchange
format (one ``population,value`` row per measurement); JSON additionally
carries optional string metadata and a schema tag.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .core import DataError, PopulationSample

__all__ = [
    "DATASET_SCHEMA",
    "DataFormat",
    "DatasetFile",
    "load_dataset",
    "save_dataset",
    "format_float",
    "dump_json",
]

DATASET_SCHEMA = "mpme/1"


class DataFormat(Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class DatasetFile:
    """A validated collection of population samples plus optional metadata.

    Parameters
    ----------
    populations : tuple of PopulationSample
        Unique ids, each with at least two values (one value cannot yield
        an unbiased variance).
    metadata : dict of str to str
        Free-form annotations (units, source).  CSV round-trips drop it.
    """

    populations: tuple[PopulationSample, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        object.__setattr__(self, "metadata", dict(self.metadata))
        seen = set()
        for pop in self.populations:
            if pop.id in seen:
                raise DataError(f"duplicate population id {pop.id!r}")
            seen.add(pop.id)
            if len(pop.values) < 2:
                raise DataError(
                    f"population {pop.id!r} has {len(pop.values)} value(s); need >= 2"
                )
        for k, v in self.metadata.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise DataError(f"metadata entries must be strings, got {k!r}: {v!r}")


def format_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    return format(float(x), ".17g")


_FLOAT_TOKEN = chr(0)  # json escapes it as \u0000
_TOKEN_RE = re.compile(r'"\\u0000([^"]*)\\u0000"')


def dump_json(obj) -> str:
    """Serialize to indented JSON with every float printed at 17 significant digits.

    The stdlib encoder prints floats with ``repr``; to pin the digit count
    without reimplementing the encoder, floats are temporarily replaced by
    sentinel strings which are unquoted afterwards.  A string that holds
    the sentinel character U+0000 is refused, so no string can be taken
    for a float.
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


def _infer_format(path: Path) -> DataFormat:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return DataFormat.CSV
    if suffix == ".json":
        return DataFormat.JSON
    raise DataError(
        f"cannot infer format from {path.name!r}; pass format= explicitly"
    )


def _parse_csv(text: str, origin: str) -> DatasetFile:
    rows = list(csv.reader(text.splitlines()))
    if not rows or [cell.strip() for cell in rows[0]] != ["population", "value"]:
        raise DataError(f"{origin}: expected header 'population,value' on line 1")
    order: list[str] = []
    values: dict[str, list[float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue  # blank line
        if len(row) != 2:
            raise DataError(f"{origin}: invalid datum at line {lineno}: expected 2 fields")
        pop_id, raw = row[0].strip(), row[1].strip()
        try:
            value = float(raw)
        except ValueError:
            raise DataError(
                f"{origin}: invalid datum at line {lineno}: {raw!r} is not a number"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"{origin}: invalid datum at line {lineno}: {raw!r} is not finite")
        if pop_id not in values:
            order.append(pop_id)
            values[pop_id] = []
        values[pop_id].append(value)
    if not order:
        raise DataError(f"{origin}: no data rows")
    return DatasetFile(
        populations=tuple(
            PopulationSample(id=pid, values=tuple(values[pid])) for pid in order
        )
    )


def _parse_json(text: str, origin: str) -> DatasetFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{origin}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise DataError(f"{origin}: invalid JSON: {exc}") from None
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
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"{origin}: metadata must be an object of strings")
    return DatasetFile(populations=tuple(pops), metadata=metadata)


def load_dataset(path, format: DataFormat | None = None) -> DatasetFile:
    """Read and validate a dataset file.

    Parameters
    ----------
    path : str or Path
    format : DataFormat, optional
        Inferred from the file suffix when omitted.

    Raises
    ------
    DataError
        An unreadable or non-UTF-8 file, malformed rows (with line
        number), duplicate population ids, or any population with fewer
        than two values.
    """
    path = Path(path)
    fmt = format or _infer_format(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    if fmt is DataFormat.CSV:
        return _parse_csv(text, str(path))
    return _parse_json(text, str(path))


def save_dataset(dataset: DatasetFile, path, format: DataFormat | None = None) -> None:
    """Write a dataset so that loading it back compares equal.

    CSV keeps only the populations; JSON also keeps metadata and tags the
    file with the schema version.
    """
    path = Path(path)
    fmt = format or _infer_format(path)
    if fmt is DataFormat.CSV:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["population", "value"])
            for pop in dataset.populations:
                for v in pop.values:
                    writer.writerow([pop.id, format_float(v)])
        return
    doc = {
        "schema": DATASET_SCHEMA,
        "populations": [
            {"id": pop.id, "values": list(pop.values)} for pop in dataset.populations
        ],
        "metadata": dict(dataset.metadata),
    }
    path.write_text(dump_json(doc), encoding="utf-8")
