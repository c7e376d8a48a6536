"""Task-spec and report documents, plus CSV ingestion.

Documents are JSON in one canonical layout, written by the standard
library: keys in sorted order, two-space indentation, one scalar per
line, and each float as its shortest round-trip text (``repr``).  The
output is byte-stable for a given document model, diffable line by line,
and parses back to the identical model, each float to the same bits and
the same type, which is what golden-file tests need.

Every document kind carries a JSON Schema with
``additionalProperties: false`` -- unknown fields are rejected up
front, before any computation runs.  Reports must be finite
everywhere: NaN or infinity anywhere in a result is a bug upstream,
not something to serialize.  A small checker of the keywords the
schemas use (``_accepts``) passes every valid document; jsonschema is
imported only when the checker rejects one, to word the error.

CSV files are read in one place, ``_csv_rows``: it opens the file as
UTF-8, requires a header of the reader's shape and gives every data row
the header's field count.  A file that cannot be opened, decoded or
parsed is a ``ValidationError`` like any malformed input.  The two dated
readers (price/volume and returns) share ``_dated_csv``: ISO-8601 dates
in the first column, strictly increasing, at least two rows, finite
floats elsewhere; the sampling period is inferred from consecutive date
deltas and echoed in reports.  A plain well-formed file is parsed by one
``np.loadtxt`` call; any other goes to the per-cell parser on top of
``_csv_rows``, so a malformed row is a hard error that names its cell,
never skipped.
"""

from __future__ import annotations

import csv
import datetime as _dt
import functools
import json
import math
import numbers
import operator
from typing import Any

import numpy as np

from .errors import ValidationError

SCHEMA_VERSION = 1


# --- canonical serialization -------------------------------------------

def canonical_json(obj: Any) -> str:
    """Serialize a document model to canonical, diffable JSON text."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"document cannot be serialized: {exc}") from None


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number {text} is not allowed")
    return value


def _finite_int(text: str) -> int:
    """An integer literal as a Python int, so schema ``integer`` checks
    still see an int, provided it converts to a finite double."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):
        raise ValidationError(
            f"integer literal of {len(text.lstrip('-'))} digits is too large") from None
    return value


def parse_document(text: str) -> Any:
    """Parse JSON text; ``NaN``, ``Infinity`` and numbers, integer or
    not, that overflow a double raise ValidationError, so no non-finite
    value reaches a solver."""
    try:
        return json.loads(text, parse_float=_finite_number, parse_int=_finite_int,
                          parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None


# --- schemas ------------------------------------------------------------

def _number():
    return {"type": "number"}


def _vector():
    return {"type": "array", "items": _number(), "minItems": 1}


def _matrix():
    return {"type": "array", "items": _vector(), "minItems": 1}


_JOINT_TASK = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim_x", "dim_y", "mean", "cov"],
    "properties": {
        "dim_x": {"type": "integer", "minimum": 1},
        "dim_y": {"type": "integer", "minimum": 1},
        "mean": _vector(),
        "cov": _matrix(),
    },
}

_AFFINE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["weight", "intercept"],
    "properties": {"weight": _matrix(), "intercept": _vector()},
}

GAUSSIAN_PAIR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "kind", "case", "source", "target"],
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "kind": {"const": "gaussian_pair"},
        "case": {"enum": ["basic", "feature_aug", "output_aug"]},
        "source": _JOINT_TASK,
        "target": _JOINT_TASK,
        "init_model": _AFFINE,
    },
}

_INT_OR_INTS = {
    "anyOf": [
        {"type": "integer", "minimum": 2},
        {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
    ]
}

REGRESSION_JOB_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "kind", "source_csvs", "target_csv", "lag", "order",
                 "split_date"],
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "kind": {"const": "regression_job"},
        "source_csvs": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "target_csv": {"type": "string"},
        "lag": _INT_OR_INTS,
        "order": {
            "anyOf": [
                {"type": "integer", "minimum": 1},
                {"type": "array", "items": {"type": "integer", "minimum": 1},
                 "minItems": 1},
            ]
        },
        "lambda_source": {"type": "number", "exclusiveMinimum": 0},
        "lambda_transfer": {"type": "number", "exclusiveMinimum": 0},
        "split_date": {"type": "string"},
    },
}

PORTFOLIO_JOB_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "kind", "source_csv", "target_train_csv",
                 "target_test_csv"],
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "kind": {"const": "portfolio_job"},
        "source_csv": {"type": "string"},
        "target_train_csv": {"type": "string"},
        "target_test_csv": {"type": "string"},
        "penalty": {"type": "number", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_SPEC_SCHEMAS = {
    "gaussian_pair": GAUSSIAN_PAIR_SCHEMA,
    "regression_job": REGRESSION_JOB_SCHEMA,
    "portfolio_job": PORTFOLIO_JOB_SCHEMA,
}

_PROVENANCE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["tool", "tool_version", "seed"],
    "properties": {
        "tool": {"const": "transrisk"},
        "tool_version": {"type": "string"},
        "seed": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
    },
}

_ORACLE_ENTRY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "closed_form", "oracle", "abs_gap", "sigma_gap", "within"],
    "properties": {
        "name": {"type": "string"},
        "closed_form": _number(),
        "oracle": _number(),
        "std_error": _number(),
        "abs_gap": _number(),
        "sigma_gap": {"anyOf": [_number(), {"type": "null"}]},
        "within": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "kind", "inputs", "results", "provenance"],
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "kind": {"enum": ["gaussian_risk_report", "office_table_report",
                          "prediction_report", "portfolio_report",
                          "property_report"]},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "oracle_check": {
            "type": "object",
            "additionalProperties": False,
            "required": ["entries", "all_within"],
            "properties": {
                "entries": {"type": "array", "items": _ORACLE_ENTRY},
                "all_within": {"type": "boolean"},
            },
        },
        "provenance": _PROVENANCE,
    },
}


_SCHEMAS = {**_SPEC_SCHEMAS, "report": REPORT_SCHEMA}

_IS_TYPE = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, numbers.Number) and not isinstance(value, bool),
}


def _equal(value, const) -> bool:
    """jsonschema's equality against a string or integer constant:
    ``True`` and ``1`` differ, ``1.0`` and ``1`` do not."""
    return value is const or (not isinstance(value, bool) and not isinstance(const, bool)
                              and value == const)


def _accepts(schema: dict, value: Any) -> bool:
    """Whether ``_validator`` would find no error in ``value``, for a
    schema built from ``type``, ``properties``, ``required``,
    ``additionalProperties: false``, ``items``, ``minItems``,
    ``minimum``, ``exclusiveMinimum``, ``const``, ``enum`` and ``anyOf``
    alone.  Each keyword is judged as jsonschema judges it, so an
    acceptance is exact; any other keyword rejects, leaving the verdict
    to jsonschema."""
    for key, arg in schema.items():
        if key == "type":
            ok = _IS_TYPE[arg](value)
        elif key == "properties":
            ok = not isinstance(value, dict) or all(
                _accepts(sub, value[name]) for name, sub in arg.items() if name in value)
        elif key == "required":
            ok = not isinstance(value, dict) or all(name in value for name in arg)
        elif key == "additionalProperties" and arg is False:
            ok = not isinstance(value, dict) or all(
                name in schema.get("properties", ()) for name in value)
        elif key == "items":
            ok = not isinstance(value, list) or all(_accepts(arg, item) for item in value)
        elif key == "minItems":
            ok = not isinstance(value, list) or len(value) >= arg
        elif key == "minimum":
            ok = not _IS_TYPE["number"](value) or not value < arg
        elif key == "exclusiveMinimum":
            ok = not _IS_TYPE["number"](value) or not value <= arg
        elif key == "const":
            ok = _equal(value, arg)
        elif key == "enum":
            ok = any(_equal(value, each) for each in arg)
        elif key == "anyOf":
            ok = any(_accepts(sub, value) for sub in arg)
        else:
            ok = False
        if not ok:
            return False
    return True


@functools.cache
def _validator(name: str):
    """The jsonschema validator of one schema, built and checked against
    its metaschema on first use.  Its ``integer`` takes int literals
    only: a dimension or lag of ``2.0`` would reach code that indexes
    with it."""
    import jsonschema

    schema = _SCHEMAS[name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    checker = cls.TYPE_CHECKER.redefine("integer", lambda _, value: _IS_TYPE["integer"](value))
    return jsonschema.validators.extend(cls, type_checker=checker)(schema)


def _first_error(name: str, doc: Any):
    """None when ``doc`` is valid under schema ``name``; otherwise the
    error ``jsonschema.validate`` would pick.  A document the checker
    accepts loads no jsonschema."""
    if _accepts(_SCHEMAS[name], doc):
        return None
    import jsonschema

    return jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))


def validate_spec(doc: Any) -> str:
    """Validate a task-spec document; returns its kind."""
    if not isinstance(doc, dict):
        raise ValidationError("spec document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_SCHEMAS:
        raise ValidationError(
            f"unknown spec kind {kind!r}; expected one of {sorted(_SPEC_SCHEMAS)}")
    error = _first_error(kind, doc)
    if error is not None:
        raise ValidationError(f"spec failed validation: {error.message}")
    return kind


def _check_finite(obj: Any, path: str = "$") -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _check_finite(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _check_finite(value, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValidationError(f"non-finite numeric field at {path}")


def validate_report(doc: Any) -> None:
    """Validate a report document against the published schema."""
    error = _first_error("report", doc)
    if error is not None:
        raise ValidationError(f"report failed validation: {error.message}")
    _check_finite(doc)


# --- CSV ingestion -------------------------------------------------------

def _parse_date(text: str, where: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ValidationError(f"{where}: {text!r} is not an ISO-8601 date") from None


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: non-finite value {text!r}")
    return value


def infer_period_days(dates: list[_dt.date]) -> float:
    """Median gap between consecutive dates, in days."""
    gaps = sorted((b - a).days for a, b in zip(dates, dates[1:]))
    return float(gaps[len(gaps) // 2])


def _csv_rows(path, header_ok,
              header_rule: str) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """The one way a CSV file is read: the header, then each data row
    with its ``path:line`` location.  ``header_ok`` judges the stripped,
    lowercased header; ``header_rule`` says what it must be.  Every row
    must have the header's field count."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            records = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not records:
        raise ValidationError(f"{path}: empty file")
    header = records[0]
    if not header_ok([h.strip().lower() for h in header]):
        raise ValidationError(f"{path}: header must be {header_rule}")
    rows = []
    for lineno, row in enumerate(records[1:], start=2):
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            raise ValidationError(f"{where}: expected {len(header)} fields, got {len(row)}")
        rows.append((where, row))
    return header, rows


def _dated_cells(path, header_ok, header_rule: str):
    """Header, dates and float rows of a file whose first column is a
    date, parsed cell by cell: at least two rows, dates strictly
    increasing.  Every malformed input raises here, naming its cell."""
    header, rows = _csv_rows(path, header_ok, header_rule)
    dates = [_parse_date(row[0], where) for where, row in rows]
    values = [[_parse_float(cell, where) for cell in row[1:]] for where, row in rows]
    if len(dates) < 2:
        raise ValidationError(f"{path}: need at least two rows")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValidationError(f"{path}: dates must be strictly increasing")
    return header, dates, np.array(values, dtype=float)


def _dated_fast(path, header_ok):
    """What ``_dated_cells`` returns, with the numbers parsed by one
    ``np.loadtxt`` call, or None for any file it does not accept whole:
    one with a quote, a carriage return not followed by a line feed, a
    NUL or a line over the csv module's field limit, a bad header, a
    ragged row, a bad date, a cell numpy cannot parse, a non-finite
    value, fewer than two rows or dates that do not increase.  The csv
    module ends a line at CRLF as at LF, so CRLF line ends are read as
    LF.  numpy parses a number as ``float`` does, so the values are the
    same bits."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if ('"' in text or "\r" in text or "\0" in text or len(lines) < 3
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    header = lines[0].split(",")
    if (not header_ok([h.strip().lower() for h in header])
            or text.count(",") != len(lines) * (len(header) - 1)):
        return None
    firsts, _, rests = zip(*(line.partition(",") for line in lines[1:]))
    try:
        dates = list(map(_dt.date.fromisoformat, map(str.strip, firsts)))
        values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if (values.shape != (len(rests), len(header) - 1) or not np.isfinite(values).all()
            or not all(map(operator.lt, dates, dates[1:]))):
        return None
    return header, dates, values


def _dated_csv(path, header_ok, header_rule: str):
    """Header, dates and an (n, columns) float array of a dated file: the
    fast path when it accepts the file, else the per-cell parser, whose
    error names the bad cell."""
    return _dated_fast(path, header_ok) or _dated_cells(path, header_ok, header_rule)


def read_price_volume_csv(path) -> tuple[list[_dt.date], list[float], list[float]]:
    """Read one asset file with header date,close,volume."""
    _, dates, values = _dated_csv(path, lambda cols: cols == ["date", "close", "volume"],
                                  "exactly date,close,volume")
    bad = np.flatnonzero((values <= 0.0).any(axis=1))
    if bad.size:
        raise ValidationError(f"{path}:{bad[0] + 2}: close and volume must be positive")
    return dates, values[:, 0].tolist(), values[:, 1].tolist()


def read_returns_csv(path) -> tuple[list[_dt.date], list[str], np.ndarray]:
    """Read a returns file with header date,<asset>,<asset>,...; the
    asset names must be distinct, so weights can be matched to them.
    The returns come as an (n periods, n assets) array."""
    header, dates, rows = _dated_csv(
        path, lambda cols: len(cols) >= 3 and cols[0] == "date",
        "date plus at least two asset columns")
    names = [h.strip() for h in header[1:]]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValidationError(f"{path}: duplicate asset names {repeated}")
    return dates, names, rows


def read_risk_rows_csv(path) -> list[tuple[str, float, float]]:
    """Read (label, input risk, output risk) rows; header required.

    Accepts either ``label,input_risk,output_risk`` or the unlabeled
    two-column variant ``input_risk,output_risk``.
    """
    header, rows = _csv_rows(
        path, lambda cols: cols in (["label", "input_risk", "output_risk"],
                                    ["input_risk", "output_risk"]),
        "label,input_risk,output_risk or input_risk,output_risk")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    labeled = len(header) == 3
    return [(row[0].strip() if labeled else f"row{i}",
             _parse_float(row[-2], where), _parse_float(row[-1], where))
            for i, (where, row) in enumerate(rows, start=1)]
