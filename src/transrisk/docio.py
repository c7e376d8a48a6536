"""Task-spec and report documents, plus CSV ingestion.

Documents are JSON, but written by a canonical emitter rather than a
stock dumper: keys in sorted order, two-space indentation, one scalar
per line, floats rendered with 17 significant digits.  The output is
byte-stable for a given document model, diffable line by line, and
parses back to the identical model (17 digits round-trip every double
exactly), which is what golden-file tests need.

Every document kind carries a JSON Schema with
``additionalProperties: false`` -- unknown fields are rejected up
front, before any computation runs.  Reports must be finite
everywhere: NaN or infinity anywhere in a result is a bug upstream,
not something to serialize.  jsonschema is imported when the first
document is validated.

CSV rules: header required, ISO-8601 dates in the first column,
strictly increasing; the sampling period is inferred from consecutive
date deltas and echoed in reports.  A malformed row is a hard error,
never skipped.
"""

from __future__ import annotations

import csv
import datetime as _dt
import functools
import json
import math
from typing import Any

from .errors import SpecFileError, ValidationError

SCHEMA_VERSION = 1


# --- canonical serialization -------------------------------------------

def _emit(obj: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ValidationError(f"document keys must be strings, got {key!r}")
            out.append(f"\n{pad}  {json.dumps(key)}: ")
            _emit(obj[key], indent + 1, out)
            if i < len(keys) - 1:
                out.append(",")
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            out.append(f"\n{pad}  ")
            _emit(item, indent + 1, out)
            if i < len(obj) - 1:
                out.append(",")
        out.append(f"\n{pad}]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError(f"non-finite float {obj!r} cannot be serialized")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise ValidationError(f"unsupported document value of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize a document model to canonical, diffable JSON text."""
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def parse_document(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"not valid JSON: {exc}") from None


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


@functools.cache
def _validator(name: str):
    """The validator of one schema, built and checked against its
    metaschema on first use."""
    import jsonschema

    schema = REPORT_SCHEMA if name == "report" else _SPEC_SCHEMAS[name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _first_error(name: str, doc: Any):
    """The error ``jsonschema.validate`` would raise for ``doc``, or None."""
    import jsonschema

    return jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))


def validate_spec(doc: Any) -> str:
    """Validate a task-spec document; returns its kind."""
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a JSON object")
    kind = doc.get("kind")
    schema = _SPEC_SCHEMAS.get(kind)
    if schema is None:
        raise SpecFileError(
            f"unknown spec kind {kind!r}; expected one of {sorted(_SPEC_SCHEMAS)}")
    error = _first_error(kind, doc)
    if error is not None:
        raise SpecFileError(f"spec failed validation: {error.message}")
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


def read_price_volume_csv(path) -> tuple[list[_dt.date], list[float], list[float]]:
    """Read one asset file with header date,close,volume."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "close", "volume"]:
            raise ValidationError(f"{path}: header must be exactly date,close,volume")
        dates, closes, volumes = [], [], []
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if len(row) != 3:
                raise ValidationError(f"{where}: expected 3 fields, got {len(row)}")
            dates.append(_parse_date(row[0], where))
            close = _parse_float(row[1], where)
            volume = _parse_float(row[2], where)
            if close <= 0.0 or volume <= 0.0:
                raise ValidationError(f"{where}: close and volume must be positive")
            closes.append(close)
            volumes.append(volume)
    if len(dates) < 2:
        raise ValidationError(f"{path}: need at least two rows")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValidationError(f"{path}: dates must be strictly increasing")
    return dates, closes, volumes


def read_returns_csv(path) -> tuple[list[_dt.date], list[str], list[list[float]]]:
    """Read a returns file with header date,<asset>,<asset>,..."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0].strip().lower() != "date":
            raise ValidationError(
                f"{path}: header must be date plus at least two asset columns")
        names = [h.strip() for h in header[1:]]
        dates, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise ValidationError(
                    f"{where}: expected {len(header)} fields, got {len(row)}")
            dates.append(_parse_date(row[0], where))
            rows.append([_parse_float(cell, where) for cell in row[1:]])
    if len(dates) < 2:
        raise ValidationError(f"{path}: need at least two rows")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValidationError(f"{path}: dates must be strictly increasing")
    return dates, names, rows


def read_risk_rows_csv(path) -> list[tuple[str, float, float]]:
    """Read (label, input risk, output risk) rows; header required.

    Accepts either ``label,input_risk,output_risk`` or the unlabeled
    two-column variant ``input_risk,output_risk``.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        cols = [h.strip().lower() for h in header]
        if cols == ["label", "input_risk", "output_risk"]:
            labeled = True
        elif cols == ["input_risk", "output_risk"]:
            labeled = False
        else:
            raise ValidationError(
                f"{path}: header must be label,input_risk,output_risk "
                "or input_risk,output_risk")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if len(row) != len(cols):
                raise ValidationError(f"{where}: expected {len(cols)} fields")
            if labeled:
                label, ei, eo = row[0].strip(), row[1], row[2]
            else:
                label, ei, eo = f"row{lineno - 1}", row[0], row[1]
            rows.append((label, _parse_float(ei, where), _parse_float(eo, where)))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows
