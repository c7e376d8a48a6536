"""Canonical serialization, schema validation, and CSV ingestion."""

import csv
import datetime
import functools
import json
import math
import random
import warnings

import numpy as np
import pytest

from test_fuzz import SEED, mutated_csv, price_csv, returns_csv
from transrisk import docio
from transrisk.docio import (
    canonical_json,
    infer_period_days,
    parse_document,
    read_price_volume_csv,
    read_returns_csv,
    read_risk_rows_csv,
    validate_report,
    validate_spec,
)
from transrisk.errors import ValidationError

GOOD_SPEC = {
    "version": 1,
    "kind": "gaussian_pair",
    "case": "basic",
    "source": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
               "cov": [[1.0, 0.5], [0.5, 1.0]]},
    "target": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
               "cov": [[1.0, 0.8], [0.8, 1.0]]},
}


class TestCanonicalJson:
    def test_round_trip_identity(self):
        doc = {"b": [1, 2.5, {"x": True, "a": None}], "a": "text",
               "c": 0.1 + 0.2, "d": 1e-300, "e": -0.0}
        text = canonical_json(doc)
        assert parse_document(text) == doc

    def test_sorted_keys_and_stability(self):
        a = canonical_json({"z": 1, "a": 2})
        b = canonical_json({"a": 2, "z": 1})
        assert a == b
        assert a.index('"a"') < a.index('"z"')

    def test_float_shortest_text(self):
        text = canonical_json({"x": 0.1})
        assert '"x": 0.1\n' in text

    @pytest.mark.parametrize("value", [-0.0, 1.0, 5e-324, 1e300, 0.1 + 0.2])
    def test_float_round_trip_keeps_type_and_sign(self, value):
        """A float is written as its repr, so an integral value stays a
        float and -0.0 keeps its sign when the text is parsed back."""
        text = canonical_json({"x": value})
        assert text == f'{{\n  "x": {value!r}\n}}\n'
        back = parse_document(text)["x"]
        assert type(back) is float
        assert back == value
        assert math.copysign(1.0, back) == math.copysign(1.0, value)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            canonical_json({"x": math.inf})
        with pytest.raises(ValidationError):
            canonical_json({"x": math.nan})

    def test_byte_stable(self):
        doc = {"values": [1.0 / 3.0, 2.0 / 7.0], "n": 3}
        assert canonical_json(doc) == canonical_json(parse_document(canonical_json(doc)))

    def test_one_scalar_per_line(self):
        lines = canonical_json({"a": [1, 2], "b": 3}).splitlines()
        scalar_lines = [ln for ln in lines if any(ch.isdigit() for ch in ln)]
        assert len(scalar_lines) == 3


class TestSpecValidation:
    def test_good_spec_passes(self):
        assert validate_spec(GOOD_SPEC) == "gaussian_pair"

    def test_unknown_field_rejected(self):
        bad = dict(GOOD_SPEC, extra="nope")
        with pytest.raises(ValidationError, match="spec failed validation"):
            validate_spec(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown spec kind 'mystery'"):
            validate_spec({"version": 1, "kind": "mystery"})

    def test_missing_field_rejected(self):
        bad = {k: v for k, v in GOOD_SPEC.items() if k != "target"}
        with pytest.raises(ValidationError, match="spec failed validation"):
            validate_spec(bad)

    def test_regression_job(self):
        job = {"version": 1, "kind": "regression_job",
               "source_csvs": ["a.csv"], "target_csv": "t.csv",
               "lag": [2, 5], "order": 2, "split_date": "2024-01-01"}
        assert validate_spec(job) == "regression_job"

    def test_portfolio_job(self):
        job = {"version": 1, "kind": "portfolio_job", "source_csv": "s.csv",
               "target_train_csv": "tr.csv", "target_test_csv": "te.csv",
               "penalty": 0.2}
        assert validate_spec(job) == "portfolio_job"


class TestReportValidation:
    def test_minimal_report(self):
        validate_report({
            "version": 1, "kind": "office_table_report",
            "inputs": {}, "results": {"rows": []},
            "provenance": {"tool": "transrisk", "tool_version": "0.1.0", "seed": None},
        })

    def test_non_finite_result_rejected(self):
        with pytest.raises(ValidationError):
            validate_report({
                "version": 1, "kind": "office_table_report",
                "inputs": {}, "results": {"x": math.inf},
                "provenance": {"tool": "transrisk", "tool_version": "0.1.0",
                               "seed": None},
            })

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValidationError):
            validate_report({
                "version": 1, "kind": "office_table_report", "inputs": {},
                "results": {}, "oops": 1,
                "provenance": {"tool": "transrisk", "tool_version": "0.1.0",
                               "seed": None},
            })


GOOD_JOBS = {
    "regression_job": {"version": 1, "kind": "regression_job", "source_csvs": ["a.csv"],
                       "target_csv": "t.csv", "lag": [2, 5], "order": 2,
                       "split_date": "2024-01-01"},
    "portfolio_job": {"version": 1, "kind": "portfolio_job", "source_csv": "s.csv",
                      "target_train_csv": "tr.csv", "target_test_csv": "te.csv",
                      "penalty": 0.2, "seed": 3},
}
GOOD_REPORT = {"version": 1, "kind": "office_table_report", "inputs": {}, "results": {},
               "provenance": {"tool": "transrisk", "tool_version": "0.1.0", "seed": None}}
SCHEMAS = {**docio._SPEC_SCHEMAS, "report": docio.REPORT_SCHEMA}
ORACLE_ENTRY = {"name": "x", "closed_form": 1.0, "oracle": 1.0, "abs_gap": 0.0,
                "sigma_gap": 0.0, "within": True}


def int_only_validator(schema):
    """A jsonschema validator of ``schema`` whose ``integer`` takes ints
    only, as the package's own does."""
    import jsonschema

    cls = jsonschema.validators.validator_for(schema)
    checker = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return jsonschema.validators.extend(cls, type_checker=checker)


class TestValidationMessages:
    """Validation reports the error ``jsonschema.validate`` would raise
    under the int-only ``integer``, word for word, including the inputs
    where a checker that followed Python's types (``True == 1``,
    ``isinstance(True, int)``) rather than jsonschema's would accept."""

    @staticmethod
    def stock_message(doc, schema):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(doc, schema, cls=int_only_validator(schema))
        return info.value.message

    @pytest.mark.parametrize("bad", [
        dict(GOOD_SPEC, extra="nope"),
        dict(GOOD_SPEC, case="sideways"),
        dict(GOOD_SPEC, source=dict(GOOD_SPEC["source"], dim_x=0)),
        {k: v for k, v in GOOD_SPEC.items() if k != "target"},
        dict(GOOD_SPEC, source=dict(GOOD_SPEC["source"], dim_x=True)),
        dict(GOOD_SPEC, source=dict(GOOD_SPEC["source"], dim_x=2.0)),
        dict(GOOD_SPEC, version=True),
        dict(GOOD_JOBS["regression_job"], lag=[1]),
        dict(GOOD_JOBS["regression_job"], source_csvs=[]),
        dict(GOOD_JOBS["regression_job"], lambda_source=0),
        dict(GOOD_JOBS["portfolio_job"], seed=None),
        dict(GOOD_SPEC, zeta=1, alpha=2, mid=3, beta=4),
        {k: v for k, v in GOOD_SPEC.items() if k not in ("case", "target")},
    ])
    def test_bad_spec(self, bad):
        with pytest.raises(ValidationError) as info:
            validate_spec(bad)
        expected = self.stock_message(bad, SCHEMAS[bad["kind"]])
        assert str(info.value) == f"spec failed validation: {expected}"

    @pytest.mark.parametrize("change", [
        {"oops": 1},
        {"kind": "mystery_report"},
        {"provenance": {"tool": "other", "tool_version": "0.1.0", "seed": None}},
        {"oracle_check": {"entries": [{"name": "x"}], "all_within": True}},
        {"oracle_check": {"entries": [dict(ORACLE_ENTRY, sigma_gap="x")],
                          "all_within": True}},
        {"provenance": {"tool": "transrisk", "tool_version": "0.1.0", "seed": True}},
    ])
    def test_bad_report(self, change):
        from transrisk.docio import REPORT_SCHEMA

        bad = dict(GOOD_REPORT, **change)
        with pytest.raises(ValidationError) as info:
            validate_report(bad)
        expected = self.stock_message(bad, REPORT_SCHEMA)
        assert str(info.value) == f"report failed validation: {expected}"


# the keywords docio._errors judges, and the type names it knows
CHECKED_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
                    "minItems", "minimum", "exclusiveMinimum", "const", "enum", "anyOf"}
TYPE_NAMES = {"object", "array", "string", "boolean", "null", "integer", "number"}


def subschemas(schema):
    """``schema`` and every schema nested in it, depth first."""
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("anyOf", []),
                *([schema["items"]] if "items" in schema else [])]:
        yield from subschemas(sub)


@functools.cache
def reference_validator(name):
    """jsonschema's validator of schema ``name``, with the int-only ``integer``."""
    schema = SCHEMAS[name]
    return int_only_validator(schema)(schema)


def agrees(schema, validator, doc) -> bool:
    """Asserts that docio and jsonschema's ``best_match`` under
    ``validator`` agree on ``doc`` under ``schema``, in verdict, message
    and path of the reported error, and returns the verdict."""
    import jsonschema

    error = docio._first_error(schema, doc)
    expected = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    assert (error is None) == (expected is None), (schema, doc)
    if error is not None:
        assert (error.message, error.path) == (expected.message, tuple(expected.path)), \
            (schema, doc)
    return error is None


def same_verdict(name, doc) -> bool:
    return agrees(SCHEMAS[name], reference_validator(name), doc)


DROP = object()


def changed(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``,
    or removed for DROP."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return doc


def report_variants(report):
    """Hand-mutated copies of one report: each required field dropped,
    an extra field, and wrong types or values in the envelope, the
    provenance and the oracle block (given one with ``ORACLE_ENTRY`` if
    it has no entry)."""
    changes = [((key,), DROP) for key in report]
    changes += [(("provenance", key), DROP) for key in report["provenance"]]
    changes += [(("version",), value) for value in (True, 1.0, "1", 2, None)]
    changes += [(("kind",), value) for value in ("mystery_report", True, ["portfolio_report"])]
    changes += [((key,), value) for key in ("inputs", "results") for value in ([], None, "x")]
    changes += [(("oops",), 1)]
    changes += [(("provenance", key), value) for key, value in [
        ("seed", True), ("seed", 1.5), ("seed", "3"), ("seed", 2 ** 70), ("tool", "other"),
        ("tool_version", 1), ("oops", None)]]
    block = report.get("oracle_check")
    with_block = dict(report, oracle_check=block if block and block["entries"]
                      else {"entries": [ORACLE_ENTRY], "all_within": True})
    entry = ("oracle_check", "entries", 0)
    block_changes = [(entry + (key,), value) for key, value in [
        ("within", 1), ("within", False), ("sigma_gap", "x"), ("sigma_gap", None),
        ("closed_form", True), ("closed_form", None), ("oracle", None), ("std_error", "x"),
        ("abs_gap", 3), ("name", 0), ("oops", 0.0)]]
    block_changes += [(("oracle_check", key), value) for key, value in [
        ("all_within", 0), ("entries", {}), ("entries", [[]]), ("oops", True)]]
    return ([changed(report, path, value) for path, value in changes] + [with_block]
            + [changed(with_block, path, value) for path, value in block_changes])


def emitted_reports(tmp_path):
    """The reports of the five subcommands on tests/test_cli.py's inputs:
    a passing run of each input-reading command, ``--verify`` on each of
    the three gaussian-pair specs, the built-in office table and a small
    property sweep."""
    from test_cli import INPUT_ROLES, good_run, write_spec
    from test_fuzz import SPECS
    from transrisk.cli import main

    runs = [good_run(tmp_path, command)[0] for command in INPUT_ROLES]
    runs += [["gaussian-risk", write_spec(tmp_path, spec, f"{case}.json"), "--verify"]
             for case, spec in SPECS.items()]
    runs += [["office-table", "--builtin"], ["verify-props", "--scale", "0.01"]]
    reports = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"report{i}.json"
        assert main(argv + ["--out", str(out)]) in (0, 4), argv
        reports.append(parse_document(out.read_text()))
    return reports


class TestSchemaChecker:
    """``docio`` validates with its own walker of the schemas' keywords;
    jsonschema is the test-side reference.  These tests hold the walker
    to jsonschema's verdict and to the message and path of its
    ``best_match``, and the schemas to the walker's keywords."""

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_schema_passes_its_metaschema(self, name):
        import jsonschema

        schema = SCHEMAS[name]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_schema_uses_only_checked_keywords(self, name):
        for schema in subschemas(SCHEMAS[name]):
            assert set(schema) <= CHECKED_KEYWORDS, schema
            assert schema.get("type", "null") in TYPE_NAMES, schema
            assert schema.get("additionalProperties", False) is False, schema
            for value in [schema.get("const", ""), *schema.get("enum", [])]:
                assert type(value) in (str, int), schema

    def test_agrees_with_jsonschema_on_mutated_specs(self, tmp_path):
        """10,000 mutated gaussian-pair specs and 2,000 of each job kind,
        as tests/test_fuzz.py draws them; every one that parses."""
        from test_fuzz import csv_commands, mutate_job_leaf, mutated_json, mutated_text

        jobs = {"regression_job": csv_commands(tmp_path)["predict"][1],
                "portfolio_job": csv_commands(tmp_path)["portfolio"][1]}
        rng = np.random.default_rng(SEED)
        draws = [("gaussian_pair", mutated_text(rng)) for _ in range(10_000)]
        draws += [(name, mutated_json(json.loads(json.dumps(job)), rng, mutate_job_leaf))
                  for name, job in jobs.items() for _ in range(2_000)]
        verdicts = []
        for name, text in draws:
            try:
                doc = parse_document(text)
            except ValidationError:
                continue
            verdicts.append(same_verdict(name, doc))
        assert len(verdicts) >= 10_000
        assert verdicts.count(True) >= 3_000 and verdicts.count(False) >= 3_000

    def test_agrees_with_jsonschema_on_random_schemas(self):
        """5,000 random schemas of the eleven keywords, nested up to three
        deep, each judging a random value: keywords next to ``anyOf``,
        ``anyOf`` inside ``anyOf`` and ties between branches, which the
        package's four schemas do not reach."""
        rng = random.Random(SEED)
        leaves = [*({"type": name} for name in sorted(TYPE_NAMES)), {"minimum": 1},
                  {"exclusiveMinimum": 0}, {"const": 1}, {"const": "a"}, {"enum": ["a", 2]},
                  {"minItems": 1}, {"minItems": 2}, {"required": ["b", "a"]},
                  {"additionalProperties": False}]

        def schema(depth):
            out = {}
            for _ in range(rng.randint(1, 3)):
                pick = rng.randrange(4 if depth else 1)
                if pick == 0:
                    out.update(rng.choice(leaves))
                elif pick == 1:
                    out["properties"] = {key: schema(depth - 1)
                                         for key in rng.sample("abc", rng.randint(1, 2))}
                elif pick == 2:
                    out["items"] = schema(depth - 1)
                else:
                    out["anyOf"] = [schema(depth - 1) for _ in range(rng.randint(1, 3))]
            return out

        def value(depth):
            pick = rng.randrange(10 if depth else 8)
            if pick < 8:
                return [None, True, 0, 1, 2.5, -1, "a", "b"][pick]
            if pick == 8:
                return [value(depth - 1) for _ in range(rng.randint(0, 3))]
            return {key: value(depth - 1) for key in rng.sample("abcd", rng.randint(0, 3))}

        cls = int_only_validator({})
        verdicts = []
        for _ in range(5_000):
            sch = schema(3)
            verdicts.append(agrees(sch, cls(sch), value(3)))
        assert verdicts.count(True) >= 1_000 and verdicts.count(False) >= 1_000

    def test_agrees_with_jsonschema_on_reports(self, tmp_path):
        """Every report of ``emitted_reports``, its hand-mutated variants
        and 200 leaf mutations of each."""
        from test_fuzz import mutated_json

        rng = np.random.default_rng(SEED)
        verdicts = []
        for report in emitted_reports(tmp_path):
            assert same_verdict("report", report)
            verdicts += [same_verdict("report", bad) for bad in report_variants(report)]
            for _ in range(200):
                text = mutated_json(json.loads(json.dumps(report)), rng)
                try:
                    verdicts.append(same_verdict("report", parse_document(text)))
                except ValidationError:
                    pass
        assert verdicts.count(True) >= 500 and verdicts.count(False) >= 500


class TestCSVIngestion:
    def test_price_volume_round_trip(self, tmp_path):
        path = tmp_path / "asset.csv"
        path.write_text("date,close,volume\n2024-01-01,100.0,5000\n"
                        "2024-01-02,101.5,6000\n2024-01-03,99.0,5500\n")
        dates, closes, volumes = read_price_volume_csv(path)
        assert [d.isoformat() for d in dates] == ["2024-01-01", "2024-01-02",
                                                  "2024-01-03"]
        assert closes == [100.0, 101.5, 99.0]
        assert infer_period_days(dates) == 1.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2024-01-01,100.0,5000\n2024-01-02,101.5,6000\n")
        with pytest.raises(ValidationError):
            read_price_volume_csv(path)

    def test_malformed_row_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,close,volume\n2024-01-01,100.0,5000\n"
                        "2024-01-02,not_a_number,6000\n")
        with pytest.raises(ValidationError, match="bad.csv:3"):
            read_price_volume_csv(path)

    def test_non_iso_date_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,close,volume\n01/02/2024,100.0,5000\n"
                        "01/03/2024,101.0,5100\n")
        with pytest.raises(ValidationError, match="ISO-8601"):
            read_price_volume_csv(path)

    def test_decreasing_dates_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,close,volume\n2024-01-02,100.0,5000\n"
                        "2024-01-01,101.0,5100\n")
        with pytest.raises(ValidationError, match="increasing"):
            read_price_volume_csv(path)

    def test_returns_csv(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,aaa,bbb\n2024-01-01,0.01,-0.02\n2024-01-02,0.00,0.03\n")
        dates, names, rows = read_returns_csv(path)
        assert names == ["aaa", "bbb"]
        np.testing.assert_allclose(rows, [[0.01, -0.02], [0.0, 0.03]])

    def test_returns_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,aaa,bbb\n2024-01-01,0.01\n")
        with pytest.raises(ValidationError):
            read_returns_csv(path)

    def test_risk_rows_labeled_and_unlabeled(self, tmp_path):
        labeled = tmp_path / "risks.csv"
        labeled.write_text("label,input_risk,output_risk\npair1,0.1,0.2\n")
        assert read_risk_rows_csv(labeled) == [("pair1", 0.1, 0.2)]
        bare = tmp_path / "bare.csv"
        bare.write_text("input_risk,output_risk\n0.3,0.4\n")
        assert read_risk_rows_csv(bare) == [("row1", 0.3, 0.4)]

    def test_weekly_period_inferred(self):
        import datetime as dt

        dates = [dt.date(2024, 1, 1) + dt.timedelta(days=7 * i) for i in range(5)]
        assert infer_period_days(dates) == 7.0


# --- the dated-CSV fast path against the per-cell parser --------------------

def outcome(reader, path):
    """A reader's result, floats as (shape, bytes) so equality means the
    same bits, or its error message."""
    try:
        dates, *parts = reader(path)
    except ValidationError as exc:
        return "error", str(exc)
    return ("ok", dates, *[part if isinstance(part[0], str)
                           else (np.shape(part), np.asarray(part, dtype=float).tobytes())
                           for part in parts])


def read_both(monkeypatch, reader, path):
    """``reader``'s outcome as it runs, its outcome on the per-cell parser
    alone, and whether the fast path accepted the file.  Whenever it
    does, the per-cell parser must accept the file too and read the same
    header, dates and float bits."""
    accepted = []
    fast = docio._dated_fast

    def checked(path, header_ok):
        result = fast(path, header_ok)
        if result is not None:
            try:
                header, dates, values = docio._dated_cells(path, header_ok, "")
            except ValidationError as exc:
                pytest.fail(f"the fast path accepted a file the per-cell parser rejects: {exc}")
            assert result[:2] == (header, dates) and result[2].shape == values.shape
            assert result[2].tobytes() == values.tobytes()
        accepted.append(result is not None)
        return result

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")  # a reader prints nothing but its error
        patch.setattr(docio, "_dated_fast", checked)
        as_run = outcome(reader, path)
        patch.setattr(docio, "_dated_fast", lambda *args: None)
        per_cell = outcome(reader, path)
    return as_run, per_cell, accepted == [True]


def repr_returns_csv(rng, n, d=3):
    """Returns written as ``repr`` text over many magnitudes, as the
    benchmark writes them."""
    lines = ["date," + ",".join(f"b{i}" for i in range(d))]
    day = datetime.date(2020, 1, 1)
    for row in rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d)):
        lines.append(day.isoformat() + "," + ",".join(map(repr, row.tolist())))
        day += datetime.timedelta(days=int(rng.integers(1, 4)))
    return "\n".join(lines) + "\n"


READERS = {"returns": read_returns_csv, "price_volume": read_price_volume_csv}
WRITERS = {"returns": (returns_csv, repr_returns_csv), "price_volume": (price_csv,)}
RETURNS_TEXT = "date,a,b\n2024-01-01,0.01,-0.02\n2024-01-02,0.5,0.03\n2024-01-03,0.02,0.01\n"
CRLF_TEXT = RETURNS_TEXT.replace("\n", "\r\n")


class TestDatedFastPath:
    @pytest.mark.parametrize("kind", READERS)
    def test_seeded_files_take_the_fast_path_bit_for_bit(self, tmp_path, monkeypatch, kind):
        rng = np.random.default_rng([SEED, 7, len(kind)])
        for i in range(30):
            write = WRITERS[kind][i % len(WRITERS[kind])]
            path = tmp_path / f"{i}.csv"
            path.write_text(write(rng, int(rng.integers(2, 80))))
            as_run, per_cell, fast = read_both(monkeypatch, READERS[kind], path)
            assert fast and as_run[0] == "ok" and as_run == per_cell

    @pytest.mark.parametrize("kind", READERS)
    def test_fuzz_mutations_agree_with_the_per_cell_parser(self, tmp_path, monkeypatch, kind):
        """tests/test_fuzz.py's CSV mutations: the same arrays and dates, or
        the same message; the fast path accepts only what the per-cell
        parser accepts."""
        rng = np.random.default_rng([SEED, 8, len(kind)])
        path = tmp_path / "m.csv"
        fast_count = 0
        for _ in range(200):
            path.write_text(mutated_csv(WRITERS[kind][0](rng, 40), rng))
            as_run, per_cell, fast = read_both(monkeypatch, READERS[kind], path)
            assert as_run == per_cell
            fast_count += fast
        assert 0 < fast_count < 200

    @pytest.mark.parametrize("old, new, expected", [
        ("0.5", "nan", "{path}:3: non-finite value 'nan'"),
        ("0.5", "inf", "{path}:3: non-finite value 'inf'"),
        ("0.5", "1e309", "{path}:3: non-finite value '1e309'"),
        ("0.5", "x", "{path}:3: 'x' is not a number"),
        ("0.5", "", "{path}:3: '' is not a number"),
        ("0.5,", "", "{path}:3: expected 3 fields, got 2"),
        ("0.5", '"0.5"', None),
        ("0.5", "1_0", None),
        ("2024-01-02", "2024-01-01", "{path}: dates must be strictly increasing"),
        ("2024-01-02", "2024-02-30", "{path}:3: '2024-02-30' is not an ISO-8601 date"),
        ("date,a,b", "date,a, a", "{path}: duplicate asset names ['a']"),
        ("date,a,b", 'date,"a",b', None),
        ("\n", "\r\n", None),
        (RETURNS_TEXT, CRLF_TEXT, None),
        ("\n", "\r", None),
        (",0.01,-0.02\n2024-01-02,0.5,0.03\n2024-01-03,0.02,0.01",
         ",\n2024-01-02,\n2024-01-03,0.02,0.01,1,2", "{path}:2: expected 3 fields, got 2"),
        (",0.01,-0.02\n2024-01-02,0.5,0.03\n2024-01-03,0.02,0.01",
         "\n2024-01-02\n2024-01-03", "{path}:2: expected 3 fields, got 1"),
    ], ids=["nan", "inf", "overflow", "non-number", "empty", "short-row", "quoted",
            "underscore", "non-increasing-dates", "bad-date", "duplicate-names",
            "quoted-name", "crlf", "crlf-every-line", "lone-cr", "ragged-rows-balanced",
            "dates-only"])
    def test_listed_inputs_give_the_per_cell_outcome(self, tmp_path, monkeypatch,
                                                     old, new, expected):
        """Every rejection keeps its message word for word, and only the
        duplicate names, which the reader checks after either parser,
        pass the fast path.  CRLF line ends, on one line or on all, take
        the fast path with the per-cell parser's bits.  A file the
        per-cell parser accepts but the fast path declines (a quoted cell
        or name, 1_0, a lone carriage return) reads the same.  Two of the
        ragged files keep the comma count of a good one, and one has no
        number at all."""
        path = tmp_path / "r.csv"
        path.write_text(RETURNS_TEXT.replace(old, new, 1))
        as_run, per_cell, fast = read_both(monkeypatch, read_returns_csv, path)
        assert as_run == per_cell and fast == (new in ("date,a, a", "\r\n", CRLF_TEXT))
        if expected is None:
            assert per_cell[0] == "ok"
        else:
            assert per_cell == ("error", expected.format(path=path))

    def test_line_over_the_csv_field_limit_is_left_to_the_csv_module(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(RETURNS_TEXT.replace("0.5", "0." + "0" * csv.field_size_limit() + "5"))
        assert docio._dated_fast(path, lambda cols: True) is None
