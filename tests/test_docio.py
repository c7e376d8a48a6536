"""Canonical serialization, schema validation, and CSV ingestion."""

import csv
import datetime
import math
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
from transrisk.errors import SpecFileError, ValidationError

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
        with pytest.raises(SpecFileError):
            validate_spec(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecFileError):
            validate_spec({"version": 1, "kind": "mystery"})

    def test_missing_field_rejected(self):
        bad = {k: v for k, v in GOOD_SPEC.items() if k != "target"}
        with pytest.raises(SpecFileError):
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


class TestValidationMessages:
    """The prebuilt validators report the error ``jsonschema.validate``
    would raise, word for word."""

    @staticmethod
    def stock_message(doc, schema):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(doc, schema)
        return info.value.message

    @pytest.mark.parametrize("bad", [
        dict(GOOD_SPEC, extra="nope"),
        dict(GOOD_SPEC, case="sideways"),
        dict(GOOD_SPEC, source=dict(GOOD_SPEC["source"], dim_x=0)),
        {k: v for k, v in GOOD_SPEC.items() if k != "target"},
    ])
    def test_bad_spec(self, bad):
        from transrisk.docio import GAUSSIAN_PAIR_SCHEMA

        with pytest.raises(SpecFileError) as info:
            validate_spec(bad)
        expected = self.stock_message(bad, GAUSSIAN_PAIR_SCHEMA)
        assert str(info.value) == f"spec failed validation: {expected}"

    @pytest.mark.parametrize("change", [
        {"oops": 1},
        {"kind": "mystery_report"},
        {"provenance": {"tool": "other", "tool_version": "0.1.0", "seed": None}},
        {"oracle_check": {"entries": [{"name": "x"}], "all_within": True}},
    ])
    def test_bad_report(self, change):
        from transrisk.docio import REPORT_SCHEMA

        bad = dict({"version": 1, "kind": "office_table_report", "inputs": {},
                    "results": {}, "provenance": {"tool": "transrisk",
                                                  "tool_version": "0.1.0", "seed": None}},
                   **change)
        with pytest.raises(ValidationError) as info:
            validate_report(bad)
        expected = self.stock_message(bad, REPORT_SCHEMA)
        assert str(info.value) == f"report failed validation: {expected}"


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
