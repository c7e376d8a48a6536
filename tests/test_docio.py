"""Canonical serialization, schema validation, and CSV ingestion."""

import math

import numpy as np
import pytest

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

    def test_float_17_digits(self):
        text = canonical_json({"x": 0.1})
        assert "0.10000000000000001" in text

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
