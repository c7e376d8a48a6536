"""End-to-end command-line tests: reports, exit codes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from transrisk.cli import main
from transrisk.docio import canonical_json, parse_document, validate_report
from test_fuzz import SPECS

BASIC_SPEC = {
    "version": 1,
    "kind": "gaussian_pair",
    "case": "basic",
    "source": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
               "cov": [[1.0, 0.5], [0.5, 1.0]]},
    "target": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
               "cov": [[1.0, 0.8], [0.8, 1.0]]},
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(canonical_json(doc))
    return str(path)


def run_report(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = parse_document(out) if out else None
    return code, report


def write_price_csv(path, seed, n=160, start="2023-01-02"):
    import datetime as dt

    rng = np.random.default_rng(seed)
    day = dt.date.fromisoformat(start)
    price, volume = 100.0, 1e6
    r = 0.0
    rows = []
    for _ in range(n):
        r = 0.35 * r + rng.normal(scale=0.01)
        price *= float(np.exp(r))
        volume *= float(np.exp(rng.normal(scale=0.05)))
        rows.append(f"{day.isoformat()},{price:.6f},{volume:.2f}")
        day += dt.timedelta(days=1)
    path.write_text("date,close,volume\n" + "\n".join(rows) + "\n")
    return str(path)


def write_returns_csv(path, returns, start="2023-01-02"):
    import datetime as dt

    day = dt.date.fromisoformat(start)
    names = [f"a{i}" for i in range(returns.shape[1])]
    lines = ["date," + ",".join(names)]
    for row in returns:
        lines.append(day.isoformat() + "," + ",".join(f"{x:.8f}" for x in row))
        day += dt.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def random_cov(rng, n):
    a = rng.normal(size=(n, n))
    cov = a @ a.T / n + 0.2 * np.eye(n)
    return 0.5 * (cov + cov.T)


def task_doc(dim_x, dim_y, mean, cov):
    return {"dim_x": dim_x, "dim_y": dim_y, "mean": np.asarray(mean).tolist(),
            "cov": np.asarray(cov).tolist()}


def output_aug_doc(source, target, weight, intercept):
    return {"version": 1, "kind": "gaussian_pair", "case": "output_aug",
            "source": source, "target": target,
            "init_model": {"weight": np.asarray(weight).tolist(),
                           "intercept": np.asarray(intercept).tolist()}}


class TestGaussianRisk:
    def test_worked_example(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BASIC_SPEC)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--variant", "both"])
        assert code == 0
        validate_report(report)
        results = report["results"]
        np.testing.assert_allclose(results["w"]["total"], 0.09, atol=1e-10)
        np.testing.assert_allclose(results["kl"]["total"], 0.30999637, atol=1e-6)
        np.testing.assert_allclose(results["regret"], 0.09, atol=1e-10)
        np.testing.assert_allclose(results["residual"], 0.0, atol=1e-12)
        assert results["risk_w_le_regret"]

    def test_identical_tasks_all_zero(self, tmp_path, capsys):
        doc = dict(BASIC_SPEC, target=BASIC_SPEC["source"])
        spec = write_spec(tmp_path, doc)
        code, report = run_report(capsys, ["gaussian-risk", spec])
        assert code == 0
        results = report["results"]
        assert results["w"]["total"] <= 1e-12
        assert results["kl"]["total"] <= 1e-12
        assert abs(results["regret"]) <= 1e-12

    def test_verify_evaluates_each_closed_form_once(self, tmp_path, capsys, monkeypatch):
        """The oracle entries take their closed-form sides from the results
        block, so --verify costs no second evaluation of any basic form.
        Only the command's own calls count, not the ones a closed form
        makes of another (``regret_risk_identity`` reads ``basic_output_risk_w``)."""
        from transrisk import gauss_transfer

        calls, depth = {}, [0]
        for name in ("basic_output_risk_w", "regret_risk_identity", "basic_output_risk_kl"):
            def counting(pair, _name=name, _fn=getattr(gauss_transfer, name)):
                if depth[0] == 0:
                    calls[_name] = calls.get(_name, 0) + 1
                depth[0] += 1
                try:
                    return _fn(pair)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(gauss_transfer, name, counting)
        spec = write_spec(tmp_path, BASIC_SPEC)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify", "--seed", "7"])
        assert code == 0
        assert calls == {"basic_output_risk_w": 1, "regret_risk_identity": 1,
                         "basic_output_risk_kl": 1}
        closed = {e["name"]: e["closed_form"] for e in report["oracle_check"]["entries"]}
        results = report["results"]
        assert closed == {"kl_vs_quadrature": results["kl"]["total"],
                          "w2_vs_sampling": results["w"]["total"],
                          "regret_vs_loss_gap": results["regret"]}

    def test_verify_within_sigma(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BASIC_SPEC)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify", "--seed", "7"])
        assert code == 0
        check = report["oracle_check"]
        assert check["all_within"]
        names = {e["name"] for e in check["entries"]}
        assert names == {"kl_vs_quadrature", "w2_vs_sampling", "regret_vs_loss_gap"}

    def test_output_to_file_keeps_stdout_clean(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BASIC_SPEC)
        out = tmp_path / "report.json"
        code = main(["gaussian-risk", spec, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        validate_report(parse_document(out.read_text()))

    @pytest.mark.parametrize("fault", ["drop_gap_sq", "variance_times_1_plus_1e-6"])
    def test_verify_catches_planted_regret_fault(self, tmp_path, capsys, monkeypatch, fault):
        """A regret closed form that drops its mean-gap term, or scales its
        variance term by 1 + 1e-6, fails the cubature gate and exits 4;
        the other entries stay within."""
        from transrisk import gauss_transfer

        def planted(pair, _identity=gauss_transfer.regret_risk_identity):
            identity = _identity(pair)
            _, variance, bias = gauss_transfer.regret_closed_form(pair)
            regret = variance if fault == "drop_gap_sq" else variance * (1.0 + 1e-6) + bias
            return identity._replace(regret=regret, residual=regret - identity.risk_w)

        monkeypatch.setattr(gauss_transfer, "regret_risk_identity", planted)
        spec = write_spec(tmp_path, SPECS["basic"])
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 4
        within = {e["name"]: e["within"] for e in report["oracle_check"]["entries"]}
        assert within == {"kl_vs_quadrature": True, "w2_vs_sampling": True,
                          "regret_vs_loss_gap": False}

    def test_verify_catches_planted_kl_fault(self, tmp_path, capsys, monkeypatch):
        """A KL closed form scaled by 1 + 1e-7 fails the relative cubature
        gate and exits 4, with only the KL entry out; an absolute 1e-6
        gate let this spec's 2.4e-8 gap pass."""
        from transrisk import gauss_transfer
        from transrisk.gaussian import RiskSplit

        def planted(pair, _kl=gauss_transfer.basic_output_risk_kl):
            return RiskSplit(*(term * (1.0 + 1e-7) for term in _kl(pair)))

        monkeypatch.setattr(gauss_transfer, "basic_output_risk_kl", planted)
        spec = write_spec(tmp_path, SPECS["basic"])
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 4
        within = {e["name"]: e["within"] for e in report["oracle_check"]["entries"]}
        assert within == {"kl_vs_quadrature": False, "w2_vs_sampling": True,
                          "regret_vs_loss_gap": True}

    def test_verify_catches_planted_w2_fault(self, tmp_path, capsys, monkeypatch):
        """A W closed form scaled by 1 + 5e-3 lands between 3 and 30
        standard errors off the sampled W2 at the default seed: it fails
        the 3σ gate and exits 4, with only the W2 entry out."""
        from transrisk import gauss_transfer
        from transrisk.gaussian import RiskSplit

        def planted(pair, _w=gauss_transfer.basic_output_risk_w):
            return RiskSplit(*(term * (1.0 + 5e-3) for term in _w(pair)))

        monkeypatch.setattr(gauss_transfer, "basic_output_risk_w", planted)
        spec = write_spec(tmp_path, SPECS["basic"])
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 4
        entries = {e["name"]: e for e in report["oracle_check"]["entries"]}
        assert 3.0 < entries["w2_vs_sampling"]["sigma_gap"] < 30.0
        assert {name: e["within"] for name, e in entries.items()} == {
            "kl_vs_quadrature": True, "w2_vs_sampling": False, "regret_vs_loss_gap": True}

    def test_regret_entry_is_deterministic(self, tmp_path, capsys):
        """The regret entry carries no standard error and does not move
        with --seed."""
        spec = write_spec(tmp_path, SPECS["basic"])
        entries = []
        for seed in ("1", "2"):
            code, report = run_report(capsys, ["gaussian-risk", spec, "--verify", "--seed", seed])
            assert code == 0
            (entry,) = [e for e in report["oracle_check"]["entries"]
                        if e["name"] == "regret_vs_loss_gap"]
            entries.append(entry)
        assert entries[0] == entries[1]
        assert "std_error" not in entries[0] and entries[0]["sigma_gap"] is None

    def test_parser_is_built_once_and_keeps_no_values(self, tmp_path):
        """main reuses one parser; a second call sees only its own flags
        and the defaults, nothing left from the first."""
        from transrisk import cli

        spec = write_spec(tmp_path, SPECS["basic"])
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["gaussian-risk", spec, "--variant", "w", "--verify", "--seed", "5",
                     "--out", str(first)]) == 0
        assert main(["gaussian-risk", spec, "--out", str(second)]) == 0
        assert cli.build_parser() is cli.build_parser()
        args = cli.build_parser().parse_args(["gaussian-risk", spec])
        assert (args.variant, args.verify, args.seed, args.out) == ("both", False, 0, None)
        one, two = (parse_document(path.read_text()) for path in (first, second))
        assert "oracle_check" in one and "kl" not in one["results"]
        assert "oracle_check" not in two and "kl" in two["results"]
        assert two["provenance"]["seed"] == 0

    def test_byte_identical_reports(self, tmp_path):
        spec = write_spec(tmp_path, BASIC_SPEC)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["gaussian-risk", spec, "--verify", "--seed", "3", "--out", str(out1)]) == 0
        assert main(["gaussian-risk", spec, "--verify", "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(BASIC_SPEC, bogus=1))
        assert main(["gaussian-risk", spec]) == 2
        assert capsys.readouterr().out == ""

    def test_unparseable_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["gaussian-risk", str(path)]) == 2

    def test_tiny_target_covariance_finite_kl(self, tmp_path, capsys):
        """A target cov_xy of 1e-9 makes the variance ratio about 1.2e-18,
        where x − 1 rounds to −1: the KL is still finite (about 20.12)."""
        doc = dict(BASIC_SPEC)
        doc["source"] = {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
                         "cov": [[1.0, 0.9], [0.9, 1.0]]}
        doc["target"] = {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
                         "cov": [[1.0, 1e-9], [1e-9, 1.0]]}
        code, report = run_report(capsys, ["gaussian-risk", write_spec(tmp_path, doc),
                                           "--variant", "kl"])
        assert code == 0
        kl = report["results"]["kl"]["total"]
        np.testing.assert_allclose(kl, 0.5 * (1e-18 / 0.81 - 1.0 - math.log(1e-18 / 0.81)),
                                   rtol=1e-12)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, token):
        """A non-finite number in one triangle of a d = 2 covariance is
        rejected when the spec is parsed, with one diagnostic line."""
        doc = dict(BASIC_SPEC)
        doc["source"] = {"dim_x": 2, "dim_y": 1, "mean": [0.0, 0.0, 0.0],
                         "cov": [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [12345.0, 0.5, 1.0]]}
        doc["target"] = doc["source"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc).replace("12345.0", token))
        assert main(["gaussian-risk", str(path), "--verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: ")
        assert token in lines[0]

    def _oversized_int_exit_2(self, tmp_path, capsys, digits, verify):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASIC_SPEC).replace('"mean": [0.0, 0.0]', '"mean": [0.0, '
                                                       + "9" * digits + "]", 1))
        assert main(["gaussian-risk", str(path)] + verify) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: ")
        assert f"{digits} digits" in lines[0]

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_integer_beyond_double_exit_2(self, tmp_path, capsys, verify):
        """A 400-digit integer is a valid Python int that overflows a
        double; it is rejected when the spec is parsed."""
        self._oversized_int_exit_2(tmp_path, capsys, 400, verify)

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_integer_beyond_str_digit_limit_exit_2(self, tmp_path, capsys, verify):
        """A 5000-digit integer passes Python's 4,300-digit conversion
        limit, whose ValueError is raised inside json.loads."""
        self._oversized_int_exit_2(tmp_path, capsys, 5000, verify)

    @pytest.mark.parametrize("index", [0, 1])
    def test_overflowing_oracle_exit_2_without_warnings(self, tmp_path, capsys, index):
        """A target mean entry of 1e300 overflows the closed forms and the
        sampled oracles; the run ends in one validation error line and no
        numpy warning."""
        import warnings

        doc = json.loads(json.dumps(BASIC_SPEC))
        doc["target"]["mean"][index] = 1e300
        spec = write_spec(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gaussian-risk", spec, "--verify"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("validation error: non-finite")

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_overflowing_intermediate_law_exit_2(self, tmp_path, capsys, verify):
        """An initial weight entry of 1e200 overflows the intermediate
        law's covariance; the law is rejected where it is built, with one
        line naming it, before any risk is computed through it."""
        cov = [[1.0, 0.2, 0.4, 0.3], [0.2, 1.3, 0.1, -0.2],
               [0.4, 0.1, 1.1, 0.2], [0.3, -0.2, 0.2, 1.6]]
        doc = output_aug_doc(task_doc(2, 1, [0.1, 0.2, -0.3], np.asarray(cov)[:3, :3]),
                             task_doc(2, 2, [0.1, 0.2, -0.3, 0.6], cov),
                             [[1e200, -0.1]], [0.5])
        assert main(["gaussian-risk", write_spec(tmp_path, doc)] + verify) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["validation error: non-finite entries in cov"]

    def test_integral_float_dimension_exit_2(self, tmp_path, capsys):
        """A dim_x of 1.0 is a number but not a count; the schema rejects
        it before it can slice a covariance."""
        doc = json.loads(json.dumps(BASIC_SPEC))
        doc["source"]["dim_x"] = 1.0
        assert main(["gaussian-risk", write_spec(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "validation error: spec failed validation: 1.0 is not of type 'integer'"]

    @pytest.mark.parametrize("kind", [[], {}])
    def test_non_string_kind_exit_2(self, tmp_path, capsys, kind):
        spec = write_spec(tmp_path, dict(BASIC_SPEC, kind=kind))
        assert main(["gaussian-risk", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: unknown spec kind")

    def test_degenerate_kl_exit_3(self, tmp_path):
        doc = dict(BASIC_SPEC)
        doc["source"] = {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
                        "cov": [[1.0, 0.0], [0.0, 1.0]]}
        spec = write_spec(tmp_path, doc)
        assert main(["gaussian-risk", spec, "--variant", "kl"]) == 3

    def test_feature_aug_spec(self, tmp_path, capsys):
        doc = {
            "version": 1, "kind": "gaussian_pair", "case": "feature_aug",
            "source": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
                       "cov": [[1.0, 0.5], [0.5, 1.0]]},
            "target": {"dim_x": 2, "dim_y": 1, "mean": [0.0, 0.0, 0.0],
                       "cov": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.3], [0.5, 0.3, 1.0]]},
        }
        spec = write_spec(tmp_path, doc)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 0
        results = report["results"]
        assert results["kl"]["bias_term"] == 0.0
        np.testing.assert_allclose(results["kl"]["total"], 0.02626, atol=5e-6)
        assert report["oracle_check"]["all_within"]

    def test_feature_aug_uninformative_source_w(self, tmp_path, capsys):
        """A source input that explains nothing leaves the KL risk undefined
        but the W risk finite: (√0 − √0.36)²."""
        doc = {
            "version": 1, "kind": "gaussian_pair", "case": "feature_aug",
            "source": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 0.0],
                       "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "target": {"dim_x": 2, "dim_y": 1, "mean": [0.0, 0.0, 0.0],
                       "cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.6], [0.0, 0.6, 1.0]]},
        }
        spec = write_spec(tmp_path, doc)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--variant", "w"])
        assert code == 0
        np.testing.assert_allclose(report["results"]["w"]["total"], 0.36, atol=1e-12)
        assert main(["gaussian-risk", spec, "--variant", "kl"]) == 3
        err = capsys.readouterr().err
        assert "zero variance on source inputs" in err and "target inputs" not in err

    def test_output_aug_spec_neutral_init(self, tmp_path, capsys):
        """Two inputs, one transferred output, one new output initialized
        at its exact population regression: the risk vanishes.  The new
        block needs the second input so the stacked law has full rank."""
        src_cov = [[1.0, 0.2, 0.3], [0.2, 1.0, 0.1], [0.3, 0.1, 1.0]]
        tgt_cov = [
            [1.0, 0.2, 0.3, 0.2],
            [0.2, 1.0, 0.1, 0.4],
            [0.3, 0.1, 1.0, 0.05],
            [0.2, 0.4, 0.05, 1.0],
        ]
        # Σ_SX⁻¹ Σ_AXY = [0.125, 0.375] exactly; zero input means make the
        # neutral intercept equal the new output's mean
        doc = {
            "version": 1, "kind": "gaussian_pair", "case": "output_aug",
            "source": {"dim_x": 2, "dim_y": 1, "mean": [0.0, 0.0, 1.0],
                       "cov": src_cov},
            "target": {"dim_x": 2, "dim_y": 2, "mean": [0.0, 0.0, 1.0, -0.5],
                       "cov": tgt_cov},
            "init_model": {"weight": [[0.125, 0.375]], "intercept": [-0.5]},
        }
        spec = write_spec(tmp_path, doc)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 0
        results = report["results"]
        assert results["kl"]["total"] <= 1e-10
        assert results["w"]["total"] <= 1e-10
        assert report["oracle_check"]["all_within"]

    def test_output_aug_infinite_kl_note(self, tmp_path, capsys):
        """The new output is exactly twice the old one, so the target
        output law is singular against a full-rank intermediate law: KL
        is infinite and reported as null with its note, as in the basic
        case.  The wide laws have no oracle, so --verify adds no entry."""
        doc = {
            "version": 1, "kind": "gaussian_pair", "case": "output_aug",
            "source": {"dim_x": 2, "dim_y": 1, "mean": [0.0, 0.0, 0.0],
                       "cov": [[1.0, 0.0, 0.3], [0.0, 1.0, 0.1], [0.3, 0.1, 1.0]]},
            "target": {"dim_x": 2, "dim_y": 2, "mean": [0.0, 0.0, 0.0, 0.0],
                       "cov": [[1.0, 0.0, 0.3, 0.6], [0.0, 1.0, 0.1, 0.2],
                               [0.3, 0.1, 1.0, 2.0], [0.6, 0.2, 2.0, 4.0]]},
            "init_model": {"weight": [[0.5, 0.5]], "intercept": [0.0]},
        }
        spec = write_spec(tmp_path, doc)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 0
        results = report["results"]
        assert results["kl"] is None
        assert results["kl_note"] == "infinite: the target output law is degenerate"
        assert results["w"]["total"] > 0.0
        assert report["oracle_check"] == {"entries": [], "all_within": True}

    def test_output_aug_verify_has_no_oracle_entry(self, tmp_path, capsys):
        """An output_aug --verify run exits 0 with an empty oracle block,
        and its results are those of the run without --verify."""
        spec = write_spec(tmp_path, SPECS["output_aug"])
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify"])
        assert code == 0
        assert report["oracle_check"] == {"entries": [], "all_within": True}
        code, plain = run_report(capsys, ["gaussian-risk", spec])
        assert code == 0
        assert report["results"] == plain["results"] and "oracle_check" not in plain

    def test_output_aug_requires_init_model(self, tmp_path):
        doc = {
            "version": 1, "kind": "gaussian_pair", "case": "output_aug",
            "source": {"dim_x": 1, "dim_y": 1, "mean": [0.0, 1.0],
                       "cov": [[1.0, 0.3], [0.3, 1.0]]},
            "target": {"dim_x": 1, "dim_y": 2, "mean": [0.0, 1.0, -0.5],
                       "cov": [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]]},
        }
        assert main(["gaussian-risk", write_spec(tmp_path, doc)]) == 2

    def test_output_aug_degenerate_targets_give_null_kl(self, tmp_path, capsys):
        """Random d = 2 specs whose new target output is exactly c times
        the old one: the target law is singular however round-off leaves
        its smallest eigenvalue, so every draw reports kl: null."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            mean, cov = rng.normal(size=3), random_cov(rng, 3)
            c = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
            t_cov = np.zeros((4, 4))
            t_cov[:3, :3] = cov
            t_cov[:3, 3] = t_cov[3, :3] = c * cov[:, 2]
            t_cov[3, 3] = c * c * cov[2, 2]
            doc = output_aug_doc(task_doc(2, 1, mean, cov),
                                 task_doc(2, 2, np.append(mean, c * mean[2]), t_cov),
                                 rng.normal(size=(1, 2)), rng.normal(size=1))
            code, report = run_report(capsys, ["gaussian-risk", write_spec(tmp_path, doc)])
            assert code == 0, seed
            assert report["results"]["kl"] is None, seed
            assert report["results"]["kl_note"] == \
                "infinite: the target output law is degenerate"

    def test_output_aug_singular_intermediate_exit_3(self, tmp_path, capsys):
        """Random d = 2 specs whose init weight is twice the source model's
        weight: the stacked intermediate law is singular, so every draw
        exits 3 with the KL variant and 0 with W alone."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            mean, cov = rng.normal(size=4), random_cov(rng, 4)
            s_cov = cov[:3, :3]
            weight = np.linalg.solve(s_cov[:2, :2], s_cov[:2, 2])
            doc = output_aug_doc(task_doc(2, 1, mean[:3], s_cov), task_doc(2, 2, mean, cov),
                                 2.0 * weight[None, :], rng.normal(size=1))
            spec = write_spec(tmp_path, doc)
            assert main(["gaussian-risk", spec]) == 3, seed
            assert capsys.readouterr().err == (
                "numerical error: stacked intermediate covariance is not positive definite; "
                "the initialization must give the new block full rank\n")
            assert main(["gaussian-risk", spec, "--variant", "w"]) == 0, seed
            capsys.readouterr()


class TestOfficeTable:
    def test_builtin_reproduces_published_column(self, capsys):
        code, report = run_report(capsys, ["office-table", "--builtin"])
        assert code == 0
        results = report["results"]
        assert results["all_within"]
        assert results["max_deviation"] <= 0.0025
        assert len(results["rows"]) == 6

    def test_csv_rows(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_text("label,input_risk,output_risk\nmine,0.181,0.428\n")
        code, report = run_report(capsys, ["office-table", "--csv", str(path)])
        assert code == 0
        row = report["results"]["rows"][0]
        np.testing.assert_allclose(row["combined_risk"], 0.224, atol=1e-3)

    def test_negative_risk_exit_2(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("label,input_risk,output_risk\nbad,-0.1,0.4\n")
        assert main(["office-table", "--csv", str(path)]) == 2

    def test_builtin_deviation_exit_4(self, capsys, monkeypatch):
        """A builtin row whose published risk is 0.01 off the combiner's
        still gets its report, marked not within, and the run exits 4."""
        from transrisk import risk

        label, ei, eo, published = risk.OFFICE31_TABLE[0]
        monkeypatch.setattr(risk, "OFFICE31_TABLE",
                            ((label, ei, eo, published + 0.01),) + risk.OFFICE31_TABLE[1:])
        code = main(["office-table", "--builtin"])
        captured = capsys.readouterr()
        assert code == 4
        results = parse_document(captured.out)["results"]
        assert not results["all_within"] and results["max_deviation"] > 0.0025
        assert captured.err == (f"builtin table deviation {results['max_deviation']} "
                                "exceeds 0.0025\n")


@pytest.fixture(scope="module")
def prediction_job(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("predict")
    sources = [write_price_csv(tmp_path / f"src{i}.csv", seed=100 + i)
               for i in range(3)]
    target = write_price_csv(tmp_path / "target.csv", seed=55)
    job = {
        "version": 1, "kind": "regression_job",
        "source_csvs": sources, "target_csv": target,
        "lag": 2, "order": 2,
        "lambda_source": 1.0, "lambda_transfer": 5.0,
        "split_date": "2023-04-15",
    }
    return tmp_path, job


class TestPredict:
    def test_report_structure(self, prediction_job, capsys):
        tmp_path, job = prediction_job
        spec = write_spec(tmp_path, job, "job.json")
        code, report = run_report(capsys, ["predict", spec])
        assert code == 0
        validate_report(report)
        cell = report["results"]["grid"][0]
        assert cell["lag"] == 2 and cell["order"] == 2
        for side in ("direct", "transfer"):
            for key in ("mse", "r2", "corr", "transfer_risk"):
                assert key in cell[side]

    def test_grid_over_lags_and_orders(self, prediction_job, capsys):
        tmp_path, job = prediction_job
        job = dict(job, lag=[2, 5], order=[1, 2])
        spec = write_spec(tmp_path, job, "grid_job.json")
        code, report = run_report(capsys, ["predict", spec])
        assert code == 0
        cells = [(c["lag"], c["order"]) for c in report["results"]["grid"]]
        assert cells == [(2, 1), (2, 2), (5, 1), (5, 2)]

    def test_bit_identical_reports(self, prediction_job, tmp_path):
        src_path, job = prediction_job
        spec = write_spec(src_path, job, "det_job.json")
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(["predict", spec, "--out", str(out1)]) == 0
        assert main(["predict", spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_anchoring_limit_recovers_pretrained(self, prediction_job, capsys):
        """Single-asset source equal to the target with a huge transfer
        penalty: the transferred model pins to the pretrained one, which
        on identical data and lambdas is the direct model."""
        tmp_path, job = prediction_job
        job = dict(job, source_csvs=[job["target_csv"]],
                   lambda_transfer=1e9)
        spec = write_spec(tmp_path, job, "limit_job.json")
        code, report = run_report(capsys, ["predict", spec])
        assert code == 0
        cell = report["results"]["grid"][0]
        np.testing.assert_allclose(cell["transfer"]["mse"], cell["direct"]["mse"],
                                   rtol=1e-5)

    def test_features_out(self, prediction_job, tmp_path, capsys):
        src_path, job = prediction_job
        spec = write_spec(src_path, job, "feat_job.json")
        feat_path = tmp_path / "features.csv"
        code = main(["predict", spec, "--features-out", str(feat_path),
                     "--out", str(tmp_path / "ignored.json")])
        assert code == 0
        header = feat_path.read_text().splitlines()[0]
        assert header.split(",")[0] == "S"

    def test_each_csv_read_once(self, prediction_job, tmp_path, monkeypatch):
        """A lag x order grid with a file used twice reads each distinct
        file once, and --features-out reuses the target's features."""
        from transrisk import cli

        src_path, job = prediction_job
        job = dict(job, source_csvs=job["source_csvs"][:2] + [job["target_csv"]],
                   lag=[2, 3, 5], order=[1, 2, 3])
        spec = write_spec(src_path, job, "reads_job.json")
        reads = []
        read = cli.read_price_volume_csv

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(cli, "read_price_volume_csv", counting)
        code = main(["predict", spec, "--out", str(tmp_path / "r.json"),
                     "--features-out", str(tmp_path / "f.csv")])
        assert code == 0
        assert sorted(reads) == sorted(set(job["source_csvs"]))

    @pytest.mark.parametrize("key", ["lag", "order"])
    def test_integral_float_lag_or_order_exit_2(self, prediction_job, capsys, key):
        tmp_path, job = prediction_job
        spec = write_spec(tmp_path, dict(job, **{key: 2.0}), f"float_{key}.json")
        assert main(["predict", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: spec failed")

    def test_split_outside_range_exit_2(self, prediction_job):
        tmp_path, job = prediction_job
        job = dict(job, split_date="2030-01-01")
        spec = write_spec(tmp_path, job, "bad_job.json")
        assert main(["predict", spec]) == 2

    def test_constant_closes_standardize_by_unit_std(self, tmp_path, capsys):
        """Every close is 100, so every return target is 0: the target
        train std is 0, which standardization takes as 1, and the run
        exits 0."""
        import datetime as dt

        def constant_close_csv(path, seed):
            rng = np.random.default_rng(seed)
            days = [dt.date(2023, 1, 2) + dt.timedelta(days=i) for i in range(160)]
            volumes = 1e6 * np.exp(np.cumsum(rng.normal(scale=0.05, size=160)))
            path.write_text("date,close,volume\n" + "".join(
                f"{day.isoformat()},100.0,{v:.2f}\n" for day, v in zip(days, volumes)))
            return str(path)

        job = {"version": 1, "kind": "regression_job",
               "source_csvs": [constant_close_csv(tmp_path / "src.csv", 1)],
               "target_csv": constant_close_csv(tmp_path / "target.csv", 2),
               "lag": 2, "order": 2, "split_date": "2023-04-15"}
        code, report = run_report(capsys, ["predict", write_spec(tmp_path, job, "job.json")])
        assert code == 0
        (cell,) = report["results"]["grid"]
        assert cell["target_standardization"] == {"mean": 0.0, "std": 1.0}

    @pytest.mark.parametrize("lam", [1e200, 1e308])
    def test_huge_transfer_lambda_gates_without_overflow(self, prediction_job, capsys, lam):
        """At λ_transfer = 1e200 the squares of the normal equations'
        residual and right-hand side overflow; the gate scales both by
        max|rhs| first, so the run exits 0 with nothing on stderr."""
        tmp_path, job = prediction_job
        spec = write_spec(tmp_path, dict(job, lambda_transfer=lam), "huge_lambda.json")
        code, report = run_report(capsys, ["predict", spec])
        assert code == 0
        assert capsys.readouterr().err == ""
        (cell,) = report["results"]["grid"]
        assert all(math.isfinite(cell["transfer"][key]) for key in ("mse", "r2", "corr"))

    def test_anchor_on_other_columns_exit_2(self, tmp_path, capsys):
        """The source's volume is flat, and so is the target's close before
        the split date: each drops nine words and keeps four, but not the
        same four, so the source parameter would anchor other columns.
        The first word they disagree on is S_2 (the close increment)."""
        import datetime as dt

        def price_csv(path, seed, flat_close_before=None, flat_volume=False):
            rng = np.random.default_rng(seed)
            day, price, volume, lines = dt.date(2023, 1, 2), 100.0, 1e6, []
            for _ in range(160):
                if flat_close_before is None or day >= flat_close_before:
                    price *= float(np.exp(rng.normal(scale=0.01)))
                if not flat_volume:
                    volume *= float(np.exp(rng.normal(scale=0.05)))
                lines.append(f"{day.isoformat()},{price:.6f},{volume:.2f}")
                day += dt.timedelta(days=1)
            path.write_text("date,close,volume\n" + "\n".join(lines) + "\n")
            return str(path)

        split = dt.date(2023, 4, 15)
        job = {"version": 1, "kind": "regression_job",
               "source_csvs": [price_csv(tmp_path / "src.csv", 1, flat_volume=True)],
               "target_csv": price_csv(tmp_path / "target.csv", 2, flat_close_before=split),
               "lag": 2, "order": [1, 2], "split_date": split.isoformat()}
        code = main(["predict", write_spec(tmp_path, job, "job.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "validation error: source and target standardizers dropped different "
            "feature columns: S_2 is kept by the source only\n")


class TestPortfolio:
    @staticmethod
    def make_job(tmp_path, seed=3, shift=0.0, penalty=0.2):
        rng = np.random.default_rng(seed)
        d = 3
        a = rng.normal(size=(d, d)) * 0.01
        sigma = a @ a.T + 1e-4 * np.eye(d)
        mu = rng.uniform(0.0, 0.001, size=d)
        chol = np.linalg.cholesky(sigma)
        draw = lambda n, mu_: rng.normal(size=(n, d)) @ chol.T + mu_
        source = write_returns_csv(tmp_path / "source.csv", draw(300, mu + shift))
        train = write_returns_csv(tmp_path / "train.csv", draw(120, mu))
        test = write_returns_csv(tmp_path / "test.csv", draw(150, mu))
        job = {"version": 1, "kind": "portfolio_job", "source_csv": source,
               "target_train_csv": train, "target_test_csv": test,
               "penalty": penalty, "seed": seed}
        return write_spec(tmp_path, job, "pjob.json")

    def test_report_structure(self, tmp_path, capsys):
        spec = self.make_job(tmp_path)
        code, report = run_report(capsys, ["portfolio", spec])
        assert code == 0
        validate_report(report)
        results = report["results"]
        assert len(results["transferred_weights"]) == 3
        np.testing.assert_allclose(sum(results["transferred_weights"]), 1.0,
                                   atol=1e-9)
        assert results["prescreen_risk_sq"] >= 0.0

    def test_identical_source_and_test_zero_risk(self, tmp_path, capsys):
        """Using one file for source and target test data gives exactly
        zero prescreen risk, and anchoring to the train optimum keeps
        the transferred portfolio at the direct optimum."""
        rng = np.random.default_rng(11)
        d = 3
        returns = rng.normal(scale=0.01, size=(200, d)) + 0.0005
        shared = write_returns_csv(tmp_path / "shared.csv", returns)
        job = {"version": 1, "kind": "portfolio_job", "source_csv": shared,
               "target_train_csv": shared, "target_test_csv": shared,
               "penalty": 0.2}
        spec = write_spec(tmp_path, job, "same.json")
        code, report = run_report(capsys, ["portfolio", spec])
        assert code == 0
        results = report["results"]
        assert results["prescreen_risk_sq"] <= 1e-12
        np.testing.assert_allclose(results["transferred_weights"],
                                   results["direct_weights"], atol=1e-4)

    def test_zero_penalty_matches_direct(self, tmp_path, capsys):
        spec = self.make_job(tmp_path, seed=9, shift=0.002, penalty=0.0)
        code, report = run_report(capsys, ["portfolio", spec])
        assert code == 0
        results = report["results"]
        np.testing.assert_allclose(results["transferred_weights"],
                                   results["direct_weights"], atol=1e-5)

    @pytest.mark.parametrize("shift", [0.0, 0.002])
    def test_penalty_at_bound_exit_0_without_warnings(self, tmp_path, capsys, shift):
        """At MAX_PENALTY the transferred portfolio sits near the
        pretrained one, and the run prints no warning."""
        import warnings

        from transrisk.portfolio import MAX_PENALTY

        spec = self.make_job(tmp_path, seed=9, shift=shift, penalty=MAX_PENALTY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_report(capsys, ["portfolio", spec])
        assert code == 0
        results = report["results"]
        np.testing.assert_allclose(results["transferred_weights"],
                                   results["pretrained_weights"], atol=1e-3)

    @pytest.mark.parametrize("penalty", [100.00000000000001, 1e20, 1e308])
    def test_penalty_above_bound_exit_2(self, tmp_path, capsys, penalty):
        """A penalty above MAX_PENALTY ends in one line, not in numpy
        overflow warnings and an exit 0."""
        assert main(["portfolio", self.make_job(tmp_path, penalty=penalty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"validation error: penalty must lie in [0, 100], got {penalty}"]

    def test_mean_shift_raises_prescreen_risk(self, tmp_path, capsys):
        spec_near = self.make_job(tmp_path, seed=21, shift=0.0)
        _, near = run_report(capsys, ["portfolio", spec_near])
        spec_far = self.make_job(tmp_path, seed=21, shift=0.01)
        _, far = run_report(capsys, ["portfolio", spec_far])
        assert far["results"]["prescreen_risk_sq"] > near["results"]["prescreen_risk_sq"]

    def test_rank_deficient_source_exit_3(self, tmp_path, capsys):
        """Three periods of four assets: the sample covariance has rank 2
        and a long-only portfolio with zero variance and positive mean
        exists, so the Sharpe objective is unbounded.  The run must stop
        with exit 3, not report a Sharpe ratio in the hundreds of thousands."""
        rng = np.random.default_rng(0)
        for n in (2, 2, 2, 2, 3, 3, 3, 3):
            short = rng.normal(size=(n, 4)) * 0.1 + 0.01
        ok = rng.normal(scale=0.01, size=(60, 4)) + 0.001
        source = write_returns_csv(tmp_path / "short.csv", short)
        target = write_returns_csv(tmp_path / "ok.csv", ok)
        job = {"version": 1, "kind": "portfolio_job", "source_csv": source,
               "target_train_csv": target, "target_test_csv": target}
        assert main(["portfolio", write_spec(tmp_path, job, "short.json")]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_zero_variance_start_exit_3(self, tmp_path, capsys):
        """Train rows (0.125 + e, 0.125 − e), e = ±1/64 sixty times each
        and 0 once: binary fractions, so the CSV round trip and the moments
        are exact, and Σ = [[v, −v], [−v, v]] with v = 1/64², which has no
        Cholesky factor.  The uniform portfolio returns 0.125 in every
        period, so the ascent's first start already has zero variance and
        positive mean: the objective is unbounded, and the run exits 3."""
        from transrisk.portfolio import UNBOUNDED

        rng = np.random.default_rng(4)
        e = rng.permutation([1 / 64] * 60 + [-1 / 64] * 60 + [0.0])
        returns = lambda n: rng.normal(0.0005, 0.01, size=(n, 2))
        job = {"version": 1, "kind": "portfolio_job",
               "source_csv": write_returns_csv(tmp_path / "source.csv", returns(300)),
               "target_train_csv": write_returns_csv(tmp_path / "train.csv",
                                                     np.column_stack([0.125 + e, 0.125 - e])),
               "target_test_csv": write_returns_csv(tmp_path / "test.csv", returns(150))}
        assert main(["portfolio", write_spec(tmp_path, job, "flat.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical error: {UNBOUNDED}\n"

    def test_singular_train_history_one_message(self, tmp_path, capsys):
        """Train rows (0.1 + e, 0.1 − e), e ~ N(0, 0.01²), written at 8
        decimals: Σ is singular in exact arithmetic and the equal-weight
        portfolio returns 0.1 in every period, so the objective is
        unbounded.  Rounding leaves Σ without a Cholesky factor at some
        seeds and factorable at others; every seed exits 3 with one line."""
        from transrisk.portfolio import UNBOUNDED

        for seed in range(40):
            rng = np.random.default_rng(seed)
            e = rng.normal(0.0, 0.01, size=120)
            returns = lambda n: rng.normal(0.0005, 0.01, size=(n, 2))
            job = {"version": 1, "kind": "portfolio_job",
                   "source_csv": write_returns_csv(tmp_path / "source.csv", returns(300)),
                   "target_train_csv": write_returns_csv(tmp_path / "train.csv",
                                                         np.column_stack([0.1 + e, 0.1 - e])),
                   "target_test_csv": write_returns_csv(tmp_path / "test.csv", returns(150))}
            assert main(["portfolio", write_spec(tmp_path, job, "flat.json")]) == 3, seed
            assert capsys.readouterr() == ("", f"numerical error: {UNBOUNDED}\n"), seed

    def test_one_pipeline_estimates_each_history_once(self, tmp_path, capsys,
                                                       monkeypatch):
        """One job is one ``transfer_portfolio`` call, which estimates the
        moments of each of its three return histories once."""
        from transrisk import portfolio

        calls = {"estimate_moments": 0, "transfer_portfolio": 0}

        def counting(module, name):
            def counted(*args, _fn=getattr(module, name), **kwargs):
                calls[name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(portfolio, "estimate_moments")
        counting(portfolio, "transfer_portfolio")
        code, _ = run_report(capsys, ["portfolio", self.make_job(tmp_path)])
        assert code == 0
        assert calls == {"estimate_moments": 3, "transfer_portfolio": 1}

    def test_reordered_asset_columns_exit_2(self, tmp_path, capsys):
        """Weights fitted on columns (b, a) must not be applied to (a, b)."""
        rng = np.random.default_rng(4)
        src = write_returns_csv(tmp_path / "src.csv", rng.normal(size=(50, 2)))
        lines = (tmp_path / "src.csv").read_text().splitlines()
        (tmp_path / "src.csv").write_text("\n".join(["date,a1,a0", *lines[1:]]) + "\n")
        tr = write_returns_csv(tmp_path / "tr.csv", rng.normal(size=(50, 2)))
        job = {"version": 1, "kind": "portfolio_job", "source_csv": src,
               "target_train_csv": tr, "target_test_csv": tr}
        assert main(["portfolio", write_spec(tmp_path, job, "swap.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: asset names differ")

    def test_duplicate_asset_names_exit_2(self, tmp_path, capsys):
        """Weights cannot be matched to assets whose names repeat."""
        rng = np.random.default_rng(6)
        path = tmp_path / "dup.csv"
        write_returns_csv(path, rng.normal(size=(50, 2)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["date,a,a", *lines[1:]]) + "\n")
        job = {"version": 1, "kind": "portfolio_job", "source_csv": str(path),
               "target_train_csv": str(path), "target_test_csv": str(path)}
        assert main(["portfolio", write_spec(tmp_path, job, "dup.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert "duplicate asset names" in err[0]

    @pytest.mark.parametrize("role", ["source.csv", "train.csv", "test.csv"])
    def test_overflowing_returns_exit_2(self, tmp_path, capsys, role):
        """A return of 1e300 is finite, but its square overflows the
        sample covariance; the run ends in one line and no numpy warning."""
        spec = self.make_job(tmp_path)
        path = tmp_path / role
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        lines[5] = ",".join(fields[:2] + ["1e300"] + fields[3:])
        path.write_text("\n".join(lines) + "\n")
        assert main(["portfolio", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "validation error: non-finite sample moments: the returns are too large"]

    def test_mismatched_asset_counts_exit_2(self, tmp_path):
        rng = np.random.default_rng(2)
        src = write_returns_csv(tmp_path / "s2.csv", rng.normal(size=(50, 2)))
        tr = write_returns_csv(tmp_path / "t3.csv", rng.normal(size=(50, 3)))
        job = {"version": 1, "kind": "portfolio_job", "source_csv": src,
               "target_train_csv": tr, "target_test_csv": tr}
        assert main(["portfolio", write_spec(tmp_path, job, "mm.json")]) == 2


class TestCholeskyJitterRetry:
    """Both callers of ``cholesky_with_jitter`` reach its retry from input
    that the CLI accepts, so the retry stays: a factorization fails, the
    same matrix plus 1e-10·trace/n on its diagonal factors next, and the
    run exits 0."""

    @staticmethod
    def record_cholesky(monkeypatch) -> list:
        """(matrix, factored) of each numpy Cholesky call to come."""
        factor, calls = np.linalg.cholesky, []

        def cholesky(a):
            calls.append((np.array(a), False))
            result = factor(a)
            calls[-1] = (calls[-1][0], True)
            return result

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        return calls

    @staticmethod
    def retries(calls) -> int:
        from transrisk.gaussian import CHOLESKY_JITTER

        count = 0
        for (a, a_ok), (b, b_ok) in zip(calls, calls[1:]):
            jitter = CHOLESKY_JITTER * np.trace(a) / len(a)
            count += (not a_ok and b_ok
                      and np.array_equal(b, a + jitter * np.eye(len(a))))
        return count

    def test_gaussian_risk_ill_conditioned_input_block(self, tmp_path, monkeypatch):
        """An input block Σ_X with eigenvalues 4.7e-10 and 8.7e6: accepted,
        since λ_min > 1e-10, but numpy's Cholesky of it fails.  (Found by
        drawing d = 2 blocks with λ_max in 1e6–1e9 and λ_min near 1e-9.)"""
        target_cov = [[2960150.948563502, -4135835.876333927, -6789252.879749565],
                      [-4135835.876333927, 5778468.292055032, 9485744.518264493],
                      [-6789252.879749565, 9485744.518264493, 15571488.895762945]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array(target_cov)[:2, :2])
        spec = write_spec(tmp_path, {
            "version": 1, "kind": "gaussian_pair", "case": "basic",
            "source": task_doc(2, 1, [0.0, 0.0, 0.0],
                               [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]]),
            "target": task_doc(2, 1, [0.0, 0.0, 0.0], target_cov)})
        calls = self.record_cholesky(monkeypatch)
        assert main(["gaussian-risk", spec, "--out", str(tmp_path / "r.json")]) == 0
        assert self.retries(calls) >= 1

    def test_predict_with_tiny_source_lambda(self, prediction_job, monkeypatch):
        """λ_source = 1e-20 leaves X'X/t + λI singular to rounding: each
        ridge fit at that λ needs the retry."""
        tmp_path, job = prediction_job
        spec = write_spec(tmp_path, dict(job, lambda_source=1e-20), "tiny_lambda.json")
        calls = self.record_cholesky(monkeypatch)
        assert main(["predict", spec, "--out", str(tmp_path / "tiny.json")]) == 0
        assert self.retries(calls) == 2


class TestVerifyProps:
    def test_smoke_run_passes(self, tmp_path, capsys):
        code, report = run_report(capsys, ["verify-props", "--scale", "0.02",
                                           "--seed", "123"])
        err = capsys.readouterr().err
        assert code == 0
        assert report["results"]["all_passed"]
        assert len(report["results"]["sweeps"]) == 4

    def test_reports_the_true_min_slack(self, capsys):
        """The cross-entropy sweep's detail is the minimum slack over all
        trials, which is positive when every trial holds."""
        code, report = run_report(capsys, ["verify-props", "--scale", "0.05", "--seed", "1"])
        assert code == 0
        sweep = report["results"]["sweeps"][0]
        assert sweep["name"] == "cross-entropy gap bounds"
        prefix, value = sweep["detail"].rsplit(" ", 1)
        assert prefix == "min slack" and float(value) > 0.0

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "0"])
    def test_bad_scale_exit_2(self, capsys, scale):
        """A non-finite or non-positive --scale is rejected before any
        sweep runs."""
        assert main(["verify-props", f"--scale={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: ")

    @pytest.mark.parametrize("scale", ["1.8e304", "1e305", "1e308"])
    def test_scale_overflowing_sweep_size_exit_2(self, capsys, scale):
        """A finite --scale whose sweep size 10000 x scale overflows to
        infinity is rejected with one line, not an OverflowError."""
        assert main(["verify-props", f"--scale={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation error: --scale")

    @pytest.mark.parametrize("scale", ["1000.0000001", "1e4", "1.7e304"])
    def test_scale_above_cap_exit_2(self, capsys, monkeypatch, scale):
        """A --scale above 1000, whose largest sweep would exceed 10^7
        trials, exits 2 with one line before any sweep starts."""
        from transrisk import benchmarks

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(benchmarks, "run_property_sweeps", no_sweep)
        assert main(["verify-props", f"--scale={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"validation error: --scale must be in (0, 1000] (at most 10,000,000 trials "
            f"a sweep), got {float(scale)}"]

    def test_scale_at_cap_is_accepted(self, tmp_path, monkeypatch):
        from transrisk import benchmarks

        scales = []
        monkeypatch.setattr(benchmarks, "run_property_sweeps",
                            lambda seed, trials_scale: scales.append(trials_scale) or [])
        assert main(["verify-props", "--scale=1000", "--out", str(tmp_path / "r.json")]) == 0
        assert scales == [1000.0]

    def test_seed_taken_mod_2_64(self, capsys):
        """Seeds key a Philox stream modulo 2**64, so 2**64 and 2**80 run
        seed 0's sweeps; the report echoes the seed as given."""
        runs = {seed: run_report(capsys, ["verify-props", "--scale", "0.01",
                                          "--seed", str(seed)])
                for seed in (0, 2 ** 64, 2 ** 80)}
        for seed, (code, report) in runs.items():
            assert code == 0
            assert report["inputs"]["seed"] == seed
            assert report["results"] == runs[0][1]["results"]


# --- unreadable inputs and unwritable reports --------------------------------

INPUT_ROLES = {
    "gaussian-risk": ("spec",),
    "office-table": ("csv",),
    "predict": ("spec", "source_csv", "target_csv"),
    "portfolio": ("spec", "source_csv", "target_train_csv", "target_test_csv"),
}
BAD_FILE_CASES = [(command, role, fault)
                  for command, roles in INPUT_ROLES.items() for role in roles
                  for fault in ("missing", "directory", "not_utf8")]
BAD_FILE_CASES += [(command, role, "oversized_cell") for command, roles in INPUT_ROLES.items()
                   for role in roles if role.endswith("csv")]
BAD_FILE_CASES += [(command, "out", "unwritable") for command in INPUT_ROLES]
BAD_FILE_CASES.append(("predict", "features_out", "unwritable"))


def good_run(tmp_path, command):
    """argv of a run of ``command`` that exits 0, and its input files by role."""
    if command == "gaussian-risk":
        files = {"spec": write_spec(tmp_path, BASIC_SPEC)}
        return ["gaussian-risk", files["spec"]], files
    if command == "office-table":
        path = tmp_path / "rows.csv"
        path.write_text("label,input_risk,output_risk\nmine,0.181,0.428\n")
        return ["office-table", "--csv", str(path)], {"csv": str(path)}
    if command == "predict":
        files = {"source_csv": write_price_csv(tmp_path / "src.csv", seed=100),
                 "target_csv": write_price_csv(tmp_path / "target.csv", seed=55)}
        job = {"version": 1, "kind": "regression_job",
               "source_csvs": [files["source_csv"]], "target_csv": files["target_csv"],
               "lag": 2, "order": 2, "split_date": "2023-04-15"}
        files["spec"] = write_spec(tmp_path, job, "job.json")
        return ["predict", files["spec"]], files
    spec = TestPortfolio.make_job(tmp_path)
    job = parse_document(Path(spec).read_text())
    files = {role: job[role] for role in INPUT_ROLES["portfolio"][1:]}
    files["spec"] = spec
    return ["portfolio", spec], files


@pytest.mark.parametrize("command, role, fault", BAD_FILE_CASES,
                         ids=["-".join(case) for case in BAD_FILE_CASES])
def test_bad_file_exit_2(tmp_path, capsys, command, role, fault):
    """A missing, directory or non-UTF-8 spec or CSV, a CSV cell of
    140,000 digits (over the csv module's 131,072-character field limit),
    and an --out or --features-out that cannot be written, end in exit 2
    with one diagnostic line."""
    argv, files = good_run(tmp_path, command)
    if fault == "unwritable":
        argv += ["--" + role.replace("_", "-"), str(tmp_path)]
    else:
        path = Path(files[role])
        if fault == "not_utf8":
            path.write_bytes(b"\xff" + path.read_bytes())
        elif fault == "oversized_cell":
            lines = path.read_text().splitlines()
            fields = lines[1].split(",")
            lines[1] = ",".join(fields[:1] + ["9" * 140_000] + fields[2:])
            path.write_text("\n".join(lines) + "\n")
        else:
            path.unlink()
            if fault == "directory":
                path.mkdir()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("validation error: ")
