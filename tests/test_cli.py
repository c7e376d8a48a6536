"""End-to-end command-line tests: reports, exit codes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from transrisk.cli import main
from transrisk.docio import canonical_json, parse_document, validate_report

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
        block, so --verify costs no second evaluation of any basic form."""
        from transrisk import cli

        calls = {}
        for name in ("basic_output_risk_w", "regret_risk_identity", "basic_output_risk_kl"):
            def counting(pair, _name=name, _fn=getattr(cli, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(pair)
            monkeypatch.setattr(cli, name, counting)
        spec = write_spec(tmp_path, BASIC_SPEC)
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify", "--seed", "7",
                                           "--mc-samples", "20000"])
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
        code, report = run_report(capsys, [
            "gaussian-risk", spec, "--verify", "--seed", "7",
            "--mc-samples", "100000"])
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

    def test_byte_identical_reports(self, tmp_path):
        spec = write_spec(tmp_path, BASIC_SPEC)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["gaussian-risk", spec, "--verify", "--seed", "3",
                     "--mc-samples", "50000", "--out", str(out1)]) == 0
        assert main(["gaussian-risk", spec, "--verify", "--seed", "3",
                     "--mc-samples", "50000", "--out", str(out2)]) == 0
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
            assert main(["gaussian-risk", spec, "--verify", "--mc-samples", "400"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("validation error: non-finite")

    @pytest.mark.parametrize("verify", [[], ["--verify", "--mc-samples", "400"]])
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
        code, report = run_report(capsys, ["gaussian-risk", spec, "--verify",
                                           "--mc-samples", "50000"])
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
        case, while the W2 entry still runs under --verify."""
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
        entries = report["oracle_check"]["entries"]
        assert [e["name"] for e in entries] == ["w2_vs_generic_divergence"]
        assert report["oracle_check"]["all_within"]

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
            assert "numerical error" in capsys.readouterr().err
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

    def test_one_pipeline_estimates_each_history_once(self, tmp_path, capsys,
                                                       monkeypatch):
        """One job is one ``transfer_portfolio`` call, which estimates the
        moments of each of its three return histories once."""
        from transrisk import cli, portfolio

        calls = {"estimate_moments": 0, "transfer_portfolio": 0}

        def counting(module, name):
            def counted(*args, _fn=getattr(module, name), **kwargs):
                calls[name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(portfolio, "estimate_moments")
        counting(cli, "transfer_portfolio")
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
    """A missing, directory or non-UTF-8 spec or CSV, and an --out or
    --features-out that cannot be written, end in exit 2 with one
    diagnostic line."""
    argv, files = good_run(tmp_path, command)
    if fault == "unwritable":
        argv += ["--" + role.replace("_", "-"), str(tmp_path)]
    else:
        path = Path(files[role])
        if fault == "not_utf8":
            path.write_bytes(b"\xff" + path.read_bytes())
        else:
            path.unlink()
            if fault == "directory":
                path.mkdir()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("validation error: ")
