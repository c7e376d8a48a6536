"""Import surface: scipy and jsonschema load on the first call that needs
them, not when the package or the CLI is imported.  scipy is reached
only by the NNLS of the unanchored Sharpe solve, so the closed forms,
every --verify oracle, predict, office-table and the property sweeps
load none.  The cubature oracles build their points with numpy alone,
so neither the package nor --verify loads numpy.polynomial.

Each check runs in a fresh interpreter, because the test process has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transrisk
from test_cli import BASIC_SPEC, write_price_csv, write_returns_csv, write_spec
from test_fuzz import SPECS

SRC = str(Path(transrisk.__file__).resolve().parents[1])


def scipy_modules(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m.split(".")[0] == "scipy"]


def loaded_after(code: str, watched=("scipy", "jsonschema")) -> list[str]:
    """The modules in the ``watched`` packages loaded by running ``code``
    in a fresh interpreter, after numpy."""
    script = (
        "import sys\nimport numpy\n" + code + "\n"
        "import json\n"
        f"watched = {tuple(watched)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if any(m == w or m.startswith(w + '.') for w in watched))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_loads(argv: list[str], watched=("scipy", "jsonschema")) -> list[str]:
    """The watched modules loaded by one ``cli.main(argv)`` call that exits 0."""
    return loaded_after(f"from transrisk import cli\nassert cli.main({argv!r}) == 0", watched)


def test_package_and_cli_import_load_no_scipy_or_jsonschema():
    assert loaded_after("import transrisk, transrisk.cli") == []


def test_package_import_loads_no_numpy_polynomial():
    """No command pays for numpy.polynomial at start-up."""
    assert loaded_after("import transrisk, transrisk.cli", ["numpy.polynomial"]) == []


def test_stream_normals_load_no_scipy():
    """The oracle normals are numpy's ziggurat, not scipy's inverse CDF."""
    assert scipy_modules(loaded_after(
        "from transrisk.mc import SeededStream\nSeededStream(0).normals(10)")) == []


def test_gaussian_risk_without_verify_skips_oracle_modules(tmp_path):
    spec = write_spec(tmp_path, BASIC_SPEC)
    loaded = cli_loads(["gaussian-risk", spec, "--out", str(tmp_path / "r.json")])
    assert scipy_modules(loaded) == []
    assert "jsonschema" in loaded  # the spec and report are still validated


@pytest.mark.parametrize("case", list(SPECS))
def test_gaussian_risk_verify_loads_no_scipy(tmp_path, case):
    """Every --verify oracle runs on numpy: the 1-D KL and the regret by
    cubature, the rest by sampling or the generic divergences."""
    spec, out = write_spec(tmp_path, SPECS[case]), tmp_path / "r.json"
    loaded = cli_loads(["gaussian-risk", spec, "--verify", "--out", str(out)],
                       ["scipy", "numpy.polynomial"])
    assert loaded == []
    # the basic and feature_aug laws are 1-D, so their KL oracle ran
    names = {e["name"] for e in json.loads(out.read_text())["oracle_check"]["entries"]}
    assert ("kl_vs_quadrature" in names) == (case != "output_aug")


def test_office_table_builtin_loads_no_scipy(tmp_path):
    assert scipy_modules(cli_loads(["office-table", "--builtin",
                                    "--out", str(tmp_path / "r.json")])) == []


def test_predict_skips_oracle_modules(tmp_path):
    job = {
        "version": 1, "kind": "regression_job",
        "source_csvs": [write_price_csv(tmp_path / "src.csv", seed=100)],
        "target_csv": write_price_csv(tmp_path / "target.csv", seed=55),
        "lag": 2, "order": 2, "lambda_source": 1.0, "lambda_transfer": 5.0,
        "split_date": "2023-04-15",
    }
    spec = write_spec(tmp_path, job, "job.json")
    loaded = cli_loads(["predict", spec, "--out", str(tmp_path / "r.json")])
    assert scipy_modules(loaded) == []


def test_verify_props_loads_no_scipy(tmp_path):
    loaded = cli_loads(["verify-props", "--scale", "0.01", "--out", str(tmp_path / "r.json")])
    assert scipy_modules(loaded) == []


def test_portfolio_skips_quadrature(tmp_path):
    rng = np.random.default_rng(3)
    returns = lambda n: rng.normal(0.0005, 0.01, size=(n, 3))
    job = {"version": 1, "kind": "portfolio_job",
           "source_csv": write_returns_csv(tmp_path / "source.csv", returns(300)),
           "target_train_csv": write_returns_csv(tmp_path / "train.csv", returns(120)),
           "target_test_csv": write_returns_csv(tmp_path / "test.csv", returns(150)),
           "penalty": 0.2, "seed": 3}
    spec = write_spec(tmp_path, job, "pjob.json")
    loaded = cli_loads(["portfolio", spec, "--out", str(tmp_path / "r.json")])
    assert "scipy.integrate" not in loaded
    assert "scipy.optimize" in loaded  # the unanchored solves are NNLS
