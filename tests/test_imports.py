"""Import surface: no command loads scipy or jsonschema, whether it
exits 0 or rejects its spec; docio words its own rejections.
Every solver, closed form and --verify oracle runs on numpy; scipy is a
test-only dependency, the reference some tests check against.  The
cubature oracles build their points with numpy alone, so neither the
package nor --verify loads numpy.polynomial.  And only ``gaussian``
names numpy's matrix decompositions: a law decomposes its covariance.
Each subcommand loads only the package modules it runs.

Each check runs in a fresh interpreter, because the test process has
long since imported scipy.
"""

import ast
import json
import os
import re
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


def test_mc_import_loads_no_numpy_random():
    """numpy.random loads at mc's first draw, not when mc is imported."""
    assert loaded_after("import transrisk.cli, transrisk.mc", ["numpy.random"]) == []


def test_stream_normals_load_no_scipy():
    """The oracle normals are numpy's ziggurat, not scipy's inverse CDF."""
    assert scipy_modules(loaded_after(
        "from transrisk.mc import SeededStream\nSeededStream(0).normals(10)")) == []


def test_gaussian_risk_without_verify_skips_oracle_modules(tmp_path):
    spec = write_spec(tmp_path, BASIC_SPEC)
    loaded = cli_loads(["gaussian-risk", spec, "--out", str(tmp_path / "r.json")])
    assert scipy_modules(loaded) == []
    assert "jsonschema" not in loaded


@pytest.mark.parametrize("case", list(SPECS))
def test_gaussian_risk_verify_loads_no_scipy(tmp_path, case):
    """Every --verify oracle runs on numpy: the 1-D KL and the regret by
    cubature, the 1-D W2 by sampling.  The output_aug laws are wider and
    have no oracle, so that run does not load mc."""
    spec, out = write_spec(tmp_path, SPECS[case]), tmp_path / "r.json"
    loaded = cli_loads(["gaussian-risk", spec, "--verify", "--out", str(out)],
                       ["scipy", "numpy.polynomial", "transrisk.mc"])
    assert loaded == ([] if case == "output_aug" else ["transrisk.mc"])
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


def portfolio_job(tmp_path) -> str:
    rng = np.random.default_rng(3)
    returns = lambda n: rng.normal(0.0005, 0.01, size=(n, 3))
    job = {"version": 1, "kind": "portfolio_job",
           "source_csv": write_returns_csv(tmp_path / "source.csv", returns(300)),
           "target_train_csv": write_returns_csv(tmp_path / "train.csv", returns(120)),
           "target_test_csv": write_returns_csv(tmp_path / "test.csv", returns(150)),
           "penalty": 0.2, "seed": 3}
    return write_spec(tmp_path, job, "pjob.json")


def test_portfolio_loads_no_scipy(tmp_path):
    loaded = cli_loads(["portfolio", portfolio_job(tmp_path), "--out", str(tmp_path / "r.json")])
    assert scipy_modules(loaded) == []


def passing_runs(tmp_path) -> dict[str, list[str]]:
    """argv of runs that exit 0, by label: one of each of the five
    subcommands, and gaussian-risk with --verify."""
    job = {"version": 1, "kind": "regression_job",
           "source_csvs": [write_price_csv(tmp_path / "src.csv", seed=100)],
           "target_csv": write_price_csv(tmp_path / "target.csv", seed=55),
           "lag": 2, "order": 2, "split_date": "2023-04-15"}
    spec = write_spec(tmp_path, BASIC_SPEC)
    runs = {
        "gaussian-risk": ["gaussian-risk", spec],
        "gaussian-risk-verify": ["gaussian-risk", spec, "--verify"],
        "predict": ["predict", write_spec(tmp_path, job, "job.json")],
        "portfolio": ["portfolio", portfolio_job(tmp_path)],
        "office-table": ["office-table", "--builtin"],
        "verify-props": ["verify-props", "--scale", "0.01"],
    }
    return {label: argv + ["--out", str(tmp_path / f"r{i}.json")]
            for i, (label, argv) in enumerate(runs.items())}


# The package modules each run loads beyond ``import transrisk.cli`` (the
# package root, cli, docio and errors).  Only gaussian-risk --verify and
# verify-props load the sampler, mc.
LOADED_BY = {
    "gaussian-risk": {"gauss_transfer", "gaussian"},
    "gaussian-risk-verify": {"gauss_transfer", "gaussian", "mc"},
    "predict": {"divergence", "gaussian", "regression", "signature"},
    "portfolio": {"gaussian", "portfolio"},
    "office-table": {"risk"},
    "verify-props": {"benchmarks", "divergence", "gauss_transfer", "gaussian", "mc",
                     "portfolio", "regression", "signature"},
}
CLI_IMPORT = {"transrisk", "transrisk.cli", "transrisk.docio", "transrisk.errors"}


def test_cli_import_loads_only_docio_and_errors():
    """The package root re-exports nothing, and cli imports each
    command's modules when the command runs."""
    assert set(loaded_after("import transrisk.cli", ["transrisk"])) == CLI_IMPORT


def test_building_the_parser_loads_only_docio_and_errors():
    """The --verify help states no sample count, so the parser needs no mc."""
    loaded = loaded_after("import transrisk.cli\ntransrisk.cli.build_parser()", ["transrisk"])
    assert set(loaded) == CLI_IMPORT


@pytest.mark.parametrize("run", list(LOADED_BY))
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, run):
    """gaussian-risk loads mc only under --verify; portfolio loads no
    gauss_transfer, signature or regression; predict no portfolio or
    gauss_transfer; office-table no gauss_transfer, whose closed forms
    only risk's continuity probes run; and only verify-props loads
    benchmarks."""
    loaded = set(cli_loads(passing_runs(tmp_path)[run], watched=("transrisk",)))
    assert loaded == CLI_IMPORT | {f"transrisk.{name}" for name in LOADED_BY[run]}


def test_every_subcommand_runs_without_scipy(tmp_path):
    """With ``import scipy`` made to fail, each of the five subcommands
    still exits 0."""
    runs = passing_runs(tmp_path).values()
    code = "sys.modules['scipy'] = None\nfrom transrisk import cli\n" + "".join(
        f"assert cli.main({argv!r}) == 0\n" for argv in runs)
    loaded_after(code)  # raises unless every call exits 0
    for i in range(len(runs)):
        assert json.loads((tmp_path / f"r{i}.json").read_text())["version"] == 1


def test_every_subcommand_exits_0_without_jsonschema(tmp_path):
    """Each of the five subcommands validates its spec and report and
    exits 0 without loading jsonschema."""
    code = "from transrisk import cli\n" + "".join(
        f"assert cli.main({argv!r}) == 0\n" for argv in passing_runs(tmp_path).values())
    assert loaded_after(code, ["jsonschema"]) == []


# a spec of each kind that fails its schema, and the message it exits 2 with
REJECTED = {
    "gaussian-risk": (dict(BASIC_SPEC, source=dict(BASIC_SPEC["source"], dim_x=2.0)),
                      "2.0 is not of type 'integer'"),
    "predict": ({"version": 1, "kind": "regression_job", "source_csvs": ["a.csv"],
                 "target_csv": "t.csv", "lag": 2, "order": 0.5, "split_date": "2024-01-01"},
                "0.5 is not valid under any of the given schemas"),
    "portfolio": ({"version": 1, "kind": "portfolio_job", "source_csv": "s.csv",
                   "target_train_csv": "tr.csv", "target_test_csv": "te.csv", "seed": -1},
                  "-1 is less than the minimum of 0"),
}


@pytest.mark.parametrize("blocked", [False, True], ids=["loadable", "blocked"])
def test_rejected_specs_exit_2_without_jsonschema(tmp_path, blocked):
    """A spec of each kind that fails its schema exits 2 with the line
    jsonschema's ``best_match`` words for it, in a fresh interpreter,
    and loads no jsonschema, even with ``import jsonschema`` made to
    fail."""
    code = ("import contextlib, io\n" + "sys.modules['jsonschema'] = None\n" * blocked
            + "from transrisk import cli\n")
    for command, (doc, message) in REJECTED.items():
        spec = write_spec(tmp_path, doc, f"{command}.json")
        line = f"validation error: spec failed validation: {message}\n"
        code += ("err = io.StringIO()\nwith contextlib.redirect_stderr(err):\n"
                 f"    assert cli.main([{command!r}, {spec!r}]) == 2\n"
                 f"assert err.getvalue() == {line!r}, err.getvalue()\n")
    assert loaded_after(code, ["jsonschema"]) == ["jsonschema"] * blocked  # the None entry


def imports_of(tree: ast.AST, package: str) -> list[ast.stmt]:
    """The import statements in ``tree`` that load ``package`` or one of
    its modules."""
    loads = lambda name: name is not None and name.split(".")[0] == package
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(loads(a.name) for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0 and loads(node.module)]


def test_no_module_imports_jsonschema():
    """docio validates and words rejections itself: no module of the
    package imports jsonschema, anywhere."""
    for path in sorted(Path(SRC, "transrisk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert imports_of(tree, "jsonschema") == [], path.name


@pytest.mark.parametrize("path", sorted(Path(SRC, "transrisk").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imports_of(tree, "scipy") == []


def requirement_names(key: str) -> list[str]:
    """The names of pyproject's requirements under ``key``: "runtime",
    or an extra."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml")
                            .read_text())["project"]
    reqs = project["dependencies"] if key == "runtime" else project["optional-dependencies"][key]
    return [re.match(r"[A-Za-z0-9_.-]+", r).group() for r in reqs]


def test_scipy_is_a_test_dependency_only():
    assert "scipy" not in requirement_names("runtime")
    assert "scipy" in requirement_names("test")


def test_numpy_is_the_only_runtime_dependency():
    """jsonschema is the test-side reference of docio's messages only."""
    assert requirement_names("runtime") == ["numpy"]
    assert "jsonschema" in requirement_names("test")


DECOMPOSITIONS = {"cholesky", "eigh", "eigvalsh", "slogdet"}


@pytest.mark.parametrize("path", [p for p in sorted(Path(SRC, "transrisk").glob("*.py"))
                                  if p.name != "gaussian.py"], ids=lambda p: p.name)
def test_only_gaussian_decomposes_a_matrix(path):
    """A covariance is decomposed by the ``GaussianDist`` that owns it, so
    no module but ``gaussian`` names numpy's Cholesky, ``eigh``,
    ``eigvalsh`` or ``slogdet``, by attribute or by import.  (The
    least-squares solves of ``portfolio._nnls`` are not covered.)"""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS
             or isinstance(node, ast.ImportFrom)
             and any(alias.name in DECOMPOSITIONS for alias in node.names)]
    assert found == []
