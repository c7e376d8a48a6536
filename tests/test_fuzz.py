"""Seeded fuzz tests of the subcommands that read input files: mutated
inputs end in a clean exit code, never a traceback.

For ``gaussian-risk``, each example takes one of three valid specs
(basic, feature_aug, output_aug), mutates one or two of its leaves and
runs the command in process, once plain and once with ``--verify``.
For ``office-table --csv``, ``predict`` and ``portfolio``, each example
mutates one input CSV (a cell, a header field or a row's shape) or one
or two leaves of the job spec.  The flag examples run ``verify-props``
and ``gaussian-risk`` on valid inputs with drawn ``--scale``, ``--seed``
and ``--variant`` values.  The seeds and the example counts are fixed,
so every run checks the same inputs.  The contract checked:

* the exit code is 0, 2, 3 or 4 (an uncaught exception fails the test);
* no run raises a Python warning, which the command line would print
  to stderr, whatever its exit code;
* exits 2 and 3 write exactly one line to stderr;
* an exit-0 report is finite and byte-identical when the run is
  repeated.
"""

import contextlib
import datetime
import io
import json
import warnings

import numpy as np
import pytest

from transrisk.cli import main
from transrisk.docio import parse_document

SEED = 20_261_019
EXAMPLES = 600

SPECS = {
    "basic": {
        "version": 1, "kind": "gaussian_pair", "case": "basic",
        "source": {"dim_x": 2, "dim_y": 1, "mean": [0.1, -0.2, 0.3],
                   "cov": [[1.0, 0.2, 0.5], [0.2, 1.5, 0.1], [0.5, 0.1, 1.2]]},
        "target": {"dim_x": 2, "dim_y": 1, "mean": [0.0, 0.4, -0.1],
                   "cov": [[1.2, -0.1, 0.6], [-0.1, 0.9, 0.3], [0.6, 0.3, 1.4]]},
    },
    "feature_aug": {
        "version": 1, "kind": "gaussian_pair", "case": "feature_aug",
        "source": {"dim_x": 1, "dim_y": 1, "mean": [0.2, 0.5],
                   "cov": [[1.0, 0.4], [0.4, 1.1]]},
        "target": {"dim_x": 2, "dim_y": 1, "mean": [0.2, -0.3, 0.5],
                   "cov": [[1.0, 0.1, 0.4], [0.1, 0.8, 0.3], [0.4, 0.3, 1.1]]},
    },
    "output_aug": {
        "version": 1, "kind": "gaussian_pair", "case": "output_aug",
        "source": {"dim_x": 2, "dim_y": 1, "mean": [0.1, 0.2, -0.3],
                   "cov": [[1.0, 0.2, 0.4], [0.2, 1.3, 0.1], [0.4, 0.1, 1.1]]},
        "target": {"dim_x": 2, "dim_y": 2, "mean": [0.1, 0.2, -0.3, 0.6],
                   "cov": [[1.0, 0.2, 0.4, 0.3], [0.2, 1.3, 0.1, -0.2],
                           [0.4, 0.1, 1.1, 0.2], [0.3, -0.2, 0.2, 1.6]]},
        "init_model": {"weight": [[0.2, -0.1]], "intercept": [0.5]},
    },
}

# mutations written as raw JSON text, which json.dumps cannot produce
RAW = ("NaN", "Infinity", "-Infinity", "9" * 400, "9" * 5000)
WRONG_TYPES = ("x", None, True, [], {})


def leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def mutate(value, rng, raw_token):
    """A mutated leaf, or ``raw_token`` to be replaced by a RAW text."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    kinds = ["raw", "type"] + (["scale", "extreme", "sign", "nudge"] if numeric else [])
    kinds += ["float"] if numeric and isinstance(value, int) else []
    kind = kinds[rng.integers(len(kinds))]
    if kind == "raw":
        return raw_token, RAW[rng.integers(len(RAW))]
    if kind == "type":
        return WRONG_TYPES[rng.integers(len(WRONG_TYPES))], None
    if kind == "scale":
        return value * 10.0 ** (12 * rng.choice([-1, 1])), None
    if kind == "extreme":
        return float(rng.choice([1e300, -1e300, 1e-300, -1e-300])), None
    if kind == "sign":
        return -value, None
    if kind == "float":
        return float(value), None
    return value + 1e-9 * rng.choice([-1, 1]), None


def mutated_text(rng):
    case = list(SPECS)[rng.integers(len(SPECS))]
    return mutated_json(json.loads(json.dumps(SPECS[case])), rng)


def mutated_json(doc, rng, mutate_leaf=mutate):
    """JSON text of ``doc`` with one or two leaves mutated in place."""
    paths = list(leaf_paths(doc))
    chosen = rng.choice(len(paths), size=int(rng.integers(1, 3)), replace=False)
    raws = {}
    for j, i in enumerate(chosen):
        *parents, last = paths[i]
        node = doc
        for key in parents:
            node = node[key]
        token = f"@@raw{j}@@"
        node[last], raw = mutate_leaf(node[last], rng, token)
        if raw is not None:
            raws[token] = raw
    text = json.dumps(doc)
    for token, raw in raws.items():
        text = text.replace(f'"{token}"', raw)
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines(), [str(w.message) for w in caught]


def assert_contract(argv, where):
    """Run ``argv``, check the exit-code contract and return the code."""
    code, out, lines, warned = run(argv)
    assert code in (0, 2, 3, 4), where
    assert warned == [], f"{where}\nexit {code}: {warned}"
    if code in (2, 3):
        assert len(lines) == 1, f"{where}\n{lines}"
    if code == 0:
        parse_document(out)     # rejects NaN and ±Infinity
        assert run(argv)[1] == out, where
    return code


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_mutated_specs_exit_cleanly(tmp_path, verify):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "spec.json"
    codes = []
    for example in range(EXAMPLES):
        text = mutated_text(rng)
        path.write_text(text)
        argv = ["gaussian-risk", str(path), *verify]
        codes.append(assert_contract(argv, f"example {example}: {text}"))
    # every exit the contract allows for bad input is reached
    assert {0, 2, 3} <= set(codes)


# --- predict, portfolio and office-table --csv -------------------------------

CSV_EXAMPLES = 120

# replacement texts for a CSV cell, a CSV header field and a string spec leaf
CELLS = ("", " ", "x", "nan", "inf", "-inf", "1e309", "-1", "0", "1e300", "-1e300",
         "1e-300", "9" * 400, "2023-02-30", "2023-01-02")
HEADERS = ("", "x", "Date", " close ", "a0", "label")
TEXTS = ("", "x", "2023-02-30", "9999-12-31", "missing.csv")


def price_csv(rng, n):
    day = datetime.date(2023, 1, 2)
    lines = ["date,close,volume"]
    for close, volume in zip(100.0 * np.exp(np.cumsum(rng.normal(scale=0.01, size=n))),
                             1e6 * np.exp(rng.normal(scale=0.05, size=n))):
        lines.append(f"{day.isoformat()},{close:.6f},{volume:.2f}")
        day += datetime.timedelta(days=1)
    return "\n".join(lines) + "\n"


def returns_csv(rng, n, d=3):
    day = datetime.date(2023, 1, 2)
    lines = ["date," + ",".join(f"a{i}" for i in range(d))]
    for row in rng.normal(0.0005, 0.01, size=(n, d)):
        lines.append(day.isoformat() + "," + ",".join(f"{r:.6f}" for r in row))
        day += datetime.timedelta(days=1)
    return "\n".join(lines) + "\n"


def csv_commands(tmp_path):
    """Per subcommand: its valid input files as texts, its job spec (None
    for office-table) and its argv."""
    rng = np.random.default_rng(SEED)
    path = lambda name: str(tmp_path / name)
    rows = "".join(f"r{i},{a:.3f},{b:.3f}\n" for i, (a, b) in
                   enumerate(rng.uniform(0.05, 0.6, size=(4, 2))))
    return {
        "office-table": ({"rows.csv": "label,input_risk,output_risk\n" + rows}, None,
                         ["office-table", "--csv", path("rows.csv")]),
        "predict": ({"src.csv": price_csv(rng, 90), "target.csv": price_csv(rng, 90)},
                    {"version": 1, "kind": "regression_job",
                     "source_csvs": [path("src.csv")], "target_csv": path("target.csv"),
                     "lag": 2, "order": 2, "lambda_source": 1.0, "lambda_transfer": 5.0,
                     "split_date": "2023-03-01"},
                    ["predict", path("job.json")]),
        "portfolio": ({"source.csv": returns_csv(rng, 80), "train.csv": returns_csv(rng, 40),
                       "test.csv": returns_csv(rng, 40)},
                      {"version": 1, "kind": "portfolio_job", "source_csv": path("source.csv"),
                       "target_train_csv": path("train.csv"),
                       "target_test_csv": path("test.csv"), "penalty": 0.2, "seed": 3},
                      ["portfolio", path("job.json")]),
    }


def mutate_job_leaf(value, rng, raw_token):
    """A mutated job-spec leaf: a string leaf (a path or a date) is half
    the time replaced by one of TEXTS."""
    if isinstance(value, str) and rng.integers(2):
        return TEXTS[rng.integers(len(TEXTS))], None
    return mutate(value, rng, raw_token)


def mutated_csv(text, rng):
    """``text`` with one data cell or header field replaced, or one row
    dropped, repeated, cut short or extended by a field."""
    rows = [line.split(",") for line in text.splitlines()]
    kind = rng.integers(3)
    if kind == 0:
        i = rng.integers(1, len(rows))
        j = rng.integers(len(rows[i]))
        cell = rows[i][j]
        scaled = [repr(float(cell) * 10.0 ** (12 * rng.choice([-1, 1])))] if j else []
        choices = list(CELLS) + scaled
        rows[i][j] = choices[rng.integers(len(choices))]
    elif kind == 1:
        rows[0][rng.integers(len(rows[0]))] = HEADERS[rng.integers(len(HEADERS))]
    else:
        i = rng.integers(1, len(rows))
        shape = rng.integers(4)
        if shape == 0:
            del rows[i]
        elif shape == 1:
            rows.insert(i, list(rows[i]))
        elif shape == 2:
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + [rows[i][-1]]
    return "\n".join(",".join(row) for row in rows) + "\n"


CSV_COMMANDS = ("office-table", "predict", "portfolio")


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_mutated_csv_inputs_exit_cleanly(tmp_path, command):
    """Each example mutates one input CSV (a cell, a header field or a
    row's shape) or, half the time when there is one, the job spec's
    leaves, and runs the subcommand in process."""
    files, job, argv = csv_commands(tmp_path)[command]
    rng = np.random.default_rng([SEED, CSV_COMMANDS.index(command)])
    codes = []
    for example in range(CSV_EXAMPLES):
        texts = dict(files)
        if job is not None:
            texts["job.json"] = json.dumps(job)
        if job is not None and rng.integers(2):
            texts["job.json"] = mutated_json(json.loads(texts["job.json"]), rng,
                                             mutate_job_leaf)
            where = texts["job.json"]
        else:
            name = sorted(files)[rng.integers(len(files))]
            texts[name] = mutated_csv(texts[name], rng)
            where = f"{name}:\n{texts[name]}"
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        codes.append(assert_contract(argv, f"{command} example {example}: {where}"))
    assert {0, 2} <= set(codes)


# --- flags -------------------------------------------------------------------

FLAG_EXAMPLES = 200

# --scale values that exit 2 or run at most the sweep sizes of --scale 0.01
SCALES = ("nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-300", "1e-300", "1e-3",
          "1e305", "1e308")
SEEDS = ("0", "-1", "7", str(2 ** 63), str(2 ** 64), str(2 ** 80), str(-2 ** 80))
VARIANTS = ("kl", "w", "both")


def test_flags_exit_cleanly(tmp_path):
    """Each example runs ``verify-props`` with a drawn --scale and --seed,
    or ``gaussian-risk`` on one of the valid SPECS with a drawn --variant
    and --seed, half the time with --verify."""
    rng = np.random.default_rng([SEED, 1 + len(CSV_COMMANDS)])
    pick = lambda values: values[rng.integers(len(values))]
    paths = []
    for case, spec in SPECS.items():
        paths.append(tmp_path / f"{case}.json")
        paths[-1].write_text(json.dumps(spec))
    codes = []
    for example in range(FLAG_EXAMPLES):
        if rng.integers(2):
            argv = ["verify-props", f"--scale={pick(SCALES)}", f"--seed={pick(SEEDS)}"]
        else:
            argv = ["gaussian-risk", str(pick(paths)), f"--variant={pick(VARIANTS)}",
                    f"--seed={pick(SEEDS)}"]
            argv += ["--verify"] if rng.integers(2) else []
        codes.append(assert_contract(argv, f"flag example {example}: {argv}"))
    assert {0, 2} <= set(codes)
