"""Seeded fuzz test of ``gaussian-risk``: mutated specs end in a clean
exit code, never a traceback.

Each example takes one of three valid specs (basic, feature_aug,
output_aug), mutates one or two of its leaves and runs the command in
process, once plain and once with ``--verify --mc-samples 400``.  The
seed and the example count are fixed, so every run checks the same
specs.  The contract checked:

* the exit code is 0, 2, 3 or 4 (an uncaught exception fails the test);
* exits 2 and 3 write exactly one line, counting any warning, which the
  command line would print to stderr, as a line;
* an exit-0 report is finite and byte-identical when the run is
  repeated.
"""

import contextlib
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
    return value + 1e-9 * rng.choice([-1, 1]), None


def mutated_text(rng):
    case = list(SPECS)[rng.integers(len(SPECS))]
    doc = json.loads(json.dumps(SPECS[case]))
    paths = list(leaf_paths(doc))
    chosen = rng.choice(len(paths), size=int(rng.integers(1, 3)), replace=False)
    raws = {}
    for j, i in enumerate(chosen):
        *parents, last = paths[i]
        node = doc
        for key in parents:
            node = node[key]
        token = f"@@raw{j}@@"
        node[last], raw = mutate(node[last], rng, token)
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
    lines = [str(w.message) for w in caught] + err.getvalue().splitlines()
    return code, out.getvalue(), lines


@pytest.mark.parametrize("verify", [[], ["--verify", "--mc-samples", "400"]],
                         ids=["plain", "verify"])
def test_mutated_specs_exit_cleanly(tmp_path, verify):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "spec.json"
    codes = []
    for example in range(EXAMPLES):
        text = mutated_text(rng)
        path.write_text(text)
        argv = ["gaussian-risk", str(path), *verify]
        code, out, lines = run(argv)
        where = f"example {example}: {text}"
        assert code in (0, 2, 3, 4), where
        if code in (2, 3):
            assert len(lines) == 1, f"{where}\n{lines}"
        if code == 0:
            parse_document(out)     # rejects NaN and ±Infinity
            assert run(argv)[1] == out, where
        codes.append(code)
    # every exit the contract allows for bad input is reached
    assert {0, 2, 3} <= set(codes)
