"""Each correctness check of the benchmark fires on a planted fault.

Run with ``python3 -m pytest bench/test_planted_faults.py`` from the
root of a checkout.  Every test first shows the check passing on the
program's real output, then plants a small fault in a copy of that
output and shows the check reporting it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


def one_round(cls, tmp_path, indices):
    workload = cls(7, tmp_path)
    ops = workload.bind()
    return workload, [ops[i]("t") for i in indices]


def bump(value, rel=1e-6):
    return value * (1.0 + rel)


# --- screen --------------------------------------------------------------------

@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    workload, (outcome,) = one_round(workloads.Screen, tmp_path_factory.mktemp("screen"), [3])
    return workload.round[3], outcome.value, workload.combiner


def test_screen_passes_on_program_output(screen):
    op, value, combiner = screen
    assert checks.screen_op(op, value, combiner) == []


@pytest.mark.parametrize("field", [0, 1, 2, 3])
def test_screen_closed_form_off_by_1e6(screen, field):
    op, (rows, best), combiner = screen
    rows = copy.deepcopy(rows)
    e_in, w, kl, identity = rows[5]
    parts = [e_in, list(w), list(kl), list(identity)]
    if field == 0:
        parts[0] = bump(e_in)
    else:
        parts[field][0] = bump(parts[field][0])
    rows[5] = (parts[0], tuple(parts[1]), tuple(parts[2]), tuple(parts[3]))
    assert checks.screen_op(op, (rows, best), combiner)


def test_screen_wrong_argmin(screen):
    op, (rows, (value, best_id)), combiner = screen
    assert checks.screen_op(op, (rows, (value, (best_id + 1) % len(rows))), combiner)


# --- verify ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    workload = workloads.Verify(7, tmp)
    ops = workload.bind()
    basic = next(i for i, (spec, _) in enumerate(workload.round) if spec["case"] == "basic")
    outcome = ops[basic]("t")
    return workload, workload.round[basic][0], outcome.code, json.loads(outcome.text())


def test_verify_passes_on_program_output(verify):
    workload, spec, code, doc = verify
    problems, scores = checks.verify_report(spec, code, doc, workload.report_schema)
    assert problems == []
    assert len(scores) == 2 and all(np.isfinite(scores))


@pytest.mark.parametrize("path", [("results", "regret"), ("results", "w", "total"),
                                  ("results", "kl", "bias_term")])
def test_verify_closed_form_off_by_1e6(verify, path):
    workload, spec, code, doc = verify
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bump(node[path[-1]])
    problems, _ = checks.verify_report(spec, code, doc, workload.report_schema)
    assert problems


def test_verify_report_outside_schema(verify):
    workload, spec, code, doc = verify
    doc = dict(doc, extra=1)
    problems, _ = checks.verify_report(spec, code, doc, workload.report_schema)
    assert problems


def honest_family(m=116):
    """m scores at the exact quantiles of N(0, 1): a family with no bias
    and unit spread, and no luck either way."""
    from scipy import stats
    return stats.norm.ppf((np.arange(1, m + 1) - 0.5) / m)


def test_family_gate_passes_honest_scores():
    assert checks.family_gate(honest_family()) == []


def test_family_gate_every_score_plus_half_se():
    assert checks.family_gate(honest_family() + 0.5)


def test_family_gate_one_score_far_out():
    z = honest_family()
    z[0] = 6.0
    assert checks.family_gate(z)


def test_family_gate_standard_errors_too_small():
    assert checks.family_gate(1.4 * honest_family())


# --- predict ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def predict(tmp_path_factory):
    workload, (outcome,) = one_round(workloads.Predict, tmp_path_factory.mktemp("predict"), [0])
    return workload, json.loads(outcome.text())


def test_predict_passes_on_program_output(predict):
    workload, doc = predict
    assert checks.predict_report(workload.round[0], workload.specs[0], doc,
                                 workload.report_schema) == []


@pytest.mark.parametrize("fit,key", [("direct", "mse"), ("transfer", "mse"),
                                     ("transfer", "transfer_risk"), ("direct", "corr")])
def test_predict_one_cell_off_by_1e6(predict, fit, key):
    workload, doc = predict
    doc = copy.deepcopy(doc)
    cell = doc["results"]["grid"][2]
    cell[fit][key] = bump(cell[fit][key])
    assert checks.predict_report(workload.round[0], workload.specs[0], doc,
                                 workload.report_schema)


def test_predict_grid_order_and_feature_dim(predict):
    workload, doc = predict
    swapped = copy.deepcopy(doc)
    grid = swapped["results"]["grid"]
    grid[0], grid[1] = grid[1], grid[0]
    assert checks.predict_report(workload.round[0], workload.specs[0], swapped,
                                 workload.report_schema)
    wrong_dim = copy.deepcopy(doc)
    wrong_dim["results"]["grid"][0]["feature_dim"] += 1
    assert checks.predict_report(workload.round[0], workload.specs[0], wrong_dim,
                                 workload.report_schema)


def test_reference_signature_matches_definition():
    """The batched reference signature against a direct, one-window
    evaluation of the level-2 iterated integrals of a linear path."""
    import reference as ref
    rng = np.random.default_rng(0)
    series = rng.normal(size=(6, 2))
    sig = ref.windowed_signatures(series, 6, 2)[0]
    path = np.column_stack([np.linspace(0.0, 1.0, 6), series])
    incs = np.diff(path, axis=0)
    level1 = incs.sum(axis=0)
    # ∫∫_{s<t} dX^i_s dX^j_t over a piecewise-linear path
    before = np.cumsum(incs, axis=0) - incs
    level2 = before.T @ incs + 0.5 * np.einsum("ki,kj->ij", incs, incs)
    np.testing.assert_allclose(sig, np.concatenate([[1.0], level1, level2.ravel()]),
                               rtol=1e-13, atol=1e-15)


# --- portfolio -------------------------------------------------------------------

# a job whose source market is shifted, so the prescreen risk is not 0
SHIFTED = [s for s in inputs.PORTFOLIO_SHIFTS
           for _ in range(inputs.PORTFOLIO_PER_CELL)].index(max(inputs.PORTFOLIO_SHIFTS))


@pytest.fixture(scope="module")
def portfolio(tmp_path_factory):
    workload, (outcome,) = one_round(workloads.Portfolio,
                                     tmp_path_factory.mktemp("portfolio"), [SHIFTED])
    return workload, json.loads(outcome.text())


def portfolio_problems(workload, doc):
    return checks.portfolio_report(workload.round[SHIFTED], inputs.PORTFOLIO_PENALTY, doc,
                                   workload.report_schema)


def test_portfolio_passes_on_program_output(portfolio):
    assert portfolio_problems(*portfolio) == []


@pytest.mark.parametrize("key", ["direct_weights", "pretrained_weights",
                                 "transferred_weights"])
def test_portfolio_weights_toward_uniform(portfolio, key):
    workload, doc = portfolio
    doc = copy.deepcopy(doc)
    w = np.asarray(doc["results"][key])
    doc["results"][key] = ((1 - 1e-3) * w + 1e-3 / w.size).tolist()
    assert portfolio_problems(workload, doc)


def test_portfolio_weights_off_simplex(portfolio):
    workload, doc = portfolio
    doc = copy.deepcopy(doc)
    doc["results"]["direct_weights"][0] += 1e-9
    assert portfolio_problems(workload, doc)


@pytest.mark.parametrize("key", ["direct_out_of_sample", "transferred_in_sample"])
def test_portfolio_sharpe_off_by_1e6(portfolio, key):
    workload, doc = portfolio
    doc = copy.deepcopy(doc)
    doc["results"]["sharpe"][key] = bump(doc["results"]["sharpe"][key])
    assert portfolio_problems(workload, doc)


def test_portfolio_prescreen_off_by_1e6(portfolio):
    workload, doc = portfolio
    doc = copy.deepcopy(doc)
    doc["results"]["prescreen_risk_sq"] = bump(doc["results"]["prescreen_risk_sq"])
    assert portfolio_problems(workload, doc)


# --- the run as a whole ------------------------------------------------------------

def test_later_round_that_differs_is_a_failure(tmp_path):
    import run
    workload = workloads.Screen(7, tmp_path)
    ops = workload.bind()
    rounds = [[op("a") for op in ops], [op("b") for op in ops]]
    assert run.evaluate(workload, rounds)[:2] == (True, 0)
    rows, (value, best) = rounds[1][4].value
    rounds[1][4] = Outcome(value=(rows, (bump(value), best)))
    correct, failed, _ = run.evaluate(workload, rounds)
    assert (correct, failed) == (False, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "screen", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
