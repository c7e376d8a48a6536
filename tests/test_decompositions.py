"""Each covariance is decomposed once, by the Gaussian law that owns it.

Every ``np.linalg`` decomposition (Cholesky, ``eigh``, ``eigvalsh``,
``slogdet``) is wrapped and counted, with the distinct matrices it ran
on.  The inputs are the benchmark's own rounds, from ``bench/inputs.py``."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from transrisk.cli import main
from transrisk.portfolio import ReturnsDataset, transfer_portfolio

DECOMPOSITIONS = ("cholesky", "eigh", "eigvalsh", "slogdet")
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def bench_inputs():
    if "bench_inputs" not in sys.modules:  # registered first: its dataclasses look it up
        spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
        sys.modules["bench_inputs"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["bench_inputs"])
    return sys.modules["bench_inputs"]


class Decompositions:
    """Counts of each decomposition, and the distinct matrices seen."""

    def __init__(self, monkeypatch):
        self.calls, self.matrices = Counter(), set()
        for name in DECOMPOSITIONS:
            monkeypatch.setattr(np.linalg, name, self.counted(name, getattr(np.linalg, name)))

    def counted(self, name, decompose):
        def wrapper(a, *args, **kwargs):
            a = np.asarray(a)
            self.calls[name] += 1
            self.matrices.add((a.shape, a.tobytes()))
            return decompose(a, *args, **kwargs)
        return wrapper

    def per_matrix(self) -> float:
        return sum(self.calls.values()) / len(self.matrices)


def test_transfer_portfolio_decomposes_each_law_once(monkeypatch):
    """Three histories: one ``eigh`` per moment law, the Cholesky factors
    of the two laws solved without an anchor, and one ``eigvalsh`` for
    the Bures cross term of the prescreen."""
    rng = np.random.default_rng(3)
    source, train, test = (ReturnsDataset(rng.normal(0.0005, 0.01, size=(n, 3)))
                           for n in (300, 120, 150))
    count = Decompositions(monkeypatch)
    transfer_portfolio(source, train, test, 0.2)
    assert count.calls == Counter(eigh=3, cholesky=2, eigvalsh=1)


def test_portfolio_round_per_distinct_matrix(monkeypatch):
    inputs = bench_inputs()
    jobs = inputs.portfolio_round(0)
    count = Decompositions(monkeypatch)
    for job in jobs:
        transfer_portfolio(*map(ReturnsDataset, (job.source, job.train, job.test)),
                           inputs.PORTFOLIO_PENALTY)
    assert count.per_matrix() <= 1.5, count.calls


def test_verify_round_count_is_reported(monkeypatch, tmp_path):
    """Printed (``pytest -rP`` shows it), not gated: ``optimal_weight``
    still factors its input block on every call, so most of this round's
    Cholesky calls repeat."""
    count = Decompositions(monkeypatch)
    for i, (spec, seed) in enumerate(bench_inputs().verify_round(0)):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        code = main(["gaussian-risk", str(path), "--verify", "--seed", str(seed),
                     "--out", str(tmp_path / f"report{i}.json")])
        assert code in (0, 4)
    print(f"verify round 0: {dict(count.calls)} on {len(count.matrices)} distinct matrices, "
          f"{count.per_matrix():.2f} each")
