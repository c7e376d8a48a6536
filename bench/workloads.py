"""The four workloads: inputs, one operation each, and their checks.

A workload is built in three steps so that set-up can be timed on its
own: the constructor draws the inputs and writes the files the CLI will
read (no ``transrisk`` import), ``bind`` imports the program and builds
the operations, and ``check`` compares one round of outputs with the
benchmark's own computations.  Every operation is a call into a public
entry point: the closed-form functions for ``screen``, ``cli.main`` for
the other three.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import inputs


class Outcome:
    """What one operation left behind: an exit code and a report, or the
    exception it raised."""

    def __init__(self, code=None, path=None, value=None, error=None):
        self.code, self.path, self.value, self.error = code, path, value, error

    def text(self):
        if self.path is None:
            return None
        try:
            return Path(self.path).read_text()
        except OSError:
            return None


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return str(path)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def bind(self) -> list:
        """Import the program; return the round's operations, each a
        callable taking an output-path tag and returning an Outcome."""
        raise NotImplementedError

    def check(self, outcomes: list) -> tuple[list, list]:
        """Problems per operation of one round, plus run-level problems."""
        raise NotImplementedError

    def produced(self, outcome: Outcome) -> bool:
        """Whether the operation left an output to check."""
        return outcome.error is None

    @staticmethod
    def same(a: Outcome, b: Outcome) -> bool:
        return a.error is None and a.code == b.code and a.value == b.value \
            and a.text() == b.text()


class Screen(Workload):
    name = "screen"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.round = inputs.screen_round(seed)

    def bind(self):
        from transrisk import gauss_transfer as gt
        from transrisk import gaussian, risk

        def task(mean, cov):
            return gaussian.GaussianJointTask(len(mean) - 1, 1, mean, cov)

        def make(op):
            target = task(*op.target)
            sources = [task(*s) for s in op.sources]

            def run(tag):
                target_in = target.input_marginal()
                entries, rows = [], []
                for k, source in enumerate(sources):
                    pair = gt.BasicCasePair(source, target)
                    e_in = gaussian.w2_gaussian_sq(source.input_marginal(), target_in)
                    w = gt.basic_output_risk_w(pair)
                    kl = gt.basic_output_risk_kl(pair)
                    identity = gt.regret_risk_identity(pair)
                    entries.append((k, risk.RiskPair(e_in, w.total)))
                    rows.append((e_in, tuple(w), tuple(kl), tuple(identity)))
                best = risk.min_risk_over_set(entries, risk.OFFICE31_COMBINER)
                return Outcome(value=(rows, (best.value, best.model_id)))
            return run

        self.combiner = (risk.OFFICE31_COMBINER.coef_input,
                         risk.OFFICE31_COMBINER.coef_output_sq)
        return [make(op) for op in self.round]

    def check(self, outcomes):
        return [checks.screen_op(op, out.value, self.combiner) if out.error is None
                else [out.error] for op, out in zip(self.round, outcomes)], []


class _CliWorkload(Workload):
    """Operations are in-process ``cli.main`` calls writing ``--out``."""

    ok_codes = (0,)

    def _cli(self, argv_of):
        from transrisk import cli
        from transrisk.docio import REPORT_SCHEMA

        self.report_schema = REPORT_SCHEMA

        def make(i, argv):
            def run(tag):
                out = str(self.workdir / f"out-{tag}-{i}.json")
                return Outcome(code=cli.main(argv + ["--out", out]), path=out)
            return run
        return [make(i, argv) for i, argv in enumerate(argv_of)]

    def produced(self, outcome: Outcome) -> bool:
        return (outcome.error is None and outcome.code in self.ok_codes
                and outcome.text() is not None)

    def _report(self, outcome: Outcome):
        if outcome.error is not None:
            return None, [outcome.error]
        if outcome.code not in self.ok_codes:
            return None, [f"exit code {outcome.code}"]
        text = outcome.text()
        if text is None:
            return None, ["no report written"]
        try:
            return json.loads(text), []
        except json.JSONDecodeError as exc:
            return None, [f"report is not JSON: {exc}"]


class Verify(_CliWorkload):
    name = "verify"
    ok_codes = (0, 4)     # 4: an oracle gap beyond 3 sigma, counted by the trace

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.round = inputs.verify_round(seed)
        self.paths = [_write_json(workdir / f"spec-{i}.json", spec)
                      for i, (spec, _) in enumerate(self.round)]

    def bind(self):
        return self._cli([["gaussian-risk", path, "--verify", "--seed", str(oracle_seed)]
                          for path, (_, oracle_seed) in zip(self.paths, self.round)])

    def check(self, outcomes):
        per_op, scores = [], []
        for (spec, _), outcome in zip(self.round, outcomes):
            doc, problems = self._report(outcome)
            if doc is not None:
                found, op_scores = checks.verify_report(spec, outcome.code, doc,
                                                        self.report_schema)
                problems += found
                scores += op_scores
            per_op.append(problems)
        return per_op, checks.family_gate(scores)


class Predict(_CliWorkload):
    name = "predict"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.round = inputs.predict_round(seed)
        self.specs, self.paths = [], []
        for j, job in enumerate(self.round):
            sources = []
            for k, series in enumerate(job.sources):
                path = workdir / f"job{j}-source{k}.csv"
                inputs.write_price_csv(path, series)
                sources.append(str(path))
            target = workdir / f"job{j}-target.csv"
            inputs.write_price_csv(target, job.target)
            spec = {"version": 1, "kind": "regression_job", "source_csvs": sources,
                    "target_csv": str(target), "lag": list(inputs.PREDICT_LAGS),
                    "order": list(inputs.PREDICT_ORDERS), "lambda_source": 1.0,
                    "lambda_transfer": 5.0, "split_date": job.split_date.isoformat()}
            self.specs.append(spec)
            self.paths.append(_write_json(workdir / f"job{j}.json", spec))

    def bind(self):
        return self._cli([["predict", path] for path in self.paths])

    def check(self, outcomes):
        per_op = []
        for job, spec, outcome in zip(self.round, self.specs, outcomes):
            doc, problems = self._report(outcome)
            if doc is not None:
                problems += checks.predict_report(job, spec, doc, self.report_schema)
            per_op.append(problems)
        return per_op, []


class Portfolio(_CliWorkload):
    name = "portfolio"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.round = inputs.portfolio_round(seed)
        self.paths = []
        for j, job in enumerate(self.round):
            files = {}
            for key, data in (("source_csv", job.source), ("target_train_csv", job.train),
                              ("target_test_csv", job.test)):
                path = workdir / f"job{j}-{key[:-4]}.csv"
                inputs.write_returns_csv(path, data)
                files[key] = str(path)
            spec = {"version": 1, "kind": "portfolio_job", **files,
                    "penalty": inputs.PORTFOLIO_PENALTY, "seed": seed}
            self.paths.append(_write_json(workdir / f"job{j}.json", spec))

    def bind(self):
        return self._cli([["portfolio", path] for path in self.paths])

    def check(self, outcomes):
        per_op = []
        for job, outcome in zip(self.round, outcomes):
            doc, problems = self._report(outcome)
            if doc is not None:
                problems += checks.portfolio_report(job, inputs.PORTFOLIO_PENALTY, doc,
                                                    self.report_schema)
            per_op.append(problems)
        return per_op, []


WORKLOADS = {cls.name: cls for cls in (Screen, Verify, Predict, Portfolio)}
