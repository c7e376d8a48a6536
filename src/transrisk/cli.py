"""Command-line surface.

Subcommands:

* ``gaussian-risk``  closed-form risks/regret for a Gaussian task pair
  spec, optionally cross-checked against the sampling and cubature
  oracles (``--verify``);
* ``office-table``   the polynomial risk combiner applied to
  (input risk, output risk) rows, either the builtin Office-31 rows
  (checked against their published combined risks) or a CSV;
* ``predict``        signature-ridge return prediction with transfer,
  over a lag × order grid;
* ``portfolio``      Sharpe-portfolio transfer with prescreen risk;
* ``verify-props``   the randomized property sweeps, with a pass/fail
  summary on stderr and a machine-readable report on stdout.

Exit codes: 0 success; 2 validation failure (bad spec, bad CSV, a spec
or CSV that cannot be read or is not UTF-8, an unwritable ``--out`` or
``--features-out``, a bad ``--scale``, broken invariant); 3 numerical
failure (singular covariance, degenerate objective); 4 verification
failure (an oracle gap beyond tolerance, a builtin-table deviation, or a
failed property sweep).  Reports go to stdout unless ``--out`` is given;
stderr carries diagnostics only.

All randomness enters through ``--seed`` and is threaded into
``SeededStream``; there are no hidden entropy sources, so reports are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .docio import (
    canonical_json,
    infer_period_days,
    parse_document,
    read_price_volume_csv,
    read_returns_csv,
    read_risk_rows_csv,
    validate_report,
    validate_spec,
)
from .errors import NumericalError, SpecFileError, ValidationError
from .gauss_transfer import (
    BasicCasePair,
    FeatureAugmentedPair,
    OutputAugmentedPair,
    basic_output_risk_kl,
    basic_output_risk_w,
    feature_aug_risk,
    output_aug_risk,
    output_laws,
    regret_risk_identity,
)
from .gaussian import (
    AffineModel,
    GaussianJointTask,
    fit_optimal_affine,
    kl_gaussian,
    w2_gaussian_sq,
)
from .benchmarks import run_property_sweeps, signature_dataset
from .mc import W2_ROWS, W2_SHARDS, SeededStream, kl_quadrature_1d, loss_gap_cubature, mc_w2_1d
from .portfolio import DEFAULT_PENALTY, ReturnsDataset, transfer_portfolio
from .regression import (
    DEFAULT_SOURCE_LAMBDA,
    DEFAULT_TRANSFER_LAMBDA,
    RegressionDataset,
    concat_datasets,
    evaluate,
    ridge_transfer,
    transfer_output_risk,
)
from .risk import OFFICE31_COMBINER, OFFICE31_TABLE, OFFICE31_TABLE_TOL, RiskPair, poly_risk
from .signature import signature_dim, write_features_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

CUBATURE_ORACLE_RTOL = 1e-9   # KL and regret gate, relative to max(1, |closed form|)
DIVERGENCE_ORACLE_TOL = 1e-10
MAX_SCALE = 1000.0   # verify-props --scale: the largest sweep runs 10000 x scale trials


def _emit(kind: str, inputs: dict, results: dict, seed: int | None,
          out_path: str | None, oracle_check: dict | None = None) -> None:
    """Build, validate, serialize and write one report: its envelope, plus
    the ``oracle_check`` block when it is not None."""
    report = {"version": 1, "kind": kind, "inputs": inputs, "results": results,
              "provenance": {"tool": "transrisk", "tool_version": __version__, "seed": seed}}
    if oracle_check is not None:
        report["oracle_check"] = oracle_check
    validate_report(report)
    text = canonical_json(report)
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write report {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _load_spec(path: str, kind: str) -> dict:
    """Read, decode, parse and validate the spec at ``path``, which must
    be of ``kind``."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read spec {path}: {exc}") from None
    doc = parse_document(text)
    if validate_spec(doc) != kind:
        raise SpecFileError(f"expected a {kind} spec, got {doc['kind']}")
    return doc


def _task_from_doc(doc: dict) -> GaussianJointTask:
    return GaussianJointTask(doc["dim_x"], doc["dim_y"],
                             np.asarray(doc["mean"]), np.asarray(doc["cov"]))


def _split_doc(split) -> dict:
    return {"total": float(split[0]), "variance_term": float(split[1]),
            "bias_term": float(split[2])}


def _oracle_entry(name: str, closed: float, oracle: float,
                  std_error: float | None, tol_abs: float | None) -> dict:
    gap = abs(closed - oracle)
    if std_error is not None:
        sigma_gap = gap / std_error if std_error > 0.0 else (0.0 if gap == 0.0 else math.inf)
        within = sigma_gap <= 3.0 or gap <= 1e-12
        entry = {"name": name, "closed_form": closed, "oracle": oracle,
                 "std_error": std_error, "abs_gap": gap,
                 "sigma_gap": min(sigma_gap, 1e6), "within": bool(within)}
    else:
        entry = {"name": name, "closed_form": closed, "oracle": oracle,
                 "abs_gap": gap, "sigma_gap": None,
                 "within": bool(gap <= tol_abs)}
    return entry


# --- gaussian-risk -------------------------------------------------------

def _oracle_entries(results: dict, pair, laws, stream: SeededStream) -> list[dict]:
    """Check the closed forms already in ``results`` against ``laws``, the
    pair's target and intermediate output laws: KL by quadrature and W2
    by sampling ``W2_ROWS`` rows for 1-D laws, both by the generic
    Gaussian divergences for wider ones, and in the basic case regret by
    the loss gap's cubature."""
    scalar = laws[0].dim == 1
    entries = []
    if results.get("kl") is not None:
        closed = results["kl"]["total"]
        if scalar:
            entries.append(_oracle_entry("kl_vs_quadrature", closed, kl_quadrature_1d(*laws),
                                         None, CUBATURE_ORACLE_RTOL * max(1.0, abs(closed))))
        else:
            entries.append(_oracle_entry("kl_vs_generic_divergence", closed,
                                         kl_gaussian(*laws), None, DIVERGENCE_ORACLE_TOL))
    if "w" in results:
        closed = results["w"]["total"]
        if scalar:
            est, se = mc_w2_1d(*laws, W2_ROWS, stream.substream(1))
            entries.append(_oracle_entry("w2_vs_sampling", closed, est, se, None))
        else:
            entries.append(_oracle_entry("w2_vs_generic_divergence", closed,
                                         w2_gaussian_sq(*laws), None, DIVERGENCE_ORACLE_TOL))
    if "regret" in results:
        src_model, tgt_model = fit_optimal_affine(pair.source), fit_optimal_affine(pair.target)
        closed = results["regret"]
        entries.append(_oracle_entry("regret_vs_loss_gap", closed,
                                     loss_gap_cubature(src_model, tgt_model, pair.target), None,
                                     CUBATURE_ORACLE_RTOL * max(1.0, abs(closed))))
    return entries


# Extreme spec numbers (say 1e300) can overflow a pushforward, a closed
# form or an oracle.  A non-finite law is rejected where it is built, and
# any other non-finite result by validate_report, as one validation error;
# numpy's warnings would only print lines ahead of it.
@np.errstate(over="ignore", invalid="ignore")
def cmd_gaussian_risk(args) -> int:
    doc = _load_spec(args.spec, "gaussian_pair")
    case = doc["case"]
    source = _task_from_doc(doc["source"])
    target = _task_from_doc(doc["target"])
    results: dict = {"case": case}
    if case == "basic":
        pair = BasicCasePair(source, target)
        basic = {"kl": basic_output_risk_kl, "w": basic_output_risk_w}
        risk_of = lambda variant: basic[variant](pair)
    elif case == "feature_aug":
        pair = FeatureAugmentedPair(source, target)
        risk_of = lambda variant: feature_aug_risk(pair, variant)
    else:  # output_aug
        if "init_model" not in doc:
            raise SpecFileError("output_aug spec requires an init_model")
        init = AffineModel(np.asarray(doc["init_model"]["weight"]),
                           np.asarray(doc["init_model"]["intercept"]))
        pair = OutputAugmentedPair(source, target, init)
        risk_of = lambda variant: output_aug_risk(pair, variant)
    laws = output_laws(pair) if case == "output_aug" or args.verify else None
    if case == "output_aug":
        for key, law in zip(("target_law", "intermediate_law"), laws):
            results[key] = {"mean": law.mean.tolist(), "cov": law.cov.tolist()}

    for variant in ("kl", "w") if args.variant == "both" else (args.variant,):
        split = risk_of(variant)
        if variant == "kl" and math.isinf(split.total):
            results["kl"] = None
            results["kl_note"] = "infinite: the target output law is degenerate"
        else:
            results[variant] = _split_doc(split)
    if case == "basic" and "w" in results:
        identity = regret_risk_identity(pair)
        results["regret"] = identity.regret
        results["residual"] = identity.residual
        results["risk_w_le_regret"] = bool(
            identity.risk_w <= identity.regret + 1e-9 * max(1.0, identity.regret))

    check = None
    if args.verify:
        entries = _oracle_entries(results, pair, laws, SeededStream(args.seed))
        check = {"entries": entries, "all_within": all(e["within"] for e in entries)}
    _emit("gaussian_risk_report", doc, results, args.seed, args.out, oracle_check=check)
    if check is not None and not check["all_within"]:
        print("oracle cross-check failed: gap beyond tolerance", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# --- office-table ---------------------------------------------------------

def cmd_office_table(args) -> int:
    if args.builtin:
        rows = [(label, ei, eo) for label, ei, eo, _ in OFFICE31_TABLE]
        published = {label: risk for label, _, _, risk in OFFICE31_TABLE}
    else:
        rows = read_risk_rows_csv(args.csv)
        published = {}

    out_rows = []
    max_dev = 0.0
    for label, ei, eo in rows:
        combined = poly_risk(RiskPair(ei, eo), OFFICE31_COMBINER)
        row = {"label": label, "input_risk": ei, "output_risk": eo,
               "combined_risk": combined}
        if label in published:
            row["published_risk"] = published[label]
            row["deviation"] = abs(combined - published[label])
            max_dev = max(max_dev, row["deviation"])
        out_rows.append(row)

    results: dict = {
        "combiner": {"coef_input": OFFICE31_COMBINER.coef_input,
                     "coef_output_sq": OFFICE31_COMBINER.coef_output_sq},
        "rows": out_rows,
    }
    if args.builtin:
        results["max_deviation"] = max_dev
        results["tolerance"] = OFFICE31_TABLE_TOL
        results["all_within"] = bool(max_dev <= OFFICE31_TABLE_TOL)

    _emit("office_table_report", {"builtin": bool(args.builtin),
                                  "csv": None if args.builtin else str(args.csv)},
          results, None, args.out)
    if args.builtin and not results["all_within"]:
        print(f"builtin table deviation {max_dev} exceeds {OFFICE31_TABLE_TOL}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# --- predict ---------------------------------------------------------------

def _rows(data: RegressionDataset, mask: np.ndarray, dim: int) -> RegressionDataset:
    """The rows of ``data`` picked by ``mask``, with its first ``dim`` feature columns."""
    return RegressionDataset(data.features[:, :dim][mask], data.targets[mask])


def _metrics_doc(theta, test: RegressionDataset) -> dict:
    m = evaluate(theta, test)
    return {"mse": m.mse, "r2": m.r2, "corr": m.corr,
            "corr_defined": bool(m.corr_defined),
            "transfer_risk": transfer_output_risk(theta, test)}


def cmd_predict(args) -> int:
    import datetime as _dt

    doc = _load_spec(args.job, "regression_job")
    try:
        split_date = _dt.date.fromisoformat(doc["split_date"])
    except ValueError:
        raise SpecFileError(f"split_date {doc['split_date']!r} is not ISO-8601") from None
    lags = sorted(set(doc["lag"] if isinstance(doc["lag"], list) else [doc["lag"]]))
    orders = sorted(set(doc["order"] if isinstance(doc["order"], list) else [doc["order"]]))
    lam_s = float(doc.get("lambda_source", DEFAULT_SOURCE_LAMBDA))
    lam_t = float(doc.get("lambda_transfer", DEFAULT_TRANSFER_LAMBDA))

    # Each CSV is read once, and each (asset, lag) gets one feature matrix
    # at the top order: order m is its first signature_dim(3, m) columns,
    # since level m of a Chen product uses only levels <= m.
    series: dict = {}    # path -> (dates, log close and volume)
    at_lag: dict = {}    # path -> (signature dataset, rows before split) at this lag

    def windows(path: str, lag: int):
        if path not in at_lag:
            if path not in series:
                dates, closes, volumes = read_price_volume_csv(path)
                series[path] = dates, np.column_stack([np.log(closes), np.log(volumes)])
            dates, log_pv = series[path]
            sig = signature_dataset(log_pv, lag, orders[-1], dates)
            at_lag[path] = sig, np.array([d < split_date for d in sig.end_dates])
        return at_lag[path]

    grid = []
    target_features = None
    for lag in lags:
        at_lag.clear()
        sources = []
        for path in doc["source_csvs"]:
            sig, before = windows(path, lag)
            if not before.any():
                raise ValidationError(f"{path}: no source rows before split date")
            sources.append((sig.data, before))
        target, before = windows(doc["target_csv"], lag)
        if not before.any() or before.all():
            raise ValidationError(
                f"split date {split_date} leaves an empty train or test side")
        if args.features_out and target_features is None:
            target_features = target.features

        for order in orders:
            dim = signature_dim(3, order)
            train = _rows(target.data, before, dim)
            test = _rows(target.data, ~before, dim)
            fit = ridge_transfer(concat_datasets(_rows(d, m, dim) for d, m in sources),
                                 train, test, lam_s, lam_t)
            grid.append({
                "lag": lag,
                "order": order,
                "feature_dim": dim,
                "train_rows": train.n_rows,
                "test_rows": test.n_rows,
                "direct": _metrics_doc(fit.direct, fit.test),
                "transfer": _metrics_doc(fit.transfer, fit.test),
                "target_standardization": {"mean": fit.y_mean, "std": fit.y_std},
            })

    if args.features_out:
        try:
            write_features_csv(args.features_out,
                               target_features[:, :signature_dim(3, orders[0])], 3, orders[0])
        except OSError as exc:
            raise ValidationError(f"cannot write features {args.features_out}: {exc}") from None

    _emit("prediction_report", doc, {
        "grid": grid,
        "target_period_days": infer_period_days(series[doc["target_csv"]][0]),
        "note": "metrics are computed on targets standardized by target-train statistics",
    }, None, args.out)
    return EXIT_OK


# --- portfolio ---------------------------------------------------------------

def cmd_portfolio(args) -> int:
    doc = _load_spec(args.job, "portfolio_job")
    penalty = float(doc.get("penalty", DEFAULT_PENALTY))
    seed = int(doc.get("seed", 0))

    datasets, names = [], {}
    for key in ("source_csv", "target_train_csv", "target_test_csv"):
        _, names[key], rows = read_returns_csv(doc[key])
        datasets.append(ReturnsDataset(np.asarray(rows)))
    if len({tuple(assets) for assets in names.values()}) != 1:
        raise ValidationError(f"asset names differ across files: {names}")

    fit = transfer_portfolio(*datasets, penalty)
    results = {
        "assets": names["target_train_csv"],
        "penalty": penalty,
        "pretrained_weights": fit.pretrained.weights.tolist(),
        "direct_weights": fit.direct.weights.tolist(),
        "transferred_weights": fit.transferred.weights.tolist(),
        "sharpe": fit.sharpe,
        "prescreen_risk_sq": fit.prescreen_risk_sq,
        "prescreen_risk": math.sqrt(max(fit.prescreen_risk_sq, 0.0)),
    }
    _emit("portfolio_report", doc, results, seed, args.out)
    return EXIT_OK


# --- verify-props --------------------------------------------------------

def cmd_verify_props(args) -> int:
    if not 0.0 < args.scale <= MAX_SCALE:
        raise ValidationError(f"--scale must be in (0, {MAX_SCALE:g}] (at most "
                              f"{10_000 * MAX_SCALE:,.0f} trials a sweep), got {args.scale}")
    sweeps = run_property_sweeps(args.seed, trials_scale=args.scale)
    rows = []
    for sweep in sweeps:
        status = "PASS" if sweep.passed else "FAIL"
        print(f"{status}  {sweep.name}: {sweep.checked - sweep.failed}/{sweep.checked} hold"
              + (f"  ({sweep.detail})" if sweep.detail else ""), file=sys.stderr)
        rows.append({"name": sweep.name, "checked": sweep.checked,
                     "failed": sweep.failed, "passed": sweep.passed,
                     "detail": sweep.detail})
    all_passed = all(sweep.passed for sweep in sweeps)
    _emit("property_report", {"seed": args.seed, "scale": args.scale},
          {"sweeps": rows, "all_passed": bool(all_passed)}, args.seed, args.out)
    return EXIT_OK if all_passed else EXIT_VERIFY


# --- parser ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each ``parse_args`` call
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="transrisk",
        description="Transfer risk, regret, and transfer-learning pipelines "
                    "for Gaussian/linear task pairs")
    parser.add_argument("--version", action="version", version=f"transrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gaussian-risk", help="closed-form risks for a Gaussian task pair")
    p.add_argument("spec", help="task-pair spec document (JSON)")
    p.add_argument("--variant", choices=["kl", "w", "both"], default="both")
    p.add_argument("--verify", action="store_true",
                   help="cross-check closed forms against the independent oracles; "
                        f"the sampled W2 oracle draws {W2_ROWS} rows as antithetic "
                        f"pairs (z, -z) in {W2_SHARDS} shards")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_gaussian_risk)

    p = sub.add_parser("office-table", help="apply the risk combiner to benchmark rows")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", action="store_true",
                       help="use the six builtin Office-31 rows and check the "
                            "published combined-risk column")
    group.add_argument("--csv", help="CSV of label,input_risk,output_risk rows")
    p.add_argument("--out")
    p.set_defaults(func=cmd_office_table)

    p = sub.add_parser("predict", help="signature-ridge return prediction with transfer")
    p.add_argument("job", help="regression job spec (JSON)")
    p.add_argument("--features-out", help="also dump the target's signature features as CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("portfolio", help="Sharpe-portfolio transfer with prescreen risk")
    p.add_argument("job", help="portfolio job spec (JSON)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("verify-props", help="run the randomized property sweeps")
    p.add_argument("--seed", type=int, default=20_240_401)
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale factor on sweep sizes (e.g. 0.01 for a smoke run)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_props)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
