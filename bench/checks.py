"""Correctness checks: program outputs against ``reference``.

Each check returns a list of problems (empty when the output is right),
so the planted-fault tests can show that a check fires.  Tolerances are
stated here, once:

* closed forms (``screen``, ``verify``): relative 1e-9, absolute 1e-12;
* prediction metrics: relative 1e-7, absolute 1e-10 (the reference
  signature sums in another order, and ridge amplifies the difference);
* portfolio: in-sample Sharpe within relative 1e-9 of the QP optimum,
  reported Sharpe values within relative 1e-10 of the recomputed ones,
  projected-gradient stationarity at most 1e-6 (``sharpe_optimize``
  promises 1e-7 but stopped above it on 1 of about 3,900 solves tried,
  where its two-cycle or stall exit fires first; a gate at 1e-7 would fail
  runs at random);
* the oracle family gate of ``verify``: each of its three gates has a
  false-alarm rate of ``FAMILY_ALPHA`` on correct closed forms.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

CLOSED_RTOL, CLOSED_ATOL = 1e-9, 1e-12
PREDICT_RTOL, PREDICT_ATOL = 1e-7, 1e-10
QP_RTOL = 1e-9
SHARPE_RTOL = 1e-10
STATIONARITY_TOL = 1e-6
SIMPLEX_TOL = 1e-12
QUADRATURE_TOL = 1e-6
FAMILY_ALPHA = 1e-4
W2_SHARDS = 40          # the sampled W2 oracle's batch-means shards


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= max(atol, rtol * abs(b))


def compare(problems: list, where: str, got, want, rtol=CLOSED_RTOL, atol=CLOSED_ATOL):
    if got is None or not close(float(got), float(want), rtol, atol):
        problems.append(f"{where}: {got!r} != reference {want!r}")


# scipy and jsonschema are imported inside the checks, so that importing
# this module before a set-up probe's clock starts loads neither.

# --- screen ------------------------------------------------------------------

def screen_op(op, output, combiner) -> list[str]:
    """``output`` is (rows, (best value, best id)); one row per source:
    (input W2, W split, KL split, (regret, risk_w, residual)).
    ``combiner`` is (coefficient of E_I, coefficient of E_O²)."""
    problems: list[str] = []
    rows, (best_value, best_id) = output
    t_mean, t_cov = op.target
    scores = []
    for k, ((s_mean, s_cov), row) in enumerate(zip(op.sources, rows)):
        want = ref.basic_pair(s_mean, s_cov, t_mean, t_cov, op.dim)
        e_in, w, kl, (regret, risk_w, residual) = row
        compare(problems, f"source {k} input W2", e_in, want.input_w2)
        for label, got_split, want_split in (("W", w, want.w), ("KL", kl, want.kl)):
            for part, g, r in zip(want_split._fields, got_split, want_split):
                compare(problems, f"source {k} {label} {part}", g, r)
        compare(problems, f"source {k} regret", regret, want.regret)
        compare(problems, f"source {k} risk_w", risk_w, want.w.total)
        compare(problems, f"source {k} residual", residual, want.regret - want.w.total,
                atol=CLOSED_RTOL * max(1.0, want.regret))
        if not w[0] <= regret * (1 + 1e-12) + 1e-15:
            problems.append(f"source {k}: W2 risk {w[0]} exceeds regret {regret}")
        scores.append(combiner[0] * want.input_w2 + combiner[1] * want.w.total ** 2)
    best = min(scores)
    if not (0 <= best_id < len(scores)) or scores[best_id] > best * (1 + CLOSED_RTOL):
        problems.append(f"min_risk_over_set picked {best_id}, reference argmin "
                        f"{int(np.argmin(scores))}")
    compare(problems, "min combined risk", best_value, best)
    return problems


# --- verify --------------------------------------------------------------------

def _split(problems, where, got: dict | None, want: ref.Split):
    if got is None:
        problems.append(f"{where}: missing")
        return
    for part, value in zip(want._fields, want):
        compare(problems, f"{where}.{part}", got.get(part), value)


def verify_report(spec: dict, code: int, doc: dict, report_schema) -> tuple[list[str], list[float]]:
    """Checks one ``gaussian-risk --verify`` report; returns the problems
    and the report's oracle scores as N(0, 1) equivalents."""
    import jsonschema
    from scipy import stats

    problems: list[str] = []
    try:
        jsonschema.validate(doc, report_schema)
    except jsonschema.ValidationError as exc:
        return [f"report fails REPORT_SCHEMA: {exc.message}"], []
    if doc["inputs"] != spec:
        problems.append("report inputs differ from the spec")
    results = doc["results"]
    case = spec["case"]
    if case == "basic":
        src, tgt = spec["source"], spec["target"]
        want = ref.basic_pair(src["mean"], src["cov"], tgt["mean"], tgt["cov"], src["dim_x"])
        _split(problems, "w", results.get("w"), want.w)
        _split(problems, "kl", results.get("kl"), want.kl)
        compare(problems, "regret", results.get("regret"), want.regret)
        compare(problems, "residual", results.get("residual"), want.regret - want.w.total,
                atol=CLOSED_RTOL * max(1.0, want.regret))
        if results.get("risk_w_le_regret") is not True:
            problems.append("risk_w_le_regret is not true")
        closed = {"w2_vs_sampling": want.w.total, "regret_vs_loss_gap": want.regret,
                  "kl_vs_quadrature": want.kl.total}
    else:
        want_splits = ref.feature_aug(spec) if case == "feature_aug" else ref.output_aug(spec)
        _split(problems, "w", results.get("w"), want_splits["w"])
        _split(problems, "kl", results.get("kl"), want_splits["kl"])
        closed = {"w2_vs_sampling": want_splits["w"].total,
                  "kl_vs_quadrature": want_splits["kl"].total,
                  "w2_vs_generic_divergence": want_splits["w"].total,
                  "kl_vs_generic_divergence": want_splits["kl"].total}
        if case == "output_aug":
            for key, (mean, cov) in zip(("target_law", "intermediate_law"),
                                        ref.output_aug_laws(spec)):
                law = results.get(key, {})
                got = np.concatenate([np.ravel(law.get("mean", [])), np.ravel(law.get("cov", []))])
                want_law = np.concatenate([np.ravel(mean), np.ravel(cov)])
                if got.shape != want_law.shape or not np.allclose(
                        got, want_law, rtol=CLOSED_RTOL, atol=CLOSED_ATOL):
                    problems.append(f"{key} differs from the reference law")

    check = doc.get("oracle_check")
    if check is None:
        return problems + ["report has no oracle_check"], []
    scores = []
    for entry in check["entries"]:
        name = entry["name"]
        if name not in closed:
            problems.append(f"unexpected oracle entry {name}")
            continue
        compare(problems, f"{name}.closed_form", entry["closed_form"], closed[name])
        if entry.get("std_error") is not None:
            t = (entry["oracle"] - entry["closed_form"]) / entry["std_error"]
            if name == "w2_vs_sampling":
                # batch means over the shards: Student t with shards - 1 df
                t = math.copysign(float(stats.norm.isf(stats.t.sf(abs(t), W2_SHARDS - 1))), t)
            scores.append(t)
        elif name == "kl_vs_quadrature":
            compare(problems, name, entry["oracle"], closed[name], rtol=0.0, atol=QUADRATURE_TOL)
        else:
            compare(problems, name, entry["oracle"], closed[name])
    all_within = all(e["within"] for e in check["entries"])
    if check["all_within"] != all_within or (code == 4) == all_within:
        problems.append(f"exit code {code} disagrees with all_within {check['all_within']}")
    return problems, scores


def family_gate(scores, alpha: float = FAMILY_ALPHA) -> list[str]:
    """Gate a family of N(0, 1) oracle scores of correct closed forms.

    Three gates, each firing by chance with probability ``alpha``:
    Bonferroni on max |z|, Σz² against χ²_m, and the mean against
    N(0, 1/m).  A biased closed form or oracle moves the mean, a bias in
    a few entries moves the maximum, standard errors that are too small
    move Σz².
    """
    from scipy import stats

    z = np.asarray(scores, dtype=float)
    m = z.size
    if m == 0:
        return []
    problems = []
    bonferroni = float(stats.norm.isf(alpha / (2 * m)))
    if np.max(np.abs(z)) > bonferroni:
        problems.append(f"max |z| {np.max(np.abs(z)):.3f} > {bonferroni:.3f} over {m} scores")
    chi2 = float(stats.chi2.isf(alpha, m))
    if float(z @ z) > chi2:
        problems.append(f"sum z^2 {float(z @ z):.1f} > {chi2:.1f} over {m} scores")
    mean_gate = float(stats.norm.isf(alpha / 2)) / math.sqrt(m)
    if abs(float(z.mean())) > mean_gate:
        problems.append(f"mean z {float(z.mean()):+.3f} beyond ±{mean_gate:.3f} over {m} scores")
    return problems


# --- predict ---------------------------------------------------------------------

METRIC_KEYS = ("mse", "r2", "corr", "transfer_risk")


def predict_report(job, doc_spec: dict, doc: dict, report_schema) -> list[str]:
    import jsonschema

    try:
        jsonschema.validate(doc, report_schema)
    except jsonschema.ValidationError as exc:
        return [f"report fails REPORT_SCHEMA: {exc.message}"]
    problems: list[str] = []
    if doc["inputs"] != doc_spec:
        problems.append("report inputs differ from the job")
    grid = doc["results"]["grid"]
    lags, orders = sorted(set(doc_spec["lag"])), sorted(set(doc_spec["order"]))
    expected = [(lag, order) for lag in lags for order in orders]
    if [(c["lag"], c["order"]) for c in grid] != expected:
        return problems + [f"grid order {[(c['lag'], c['order']) for c in grid]} != {expected}"]
    for cell in grid:
        where = f"lag {cell['lag']} order {cell['order']}"
        want = ref.predict_cell(job, cell["lag"], cell["order"],
                                doc_spec["lambda_source"], doc_spec["lambda_transfer"])
        for key in ("feature_dim", "train_rows", "test_rows"):
            if cell[key] != want[key]:
                problems.append(f"{where} {key}: {cell[key]} != {want[key]}")
        for fit in ("direct", "transfer"):
            if cell[fit]["corr_defined"] != want[fit]["corr_defined"]:
                problems.append(f"{where} {fit}.corr_defined differs")
            for key in METRIC_KEYS:
                compare(problems, f"{where} {fit}.{key}", cell[fit][key], want[fit][key],
                        PREDICT_RTOL, PREDICT_ATOL)
        for key in ("mean", "std"):
            compare(problems, f"{where} target_standardization.{key}",
                    cell["target_standardization"][key], want["target_standardization"][key],
                    PREDICT_RTOL, PREDICT_ATOL)
    dates = job.target.dates
    gaps = sorted((b - a).days for a, b in zip(dates, dates[1:]))
    if doc["results"]["target_period_days"] != float(gaps[len(gaps) // 2]):
        problems.append("target_period_days differs from the median date gap")
    return problems


# --- portfolio -------------------------------------------------------------------

def portfolio_report(job, penalty: float, doc: dict, report_schema) -> list[str]:
    import jsonschema

    try:
        jsonschema.validate(doc, report_schema)
    except jsonschema.ValidationError as exc:
        return [f"report fails REPORT_SCHEMA: {exc.message}"]
    problems: list[str] = []
    res = doc["results"]
    mu_s, sig_s = ref.moments(job.source)
    mu_tr, sig_tr = ref.moments(job.train)
    mu_te, sig_te = ref.moments(job.test)
    weights = {}
    for key in ("pretrained_weights", "direct_weights", "transferred_weights"):
        w = np.asarray(res[key], dtype=float)
        weights[key] = w
        if w.shape != (job.dim,) or w.min() < 0.0 or abs(w.sum() - 1.0) > SIMPLEX_TOL:
            problems.append(f"{key} is not on the simplex: {w.tolist()}")
    if problems:
        return problems
    anchor, direct, transferred = (weights["pretrained_weights"], weights["direct_weights"],
                                   weights["transferred_weights"])

    for label, w, mu, sig in (("direct", direct, mu_tr, sig_tr),
                              ("pretrained", anchor, mu_s, sig_s)):
        best, _ = ref.max_sharpe_qp(mu, sig)
        compare(problems, f"{label} Sharpe vs the QP optimum", ref.sharpe(w, mu, sig), best,
                QP_RTOL, 0.0)
    sharpe = res["sharpe"]
    for key, w, mu, sig in (("direct_in_sample", direct, mu_tr, sig_tr),
                            ("direct_out_of_sample", direct, mu_te, sig_te),
                            ("transferred_in_sample", transferred, mu_tr, sig_tr),
                            ("transferred_out_of_sample", transferred, mu_te, sig_te)):
        compare(problems, f"sharpe.{key}", sharpe[key], ref.sharpe(w, mu, sig),
                SHARPE_RTOL, 1e-14)

    value = ref.objective(transferred, mu_tr, sig_tr, anchor, penalty)
    uniform = np.full(job.dim, 1.0 / job.dim)
    for label, other in (("anchor", anchor), ("uniform", uniform)):
        floor = ref.objective(other, mu_tr, sig_tr, anchor, penalty)
        if value < floor - 1e-12 * abs(floor):
            problems.append(f"transferred objective {value} below the {label}'s {floor}")

    for label, w, mu, sig, anc, pen in (("direct", direct, mu_tr, sig_tr, None, 0.0),
                                        ("pretrained", anchor, mu_s, sig_s, None, 0.0),
                                        ("transferred", transferred, mu_tr, sig_tr, anchor,
                                         penalty)):
        station = ref.stationarity(w, mu, sig, anc, pen)
        if station > STATIONARITY_TOL:
            problems.append(f"{label} projected gradient {station:.3e} > {STATIONARITY_TOL}")

    compare(problems, "prescreen_risk_sq", res["prescreen_risk_sq"],
            ref.w2_sq(mu_s, sig_s, mu_te, sig_te), CLOSED_RTOL, CLOSED_ATOL)
    return problems
