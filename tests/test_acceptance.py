"""Acceptance suite: the eight exit criteria, one test per criterion,
each at its pinned tolerance, printing one PASS/FAIL line (visible with
pytest -s, or in the captured output on failure).

Budgets: criteria 1, 4, 5, 6, 8 run in seconds; criterion 2 under ten
seconds; criterion 3 samples 10^8 W2 rows (about a second); criterion 7
runs the two synthetic end-to-end studies (under five minutes).
"""

import numpy as np
import pytest
from scipy.stats import chi2, norm, t as student_t

from transrisk import (
    OFFICE31_COMBINER,
    OFFICE31_TABLE,
    RiskPair,
    SeededStream,
    basic_output_risk_kl,
    basic_output_risk_w,
    continuity_probe_input,
    feature_aug_risk,
    fit_optimal_affine,
    kl_quadrature_1d,
    loss_gap_cubature,
    mc_w2_1d,
    neutralizing_initialization,
    output_aug_risk,
    poly_risk,
    pushforward_affine,
    regret_risk_identity,
    signature_dim,
    signature_of_path,
    chen_product,
    PiecewisePath,
)
from transrisk.mc import W2_SHARDS
from transrisk.benchmarks import (
    portfolio_transfer_study,
    random_basic_pair,
    ridge_transfer_study,
    run_property_sweeps,
)
from transrisk.gauss_transfer import (
    BasicCasePair,
    FeatureAugmentedPair,
    GaussianJointTask,
    OutputAugmentedPair,
    convex_rate,
    uncorrelated_aug_ratio,
)


@pytest.fixture(scope="module")
def property_sweeps():
    """The four property sweeps at their standard sizes, run once for
    criteria 2 and 5: cross-entropy bounds, output bound, regret, and the
    transport-entropy comparison, in that order."""
    return run_property_sweeps(seed=20_240_401)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"acceptance {number} [{name}]: {status}{tail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_published_table_reproduction():
    """Six published (input, output) risk pairs reproduce the published
    combined-risk row within ±0.0025."""
    deviations = [abs(poly_risk(RiskPair(ei, eo), OFFICE31_COMBINER) - published)
                  for _, ei, eo, published in OFFICE31_TABLE]
    worst = max(deviations)
    report(1, "published risk table", worst <= 0.0025, f"max deviation {worst:.5f}")


def test_criterion_2_regret_lower_bound_at_scale(property_sweeps):
    """10^4 random pairs, d in 1..6: risk_w <= regret always, the identity
    holds to 1e-9, and the residual is never below -1e-12 (the regret
    sweep of ``run_property_sweeps``)."""
    sweep = property_sweeps[2]
    ok = sweep.name == "regret lower bound and identity" and sweep.checked == 10_000
    report(2, "regret lower bound at scale", ok and sweep.passed,
           f"0 violations target, got {sweep.failed}/{sweep.checked}; {sweep.detail}")


def test_criterion_3_closed_forms_vs_oracles():
    """100 random basic-case pairs: KL within 1e-6 of quadrature, regret
    within 1e-9·max(1, |regret|) of the loss gap's cubature, and W
    studentized against sampling at n = 10^6.

    The quadrature and the cubature are exact for the quadratics they
    integrate, so their gates are per pair and never fire by chance.  The
    100 W scores are Student t with 39 degrees of freedom (batch means
    over 40 shards), mapped to the N(0, 1) scores z with the same tail
    probability, and must pass three gates.  For a correct formula each
    gate fails by chance at a stated rate:

    * |mean score| <= 0.35, a 3.5-sigma gate on the mean: rate 6.5e-4
      (2·Φ(−3.5) = 4.7e-4 for normal scores).  It catches a bias shared by
      all pairs.
    * max |z| <= Φ⁻¹(1 − α/200) = 4.42 with α = 1e-3, Bonferroni over 100
      two-sided scores: rate <= α.  It catches one grossly wrong pair.
    * Σ z² <= the (1 − α) quantile of χ²₁₀₀ = 149.4: rate α.  It catches
      bias confined to a subgroup of pairs, and standard errors that are
      too small.

    By the union bound the test fails by chance on at most
    6.5e-4 + 2·1e-3 = 0.27% of seeds; a per-pair |z| <= 3 gate would fail
    on 1 − 0.9973¹⁰⁰ = 24% of seeds.  The seeds below are fixed so that
    runs are repeatable, not chosen to pass."""
    n_pairs, alpha = 100, 1e-3
    max_z = float(norm.isf(alpha / (2 * n_pairs)))
    max_sum_sq = float(chi2.isf(alpha, n_pairs))
    rng = np.random.default_rng(77_700)
    stream = SeededStream(31_337)
    worst_kl = worst_regret = 0.0
    w_scores = []
    for k in range(n_pairs):
        pair = random_basic_pair(rng, int(rng.integers(1, 5)))
        tgt = pair.target
        tgt_model = fit_optimal_affine(tgt)
        src_model = fit_optimal_affine(pair.source)
        target_law = pushforward_affine(tgt_model, tgt.mean_x, tgt.cov_x)
        inter_law = pushforward_affine(src_model, tgt.mean_x, tgt.cov_x)

        kl_gap = abs(basic_output_risk_kl(pair).total
                     - kl_quadrature_1d(target_law, inter_law))
        worst_kl = max(worst_kl, kl_gap)

        regret = regret_risk_identity(pair).regret
        regret_gap = abs(loss_gap_cubature(src_model, tgt_model, tgt) - regret)
        worst_regret = max(worst_regret, regret_gap / max(1.0, abs(regret)))

        w_est, w_se = mc_w2_1d(target_law, inter_law, 10 ** 6, stream.substream(2 * k))
        w_scores.append((w_est - basic_output_risk_w(pair).total) / w_se)

    w_scores = np.asarray(w_scores)
    z = np.sign(w_scores) * norm.isf(student_t.sf(np.abs(w_scores), W2_SHARDS - 1))
    worst, mean, sum_sq = float(np.max(np.abs(z))), float(np.mean(w_scores)), float(z @ z)
    ok = (worst_kl <= 1e-6 and worst_regret <= 1e-9
          and worst <= max_z and abs(mean) <= 0.35 and sum_sq <= max_sum_sq)
    report(3, "closed forms vs oracles", ok,
           f"worst KL gap {worst_kl:.2e}; worst relative regret gap {worst_regret:.2e}; "
           f"W: worst {worst:.2f} sigma (gate {max_z:.2f}), mean {mean:+.3f} (gate 0.35), "
           f"sum z^2 {sum_sq:.1f} (gate {max_sum_sq:.1f})")


def _random_feature_aug_pair(rng):
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))
    n = d + k + 1
    a = rng.normal(size=(n, n))
    cov = a @ a.T + 0.5 * np.eye(n)
    mean = rng.normal(size=n)
    tgt = GaussianJointTask(d + k, 1, mean, cov)
    src = GaussianJointTask(
        d, 1,
        np.concatenate([mean[:d], mean[d + k:]]),
        np.block([[cov[:d, :d], cov[:d, d + k:]],
                  [cov[d + k:, :d], cov[d + k:, d + k:]]]))
    return FeatureAugmentedPair(src, tgt)


def _random_output_aug_pair(rng, neutral):
    d, l, k = 3, 1, 1
    a = rng.normal(size=(d, d))
    cov_x = a @ a.T + 0.5 * np.eye(d)
    w_full = rng.normal(size=(d, l + k))
    cov_xy = cov_x @ w_full
    cov_y = w_full.T @ cov_x @ w_full + np.diag(rng.uniform(0.5, 1.0, size=l + k))
    mean = np.concatenate([rng.normal(size=d), rng.normal(size=l + k)])
    cov = np.block([[cov_x, cov_xy], [cov_xy.T, cov_y]])
    tgt = GaussianJointTask(d, l + k, mean, 0.5 * (cov + cov.T))
    src = GaussianJointTask(d, l, tgt.mean[: d + l], tgt.cov[: d + l, : d + l])
    init = neutralizing_initialization(src, tgt.cov_xy[:, l:], tgt.mean_y[l:])
    if not neutral:
        from transrisk import AffineModel
        init = AffineModel(init.weight + rng.normal(size=init.weight.shape),
                           init.intercept + rng.normal(size=init.intercept.shape))
    return OutputAugmentedPair(src, tgt, init)


def test_criterion_4_augmentation_structure():
    """Feature augmentation: bias identically zero over 10^3 random
    consistent pairs.  Output augmentation: neutralizing initialization
    drives totals below 1e-10.  Uncorrelated-augmentation shortcut ratio
    matches the full computation to 1e-10."""
    rng = np.random.default_rng(55_501)
    bias_violations = 0
    for _ in range(1_000):
        pair = _random_feature_aug_pair(rng)
        for variant in ("kl", "w"):
            if feature_aug_risk(pair, variant).bias_term != 0.0:
                bias_violations += 1

    neutral_worst = 0.0
    for _ in range(50):
        pair = _random_output_aug_pair(rng, neutral=True)
        for variant in ("kl", "w"):
            neutral_worst = max(neutral_worst, output_aug_risk(pair, variant).total)

    ratio_worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        base_block = rng.normal(size=(d, d))
        cov_sx = base_block @ base_block.T + 0.5 * np.eye(d)
        cov_sxy = rng.normal(size=(d, 1))
        aug_block = rng.normal(size=(k, k))
        cov_ax = aug_block @ aug_block.T + 0.5 * np.eye(k)
        cov_axy = rng.normal(size=(k, 1))
        sy = float(cov_sxy[:, 0] @ np.linalg.solve(cov_sx, cov_sxy[:, 0]))
        ay = float(cov_axy[:, 0] @ np.linalg.solve(cov_ax, cov_axy[:, 0]))
        cov_y = sy + ay + float(rng.uniform(0.5, 1.5))
        cov_x = np.block([[cov_sx, np.zeros((d, k))], [np.zeros((k, d)), cov_ax]])
        cov_txy = np.vstack([cov_sxy, cov_axy])
        cov_t = np.block([[cov_x, cov_txy], [cov_txy.T, np.array([[cov_y]])]])
        mean = np.zeros(d + k + 1)
        tgt = GaussianJointTask(d + k, 1, mean, 0.5 * (cov_t + cov_t.T))
        src_cov = np.block([[cov_sx, cov_sxy], [cov_sxy.T, np.array([[cov_y]])]])
        src = GaussianJointTask(d, 1, np.zeros(d + 1), 0.5 * (src_cov + src_cov.T))
        pair = FeatureAugmentedPair(src, tgt)

        shortcut = uncorrelated_aug_ratio(sy, cov_ax, cov_axy[:, 0])
        full = feature_aug_risk(pair, "kl").total
        ratio_worst = max(ratio_worst, abs(full - convex_rate(shortcut)))

    ok = bias_violations == 0 and neutral_worst <= 1e-10 and ratio_worst <= 1e-10
    report(4, "augmentation structure", ok,
           f"bias violations {bias_violations}, neutral worst {neutral_worst:.2e}, "
           f"shortcut gap {ratio_worst:.2e}")


def test_criterion_5_inequality_suites(property_sweeps):
    """Cross-entropy gap bracket over 10^4 triples (K <= 20); the
    label-anchored output bound over 10^3 triples at p in {1, 2}; the
    transport-entropy comparison against N(0, I) over 10^3 pairs with
    covariance below identity, with the flat-curvature counterexample
    flagged as a violation (checked inside the sweep).  The regret sweep
    is criterion 2's."""
    sweeps = [s for i, s in enumerate(property_sweeps) if i != 2]
    ok = all(s.passed for s in sweeps)
    detail = "; ".join(f"{s.name}: {s.checked - s.failed}/{s.checked}" for s in sweeps)
    report(5, "inequality suites", ok, detail)


def test_criterion_6_signature_correctness():
    """Chen identity and the level-2 shuffle relation to 1e-10 over 100
    random paths (channels <= 3, order <= 4); exact single-segment
    coefficients; dimension formula."""
    rng = np.random.default_rng(66_001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        m_pts = int(rng.integers(3, 9))
        values = np.cumsum(rng.normal(size=(m_pts, n)), axis=0)
        times = np.arange(m_pts, dtype=float)
        split = int(rng.integers(1, m_pts - 1))
        whole = signature_of_path(PiecewisePath(times, values), order)
        halves = chen_product(
            signature_of_path(PiecewisePath(times[: split + 1], values[: split + 1]),
                              order),
            signature_of_path(PiecewisePath(times[split:], values[split:]), order))
        worst = max(worst, float(np.max(np.abs(whole.coeffs - halves.coeffs))))

        two = signature_of_path(PiecewisePath(times, values), 2)
        lvl1, lvl2 = two.level(1), two.level(2)
        shuffle_gap = np.max(np.abs(np.multiply.outer(lvl1, lvl1)
                                    - (lvl2 + lvl2.T)))
        worst = max(worst, float(shuffle_gap))

    segment_exact = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        delta = rng.normal(size=n)
        sig = signature_of_path(
            PiecewisePath([0.0, 1.0], np.vstack([np.zeros(n), delta])), 4)
        block = np.array(1.0)
        for m in range(1, 5):
            block = np.multiply.outer(block, delta) / m
            segment_exact &= bool(np.array_equal(sig.level(m), block))

    dims_ok = (signature_dim(3, 2) == 13 and signature_dim(1, 4) == 5
               and signature_dim(3, 4) == 121)
    ok = worst <= 1e-10 and segment_exact and dims_ok
    report(6, "signature correctness", ok,
           f"worst identity gap {worst:.2e}, segments exact {segment_exact}")


def test_criterion_7_pipeline_properties():
    """Synthetic stand-ins for the market-data tables: anchored ridge
    transfer beats direct fitting on test MSE for a majority of 50
    seeds; over 200 synthetic portfolio pairs the correlation between
    prescreen W2 risk and out-of-sample Sharpe is negative."""
    ridge_cells = ridge_transfer_study()
    wins = sum(1 for c in ridge_cells if c.transfer_mse <= c.direct_mse)

    portfolio_cells = portfolio_transfer_study()
    corr = float(np.corrcoef([c.prescreen_risk for c in portfolio_cells],
                             [c.transfer_sharpe for c in portfolio_cells])[0, 1])

    ok = wins > 25 and corr < 0.0
    report(7, "pipeline properties", ok,
           f"ridge transfer wins {wins}/50, portfolio risk/sharpe corr {corr:.3f}")


def test_criterion_8_continuity_probes():
    """Risk-change ratios stay within a 2x band across the delta ladder
    for bias-dominated tasks, and are exactly zero at delta = 0."""
    cov = np.array([[1.0, 0.5], [0.5, 1.3]])
    pairs = [
        BasicCasePair(GaussianJointTask(1, 1, [0.0, 0.0], cov),
                      GaussianJointTask(1, 1, [0.4, 1.1], cov)),
        BasicCasePair(GaussianJointTask(2, 1, [0.0, 0.0, 0.0], np.eye(3) + 0.3),
                      GaussianJointTask(2, 1, [0.2, -0.3, 0.8], np.eye(3) + 0.3)),
    ]
    ok = True
    details = []
    for i, pair in enumerate(pairs):
        stream = SeededStream(9_000 + i)
        assert continuity_probe_input(pair, 0.0, 8, stream) == 0.0
        ratios = [continuity_probe_input(pair, delta, 32, stream.substream(j))
                  for j, delta in enumerate((1e-1, 1e-2, 1e-3))]
        band = max(ratios) / min(ratios)
        ok = ok and band <= 2.0 and all(np.isfinite(r) for r in ratios)
        details.append(f"pair{i} band {band:.2f}x")
    report(8, "continuity probes", ok, ", ".join(details))
