"""Risk combiners, the published benchmark table, task metrics, and the
continuity probes."""

import numpy as np
import pytest

from transrisk.gauss_transfer import BasicCasePair
from transrisk.gaussian import AffineModel, GaussianJointTask
from transrisk.mc import SeededStream
from transrisk.risk import (
    OFFICE31_COMBINER,
    OFFICE31_TABLE,
    PolyCombiner,
    RiskPair,
    affine_sup_distance,
    continuity_probe_input,
    continuity_probe_model,
    linear_risk,
    min_risk_over_set,
    poly_risk,
    source_task_distance,
)
from transrisk.errors import ValidationError


class TestCombiners:
    def test_zero_pair_is_zero(self):
        pair = RiskPair(0.0, 0.0)
        assert linear_risk(pair, 1.0) == 0.0
        assert poly_risk(pair, OFFICE31_COMBINER) == 0.0

    def test_linear_arithmetic(self):
        assert linear_risk(RiskPair(0.5, 0.3), 2.0) == 1.3

    def test_linear_monotone_in_lambda(self):
        pair = RiskPair(0.4, 0.2)
        values = [linear_risk(pair, lam) for lam in (0.5, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValidationError, match="lambda must be positive"):
            linear_risk(RiskPair(0.1, 0.1), 0.0)

    def test_negative_risk_rejected(self):
        with pytest.raises(ValidationError, match=r"risks must be nonnegative, got \(-0.1, 0.2\)"):
            RiskPair(-0.1, 0.2)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            PolyCombiner(coef_input=-0.1, coef_output_sq=1.0)

    def test_published_rows_reproduced(self):
        """All six benchmark rows within the published rounding."""
        for label, ei, eo, published in OFFICE31_TABLE:
            got = poly_risk(RiskPair(ei, eo), OFFICE31_COMBINER)
            assert abs(got - published) <= 0.0025, (label, got, published)

    def test_single_row_value(self):
        got = poly_risk(RiskPair(0.181, 0.428), OFFICE31_COMBINER)
        np.testing.assert_allclose(got, 0.224, atol=1e-3)

    def test_monotonicity_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            ei, eo = rng.uniform(0.0, 2.0, size=2)
            bump = rng.uniform(0.0, 0.5)
            pair = RiskPair(ei, eo)
            up_in = RiskPair(ei + bump, eo)
            up_out = RiskPair(ei, eo + bump)
            for value in (lambda p: poly_risk(p, OFFICE31_COMBINER),
                          lambda p: linear_risk(p, 0.7)):
                assert value(up_in) >= value(pair)
                assert value(up_out) >= value(pair)


class TestMinRiskOverSet:
    def test_singleton(self):
        result = min_risk_over_set([("only", RiskPair(0.2, 0.4))], 1.0)
        assert result.model_id == "only"

    def test_equal_input_risks_reduce_to_output_argmin(self):
        entries = [("hi", RiskPair(0.3, 0.3)), ("lo", RiskPair(0.3, 0.1))]
        for combiner in (OFFICE31_COMBINER, 1.0, 17.0):
            assert min_risk_over_set(entries, combiner).model_id == "lo"

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        entries = [(i, RiskPair(rng.uniform(0, 1), rng.uniform(0, 1)))
                   for i in range(100)]
        got = min_risk_over_set(entries, OFFICE31_COMBINER)
        values = [poly_risk(pair, OFFICE31_COMBINER) for _, pair in entries]
        assert got.value == min(values)
        assert got.model_id == int(np.argmin(values))

    def test_argmin_invariant_under_input_shift_linear(self):
        """Adding a constant to every input risk shifts all linear scores
        equally: the argmin cannot move."""
        rng = np.random.default_rng(3)
        entries = [(i, RiskPair(rng.uniform(0, 1), rng.uniform(0, 1)))
                   for i in range(30)]
        base = min_risk_over_set(entries, 2.0).model_id
        shifted = [(i, RiskPair(p.input_risk + 0.8, p.output_risk))
                   for i, p in entries]
        assert min_risk_over_set(shifted, 2.0).model_id == base

    def test_tie_breaks_to_first(self):
        entries = [("a", RiskPair(0.1, 0.1)), ("b", RiskPair(0.1, 0.1))]
        assert min_risk_over_set(entries, 1.0).model_id == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="need at least one candidate model"):
            min_risk_over_set([], 1.0)


class TestTaskMetrics:
    def test_identical_models(self):
        f = AffineModel([[1.0, 2.0]], [0.5])
        assert affine_sup_distance(f, f, 10.0) == 0.0

    def test_equal_weights_intercept_gap(self):
        f1 = AffineModel([[1.0, 2.0]], [0.5])
        f2 = AffineModel([[1.0, 2.0]], [0.2])
        np.testing.assert_allclose(affine_sup_distance(f1, f2, 10.0), 0.3)

    def test_different_weights_saturate(self):
        """sup over any large grid exceeds the cap once weights differ."""
        f1 = AffineModel([[1.0]], [0.0])
        f2 = AffineModel([[1.001]], [0.0])
        cap = 10.0
        assert affine_sup_distance(f1, f2, cap) == cap
        x = np.linspace(-1e6, 1e6, 5)[:, None]
        gaps = np.abs(f1(x) - f2(x))
        assert gaps.max() > cap

    def test_task_distance_sums(self):
        assert source_task_distance(0.5, 0.3) == 0.8
        assert source_task_distance(0.0, 0.0) == 0.0


def bias_dominated_pair():
    """Σ_S = Σ_T with a mean gap: all risk sits in the bias term."""
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    return BasicCasePair(
        GaussianJointTask(1, 1, [0.0, 0.0], cov),
        GaussianJointTask(1, 1, [0.3, 0.9], cov),
    )


class TestContinuityProbes:
    def test_zero_delta_is_zero(self):
        pair = bias_dominated_pair()
        stream = SeededStream(5)
        assert continuity_probe_input(pair, 0.0, 10, stream) == 0.0
        assert continuity_probe_model(pair, 0.0, 10, stream) == 0.0

    def test_input_probe_ratio_stable_on_ladder(self):
        """Bias-dominated task: the ratio |ΔC|/D settles to a finite
        constant down the delta ladder (within a 2x band)."""
        pair = bias_dominated_pair()
        ratios = [continuity_probe_input(pair, delta, 32, SeededStream(6))
                  for delta in (1e-1, 1e-2, 1e-3)]
        assert all(r > 0.0 for r in ratios)
        assert max(ratios) <= 2.0 * min(ratios)

    def test_input_probe_bounded_at_zero_risk(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        pair = BasicCasePair(GaussianJointTask(1, 1, [0.0, 0.0], cov),
                             GaussianJointTask(1, 1, [0.0, 0.0], cov))
        ratios = [continuity_probe_input(pair, delta, 32, SeededStream(7))
                  for delta in (1e-1, 1e-2, 1e-3)]
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 10.0

    def test_model_probe_small_delta_small_change(self):
        """1-D closed form: |ΔC_W| ≤ 10·δ for moderate weights and scales,
        consistent with a finite-difference bound on the derivative."""
        pair = bias_dominated_pair()
        delta = 1e-3
        change = continuity_probe_model(pair, delta, 64, SeededStream(8))
        assert 0.0 < change <= 10.0 * delta

    def test_model_probe_nonnegative_at_zero_risk(self):
        """At an exactly transferable pair the risk is minimized at the
        pretrained weights, so every perturbation is uphill."""
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        pair = BasicCasePair(GaussianJointTask(1, 1, [0.0, 0.0], cov),
                             GaussianJointTask(1, 1, [0.0, 0.0], cov))
        change = continuity_probe_model(pair, 1e-2, 64, SeededStream(9))
        assert change >= 0.0
