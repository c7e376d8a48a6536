"""Ridge fits (plain and anchored), standardization, and evaluation."""

import numpy as np
import pytest

from transrisk import (
    RegressionDataset,
    Standardizer,
    evaluate,
    pretrain_source,
    ridge_fit,
    transfer_output_risk,
    wp_empirical_1d,
)
from transrisk.regression import concat_datasets, predict
from transrisk.errors import (
    DimensionMismatch,
    NonpositiveLambda,
    ValidationError,
)


def random_dataset(rng, t=50, d=4, theta=None, noise=0.1):
    x = rng.normal(size=(t, d))
    theta = rng.normal(size=d) if theta is None else theta
    y = x @ theta + noise * rng.normal(size=t)
    return RegressionDataset(x, y), theta


def objective(data, theta, lam, anchor=None):
    anchor = np.zeros_like(theta) if anchor is None else anchor
    resid = data.features @ theta - data.targets
    return float(np.mean(resid ** 2) + lam * np.sum((theta - anchor) ** 2))


class TestRidgeFit:
    def test_identity_design(self):
        """X = I over T = d rows: θ = y/(1 + λd)."""
        y = np.array([1.0, -2.0, 3.0])
        data = RegressionDataset(np.eye(3), y)
        lam = 0.7
        theta = ridge_fit(data, lam)
        np.testing.assert_allclose(theta, y / (1.0 + lam * 3), atol=1e-12)

    def test_huge_lambda_pins_to_anchor(self):
        rng = np.random.default_rng(1)
        data, _ = random_dataset(rng)
        anchor = rng.normal(size=4)
        theta = ridge_fit(data, 1e9, anchor=anchor)
        assert np.linalg.norm(theta - anchor) <= 1e-6 * np.linalg.norm(anchor)

    def test_local_optimality(self):
        rng = np.random.default_rng(2)
        data, _ = random_dataset(rng, t=50, d=4)
        lam = 0.5
        theta = ridge_fit(data, lam)
        base = objective(data, theta, lam)
        for _ in range(100):
            delta = rng.normal(size=4)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(data, theta + delta, lam) >= base

    def test_objective_beats_anchor_and_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            data, _ = random_dataset(rng, t=30, d=3)
            anchor = rng.normal(size=3)
            lam = float(rng.uniform(0.01, 5.0))
            theta = ridge_fit(data, lam, anchor=anchor)
            assert objective(data, theta, lam, anchor) <= objective(data, anchor, lam, anchor) + 1e-12
            theta0 = ridge_fit(data, lam)
            assert objective(data, theta0, lam) <= objective(data, np.zeros(3), lam) + 1e-12

    def test_anchored_distance_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        data, _ = random_dataset(rng, t=40, d=5)
        anchor = rng.normal(size=5)
        gaps = [np.linalg.norm(ridge_fit(data, lam, anchor=anchor) - anchor)
                for lam in (1e-3, 1.0, 1e3)]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_intercept_not_penalized(self):
        """With an unpenalized intercept, shifting all targets by a constant
        shifts only the intercept coordinate."""
        rng = np.random.default_rng(5)
        data, _ = random_dataset(rng, t=60, d=3)
        theta = ridge_fit(data, 1.0, fit_intercept=True)
        shifted = RegressionDataset(data.features, data.targets + 100.0)
        theta_shifted = ridge_fit(shifted, 1.0, fit_intercept=True)
        np.testing.assert_allclose(theta_shifted[:-1], theta[:-1], atol=1e-8)
        np.testing.assert_allclose(theta_shifted[-1], theta[-1] + 100.0, atol=1e-8)

    def test_nonpositive_lambda(self):
        data = RegressionDataset(np.eye(2), np.ones(2))
        with pytest.raises(NonpositiveLambda):
            ridge_fit(data, 0.0)

    def test_anchor_length_checked(self):
        data = RegressionDataset(np.eye(2), np.ones(2))
        with pytest.raises(DimensionMismatch):
            ridge_fit(data, 1.0, anchor=np.ones(3))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data, _ = random_dataset(rng)
        a = ridge_fit(data, 0.3)
        b = ridge_fit(data, 0.3)
        assert np.array_equal(a, b)


class TestPretrainSource:
    def test_single_asset_equals_direct(self):
        rng = np.random.default_rng(7)
        data, _ = random_dataset(rng)
        np.testing.assert_array_equal(pretrain_source(data, 1.0),
                                      ridge_fit(data, 1.0))

    def test_duplicated_pool_same_fit(self):
        """Pooling two copies of one asset leaves the normal equations
        unchanged (they are per-row averages)."""
        rng = np.random.default_rng(8)
        data, _ = random_dataset(rng)
        doubled = concat_datasets([data, data])
        np.testing.assert_allclose(pretrain_source(doubled, 1.0),
                                   pretrain_source(data, 1.0), atol=1e-12)


class TestStandardizer:
    def test_train_columns_standardized(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=3.0, scale=2.5, size=(40, 4))
        out = Standardizer(x).transform(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_constant_columns_dropped(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        std = Standardizer(x)
        assert std.n_kept == 1
        assert std.transform(x).shape == (10, 1)

    def test_train_stats_reused_on_test(self):
        rng = np.random.default_rng(10)
        train = rng.normal(size=(30, 2))
        test = rng.normal(loc=5.0, size=(10, 2))
        std = Standardizer(train)
        out = std.transform(test)
        # test data standardized by train stats is NOT zero-mean
        assert abs(out.mean()) > 1.0


class TestEvaluate:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(11)
        theta = np.array([1.0, -2.0])
        x = rng.normal(size=(20, 2))
        data = RegressionDataset(x, x @ theta)
        metrics = evaluate(theta, data)
        assert metrics.mse == 0.0
        np.testing.assert_allclose(metrics.r2, 1.0)
        np.testing.assert_allclose(metrics.corr, 1.0)
        assert metrics.corr_defined

    def test_constant_prediction_r2_zero(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=25)
        x = np.zeros((25, 1))
        theta = np.array([0.0, float(y.mean())])  # intercept-only model
        metrics = evaluate(theta, RegressionDataset(x, y))
        np.testing.assert_allclose(metrics.r2, 0.0, atol=1e-12)
        assert not metrics.corr_defined
        assert metrics.corr == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(13)
        data, theta = random_dataset(rng, t=60, d=3)
        noisy_theta = theta + rng.normal(scale=0.3, size=3)
        metrics = evaluate(noisy_theta, data)
        preds = data.features @ noisy_theta
        mse = float(np.mean((preds - data.targets) ** 2))
        ss_res = float(np.sum((preds - data.targets) ** 2))
        ss_tot = float(np.sum((data.targets - data.targets.mean()) ** 2))
        corr = float(np.corrcoef(preds, data.targets)[0, 1])
        np.testing.assert_allclose(metrics.mse, mse, atol=1e-10)
        np.testing.assert_allclose(metrics.r2, 1 - ss_res / ss_tot, atol=1e-10)
        np.testing.assert_allclose(metrics.corr, corr, atol=1e-10)

    def test_empty_test_set(self):
        with pytest.raises(ValidationError):
            evaluate(np.ones(2), RegressionDataset(np.zeros((0, 2)), np.zeros(0)))


class TestTransferOutputRisk:
    def test_perfect_model_zero(self):
        rng = np.random.default_rng(14)
        theta = rng.normal(size=3)
        x = rng.normal(size=(15, 3))
        data = RegressionDataset(x, x @ theta)
        assert transfer_output_risk(theta, data, 2.0) <= 1e-25

    def test_constant_shift_p1(self):
        rng = np.random.default_rng(15)
        theta = rng.normal(size=2)
        x = rng.normal(size=(15, 2))
        data = RegressionDataset(x, x @ theta + 1.0)
        np.testing.assert_allclose(transfer_output_risk(theta, data, 1.0), 1.0,
                                   atol=1e-12)

    def test_delegates_to_empirical_transport(self):
        rng = np.random.default_rng(16)
        data, theta = random_dataset(rng, t=40, d=3)
        got = transfer_output_risk(theta, data, 2.0)
        direct = wp_empirical_1d(predict(theta, data.features), data.targets, 2.0)
        assert got == direct
