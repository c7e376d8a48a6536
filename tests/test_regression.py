"""Ridge fits (plain and anchored), standardization, and evaluation."""

import numpy as np
import pytest

from transrisk import (
    RegressionDataset,
    Standardizer,
    evaluate,
    ridge_fit,
    transfer_output_risk,
    wp_empirical_1d,
)
from transrisk.regression import concat_datasets, predict, ridge_transfer
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
    def test_duplicated_pool_same_fit(self):
        """Pooling two copies of one asset leaves the normal equations of
        the source ridge unchanged (they are per-row averages)."""
        rng = np.random.default_rng(8)
        data, _ = random_dataset(rng)
        doubled = concat_datasets([data, data])
        np.testing.assert_allclose(ridge_fit(doubled, 1.0),
                                   ridge_fit(data, 1.0), atol=1e-12)


class TestRidgeTransfer:
    def test_train_residual_mean_is_zero(self):
        """No fit has an intercept because none would help: the pipeline
        centres the train split, so every linear fit's mean train residual
        vanishes, which is the normal equation of an unpenalized
        intercept.  Passing the train split as the test split returns it
        as the fits see it.  Features and targets are drawn off-centre,
        so a pipeline that stopped centring would fail."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            loc = rng.normal(scale=20.0, size=d)
            scale = rng.uniform(0.1, 10.0, size=d)

            def dataset(t):
                x = loc + scale * rng.normal(size=(t, d))
                y = x @ rng.normal(size=d) + rng.normal(scale=5.0) + rng.normal(size=t)
                return RegressionDataset(x, y)

            source = concat_datasets([dataset(int(rng.integers(d + 2, 80))) for _ in range(2)])
            train = dataset(int(rng.integers(d + 2, 80)))
            fit = ridge_transfer(source, train, train, float(rng.uniform(0.1, 5.0)),
                                 float(rng.uniform(0.1, 5.0)))
            bound = 1e-13 * max(1.0, float(np.linalg.norm(fit.test.targets)))
            for theta in (fit.direct, fit.transfer):
                resid = fit.test.targets - predict(theta, fit.test.features)
                assert abs(float(resid.mean())) <= bound

    def test_parameter_length_checked(self):
        """A parameter carries one entry per feature and nothing else."""
        with pytest.raises(DimensionMismatch):
            predict(np.ones(3), np.zeros((4, 2)))


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
        x = np.ones((25, 1))
        theta = np.array([float(y.mean())])  # predicts the mean everywhere
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
        assert transfer_output_risk(theta, data) <= 1e-25

    def test_constant_shift(self):
        """Targets shifted by 0.5 from the predictions: W2² = 0.25."""
        rng = np.random.default_rng(15)
        theta = rng.normal(size=2)
        x = rng.normal(size=(15, 2))
        data = RegressionDataset(x, x @ theta + 0.5)
        np.testing.assert_allclose(transfer_output_risk(theta, data), 0.25,
                                   atol=1e-12)

    def test_delegates_to_empirical_transport(self):
        rng = np.random.default_rng(16)
        data, theta = random_dataset(rng, t=40, d=3)
        got = transfer_output_risk(theta, data)
        direct = wp_empirical_1d(predict(theta, data.features), data.targets, 2.0)
        assert got == direct
