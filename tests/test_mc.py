"""Oracle infrastructure: stream determinism, sampler moments, and
estimator consistency ladders."""

import math

import numpy as np
import pytest

from transrisk import (
    AffineModel,
    GaussianDist,
    GaussianJointTask,
    SeededStream,
    fit_optimal_affine,
    kl_gaussian,
    kl_quadrature_1d,
    mc_loss,
    mc_loss_gap,
    mc_w2_1d,
    sample_joint,
    w2_gaussian_sq,
)
from transrisk.errors import NotOneDimensional, SingularReference


class TestSeededStream:
    def test_same_seed_same_sequence(self):
        a = SeededStream(42).normals(1000)
        b = SeededStream(42).normals(1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededStream(1).normals(100),
                                  SeededStream(2).normals(100))

    def test_substreams_are_disjoint(self):
        base = SeededStream(7)
        a = base.substream(0).normals(100)
        b = base.substream(1).normals(100)
        assert not np.array_equal(a, b)

    def test_nested_substreams_do_not_collide(self):
        base = SeededStream(7)
        seen = set()
        for i in range(5):
            for j in range(5):
                seen.add(base.substream(i).substream(j).index)
            seen.add(base.substream(i).index)
        assert len(seen) == 30

    def test_frozen_values(self):
        """Freeze the first draws so any engine change is caught."""
        got = SeededStream(2024).normals(3)
        np.testing.assert_allclose(
            got, [0.6869828763671509, 0.3952018636067077, 0.9561872707588699],
            rtol=0, atol=1e-15)


class TestSampleJoint:
    def test_zero_covariance_returns_mean(self):
        task = GaussianJointTask.__new__(GaussianJointTask)
        # zero joint covariance is not constructible (input block must be PD),
        # so degenerate sampling is exercised through an almost-zero scale
        task = GaussianJointTask(1, 1, [2.0, -1.0], np.eye(2) * 1e-9)
        draws = sample_joint(task, 10, SeededStream(0))
        np.testing.assert_allclose(draws, np.tile([2.0, -1.0], (10, 1)), atol=1e-3)

    def test_moments_converge(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4)) / 2.0
        cov = a @ a.T + 0.3 * np.eye(4)
        task = GaussianJointTask(3, 1, rng.normal(size=4), cov)
        draws = sample_joint(task, 10 ** 6, SeededStream(55))
        np.testing.assert_allclose(draws.mean(axis=0), task.mean, atol=5e-3)
        gap = np.linalg.norm(np.cov(draws, rowvar=False) - task.cov)
        assert gap < 1e-2

    def test_deterministic(self):
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.4], [0.4, 1.0]])
        a = sample_joint(task, 100, SeededStream(9))
        b = sample_joint(task, 100, SeededStream(9))
        np.testing.assert_array_equal(a, b)

    def test_loss_deterministic_across_chunk_boundaries(self):
        """mc_loss is a pure function of (arguments, seed), including for
        sample counts that span several internal chunks."""
        import transrisk.mc as mc

        task = GaussianJointTask(2, 1, [0.0, 0.0, 1.0],
                                 [[1.0, 0.2, 0.4], [0.2, 1.0, 0.1], [0.4, 0.1, 1.0]])
        model = fit_optimal_affine(task)
        n = mc._CHUNK * 2 + 12345
        est_a, se_a = mc_loss(model, task, n, SeededStream(3))
        est_b, se_b = mc_loss(model, task, n, SeededStream(3))
        assert est_a == est_b and se_a == se_b


class TestMCLoss:
    def test_optimal_model_converges_to_residual_variance(self):
        task = GaussianJointTask(2, 1, [0.0, 0.0, 0.5],
                                 [[1.0, 0.3, 0.5], [0.3, 1.0, 0.2], [0.5, 0.2, 1.0]])
        model = fit_optimal_affine(task)
        explained = task.cov_yx @ np.linalg.solve(task.cov_x, task.cov_xy)
        expected = float(task.cov_y[0, 0] - explained[0, 0])
        est, se = mc_loss(model, task, 10 ** 6, SeededStream(17))
        assert abs(est - expected) <= 3.0 * se

    def test_any_model_loses_to_optimal(self):
        rng = np.random.default_rng(23)
        task = GaussianJointTask(2, 1, rng.normal(size=3),
                                 np.eye(3) + 0.4 * np.ones((3, 3)))
        optimal = fit_optimal_affine(task)
        for k in range(5):
            other = AffineModel(optimal.weight + rng.normal(scale=0.5, size=(1, 2)),
                                optimal.intercept + rng.normal())
            est_other, se_other = mc_loss(other, task, 10 ** 5, SeededStream(k))
            est_opt, se_opt = mc_loss(optimal, task, 10 ** 5, SeededStream(k))
            assert est_other >= est_opt - 3.0 * math.hypot(se_other, se_opt)

    def test_loss_gap_matches_separate_losses(self):
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        m1 = AffineModel([[0.2]], [0.0])
        m2 = fit_optimal_affine(task)
        gap, se = mc_loss_gap(m1, m2, task, 10 ** 6, SeededStream(31))
        l1, se1 = mc_loss(m1, task, 10 ** 6, SeededStream(77))
        l2, se2 = mc_loss(m2, task, 10 ** 6, SeededStream(78))
        assert abs(gap - (l1 - l2)) <= 3.0 * math.sqrt(se ** 2 + se1 ** 2 + se2 ** 2)


class TestMCW2:
    def test_identical_laws(self):
        p = GaussianDist([0.0], [[1.0]])
        est, se = mc_w2_1d(p, p, 10 ** 5, SeededStream(1))
        assert est <= 3.0 / math.sqrt(10 ** 5) + 3.0 * se

    def test_mean_shift_nine(self):
        p = GaussianDist([0.0], [[1.0]])
        q = GaussianDist([3.0], [[1.0]])
        est, se = mc_w2_1d(p, q, 10 ** 6, SeededStream(2))
        assert abs(est - 9.0) < 0.05

    def test_multivariate_rejected(self):
        p = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(NotOneDimensional):
            mc_w2_1d(p, p, 1000, SeededStream(0))

    @pytest.mark.parametrize("n", [40 * 25 + 1, 40 * 25 + 17, 40 * 25 + 39])
    def test_uses_all_draws(self, n, monkeypatch):
        """n = 40·m + r: the first r shards draw m + 1, and the estimate is
        the mean over all n draws."""
        p = GaussianDist([0.3], [[1.3]])
        q = GaussianDist([-0.5], [[0.6]])
        drawn = []
        normals = SeededStream.normals

        def counting(self, k):
            z = normals(self, k)
            drawn.append(z)
            return z

        monkeypatch.setattr(SeededStream, "normals", counting)
        est, _ = mc_w2_1d(p, q, n, SeededStream(5))
        assert [len(z) for z in drawn] == [26] * (n - 1000) + [25] * (1040 - n)
        z = np.concatenate(drawn)
        a = 0.3 + math.sqrt(1.3) * z
        b = -0.5 + math.sqrt(0.6) * z
        np.testing.assert_allclose(est, np.mean((a - b) ** 2), rtol=1e-13)
        assert est != mc_w2_1d(p, q, 1000, SeededStream(5))[0]

    def test_consistency_ladder(self):
        """Error and standard error both shrink as n grows 10^3 → 10^5.

        The standard error shrinks 10×, so for an unbiased estimator
        ``errors[1] < errors[0]`` fails by chance with probability
        (2/π)·atan(0.1) ≈ 6% (7.0% measured over 200 seed pairs); the
        seeds are fixed so that the outcome is repeatable."""
        p = GaussianDist([0.3], [[1.3]])
        q = GaussianDist([-0.5], [[0.6]])
        truth = w2_gaussian_sq(p, q)
        errors, ses = [], []
        for k, n in enumerate((10 ** 3, 10 ** 5)):
            est, se = mc_w2_1d(p, q, n, SeededStream(100 + k))
            errors.append(abs(est - truth))
            ses.append(se)
            assert abs(est - truth) <= 3.0 * se
        assert ses[1] < ses[0]
        assert errors[1] < errors[0]

    def test_loss_ladder(self):
        """Error and standard error both shrink as n grows 10^3 → 10^5.

        As in ``test_consistency_ladder``, ``errors[1] < errors[0]`` fails
        by chance with probability (2/π)·atan(0.1) ≈ 6% (5.0% measured over
        200 seed pairs); the seeds are fixed so that the outcome is
        repeatable."""
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
        model = AffineModel([[0.1]], [0.2])
        truth = (0.1 - 0.6) ** 2 + 1.0 - 0.6 ** 2 + (0.6 * 0 - 0.1 * 0 - 0.2) ** 2
        # population loss: var(Y - 0.1X) + bias² = 1 - 2·0.1·0.6 + 0.01 + 0.04
        truth = 1.0 - 2 * 0.1 * 0.6 + 0.1 ** 2 + 0.2 ** 2
        errors, ses = [], []
        for k, n in enumerate((10 ** 3, 10 ** 5)):
            est, se = mc_loss(model, task, n, SeededStream(200 + k))
            errors.append(abs(est - truth))
            ses.append(se)
            assert abs(est - truth) <= 3.0 * se
        assert ses[1] < ses[0]
        assert errors[1] < errors[0]


class TestKLQuadrature:
    def test_identical(self):
        p = GaussianDist([0.7], [[2.0]])
        assert kl_quadrature_1d(p, p) <= 1e-10

    def test_mean_shift_half(self):
        p = GaussianDist([1.0], [[1.0]])
        q = GaussianDist([0.0], [[1.0]])
        np.testing.assert_allclose(kl_quadrature_1d(p, q), 0.5, atol=1e-8)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            p = GaussianDist([rng.normal()], [[rng.uniform(0.2, 3.0)]])
            q = GaussianDist([rng.normal()], [[rng.uniform(0.2, 3.0)]])
            np.testing.assert_allclose(kl_quadrature_1d(p, q), kl_gaussian(p, q),
                                       atol=1e-8)

    def test_zero_reference_variance_rejected(self):
        p = GaussianDist([0.0], [[1.0]])
        q = GaussianDist([0.0], [[0.0]])
        with pytest.raises(SingularReference):
            kl_quadrature_1d(p, q)
