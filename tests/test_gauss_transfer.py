"""Closed-form transfer risks and regret: worked low-dimensional
examples, oracle agreement, and the structural identities."""

import math

import numpy as np
import pytest

from transrisk import (
    AffineModel,
    BasicCasePair,
    FeatureAugmentedPair,
    GaussianJointTask,
    OutputAugmentedPair,
    SeededStream,
    basic_output_risk_kl,
    basic_output_risk_w,
    feature_aug_risk,
    fit_optimal_affine,
    kl_gaussian,
    kl_quadrature_1d,
    mc_loss_gap,
    neutralizing_initialization,
    output_aug_risk,
    pushforward_affine,
    regret_closed_form,
    regret_risk_identity,
    uncorrelated_aug_ratio,
    w2_gaussian_sq,
)
from transrisk.gauss_transfer import convex_rate, output_laws
from transrisk.benchmarks import random_basic_pair
from transrisk.errors import DegeneratePushforward, InconsistentAugmentation


def scalar_pair(cov_s, cov_t, mean_s=(0.0, 0.0), mean_t=(0.0, 0.0)):
    return BasicCasePair(
        GaussianJointTask(1, 1, np.asarray(mean_s), np.asarray(cov_s)),
        GaussianJointTask(1, 1, np.asarray(mean_t), np.asarray(cov_t)),
    )


WORKED = scalar_pair([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.8], [0.8, 1.0]])


class TestConvexRate:
    def test_minimum_at_one(self):
        assert convex_rate(1.0) == 0.0

    def test_series_branch_continuity(self):
        """Series and direct branch agree where they hand over; the
        cancellation-free reference is u − log1p(u)."""
        for u in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
            reference = 0.5 * (u - math.log1p(u))
            np.testing.assert_allclose(convex_rate(1.0 + u), reference,
                                       rtol=1e-9, atol=1e-22)

    def test_small_argument_accuracy(self):
        # near the minimum the value is essentially u²/4
        u = 1e-6
        np.testing.assert_allclose(convex_rate(1.0 + u), u * u / 4.0, rtol=1e-5)

    def test_zero_is_infinite(self):
        assert convex_rate(0.0) == math.inf


class TestBasicCaseKL:
    def test_identical_tasks_zero(self):
        pair = scalar_pair([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 1.0]])
        total, variance, bias = basic_output_risk_kl(pair)
        assert total == variance == bias == 0.0

    def test_worked_example(self):
        """Variance h(0.64/0.25) ≈ 0.3100 with zero bias, confirmed by
        quadrature between the two pushforward output laws."""
        total, variance, bias = basic_output_risk_kl(WORKED)
        np.testing.assert_allclose(variance, 0.3100, atol=5e-5)
        assert bias == 0.0
        from transrisk import GaussianDist
        oracle = kl_quadrature_1d(GaussianDist([0.0], [[0.64]]),
                                  GaussianDist([0.0], [[0.25]]))
        np.testing.assert_allclose(total, oracle, atol=1e-10)

    def test_pure_mean_shift(self):
        shift = 0.7
        pair = scalar_pair([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 1.0]],
                           mean_t=(0.0, shift))
        total, variance, bias = basic_output_risk_kl(pair)
        assert variance == 0.0
        np.testing.assert_allclose(bias, shift ** 2 / (2.0 * 0.25), atol=1e-12)
        np.testing.assert_allclose(total, bias)

    def test_uncorrelated_source_rejected(self):
        pair = scalar_pair([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(DegeneratePushforward):
            basic_output_risk_kl(pair)

    def test_uncorrelated_source_w_still_finite(self):
        """The two variants genuinely diverge on a degenerate pushforward:
        no density for KL, finite cost for W."""
        pair = scalar_pair([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]])
        total, variance, bias = basic_output_risk_w(pair)
        np.testing.assert_allclose(total, 0.25, atol=1e-12)  # (0 - 0.5)^2

    def test_matches_generic_divergence_on_pushforwards(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pair = random_basic_pair(rng, int(rng.integers(1, 5)))
            tgt = pair.target
            target_law = pushforward_affine(fit_optimal_affine(tgt), tgt.mean_x, tgt.cov_x)
            inter_law = pushforward_affine(fit_optimal_affine(pair.source),
                                           tgt.mean_x, tgt.cov_x)
            closed = basic_output_risk_kl(pair).total
            np.testing.assert_allclose(closed, kl_gaussian(target_law, inter_law),
                                       atol=1e-10 * max(1.0, closed))


class TestBasicCaseW:
    def test_identical_tasks_zero(self):
        pair = scalar_pair([[2.0, 0.3], [0.3, 1.0]], [[2.0, 0.3], [0.3, 1.0]])
        assert basic_output_risk_w(pair).total <= 1e-12

    def test_worked_example(self):
        total, variance, bias = basic_output_risk_w(WORKED)
        np.testing.assert_allclose(variance, 0.09, atol=1e-12)
        assert bias == 0.0

    def test_pure_mean_shift(self):
        pair = scalar_pair([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 1.0]],
                           mean_t=(0.0, -1.3))
        total, variance, bias = basic_output_risk_w(pair)
        assert variance == 0.0
        np.testing.assert_allclose(total, 1.69, atol=1e-12)

    def test_matches_generic_divergence_on_pushforwards(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pair = random_basic_pair(rng, int(rng.integers(1, 5)))
            tgt = pair.target
            target_law = pushforward_affine(fit_optimal_affine(tgt), tgt.mean_x, tgt.cov_x)
            inter_law = pushforward_affine(fit_optimal_affine(pair.source),
                                           tgt.mean_x, tgt.cov_x)
            closed = basic_output_risk_w(pair).total
            np.testing.assert_allclose(closed, w2_gaussian_sq(target_law, inter_law),
                                       atol=1e-10 * max(1.0, closed))

    def test_decomposition_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pair = random_basic_pair(rng, int(rng.integers(1, 6)))
            for fn in (basic_output_risk_w, basic_output_risk_kl):
                total, variance, bias = fn(pair)
                np.testing.assert_allclose(total, variance + bias,
                                           atol=1e-10 * max(1.0, abs(total)))

    def test_bias_terms_vanish_together(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pair = random_basic_pair(rng, 2)
            kl_bias = basic_output_risk_kl(pair).bias_term
            w_bias = basic_output_risk_w(pair).bias_term
            assert (kl_bias <= 1e-12) == (w_bias <= 1e-12)

    def test_variance_vanishes_iff_quadratic_forms_match(self):
        """Constructive, both directions: equal quadratic forms give zero
        variance; unequal ones give strictly positive variance."""
        # forward: rescale the target correlation so the forms match exactly
        src = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        tgt_x = 4.0
        # source model w_S = 0.5; its variance on target inputs: 0.25·4 = 1
        # target quadratic form Σ_TXY²/Σ_TX must equal 1 → Σ_TXY = 2
        tgt = GaussianJointTask(1, 1, [0.0, 0.0], [[tgt_x, 2.0], [2.0, 1.5]])
        pair = BasicCasePair(src, tgt)
        assert basic_output_risk_kl(pair).variance_term <= 1e-12
        assert basic_output_risk_w(pair).variance_term <= 1e-12
        # backward: any mismatch makes both variance terms positive
        tgt_bad = GaussianJointTask(1, 1, [0.0, 0.0], [[tgt_x, 1.5], [1.5, 1.5]])
        pair_bad = BasicCasePair(src, tgt_bad)
        assert basic_output_risk_kl(pair_bad).variance_term > 1e-6
        assert basic_output_risk_w(pair_bad).variance_term > 1e-6


class TestRegret:
    def test_identical_tasks_zero(self):
        pair = scalar_pair([[1.0, 0.4], [0.4, 1.0]], [[1.0, 0.4], [0.4, 1.0]])
        assert regret_closed_form(pair).regret == 0.0

    def test_worked_example(self):
        regret, variance, bias = regret_closed_form(WORKED)
        np.testing.assert_allclose(variance, 0.09, atol=1e-12)
        assert bias == 0.0

    @pytest.mark.slow
    def test_worked_example_against_mc(self):
        src_model = fit_optimal_affine(WORKED.source)
        tgt_model = fit_optimal_affine(WORKED.target)
        est, se = mc_loss_gap(src_model, tgt_model, WORKED.target,
                              10 ** 7, SeededStream(404))
        assert abs(est - 0.09) <= max(3.0 * se, 1e-3)

    @pytest.mark.slow
    def test_random_pair_against_mc(self):
        rng = np.random.default_rng(5)
        pair = random_basic_pair(rng, 4)
        closed = regret_closed_form(pair).regret
        est, se = mc_loss_gap(fit_optimal_affine(pair.source),
                              fit_optimal_affine(pair.target),
                              pair.target, 10 ** 7, SeededStream(405))
        assert abs(est - closed) <= 3.0 * se

    def test_identity_and_lower_bound_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pair = random_basic_pair(rng, int(rng.integers(1, 7)))
            regret, risk_w, residual = regret_risk_identity(pair)
            scale = max(1.0, abs(regret))
            assert abs(regret - (risk_w + residual)) <= 1e-9 * scale
            assert residual >= -1e-12
            assert risk_w <= regret + 1e-9 * scale

    def test_parallel_weights_zero_residual(self):
        """In 1-D with same-sign weights the two vectors are parallel, so
        Cauchy-Schwarz is tight and the residual vanishes."""
        identity = regret_risk_identity(WORKED)
        np.testing.assert_allclose(identity.residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(identity.regret, identity.risk_w, atol=1e-12)

    def test_orthogonal_weights_residual(self):
        src = GaussianJointTask(2, 1, np.zeros(3),
                                np.array([[1.0, 0.0, 0.5],
                                          [0.0, 1.0, 0.0],
                                          [0.5, 0.0, 1.0]]))
        tgt = GaussianJointTask(2, 1, np.zeros(3),
                                np.array([[1.0, 0.0, 0.0],
                                          [0.0, 1.0, 0.5],
                                          [0.0, 0.5, 1.0]]))
        # w_S = (0.5, 0), w_T = (0, 0.5), Σ_TX = I
        identity = regret_risk_identity(BasicCasePair(src, tgt))
        np.testing.assert_allclose(identity.residual, 2.0 * 0.25, atol=1e-12)

    def test_residual_is_the_alignment_defect(self):
        """residual = 2‖a‖‖b‖(1 − cos∠(a, b)) for the whitened weights:
        zero exactly at parallel, nonnegative inner-product pairs."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            pair = random_basic_pair(rng, 2)
            residual = regret_risk_identity(pair).residual
            root = np.linalg.cholesky(pair.target.cov_x)
            a = root.T @ fit_optimal_affine(pair.target).weight[0]
            b = root.T @ fit_optimal_affine(pair.source).weight[0]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            cos = a @ b / max(na * nb, 1e-300)
            np.testing.assert_allclose(residual, 2.0 * na * nb * (1.0 - cos),
                                       atol=1e-9 * max(1.0, na * nb))


class TestFeatureAugmentation:
    @staticmethod
    def augmented_pair(rho_cross=0.0, rho_new=0.3):
        """d = 1 base block plus k = 1 augmented coordinate."""
        src = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        cov = np.array([
            [1.0, rho_cross, 0.5],
            [rho_cross, 1.0, rho_new],
            [0.5, rho_new, 1.0],
        ])
        tgt = GaussianJointTask(2, 1, [0.0, 0.0, 0.0], cov)
        return FeatureAugmentedPair(src, tgt)

    def test_inconsistent_blocks_rejected(self):
        src = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        cov = np.array([[1.1, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        tgt = GaussianJointTask(2, 1, [0.0, 0.0, 0.0], cov)
        with pytest.raises(InconsistentAugmentation):
            FeatureAugmentedPair(src, tgt)

    def test_bias_is_identically_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho_new = rng.uniform(-0.5, 0.5)
            rho_cross = rng.uniform(-0.4, 0.4)
            pair = self.augmented_pair(rho_cross, rho_new)
            for variant in ("kl", "w"):
                assert feature_aug_risk(pair, variant).bias_term == 0.0

    def test_uninformative_augmentation_zero_risk(self):
        pair = self.augmented_pair(rho_cross=0.0, rho_new=0.0)
        assert feature_aug_risk(pair, "kl").total <= 1e-12
        assert feature_aug_risk(pair, "w").total <= 1e-12

    def test_uncorrelated_ratio_shortcut(self):
        """With a block-diagonal input covariance the ratio reduces to
        1 + (new explained variance)/(old explained variance)."""
        pair = self.augmented_pair(rho_cross=0.0, rho_new=0.3)
        shortcut = uncorrelated_aug_ratio(0.25, [[1.0]], [0.3])
        np.testing.assert_allclose(shortcut, 1.36, atol=1e-12)
        expected_kl = convex_rate(shortcut)
        np.testing.assert_allclose(feature_aug_risk(pair, "kl").total, expected_kl,
                                   atol=1e-12)
        np.testing.assert_allclose(expected_kl, 0.02626, atol=5e-6)

    def test_worked_example_against_quadrature(self):
        """Full (d+k) fit plus quadrature KL between the output laws."""
        from transrisk import GaussianDist

        pair = self.augmented_pair(rho_cross=0.0, rho_new=0.3)
        tgt = pair.target
        target_law = pushforward_affine(fit_optimal_affine(tgt), tgt.mean_x, tgt.cov_x)
        src = pair.source
        inter_law = pushforward_affine(fit_optimal_affine(src), src.mean_x, src.cov_x)
        oracle = kl_quadrature_1d(target_law, inter_law)
        np.testing.assert_allclose(feature_aug_risk(pair, "kl").total, oracle,
                                   atol=1e-8)

    @staticmethod
    def uninformative_source_pair():
        """The source input explains nothing of the output (den = 0); the
        added coordinate explains 0.36 of it."""
        cov = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.6], [0.0, 0.6, 1.0]])
        tgt = GaussianJointTask(2, 1, [0.0, 0.0, 0.0], cov)
        src = GaussianJointTask(1, 1, [0.0, 0.0], cov[np.ix_([0, 2], [0, 2])])
        return FeatureAugmentedPair(src, tgt)

    def test_uninformative_source_w_is_explained_variance(self):
        """W = (√0 − √0.36)², as for the basic case's uncorrelated source."""
        total, variance, bias = feature_aug_risk(self.uninformative_source_pair(), "w")
        np.testing.assert_allclose(total, 0.36, atol=1e-12)
        assert bias == 0.0

    def test_uninformative_source_kl_rejected(self):
        with pytest.raises(DegeneratePushforward):
            feature_aug_risk(self.uninformative_source_pair(), "kl")

    def test_ratio_at_least_one(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pair = self.augmented_pair(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
            assert feature_aug_risk(pair, "w").total >= -1e-15
            # KL of a ratio ≥ 1 is finite and nonnegative
            assert feature_aug_risk(pair, "kl").total >= -1e-15


class TestOutputLaws:
    """``output_laws`` reproduces, bit for bit, the laws built by hand in
    the basic-case and feature-augmentation tests above."""

    @staticmethod
    def assert_same_laws(got, want):
        for law, ref in zip(got, want):
            assert np.array_equal(law.mean, ref.mean)
            assert np.array_equal(law.cov, ref.cov)

    def test_basic_case(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pair = random_basic_pair(rng, int(rng.integers(1, 5)))
            tgt = pair.target
            target_law = pushforward_affine(fit_optimal_affine(tgt), tgt.mean_x, tgt.cov_x)
            inter_law = pushforward_affine(fit_optimal_affine(pair.source),
                                           tgt.mean_x, tgt.cov_x)
            self.assert_same_laws(output_laws(pair), (target_law, inter_law))

    def test_feature_augmentation_takes_source_inputs(self):
        pair = TestFeatureAugmentation.augmented_pair(rho_cross=0.0, rho_new=0.3)
        tgt, src = pair.target, pair.source
        target_law = pushforward_affine(fit_optimal_affine(tgt), tgt.mean_x, tgt.cov_x)
        inter_law = pushforward_affine(fit_optimal_affine(src), src.mean_x, src.cov_x)
        self.assert_same_laws(output_laws(pair), (target_law, inter_law))


def output_aug_fixture(rng, d=3, l=1, k=1, neutral=False, bias_shift=None):
    """Random output-augmented pair; optionally with the neutralizing
    initialization or a pure intercept offset from it."""
    a = rng.normal(size=(d, d))
    cov_x = a @ a.T + 0.5 * np.eye(d)
    w_full = rng.normal(size=(d, l + k))          # joint output loading
    cov_xy = cov_x @ w_full                       # so Σ_X⁻¹Σ_XY = w_full
    noise = np.diag(rng.uniform(0.5, 1.0, size=l + k))
    cov_y = w_full.T @ cov_x @ w_full + noise
    mean_x = rng.normal(size=d)
    mean_y = rng.normal(size=l + k)
    cov = np.block([[cov_x, cov_xy], [cov_xy.T, cov_y]])
    tgt = GaussianJointTask(d, l + k, np.concatenate([mean_x, mean_y]),
                            0.5 * (cov + cov.T))
    src = GaussianJointTask(
        d, l, tgt.mean[: d + l],
        tgt.cov[: d + l, : d + l])
    if neutral or bias_shift is not None:
        init = neutralizing_initialization(src, tgt.cov_xy[:, l:], tgt.mean_y[l:])
        if bias_shift is not None:
            init = AffineModel(init.weight, init.intercept + bias_shift)
    else:
        init = AffineModel(rng.normal(size=(k, d)), rng.normal(size=k))
    return OutputAugmentedPair(src, tgt, init)


class TestOutputAugmentation:
    def test_inconsistent_blocks_rejected(self):
        rng = np.random.default_rng(10)
        pair = output_aug_fixture(rng)
        broken = GaussianJointTask(
            pair.source.dim_x, pair.source.dim_y,
            pair.source.mean + 0.1, pair.source.cov)
        with pytest.raises(InconsistentAugmentation):
            OutputAugmentedPair(broken, pair.target, pair.init_model)

    def test_neutralizing_initialization_zero_risk(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = output_aug_fixture(rng, neutral=True)
            for variant in ("kl", "w"):
                risk = output_aug_risk(pair, variant)
                assert risk.total <= 1e-10
            law_t, law_i = output_laws(pair)
            np.testing.assert_allclose(law_t.mean, law_i.mean, atol=1e-10)
            np.testing.assert_allclose(law_t.cov, law_i.cov, atol=1e-10)

    def test_intercept_offset_is_pure_bias(self):
        """Offsetting only the initialization intercept leaves the
        covariances equal: variance term 0, bias ½ c'Σ₂⁻¹c with c
        supported on the new block."""
        rng = np.random.default_rng(12)
        shift = np.array([0.4])
        pair = output_aug_fixture(rng, bias_shift=shift)
        risk = output_aug_risk(pair, "kl")
        law_t, law_i = output_laws(pair)
        assert risk.variance_term <= 1e-10
        diff = law_t.mean - law_i.mean
        np.testing.assert_allclose(diff[:1], 0.0, atol=1e-12)
        np.testing.assert_allclose(diff[1:], -shift, atol=1e-12)
        expected = 0.5 * diff @ np.linalg.solve(law_i.cov, diff)
        np.testing.assert_allclose(risk.bias_term, expected, atol=1e-12)
        oracle = kl_gaussian(law_t, law_i)
        np.testing.assert_allclose(risk.total, oracle, atol=1e-10)

    def test_mean_gap_supported_on_new_block(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pair = output_aug_fixture(rng)
            law_t, law_i = output_laws(pair)
            l = pair.source.dim_y
            diff = law_t.mean - law_i.mean
            np.testing.assert_allclose(diff[:l], 0.0, atol=1e-10)

    def test_matches_generic_divergences(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            pair = output_aug_fixture(rng)
            kl_risk = output_aug_risk(pair, "kl")
            law_t, law_i = output_laws(pair)
            np.testing.assert_allclose(kl_risk.total, kl_gaussian(law_t, law_i),
                                       atol=1e-10 * max(1.0, kl_risk.total))
            w_risk = output_aug_risk(pair, "w")
            np.testing.assert_allclose(w_risk.total, w2_gaussian_sq(law_t, law_i),
                                       atol=1e-9 * max(1.0, w_risk.total))

    def test_kl_variance_matches_eigenvalue_sum(self):
        """½Σ(λᵢ − log λᵢ − 1) over the eigenvalues of Σ₂⁻¹Σ₁."""
        rng = np.random.default_rng(15)
        pair = output_aug_fixture(rng)
        risk = output_aug_risk(pair, "kl")
        law_t, law_i = output_laws(pair)
        lam = np.linalg.eigvals(np.linalg.solve(law_i.cov, law_t.cov))
        lam = np.real(lam)
        expected = 0.5 * float(np.sum(lam - np.log(lam) - 1.0))
        np.testing.assert_allclose(risk.variance_term, expected, atol=1e-9)
        assert risk.variance_term >= 0.0
