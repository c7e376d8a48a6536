"""Gaussian algebra: construction invariants, optimal affine fits,
pushforwards, and the two closed-form divergences, each checked against
an independent oracle."""

import numpy as np
import pytest

from transrisk.mc import SeededStream
from transrisk.errors import NumericalError, ValidationError
from transrisk.gaussian import (
    AffineModel,
    CHOLESKY_JITTER,
    GaussianDist,
    GaussianJointTask,
    RANK_REL_TOL,
    SYMMETRY_TOL,
    chol_solve,
    cholesky_with_jitter,
    compose_affine,
    fit_optimal_affine,
    kl_gaussian,
    kl_split,
    pushforward_affine,
    w2_gaussian_sq,
    w2_split,
)


def random_task(rng, d, l=1, scale=1.0):
    n = d + l
    a = rng.normal(size=(n, n))
    cov = scale * (a @ a.T + 0.5 * np.eye(n))
    return GaussianJointTask(d, l, rng.normal(size=n), cov)


def joint_draws(task, n, seed):
    """n rows of the task's joint law: the stream's normals coloured by
    the Cholesky factor of the joint covariance."""
    z = SeededStream(seed).normals(n * task.cov.shape[0]).reshape(n, -1)
    return z @ np.linalg.cholesky(task.cov).T + task.mean


def random_dist(rng, n):
    a = rng.normal(size=(n, n))
    return GaussianDist(rng.normal(size=n), a @ a.T + 0.3 * np.eye(n))


def w2_bracket(p, q):
    """(lower, upper) bounds on W2²(p, q) for positive definite laws.

    Upper: the cost ‖Δμ‖² + ‖L_p − L_q·Q‖²_F of the coupling X = μ_p + L_p·z,
    Y = μ_q + L_q·Q·z for an orthogonal Q, here the Procrustes Q = UVᵀ
    from the SVD UΣVᵀ of L_qᵀL_p.  Lower: for any SPD T, 2⟨x, y⟩ ≤
    xᵀTx + yᵀT⁻¹y, so W2² ≥ ‖Δμ‖² + tr Σ_p + tr Σ_q − tr(TΣ_p) − tr(T⁻¹Σ_q)
    (weak duality), here at T = sym(L_q·Q·L_p⁻¹), the Brenier map.  A
    wrong Q or T can only widen the bracket."""
    chol_p, chol_q = np.linalg.cholesky(p.cov), np.linalg.cholesky(q.cov)
    u, _, vt = np.linalg.svd(chol_q.T @ chol_p)
    rotation = u @ vt
    shift = float(np.sum((p.mean - q.mean) ** 2))
    upper = shift + float(np.sum((chol_p - chol_q @ rotation) ** 2))
    t = np.linalg.solve(chol_p.T, (chol_q @ rotation).T).T
    t = 0.5 * (t + t.T)
    assert np.linalg.eigvalsh(t)[0] > 0.0, "the lower bound needs an SPD T"
    lower = shift + float(np.trace(p.cov) + np.trace(q.cov) - np.trace(t @ p.cov)
                          - np.trace(np.linalg.solve(t, q.cov)))
    return lower, upper


class TestConstruction:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError, match="max abs asymmetry"):
            GaussianDist([0.0, 0.0], [[1.0, 0.3], [0.1, 1.0]])

    def test_tiny_asymmetry_symmetrized(self):
        cov = np.array([[1.0, 0.5 + 5e-11], [0.5, 1.0]])
        dist = GaussianDist([0.0, 0.0], cov)
        np.testing.assert_array_equal(dist.cov, dist.cov.T)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValidationError, match="min eigenvalue"):
            GaussianDist([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_empty_law_rejected(self):
        """A zero-dimensional law is a ValidationError, not an IndexError
        from its empty spectrum."""
        with pytest.raises(ValidationError, match="cov is empty"):
            GaussianDist(np.zeros(0), np.zeros((0, 0)))

    def test_rank_deficient_covariance_allowed(self):
        GaussianDist([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])

    def test_joint_task_blocks(self):
        task = GaussianJointTask(2, 1, [1.0, 2.0, 3.0],
                                 np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(task.mean_x, [1.0, 2.0])
        np.testing.assert_array_equal(task.mean_y, [3.0])
        np.testing.assert_array_equal(task.cov_x, np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(task.cov_yx, task.cov_xy.T)

    def test_joint_task_needs_pd_input_block(self):
        cov = np.diag([0.0, 1.0])
        with pytest.raises(ValidationError, match="input covariance block must be strictly PD"):
            GaussianJointTask(1, 1, [0.0, 0.0], cov)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mean has dim 2 but cov is 3x3"):
            GaussianDist([0.0, 0.0], np.eye(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariance_rejected(self, bad):
        """A non-finite entry, even in one triangle only, is rejected
        before the symmetry test subtracts it from itself."""
        with pytest.raises(ValidationError, match="^non-finite entries in cov$"):
            GaussianDist([0.0, 0.0], [[1.0, 0.5], [bad, 1.0]])
        with pytest.raises(ValidationError, match="^non-finite entries in cov$"):
            GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, bad], [bad, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValidationError, match="^non-finite entries in mean$"):
            GaussianDist([0.0, bad], np.eye(2))
        with pytest.raises(ValidationError, match="^non-finite entries in mean$"):
            GaussianJointTask(1, 1, [0.0, bad], np.eye(2))


class TestFitOptimalAffine:
    def test_scalar_example(self):
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        model = fit_optimal_affine(task)
        np.testing.assert_allclose(model.weight, [[0.5]])
        np.testing.assert_allclose(model.intercept, [0.0], atol=1e-15)

    def test_zero_correlation_gives_constant_model(self):
        task = GaussianJointTask(2, 1, [1.0, -1.0, 4.0],
                                 np.diag([1.0, 2.0, 3.0]))
        model = fit_optimal_affine(task)
        np.testing.assert_allclose(model.weight, [[0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(model.intercept, [4.0])

    def test_matches_sampled_least_squares(self):
        """Closed form vs ordinary least squares on 10^6 draws."""
        rng = np.random.default_rng(7)
        task = random_task(rng, 3)
        model = fit_optimal_affine(task)

        xy = joint_draws(task, 10 ** 6, 1234)
        x = np.column_stack([xy[:, :3], np.ones(xy.shape[0])])
        coef, *_ = np.linalg.lstsq(x, xy[:, 3], rcond=None)
        np.testing.assert_allclose(model.weight[0], coef[:3], atol=1e-2)
        np.testing.assert_allclose(model.intercept[0], coef[3], atol=1e-2)

    def test_optimality_against_perturbations(self):
        """The fitted model's population loss is a local (hence global)
        minimum of the quadratic loss surface."""
        rng = np.random.default_rng(11)
        task = random_task(rng, 2)

        def population_loss(w, b):
            # E(Y - wX - b)^2 under the joint law
            wx = np.concatenate([w, [-1.0]])
            quad = wx @ task.cov @ wx
            bias = w @ task.mean_x + b - task.mean_y[0]
            return quad + bias ** 2

        model = fit_optimal_affine(task)
        base = population_loss(model.weight[0], model.intercept[0])
        for _ in range(100):
            dw = rng.normal(scale=1e-3, size=2)
            db = rng.normal(scale=1e-3)
            assert population_loss(model.weight[0] + dw, model.intercept[0] + db) >= base


class TestCholeskyJitter:
    """The single jitter retry of ``cholesky_with_jitter``."""

    def test_singular_psd_takes_the_retry(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        chol = cholesky_with_jitter(a)
        jittered = a + CHOLESKY_JITTER * np.trace(a) / 2 * np.eye(2)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(chol @ chol.T, jittered, rtol=0.0, atol=4 * eps)
        # The retry solves the jittered system, whose condition number is
        # about 2e10, so only the backward error is small: a Cholesky
        # solve keeps the normwise backward error
        # ‖Mx − b‖ / (‖M‖‖x‖ + ‖b‖) below a small multiple of n·eps.
        rng = np.random.default_rng(5)
        for rhs in (np.array([1.0, 2.0]), rng.normal(size=2), rng.normal(size=(2, 3))):
            x = chol_solve(chol, rhs)
            backward = np.linalg.norm(jittered @ x - rhs) / (
                np.linalg.norm(jittered, 2) * np.linalg.norm(x) + np.linalg.norm(rhs))
            assert backward <= 8 * 2 * eps

    def test_zero_matrix_raises(self):
        """A zero trace leaves no jitter to add, so there is no retry."""
        with pytest.raises(NumericalError, match="not positive definite$"):
            cholesky_with_jitter(np.zeros((2, 2)))

    def test_indefinite_matrix_raises_after_retry(self):
        with pytest.raises(NumericalError, match="even with jitter"):
            cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPushforward:
    def test_identity_map(self):
        dist = GaussianDist([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        model = AffineModel(np.eye(2), np.zeros(2))
        out = pushforward_affine(model, dist)
        np.testing.assert_allclose(out.mean, dist.mean)
        np.testing.assert_allclose(out.cov, dist.cov)

    def test_scalar_contraction(self):
        out = pushforward_affine(AffineModel([[0.5]], [0.0]), GaussianDist([0.0], [[1.0]]))
        np.testing.assert_allclose(out.mean, [0.0])
        np.testing.assert_allclose(out.cov, [[0.25]])

    def test_moments_match_samples(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3)) / 2.0
        b = rng.normal(size=2)
        a = rng.normal(size=(3, 3)) / 2.0
        cov = a @ a.T + 0.3 * np.eye(3)
        mean = rng.normal(size=3)
        law = pushforward_affine(AffineModel(w, b), GaussianDist(mean, cov))

        task = GaussianJointTask(3, 1, np.concatenate([mean, [0.0]]),
                                 np.block([[cov, np.zeros((3, 1))],
                                           [np.zeros((1, 3)), np.eye(1)]]))
        x = joint_draws(task, 10 ** 6, 99)[:, :3]
        y = x @ w.T + b
        np.testing.assert_allclose(law.mean, y.mean(axis=0), atol=1e-2)
        np.testing.assert_allclose(law.cov, np.cov(y, rowvar=False), atol=1e-2)

    def test_fit_then_push_reproduces_output_marginal(self):
        """Pushing the input marginal through the fitted model yields mean
        μ_Y and variance Σ_YX Σ_X⁻¹ Σ_XY."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            task = random_task(rng, 3)
            model = fit_optimal_affine(task)
            law = pushforward_affine(model, task.input_marginal())
            expected_var = task.cov_yx @ np.linalg.solve(task.cov_x, task.cov_xy)
            np.testing.assert_allclose(law.mean, task.mean_y, atol=1e-10)
            np.testing.assert_allclose(law.cov, expected_var, atol=1e-10)

    def test_composition(self):
        rng = np.random.default_rng(8)
        inner = AffineModel(rng.normal(size=(3, 2)), rng.normal(size=3))
        outer = AffineModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        a = rng.normal(size=(2, 2))
        mean, cov = rng.normal(size=2), a @ a.T + 0.2 * np.eye(2)

        law = GaussianDist(mean, cov)
        two_steps = pushforward_affine(outer, pushforward_affine(inner, law))
        direct = pushforward_affine(compose_affine(outer, inner), law)
        np.testing.assert_allclose(two_steps.mean, direct.mean, atol=1e-10)
        np.testing.assert_allclose(two_steps.cov, direct.cov, atol=1e-10)

    def test_large_weights_push_to_an_exactly_symmetric_law(self):
        """With weights of scale 1e2, rounding leaves the product WΣWᵀ
        asymmetric beyond SYMMETRY_TOL in some of 200 draws; the
        pushforward still accepts each and returns an exactly symmetric
        covariance."""
        rng = np.random.default_rng(12)
        beyond = 0
        for _ in range(200):
            d, l = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = rng.normal(size=(d, d))
            law = GaussianDist(rng.normal(size=d), a @ a.T + 0.3 * np.eye(d))
            weight = 1e2 * rng.normal(size=(l, d))
            product = weight @ law.cov @ weight.T
            beyond += float(np.max(np.abs(product - product.T))) > SYMMETRY_TOL
            out = pushforward_affine(AffineModel(weight, np.zeros(l)), law)
            assert np.array_equal(out.cov, out.cov.T)
        assert beyond >= 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="model expects inputs of dim 2, got 1"):
            pushforward_affine(AffineModel(np.eye(2), np.zeros(2)), GaussianDist([0.0], [[1.0]]))


class TestKLGaussian:
    def test_identical_is_zero(self):
        p = GaussianDist(np.zeros(2), np.eye(2))
        assert kl_gaussian(p, p) == 0.0

    def test_mean_shift_1d(self):
        p = GaussianDist([1.0], [[1.0]])
        q = GaussianDist([0.0], [[1.0]])
        np.testing.assert_allclose(kl_gaussian(p, q), 0.5, atol=1e-14)

    def test_matches_quadrature_after_diagonalization(self):
        """3-D KL vs 1-D quadrature: whiten p to N(0, I), rotate q's
        covariance diagonal, and sum coordinatewise 1-D divergences.
        Affine invariance and product additivity are the only facts used,
        so this path is independent of the closed form."""
        from scipy.integrate import quad

        rng = np.random.default_rng(21)
        p = random_dist(rng, 3)
        q = random_dist(rng, 3)

        vals, vecs = np.linalg.eigh(p.cov)
        root = (vecs * np.sqrt(vals)) @ vecs.T
        root_inv = np.linalg.inv(root)
        mq = root_inv @ (q.mean - p.mean)
        cq = root_inv @ q.cov @ root_inv.T
        dvals, dvecs = np.linalg.eigh(cq)
        mq = dvecs.T @ mq

        def kl_1d(m, v):
            def f(x):
                lp = -0.5 * x * x - 0.5 * np.log(2 * np.pi)
                lq = -0.5 * (x - m) ** 2 / v - 0.5 * np.log(2 * np.pi * v)
                return np.exp(lp) * (lp - lq)
            return quad(f, -12.0, 12.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]

        oracle = sum(kl_1d(mq[i], dvals[i]) for i in range(3))
        np.testing.assert_allclose(kl_gaussian(p, q), oracle, atol=1e-4)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            assert kl_gaussian(random_dist(rng, n), random_dist(rng, n)) >= 0.0

    def test_singular_reference_rejected(self):
        p = GaussianDist(np.zeros(2), np.eye(2))
        q = GaussianDist(np.zeros(2), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="reference covariance is not positive definite"):
            kl_gaussian(p, q)
        with pytest.raises(NumericalError, match="reference covariance is not positive definite"):
            kl_split(p, q)

    def test_rank_deficient_first_argument_is_infinite(self):
        p = GaussianDist(np.zeros(2), [[1.0, 1.0], [1.0, 1.0]])
        q = GaussianDist([1.0, -1.0], np.eye(2))
        assert kl_gaussian(p, q) == np.inf
        split = kl_split(p, q)
        assert split.variance_term == np.inf and split.total == np.inf
        assert split.bias_term == 1.0

    def test_split_is_variance_plus_half_mahalanobis(self):
        """total = variance + bias, with bias ½ΔμᵀΣq⁻¹Δμ computed here by
        a plain solve, and a variance term that depends on the
        covariances alone."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            p, q = random_dist(rng, n), random_dist(rng, n)
            split = kl_split(p, q)
            diff = p.mean - q.mean
            assert split.total == split.variance_term + split.bias_term
            assert split.total == kl_gaussian(p, q)
            np.testing.assert_allclose(split.bias_term,
                                       0.5 * diff @ np.linalg.solve(q.cov, diff), rtol=1e-12)
            centred = kl_split(GaussianDist(q.mean, p.cov), q)
            assert centred.bias_term == 0.0
            assert centred.variance_term == split.variance_term

    def test_round_off_rank_deficiency_is_caught(self):
        """B Bᵀ with B of shape (3, 2) has rank 2, but round-off leaves
        λ_min near ±1e-16·λ_max, where a Cholesky factor or a positive
        log-determinant sign can still come out.  Every draw must give
        +∞ as the first argument and NumericalError as the reference."""
        rng = np.random.default_rng(5)
        full = GaussianDist(np.zeros(3), np.eye(3))
        for _ in range(50):
            b = rng.normal(size=(3, 2))
            low = GaussianDist(rng.normal(size=3), b @ b.T)
            assert kl_gaussian(low, full) == np.inf
            with pytest.raises(NumericalError, match="reference covariance is not positive definite"):
                kl_gaussian(full, low)


def singular(cov) -> bool:
    return GaussianDist(np.zeros(len(cov)), cov).singular


class TestNumericallySingular:
    def test_relative_tolerance(self):
        assert not singular(np.diag([1.0, 10.0 * RANK_REL_TOL]))
        assert singular(np.diag([1.0, RANK_REL_TOL]))
        assert singular(np.diag([1e6, 0.1 * RANK_REL_TOL * 1e6]))
        assert not singular(np.diag([1e-6, 1e-6]))

    def test_zero_and_negative_round_off(self):
        assert singular(np.zeros((2, 2)))
        assert singular(np.array([[1.0, 0.0], [0.0, -1e-17]]))


class TestW2Gaussian:
    def test_pure_mean_shift(self):
        p = GaussianDist([0.0], [[1.0]])
        q = GaussianDist([3.0], [[1.0]])
        np.testing.assert_allclose(w2_gaussian_sq(p, q), 9.0, atol=1e-12)

    def test_1d_scale_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            p = GaussianDist([0.0], [[s1 ** 2]])
            q = GaussianDist([0.0], [[s2 ** 2]])
            np.testing.assert_allclose(w2_gaussian_sq(p, q), (s1 - s2) ** 2, atol=1e-12)

    def test_commuting_pair_matches_eigenvalue_matching(self):
        """With commuting covariances, W2² = ‖Δμ‖² + Σ(√λᵢ − √γᵢ)² in the
        simultaneous eigenbasis; checked via an explicit diagonalization."""
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        lam = rng.uniform(0.2, 2.0, size=2)
        gam = rng.uniform(0.2, 2.0, size=2)
        p = GaussianDist(rng.normal(size=2), (basis * lam) @ basis.T)
        q = GaussianDist(rng.normal(size=2), (basis * gam) @ basis.T)
        oracle = np.sum((p.mean - q.mean) ** 2) + np.sum((np.sqrt(lam) - np.sqrt(gam)) ** 2)
        np.testing.assert_allclose(w2_gaussian_sq(p, q), oracle, atol=1e-10)

    def test_noncommuting_pairs_inside_primal_dual_bracket(self):
        """Kantorovich duality brackets W2² with no Bures formula: the
        closed form lies in [lower, upper] on 1000 seeded non-commuting
        pairs, d = 2..6, and the bracket is tight to rounding."""
        rng = np.random.default_rng(12)
        for d in range(2, 7):
            for _ in range(200):
                p, q = (GaussianDist(rng.normal(size=d), a @ a.T + 0.1 * np.eye(d))
                        for a in rng.normal(size=(2, d, d)))
                lower, upper = w2_bracket(p, q)
                closed = w2_gaussian_sq(p, q)
                scale = max(1.0, closed)
                assert upper - lower <= 1e-12 * scale, (d, lower, upper)
                assert lower - 1e-9 * scale <= closed <= upper + 1e-9 * scale, (d, closed)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p, q = random_dist(rng, n), random_dist(rng, n)
            d_pq = w2_gaussian_sq(p, q)
            d_qp = w2_gaussian_sq(q, p)
            assert d_pq >= 0.0
            assert abs(d_pq - d_qp) <= 1e-9 * max(1.0, d_pq)

    def test_split_is_variance_plus_squared_mean_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            p, q = random_dist(rng, n), random_dist(rng, n)
            split = w2_split(p, q)
            assert split.total == split.variance_term + split.bias_term
            assert split.total == w2_gaussian_sq(p, q)
            np.testing.assert_allclose(split.bias_term, np.sum((p.mean - q.mean) ** 2),
                                       rtol=1e-14)
            centred = w2_split(GaussianDist(q.mean, p.cov), q)
            assert centred.bias_term == 0.0
            assert centred.variance_term == split.variance_term

    def test_noncommuting_pairs_match_scipy_sqrtm(self):
        """The eigenvalue form of the Bures term against the textbook
        Tr(Σp + Σq − 2(Σp^½ Σq Σp^½)^½) through scipy's Schur sqrtm."""
        from scipy.linalg import sqrtm

        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p, q = random_dist(rng, n), random_dist(rng, n)
            root = sqrtm(p.cov).real
            bures = np.trace(p.cov + q.cov - 2.0 * sqrtm(root @ q.cov @ root).real)
            np.testing.assert_allclose(w2_split(p, q).variance_term, bures,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("a, b", [
        ([0.0], [2.0]),
        ([0.0, 0.0], [0.0, 0.0]),
        ([0.0, 1.5, 4.0], [3.0, 0.0, 4.0]),
        ([0.0, 0.0, 2.0, 1e-3], [1.0, 0.0, 0.0, 1e3]),
    ])
    def test_psd_diagonal_with_zero_entries(self, a, b):
        """Rank-deficient diagonal laws: W2² = Σ(√aᵢ − √bᵢ)², the PSD
        boundary where an unclamped eigenvalue would give NaN."""
        p = GaussianDist(np.zeros(len(a)), np.diag(a))
        q = GaussianDist(np.zeros(len(b)), np.diag(b))
        oracle = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
        for x, y in ((p, q), (q, p)):
            split = w2_split(x, y)
            assert split.bias_term == 0.0
            assert abs(split.total - oracle) <= 1e-12

    def test_rotated_rank_deficient_laws(self):
        """The same laws in a random basis: round-off turns the zero
        eigenvalues into ±1e-16, whose square roots the clamps keep real.
        A perturbation ε of an eigenvalue moves its square root by √ε, so
        the gate is 1e-7."""
        rng = np.random.default_rng(14)
        for _ in range(50):
            basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            a = rng.uniform(0.5, 2.0, size=3) * (rng.permutation(3) > 0)
            b = rng.uniform(0.5, 2.0, size=3) * (rng.permutation(3) > 0)
            p = GaussianDist(np.zeros(3), (basis * a) @ basis.T)
            q = GaussianDist(np.zeros(3), (basis * b) @ basis.T)
            oracle = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
            for x, y in ((p, q), (q, p)):
                assert abs(w2_split(x, y).total - oracle) <= 1e-7

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(10)
        p = random_dist(rng, 3)
        assert w2_gaussian_sq(p, p) <= 1e-12
        q = GaussianDist(p.mean + 0.01, p.cov)
        assert w2_gaussian_sq(p, q) > 1e-6
