"""Oracle infrastructure: stream determinism, sampler moments, and
estimator consistency ladders."""

import math

import numpy as np
import pytest
from scipy.stats import chi2, norm, t as student_t

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
from transrisk.mc import W2_SHARDS


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
            got, [0.03674125380393216, -0.588885431018047, -1.361403659119672],
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
        """Studentized sample moments at n = 10^6 pass a Bonferroni gate.

        Each mean is scored by (x̄ᵢ − μᵢ)/√(σᵢᵢ/n) and each covariance
        entry i ≤ j by (ĉᵢⱼ − σᵢⱼ)/√((σᵢᵢσⱼⱼ + σᵢⱼ²)/n), its standard error
        for Gaussian rows.  For a correct sampler the 4 + 10 scores are
        about N(0, 1), so the gate max |score| <= Φ⁻¹(1 − α/28) = 3.97 with
        α = 1e-3 fails by chance on at most 0.1% of seeds.  Colouring the
        same normals with Lᵀ in place of L, or with Σ in place of L, fails
        it."""
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4)) / 2.0
        cov = a @ a.T + 0.3 * np.eye(4)
        task = GaussianJointTask(3, 1, rng.normal(size=4), cov)
        n, alpha = 10 ** 6, 1e-3
        upper = np.triu_indices(4)
        var = np.diag(cov)
        mean_se = np.sqrt(var / n)
        cov_se = np.sqrt((np.outer(var, var) + cov ** 2) / n)[upper]
        gate = float(norm.isf(alpha / (2 * (4 + len(cov_se)))))

        def worst_score(draws):
            mean_z = (draws.mean(axis=0) - task.mean) / mean_se
            cov_z = (np.cov(draws, rowvar=False) - cov)[upper] / cov_se
            return float(np.max(np.abs(np.concatenate([mean_z, cov_z]))))

        assert worst_score(sample_joint(task, n, SeededStream(55))) <= gate
        z = SeededStream(55).normals(n * 4).reshape(n, 4)
        chol = np.linalg.cholesky(cov)
        assert worst_score(z @ chol + task.mean) > gate
        assert worst_score(z @ cov + task.mean) > gate

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

    @pytest.mark.parametrize("n", [W2_SHARDS * 25 + r for r in (1, 17, 39)])
    def test_uses_all_draws(self, n, monkeypatch):
        """n = 40·m + r: the first r shards take m + 1 rows, a shard of m_k
        rows draws ⌈m_k/2⌉ normals z, and the estimate is the mean over the
        antithetic rows concat(z, −z)[:m_k] of every shard."""
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
        r = n % W2_SHARDS
        sizes = [26] * r + [25] * (W2_SHARDS - r)
        assert [len(z) for z in drawn] == [(m + 1) // 2 for m in sizes]
        z = np.concatenate([np.concatenate([z, -z])[:m] for z, m in zip(drawn, sizes)])
        assert len(z) == n
        a = 0.3 + math.sqrt(1.3) * z
        b = -0.5 + math.sqrt(0.6) * z
        np.testing.assert_allclose(est, np.mean((a - b) ** 2), rtol=1e-13)
        assert est != mc_w2_1d(p, q, 1000, SeededStream(5))[0]

    def test_consistency_ladder(self):
        """Error and standard error both shrink as n grows 10^3 → 10^5.

        The standard error shrinks 10×, so for an unbiased estimator
        ``errors[1] < errors[0]`` fails by chance with probability
        (2/π)·atan(0.1) ≈ 6% (5.4% measured over 2000 seed pairs); the
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
        by chance with probability (2/π)·atan(0.1) ≈ 6% (7.2% measured over
        2000 seed pairs); the seeds are fixed so that the outcome is
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


class TestAntitheticStandardErrors:
    """The antithetic standard errors are calibrated at stated rates.

    Each case is a squared gap v = (δ + s·z)² of one standard normal z:
    the W2 rows (a − b)² for p = N(δ, (1 + s)²) and q = N(0, 1), or the
    loss rows (y − f(x))² for independent x, y ~ N(0, s²) and f = −δ.
    Its odd part 2δs·z and even part s²(z² − 1) give
    ρ = corr(v(z), v(−z)) = (s² − 2δ²)/(s² + 2δ²): about −1 with a mean
    shift, 0 at δ² = s²/2, and +1 with equal means.  A pair mean keeps
    only the even part, so at one seed the per-pair scores are the same
    in all three cases; what ρ changes is the per-row standard error.

    Over SEEDS seeds each estimator's studentized scores are N(0, 1)
    (W2's Student t₃₉ scores are mapped to the N(0, 1) score with the same
    tail probability).  Two gates each fire by chance with probability
    ALPHA: the mean beyond ±Φ⁻¹(1 − α/2)/√SEEDS, and Σz² outside the
    central 1 − α interval of χ²_SEEDS.  The six cases then fail by chance
    on at most 12·ALPHA = 0.12% of seed sets.  With ρ near ±1 a standard
    error taken per row instead of per pair is wrong by a factor √(1 + ρ),
    and the Σz² gate fires; at ρ = 0 the two agree, so nothing can fire.
    """

    SEEDS, ALPHA = 300, 1e-4
    CASES = {"rho_-1": (3.0, 0.1), "rho_0": (math.sqrt(0.5), 1.0), "rho_+1": (0.0, 0.5)}

    def fired(self, scores):
        z = np.asarray(scores)
        m = z.size
        gates = []
        if abs(z.mean()) > norm.isf(self.ALPHA / 2) / math.sqrt(m):
            gates.append("mean")
        if not chi2.isf(1 - self.ALPHA / 2, m) <= z @ z <= chi2.isf(self.ALPHA / 2, m):
            gates.append("sum_sq")
        return gates

    def w2_scores(self, delta, s, monkeypatch):
        """Per-pair (batch-means) and per-row scores of ``mc_w2_1d``."""
        n = W2_SHARDS * 1000
        p, q = GaussianDist([delta], [[(1 + s) ** 2]]), GaussianDist([0.0], [[1.0]])
        drawn = []
        normals = SeededStream.normals
        monkeypatch.setattr(SeededStream, "normals",
                            lambda self, k: drawn.append(normals(self, k)) or drawn[-1])
        pair, row = [], []
        for seed in range(self.SEEDS):
            drawn.clear()
            est, se = mc_w2_1d(p, q, n, SeededStream(seed))
            z = np.concatenate([np.concatenate([z, -z]) for z in drawn])
            v = (delta + s * z) ** 2
            gap = est - (delta ** 2 + s ** 2)
            pair.append(norm.isf(student_t.sf(abs(gap / se), W2_SHARDS - 1)) * np.sign(gap))
            row.append(gap / math.sqrt(np.var(v) / n))
        return pair, row

    def loss_scores(self, delta, s, monkeypatch):
        """Per-pair and per-row scores of ``mc_loss``.  The joint factor
        is diag(1, s), so a drawn normal row (z₁, z₂) gives the rows
        y − f(x) = δ ± s·z₂ of one antithetic pair."""
        n = 20_000
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.0], [0.0, s * s]])
        model = AffineModel([[0.0]], [-delta])
        drawn = []
        normals = SeededStream.normals
        monkeypatch.setattr(SeededStream, "normals",
                            lambda self, k: drawn.append(normals(self, k)) or drawn[-1])
        pair, row = [], []
        for seed in range(self.SEEDS):
            drawn.clear()
            est, se = mc_loss(model, task, n, SeededStream(seed))
            (z,) = drawn
            z2 = z.reshape(-1, 2)[:, 1]
            v = np.concatenate([(delta + s * z2) ** 2, (delta - s * z2) ** 2])
            gap = est - (delta ** 2 + s ** 2)
            pair.append(gap / se)
            row.append(gap / math.sqrt(np.var(v) / n))
        return pair, row

    @pytest.mark.parametrize("estimator", ["w2", "loss"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_stated_rates(self, estimator, case, monkeypatch):
        delta, s = self.CASES[case]
        scores = self.w2_scores if estimator == "w2" else self.loss_scores
        pair, row = scores(delta, s, monkeypatch)
        assert self.fired(pair) == []
        if case != "rho_0":
            assert "sum_sq" in self.fired(row)

    def test_unpaired_row(self):
        """Two models that differ only in their intercepts have a loss gap
        linear in z (ρ = −1 exactly), so every pair mean equals the gap
        and an even n recovers it to round-off.  At odd n all of the error
        comes from the one unpaired row, and its per-row variance makes
        the scores calibrated at the same stated rates."""
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        model_a, model_b = AffineModel([[0.0]], [0.5]), AffineModel([[0.0]], [-0.3])
        truth = 0.5 ** 2 - 0.3 ** 2
        est, se = mc_loss_gap(model_a, model_b, task, 100, SeededStream(0))
        assert abs(est - truth) <= 1e-12 and se <= 1e-7 * truth
        scores = []
        for seed in range(self.SEEDS):
            est, se = mc_loss_gap(model_a, model_b, task, 101, SeededStream(seed))
            scores.append((est - truth) / se)
        assert self.fired(scores) == []


    def test_intercept_gap_standard_error_is_round_off(self):
        """The same intercept-only gap at even n: the pair means are
        centred before they are squared, so the standard error is at
        round-off, not at the √ε·gap that Σv²/n − mean² leaves (2.6e-10
        at seed 4)."""
        task = GaussianJointTask(1, 1, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        model_a, model_b = AffineModel([[0.0]], [0.5]), AffineModel([[0.0]], [-0.3])
        gap = 0.5 ** 2 - 0.3 ** 2
        for seed in range(10):
            _, se = mc_loss_gap(model_a, model_b, task, 100, SeededStream(seed))
            assert se <= 1e-13 * gap


class TestFusedResiduals:
    """``mc_loss`` and ``mc_loss_gap`` fold each model's residual map into
    the joint Cholesky factor.  They must agree with a reference that
    colours the same captured normals with L, calls each model on the
    coloured rows and subtracts, at an odd n whose first chunk leaves an
    unpaired row."""

    CHUNK, N = 1001, 1735

    @staticmethod
    def reference(signed_models, task, n, chunk, drawn):
        """Mean and standard error over the raw residuals of the rows
        mean ± zLᵀ, with variances about the mean."""
        chol = np.linalg.cholesky(task.cov)
        d = task.dim_x

        def values(rows):
            return sum(sign * np.sum((rows[:, d:] - model(rows[:, :d])) ** 2, axis=1)
                       for sign, model in signed_models)

        all_rows, pair_means, tails = [], [], []
        for z, start in zip(drawn, range(0, n, chunk)):
            pairs = min(chunk, n - start) // 2
            col = z.reshape(-1, task.dim_x + task.dim_y) @ chol.T
            plus, minus = values(task.mean + col), values(task.mean - col[:pairs])
            all_rows += [plus, minus]
            pair_means.append(0.5 * (plus[:pairs] + minus))
            tails.append(plus[pairs:])
        v, pm, tails = (np.concatenate(a) for a in (all_rows, pair_means, tails))
        assert v.size == n
        mean = float(np.mean(v))
        ss_pairs, ss_rows = np.sum((pm - mean) ** 2), np.sum((v - mean) ** 2)
        return mean, math.sqrt(4 * ss_pairs + tails.size * ss_rows / n) / n

    @pytest.mark.parametrize("dim_y", [1, 2])
    @pytest.mark.parametrize("dim_x", [1, 3])
    def test_matches_raw_residuals(self, dim_x, dim_y, monkeypatch):
        import transrisk.mc as mc

        rng = np.random.default_rng(10 * dim_x + dim_y)
        dim = dim_x + dim_y
        a = rng.normal(size=(dim, dim))
        task = GaussianJointTask(dim_x, dim_y, rng.normal(size=dim), a @ a.T + 0.2 * np.eye(dim))
        model_a = AffineModel(rng.normal(size=(dim_y, dim_x)), rng.normal(size=dim_y))
        model_b = AffineModel(rng.normal(size=(dim_y, dim_x)), rng.normal(size=dim_y))
        monkeypatch.setattr(mc, "_CHUNK", self.CHUNK)
        drawn = []
        normals = SeededStream.normals
        monkeypatch.setattr(SeededStream, "normals",
                            lambda self, k: drawn.append(normals(self, k)) or drawn[-1])
        for signed, got in (
                ([(1, model_a)], lambda: mc_loss(model_a, task, self.N, SeededStream(4))),
                ([(1, model_a), (-1, model_b)],
                 lambda: mc_loss_gap(model_a, model_b, task, self.N, SeededStream(4)))):
            drawn.clear()
            est, se = got()
            assert len(drawn) == 2
            want = self.reference(signed, task, self.N, self.CHUNK, drawn)
            np.testing.assert_allclose([est, se], want, rtol=1e-12, atol=0)


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
        # variance ratios 1e-15..1e15, ratios within 1e-6 of 1 and mean
        # gaps up to 10 standard deviations (of p or of q)
        ratios = np.concatenate([10.0 ** np.arange(-15, 16),
                                 1.0 + np.array([-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6])])
        for ratio in ratios:
            for gap in (0.0, 1.0, 10.0):
                vq = rng.uniform(0.2, 3.0)
                vp, mean = vq * ratio, rng.normal(scale=3.0)
                for sd in (np.sqrt(vp), np.sqrt(vq)):
                    p = GaussianDist([mean], [[vp]])
                    q = GaussianDist([mean + gap * sd * rng.choice([-1, 1])], [[vq]])
                    closed = kl_gaussian(p, q)
                    assert abs(kl_quadrature_1d(p, q) - closed) <= 1e-9 * max(1.0, closed), \
                        (ratio, gap, sd)

    def test_zero_reference_variance_rejected(self):
        p = GaussianDist([0.0], [[1.0]])
        q = GaussianDist([0.0], [[0.0]])
        with pytest.raises(SingularReference):
            kl_quadrature_1d(p, q)
