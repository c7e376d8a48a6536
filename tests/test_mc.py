"""Oracle infrastructure: stream determinism, the sampled W2 oracle's
consistency ladder, and the exactness of the cubature oracles."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy.stats import chi2, norm, t as student_t

from transrisk.gaussian import (
    AffineModel,
    GaussianDist,
    GaussianJointTask,
    fit_optimal_affine,
    kl_gaussian,
    w2_gaussian_sq,
)
from transrisk.errors import NumericalError, ValidationError
from transrisk.mc import (
    SeededStream,
    W2_ROWS,
    W2_SHARDS,
    cubature,
    kl_quadrature_1d,
    loss_gap_cubature,
    mc_w2_1d,
)


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


def fresh(seed: int, index: int = 0) -> np.random.Generator:
    """A generator built the documented way, at the start of (seed, index)."""
    key = np.array([seed % (1 << 64), index % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fresh_uniforms(seed: int, index: int, n: int) -> np.ndarray:
    return np.clip(fresh(seed, index).random(n), 1e-15, 1.0 - 1e-15)


class TestRewoundDraws:
    """``normals`` and ``uniforms`` rewind one generator per thread
    instead of building one; every draw must still equal a fresh
    ``Philox(key=[seed mod 2⁶⁴, index mod 2⁶⁴])`` stream."""

    @pytest.mark.parametrize("seed", [0, 2024, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
                                      -1, -(2 ** 63), -(2 ** 64) - 3])
    @pytest.mark.parametrize("index", [0, 3, 2 ** 63 + 1, -1])
    def test_draws_equal_a_fresh_generator(self, seed, index):
        stream = SeededStream(seed, index)
        np.testing.assert_array_equal(stream.normals(257), fresh(seed, index).standard_normal(257))
        np.testing.assert_array_equal(stream.uniforms(257), fresh_uniforms(seed, index, 257))

    def test_interleaved_streams(self):
        """Odd counts leave Philox's four-word output buffer part used;
        the next draw, of any stream, must not read what is left."""
        streams = [SeededStream(11), SeededStream(11, 1), SeededStream(2 ** 63 + 11).substream(4)]
        for n in (1, 5, 3, 1000, 7):
            for s in streams:
                np.testing.assert_array_equal(s.normals(n),
                                              fresh(s.seed, s.index).standard_normal(n))
                np.testing.assert_array_equal(s.uniforms(n), fresh_uniforms(s.seed, s.index, n))

    def test_held_generator_is_not_disturbed(self):
        """``generator()`` stays a generator of its own: draws of other
        streams, and of its own stream, between two of its draws leave it
        where it was."""
        held = SeededStream(3).generator()
        first = held.standard_normal(10)
        SeededStream(4).normals(100)
        SeededStream(3).normals(7)
        SeededStream(3).uniforms(5)
        rest = held.standard_normal(10)
        np.testing.assert_array_equal(np.concatenate([first, rest]),
                                      fresh(3).standard_normal(20))

    def test_threads_draw_their_own_streams(self):
        """Four threads (more than the two cores this suite assumes) draw
        different streams at once, with thread switches forced every
        microsecond; a generator shared between threads would hand one
        thread another's rewound stream."""
        want = {t: fresh(77, t).standard_normal(64) for t in range(4)}
        wrong, start = [], threading.Barrier(4, timeout=30)

        def draw(t):
            start.wait()
            for _ in range(2000):
                if not np.array_equal(SeededStream(77, t).normals(64), want[t]):
                    wrong.append(t)

        threads = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestCubature:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_exact_to_degree_three(self, k):
        """Every monomial z₁^a₁…z_k^a_k of degree ≤ 3 integrates to its
        N(0, I_k) moment, the product of the 1-D moments 1, 0, 1, 0."""
        z, w = cubature(k)
        assert z.shape == (2 * k, k) and w.shape == (2 * k,)
        moment = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0}
        for degree in range(4):
            for axes in itertools.combinations_with_replacement(range(k), degree):
                powers = np.bincount(np.asarray(axes, dtype=int), minlength=k)
                want = math.prod(moment[int(a)] for a in powers)
                got = float(w @ np.prod(z ** powers, axis=1))
                assert abs(got - want) <= 1e-14, (k, powers)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_degree_four_is_not_exact(self, k):
        """The rule gives E z₁⁴ = k where the true moment is 3, so it is
        exact only at k = 3: the loss gap and the KL log-ratio must stay
        quadratics in z."""
        z, w = cubature(k)
        assert float(w @ z[:, 0] ** 4) == pytest.approx(k, rel=1e-14)
        assert abs(float(w @ z[:, 0] ** 4) - 3.0) >= 0.5


class TestMCLoss:
    """``loss_gap_cubature`` against losses written out by hand,
    L(W, b) = tr(Σ_Y − 2WΣ_XY + WΣ_XWᵀ) + ‖μ_Y − Wμ_X − b‖²."""

    @staticmethod
    def loss(model, task):
        w = model.weight
        mean_gap = task.mean_y - w @ task.mean_x - model.intercept
        return float(np.trace(task.cov_y - 2.0 * w @ task.cov_xy + w @ task.cov_x @ w.T)
                     + mean_gap @ mean_gap)

    def test_optimal_model_gap_is_residual_variance(self):
        """Against the zero model, whose loss is E Y² = Σ_Y + μ_Y², the
        optimal model's gap is the residual variance minus E Y²."""
        task = GaussianJointTask(2, 1, [0.0, 0.0, 0.5],
                                 [[1.0, 0.3, 0.5], [0.3, 1.0, 0.2], [0.5, 0.2, 1.0]])
        explained = task.cov_yx @ np.linalg.solve(task.cov_x, task.cov_xy)
        expected = float(task.cov_y[0, 0] - explained[0, 0]) - (1.0 + 0.5 ** 2)
        gap = loss_gap_cubature(fit_optimal_affine(task), AffineModel([[0.0, 0.0]], [0.0]), task)
        assert abs(gap - expected) <= 1e-14

    def test_any_model_loses_to_optimal(self):
        rng = np.random.default_rng(23)
        task = GaussianJointTask(2, 1, rng.normal(size=3),
                                 np.eye(3) + 0.4 * np.ones((3, 3)))
        optimal = fit_optimal_affine(task)
        for _ in range(5):
            other = AffineModel(optimal.weight + rng.normal(scale=0.5, size=(1, 2)),
                                optimal.intercept + rng.normal())
            assert loss_gap_cubature(other, optimal, task) > 0.0
            assert loss_gap_cubature(optimal, optimal, task) == 0.0

    def test_loss_gap_matches_separate_losses(self):
        """Random models on random joints with 1 or 3 inputs and 1 or 2
        outputs, so several output columns are summed."""
        rng = np.random.default_rng(31)
        for dim_x, dim_y in itertools.product((1, 3), (1, 2)):
            dim = dim_x + dim_y
            a = rng.normal(size=(dim, dim))
            task = GaussianJointTask(dim_x, dim_y, rng.normal(size=dim),
                                     a @ a.T + 0.2 * np.eye(dim))
            m1, m2 = (AffineModel(rng.normal(size=(dim_y, dim_x)), rng.normal(size=dim_y))
                      for _ in range(2))
            want = self.loss(m1, task) - self.loss(m2, task)
            got = loss_gap_cubature(m1, m2, task)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (dim_x, dim_y)


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
        with pytest.raises(ValidationError, match="sampled W2 oracle is 1-D only"):
            mc_w2_1d(p, p, 1000, SeededStream(0))

    @pytest.mark.parametrize("n", [W2_SHARDS * 25 + r for r in (1, 17, 39)] + [W2_SHARDS])
    def test_uneven_shards_rejected(self, n):
        """n = 40·25 + r rows cannot fill the 40 shards equally, and n = 40
        leaves one row a shard, too few for a standard error."""
        p = GaussianDist([0.3], [[1.3]])
        with pytest.raises(ValidationError, match=f"got {n}"):
            mc_w2_1d(p, p, n, SeededStream(5))

    def test_uses_all_draws(self, monkeypatch):
        """n = 40·25: each shard of 25 rows draws 13 normals z, and the
        estimate is the mean over the antithetic rows concat(z, −z)[:25]
        of every shard."""
        p = GaussianDist([0.3], [[1.3]])
        q = GaussianDist([-0.5], [[0.6]])
        drawn = []
        normals = SeededStream.normals

        def counting(self, k):
            z = normals(self, k)
            drawn.append(z)
            return z

        monkeypatch.setattr(SeededStream, "normals", counting)
        est, _ = mc_w2_1d(p, q, W2_SHARDS * 25, SeededStream(5))
        assert [len(z) for z in drawn] == [13] * W2_SHARDS
        z = np.concatenate([np.concatenate([z, -z])[:25] for z in drawn])
        a = 0.3 + math.sqrt(1.3) * z
        b = -0.5 + math.sqrt(0.6) * z
        np.testing.assert_allclose(est, np.mean((a - b) ** 2), rtol=1e-13)

    @staticmethod
    def per_shard_formula(p, q, n, stream):
        """The oracle as first written: fresh arrays per shard, normals
        from a freshly built generator, and ``np.mean`` of the squares."""
        m = n // W2_SHARDS
        estimates = np.empty(W2_SHARDS)
        for k in range(W2_SHARDS):
            z = stream.substream(k).generator().standard_normal((m + 1) // 2)
            z = np.concatenate([z, -z])[:m]
            a = p.mean[0] + math.sqrt(p.cov[0, 0]) * z
            b = q.mean[0] + math.sqrt(q.cov[0, 0]) * z
            estimates[k] = float(np.mean((a - b) ** 2))
        return float(np.mean(estimates)), float(np.std(estimates, ddof=1) / math.sqrt(W2_SHARDS))

    @pytest.mark.parametrize("n", [W2_ROWS, W2_SHARDS * 25, W2_SHARDS * 2])
    @pytest.mark.parametrize("laws", [((0.3, 1.3), (-0.5, 0.6)), ((1e3, 1e-4), (-2.5, 1e4)),
                                      ((-1e3, 1e4), (1e3, 1e-4)), ((7.0, 1.0), (7.0, 1.0))])
    def test_bit_identical_to_per_shard_formula(self, n, laws):
        """Reused buffers and ``out=`` ufuncs change no bit of the estimate
        or its standard error, at the CLI's rows, an odd shard (m = 25)
        and the smallest one (m = 2)."""
        p, q = (GaussianDist([mean], [[var]]) for mean, var in laws)
        assert mc_w2_1d(p, q, n, SeededStream(31)) == self.per_shard_formula(p, q, n, SeededStream(31))

    def test_repeat_call_builds_no_bit_generator(self, monkeypatch):
        """Once a thread has drawn, a call rewinds its generator for each
        of the 40 shards instead of constructing a Philox for each."""
        p, q = GaussianDist([0.3], [[1.3]]), GaussianDist([-0.5], [[0.6]])
        mc_w2_1d(p, q, W2_SHARDS * 2, SeededStream(8))
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        mc_w2_1d(p, q, W2_ROWS, SeededStream(9))
        assert built == []
        SeededStream(9).generator()  # the counter sees a construction
        assert built == [1]

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

class TestAntitheticStandardErrors:
    """The sampled W2 oracle's antithetic standard errors are calibrated
    at stated rates.

    Each case is a squared gap v = (δ + s·z)² of one standard normal z:
    the W2 rows (a − b)² for p = N(δ, (1 + s)²) and q = N(0, 1).  Its odd
    part 2δs·z and even part s²(z² − 1) give
    ρ = corr(v(z), v(−z)) = (s² − 2δ²)/(s² + 2δ²): about −1 with a mean
    shift, 0 at δ² = s²/2, and +1 with equal means.  A pair mean keeps
    only the even part, so at one seed the per-pair scores are the same
    in all three cases; what ρ changes is the per-row standard error.

    Over SEEDS seeds the studentized scores, Student t₃₉ mapped to the
    N(0, 1) score with the same tail probability, are N(0, 1).  Two gates
    each fire by chance with probability ALPHA: the mean beyond
    ±Φ⁻¹(1 − α/2)/√SEEDS, and Σz² outside the central 1 − α interval of
    χ²_SEEDS.  The three cases then fail by chance on at most 6·ALPHA =
    0.06% of seed sets.  With ρ near ±1 a standard error taken per row
    instead of per pair is wrong by a factor √(1 + ρ), and the Σz² gate
    fires; at ρ = 0 the two agree, so nothing can fire.
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

    @pytest.mark.parametrize("case", list(CASES))
    def test_stated_rates(self, case, monkeypatch):
        delta, s = self.CASES[case]
        pair, row = self.w2_scores(delta, s, monkeypatch)
        assert self.fired(pair) == []
        if case != "rho_0":
            assert "sum_sq" in self.fired(row)


class TestFusedResiduals:
    """``loss_gap_cubature`` folds each model's residual map into the
    joint factor and sums (u_a − u_b)·(u_a + u_b).  It must agree with a
    reference that colours the same cubature points with the Cholesky
    factor L, calls each model on the coloured rows, subtracts, and takes
    the weighted mean of the raw squared residuals."""

    @staticmethod
    def reference(model_a, model_b, task):
        z, weights = cubature(task.dim_x + task.dim_y)
        rows = task.mean + z @ np.linalg.cholesky(task.cov).T
        d = task.dim_x

        def loss(model):
            return weights @ np.sum((rows[:, d:] - model(rows[:, :d])) ** 2, axis=1)

        return float(loss(model_a) - loss(model_b)), float(loss(model_a))

    @pytest.mark.parametrize("dim_y", [1, 2])
    @pytest.mark.parametrize("dim_x", [1, 3])
    def test_matches_raw_residuals(self, dim_x, dim_y):
        rng = np.random.default_rng(10 * dim_x + dim_y)
        dim = dim_x + dim_y
        a = rng.normal(size=(dim, dim))
        task = GaussianJointTask(dim_x, dim_y, rng.normal(size=dim), a @ a.T + 0.2 * np.eye(dim))
        model_a = AffineModel(rng.normal(size=(dim_y, dim_x)), rng.normal(size=dim_y))
        model_b = AffineModel(rng.normal(size=(dim_y, dim_x)), rng.normal(size=dim_y))
        zero = AffineModel(np.zeros((dim_y, dim_x)), np.zeros(dim_y))
        want_gap, loss_a = self.reference(model_a, model_b, task)
        # against the zero model the gap is L(model_a) − E‖Y‖², so the
        # fold of a single model is checked too
        _, loss_zero = self.reference(zero, zero, task)
        got = [loss_gap_cubature(model_a, model_b, task),
               loss_gap_cubature(model_a, zero, task)]
        np.testing.assert_allclose(got, [want_gap, loss_a - loss_zero], rtol=1e-12, atol=0)


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
        with pytest.raises(NumericalError, match="reference variance must be positive"):
            kl_quadrature_1d(p, q)
