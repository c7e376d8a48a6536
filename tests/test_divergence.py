"""Discrete divergences, 1-D empirical transport, and the inequality
diagnostics."""

import itertools
import math

import numpy as np
import pytest

from transrisk import (
    DiscreteDist,
    EmpiricalSample1D,
    GaussianDist,
    cross_entropy,
    cross_entropy_gap_bounds,
    entropy,
    output_bound_check,
    talagrand_diagnostic,
    wp_empirical_1d,
)
from transrisk.errors import DimensionMismatch, EmptySample, SizeMismatch, ValidationError


def random_discrete(rng, k):
    p = rng.gamma(1.0, 1.0, size=k) + 1e-9
    return DiscreteDist(p / p.sum())


class TestDiscreteDist:
    def test_rejects_zeros(self):
        with pytest.raises(ValidationError):
            DiscreteDist([1.0, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            DiscreteDist([0.5, 0.4])

    def test_from_counts_smooths(self):
        dist = DiscreteDist.from_counts([3, 0, 1])
        assert dist.probs.min() > 0.0
        np.testing.assert_allclose(dist.probs.sum(), 1.0)


class TestCrossEntropy:
    def test_uniform_self(self):
        u = DiscreteDist(np.full(4, 0.25))
        np.testing.assert_allclose(cross_entropy(u, u), math.log(4.0), atol=1e-14)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        p = random_discrete(rng, 5)
        q = random_discrete(rng, 5)
        direct = -sum(float(p.probs[i]) * math.log(float(q.probs[i])) for i in range(5))
        np.testing.assert_allclose(cross_entropy(p, q), direct, atol=1e-12)

    def test_at_least_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            p, q = random_discrete(rng, k), random_discrete(rng, k)
            assert cross_entropy(p, q) >= entropy(p) - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cross_entropy(DiscreteDist([0.5, 0.5]), DiscreteDist([1.0 / 3] * 3))


class TestCrossEntropyGapBounds:
    def test_equal_laws_center_zero(self):
        rng = np.random.default_rng(3)
        p = random_discrete(rng, 6)
        r = random_discrete(rng, 6)
        bounds = cross_entropy_gap_bounds(p, p, r)
        np.testing.assert_allclose(bounds.center, 0.0, atol=1e-12)
        assert bounds.lower < 0.0 < bounds.upper

    def test_uniform_triple(self):
        u = DiscreteDist(np.full(3, 1.0 / 3.0))
        bounds = cross_entropy_gap_bounds(u, u, u)
        np.testing.assert_allclose(bounds.center, 0.0, atol=1e-14)
        np.testing.assert_allclose(bounds.upper, 3.0 * math.log(3.0), atol=1e-12)
        np.testing.assert_allclose(bounds.lower, -3.0 * math.log(3.0), atol=1e-12)

    def test_bracket_holds_on_random_triples(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            bounds = cross_entropy_gap_bounds(random_discrete(rng, k),
                                              random_discrete(rng, k),
                                              random_discrete(rng, k))
            assert bounds.lower <= bounds.center <= bounds.upper


class TestWpEmpirical1D:
    def test_identical_samples(self):
        assert wp_empirical_1d([0.0, 1.0], [0.0, 1.0], 1.0) == 0.0

    def test_single_point_transport(self):
        assert wp_empirical_1d([0.0], [1.0], 1.0) == 1.0

    def test_two_point_example(self):
        """{0,2} vs {1,3}: both couplings cost 1 and 2 per point; sorted
        pairing picks the cheaper, total mean 1."""
        costs = []
        a, b = [0.0, 2.0], [1.0, 3.0]
        for perm in itertools.permutations(range(2)):
            costs.append(np.mean([abs(a[i] - b[perm[i]]) for i in range(2)]))
        assert wp_empirical_1d(a, b, 1.0) == min(costs) == 1.0

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(5)
        for p in (1.0, 2.0):
            for _ in range(20):
                n = int(rng.integers(1, 7))
                a = rng.normal(size=n)
                b = rng.normal(size=n)
                brute = min(
                    np.mean([abs(a[i] - b[perm[i]]) ** p for i in range(n)])
                    for perm in itertools.permutations(range(n)))
                np.testing.assert_allclose(wp_empirical_1d(a, b, p), brute, atol=1e-12)

    def test_unequal_sizes_p1(self):
        """Unequal sizes are rejected at every order, p = 1 included."""
        with pytest.raises(SizeMismatch):
            wp_empirical_1d([0.0], [0.0, 1.0], 1.0)

    def test_unequal_sizes_p2_rejected(self):
        with pytest.raises(SizeMismatch):
            wp_empirical_1d([0.0, 1.0], [0.0, 1.0, 2.0], 2.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            wp_empirical_1d([], [1.0], 1.0)

    def test_sample_type_accepted(self):
        sample = EmpiricalSample1D(np.array([1.0, 2.0]))
        assert wp_empirical_1d(sample, sample, 2.0) == 0.0

    def test_metric_properties_p1(self):
        """Symmetry, identity of indiscernibles, triangle inequality."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            a, b, c = (rng.normal(size=n) for _ in range(3))
            dab = wp_empirical_1d(a, b, 1.0)
            dba = wp_empirical_1d(b, a, 1.0)
            dac = wp_empirical_1d(a, c, 1.0)
            dcb = wp_empirical_1d(c, b, 1.0)
            np.testing.assert_allclose(dab, dba, atol=1e-12)
            assert dab <= dac + dcb + 1e-12
            assert wp_empirical_1d(a, a, 1.0) == 0.0


class TestOutputBoundCheck:
    def test_equal_outputs_trivial(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=10)
        labels = rng.normal(size=10)
        check = output_bound_check(x, x, labels, p=2.0)
        assert check.lhs == 0.0 and check.holds

    def test_target_equals_labels_is_triangle_inequality(self):
        rng = np.random.default_rng(9)
        inter = rng.normal(size=15)
        labels = rng.normal(size=15)
        check = output_bound_check(inter, labels, labels, p=1.0)
        np.testing.assert_allclose(check.rhs, check.lhs, atol=1e-12)
        assert check.holds

    def test_holds_on_random_triples(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            triple = [rng.normal(scale=rng.uniform(0.5, 2.0), size=n) for _ in range(3)]
            for p in (1.0, 2.0):
                assert output_bound_check(*triple, p=p).holds


class TestTalagrandDiagnostic:
    def test_identical(self):
        p = GaussianDist([0.0], [[1.0]])
        diag = talagrand_diagnostic(p, p)
        assert diag == (0.0, 0.0, True)

    def test_standard_gaussian_mean_shift_equality(self):
        diag = talagrand_diagnostic(GaussianDist([1.0], [[1.0]]),
                                    GaussianDist([0.0], [[1.0]]))
        np.testing.assert_allclose(diag.w2_sq, 1.0, atol=1e-12)
        np.testing.assert_allclose(diag.two_kl, 1.0, atol=1e-12)
        assert diag.holds

    def test_flat_reference_counterexample(self):
        """A mean shift at large common variance violates the comparison:
        the transport cost is curvature-free but the entropy cost decays
        with the reference variance."""
        diag = talagrand_diagnostic(GaussianDist([1.0], [[100.0]]),
                                    GaussianDist([0.0], [[100.0]]))
        np.testing.assert_allclose(diag.w2_sq, 1.0, atol=1e-10)
        np.testing.assert_allclose(diag.two_kl, 0.01, atol=1e-10)
        assert not diag.holds

    def test_holds_against_standard_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(1, 4))
            q = GaussianDist(np.zeros(dim), np.eye(dim))
            basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            eigs = rng.uniform(0.05, 1.0, size=dim)
            cov = (basis * eigs) @ basis.T
            p = GaussianDist(rng.normal(scale=1.5, size=dim), 0.5 * (cov + cov.T))
            assert talagrand_diagnostic(p, q).holds
