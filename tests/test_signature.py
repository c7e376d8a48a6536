"""Truncated signatures: closed-form segments, concatenation, algebraic
identities, and the rolling-window feature builder."""

import numpy as np
import pytest

from transrisk.signature import (
    PiecewisePath,
    chen_product,
    signature_dim,
    signature_of_path,
    windowed_signature_features,
    word_labels,
)
from transrisk.errors import ValidationError


def tensor_concat_oracle(a_levels, b_levels, order):
    """Test-local concatenation in the truncated tensor algebra, written
    against raw numpy only (no library code)."""
    out = []
    for m in range(order + 1):
        total = None
        for i in range(m + 1):
            piece = np.multiply.outer(a_levels[i], b_levels[m - i])
            total = piece if total is None else total + piece
        out.append(np.asarray(total))
    return out


def segment_levels_oracle(delta, order):
    delta = np.asarray(delta, dtype=float)
    out = [np.array(1.0)]
    for m in range(1, order + 1):
        out.append(np.multiply.outer(out[-1], delta) / m)
    return out


class TestSignatureDim:
    @pytest.mark.parametrize("channels,order,expected", [
        (3, 2, 13), (1, 4, 5), (3, 4, 121), (2, 3, 15), (4, 1, 5),
    ])
    def test_geometric_sums(self, channels, order, expected):
        assert signature_dim(channels, order) == expected

    def test_order_bounds(self):
        with pytest.raises(ValidationError, match="truncation order must be >= 1, got 0"):
            signature_dim(2, 0)
        with pytest.raises(ValidationError, match="truncation order capped at 6, got 7"):
            signature_dim(2, 7)


class TestSingleSegment:
    def test_1d_linear_path(self):
        path = PiecewisePath([0.0, 1.0], [[0.0], [2.0]])
        sig = signature_of_path(path, 2)
        np.testing.assert_allclose(sig.coeffs, [1.0, 2.0, 2.0])

    def test_2d_segment_order2(self):
        path = PiecewisePath([0.0, 1.0], [[0.0, 0.0], [1.0, 3.0]])
        sig = signature_of_path(path, 2)
        # words: (), (1), (2), (1,1), (1,2), (2,1), (2,2)
        np.testing.assert_allclose(sig.coeffs, [1.0, 1.0, 3.0, 0.5, 1.5, 1.5, 4.5])

    def test_segment_matches_power_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            delta = rng.normal(size=n)
            start = rng.normal(size=n)
            path = PiecewisePath([0.0, 1.0], np.vstack([start, start + delta]))
            sig = signature_of_path(path, 4)
            for m in range(5):
                np.testing.assert_allclose(sig.level(m),
                                           segment_levels_oracle(delta, 4)[m],
                                           atol=1e-12)

    def test_interior_sample_on_straight_line_is_invisible(self):
        """Subdividing a straight segment must not change the signature."""
        one = PiecewisePath([0.0, 2.0], [[0.0, 1.0], [2.0, -1.0]])
        two = PiecewisePath([0.0, 1.0, 2.0], [[0.0, 1.0], [1.0, 0.0], [2.0, -1.0]])
        np.testing.assert_allclose(signature_of_path(one, 3).coeffs,
                                   signature_of_path(two, 3).coeffs, atol=1e-12)


class TestConcatenation:
    def test_two_segments_match_oracle(self):
        rng = np.random.default_rng(2)
        d1 = rng.normal(size=2)
        d2 = rng.normal(size=2)
        values = np.vstack([np.zeros(2), d1, d1 + d2])
        sig = signature_of_path(PiecewisePath([0.0, 1.0, 2.0], values), 3)
        oracle = tensor_concat_oracle(segment_levels_oracle(d1, 3),
                                      segment_levels_oracle(d2, 3), 3)
        for m in range(4):
            np.testing.assert_allclose(sig.level(m), oracle[m], atol=1e-12)

    def test_chen_identity_random_paths(self):
        """Signature of the whole path equals the product of the halves'
        signatures, for any split point."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            order = int(rng.integers(1, 5))
            m_pts = int(rng.integers(3, 9))
            values = np.cumsum(rng.normal(size=(m_pts, n)), axis=0)
            times = np.arange(m_pts, dtype=float)
            split = int(rng.integers(1, m_pts - 1))
            whole = signature_of_path(PiecewisePath(times, values), order)
            left = signature_of_path(PiecewisePath(times[: split + 1],
                                                   values[: split + 1]), order)
            right = signature_of_path(PiecewisePath(times[split:], values[split:]),
                                      order)
            product = chen_product(left, right)
            np.testing.assert_allclose(whole.coeffs, product.coeffs, atol=1e-10)

    def test_shuffle_relation_level2(self):
        """S(i)·S(j) = S(i,j) + S(j,i) for every channel pair."""
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m_pts = int(rng.integers(2, 10))
            values = np.cumsum(rng.normal(size=(m_pts, n)), axis=0)
            sig = signature_of_path(PiecewisePath(np.arange(m_pts, dtype=float),
                                                  values), 2)
            lvl1 = sig.level(1)
            lvl2 = sig.level(2)
            for i in range(n):
                for j in range(n):
                    np.testing.assert_allclose(lvl1[i] * lvl1[j],
                                               lvl2[i, j] + lvl2[j, i], atol=1e-10)

    def test_level1_is_total_increment(self):
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.normal(size=(7, 3)), axis=0)
        sig = signature_of_path(PiecewisePath(np.arange(7.0), values), 3)
        np.testing.assert_allclose(sig.level(1), values[-1] - values[0], atol=1e-14)

    def test_time_reparametrization_invariance(self):
        rng = np.random.default_rng(6)
        values = np.cumsum(rng.normal(size=(6, 2)), axis=0)
        base = signature_of_path(PiecewisePath(np.arange(6.0), values), 3)
        for scale, shift in ((2.0, 0.0), (0.1, -5.0), (7.3, 1.0)):
            warped = signature_of_path(
                PiecewisePath(scale * np.arange(6.0) + shift, values), 3)
            np.testing.assert_array_equal(base.coeffs, warped.coeffs)


class TestPathValidation:
    def test_single_point_rejected(self):
        with pytest.raises(ValidationError, match="a path needs at least two sample points"):
            PiecewisePath([0.0], [[1.0]])

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValidationError):
            PiecewisePath([0.0, 0.0], [[1.0], [2.0]])

    def test_order_zero_rejected(self):
        path = PiecewisePath([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValidationError, match="truncation order must be >= 1, got 0"):
            signature_of_path(path, 0)

    def test_order_cap(self):
        path = PiecewisePath([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValidationError, match="truncation order capped at 6, got 7"):
            signature_of_path(path, 7)


class TestWindowedFeatures:
    def test_shape_and_header(self):
        series = np.random.default_rng(7).normal(size=(30, 2))
        feats = windowed_signature_features(series, lag=5, order=2)
        assert feats.shape == (26, signature_dim(3, 2))
        assert len(word_labels(3, 2)) == feats.shape[1]
        assert word_labels(3, 2)[:5] == ["S", "S_1", "S_2", "S_3", "S_1_1"]

    def test_constant_series_only_time_words(self):
        """Constant channels have zero increments: any word touching them
        vanishes; pure-time words survive."""
        series = np.full((12, 2), 3.7)
        feats = windowed_signature_features(series, lag=4, order=2)
        labels = word_labels(3, 2)
        for row in feats:
            for label, value in zip(labels, row):
                letters = label.split("_")[1:]
                if any(ch != "1" for ch in letters):
                    assert abs(value) <= 1e-12
                elif letters:  # pure-time words on a [0,1] ramp
                    assert value > 0.0

    def test_lag2_matches_two_point_signatures(self):
        rng = np.random.default_rng(8)
        series = rng.normal(size=(10, 2))
        feats = windowed_signature_features(series, lag=2, order=3)
        for t in range(1, 10):
            window = np.column_stack([[0.0, 1.0], series[t - 1:t + 1]])
            sig = signature_of_path(PiecewisePath([0.0, 1.0], window), 3)
            np.testing.assert_array_equal(feats[t - 1], sig.coeffs)

    def test_rows_match_per_window_recomputation(self):
        rng = np.random.default_rng(9)
        series = rng.normal(size=(30, 2))
        lag, order = 5, 2
        feats = windowed_signature_features(series, lag, order)
        time_channel = np.linspace(0.0, 1.0, lag)
        for t in range(lag - 1, 30):
            window = np.column_stack([time_channel, series[t - lag + 1:t + 1]])
            sig = signature_of_path(PiecewisePath(np.arange(float(lag)), window),
                                    order)
            np.testing.assert_array_equal(feats[t - lag + 1], sig.coeffs)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("lag", [2, 3, 7])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_batched_windows_bit_identical(self, channels, lag, order):
        """All windows at once give each window's own signature bit for
        bit, and the same bits as the test-local oracles, which add the
        Chen terms i = 0..m in turn."""
        rng = np.random.default_rng(100 * channels + 10 * lag + order)
        series = np.cumsum(rng.normal(size=(16, channels)), axis=0)
        series[4:9] = series[4]     # flat stretch: zero increments
        feats = windowed_signature_features(series, lag, order)
        time_channel = np.linspace(0.0, 1.0, lag)
        for t in range(lag - 1, 16):
            window = np.column_stack([time_channel, series[t - lag + 1:t + 1]])
            sig = signature_of_path(PiecewisePath(np.arange(float(lag)), window), order)
            np.testing.assert_array_equal(feats[t - lag + 1], sig.coeffs)
            steps = np.diff(window, axis=0)
            levels = segment_levels_oracle(steps[0], order)
            for delta in steps[1:]:
                levels = tensor_concat_oracle(levels, segment_levels_oracle(delta, order),
                                              order)
            np.testing.assert_array_equal(
                feats[t - lag + 1], np.concatenate([lv.ravel() for lv in levels]))

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_lower_orders_are_leading_columns(self, channels):
        """Order-M features cut to signature_dim(c, m) columns are the
        order-m features exactly."""
        rng = np.random.default_rng(11 + channels)
        series = rng.normal(size=(25, channels))
        for lag in (2, 5):
            top = windowed_signature_features(series, lag, 6)
            for m in range(1, 6):
                np.testing.assert_array_equal(
                    top[:, :signature_dim(channels + 1, m)],
                    windowed_signature_features(series, lag, m))

    def test_window_too_long(self):
        with pytest.raises(ValidationError, match="lag 5 exceeds series length 4"):
            windowed_signature_features(np.zeros((4, 2)), lag=5, order=2)

    def test_feature_csv_round_trip(self, tmp_path):
        from transrisk.signature import write_features_csv

        rng = np.random.default_rng(10)
        series = rng.normal(size=(12, 2))
        feats = windowed_signature_features(series, lag=3, order=2)
        out = tmp_path / "features.csv"
        write_features_csv(out, feats, 3, 2)
        text = out.read_text().splitlines()
        assert text[0].split(",") == word_labels(3, 2)
        parsed = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(parsed, feats, rtol=1e-15)
