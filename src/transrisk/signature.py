"""Truncated path signatures of piecewise-linear paths.

The signature of a path collects its iterated integrals, graded by
level: level m holds one coefficient per word (i₁,…,i_m) over the
channel alphabet.  Truncated at order M it is a finite,
reparametrization-invariant feature vector whose linear functionals
approximate continuous functionals of the path.

Paths here are the piecewise-linear interpolants of their samples, so
everything reduces to two exact building blocks:

* a single linear segment with increment Δ has level-m block Δ^⊗m / m!;
* concatenating paths multiplies signatures in the truncated tensor
  algebra (level m of the product is Σ_{i+j=m} aᵢ ⊗ bⱼ).

Coefficients are stored flat in graded lexicographic word order (level
0 first, then all level-1 words, etc.; within a level, words in
lexicographic order), which is exactly C-order flattening of the dense
level tensors.  Column layouts are therefore stable across runs.

The truncation order is capped at 6: dimension grows geometrically and
higher levels have not earned their cost in the intended pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_ORDER = 6


def _check_order(order: int) -> int:
    order = int(order)
    if order < 1:
        raise ValidationError(f"truncation order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ValidationError(f"truncation order capped at {MAX_ORDER}, got {order}")
    return order


def signature_dim(channels: int, order: int) -> int:
    """Number of words of length 0..order over ``channels`` letters.

    Geometric sum (n^{M+1} − 1)/(n − 1) for n > 1; M + 1 for n = 1.
    """
    if channels < 1:
        raise ValidationError(f"need at least one channel, got {channels}")
    order = _check_order(order)
    if channels == 1:
        return order + 1
    return (channels ** (order + 1) - 1) // (channels - 1)


def word_labels(channels: int, order: int) -> list[str]:
    """Column names, one per word: "S" (empty word), "S_1", "S_1_2", ..."""
    order = _check_order(order)
    labels = ["S"]
    prev: list[tuple[int, ...]] = [()]
    for _ in range(order):
        prev = [w + (i,) for w in prev for i in range(1, channels + 1)]
        labels.extend("S_" + "_".join(map(str, w)) for w in prev)
    return labels


@dataclass(frozen=True)
class PiecewisePath:
    """Samples of a path: strictly increasing times, one row of channel
    values per time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)  # copies, frozen below
        v = np.array(self.values, dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if t.ndim != 1 or v.ndim != 2 or t.shape[0] != v.shape[0]:
            raise ValidationError(
                f"times {t.shape} and values {v.shape} do not align")
        if t.shape[0] < 2:
            raise ValidationError("a path needs at least two sample points")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise ValidationError("path contains non-finite entries")
        if not np.all(np.diff(t) > 0.0):
            raise ValidationError("times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TruncatedSignature:
    """Flat signature coefficients in graded lexicographic word order."""

    order: int
    channels: int
    coeffs: np.ndarray

    def __post_init__(self):
        order = _check_order(self.order)
        expected = signature_dim(self.channels, order)
        c = np.array(self.coeffs, dtype=float)  # a copy, frozen below
        if c.ndim != 1 or c.shape[0] != expected:
            raise ValidationError(
                f"expected {expected} coefficients for {self.channels} channels "
                f"at order {order}, got shape {c.shape}")
        if c[0] != 1.0:
            raise ValidationError("the empty-word coefficient must be exactly 1")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def level(self, m: int) -> np.ndarray:
        """The level-m block as a dense (channels,)*m tensor."""
        if m < 0 or m > self.order:
            raise ValidationError(f"level {m} outside 0..{self.order}")
        n = self.channels
        start = sum(n ** j for j in range(m))
        return self.coeffs[start:start + n ** m].reshape((n,) * m)


def _segment_levels(delta: np.ndarray, order: int) -> list[np.ndarray]:
    """Levels of one linear segment per column of ``delta`` (c × W):
    Δ^⊗m / m!, each level flattened to a (cᵐ, W) array."""
    paths = delta.shape[1]
    levels = [np.ones((1, paths))]
    for m in range(1, order + 1):
        levels.append((levels[-1][:, None, :] * delta[None, :, :]).reshape(-1, paths) / m)
    return levels


def _chen_levels(a: list[np.ndarray], b: list[np.ndarray], order: int) -> list[np.ndarray]:
    """Column-wise truncated tensor product: level m is Σ_{i+j=m} aᵢ ⊗ bⱼ,
    summed from zeros in the order i = 0..m."""
    out = [a[0] * b[0]]
    for m in range(1, order + 1):
        acc = np.zeros((a[m].shape[0] * b[0].shape[0], a[m].shape[1]))
        for i in range(m + 1):
            block = acc.reshape(a[i].shape[0], b[m - i].shape[0], -1)
            block += a[i][:, None, :] * b[m - i][None, :, :]
        out.append(acc)
    return out


def _signature_rows(increments: np.ndarray, order: int) -> np.ndarray:
    """Signatures of W piecewise-linear paths at once.

    ``increments`` is (S, c, W): segment s of path w is column w of
    ``increments[s]``.  Each path's segments are concatenated left to
    right by Chen's identity.  Levels are kept as (cᵐ, W) arrays so that
    the inner loops run over the paths; row w of the (W, dim) result
    holds path w's flat coefficients.
    """
    levels = _segment_levels(increments[0], order)
    for delta in increments[1:]:
        levels = _chen_levels(levels, _segment_levels(delta, order), order)
    return np.ascontiguousarray(np.concatenate(levels).T)


def _flat_levels(sig: TruncatedSignature) -> list[np.ndarray]:
    return [sig.level(m).reshape(-1, 1) for m in range(sig.order + 1)]


def signature_of_path(path: PiecewisePath, order: int) -> TruncatedSignature:
    """Signature of the piecewise-linear interpolant of the samples.

    Exact up to float round-off: each inter-sample segment contributes
    its closed-form levels, concatenated left to right in the truncated
    tensor algebra.
    """
    order = _check_order(order)
    increments = np.diff(path.values, axis=0)[:, :, None]
    # level 0 stays exactly 1.0 through every operation (1·1 sums once);
    # the type's validator enforces it rather than papering over drift
    return TruncatedSignature(order, path.channels, _signature_rows(increments, order)[0])


def chen_product(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Signature of the concatenated path from the two halves' signatures."""
    if a.channels != b.channels or a.order != b.order:
        raise ValidationError("signatures must share channels and order")
    levels = _chen_levels(_flat_levels(a), _flat_levels(b), a.order)
    return TruncatedSignature(a.order, a.channels, np.concatenate(levels)[:, 0])


def windowed_signature_features(series: np.ndarray, lag: int, order: int) -> np.ndarray:
    """Rolling-window signature features of a multichannel series.

    Row t (for t = lag−1 .. T−1) is the signature of the window ending
    at t, over lag consecutive samples, with a synthetic time channel
    prepended and rescaled to [0, 1] inside each window (raw time would
    leak absolute position across windows; rescaling is harmless by
    reparametrization invariance).  Output shape:
    (T − lag + 1) × signature_dim(n + 1, order).

    All W windows go through the Chen recurrence together, as one
    (cᵐ, W) array per level, batching over paths as Signatory (Kidger &
    Lyons, arXiv:2001.00706) and iisignature (Reizenstein & Graham,
    arXiv:1802.08252) do.  Row t equals ``signature_of_path`` of its
    window bit for bit: the increments and the order of every operation
    are the same.  The first ``signature_dim(n + 1, m)`` columns are the
    order-m features for every m < order.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series.reshape(-1, 1)
    if series.ndim != 2:
        raise ValidationError(f"series must be 2-D, got shape {series.shape}")
    if not np.all(np.isfinite(series)):
        raise ValidationError("series contains non-finite entries")
    t_len, n = series.shape
    if lag < 2:
        raise ValidationError(f"lag must be >= 2, got {lag}")
    if lag > t_len:
        raise ValidationError(f"lag {lag} exceeds series length {t_len}")
    order = _check_order(order)

    windows = t_len - lag + 1
    steps = np.diff(series, axis=0)
    increments = np.empty((lag - 1, n + 1, windows))
    increments[:, 0, :] = np.diff(np.linspace(0.0, 1.0, lag))[:, None]
    for s in range(lag - 1):
        increments[s, 1:, :] = steps[s:s + windows].T
    return _signature_rows(increments, order)


def write_features_csv(path, features: np.ndarray, channels: int, order: int) -> None:
    """Write a feature matrix as CSV with one header column per word."""
    features = np.asarray(features, dtype=float)
    labels = word_labels(channels, order)
    if features.ndim != 2 or features.shape[1] != len(labels):
        raise ValidationError(
            f"feature matrix has {features.shape} but {len(labels)} words expected")
    header = ",".join(labels)
    np.savetxt(path, features, delimiter=",", header=header, comments="",
               fmt="%.17g")
