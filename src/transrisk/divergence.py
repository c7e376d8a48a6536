"""Discrete and empirical divergences, plus inequality diagnostics.

Three families live here:

* cross-entropy machinery over strictly positive probability vectors,
  including the computable bracket around the gap between the model
  cross-entropy and the label cross-entropy against a common reference
  classifier (``cross_entropy_gap_bounds``);
* exact one-dimensional Wasserstein costs between empirical samples of
  equal size via sorted quantile coupling (optimal in 1-D, no LP solver needed), and
  the label-anchored upper bound check built from them;
* the Talagrand comparison W2² vs 2·KL for Gaussian pairs, surfaced as
  a *diagnostic* rather than an asserted inequality: it is guaranteed
  against a standard-normal reference but demonstrably false for
  flat-curvature references (see ``talagrand_diagnostic``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    SizeMismatch,
    ValidationError,
)
from .gaussian import GaussianDist, kl_gaussian, w2_gaussian_sq

PROB_SUM_TOL = 1e-9
ZERO_SMOOTHING = 1e-12


@dataclass(frozen=True)
class DiscreteDist:
    """Probability vector over K classes; entries strictly positive.

    Exact zeros are rejected so every log term stays finite; callers
    holding sparse counts should smooth first (``from_counts`` adds
    1e-12 and renormalizes).
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValidationError(f"probs must be a nonempty vector, got shape {p.shape}")
        if np.any(p <= 0.0):
            raise ValidationError("probabilities must be strictly positive; smooth zeros first")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def from_counts(cls, counts) -> "DiscreteDist":
        c = np.asarray(counts, dtype=float) + ZERO_SMOOTHING
        return cls(c / c.sum())


@dataclass(frozen=True)
class EmpiricalSample1D:
    """Unordered real sample; all values finite, at least one point."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise EmptySample(f"sample must be a nonempty vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("sample contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _sample_values(x) -> np.ndarray:
    if isinstance(x, EmpiricalSample1D):
        return x.values
    return EmpiricalSample1D(np.asarray(x, dtype=float)).values


def entropy(p: DiscreteDist) -> float:
    """Shannon entropy −Σ p log p (natural log)."""
    return float(-np.sum(p.probs * np.log(p.probs)))


def cross_entropy(p: DiscreteDist, q: DiscreteDist) -> float:
    """H(p, q) = −Σ p(i) log q(i); at least entropy(p), with equality at p = q."""
    if p.size != q.size:
        raise DimensionMismatch(f"class counts differ: {p.size} vs {q.size}")
    return float(-np.sum(p.probs * np.log(q.probs)))


class GapBounds(NamedTuple):
    lower: float
    center: float
    upper: float


def cross_entropy_gap_bounds(model_out: DiscreteDist, label_law: DiscreteDist,
                             reference: DiscreteDist) -> GapBounds:
    """Bracket for H(model_out, reference) − H(label_law, reference).

    The gap between the (unobservable) model cross-entropy and the
    (trainable) label cross-entropy against a common reference
    classifier is bounded by ±Σᵢ |log reference(i)|:

        Σᵢ log r(i)  ≤  H(p, r) − H(y, r)  ≤  −Σᵢ log r(i),

    because the gap is Σᵢ (y(i) − p(i)) log r(i) with |y − p| ≤ 1
    coordinatewise.  Returns (lower, center, upper).
    """
    if not (model_out.size == label_law.size == reference.size):
        raise DimensionMismatch("all three distributions must share one class count")
    center = cross_entropy(model_out, reference) - cross_entropy(label_law, reference)
    lower = float(np.sum(np.log(reference.probs)))
    return GapBounds(lower, center, -lower)


def wp_empirical_1d(a, b, p: float = 1.0) -> float:
    """Exact W_p^p between two empirical measures of equal size on the line.

    Sorted quantile coupling is the optimal plan in 1-D, so order
    statistics pair directly, for any p ≥ 1; samples of unequal size
    raise SizeMismatch.
    """
    if p < 1.0:
        raise ValidationError(f"order p must be >= 1, got {p}")
    av = np.sort(_sample_values(a))
    bv = np.sort(_sample_values(b))
    if av.size != bv.size:
        raise SizeMismatch(f"samples need equal sizes, got {av.size} and {bv.size}")
    return float(np.mean(np.abs(av - bv) ** p))


class OutputBoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def output_bound_check(intermediate_out, target_out, labels,
                       p: float = 1.0) -> OutputBoundCheck:
    """Check the label-anchored bound on the output transport cost.

    lhs = W_p(intermediate, target)^p, the cost one would like to know
    but cannot observe (the optimal target outputs are unknown); rhs
    routes both sides through the observable labels,

        lhs ≤ 2^{p−1} [ W_p(intermediate, labels)^p + W_p(target, labels)^p ].

    Returns both sides and whether the bound holds (1e-9 slack).
    """
    lhs = wp_empirical_1d(intermediate_out, target_out, p)
    rhs = 2.0 ** (p - 1.0) * (wp_empirical_1d(intermediate_out, labels, p)
                              + wp_empirical_1d(target_out, labels, p))
    return OutputBoundCheck(lhs, rhs, lhs <= rhs + 1e-9)


class TalagrandDiagnostic(NamedTuple):
    w2_sq: float
    two_kl: float
    holds: bool


def talagrand_diagnostic(p: GaussianDist, q: GaussianDist) -> TalagrandDiagnostic:
    """Report both sides of the transport-entropy comparison W2² ≤ 2·KL.

    Against a standard-normal reference the inequality is Talagrand's
    and always holds.  For a general reference it needs a curvature
    condition the comparison is often quoted without; e.g. p = N(1, 100)
    against q = N(0, 100) gives W2² = 1 but 2·KL = 0.01.  This function
    therefore returns data, not a verdict about all pairs.
    """
    w2 = w2_gaussian_sq(p, q)
    two_kl = 2.0 * kl_gaussian(p, q)
    return TalagrandDiagnostic(w2, two_kl, w2 <= two_kl + 1e-9)
