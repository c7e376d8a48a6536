"""Independent sampling and cubature oracles.

The scalar closed forms behind ``gaussian-risk --verify`` are
cross-checked against estimators in this module that share no code path
with them: 1-D squared-W2 through common-quantile coupling, and the loss
gap and the 1-D KL through Stroud's degree-3 cubature rule (Stroud,
1971) in the standard normal variable z.  The wider output-augmentation
laws have no oracle here: their ``*_vs_generic_divergence`` entries
recompute the same generic split that produced the closed form.  The
module needs numpy alone, and is shipped (not test-only) so downstream
users can re-verify any number they get.

The cubature oracles are exact, not sampled: the loss gap and the KL
log-ratio are quadratics in z, and the rule integrates every polynomial
of degree ≤ 3 under N(0, I_k) exactly.  They read only the joint law,
the models or the two densities, never a closed-form quantity.

Randomness: a single documented generator, ``SeededStream``, built on
the Philox 4x64 counter-based engine with normals drawn by numpy's
ziggurat ``standard_normal`` (Marsaglia & Tsang, 2000).  Substreams are
split by (seed, index) keying so parallel shards never overlap.  One
seed gives the same stream on every run on one machine.  Across
machines with the same numpy release, most draws are exact products of
integer draws and table values, but the rare wedge and tail branches
call libm's ``exp`` and ``log1p``, whose last bits may differ between
builds, and a flipped accept test there shifts every later draw.  So an
oracle value, and a pass or fail decided by it, may change on another
machine; ``test_frozen_values`` pins the first draws to 1e-15.  A numpy
release that changes its ziggurat changes the stream.

The sampled W2 oracle uses antithetic pairs (z, −z) (Hammersley &
Morton, 1956) and comes back with a standard error, so checks of it are
phrased in standard-error units.  ``gaussian-risk --verify`` runs it on
``W2_ROWS`` = 2·10⁵ rows, 5,000 in each of ``W2_SHARDS`` = 40 shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOneDimensional, SingularReference
from .gaussian import AffineModel, GaussianDist, GaussianJointTask

STREAM_ALGORITHM = "philox4x64/ziggurat"
W2_SHARDS = 40   # batch-means shards of the sampled W2 oracle
W2_ROWS = 200_000   # rows of the sampled W2 oracle behind gaussian-risk --verify

@dataclass(frozen=True)
class SeededStream:
    """Deterministic random stream keyed by (seed, index).

    Identical (seed, index) pairs reproduce identical sequences on one
    machine (see the module docstring for what holds across machines).
    ``substream(i)`` derives an independent shard for parallel work
    without sharing state with the parent.  Every stream uses the one
    algorithm named by ``STREAM_ALGORITHM``.
    """

    seed: int
    index: int = 0

    _MIX = 0x9E3779B97F4A7C15  # odd multiplier; keeps nested splits disjoint

    def generator(self) -> np.random.Generator:
        """A fresh numpy generator at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=np.array(
            [self.seed % (1 << 64), self.index % (1 << 64)], dtype=np.uint64)))

    def substream(self, index: int) -> "SeededStream":
        child = (self.index * self._MIX + index + 1) % (1 << 64)
        return SeededStream(self.seed, child)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), clipped away from the endpoints."""
        u = self.generator().random(n)
        return np.clip(u, 1e-15, 1.0 - 1e-15)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals by the ziggurat method."""
        return self.generator().standard_normal(n)


def mc_w2_1d(p: GaussianDist, q: GaussianDist, n: int,
             stream: SeededStream) -> tuple[float, float]:
    """Sampled squared W2 between two 1-D Gaussians.

    Pushes n common standard normals z through both quantile functions,
    a = μ_p + σ_p·z and b = μ_q + σ_q·z.  This comonotone coupling is the
    optimal transport plan on the line, so E[(a − b)²] equals W2²(p, q)
    exactly and the sample mean is unbiased at every n; the estimator
    never touches the Bures formula it is checked against.  (Sorting two
    independent samples instead would add the empirical W2² between
    them, about 6–8·σ²/m for m points per shard.)  The n rows are split
    into ``W2_SHARDS`` equal shards of m rows, so n must be a multiple of
    W2_SHARDS with m ≥ 2; each shard draws ⌈m/2⌉ normals z from its own
    substream and uses the antithetic rows concat(z, −z)[:m].  The shard
    means are i.i.d., so their mean comes back with the batch-means
    standard error, a Student t with W2_SHARDS − 1 degrees of freedom.
    """
    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("sampled W2 oracle is 1-D only")
    m, rest = divmod(n, W2_SHARDS)
    if rest or m < 2:
        raise DimensionMismatch(f"need n a multiple of {W2_SHARDS} and n >= {2 * W2_SHARDS}, "
                                f"got {n}")
    sd_p = math.sqrt(max(p.cov[0, 0], 0.0))
    sd_q = math.sqrt(max(q.cov[0, 0], 0.0))
    estimates = np.empty(W2_SHARDS)
    for k in range(W2_SHARDS):
        z = stream.substream(k).normals((m + 1) // 2)
        z = np.concatenate([z, -z])[:m]
        a = p.mean[0] + sd_p * z
        b = q.mean[0] + sd_q * z
        estimates[k] = float(np.mean((a - b) ** 2))
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1) / math.sqrt(W2_SHARDS))


def cubature(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stroud's degree-3 rule for N(0, I_k): the 2k points ±√k·eᵢ, as a
    (2k, k) array, each with weight 1/(2k).  It integrates every
    polynomial of degree ≤ 3 exactly, with O(k) points where a tensor
    Gauss–Hermite rule needs 2ᵏ; at k = 1 it is the 2-node Gauss–Hermite
    rule."""
    points = math.sqrt(k) * np.eye(k)
    return np.vstack([points, -points]), np.full(2 * k, 0.5 / k)


def loss_gap_cubature(model_a: AffineModel, model_b: AffineModel,
                      task: GaussianJointTask) -> float:
    """L(model_a) − L(model_b), L(f) = E‖Y − f(X)‖², by ``cubature`` at
    the joint rows mean + F·z.  This is the oracle for regret (loss of the
    transferred model minus loss of the directly learned one).

    Each residual y − f(x) at mean + F·z is c + M·z, with C = [−W | I],
    c = C·mean − b and M = C·F, so the gap is a quadratic in z and the
    rule is exact up to rounding.  Its points come in pairs ±z, so the
    cross terms 2c·Mz cancel exactly and are not summed; the gap is
    summed as (u_a − u_b)·(u_a + u_b), for u = c and u = Mz, so neither
    two nearly equal models nor a huge output variance, which M·z carries
    identically for both models, loses digits to cancellation.  F is the
    Cholesky factor of the joint covariance, or for a singular PSD joint
    V·√max(Λ, 0) from its eigendecomposition; a jittered factor would
    change the law, and with it the gap, by far more than rounding.
    """
    try:
        factor = np.linalg.cholesky(task.cov)
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(task.cov)
        factor = vec * np.sqrt(np.maximum(lam, 0.0))
    z, weights = cubature(task.dim_x + task.dim_y)

    def residual(model: AffineModel) -> tuple[np.ndarray, np.ndarray]:
        resid = np.hstack([-model.weight, np.eye(task.dim_y)])
        return resid @ task.mean - model.intercept, z @ (resid @ factor).T

    (c_a, r_a), (c_b, r_b) = residual(model_a), residual(model_b)
    return float((c_a - c_b) @ (c_a + c_b) + weights @ np.sum((r_a - r_b) * (r_a + r_b), axis=1))


def kl_quadrature_1d(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p ‖ q) = E log(p/q)(μ_p + σ_p·z) for 1-D Gaussians by
    ``cubature(1)``, the nodes z = ±1 with weights ½.  The log-ratio is
    quadratic in z, so the rule is exact up to rounding.  Each
    log-density is read at the offset from its own mean, so a large
    common mean cancels exactly."""
    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("quadrature oracle is 1-D only")
    vp, vq = float(p.cov[0, 0]), float(q.cov[0, 0])
    if vq <= 0.0:
        raise SingularReference("reference variance must be positive")
    if vp <= 0.0:
        raise SingularReference("first argument has zero variance; KL undefined as a density integral")
    z, w = cubature(1)
    dx_p = math.sqrt(vp) * z[:, 0]
    dx_q = dx_p + (float(p.mean[0]) - float(q.mean[0]))
    log_p = -0.5 * dx_p * dx_p / vp - 0.5 * math.log(2.0 * math.pi * vp)
    log_q = -0.5 * dx_q * dx_q / vq - 0.5 * math.log(2.0 * math.pi * vq)
    return max(float(w @ (log_p - log_q)), 0.0)
