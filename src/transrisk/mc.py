"""Independent sampling and cubature oracles.

The scalar closed forms behind ``gaussian-risk --verify`` are
cross-checked against estimators in this module that share no code path
with them: 1-D squared-W2 through common-quantile coupling, and the loss
gap and the 1-D KL through Stroud's degree-3 cubature rule (Stroud,
1971) in the standard normal variable z.  The wider output-augmentation
laws have no oracle here, so ``--verify`` reports no entry for them.
Only ``gaussian-risk --verify`` on 1-D laws and ``verify-props`` load
this module.  It needs numpy alone, and is shipped (not test-only) so
downstream users can re-verify the numbers it covers.

The cubature oracles are exact, not sampled: the loss gap and the KL
log-ratio are quadratics in z, and the rule integrates every polynomial
of degree ≤ 3 under N(0, I_k) exactly.  They read only the joint law,
the models or the two densities, never a closed-form quantity, and
take the joint law's own factor rather than decompose a matrix.

Randomness: a single documented generator, ``SeededStream``, built on
the Philox 4x64 counter-based engine with normals drawn by numpy's
ziggurat ``standard_normal`` (Marsaglia & Tsang, 2000).  Substreams are
split by (seed, index) keying so parallel shards never overlap.  A
draw constructs no generator: each thread keeps one Philox, and
``normals`` and ``uniforms`` rewind it to key (seed, index) and counter
0, which yields the stream a fresh ``Philox(key=...)`` would.  One
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
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import AffineModel, GaussianDist, GaussianJointTask

W2_SHARDS = 40   # batch-means shards of the sampled W2 oracle
W2_ROWS = 200_000   # rows of the sampled W2 oracle behind gaussian-risk --verify


class _Rewound(threading.local):
    """One Philox generator per thread, rewound to a stream's start by
    every draw.  Rewinding sets the key, the counter and the output
    buffer; constructing a Philox would first gather OS entropy for a
    ``SeedSequence`` that the key then overrides, at about four times
    the cost.  The generator is built at a thread's first draw, so a
    command that never samples does not load ``numpy.random``."""

    generator: np.random.Generator | None = None

    def at(self, seed: int, index: int) -> np.random.Generator:
        if self.generator is None:
            self.key = np.zeros(2, dtype=np.uint64)
            self.start = {"bit_generator": "Philox",
                          "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self.key},
                          "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}
            self.generator = np.random.Generator(np.random.Philox(0))  # a seed skips OS entropy
        self.key[0], self.key[1] = seed % (1 << 64), index % (1 << 64)
        self.generator.bit_generator.state = self.start
        return self.generator


_REWOUND = _Rewound()


@dataclass(frozen=True)
class SeededStream:
    """Deterministic random stream keyed by (seed, index).

    Identical (seed, index) pairs reproduce identical sequences on one
    machine (see the module docstring for what holds across machines).
    ``substream(i)`` derives an independent shard for parallel work
    without sharing state with the parent.  Every stream draws by the
    one algorithm of the module docstring: Philox 4x64, with ziggurat
    normals.
    """

    seed: int
    index: int = 0

    _MIX = 0x9E3779B97F4A7C15  # odd multiplier; keeps nested splits disjoint

    def generator(self) -> np.random.Generator:
        """A fresh numpy generator at the start of this stream, for a
        caller that keeps drawing from it; ``normals`` and ``uniforms``
        draw the same values without building one."""
        return np.random.Generator(np.random.Philox(key=np.array(
            [self.seed % (1 << 64), self.index % (1 << 64)], dtype=np.uint64)))

    def substream(self, index: int) -> "SeededStream":
        child = (self.index * self._MIX + index + 1) % (1 << 64)
        return SeededStream(self.seed, child)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), clipped away from the endpoints."""
        u = _REWOUND.at(self.seed, self.index).random(n)
        return np.clip(u, 1e-15, 1.0 - 1e-15)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals by the ziggurat method."""
        return _REWOUND.at(self.seed, self.index).standard_normal(n)


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

    Each shard's draw rewinds the thread's generator (see
    ``SeededStream``), so a call constructs no bit generator, and the
    shards reuse three m-row buffers.  The arithmetic is the formula
    above in its order, (μ_p + σ_p·z) − (μ_q + σ_q·z), squared and
    averaged, so the result is bit-identical to evaluating it on fresh
    arrays.
    """
    if p.dim != 1 or q.dim != 1:
        raise ValidationError("sampled W2 oracle is 1-D only")
    m, rest = divmod(n, W2_SHARDS)
    if rest or m < 2:
        raise ValidationError(f"need n a multiple of {W2_SHARDS} and n >= {2 * W2_SHARDS}, "
                              f"got {n}")
    mu_p, sd_p = float(p.mean[0]), math.sqrt(max(p.cov[0, 0], 0.0))
    mu_q, sd_q = float(q.mean[0]), math.sqrt(max(q.cov[0, 0], 0.0))
    half = (m + 1) // 2
    z, a, b = np.empty(m), np.empty(m), np.empty(m)
    estimates = np.empty(W2_SHARDS)
    for k in range(W2_SHARDS):
        z[:half] = stream.substream(k).normals(half)
        np.negative(z[:m - half], out=z[half:])
        np.add(np.multiply(z, sd_p, out=a), mu_p, out=a)
        np.add(np.multiply(z, sd_q, out=b), mu_q, out=b)
        estimates[k] = np.add.reduce(np.square(np.subtract(a, b, out=a), out=a)) / m
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
    joint law's ``chol``, or its ``root`` when Cholesky fails; a jittered
    factor would change the law, and with it the gap, by far more than
    rounding.
    """
    factor = task.law.root if task.law.chol is None else task.law.chol
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
        raise ValidationError("quadrature oracle is 1-D only")
    vp, vq = float(p.cov[0, 0]), float(q.cov[0, 0])
    if vq <= 0.0:
        raise NumericalError("reference variance must be positive")
    if vp <= 0.0:
        raise NumericalError("first argument has zero variance; KL undefined as a density integral")
    z, w = cubature(1)
    dx_p = math.sqrt(vp) * z[:, 0]
    dx_q = dx_p + (float(p.mean[0]) - float(q.mean[0]))
    log_p = -0.5 * dx_p * dx_p / vp - 0.5 * math.log(2.0 * math.pi * vp)
    log_q = -0.5 * dx_q * dx_q / vq - 0.5 * math.log(2.0 * math.pi * vq)
    return max(float(w @ (log_p - log_q)), 0.0)
