"""Independent Monte-Carlo and quadrature oracles.

Every closed form in the library is cross-checked against an estimator
in this module that shares no code path with it: sampling goes through
the joint Cholesky factor, losses through each model's residual map
y − Wx − b folded into that factor, 1-D squared-W2 through
common-quantile coupling, and 1-D KL through a fixed Gauss–Hermite rule
on log p − log q.  The module needs numpy alone, and is shipped (not
test-only) so downstream users can re-verify any number they get.

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

The sampling oracles use antithetic pairs (z, −z) (Hammersley & Morton,
1956): each normal drawn is used twice, once with each sign.  A pair
mean has variance ½·var·(1 + ρ) per normal, with ρ = corr(v(z), v(−z)),
so per normal drawn it is never worse than plain sampling; per row it
is worse by up to √2 in standard error when the integrand is even in z.
The estimators read no closed-form quantity, so they stay independent.

All stochastic estimates come back with a standard error; tolerance
checks elsewhere are phrased in standard-error units, not absolute
constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOneDimensional, SingularReference
from .gaussian import AffineModel, GaussianDist, GaussianJointTask, cholesky_with_jitter

STREAM_ALGORITHM = "philox4x64/ziggurat"
W2_SHARDS = 40   # batch-means shards of the sampled W2 oracle
HERMITE_NODES = 20   # nodes of the Gauss–Hermite KL rule; any n >= 2 is exact

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

    def _bit_generator(self) -> np.random.Philox:
        return np.random.Philox(key=np.array(
            [self.seed % (1 << 64), self.index % (1 << 64)], dtype=np.uint64))

    def substream(self, index: int) -> "SeededStream":
        child = (self.index * self._MIX + index + 1) % (1 << 64)
        return SeededStream(self.seed, child)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), clipped away from the endpoints."""
        u = np.random.Generator(self._bit_generator()).random(n)
        return np.clip(u, 1e-15, 1.0 - 1e-15)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals by the ziggurat method."""
        return np.random.Generator(self._bit_generator()).standard_normal(n)


def sample_joint(task: GaussianJointTask, n: int, stream: SeededStream) -> np.ndarray:
    """n draws from the joint law, as an (n, d+l) matrix.

    Draws standard normals from the stream and colors them with the
    lower Cholesky factor of the joint covariance (jitter retry applies
    for PSD-but-singular joints).
    """
    if n < 1:
        raise DimensionMismatch("need at least one sample")
    dim = task.dim_x + task.dim_y
    chol = cholesky_with_jitter(task.cov)
    z = stream.normals(n * dim).reshape(n, dim)
    return z @ chol.T + task.mean


_CHUNK = 1_000_000


def _chunked_mean(task: GaussianJointTask, n: int, stream: SeededStream,
                  signed_models) -> tuple[float, float]:
    """Mean of Σ sign·‖y − f(x)‖² over n joint rows in antithetic pairs,
    with its standard error, for ``signed_models`` a list of
    (sign, AffineModel) pairs.

    Evaluated in chunks so n = 10^7 does not materialize 10^7×(d+l)
    doubles at once; chunk k draws from substream k, so the estimate is a
    pure function of (arguments, seed).  A chunk of c rows draws ⌈c/2⌉
    standard-normal rows z and evaluates the models at mean + zLᵀ and at
    mean − zLᵀ for the first ⌊c/2⌋ of them, L the lower Cholesky factor of
    the joint covariance, so no pair spans two chunks.  The estimate is
    the mean over exactly n rows.

    The rows are never coloured.  The residual of f = (W, b) is the linear
    map C = [−W | I] of the row minus b, so at mean ± zLᵀ it is c ± zMᵀ
    with M = CL and c = C·mean − b, folded once per call.  With r = zMᵀ,
    ‖c ± r‖² = ‖c‖² + ‖r‖² ± 2c·r: the even part e = Σ sign·(‖c‖² + ‖r‖²)
    is the pair mean and the odd part o = Σ sign·2c·r, so the two rows of
    a pair are e ± o.  The fold reads only the joint law and the models,
    no closed-form loss, so the estimator stays independent of the
    formulas it checks.

    The standard error is taken over the i.i.d. pair means, with
    variances about the estimate.  A chunk of odd length leaves its last
    row unpaired; such a row enters the variance of the estimate with the
    per-row sample variance, since a pair mean's variance would
    understate it when ρ < 1.  Each chunk's pair means are centred on
    their own mean and the chunks are combined as Chan, Golub & LeVeque
    (1979) do, so the standard error keeps its digits when it is far
    below the mean.
    """
    if n < 4:
        raise DimensionMismatch("need n >= 4: two antithetic pairs for a standard error")
    dim_y = task.dim_y
    dim = task.dim_x + dim_y
    chol = cholesky_with_jitter(task.cov)
    folds, offsets, signs = [], [], []
    for sign, model in signed_models:
        resid = np.hstack([-model.weight, np.eye(dim_y)])
        folds.append(resid @ chol)
        offsets.append(resid @ task.mean - model.intercept)
        signs.append(np.full(dim_y, float(sign)))
    fold = np.vstack(folds).T
    c, s = np.concatenate(offsets), np.concatenate(signs)
    even_const, odd_weight = float(s @ (c * c)), 2.0 * s * c
    pair_stats, tails, odd_ss = [], [], 0.0
    for chunk_index, start in enumerate(range(0, n, _CHUNK)):
        rows = min(_CHUNK, n - start)
        half = (rows + 1) // 2
        pairs = rows - half
        z = stream.substream(chunk_index).normals(half * dim).reshape(half, dim)
        r = z @ fold
        even = even_const + (r * r) @ s
        odd = r @ odd_weight
        e, o = even[:pairs], odd[:pairs]
        tails.extend((even[pairs:] + odd[pairs:]).tolist())
        if pairs:
            pair_sum = float(np.sum(e))
            dev = e - pair_sum / pairs
            pair_stats.append((pairs, pair_sum, float(dev @ dev)))
            odd_ss += float(o @ o)
    mean = (2.0 * sum(total for _, total, _ in pair_stats) + sum(tails)) / n
    # each chunk's pair means are centred on their own mean, then moved to
    # the estimate; a pair's two rows e ± o lie at e − mean ± o from it
    pair_ss = sum(ss + k * (total / k - mean) ** 2 for k, total, ss in pair_stats)
    row_ss = 2.0 * (pair_ss + odd_ss) + sum((v - mean) ** 2 for v in tails)
    return mean, math.sqrt(4.0 * pair_ss + len(tails) * row_ss / n) / n


def mc_loss(model: AffineModel, task: GaussianJointTask, n: int,
            stream: SeededStream) -> tuple[float, float]:
    """Monte-Carlo estimate of the expected squared error E‖Y − f(X)‖².

    Returns (estimate, standard error), from draws taken in chunks (see
    ``_chunked_mean``).
    """
    return _chunked_mean(task, n, stream, [(1, model)])


def mc_loss_gap(model_a: AffineModel, model_b: AffineModel, task: GaussianJointTask,
                n: int, stream: SeededStream) -> tuple[float, float]:
    """Paired estimate of L(model_a) − L(model_b) on common draws.

    Using the same samples for both models cancels most of the shared
    noise, so the standard error reflects the gap itself.  This is the
    oracle for regret (loss of the transferred model minus loss of the
    directly learned one).
    """
    return _chunked_mean(task, n, stream, [(1, model_a), (-1, model_b)])


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
    into ``W2_SHARDS`` shards, each from its own substream; the first
    n mod W2_SHARDS shards take one row more than the rest.  A shard of m
    rows draws ⌈m/2⌉ normals z and uses the antithetic rows
    concat(z, −z)[:m].  The shard means stay i.i.d., so the mean over all
    n rows comes back with the batch-means standard error of the shard
    means, a Student t with W2_SHARDS − 1 degrees of freedom.
    """
    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("sampled W2 oracle is 1-D only")
    if n < W2_SHARDS * 2:
        raise DimensionMismatch(f"need n >= {W2_SHARDS * 2}")
    sizes = np.full(W2_SHARDS, n // W2_SHARDS)
    sizes[:n % W2_SHARDS] += 1
    sd_p = math.sqrt(max(p.cov[0, 0], 0.0))
    sd_q = math.sqrt(max(q.cov[0, 0], 0.0))
    estimates = np.empty(W2_SHARDS)
    for k in range(W2_SHARDS):
        m = int(sizes[k])
        z = stream.substream(k).normals((m + 1) // 2)
        z = np.concatenate([z, -z])[:m]
        a = p.mean[0] + sd_p * z
        b = q.mean[0] + sd_q * z
        estimates[k] = float(np.mean((a - b) ** 2))
    # shard weights m_k·W2_SHARDS/n are exactly 1.0 when the shards are equal
    mean = float(np.mean(estimates * (sizes * W2_SHARDS / n)))
    return mean, float(np.std(estimates, ddof=1) / math.sqrt(W2_SHARDS))


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.hermite_e import hermegauss  # on first use, not at import
    z, w = hermegauss(HERMITE_NODES)
    return z, w / w.sum()


def kl_quadrature_1d(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p ‖ q) = E log(p/q)(μ_p + σ_p·z) for 1-D Gaussians by the
    probabilists' Gauss–Hermite rule in z (Golub & Welsch, 1969).  The
    log-ratio is quadratic in z and an n-node rule is exact to degree
    2n − 1, so any n ≥ 2 is exact up to rounding; HERMITE_NODES = 20 stays
    exact to degree 39 at no measurable cost.  Each log-density is read at
    the offset from its own mean, so a large common mean cancels exactly."""
    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("quadrature oracle is 1-D only")
    vp, vq = float(p.cov[0, 0]), float(q.cov[0, 0])
    if vq <= 0.0:
        raise SingularReference("reference variance must be positive")
    if vp <= 0.0:
        raise SingularReference("first argument has zero variance; KL undefined as a density integral")
    z, w = _hermite_rule()
    dx_p = math.sqrt(vp) * z
    dx_q = dx_p + (float(p.mean[0]) - float(q.mean[0]))
    log_p = -0.5 * dx_p * dx_p / vp - 0.5 * math.log(2.0 * math.pi * vp)
    log_q = -0.5 * dx_q * dx_q / vq - 0.5 * math.log(2.0 * math.pi * vq)
    return max(float(w @ (log_p - log_q)), 0.0)
