"""Independent Monte-Carlo and quadrature oracles.

Every closed form in the library is cross-checked against an estimator
in this module that shares no code path with it: sampling goes through
the joint Cholesky factor, losses through raw residuals, 1-D squared-W2
through common-uniform quantile coupling, and KL through adaptive
quadrature of p·log(p/q).  The module is shipped (not test-only) so
downstream users can re-verify any number they get.

Randomness: a single documented generator, ``SeededStream``, built on
the Philox 4x64 counter-based engine with normals drawn by inverting
the Gaussian CDF with scipy's ``ndtri``.  One seed gives the same
stream on every run on one machine; across machines only the first
draws are pinned, to 1e-15 (``test_frozen_values``).  ``ndtri`` goes
through libm ``log`` and ``sqrt``, whose last bits may differ between
builds, so an oracle value, and a pass or fail decided by it, may
change on another machine.  Substreams are split by (seed, index)
keying so parallel shards never overlap.

All stochastic estimates come back with a standard error; tolerance
checks elsewhere are phrased in standard-error units, not absolute
constants.

scipy's ``ndtri`` and ``quad`` are imported by the functions that call
them, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOneDimensional, SingularReference
from .gaussian import AffineModel, GaussianDist, GaussianJointTask, cholesky_with_jitter

STREAM_ALGORITHM = "philox4x64/inverse-cdf"

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
        """n doubles in (0, 1), clipped away from the endpoints so the
        inverse CDF stays finite."""
        u = np.random.Generator(self._bit_generator()).random(n)
        return np.clip(u, 1e-15, 1.0 - 1e-15)

    def normals(self, n: int) -> np.ndarray:
        from scipy.special import ndtri

        return ndtri(self.uniforms(n))


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
                  per_draw) -> tuple[float, float]:
    """Mean of ``per_draw(x, y)`` over n joint draws, with its standard error.

    Evaluated in chunks so n = 10^7 does not materialize 10^7×(d+l)
    doubles at once; chunk k draws from substream k, so the estimate is a
    pure function of (arguments, seed).
    """
    if n < 2:
        raise DimensionMismatch("need n >= 2 for a standard error")
    d = task.dim_x
    total = 0.0
    total_sq = 0.0
    for chunk_index, start in enumerate(range(0, n, _CHUNK)):
        xy = sample_joint(task, min(_CHUNK, n - start), stream.substream(chunk_index))
        values = per_draw(xy[:, :d], xy[:, d:])
        total += float(np.sum(values))
        total_sq += float(np.sum(values * values))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _squared_error(model: AffineModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    resid = y - model(x)
    return np.einsum("ij,ij->i", resid, resid)


def mc_loss(model: AffineModel, task: GaussianJointTask, n: int,
            stream: SeededStream) -> tuple[float, float]:
    """Monte-Carlo estimate of the expected squared error E‖Y − f(X)‖².

    Returns (estimate, standard error), from draws taken in chunks (see
    ``_chunked_mean``).
    """
    return _chunked_mean(task, n, stream, lambda x, y: _squared_error(model, x, y))


def mc_loss_gap(model_a: AffineModel, model_b: AffineModel, task: GaussianJointTask,
                n: int, stream: SeededStream) -> tuple[float, float]:
    """Paired estimate of L(model_a) − L(model_b) on common draws.

    Using the same samples for both models cancels most of the shared
    noise, so the standard error reflects the gap itself.  This is the
    oracle for regret (loss of the transferred model minus loss of the
    directly learned one).
    """
    return _chunked_mean(task, n, stream, lambda x, y: (
        _squared_error(model_a, x, y) - _squared_error(model_b, x, y)))


def mc_w2_1d(p: GaussianDist, q: GaussianDist, n: int, stream: SeededStream,
             shards: int = 40) -> tuple[float, float]:
    """Sampled squared W2 between two 1-D Gaussians.

    Draws n common uniforms u and pushes each through both quantile
    functions, a = F_p⁻¹(u) and b = F_q⁻¹(u).  This comonotone coupling
    is the optimal transport plan on the line, so E[(a − b)²] equals
    W2²(p, q) exactly and the sample mean is unbiased at every n; the
    estimator never touches the Bures formula it is checked against.
    (Sorting two independent samples instead would add the empirical
    W2² between them, about 6–8·σ²/m for m points per shard.)  The n
    draws are split into ``shards`` shards, each from its own substream;
    the first n mod shards shards take one draw more than the rest.  The
    mean over all n draws comes back with the batch-means standard error
    of the shard means.
    """
    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("sampled W2 oracle is 1-D only")
    if n < shards * 2:
        raise DimensionMismatch(f"need n >= {shards * 2}")
    sizes = np.full(shards, n // shards)
    sizes[:n % shards] += 1
    sd_p = math.sqrt(max(p.cov[0, 0], 0.0))
    sd_q = math.sqrt(max(q.cov[0, 0], 0.0))
    estimates = np.empty(shards)
    for k in range(shards):
        z = stream.substream(k).normals(int(sizes[k]))
        a = p.mean[0] + sd_p * z
        b = q.mean[0] + sd_q * z
        estimates[k] = float(np.mean((a - b) ** 2))
    # shard weights m_k·shards/n are exactly 1.0 when the shards are equal
    mean = float(np.mean(estimates * (sizes * shards / n)))
    return mean, float(np.std(estimates, ddof=1) / math.sqrt(shards))


def kl_quadrature_1d(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p ‖ q) for 1-D Gaussians by adaptive quadrature.

    Integrates p(x)·log(p(x)/q(x)) over mean ± 12 standard deviations;
    agrees with the closed form to ~1e-10 on well-conditioned pairs.
    """
    from scipy.integrate import quad

    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("quadrature oracle is 1-D only")
    vp = float(p.cov[0, 0])
    vq = float(q.cov[0, 0])
    if vq <= 0.0:
        raise SingularReference("reference variance must be positive")
    if vp <= 0.0:
        raise SingularReference("first argument has zero variance; KL undefined as a density integral")
    mp, mq = float(p.mean[0]), float(q.mean[0])
    sp = math.sqrt(vp)

    def integrand(x: float) -> float:
        log_p = -0.5 * (x - mp) ** 2 / vp - 0.5 * math.log(2.0 * math.pi * vp)
        log_q = -0.5 * (x - mq) ** 2 / vq - 0.5 * math.log(2.0 * math.pi * vq)
        return math.exp(log_p) * (log_p - log_q)

    lo, hi = mp - 12.0 * sp, mp + 12.0 * sp
    value, _ = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return max(value, 0.0)
