"""Gaussian distribution algebra.

Construction and validation of Gaussian laws, optimal affine (linear
least-squares) models for jointly Gaussian input/output pairs, affine
pushforwards, and the two closed-form divergences used throughout, each
split into a variance (covariance mismatch) and a bias (mean mismatch)
term:

* ``kl_split(p, q)``  KL(p ‖ q) for nondegenerate reference q,
* ``w2_split(p, q)``  squared Wasserstein-2 (Bures) distance.

``kl_gaussian`` and ``w2_gaussian_sq`` return their totals.

Conventions
-----------
* Joint tasks store one (d+l)-dimensional mean and one symmetric
  (d+l)×(d+l) covariance, partitioned as

      mean = (μ_X; μ_Y),   cov = [[Σ_X,  Σ_XY],
                                  [Σ_YX, Σ_Y ]].

* ``AffineModel.weight`` is the applied operator of shape (l, d):
  the model maps x ↦ weight @ x + intercept.  The optimal model for a
  joint task is weight = Σ_YX Σ_X⁻¹, intercept = μ_Y − Σ_YX Σ_X⁻¹ μ_X.

* The Wasserstein divergence returns the *squared* distance (hence the
  ``_sq`` suffix); callers wanting a metric take the square root.

Numerical policy: no matrix square root is formed.  The Bures term
takes its cross trace from the eigenvalues of FᵀΣqF, with F = V·√Λ from
a symmetric eigendecomposition of Σp, both eigenvalue sets clamped at
max(0, λ) against round-off.  Linear solves go through numpy's Cholesky
with a single retry after adding 1e-10·trace/n of diagonal jitter, then
``np.linalg.solve`` on the factor and on its transpose.  Both choices
are deterministic, and neither loads scipy.  The optimal weight
Σ_X⁻¹Σ_XY and, for a scalar output, the explained variance
Σ_YX Σ_X⁻¹ Σ_XY are computed by ``optimal_weight`` and
``explained_variance`` alone.  A multivariate KL treats a law as rank
deficient when its covariance has λ_min ≤ 1e-12·λ_max
(``numerically_singular``), not when a Cholesky factor or a
log-determinant's sign happens to fail: laws singular by construction
reach about 1e-16 after round-off, which either test can miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AsymmetricCovariance,
    DimensionMismatch,
    NotPositiveSemidefinite,
    SingularInputCovariance,
    SingularReference,
    ValidationError,
)

SYMMETRY_TOL = 1e-10
PSD_REL_TOL = 1e-8
PD_MIN_EIG = 1e-10
CHOLESKY_JITTER = 1e-10
RANK_REL_TOL = 1e-12


def _require_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValidationError(f"non-finite entries in {name}")


def _as_vector(x, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {x.shape}")
    _require_finite(x, name)
    return x


def _as_square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def validate_covariance(cov: np.ndarray, name: str = "cov") -> np.ndarray:
    """Check finiteness, symmetry (within 1e-10) and PSD-ness; return the
    exactly symmetrized copy that all downstream code works with."""
    cov = _as_square(cov, name)
    _require_finite(cov, name)
    asym = float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0
    if asym > SYMMETRY_TOL:
        raise AsymmetricCovariance(f"{name}: max abs asymmetry {asym:.3e} > {SYMMETRY_TOL}")
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo < -PSD_REL_TOL * max(hi, 0.0):
        raise NotPositiveSemidefinite(f"{name}: min eigenvalue {lo:.3e} (max {hi:.3e})")
    return cov


def cholesky_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retried once with 1e-10·trace/n jitter.

    The jitter retry is the documented fallback for near-singular
    symmetric positive-definite solves; a second failure raises
    SingularInputCovariance.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        n = mat.shape[0]
        jitter = CHOLESKY_JITTER * float(np.trace(mat)) / max(n, 1)
        if jitter <= 0.0:
            raise SingularInputCovariance("matrix is not positive definite") from None
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            raise SingularInputCovariance(
                "matrix is not positive definite, even with jitter") from None


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given the lower Cholesky factor of A."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def numerically_singular(cov: np.ndarray) -> bool:
    """Whether a symmetric PSD matrix has numerical rank below its size:
    λ_min ≤ 1e-12·λ_max, which includes the zero matrix."""
    eigs = np.linalg.eigvalsh(cov)
    return bool(eigs[0] <= RANK_REL_TOL * eigs[-1])


@dataclass(frozen=True)
class GaussianDist:
    """A Gaussian law N(mean, cov); cov may be rank deficient."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        cov = validate_covariance(self.cov, "cov")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatch(
                f"mean has dim {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class GaussianJointTask:
    """Joint Gaussian law of an (input, output) pair.

    The first ``dim_x`` coordinates are the input block, the remaining
    ``dim_y`` the output block.  The input block Σ_X must be strictly
    positive definite (smallest eigenvalue > 1e-10) so the optimal
    affine model is well defined; the full covariance only needs PSD.
    """

    dim_x: int
    dim_y: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise DimensionMismatch("dim_x and dim_y must be positive")
        n = self.dim_x + self.dim_y
        mean = _as_vector(self.mean, "mean")
        cov = validate_covariance(self.cov, "cov")
        if mean.shape[0] != n or cov.shape[0] != n:
            raise DimensionMismatch(
                f"expected dimension {n}, got mean {mean.shape[0]}, cov {cov.shape[0]}"
            )
        sx = cov[: self.dim_x, : self.dim_x]
        min_eig = float(np.linalg.eigvalsh(sx)[0])
        if min_eig <= PD_MIN_EIG:
            raise NotPositiveSemidefinite(
                f"input covariance block must be strictly PD; min eigenvalue {min_eig:.3e}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    # partitioned views -------------------------------------------------
    @property
    def mean_x(self) -> np.ndarray:
        return self.mean[: self.dim_x]

    @property
    def mean_y(self) -> np.ndarray:
        return self.mean[self.dim_x:]

    @property
    def cov_x(self) -> np.ndarray:
        return self.cov[: self.dim_x, : self.dim_x]

    @property
    def cov_xy(self) -> np.ndarray:
        return self.cov[: self.dim_x, self.dim_x:]

    @property
    def cov_yx(self) -> np.ndarray:
        return self.cov[self.dim_x:, : self.dim_x]

    @property
    def cov_y(self) -> np.ndarray:
        return self.cov[self.dim_x:, self.dim_x:]

    def input_marginal(self) -> GaussianDist:
        return GaussianDist(self.mean_x, self.cov_x)


@dataclass(frozen=True)
class AffineModel:
    """The affine map x ↦ weight @ x + intercept, weight of shape (l, d)."""

    weight: np.ndarray
    intercept: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim == 1:
            w = w.reshape(1, -1)
        if w.ndim != 2:
            raise DimensionMismatch(f"weight must be a matrix, got shape {w.shape}")
        b = np.atleast_1d(np.asarray(self.intercept, dtype=float))
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"intercept of length {b.shape} does not match weight {w.shape}"
            )
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "intercept", b)

    @property
    def dim_in(self) -> int:
        return self.weight.shape[1]

    @property
    def dim_out(self) -> int:
        return self.weight.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to a point (d,) or a batch (n, d)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.weight @ x + self.intercept
        return x @ self.weight.T + self.intercept


def optimal_weight(cov_x: np.ndarray, cov_xy: np.ndarray) -> np.ndarray:
    """Σ_X⁻¹ Σ_XY, of shape (d, l), from a Cholesky factor of Σ_X; a
    singular Σ_X raises SingularInputCovariance."""
    return chol_solve(cholesky_with_jitter(cov_x), cov_xy)


def explained_variance(cov_x: np.ndarray, cov_xy: np.ndarray) -> float:
    """Σ_YX Σ_X⁻¹ Σ_XY for a scalar output, cov_xy of shape (d, 1),
    clamped at 0 against round-off."""
    return max(float(cov_xy[:, 0] @ optimal_weight(cov_x, cov_xy)[:, 0]), 0.0)


def fit_optimal_affine(task: GaussianJointTask) -> AffineModel:
    """Population least-squares model of Y on X for a joint Gaussian task.

    weight = Σ_YX Σ_X⁻¹ and intercept = μ_Y − Σ_YX Σ_X⁻¹ μ_X, which
    minimize E‖Y − W X − b‖² under the task's law.
    """
    weight = optimal_weight(task.cov_x, task.cov_xy).T    # Σ_YX Σ_X⁻¹, shape (l, d)
    intercept = task.mean_y - weight @ task.mean_x
    return AffineModel(weight, intercept)


def pushforward_affine(model: AffineModel, input_mean, input_cov) -> GaussianDist:
    """Law of model(X) for X ~ N(input_mean, input_cov).

    Returns N(W μ + b, W Σ Wᵀ).  The result may be rank deficient (a
    wide weight matrix collapses directions); that is permitted here and
    only rejected later by divergences that require a density.
    """
    mean = _as_vector(input_mean, "input_mean")
    cov = validate_covariance(input_cov, "input_cov")
    if mean.shape[0] != model.dim_in or cov.shape[0] != model.dim_in:
        raise DimensionMismatch(
            f"model expects inputs of dim {model.dim_in}, got {mean.shape[0]}"
        )
    out_cov = model.weight @ cov @ model.weight.T
    return GaussianDist(model.weight @ mean + model.intercept, 0.5 * (out_cov + out_cov.T))


def compose_affine(outer: AffineModel, inner: AffineModel) -> AffineModel:
    """The map x ↦ outer(inner(x))."""
    if outer.dim_in != inner.dim_out:
        raise DimensionMismatch(
            f"outer expects dim {outer.dim_in}, inner produces {inner.dim_out}"
        )
    return AffineModel(outer.weight @ inner.weight,
                       outer.weight @ inner.intercept + outer.intercept)


class RiskSplit(NamedTuple):
    total: float
    variance_term: float
    bias_term: float


def kl_split(p: GaussianDist, q: GaussianDist) -> RiskSplit:
    """KL(p ‖ q) between Gaussians of the same dimension, split into a
    variance term ½[Tr(Σq⁻¹Σp) − log det(Σp)/det(Σq) − n], clamped at 0,
    and a bias term ½(μp−μq)ᵀ Σq⁻¹ (μp−μq).

    Both covariances go through ``numerically_singular``.  The reference
    q must pass it: a rank-deficient q (e.g. a degenerate pushforward)
    has no density, absolute continuity fails and SingularReference is
    raised.  A rank-deficient p against a valid reference is singular
    with respect to q: its variance term, and so the total, is +∞.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    if numerically_singular(q.cov):
        raise SingularReference("reference covariance is not positive definite")
    chol_q = np.linalg.cholesky(q.cov)
    trace_term = float(np.trace(chol_solve(chol_q, p.cov)))
    logdet_p = -math.inf if numerically_singular(p.cov) else np.linalg.slogdet(p.cov)[1]
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q))))
    variance = max(0.5 * (trace_term - (logdet_p - logdet_q) - p.dim), 0.0)
    diff = p.mean - q.mean
    bias = 0.5 * float(diff @ chol_solve(chol_q, diff))
    return RiskSplit(variance + bias, variance, bias)


def w2_split(p: GaussianDist, q: GaussianDist) -> RiskSplit:
    """Squared Wasserstein-2 (Bures) distance between Gaussians, split
    into a variance term Tr(Σp + Σq − 2 (Σp^½ Σq Σp^½)^½), clamped at 0,
    and a bias term ‖μp−μq‖².

    With F = V·√max(Λ, 0) from Σp = VΛVᵀ, Σp^½ Σq Σp^½ = V (FᵀΣqF) Vᵀ,
    so the cross trace is Σ√max(μᵢ, 0) over the eigenvalues μᵢ of
    FᵀΣqF.  Both clamps keep rank-deficient p and q, whose zero
    eigenvalues round to ±1e-16, real rather than NaN.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    vals, vecs = np.linalg.eigh(p.cov)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(factor.T @ q.cov @ factor), 0.0, None))
    variance = max(float(np.trace(p.cov) + np.trace(q.cov) - 2.0 * np.sum(cross)), 0.0)
    diff = p.mean - q.mean
    bias = float(diff @ diff)
    return RiskSplit(variance + bias, variance, bias)


def kl_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p ‖ q): the total of ``kl_split``, +∞ for a rank-deficient p."""
    return kl_split(p, q).total


def w2_gaussian_sq(p: GaussianDist, q: GaussianDist) -> float:
    """Squared W2 distance: the total of ``w2_split``."""
    return w2_split(p, q).total
