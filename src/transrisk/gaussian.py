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

Numerical policy: a ``GaussianDist`` validates its covariance by one
symmetric eigendecomposition Σ = VΛVᵀ and keeps it.  Its rank test
``singular`` (λ_min ≤ 1e-12·λ_max), Cholesky factor ``chol`` (None where
numpy's fails) and eigen factor ``root`` = V·√max(Λ, 0) come from the
law, and no other module decomposes a matrix.  A KL treats a law as
rank deficient by ``singular``, not when a Cholesky factor or a
log-determinant's sign happens to fail: laws singular by construction
reach about 1e-16 after round-off, which either test can miss.  No
matrix square root is formed: the Bures cross trace comes from the
clamped eigenvalues of FᵀΣqF, F the ``root`` of p.  ``optimal_weight``
and ``explained_variance`` alone compute Σ_X⁻¹Σ_XY and Σ_YX Σ_X⁻¹ Σ_XY;
they and the ridge solve use numpy's Cholesky with a single retry after
adding 1e-10·trace/n of diagonal jitter.  All of it is deterministic
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

SYMMETRY_TOL = 1e-10
PSD_REL_TOL = 1e-8
PD_MIN_EIG = 1e-10
CHOLESKY_JITTER = 1e-10
RANK_REL_TOL = 1e-12


def _require_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValidationError(f"non-finite entries in {name}")


def cholesky_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retried once with 1e-10·trace/n jitter.

    The jitter retry is the documented fallback for near-singular
    symmetric positive-definite solves; a second failure raises
    NumericalError.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        n = mat.shape[0]
        jitter = CHOLESKY_JITTER * float(np.trace(mat)) / max(n, 1)
        if jitter <= 0.0:
            raise NumericalError("matrix is not positive definite") from None
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            raise NumericalError(
                "matrix is not positive definite, even with jitter") from None


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given the lower Cholesky factor of A."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Set read-only arrays on a frozen dataclass instance."""
    for name, value in arrays.items():
        value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class GaussianDist:
    """A Gaussian law N(mean, cov); cov may be rank deficient.  Its one
    decomposition cov = VΛVᵀ is kept as ``eigvals`` (ascending) and
    ``eigvecs``."""

    mean: np.ndarray
    cov: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check finiteness, symmetry (within 1e-10) and PSD-ness; keep
        copies, cov exactly symmetrized, and its eigendecomposition."""
        mean = np.array(self.mean, dtype=float)  # a copy: the caller's stays writeable
        if mean.ndim != 1:
            raise ValidationError(f"mean must be 1-D, got shape {mean.shape}")
        _require_finite(mean, "mean")
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValidationError(f"cov must be square, got shape {cov.shape}")
        if cov.size == 0:
            raise ValidationError("cov is empty: a law needs at least one dimension")
        _require_finite(cov, "cov")
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"cov: max abs asymmetry {asym:.3e} > {SYMMETRY_TOL}")
        cov = 0.5 * (cov + cov.T)
        vals, vecs = np.linalg.eigh(cov)
        if vals[0] < -PSD_REL_TOL * max(vals[-1], 0.0):
            # worded from eigvalsh, as always: far from PSD, the round-off
            # in λ_max differs between the two LAPACK routines
            lo, hi = (float(v) for v in np.linalg.eigvalsh(cov)[[0, -1]])
            raise ValidationError(f"cov: min eigenvalue {lo:.3e} (max {hi:.3e})")
        if cov.shape[0] != mean.shape[0]:
            raise ValidationError(
                f"mean has dim {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        _freeze(self, mean=mean, cov=cov, eigvals=vals, eigvecs=vecs)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def singular(self) -> bool:
        """Rank below dim: λ_min ≤ 1e-12·λ_max (so too the zero matrix)."""
        return bool(self.eigvals[0] <= RANK_REL_TOL * self.eigvals[-1])

    @cached_property
    def chol(self) -> np.ndarray | None:
        """Lower Cholesky factor of cov, None where numpy's fails (no jitter)."""
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            return None

    @cached_property
    def root(self) -> np.ndarray:
        """F = V·√max(Λ, 0), with F Fᵀ = cov up to round-off, singular or not."""
        return self.eigvecs * np.sqrt(np.clip(self.eigvals, 0.0, None))


@dataclass(frozen=True)
class GaussianJointTask:
    """Joint Gaussian law of an (input, output) pair.

    The first ``dim_x`` coordinates are the input block, the remaining
    ``dim_y`` the output block.  The input block Σ_X must be strictly
    positive definite (smallest eigenvalue > 1e-10) so the optimal
    affine model is well defined; the full covariance only needs PSD.
    The validated joint law is kept as ``law``.
    """

    dim_x: int
    dim_y: int
    mean: np.ndarray
    cov: np.ndarray
    law: GaussianDist = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValidationError("dim_x and dim_y must be positive")
        law = GaussianDist(self.mean, self.cov)
        if law.dim != self.dim_x + self.dim_y:
            raise ValidationError(f"expected dimension {self.dim_x + self.dim_y}, got {law.dim}")
        min_eig = float(np.linalg.eigvalsh(law.cov[: self.dim_x, : self.dim_x])[0])
        if min_eig <= PD_MIN_EIG:
            raise ValidationError(
                f"input covariance block must be strictly PD; min eigenvalue {min_eig:.3e}"
            )
        for name, value in (("law", law), ("mean", law.mean), ("cov", law.cov)):
            object.__setattr__(self, name, value)

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
        w = np.array(self.weight, dtype=float)
        if w.ndim == 1:
            w = w.reshape(1, -1)
        if w.ndim != 2:
            raise ValidationError(f"weight must be a matrix, got shape {w.shape}")
        b = np.atleast_1d(np.array(self.intercept, dtype=float))
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValidationError(
                f"intercept of length {b.shape} does not match weight {w.shape}"
            )
        _freeze(self, weight=w, intercept=b)

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
    singular Σ_X raises NumericalError."""
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


def pushforward_affine(model: AffineModel, law: GaussianDist) -> GaussianDist:
    """Law of model(X) for X ~ ``law``, already validated.

    Returns N(W μ + b, W Σ Wᵀ).  The result may be rank deficient (a
    wide weight matrix collapses directions); that is permitted here and
    only rejected later by divergences that require a density.
    """
    if law.dim != model.dim_in:
        raise ValidationError(f"model expects inputs of dim {model.dim_in}, got {law.dim}")
    out_cov = model.weight @ law.cov @ model.weight.T
    return GaussianDist(model.weight @ law.mean + model.intercept, 0.5 * (out_cov + out_cov.T))


def compose_affine(outer: AffineModel, inner: AffineModel) -> AffineModel:
    """The map x ↦ outer(inner(x))."""
    if outer.dim_in != inner.dim_out:
        raise ValidationError(
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

    Both laws go through their rank test ``singular``.  The reference q
    must pass it and have a Cholesky factor: a rank-deficient q (e.g. a
    degenerate pushforward) has no density, absolute continuity fails
    and NumericalError is raised.  A rank-deficient p against a valid
    reference is singular with respect to q: its variance term, and so
    the total, is +∞.  log det Σp comes from ``slogdet``, whose last bits
    the reports have always carried, not from the sum of p's log
    eigenvalues.
    """
    if p.dim != q.dim:
        raise ValidationError(f"dimension mismatch: {p.dim} vs {q.dim}")
    chol_q = q.chol
    if q.singular or chol_q is None:
        raise NumericalError("reference covariance is not positive definite")
    trace_term = float(np.trace(chol_solve(chol_q, p.cov)))
    logdet_p = -math.inf if p.singular else np.linalg.slogdet(p.cov)[1]
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q))))
    variance = max(0.5 * (trace_term - (logdet_p - logdet_q) - p.dim), 0.0)
    diff = p.mean - q.mean
    bias = 0.5 * float(diff @ chol_solve(chol_q, diff))
    return RiskSplit(variance + bias, variance, bias)


def w2_split(p: GaussianDist, q: GaussianDist) -> RiskSplit:
    """Squared Wasserstein-2 (Bures) distance between Gaussians, split
    into a variance term Tr(Σp + Σq − 2 (Σp^½ Σq Σp^½)^½), clamped at 0,
    and a bias term ‖μp−μq‖².

    With F = V·√max(Λ, 0) from Σp = VΛVᵀ (``p.root``),
    Σp^½ Σq Σp^½ = V (FᵀΣqF) Vᵀ,
    so the cross trace is Σ√max(μᵢ, 0) over the eigenvalues μᵢ of
    FᵀΣqF.  Both clamps keep rank-deficient p and q, whose zero
    eigenvalues round to ±1e-16, real rather than NaN.
    """
    if p.dim != q.dim:
        raise ValidationError(f"dimension mismatch: {p.dim} vs {q.dim}")
    factor = p.root
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
