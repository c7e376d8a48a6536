"""Sharpe-ratio portfolio optimization on the simplex, with transfer.

The source task maximizes μ'φ / √(φ'Σφ) over the unit simplex; the
transfer task maximizes the same objective minus a quadratic pull
penalty·‖φ − anchor‖² toward a pretrained portfolio.

Solver policy.  Unanchored with a positive definite Σ = LL': exact, as
y ≥ 0 minimizing ½y'Σy − μ'y solves the NNLS problem ‖L'y − L⁻¹μ‖
(Lawson–Hanson) and φ = y / Σy is the long-only tangency portfolio, or
the best vertex when y = 0 (no positive mean).  Anchored, or Σ without
a Cholesky factor: monotone spectral projected gradient ascent (Birgin,
Martínez & Raydan, SIAM J. Optim. 2000), Barzilai–Borwein steps clamped
to [1e-10, 1e6], Armijo backtracking on increases measured from the step
(not as rounded differences of values), until ‖P(w + 1e-2∇f) − w‖ / 1e-2
is below 1e-8 or after 1e5 iterations, from the uniform portfolio, every
vertex and the anchor, keeping the best.  Steps never decrease the
objective, so the result scores at least the anchor and the uniform.

Sharpe convention: standard deviation in the denominator.  (Dividing by
the variance instead changes the argmax off rays; the square-root form
is the one actually optimized and reported.)  Annualization is the
caller's business; nothing here assumes a data frequency.

The prescreen distance between two return datasets is the squared
Wasserstein-2 distance between their moment-matched Gaussian
approximations: cheap to compute before any optimization, and
correlated (negatively) with the out-of-sample Sharpe a transferred
portfolio achieves.

Only NNLS comes from scipy, imported by the unanchored solve that uses
it, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    DimensionMismatch,
    InsufficientHistory,
    NonPSDSigma,
    ValidationError,
    ZeroVariancePortfolio,
)
from .gaussian import GaussianDist, w2_gaussian_sq

VARIANCE_FLOOR = 1e-14
STEP = 1e-2  # step of the stationarity test ‖P(w + STEP·∇f) − w‖ / STEP
GRAD_TOL = 1e-8
MAX_ITER = 100_000
BB_MIN, BB_MAX = 1e-10, 1e6  # Barzilai–Borwein step clamp; 1/BB_MIN > 2·penalty up to 5e9
ARMIJO = 1e-4
DEFAULT_PENALTY = 0.2  # a portfolio job's pull penalty when it states none


@dataclass(frozen=True)
class ReturnsDataset:
    """Per-period asset returns, one row per period, one column per asset."""

    returns: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2:
            raise DimensionMismatch(f"returns must be 2-D, got shape {r.shape}")
        if r.shape[0] < 2:
            raise InsufficientHistory("need at least two return periods")
        if r.shape[1] < 2:
            raise ValidationError("need at least two assets")
        if not np.all(np.isfinite(r)):
            raise ValidationError("returns contain non-finite entries")
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)

    @property
    def n_periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class Portfolio:
    """Weights on the unit simplex: nonnegative, summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise DimensionMismatch(f"weights must be a vector, got shape {w.shape}")
        if float(w.min()) < -1e-12:
            raise ValidationError(f"weights must be nonnegative, min is {w.min():.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_assets(self) -> int:
        return self.weights.shape[0]


def estimate_moments(data: ReturnsDataset) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance, symmetrized and
    eigenvalue-clamped at zero so downstream code sees an exact PSD."""
    mu = data.returns.mean(axis=0)
    sigma = np.cov(data.returns, rowvar=False, ddof=1)
    sigma = 0.5 * (sigma + sigma.T)
    vals, vecs = np.linalg.eigh(sigma)
    if vals[0] < 0.0:
        sigma = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        sigma = 0.5 * (sigma + sigma.T)
    return mu, sigma


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sorted-threshold rule).

    The scan runs in plain Python, which beats numpy's dispatch overhead
    on a handful of assets."""
    v = np.asarray(v, dtype=float)
    css = 0.0
    theta = 0.0
    for i, ui in enumerate(sorted(v.tolist(), reverse=True), start=1):
        css += ui
        t = (css - 1.0) / i
        if ui - t > 0.0:
            theta = t
    return np.maximum(v - theta, 0.0)


def sharpe_ratio(portfolio: Portfolio, mu: np.ndarray, sigma: np.ndarray) -> float:
    """μ'φ / √(φ'Σφ); raises if the portfolio variance is (near) zero."""
    w = portfolio.weights
    var = float(w @ sigma @ w)
    if var <= VARIANCE_FLOOR:
        raise ZeroVariancePortfolio(f"portfolio variance {var:.3e} below floor")
    return float(mu @ w) / math.sqrt(var)


def _validate_sigma(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"sigma must be square, got {sigma.shape}")
    sigma = 0.5 * (sigma + sigma.T)
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] < -1e-8 * max(float(eigs[-1]), 1.0):
        raise NonPSDSigma(f"sigma has eigenvalue {eigs[0]:.3e}")
    return sigma


class _Objective:
    """Sharpe ratio with optional anchoring penalty, and its gradient."""

    def __init__(self, mu, sigma, anchor, penalty):
        self.mu = mu
        self.sigma = sigma
        self.anchor = anchor
        self.penalty = penalty

    def value(self, w: np.ndarray) -> float:
        return self.value_and_gradient(w)[0]

    def value_and_gradient(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """One fused evaluation; the hot path of the ascent loop."""
        sig_w = self.sigma @ w
        var = float(w @ sig_w)
        mean = float(self.mu @ w)
        if var <= VARIANCE_FLOOR:
            if mean > 0.0:
                raise DegenerateVariance(
                    "a feasible zero-variance portfolio with positive mean exists; "
                    "the Sharpe objective is unbounded")
            return -math.inf, np.zeros_like(w)
        sd = math.sqrt(var)
        value = mean / sd
        grad = self.mu / sd - (mean / (sd * var)) * sig_w
        if self.anchor is not None:
            diff = w - self.anchor
            value -= self.penalty * float(diff @ diff)
            grad -= (2.0 * self.penalty) * diff
        return value, grad

    def gain(self, w: np.ndarray, new: np.ndarray) -> float:
        """f(new) − f(w) from the step, free of the rounding of f(w)."""
        new_var = float(new @ self.sigma @ new)
        if new_var <= VARIANCE_FLOOR:
            return self.value(new)
        step = new - w
        step -= step.mean()  # off the simplex's plane only by rounding; ignore that part
        sig_w = self.sigma @ w
        sd, new_sd = math.sqrt(float(w @ sig_w)), math.sqrt(new_var)
        d_sd = float(step @ (2.0 * sig_w + self.sigma @ step)) / (sd + new_sd)
        gain = (float(self.mu @ step) * sd - float(self.mu @ w) * d_sd) / (sd * new_sd)
        if self.anchor is not None:
            gain -= self.penalty * float(step @ (2.0 * (w - self.anchor) + step))
        return gain


def _spg(obj: _Objective, w: np.ndarray) -> np.ndarray:
    """Monotone spectral projected gradient ascent from a feasible w."""
    grad = obj.value_and_gradient(w)[1]
    alpha = STEP
    for _ in range(MAX_ITER):
        moved = project_simplex(w + STEP * grad) - w
        if math.sqrt(float(moved @ moved)) / STEP <= GRAD_TOL:
            break
        direction = project_simplex(w + alpha * grad) - w
        slope = ARMIJO * float(grad @ direction)
        for lam in (0.5 ** k for k in range(54)):
            candidate = w + lam * direction
            candidate /= candidate.sum()  # rounding must not drift off the simplex
            gain = obj.gain(w, candidate)
            if gain > 0.0 and gain >= lam * slope:
                break
        else:
            return w  # no increase along the direction, down to λ = 2⁻⁵³
        step = candidate - w
        new_grad = obj.value_and_gradient(candidate)[1]
        curvature = float(step @ (grad - new_grad))
        ratio = float(step @ step) / curvature if curvature > 0.0 else BB_MAX
        alpha = min(max(ratio, BB_MIN), BB_MAX)
        w, grad = candidate, new_grad
    return w


def _tangency(mu: np.ndarray, sigma: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Exact unanchored optimum for Σ = LL' by NNLS (see the module docstring)."""
    from scipy.optimize import nnls

    y = nnls(chol.T, np.linalg.solve(chol, mu))[0]
    if y.sum() > 0.0:
        w = y / y.sum()
    else:  # no positive mean: the Sharpe ratio is quasi-convex, a vertex wins
        sd = np.sqrt(np.diag(sigma))
        ratios = np.where(sd > math.sqrt(VARIANCE_FLOOR), mu / sd, -math.inf)
        w = np.eye(mu.shape[0])[int(np.argmax(ratios))]
    if float(w @ sigma @ w) <= VARIANCE_FLOOR:
        raise DegenerateVariance("the maximum-Sharpe portfolio has zero variance")
    return w


def sharpe_optimize(mu: np.ndarray, sigma: np.ndarray,
                    anchor: Portfolio | None = None,
                    penalty: float = 0.0) -> Portfolio:
    """Maximize the (optionally anchored) Sharpe objective on the simplex.

    Exact NNLS tangency portfolio without an anchor, multi-start spectral
    projected gradient otherwise (module docstring).  The result is
    feasible and scores at least the anchor and the uniform portfolio.
    On markets with Sharpe ratios of order one it also satisfies
    first-order stationarity (projected gradient below 1e-7): of random
    anchored solves, none of about 2,900 with means scaled by up to 3
    missed it, but 5 of about 1,300 with means scaled by 10 did, since
    the gate is absolute and the gradient grows with the ratio.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = _validate_sigma(sigma)
    d = mu.shape[0]
    if sigma.shape[0] != d:
        raise DimensionMismatch(f"mu has {d} assets but sigma is {sigma.shape}")
    if penalty < 0.0:
        raise ValidationError(f"penalty must be nonnegative, got {penalty}")
    if anchor is not None and anchor.n_assets != d:
        raise DimensionMismatch("anchor dimension does not match mu")

    # a zero-variance vertex with positive mean makes the ratio unbounded
    diag = np.diag(sigma)
    if np.any((diag <= VARIANCE_FLOOR) & (mu > 0.0)):
        raise DegenerateVariance(
            "an asset with zero variance and positive mean makes the Sharpe "
            "objective unbounded")

    if anchor is None:
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            pass  # singular Σ: the iterative routine below
        else:
            return Portfolio(_tangency(mu, sigma, chol))

    obj = _Objective(mu, sigma, None if anchor is None else anchor.weights, penalty)
    starts = [np.full(d, 1.0 / d), *np.eye(d)]
    if anchor is not None:
        starts.append(anchor.weights)
    best_w = max((_spg(obj, start) for start in starts), key=obj.value)
    if not math.isfinite(obj.value(best_w)):
        raise DegenerateVariance("no feasible portfolio with positive variance found")
    return Portfolio(best_w)


def prescreen_risk_w2(source: ReturnsDataset, target: ReturnsDataset) -> float:
    """Squared W2 between moment-matched Gaussians of the two datasets.

    Symmetric, zero exactly on matching moments; report writers expose
    the square root alongside.  Computable from returns alone, before
    any portfolio is fitted.
    """
    if source.n_assets != target.n_assets:
        raise DimensionMismatch(
            f"asset counts differ: {source.n_assets} vs {target.n_assets}")
    mu_s, sigma_s = estimate_moments(source)
    mu_t, sigma_t = estimate_moments(target)
    return w2_gaussian_sq(GaussianDist(mu_s, sigma_s), GaussianDist(mu_t, sigma_t))
