"""Sharpe-ratio portfolio optimization on the simplex, with transfer.

The source task maximizes μ'φ / √(φ'Σφ) over the unit simplex; the
transfer task maximizes the same objective minus a quadratic pull
penalty·‖φ − anchor‖² toward a pretrained portfolio.

Solver policy.  Each market is the moment-matched Gaussian law that
``estimate_moments`` returns: validated once, with its eigen and
Cholesky factors kept by the law, so this module decomposes no matrix
itself and judges PSD-ness by the law's one threshold.  Unanchored with
the law's Cholesky factor Σ = LL': exact, as y ≥ 0 minimizing
½y'Σy − μ'y solves the NNLS problem ‖L'y − L⁻¹μ‖, and φ = y / Σy is the
long-only tangency portfolio, or the best vertex when y = 0 (no positive
mean).  y = Σ⁻¹μ when that is nonnegative; otherwise Lawson–Hanson's
active set method (Solving Least Squares Problems, 1974) finds y, each
passive-set subproblem a least-squares solve on columns of L' (never
the normal equations, which a Σ that is singular up to rounding would
break).  Anchored, a law without a Cholesky factor, or an active set
still cycling after 3d passes: monotone spectral projected gradient
(SPG) ascent (Birgin, Martínez & Raydan, SIAM J. Optim. 2000) from the
uniform portfolio, every vertex and the anchor at once, one row each,
keeping the best.  Each row has its own Barzilai–Borwein step in
[1e-10, 1e6] and Armijo backtracking on increases measured from the
step, and stops, keeping its iterate, once ‖P(w + 1e-2∇f) − w‖ / 1e-2
≤ 1e-8, when no λ ≥ 2⁻⁵³ increases f, or after 1e5 iterations.  Steps never decrease the objective, so the
result scores at least the anchor and the uniform.  When every row
stops at the iteration cap, the solve raises instead of returning an
ascent that never settled.

Sharpe convention: standard deviation in the denominator.  (Dividing by
the variance instead changes the argmax off rays; the square-root form
is the one actually optimized and reported.)  Annualization is the
caller's business; nothing here assumes a data frequency.

The prescreen distance between two return datasets is the squared
Wasserstein-2 distance between their moment-matched Gaussian laws,
taken through the source law's kept eigen factor: cheap to compute
before any optimization, and correlated (negatively) with the
out-of-sample Sharpe a transferred portfolio achieves.
``transfer_portfolio`` runs the whole pipeline (pretrain, direct,
anchored, score, prescreen) for the CLI's portfolio job and for the
synthetic portfolio study alike.

Every solver here is numpy; no command loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import GaussianDist, w2_gaussian_sq

VARIANCE_FLOOR = 1e-14  # times λ_max: a variance at or below it counts as zero
STEP = 1e-2  # step of the stationarity test ‖P(w + STEP·∇f) − w‖ / STEP
GRAD_TOL = 1e-8
MAX_ITER = 100_000
BB_MIN, BB_MAX = 1e-10, 1e6  # Barzilai–Borwein step clamp; 1/BB_MIN > 2·MAX_PENALTY
ARMIJO = 1e-4
CAPPED, CONVERGED, NO_INCREASE = range(3)  # a row's stop: MAX_ITER, GRAD_TOL, or λ < 2⁻⁵³
DEFAULT_PENALTY = 0.2  # a portfolio job's pull penalty when it states none
MAX_PENALTY = 100.0  # the stationarity reached grows as √penalty; at 1e3 a solve missed 1e-7
UNBOUNDED = ("a feasible zero-variance portfolio with positive mean exists; "
             "the Sharpe objective is unbounded")


@dataclass(frozen=True)
class ReturnsDataset:
    """Per-period asset returns, one row per period, one column per asset."""

    returns: np.ndarray

    def __post_init__(self):
        r = np.array(self.returns, dtype=float)  # a copy, frozen below
        if r.ndim != 2:
            raise ValidationError(f"returns must be 2-D, got shape {r.shape}")
        if r.shape[0] < 2:
            raise ValidationError("need at least two return periods")
        if r.shape[1] < 2:
            raise ValidationError("need at least two assets")
        if not np.all(np.isfinite(r)):
            raise ValidationError("returns contain non-finite entries")
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)

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
            raise ValidationError(f"weights must be a vector, got shape {w.shape}")
        if not float(w.min()) >= -1e-12:  # NaN fails here too
            raise ValidationError(f"weights must be nonnegative, min is {w.min():.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()  # a new array: the caller's stays writeable
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_assets(self) -> int:
        return self.weights.shape[0]


def estimate_moments(data: ReturnsDataset) -> GaussianDist:
    """The moment-matched Gaussian law: sample mean and unbiased sample
    covariance, symmetrized and, if the law's spectrum has a negative
    eigenvalue, clamped at zero into a new law, so downstream code sees
    an exact PSD.  Returns so large that a moment overflows are a
    ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = data.returns.mean(axis=0)
        sigma = np.cov(data.returns, rowvar=False, ddof=1)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValidationError("non-finite sample moments: the returns are too large")
    law = GaussianDist(mu, 0.5 * (sigma + sigma.T))
    if law.eigvals[0] < 0.0:
        sigma = (law.eigvecs * np.clip(law.eigvals, 0.0, None)) @ law.eigvecs.T
        law = GaussianDist(mu, 0.5 * (sigma + sigma.T))
    return law


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector, or of each row of a matrix, onto
    the unit simplex: max(v − θ, 0), where θ = (u_1 + … + u_i − 1)/i at
    the last i with u_i > θ, for u sorted in decreasing order.  A row's
    bits do not depend on the rows projected with it."""
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    u = -np.sort(-rows, axis=1)
    t = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, u.shape[1] + 1)
    last = u.shape[1] - 1 - np.argmax((u > t)[:, ::-1], axis=1)
    return np.maximum(rows - t[np.arange(len(t)), last, None], 0.0).reshape(v.shape)


def _floor(law: GaussianDist) -> float:
    """The variance at or below which a portfolio counts as riskless:
    VARIANCE_FLOOR times the law's largest eigenvalue, so that rescaling
    the returns rescales the test with them."""
    return VARIANCE_FLOOR * float(law.eigvals[-1])


def sharpe_ratio(portfolio: Portfolio, law: GaussianDist) -> float:
    """μ'φ / √(φ'Σφ) under ``law``; raises if the portfolio variance is
    (near) zero."""
    w = portfolio.weights
    var = float(w @ law.cov @ w)
    if var <= _floor(law):
        raise NumericalError(f"portfolio variance {var:.3e} below floor")
    return float(law.mean @ w) / math.sqrt(var)


class _Objective(NamedTuple):
    """Sharpe ratio with optional anchoring penalty, and its gradient, of
    a portfolio or of each row of a stack; row-wise ``matvec``, ``vecmat``
    and ``vecdot`` give each row the bits it would have alone.  A variance
    at or below ``floor`` counts as zero."""

    mu: np.ndarray
    sigma: np.ndarray
    anchor: np.ndarray | None
    penalty: float
    floor: float

    def value(self, w: np.ndarray):
        return self.value_and_gradient(w)[0]

    def value_and_gradient(self, w: np.ndarray):
        """One fused evaluation; −∞ and a zero gradient at zero variance."""
        sig_w = np.matvec(self.sigma, w)
        var, mean = np.vecdot(w, sig_w), np.vecdot(w, self.mu)
        if ((flat := var <= self.floor) & (mean > 0.0)).any():
            raise NumericalError(UNBOUNDED)
        sd = np.sqrt(var := np.where(flat, 1.0, var))  # flat rows score −∞ below
        value = mean / sd
        grad = self.mu / sd[..., None] - (mean / (sd * var))[..., None] * sig_w
        if self.anchor is not None:
            diff = w - self.anchor
            value = value - self.penalty * np.vecdot(diff, diff)
            grad = grad - (2.0 * self.penalty) * diff
        return np.where(flat, -np.inf, value), np.where(flat[..., None], 0.0, grad)

    def gain(self, w: np.ndarray, new: np.ndarray, live: np.ndarray) -> np.ndarray:
        """f(new) − f(w) per row from the step, free of the rounding of
        f(w); −∞ where ``new`` has zero variance (raising in a ``live``
        row whose mean is positive there)."""
        new_var = np.vecdot(np.vecmat(new, self.sigma), new)
        if ((flat := new_var <= self.floor) & live & (np.vecdot(new, self.mu) > 0.0)).any():
            raise NumericalError(UNBOUNDED)
        step = new - w
        step -= step.sum(axis=-1, keepdims=True) / step.shape[-1]  # off the plane by rounding only
        sig_w = np.matvec(self.sigma, w)
        sd, new_sd = np.sqrt(np.vecdot(w, sig_w)), np.sqrt(new_var)
        d_sd = np.vecdot(step, 2.0 * sig_w + np.matvec(self.sigma, step)) / (sd + new_sd)
        gain = (np.vecdot(step, self.mu) * sd - np.vecdot(w, self.mu) * d_sd) / (sd * new_sd)
        if self.anchor is not None:
            gain -= self.penalty * np.vecdot(step, 2.0 * (w - self.anchor) + step)
        return np.where(flat, -np.inf, gain)


@np.errstate(divide="ignore", invalid="ignore")  # in rows that have stopped
def _spg(obj: _Objective, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone spectral projected gradient ascent from each feasible row
    of ``starts`` at once.  Each row keeps its own BB step, Armijo
    backtracking and stop; a row that has stopped keeps its iterate.
    Returns the endpoints and each row's stop code."""
    w, rows = starts, len(starts)
    grad = obj.value_and_gradient(w)[1]
    alpha = np.full(rows, STEP)
    stop = np.full(rows, CAPPED)
    for _ in range(MAX_ITER):
        ends = project_simplex(np.concatenate([w + STEP * grad, w + alpha[:, None] * grad]))
        moved = ends[:rows] - w
        stop[(stop == CAPPED) & (np.sqrt(np.vecdot(moved, moved)) / STEP <= GRAD_TOL)] = CONVERGED
        if not (running := stop == CAPPED).any():
            break
        direction = ends[rows:] - w
        slope = ARMIJO * np.vecdot(grad, direction)
        new, lam = w, 1.0
        while running.any() and lam >= 2.0 ** -53:
            candidate = w + lam * direction
            candidate /= candidate.sum(axis=1, keepdims=True)  # no drift off the simplex
            gain = obj.gain(w, candidate, running)
            accept = running & (gain > 0.0) & (gain >= lam * slope)
            new = np.where(accept[:, None], candidate, new)
            running &= ~accept
            lam *= 0.5
        stop[running] = NO_INCREASE
        new_grad = obj.value_and_gradient(new)[1]
        step = new - w
        curvature = np.vecdot(step, grad - new_grad)
        alpha = np.clip(np.where(curvature > 0.0, np.vecdot(step, step) / curvature, BB_MAX),
                        BB_MIN, BB_MAX)
        w, grad = new, new_grad
    return w, stop


def _nnls(a: np.ndarray, b: np.ndarray, max_iter: int) -> np.ndarray | None:
    """Lawson–Hanson: y ≥ 0 minimizing ‖ay − b‖, or None when the active
    set has not settled after ``max_iter`` passes (rounding can cycle it)."""
    d = a.shape[1]
    tol = 10 * d * np.finfo(float).eps * np.abs(a.T @ b).max()  # scipy's 10·d·ε, relative
    y, passive = np.zeros(d), np.zeros(d, dtype=bool)
    for _ in range(max_iter):
        dual = a.T @ (b - a @ y)
        if passive.all() or dual[~passive].max() <= tol:
            return y
        passive[np.argmax(np.where(passive, -np.inf, dual))] = True
        while True:
            z = np.zeros(d)
            z[passive] = np.linalg.lstsq(a[:, passive], b)[0]
            if (z[passive] > 0.0).all():
                break
            # step from y toward z until the first passive weight hits zero
            blocking = passive & (z <= 0.0)
            ratio = np.divide(y, y - z, out=np.zeros(d), where=blocking & (y > 0.0))
            k = np.flatnonzero(blocking)[np.argmin(ratio[blocking])]
            y += ratio[k] * (z - y)
            y[k] = 0.0
            passive &= y > 0.0
        y = z
    return None


def _tangency(law: GaussianDist) -> np.ndarray | None:
    """Exact unanchored optimum for the law's Σ = LL' (see the module
    docstring), or None when the active set cycles."""
    mu, sigma, chol, floor = law.mean, law.cov, law.chol, _floor(law)
    b = np.linalg.solve(chol, mu)
    y = np.linalg.solve(chol.T, b)
    if y.min() < 0.0 and (y := _nnls(chol.T, b, 3 * mu.shape[0])) is None:
        return None
    if y.sum() > 0.0:
        w = y / y.sum()
    else:  # no positive mean: the Sharpe ratio is quasi-convex, a vertex wins
        sd = np.sqrt(np.diag(sigma))
        ratios = np.where(sd > math.sqrt(floor), mu / sd, -math.inf)
        w = np.eye(mu.shape[0])[int(np.argmax(ratios))]
    if float(w @ sigma @ w) <= floor:  # Σ factored, though singular up to rounding
        raise NumericalError(UNBOUNDED if float(mu @ w) > 0.0
                             else "the maximum-Sharpe portfolio has zero variance")
    return w


def sharpe_optimize(law: GaussianDist, anchor: Portfolio | None = None,
                    penalty: float = 0.0) -> Portfolio:
    """Maximize the (optionally anchored) Sharpe objective of the market
    ``law`` (means μ, covariance Σ) on the simplex.

    Exact tangency portfolio without an anchor, one SPG pass over the
    d + 2 starts otherwise or if the NNLS cycles (module docstring).
    The result is feasible and scores at least the anchor and the
    uniform portfolio.  Its projected gradient is below
    1e-7·max(1, ‖μ‖/σ_φ), σ_φ = √(φ'Σφ), since the rounding the ascent
    stops at grows with ‖μ‖/σ_φ: over 500 random anchored solves at each
    mean scale 1 to 1000 the worst was 9e-9.
    A penalty outside [0, MAX_PENALTY] is a ValidationError; an ascent
    whose every start stops at MAX_ITER is a NumericalError.
    """
    mu, sigma, d, floor = law.mean, law.cov, law.dim, _floor(law)
    if not 0.0 <= penalty <= MAX_PENALTY:
        raise ValidationError(f"penalty must lie in [0, {MAX_PENALTY:g}], got {penalty}")
    if anchor is not None and anchor.n_assets != d:
        raise ValidationError("anchor dimension does not match mu")

    # a zero-variance vertex with positive mean makes the ratio unbounded
    if np.any((np.diag(sigma) <= floor) & (mu > 0.0)):
        raise NumericalError(
            "an asset with zero variance and positive mean makes the Sharpe "
            "objective unbounded")

    if anchor is None and law.chol is not None and (w := _tangency(law)) is not None:
        return Portfolio(w)

    obj = _Objective(mu, sigma, None if anchor is None else anchor.weights, penalty, floor)
    starts = [np.full(d, 1.0 / d), *np.eye(d)] + ([] if anchor is None else [anchor.weights])
    ends, stops = _spg(obj, np.array(starts))
    if (stops == CAPPED).all():
        raise NumericalError(f"the Sharpe ascent stopped at MAX_ITER = {MAX_ITER} "
                             "iterations from every start")
    best_w = max(ends, key=obj.value)
    if not math.isfinite(obj.value(best_w)):
        raise NumericalError("no feasible portfolio with positive variance found")
    return Portfolio(best_w)


def prescreen_risk_w2(source: ReturnsDataset, target: ReturnsDataset) -> float:
    """Squared W2 between moment-matched Gaussians of the two datasets.

    Symmetric, zero exactly on matching moments; report writers expose
    the square root alongside.  Computable from returns alone, before
    any portfolio is fitted.
    """
    _check_assets(source, target)
    return w2_gaussian_sq(estimate_moments(source), estimate_moments(target))


class PortfolioTransfer(NamedTuple):
    pretrained: Portfolio
    direct: Portfolio
    transferred: Portfolio
    sharpe: dict[str, float]
    prescreen_risk_sq: float


def transfer_portfolio(source: ReturnsDataset, train: ReturnsDataset,
                       test: ReturnsDataset, penalty: float) -> PortfolioTransfer:
    """Pretrain on ``source``, then fit ``train`` directly and anchored to
    the pretrained portfolio with pull ``penalty``.

    Both fits are scored in sample (on ``train``) and out of sample (on
    ``test``); the prescreen risk is ``prescreen_risk_w2(source, test)``.
    Each history's law is estimated, and decomposed, once.
    """
    _check_assets(source, train, test)
    law_s, law_in, law_out = map(estimate_moments, (source, train, test))
    pretrained = sharpe_optimize(law_s)
    direct = sharpe_optimize(law_in)
    transferred = sharpe_optimize(law_in, anchor=pretrained, penalty=penalty)
    risk_sq = w2_gaussian_sq(law_s, law_out)
    sharpe = {
        "direct_in_sample": sharpe_ratio(direct, law_in),
        "direct_out_of_sample": sharpe_ratio(direct, law_out),
        "transferred_in_sample": sharpe_ratio(transferred, law_in),
        "transferred_out_of_sample": sharpe_ratio(transferred, law_out),
    }
    return PortfolioTransfer(pretrained, direct, transferred, sharpe, risk_sq)


def _check_assets(*datasets: ReturnsDataset) -> None:
    counts = [data.n_assets for data in datasets]
    if len(set(counts)) != 1:
        raise ValidationError(f"asset counts differ: {' vs '.join(map(str, counts))}")
