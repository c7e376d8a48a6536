"""Independent numpy computations that the checks compare the program to.

Nothing here calls ``transrisk``.  Where the program factorizes, this
module solves with ``np.linalg.solve``; where the program takes matrix
square roots through ``eigh``, the Bures term here takes the square
roots of the eigenvalues of L₁ᵀ Σ₂ L₁ (L₁ the Cholesky factor of Σ₁),
which are the eigenvalues of Σ₁Σ₂; the signature uses its own batched
Chen recursion; the long-only Sharpe optimum comes from an exact
active-set enumeration of the convex QP.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np


# --- Gaussian divergences -----------------------------------------------------

def bures_trace(c1: np.ndarray, c2: np.ndarray) -> float:
    """Tr(Σ₁ + Σ₂ − 2(Σ₁^{1/2} Σ₂ Σ₁^{1/2})^{1/2}), clamped at 0."""
    try:
        root = np.linalg.cholesky(c1)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(c1)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    eig = np.linalg.eigvalsh(root.T @ c2 @ root)
    cross = float(np.sum(np.sqrt(np.clip(eig, 0.0, None))))
    return max(float(np.trace(c1) + np.trace(c2)) - 2.0 * cross, 0.0)


def w2_sq(m1, c1, m2, c2) -> float:
    diff = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    return float(diff @ diff) + bures_trace(np.asarray(c1, dtype=float),
                                            np.asarray(c2, dtype=float))


class Split(NamedTuple):
    total: float
    variance_term: float
    bias_term: float


def kl_split(m1, c1, m2, c2) -> Split:
    """KL(N(m1, c1) ‖ N(m2, c2)), split into covariance and mean parts."""
    n = c1.shape[0]
    trace = float(np.trace(np.linalg.solve(c2, c1)))
    _, logdet1 = np.linalg.slogdet(c1)
    _, logdet2 = np.linalg.slogdet(c2)
    diff = m1 - m2
    variance = max(0.5 * (trace - logdet1 + logdet2 - n), 0.0)
    bias = 0.5 * float(diff @ np.linalg.solve(c2, diff))
    return Split(variance + bias, variance, bias)


def w2_split(m1, c1, m2, c2) -> Split:
    diff = m1 - m2
    variance = bures_trace(c1, c2)
    bias = float(diff @ diff)
    return Split(variance + bias, variance, bias)


def convex_rate(x: float) -> float:
    u = x - 1.0
    return 0.5 * (u - math.log1p(u))


# --- basic, feature-augmented and output-augmented pairs ------------------------

def _blocks(mean, cov, dim_x):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return mean[:dim_x], mean[dim_x:], cov[:dim_x, :dim_x], cov[:dim_x, dim_x:]


class BasicReference(NamedTuple):
    input_w2: float
    kl: Split
    w: Split
    regret: float


def basic_pair(src_mean, src_cov, tgt_mean, tgt_cov, dim_x: int) -> BasicReference:
    """Every closed form of the basic case, from the definitions."""
    mx_s, my_s, sx_s, sxy_s = _blocks(src_mean, src_cov, dim_x)
    mx_t, my_t, sx_t, sxy_t = _blocks(tgt_mean, tgt_cov, dim_x)
    w_s = np.linalg.solve(sx_s, sxy_s[:, 0])
    w_t = np.linalg.solve(sx_t, sxy_t[:, 0])
    num = float(sxy_t[:, 0] @ w_t)
    den = float(w_s @ sx_t @ w_s)
    gap = float(my_t[0] - my_s[0] - w_s @ (mx_t - mx_s))
    kl_var = convex_rate(num / den)
    kl_bias = gap * gap / (2.0 * den)
    w_var = (math.sqrt(den) - math.sqrt(num)) ** 2
    diff = w_t - w_s
    regret = float(diff @ sx_t @ diff) + gap * gap
    return BasicReference(
        w2_sq(mx_s, sx_s, mx_t, sx_t),
        Split(kl_var + kl_bias, kl_var, kl_bias),
        Split(w_var + gap * gap, w_var, gap * gap),
        regret)


def _explained(sx, sxy) -> float:
    return float(sxy[:, 0] @ np.linalg.solve(sx, sxy[:, 0]))


def feature_aug(spec: dict) -> dict[str, Split]:
    src, tgt = spec["source"], spec["target"]
    _, _, sx_s, sxy_s = _blocks(src["mean"], src["cov"], src["dim_x"])
    _, _, sx_t, sxy_t = _blocks(tgt["mean"], tgt["cov"], tgt["dim_x"])
    num, den = _explained(sx_t, sxy_t), _explained(sx_s, sxy_s)
    kl = convex_rate(num / den)
    w = (math.sqrt(num) - math.sqrt(den)) ** 2
    return {"kl": Split(kl, kl, 0.0), "w": Split(w, w, 0.0)}


def output_aug_laws(spec: dict):
    """(target law, intermediate law) as (mean, cov) pairs."""
    src, tgt = spec["source"], spec["target"]
    d = tgt["dim_x"]
    mx, my, sx, sxy = _blocks(tgt["mean"], tgt["cov"], d)
    mx_s, my_s, sx_s, sxy_s = _blocks(src["mean"], src["cov"], d)
    w_t = np.linalg.solve(sx, sxy).T
    w_s = np.linalg.solve(sx_s, sxy_s).T
    b_s = my_s - w_s @ mx_s
    init_w = np.asarray(spec["init_model"]["weight"], dtype=float)
    init_b = np.asarray(spec["init_model"]["intercept"], dtype=float)
    stacked_w = np.vstack([w_s, init_w])
    stacked_b = np.concatenate([b_s, init_b])
    target = (my, w_t @ sx @ w_t.T)
    inter = (stacked_w @ mx + stacked_b, stacked_w @ sx @ stacked_w.T)
    return target, inter


def output_aug(spec: dict) -> dict[str, Split]:
    (m1, c1), (m2, c2) = output_aug_laws(spec)
    return {"kl": kl_split(m1, c1, m2, c2), "w": w2_split(m1, c1, m2, c2)}


# --- signatures and the prediction pipeline --------------------------------------

def signature_dim(channels: int, order: int) -> int:
    return sum(channels ** m for m in range(order + 1))


def windowed_signatures(series: np.ndarray, lag: int, order: int) -> np.ndarray:
    """Signatures of every lag-sample window, all windows at once.

    A time channel running 0..1 inside each window is prepended.  Each
    linear segment with increment Δ has level m equal to Δ^⊗m/m!, and
    segments are joined by Chen's identity, level m of a·b being
    Σ_{i+j=m} a_i ⊗ b_j.  Arrays carry a leading window axis.
    """
    t_len = series.shape[0]
    n_win = t_len - lag + 1
    idx = np.arange(lag)[None, :] + np.arange(n_win)[:, None]
    windows = series[idx]                                   # (W, lag, n)
    time = np.broadcast_to(np.linspace(0.0, 1.0, lag)[None, :, None], (n_win, lag, 1))
    path = np.concatenate([time, windows], axis=2)          # (W, lag, c)
    incs = np.diff(path, axis=1)                            # (W, lag-1, c)

    def segment(delta):
        levels = [np.ones((n_win,))]
        for m in range(1, order + 1):
            levels.append(np.einsum("w...,wc->w...c", levels[-1], delta) / m)
        return levels

    def outer(a, b):
        return (a.reshape(n_win, -1, 1) * b.reshape(n_win, 1, -1)).reshape(
            (n_win,) + a.shape[1:] + b.shape[1:])

    acc = segment(incs[:, 0])
    for k in range(1, lag - 1):
        seg = segment(incs[:, k])
        acc = [sum(outer(acc[i], seg[m - i]) for i in range(m + 1))
               for m in range(order + 1)]
    return np.concatenate([level.reshape(n_win, -1) for level in acc], axis=1)


def ridge(x: np.ndarray, y: np.ndarray, lam: float, anchor=None) -> np.ndarray:
    """argmin (1/T)‖[x 1]θ − y‖² + λ‖P(θ − anchor)‖², P dropping the intercept."""
    t = x.shape[0]
    xa = np.column_stack([x, np.ones(t)])
    p = np.eye(xa.shape[1])
    p[-1, -1] = 0.0
    anchor = np.zeros(xa.shape[1]) if anchor is None else anchor
    return np.linalg.solve(xa.T @ xa / t + lam * p, xa.T @ y / t + lam * (p @ anchor))


def standardize(train: np.ndarray, *others: np.ndarray):
    """Columnwise z-scores with train statistics; constant columns
    (population std ≤ 1e-12) are dropped."""
    mean, std = train.mean(axis=0), train.std(axis=0)
    keep = std > 1e-12
    return [(a[:, keep] - mean[keep]) / std[keep] for a in (train, *others)]


def evaluate(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> dict:
    pred = x @ theta[:-1] + theta[-1]
    resid = pred - y
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    defined = bool(np.std(pred) > 1e-15 and np.std(y) > 1e-15)
    corr = 0.0
    if defined:
        pc, yc = pred - pred.mean(), y - y.mean()
        corr = float(pc @ yc / math.sqrt(float(pc @ pc) * float(yc @ yc)))
    return {"mse": float(np.mean(resid ** 2)),
            "r2": 1.0 - float(np.sum(resid ** 2)) / ss_tot,
            "corr": corr, "corr_defined": defined,
            "transfer_risk": float(np.mean((np.sort(pred) - np.sort(y)) ** 2))}


def _asset(series, lag: int, order: int, split_date):
    """Features of windows ending before the last row, next-period log
    returns, and a mask of windows ending before the split date."""
    log_pv = np.column_stack([np.log(series.close), np.log(series.volume)])
    feats = windowed_signatures(log_pv, lag, order)[:-1]
    y = np.diff(log_pv[:, 0])[lag - 1:]
    ends = series.dates[lag - 1:len(series.dates) - 1]
    before = np.array([d < split_date for d in ends])
    return feats, y, before


def predict_cell(job, lag: int, order: int, lam_s: float, lam_t: float) -> dict:
    """One grid cell of the prediction report, recomputed."""
    src_x, src_y = [], []
    for series in job.sources:
        x, y, before = _asset(series, lag, order, job.split_date)
        src_x.append(x[before])
        src_y.append(y[before])
    px, py = np.vstack(src_x), np.concatenate(src_y)
    tx, ty, before = _asset(job.target, lag, order, job.split_date)
    train_x, train_y, test_x, test_y = tx[before], ty[before], tx[~before], ty[~before]

    (px_std,) = standardize(px)
    py_std = (py - py.mean()) / (py.std() or 1.0)
    train_std, test_std = standardize(train_x, test_x)
    y_mean, y_std = float(train_y.mean()), float(train_y.std()) or 1.0
    train_ystd, test_ystd = (train_y - y_mean) / y_std, (test_y - y_mean) / y_std

    theta_source = ridge(px_std, py_std, lam_s)
    theta_direct = ridge(train_std, train_ystd, lam_s)
    theta_transfer = ridge(train_std, train_ystd, lam_t, anchor=theta_source)
    return {"lag": lag, "order": order, "feature_dim": signature_dim(3, order),
            "train_rows": int(before.sum()), "test_rows": int((~before).sum()),
            "direct": evaluate(theta_direct, test_std, test_ystd),
            "transfer": evaluate(theta_transfer, test_std, test_ystd),
            "target_standardization": {"mean": y_mean, "std": y_std}}


# --- portfolios ---------------------------------------------------------------------

def moments(returns: np.ndarray):
    mu = returns.mean(axis=0)
    centered = returns - mu
    sigma = centered.T @ centered / (returns.shape[0] - 1)
    return mu, 0.5 * (sigma + sigma.T)


def max_sharpe_qp(mu: np.ndarray, sigma: np.ndarray) -> tuple[float, np.ndarray]:
    """Long-only maximum Sharpe ratio through the convex QP

        minimize yᵀΣy  subject to  μᵀy = 1, y ≥ 0,   φ = y / Σy.

    The optimum is the equality-constrained solution y_S ∝ Σ_S⁻¹μ_S on
    some support S, so every support is tried and the feasible candidate
    of least yᵀΣy wins.  Exact for the handful of assets used here.
    """
    d = mu.shape[0]
    best = (math.inf, None)
    for size in range(1, d + 1):
        for support in itertools.combinations(range(d), size):
            s = list(support)
            z = np.linalg.solve(sigma[np.ix_(s, s)], mu[s])
            denom = float(mu[s] @ z)
            if denom <= 0.0:
                continue
            y = np.zeros(d)
            y[s] = z / denom
            if y.min() < 0.0:
                continue
            value = float(y @ sigma @ y)
            if value < best[0]:
                best = (value, y)
    value, y = best
    return 1.0 / math.sqrt(value), y / y.sum()


def sharpe(w, mu, sigma) -> float:
    return float(mu @ w) / math.sqrt(float(w @ sigma @ w))


def objective(w, mu, sigma, anchor=None, penalty: float = 0.0) -> float:
    value = sharpe(w, mu, sigma)
    if anchor is not None:
        diff = w - anchor
        value -= penalty * float(diff @ diff)
    return value


def objective_gradient(w, mu, sigma, anchor=None, penalty: float = 0.0) -> np.ndarray:
    sig_w = sigma @ w
    var = float(w @ sig_w)
    sd = math.sqrt(var)
    grad = mu / sd - (float(mu @ w) / (sd * var)) * sig_w
    if anchor is not None:
        grad = grad - 2.0 * penalty * (w - anchor)
    return grad


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort and threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.shape[0] + 1)
    rho = int(np.nonzero(u - css / ks > 0.0)[0][-1])
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def stationarity(w, mu, sigma, anchor=None, penalty: float = 0.0,
                 step: float = 1e-2) -> float:
    """Step-normalized projected gradient ‖P(w + s∇f) − w‖ / s."""
    grad = objective_gradient(w, mu, sigma, anchor, penalty)
    return float(np.linalg.norm(project_simplex(w + step * grad) - w)) / step
