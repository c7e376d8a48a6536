"""Property sweeps and synthetic end-to-end studies.

Everything here is randomized but fully reproducible from a single
seed through ``SeededStream``.  The sweeps check, over large random
families, the inequalities the closed forms promise: bracketing of the
cross-entropy gap, the label-anchored output bound, regret dominating
the squared-W2 risk (with the exact residual identity), and the
transport-entropy comparison against a standard-normal reference.

The two synthetic studies stand in for market-data experiments that
need data this package does not ship:

* ``ridge_transfer_study``  -- signature-ridge return prediction on
  simulated assets with shared autoregressive dynamics; with a short
  target history, anchoring to a model pretrained on pooled source
  assets should beat direct fitting on test MSE for most seeds.
* ``portfolio_transfer_study`` -- Sharpe transfer across simulated
  Gaussian markets at varying source/target discrepancy; the cheap
  moment-matched W2 prescreen should correlate negatively with the
  realized out-of-sample Sharpe of the transferred portfolio.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .divergence import (
    DiscreteDist,
    cross_entropy_gap_bounds,
    output_bound_check,
    talagrand_diagnostic,
)
from .gauss_transfer import BasicCasePair, regret_risk_identity
from .gaussian import GaussianDist, GaussianJointTask
from .mc import SeededStream
from .portfolio import (
    DEFAULT_PENALTY,
    Portfolio,
    ReturnsDataset,
    estimate_moments,
    prescreen_risk_w2,
    sharpe_optimize,
    sharpe_ratio,
)
from .regression import (
    DEFAULT_SOURCE_LAMBDA,
    DEFAULT_TRANSFER_LAMBDA,
    RegressionDataset,
    concat_datasets,
    evaluate,
    ridge_transfer,
)
from .signature import windowed_signature_features


class SweepResult(NamedTuple):
    name: str
    checked: int
    failed: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _rng(stream: SeededStream) -> np.random.Generator:
    return np.random.Generator(stream._bit_generator())


def random_discrete(rng: np.random.Generator, k: int) -> DiscreteDist:
    p = rng.gamma(1.0, 1.0, size=k) + 1e-9
    return DiscreteDist(p / p.sum())


def random_basic_pair(rng: np.random.Generator, dim: int) -> BasicCasePair:
    """A random well-conditioned source/target pair with scalar output.

    Covariances are built as A·Aᵀ + I conditioning, correlations kept
    clearly nonzero so both KL denominators stay healthy.
    """
    def random_task() -> GaussianJointTask:
        n = dim + 1
        a = rng.normal(size=(n, n))
        cov = a @ a.T + 0.5 * np.eye(n)
        # keep the input/output correlation away from zero
        if abs(cov[dim, dim - 1]) < 0.05:
            cov[dim, : dim] += 0.2 * np.sign(cov[dim, dim - 1] + 1e-9)
            cov[: dim, dim] = cov[dim, : dim]
            cov = cov + np.eye(n) * 0.1
        mean = rng.normal(scale=2.0, size=n)
        return GaussianJointTask(dim, 1, mean, 0.5 * (cov + cov.T))

    return BasicCasePair(random_task(), random_task())


def sweep_cross_entropy_bounds(stream: SeededStream, trials: int = 10_000,
                               max_classes: int = 20) -> SweepResult:
    """lower ≤ center ≤ upper for random discrete triples."""
    rng = _rng(stream)
    failed = 0
    worst = math.inf
    for _ in range(trials):
        k = int(rng.integers(2, max_classes + 1))
        bounds = cross_entropy_gap_bounds(
            random_discrete(rng, k), random_discrete(rng, k), random_discrete(rng, k))
        slack = min(bounds.center - bounds.lower, bounds.upper - bounds.center)
        worst = min(worst, slack)
        if not (bounds.lower <= bounds.center <= bounds.upper):
            failed += 1
    return SweepResult("cross-entropy gap bounds", trials, failed,
                       f"min slack {worst:.3e}")


def sweep_output_bound(stream: SeededStream, trials: int = 1_000,
                       orders=(1.0, 2.0)) -> SweepResult:
    """Label-anchored Wasserstein bound over random sample triples."""
    rng = _rng(stream)
    failed = 0
    checked = 0
    for _ in range(trials):
        n = int(rng.integers(2, 40))
        scale = float(rng.uniform(0.5, 3.0))
        triple = [rng.normal(scale=scale, size=n) + rng.normal(scale=2.0)
                  for _ in range(3)]
        for p in orders:
            checked += 1
            if not output_bound_check(*triple, p=p).holds:
                failed += 1
    return SweepResult("label-anchored output bound", checked, failed, "")


def sweep_regret_identity(stream: SeededStream, trials: int = 10_000,
                          max_dim: int = 6) -> SweepResult:
    """risk_w ≤ regret, identity to 1e-9, residual ≥ −1e-12, at scale."""
    rng = _rng(stream)
    failed = 0
    worst_gap = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, max_dim + 1))
        pair = random_basic_pair(rng, dim)
        regret, risk_w, residual = regret_risk_identity(pair)
        gap = abs(regret - (risk_w + residual))
        worst_gap = max(worst_gap, gap / max(1.0, abs(regret)))
        ok = (gap <= 1e-9 * max(1.0, abs(regret))
              and residual >= -1e-12
              and risk_w <= regret + 1e-9 * max(1.0, abs(regret)))
        if not ok:
            failed += 1
    return SweepResult("regret lower bound and identity", trials, failed,
                       f"worst relative identity gap {worst_gap:.3e}")


def sweep_talagrand(stream: SeededStream, trials: int = 1_000,
                    max_dim: int = 3) -> SweepResult:
    """W2² ≤ 2·KL against N(0, I), for measures with covariance ≼ I.

    Also checks that the documented flat-curvature counterexample
    (unit mean shift at variance 100) is reported as a violation.
    """
    rng = _rng(stream)
    failed = 0
    for _ in range(trials):
        dim = int(rng.integers(1, max_dim + 1))
        q = GaussianDist(np.zeros(dim), np.eye(dim))
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        eigs = rng.uniform(0.05, 1.0, size=dim)
        cov = (basis * eigs) @ basis.T
        p = GaussianDist(rng.normal(scale=1.5, size=dim), 0.5 * (cov + cov.T))
        if not talagrand_diagnostic(p, q).holds:
            failed += 1
    counter = talagrand_diagnostic(GaussianDist([1.0], [[100.0]]),
                                   GaussianDist([0.0], [[100.0]]))
    if counter.holds:   # must be flagged as a violation
        failed += 1
    return SweepResult("transport-entropy comparison vs standard normal",
                       trials + 1, failed,
                       f"counterexample sides: W2²={counter.w2_sq:.3g}, "
                       f"2KL={counter.two_kl:.3g}")


def run_property_sweeps(seed: int = 20_240_401, *, trials_scale: float = 1.0) -> list[SweepResult]:
    """The four sweeps at their standard sizes (scaled for quick runs)."""
    stream = SeededStream(seed)
    s = trials_scale
    return [
        sweep_cross_entropy_bounds(stream.substream(1), max(1, int(10_000 * s))),
        sweep_output_bound(stream.substream(2), max(1, int(1_000 * s))),
        sweep_regret_identity(stream.substream(3), max(1, int(10_000 * s))),
        sweep_talagrand(stream.substream(4), max(1, int(1_000 * s))),
    ]


# --- synthetic studies --------------------------------------------------

class RidgeStudyCell(NamedTuple):
    seed: int
    direct_mse: float
    transfer_mse: float


def simulate_price_volume(rng: np.random.Generator, n_periods: int,
                          ar_coef: float = 0.35, noise: float = 0.01) -> np.ndarray:
    """Log price and log volume for one synthetic asset.

    Returns follow an AR(1) with coefficient ``ar_coef`` (the shared,
    learnable dynamic); log volume is an independent random walk.
    Output shape (n_periods, 2): columns log price, log volume.
    """
    returns = np.empty(n_periods - 1)
    r = 0.0
    shocks = rng.normal(scale=noise, size=n_periods - 1)
    for t in range(n_periods - 1):
        r = ar_coef * r + shocks[t]
        returns[t] = r
    log_price = np.concatenate(([0.0], np.cumsum(returns))) + math.log(100.0)
    log_volume = math.log(1e6) + np.cumsum(rng.normal(scale=0.1, size=n_periods))
    return np.column_stack([log_price, log_volume])


class SignatureDataset(NamedTuple):
    """Windowed signature features of one asset and the regression they feed."""

    features: np.ndarray        # one row per window
    data: RegressionDataset     # every window but the last, with its next log return
    end_dates: list             # the window-end date of each row of ``data``


def signature_dataset(log_pv: np.ndarray, lag: int, order: int,
                      dates=None) -> SignatureDataset:
    """Windowed signature features paired with next-period log returns.

    The feature row of the window ending at t predicts the return over
    (t, t+1].  ``dates``, one per row of ``log_pv``, gives the rows'
    window-end dates; without it ``end_dates`` is empty.
    """
    features = windowed_signature_features(log_pv, lag, order)
    y = np.diff(log_pv[:, 0])[lag - 1:]
    end_dates = [] if dates is None else dates[lag - 1:len(dates) - 1]
    return SignatureDataset(features, RegressionDataset(features[:-1], y), end_dates)


def ridge_transfer_study(n_seeds: int = 50, *, n_source_assets: int = 4,
                         source_len: int = 400, target_train_len: int = 70,
                         target_test_len: int = 220, lag: int = 5, order: int = 2,
                         lambda_source: float = DEFAULT_SOURCE_LAMBDA,
                         lambda_transfer: float = DEFAULT_TRANSFER_LAMBDA,
                         base_seed: int = 77_000) -> list[RidgeStudyCell]:
    """Direct vs anchored ridge on simulated shared-dynamics assets.

    All assets share one AR(1) return dynamic, so the pooled source
    solution is a good prior for the target; the target history is kept
    short so the anchor has something to add.
    """
    cells = []
    for k in range(n_seeds):
        seed = base_seed + k
        rng = np.random.default_rng(seed)
        source_sets = []
        for _ in range(n_source_assets):
            pv = simulate_price_volume(rng, source_len)
            source_sets.append(signature_dataset(pv, lag, order).data)
        target_pv = simulate_price_volume(rng, target_train_len + target_test_len + 1)
        target = signature_dataset(target_pv, lag, order).data
        split = target_train_len - lag
        train = RegressionDataset(target.features[:split], target.targets[:split])
        test = RegressionDataset(target.features[split:], target.targets[split:])

        fit = ridge_transfer(concat_datasets(source_sets), train, test,
                             lambda_source, lambda_transfer)
        cells.append(RidgeStudyCell(seed, evaluate(fit.direct, fit.test).mse,
                                    evaluate(fit.transfer, fit.test).mse))
    return cells


class PortfolioStudyCell(NamedTuple):
    prescreen_risk: float
    transfer_sharpe: float


def _random_market(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Annualized-scale mean vector and PSD covariance for d assets."""
    mu = rng.uniform(0.0, 0.15, size=d)
    vols = rng.uniform(0.12, 0.30, size=d)
    a = rng.normal(size=(d, d))
    corr_raw = a @ a.T + d * np.eye(d)
    dinv = 1.0 / np.sqrt(np.diag(corr_raw))
    corr = corr_raw * np.outer(dinv, dinv)
    sigma = corr * np.outer(vols, vols)
    return mu, 0.5 * (sigma + sigma.T)


def portfolio_transfer_study(n_pairs: int = 200, *, d: int = 4,
                             source_len: int = 750, target_train_len: int = 25,
                             target_test_len: int = 250,
                             penalty: float = DEFAULT_PENALTY,
                             base_seed: int = 31_000) -> list[PortfolioStudyCell]:
    """Prescreen W2 risk vs realized Sharpe of the transferred portfolio.

    One fixed target market with fixed (short) training and testing
    samples; each pair draws a source market at a random discrepancy
    from it (mean shift plus covariance blend), samples source returns,
    pretrains the source portfolio, transfers it onto the target history
    with the given pull penalty, and records (prescreen risk against the
    target test data, out-of-sample Sharpe).  Fixing the target isolates
    the anchor effect, mirroring the fixed-target-market design of the
    original experiments; sources range from near-clones to unrelated
    markets so the prescreen risk has real spread.
    """
    rng = np.random.default_rng(base_seed)
    mu_t, sigma_t = _random_market(rng, d)
    chol_t = np.linalg.cholesky(sigma_t + 1e-12 * np.eye(d))
    target_train = ReturnsDataset(rng.normal(size=(target_train_len, d)) @ chol_t.T + mu_t)
    target_test = ReturnsDataset(rng.normal(size=(target_test_len, d)) @ chol_t.T + mu_t)
    mu_train, sigma_train = estimate_moments(target_train)
    mu_test, sigma_test = estimate_moments(target_test)

    cells = []
    for k in range(n_pairs):
        rng = np.random.default_rng(base_seed + 1 + k)
        shift = float(rng.uniform(0.0, 1.0)) ** 2           # varied discrepancy
        mu_s = mu_t + shift * rng.uniform(0.1, 0.25) * rng.choice([-1.0, 1.0], size=d)
        mu_o, sigma_o = _random_market(rng, d)
        sigma_s = (1.0 - shift) * sigma_t + shift * sigma_o

        chol_s = np.linalg.cholesky(sigma_s + 1e-12 * np.eye(d))
        source = ReturnsDataset(rng.normal(size=(source_len, d)) @ chol_s.T + mu_s)

        mu_src, sigma_src = estimate_moments(source)
        anchor = sharpe_optimize(mu_src, sigma_src)
        transferred = sharpe_optimize(mu_train, sigma_train, anchor=anchor,
                                      penalty=penalty)
        cells.append(PortfolioStudyCell(
            prescreen_risk_w2(source, target_test),
            sharpe_ratio(transferred, mu_test, sigma_test),
        ))
    return cells


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.corrcoef(xs, ys)[0, 1])
