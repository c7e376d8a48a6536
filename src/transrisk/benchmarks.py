"""Property sweeps and synthetic end-to-end studies.

Everything here is randomized but fully reproducible from fixed seeds:
the sweeps draw from ``SeededStream``, and the two studies from numpy's
``default_rng`` at fixed base seeds.  The sweeps check, over large random
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
from .portfolio import DEFAULT_PENALTY, ReturnsDataset, transfer_portfolio
from .regression import (
    RegressionDataset,
    concat_datasets,
    evaluate,
    ridge_transfer,
    signature_dataset,
)


class SweepResult(NamedTuple):
    name: str
    checked: int
    failed: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.failed == 0


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


def sweep_cross_entropy_bounds(stream: SeededStream, trials: int) -> SweepResult:
    """lower ≤ center ≤ upper for random discrete triples of 2 to 20 classes."""
    rng = stream.generator()
    failed = 0
    worst = math.inf
    for _ in range(trials):
        k = int(rng.integers(2, 21))
        bounds = cross_entropy_gap_bounds(
            random_discrete(rng, k), random_discrete(rng, k), random_discrete(rng, k))
        slack = min(bounds.center - bounds.lower, bounds.upper - bounds.center)
        worst = min(worst, slack)
        if not (bounds.lower <= bounds.center <= bounds.upper):
            failed += 1
    return SweepResult("cross-entropy gap bounds", trials, failed,
                       f"min slack {worst:.3e}")


def sweep_output_bound(stream: SeededStream, trials: int) -> SweepResult:
    """Label-anchored Wasserstein bound over random sample triples, at
    orders p = 1 and 2."""
    rng = stream.generator()
    failed = 0
    checked = 0
    for _ in range(trials):
        n = int(rng.integers(2, 40))
        scale = float(rng.uniform(0.5, 3.0))
        triple = [rng.normal(scale=scale, size=n) + rng.normal(scale=2.0)
                  for _ in range(3)]
        for p in (1.0, 2.0):
            checked += 1
            if not output_bound_check(*triple, p=p).holds:
                failed += 1
    return SweepResult("label-anchored output bound", checked, failed, "")


def sweep_regret_identity(stream: SeededStream, trials: int) -> SweepResult:
    """risk_w ≤ regret, identity to 1e-9, residual ≥ −1e-12, at scale,
    for input dimensions 1 to 6."""
    rng = stream.generator()
    failed = 0
    worst_gap = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 7))
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


def sweep_talagrand(stream: SeededStream, trials: int) -> SweepResult:
    """W2² ≤ 2·KL against N(0, I), for measures of dimension 1 to 3 with
    covariance ≼ I.

    Also checks that the documented flat-curvature counterexample
    (unit mean shift at variance 100) is reported as a violation.
    """
    rng = stream.generator()
    failed = 0
    for _ in range(trials):
        dim = int(rng.integers(1, 4))
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


def run_property_sweeps(seed: int, *, trials_scale: float = 1.0) -> list[SweepResult]:
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


def simulate_price_volume(rng: np.random.Generator, n_periods: int) -> np.ndarray:
    """Log price and log volume for one synthetic asset.

    Returns follow an AR(1) with coefficient 0.35 and shock scale 0.01
    (the shared, learnable dynamic); log volume is an independent random
    walk.  Output shape (n_periods, 2): columns log price, log volume.
    """
    returns = np.empty(n_periods - 1)
    r = 0.0
    shocks = rng.normal(scale=0.01, size=n_periods - 1)
    for t in range(n_periods - 1):
        r = 0.35 * r + shocks[t]
        returns[t] = r
    log_price = np.concatenate(([0.0], np.cumsum(returns))) + math.log(100.0)
    log_volume = math.log(1e6) + np.cumsum(rng.normal(scale=0.1, size=n_periods))
    return np.column_stack([log_price, log_volume])


def ridge_transfer_study() -> list[RidgeStudyCell]:
    """Direct vs anchored ridge on simulated shared-dynamics assets, at
    the seeds 77,000 to 77,049.

    All assets share one AR(1) return dynamic, so the pooled source
    solution is a good prior for the target; the target history is kept
    short so the anchor has something to add.  Each seed pools 4 source
    assets of 400 periods and splits a target of 291 periods into 70
    training and 220 test periods; the features are signatures of lag 5
    and order 2, and the fits use the default λs.
    """
    lag, order, target_train_len = 5, 2, 70
    cells = []
    for seed in range(77_000, 77_050):
        rng = np.random.default_rng(seed)
        source_sets = [signature_dataset(simulate_price_volume(rng, 400), lag, order).data
                       for _ in range(4)]
        target = signature_dataset(simulate_price_volume(rng, 291), lag, order).data
        split = target_train_len - lag
        train = RegressionDataset(target.features[:split], target.targets[:split])
        test = RegressionDataset(target.features[split:], target.targets[split:])

        fit = ridge_transfer(concat_datasets(source_sets), train, test)
        cells.append(RidgeStudyCell(seed, evaluate(fit.direct, fit.test).mse,
                                    evaluate(fit.transfer, fit.test).mse))
    return cells


class PortfolioStudyCell(NamedTuple):
    prescreen_risk: float
    transfer_sharpe: float


def _random_market(rng: np.random.Generator, d: int) -> GaussianDist:
    """Annualized-scale Gaussian market of d assets, its covariance
    positive definite."""
    mu = rng.uniform(0.0, 0.15, size=d)
    vols = rng.uniform(0.12, 0.30, size=d)
    a = rng.normal(size=(d, d))
    corr_raw = a @ a.T + d * np.eye(d)
    dinv = 1.0 / np.sqrt(np.diag(corr_raw))
    corr = corr_raw * np.outer(dinv, dinv)
    sigma = corr * np.outer(vols, vols)
    return GaussianDist(mu, 0.5 * (sigma + sigma.T))


def portfolio_transfer_study() -> list[PortfolioStudyCell]:
    """Prescreen W2 risk vs realized Sharpe of the transferred portfolio,
    over 200 source markets of 4 assets.

    One fixed target market (seed 31,000) with fixed, short samples: 25
    training and 250 test periods.  Each pair (seeds 31,001 to 31,200)
    draws a source market at a random discrepancy from it (mean shift
    plus covariance blend), samples 750 source returns, pretrains the
    source portfolio, transfers it onto the target history at the
    default pull penalty, and records (prescreen risk against the
    target test data, out-of-sample Sharpe).  Fixing the target isolates
    the anchor effect, mirroring the fixed-target-market design of the
    original experiments; sources range from near-clones to unrelated
    markets so the prescreen risk has real spread.
    """
    d = 4
    rng = np.random.default_rng(31_000)
    target = _random_market(rng, d)
    target_train = ReturnsDataset(rng.normal(size=(25, d)) @ target.chol.T + target.mean)
    target_test = ReturnsDataset(rng.normal(size=(250, d)) @ target.chol.T + target.mean)

    cells = []
    for seed in range(31_001, 31_201):
        rng = np.random.default_rng(seed)
        shift = float(rng.uniform(0.0, 1.0)) ** 2           # varied discrepancy
        mu_s = target.mean + shift * rng.uniform(0.1, 0.25) * rng.choice([-1.0, 1.0], size=d)
        other = _random_market(rng, d)
        law = GaussianDist(mu_s, (1.0 - shift) * target.cov + shift * other.cov)
        source = ReturnsDataset(rng.normal(size=(750, d)) @ law.chol.T + law.mean)
        fit = transfer_portfolio(source, target_train, target_test, DEFAULT_PENALTY)
        cells.append(PortfolioStudyCell(fit.prescreen_risk_sq,
                                        fit.sharpe["transferred_out_of_sample"]))
    return cells
