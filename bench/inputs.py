"""Seeded inputs for the four workloads.

Everything here is the benchmark's own: nothing is generated through
``transrisk.benchmarks``, so a change to the program cannot change what
the benchmark feeds it.  Each generator takes the workload seed and
returns plain numbers and dicts; ``workloads`` writes the files the CLI
reads (with the ``write_*`` helpers here) before the timed section.

The make-up of each workload is fixed by the constants below and only
the values drawn from the seed change, so the amount of work per round
does not depend on the seed.  ``portfolio`` gets there differently: its
solver's iteration count depends on the market, so its markets are fixed
and the seed draws their asset order and return rows (see
``portfolio_round``).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

WORKLOAD_KEYS = {"screen": 1, "verify": 2, "predict": 3, "portfolio": 4}

# screen: one operation ranks SCREEN_K candidate sources for one target;
# a round covers every target dimension twice.
SCREEN_DIMS = (1, 2, 3, 4, 5, 6)
SCREEN_REPEATS = 2
SCREEN_K = 32

# verify: a round of gaussian-risk --verify calls at the
# CLI's default --mc-samples; mostly basic pairs with d = 1..4.
VERIFY_BASIC_DIMS = (1, 2, 3, 4)
VERIFY_BASIC_PER_DIM = 14
VERIFY_FEATURE_AUG = 4      # d = 2 source inputs, k = 1 or 2 extra
VERIFY_OUTPUT_AUG = 4       # d = 3 inputs, k = 1 or 2 extra outputs

# predict: PREDICT_ROUND jobs, each with PREDICT_SOURCES source assets
# and one target asset of PREDICT_ROWS dated rows, on a lag x order grid.
PREDICT_ROUND = 3
PREDICT_SOURCES = 2
PREDICT_ROWS = 200
PREDICT_LAGS = (3, 5)
PREDICT_ORDERS = (2, 3)
PREDICT_SPLIT_ROW = 120     # target rows before the split date

# portfolio: a round of PORTFOLIO_PER_CELL jobs per (d, shift) cell; a
# round holds many distinct markets because the solver's cost differs
# from market to market.
PORTFOLIO_DIMS = (3, 4, 6)
PORTFOLIO_SHIFTS = (0.0, 0.1, 0.3)
PORTFOLIO_PER_CELL = 8
PORTFOLIO_ROWS = (300, 120, 150)   # source, target train, target test
PORTFOLIO_PENALTY = 0.2
PORTFOLIO_MARKETS_KEY = 20240   # the markets' moments come from this, not the seed


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_KEYS[workload], seed])


def random_cov(rng: np.random.Generator, n: int, floor: float = 0.2) -> np.ndarray:
    """A well-conditioned, exactly symmetric covariance of size n."""
    a = rng.normal(size=(n, n))
    cov = a @ a.T / n + floor * np.eye(n)
    return 0.5 * (cov + cov.T)


# --- screen ---------------------------------------------------------------

@dataclass(frozen=True)
class ScreenOp:
    """One target and its candidate sources, as (mean, cov) arrays of the
    joint (d inputs, 1 output) law."""

    dim: int
    target: tuple[np.ndarray, np.ndarray]
    sources: tuple[tuple[np.ndarray, np.ndarray], ...]


def screen_round(seed: int) -> list[ScreenOp]:
    rng = rng_for("screen", seed)
    ops = []
    for _ in range(SCREEN_REPEATS):
        for d in SCREEN_DIMS:
            n = d + 1
            t_mean = rng.normal(size=n)
            t_cov = random_cov(rng, n)
            sources = []
            for _ in range(SCREEN_K):
                # a source is the target moved by a random amount: small
                # moves give near-zero risks, large ones large risks
                eps = float(rng.uniform(0.05, 1.0))
                b = np.eye(n) + eps * rng.normal(size=(n, n)) / np.sqrt(n)
                cov = b @ t_cov @ b.T + 0.05 * eps * np.eye(n)
                cov = 0.5 * (cov + cov.T)
                sources.append((t_mean + eps * rng.normal(size=n), cov))
            ops.append(ScreenOp(d, (t_mean, t_cov), tuple(sources)))
    return ops


# --- verify ---------------------------------------------------------------

def _task_doc(dim_x: int, dim_y: int, mean: np.ndarray, cov: np.ndarray) -> dict:
    return {"dim_x": dim_x, "dim_y": dim_y, "mean": [float(v) for v in mean],
            "cov": [[float(v) for v in row] for row in cov]}


def _basic_spec(rng: np.random.Generator, d: int) -> dict:
    n = d + 1
    t_mean = rng.normal(size=n)
    t_cov = random_cov(rng, n)
    b = np.eye(n) + 0.5 * rng.normal(size=(n, n)) / np.sqrt(n)
    s_cov = b @ t_cov @ b.T + 0.05 * np.eye(n)
    s_cov = 0.5 * (s_cov + s_cov.T)
    s_mean = t_mean + 0.5 * rng.normal(size=n)
    return {"version": 1, "kind": "gaussian_pair", "case": "basic",
            "source": _task_doc(d, 1, s_mean, s_cov),
            "target": _task_doc(d, 1, t_mean, t_cov)}


def _feature_aug_spec(rng: np.random.Generator, d: int, k: int) -> dict:
    # target coordinates: (old inputs, new inputs, output); the source is
    # the target's marginal on (old inputs, output), copied exactly
    n = d + k + 1
    mean = rng.normal(size=n)
    cov = random_cov(rng, n)
    keep = list(range(d)) + [n - 1]
    return {"version": 1, "kind": "gaussian_pair", "case": "feature_aug",
            "source": _task_doc(d, 1, mean[keep], cov[np.ix_(keep, keep)]),
            "target": _task_doc(d + k, 1, mean, cov)}


def _output_aug_spec(rng: np.random.Generator, d: int, k: int) -> dict:
    # target coordinates: (inputs, old output, new outputs); the source is
    # the target's marginal on (inputs, old output)
    n = d + 1 + k
    mean = rng.normal(size=n)
    cov = random_cov(rng, n)
    keep = list(range(d + 1))
    weight = rng.normal(size=(k, d))
    intercept = rng.normal(size=k)
    return {"version": 1, "kind": "gaussian_pair", "case": "output_aug",
            "source": _task_doc(d, 1, mean[keep], cov[np.ix_(keep, keep)]),
            "target": _task_doc(d, 1 + k, mean, cov),
            "init_model": {"weight": [[float(v) for v in row] for row in weight],
                           "intercept": [float(v) for v in intercept]}}


def verify_round(seed: int) -> list[tuple[dict, int]]:
    """(spec, --seed) pairs; every call gets its own oracle seed."""
    rng = rng_for("verify", seed)
    specs = []
    for d in VERIFY_BASIC_DIMS:
        specs.extend(_basic_spec(rng, d) for _ in range(VERIFY_BASIC_PER_DIM))
    specs.extend(_feature_aug_spec(rng, 2, 1 + i % 2) for i in range(VERIFY_FEATURE_AUG))
    specs.extend(_output_aug_spec(rng, 3, 1 + i % 2) for i in range(VERIFY_OUTPUT_AUG))
    order = rng.permutation(len(specs))
    oracle_seeds = rng.integers(0, 2**31 - 1, size=len(specs))
    return [(specs[i], int(s)) for i, s in zip(order, oracle_seeds)]


# --- predict --------------------------------------------------------------

def business_days(start: dt.date, n: int) -> list[dt.date]:
    days, day = [], start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


@dataclass(frozen=True)
class PriceSeries:
    dates: list
    close: np.ndarray
    volume: np.ndarray


def _price_series(rng: np.random.Generator, dates: list, phi: float) -> PriceSeries:
    """Log price with AR(1) returns and a log-volume random walk."""
    n = len(dates)
    returns = np.empty(n - 1)
    prev = 0.0
    for i, shock in enumerate(rng.normal(scale=0.01, size=n - 1)):
        prev = phi * prev + shock
        returns[i] = prev
    log_close = np.log(100.0) + np.concatenate(([0.0], np.cumsum(returns)))
    log_volume = np.log(1e6) + np.cumsum(rng.normal(scale=0.1, size=n))
    return PriceSeries(dates, np.exp(log_close), np.exp(log_volume))


@dataclass(frozen=True)
class PredictJob:
    sources: tuple[PriceSeries, ...]
    target: PriceSeries
    split_date: dt.date


def predict_round(seed: int) -> list[PredictJob]:
    rng = rng_for("predict", seed)
    jobs = []
    for _ in range(PREDICT_ROUND):
        dates = business_days(dt.date(2021, 1, 4) + dt.timedelta(days=int(rng.integers(0, 365))),
                              PREDICT_ROWS)
        phi = float(rng.uniform(-0.3, 0.3))
        sources = tuple(_price_series(rng, dates, phi) for _ in range(PREDICT_SOURCES))
        target = _price_series(rng, dates, phi)
        jobs.append(PredictJob(sources, target, dates[PREDICT_SPLIT_ROW]))
    return jobs


def write_price_csv(path, series: PriceSeries) -> None:
    lines = ["date,close,volume"]
    lines.extend(f"{d.isoformat()},{c!r},{v!r}"
                 for d, c, v in zip(series.dates, series.close.tolist(),
                                    series.volume.tolist()))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# --- portfolio --------------------------------------------------------------

@dataclass(frozen=True)
class PortfolioJob:
    dim: int
    source: np.ndarray
    train: np.ndarray
    test: np.ndarray


def matched_returns(rng: np.random.Generator, n: int, mean: np.ndarray,
                    chol: np.ndarray) -> np.ndarray:
    """n rows whose sample mean is ``mean`` and whose sample covariance
    (ddof 1) is chol·cholᵀ, up to rounding: the noise is whitened before
    it is coloured."""
    z = rng.normal(size=(n, mean.shape[0]))
    z -= z.mean(axis=0)
    white = np.linalg.cholesky(z.T @ z / (n - 1))
    return np.linalg.solve(white, z.T).T @ chol.T + mean


def portfolio_markets() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(μ, Σ, source mean move) of every market of a round, the same for
    every seed.  Each is a Gaussian market whose long-only maximum-Sharpe
    portfolio is interior: its tangency weights w0 lie within ±50% of
    uniform and its means are Σ·w0 scaled to a Sharpe ratio of 1.  The
    source market's means are moved by ``shift``·N(0, I)."""
    rng = np.random.default_rng(PORTFOLIO_MARKETS_KEY)
    markets = []
    for d in PORTFOLIO_DIMS:
        for shift in [s for s in PORTFOLIO_SHIFTS for _ in range(PORTFOLIO_PER_CELL)]:
            a = rng.normal(size=(d, d))
            sigma = a @ a.T / d + np.eye(d)
            w0 = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=d)
            w0 /= w0.sum()
            mu = sigma @ w0 / np.sqrt(w0 @ sigma @ w0)
            markets.append((mu, sigma, shift * rng.normal(size=d)))
    return markets


def portfolio_round(seed: int) -> list[PortfolioJob]:
    """One job per market of ``portfolio_markets``, its assets put in an
    order drawn from the seed.  Every return history is drawn from the
    seed and has exactly its market's moments.

    The solver's cost is set by the market: with optima on faces of the
    simplex or sampling noise in the moments, one job's iteration count
    changes several-fold, and markets drawn from the seed move a round's
    work more than fixed ones do.  The solver treats every asset alike,
    so relabelling the assets changes its work only through rounding."""
    rng = rng_for("portfolio", seed)
    n_src, n_train, n_test = PORTFOLIO_ROWS
    jobs = []
    for mu, sigma, move in portfolio_markets():
        d = mu.shape[0]
        order = rng.permutation(d)
        mu, sigma, move = mu[order], sigma[np.ix_(order, order)], move[order]
        chol = np.linalg.cholesky(sigma)
        source = matched_returns(rng, n_src, mu + move, chol)
        jobs.append(PortfolioJob(d, source, matched_returns(rng, n_train, mu, chol),
                                 matched_returns(rng, n_test, mu, chol)))
    return jobs


def write_returns_csv(path, returns: np.ndarray) -> None:
    dates = business_days(dt.date(2020, 1, 1), returns.shape[0])
    header = "date," + ",".join(f"a{i}" for i in range(returns.shape[1]))
    lines = [header]
    lines.extend(d.isoformat() + "," + ",".join(repr(v) for v in row)
                 for d, row in zip(dates, returns.tolist()))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
