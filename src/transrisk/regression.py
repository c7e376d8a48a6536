"""Ridge regression with optional anchoring to a pretrained parameter.

Three fits cover the prediction pipelines:

* direct:     θ̂  = argmin (1/T)Σ(x_t·θ − y_t)² + λ‖θ‖²
* pretrained: θ̂_S = the same on a pooled multi-asset source set
* transfer:   θ̂_T = argmin (1/T)Σ(x_t·θ − y_t)² + λ_T‖θ − θ̂_S‖²

All reduce to one strictly convex quadratic solved through its normal
equations (X'X/T + λI)θ = X'y/T + λ·anchor.  No fit has an intercept:
the pipeline standardizes every split by its training statistics, so on
the training rows the features and the target have mean zero, and the
best unpenalized intercept there is exactly zero.

``ridge_transfer`` fits several feature widths at once, each a leading
block of the widest columns (a lower signature order reads the leading
columns of a higher one).  Column statistics are per column, so each
split is standardized once, at the widest width; each system
X'X/T + λI is factored once, and every width solves with the leading
block of that factor.

Evaluation reports mean squared error, R², the Pearson correlation
between predictions and realized targets, and the transfer risk (W_2^2
between their empirical laws), from one set of predictions and from
statistics of the test targets computed once for every fit scored on
them; the correlation is flagged undefined (and reported as 0) when
either side is constant.

``signature_dataset`` builds the datasets the return-prediction
pipelines fit: windowed signature features of a log price and volume
path, each paired with the next period's log return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import EmpiricalSample1D, wp_empirical_1d
from .errors import ValidationError
from .gaussian import cholesky_with_jitter, chol_solve
from .signature import windowed_signature_features

DEFAULT_SOURCE_LAMBDA = 1.0
DEFAULT_TRANSFER_LAMBDA = 5.0


@dataclass(frozen=True)
class RegressionDataset:
    """Feature matrix (T × d) and target vector (T); all entries finite."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.array(self.features, dtype=float)  # copies, frozen below
        y = np.array(self.targets, dtype=float)
        if x.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValidationError(
                f"targets {y.shape} do not align with features {x.shape}")
        if x.shape[0] < 1:
            raise ValidationError("dataset must contain at least one row")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("dataset contains non-finite entries")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def concat_datasets(datasets) -> RegressionDataset:
    """Pool several datasets (same feature count) into one."""
    datasets = list(datasets)
    if not datasets:
        raise ValidationError("nothing to pool")
    dims = {d.n_features for d in datasets}
    if len(dims) != 1:
        raise ValidationError(f"feature counts differ across pooled sets: {sorted(dims)}")
    return RegressionDataset(
        np.vstack([d.features for d in datasets]),
        np.concatenate([d.targets for d in datasets]),
    )


class SignatureDataset(NamedTuple):
    """Windowed signature features of one asset and the regression they feed."""

    features: np.ndarray        # one row per window
    data: RegressionDataset     # every window but the last, with its next log return


def signature_dataset(log_pv: np.ndarray, lag: int, order: int) -> SignatureDataset:
    """Windowed signature features paired with next-period log returns.

    The feature row of the window ending at t predicts the return over
    (t, t+1], so row i of ``data`` is the window ending at row
    lag − 1 + i of ``log_pv``, for every row but the last.
    """
    features = windowed_signature_features(log_pv, lag, order)
    y = np.diff(log_pv[:, 0])[lag - 1:]
    return SignatureDataset(features, RegressionDataset(features[:-1], y))


class Standardizer:
    """Column-wise (x − mean)/std transform learned from a training split.

    Constant columns (std below 1e-12) are dropped; ``kept`` records the
    surviving column mask so the same columns can be selected from any
    later split, and ``standardized`` holds the training split itself,
    transformed.  Statistics are learned once and reused, never refit on
    test data.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValidationError("standardizer needs a nonempty 2-D array")
        mean = data.mean(axis=0)
        centred = data - mean
        std = np.sqrt(np.mean(centred * centred, axis=0))  # data.std(axis=0), bit for bit
        self.kept = std > 1e-12
        self.mean = mean[self.kept]
        self.std = std[self.kept]
        self.standardized = centred[:, self.kept] / self.std

    def transform(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        if data.shape[1] != self.kept.shape[0]:
            raise ValidationError(
                f"expected {self.kept.shape[0]} columns, got {data.shape[1]}")
        return (data[:, self.kept] - self.mean) / self.std


def ridge_fit(data: RegressionDataset, lam: float, widths=None,
              anchors=None) -> list[np.ndarray]:
    """Unique minimizers of the penalized least-squares objective on the
    leading ``widths`` columns of ``data``, one parameter per width.

    Width k solves (X'X/T + λI)θ = X'y/T + λ·anchor over the first k
    columns by Cholesky; anchor = 0 recovers plain ridge.  ``widths``
    defaults to every column; ``anchors``, when given, holds one anchor
    per width, with one entry per column of that width.

    Each width's matrix is the leading block of the widest one, and the
    leading block of a Cholesky factor is the factor of the leading
    block (Golub & Van Loan, *Matrix Computations*, §4.2), so the widest
    system is factored once and every width solves with a block of that
    factor.  Each width's residual is gated on its own system, so a
    jitter retry on the widest system is judged at every width.
    """
    if not lam > 0.0:
        raise ValidationError(f"lambda must be positive, got {lam}")
    d = data.n_features
    widths = [d] if widths is None else [int(k) for k in widths]
    if not widths or not all(0 <= k <= d for k in widths):
        raise ValidationError(f"widths {widths} do not fit {d} features")
    if anchors is None:
        anchors = [np.zeros(k) for k in widths]
    else:
        anchors = [np.asarray(a, dtype=float) for a in anchors]
        if len(anchors) != len(widths):
            raise ValidationError(f"{len(anchors)} anchors for {len(widths)} widths")
        for k, anchor in zip(widths, anchors):
            if anchor.shape != (k,):
                raise ValidationError(f"anchor must have length {k}, got {anchor.shape}")
    top = max(widths)
    x = data.features[:, :top]
    t = x.shape[0]
    lhs = x.T @ x / t + lam * np.eye(top)
    moment = x.T @ data.targets / t
    chol = cholesky_with_jitter(lhs)
    thetas = []
    for k, anchor in zip(widths, anchors):
        rhs = moment[:k] + lam * anchor
        theta = chol_solve(chol[:k, :k], rhs)
        _gate_residual(lhs[:k, :k] @ theta - rhs, rhs)
        thetas.append(theta)
    return thetas


def _gate_residual(residual: np.ndarray, rhs: np.ndarray) -> None:
    """Raise unless ‖residual‖ ≤ 1e-8·‖rhs‖.  Both vectors are divided by
    max|rhs| before their norms are taken, so that however large λ makes
    the system, the sums of squares cannot overflow."""
    scale = float(np.max(np.abs(rhs), initial=0.0)) or 1.0
    residual, rhs = residual / scale, rhs / scale
    ratio = math.sqrt(float(residual @ residual) / max(float(rhs @ rhs), 1e-60))
    if ratio > 1e-8:
        raise ValidationError(f"normal equations solved to relative residual {ratio:.3e} only")


class TargetStats(NamedTuple):
    """Statistics of a held-out target vector, computed once and shared
    by every fit scored on it."""

    centred: np.ndarray          # y − mean(y)
    ss_tot: float                # Σ(y − mean(y))²
    std: float                   # population standard deviation
    sample: EmpiricalSample1D    # y, validated once for the transport cost


def target_stats(targets: np.ndarray) -> TargetStats:
    centred = targets - targets.mean()
    ss_tot = float(centred @ centred)
    return TargetStats(centred, ss_tot, math.sqrt(ss_tot / targets.shape[0]),
                       EmpiricalSample1D(targets))


class TransferFit(NamedTuple):
    """Direct and anchored fits of one target at one width; ``test`` and
    the metrics on it are in units of the target-train standardization,
    and ``test_stats`` are the statistics of its targets."""

    direct: np.ndarray
    transfer: np.ndarray
    test: RegressionDataset
    test_stats: TargetStats
    y_mean: float
    y_std: float


def _standardized(fit: RegressionDataset):
    """``fit`` standardized by its own column and target statistics, with
    those statistics; a target std at or below 1e-12 is taken as 1."""
    columns = Standardizer(fit.features)
    y_mean = float(fit.targets.mean())
    y_std = float(fit.targets.std())
    if y_std <= 1e-12:
        y_std = 1.0
    return columns, y_mean, y_std, RegressionDataset(columns.standardized,
                                                     (fit.targets - y_mean) / y_std)


def ridge_transfer(source: RegressionDataset, train: RegressionDataset,
                   test: RegressionDataset, widths,
                   lam_source: float = DEFAULT_SOURCE_LAMBDA,
                   lam_transfer: float = DEFAULT_TRANSFER_LAMBDA,
                   labels=None) -> list[TransferFit]:
    """Standardize, pretrain on the pooled source, then fit the target
    directly and anchored to the pretrained parameter, once for each of
    the leading ``widths`` feature columns.

    The source is standardized by its own statistics, the target train
    and test sets by the target train's.  Statistics are per column, so
    each split is standardized once and a width's block is the leading
    kept columns.  The anchor is plain ridge on the pooled source; the
    direct fit uses ``lam_source``.  Each of the three ridge systems
    (source at ``lam_source``, train at ``lam_source`` and at
    ``lam_transfer``) is factored once, by ``ridge_fit``.

    Source and target must keep the same columns, or the anchor would
    pull on other features; ``labels``, one per column, names the first
    column they disagree on.
    """
    top = max(widths)
    src_columns, _, _, source_std = _standardized(source)
    tgt_columns, y_mean, y_std, train_std = _standardized(train)
    src_kept, tgt_kept = src_columns.kept[:top], tgt_columns.kept[:top]
    if not np.array_equal(src_kept, tgt_kept):
        i = int(np.flatnonzero(src_kept != tgt_kept)[0])
        raise ValidationError(
            "source and target standardizers dropped different feature columns: "
            f"{f'column {i}' if labels is None else labels[i]} is kept by the "
            f"{'source' if src_kept[i] else 'target'} only")
    kept = [int(tgt_kept[:w].sum()) for w in widths]
    anchors = ridge_fit(source_std, lam_source, kept)
    direct = ridge_fit(train_std, lam_source, kept)
    transfer = ridge_fit(train_std, lam_transfer, kept, anchors)
    test_x = tgt_columns.transform(test.features)
    test_y = (test.targets - y_mean) / y_std
    stats = target_stats(test_y)
    return [TransferFit(d, t, RegressionDataset(test_x[:, :k], test_y), stats, y_mean, y_std)
            for k, d, t in zip(kept, direct, transfer)]


def predict(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Apply a fitted parameter, one entry per feature column."""
    features = np.asarray(features, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != features.shape[1]:
        raise ValidationError(
            f"parameter length {theta.shape[0]} does not fit {features.shape[1]} features")
    return features @ theta


class EvalMetrics(NamedTuple):
    """``transfer_risk`` is the empirical output transport cost: W_2^2
    between the empirical laws of the predictions and of the realized
    targets (a label-anchored surrogate for the unobservable
    optimal-output law)."""

    mse: float
    r2: float
    corr: float
    corr_defined: bool
    transfer_risk: float


def evaluate(theta: np.ndarray, test: RegressionDataset,
             stats: TargetStats | None = None) -> EvalMetrics:
    """MSE, R², prediction/target correlation and transfer risk on a
    held-out set, from one set of predictions.

    ``stats``, the statistics of ``test``'s targets, are computed when not
    given.  The correlation comes from the centred sums, clipped to
    [−1, 1]."""
    stats = target_stats(test.targets) if stats is None else stats
    preds = predict(theta, test.features)
    n = preds.shape[0]
    resid = preds - test.targets
    ss_res = float(resid @ resid)
    mse = ss_res / n
    r2 = 1.0 - ss_res / stats.ss_tot if stats.ss_tot > 0.0 else 0.0
    risk = wp_empirical_1d(preds, stats.sample, 2.0)
    centred = preds - preds.mean()
    ss_pred = float(centred @ centred)
    if math.sqrt(ss_pred / n) <= 1e-15 or stats.std <= 1e-15:
        return EvalMetrics(mse, r2, 0.0, False, risk)
    corr = float(centred @ stats.centred) / math.sqrt(ss_pred * stats.ss_tot)
    return EvalMetrics(mse, r2, min(1.0, max(-1.0, corr)), True, risk)
