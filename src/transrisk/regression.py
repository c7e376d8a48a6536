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

Evaluation reports mean squared error, R², and the Pearson correlation
between predictions and realized targets; the correlation is flagged
undefined (and reported as 0) when either side is constant.

``signature_dataset`` builds the datasets the return-prediction
pipelines fit: windowed signature features of a log price and volume
path, each paired with the next period's log return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import wp_empirical_1d
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


class Standardizer:
    """Column-wise (x − mean)/std transform learned from a training split.

    Constant columns (std below 1e-12) are dropped; ``kept`` records the
    surviving column mask so the same columns can be selected from any
    later split.  Statistics are learned once and reused, never refit on
    test data.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValidationError("standardizer needs a nonempty 2-D array")
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        self.kept = std > 1e-12
        self.mean = mean[self.kept]
        self.std = std[self.kept]

    @property
    def n_kept(self) -> int:
        return int(self.kept.sum())

    def transform(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        if data.shape[1] != self.kept.shape[0]:
            raise ValidationError(
                f"expected {self.kept.shape[0]} columns, got {data.shape[1]}")
        return (data[:, self.kept] - self.mean) / self.std


def ridge_fit(data: RegressionDataset, lam: float,
              anchor: np.ndarray | None = None) -> np.ndarray:
    """Unique minimizer of the penalized least-squares objective.

    Solves (X'X/T + λI)θ = X'y/T + λ·anchor by Cholesky; anchor = 0
    recovers plain ridge.  The anchor, when given, must have one entry
    per feature.
    """
    if not lam > 0.0:
        raise ValidationError(f"lambda must be positive, got {lam}")
    x = data.features
    t, d = x.shape
    if anchor is None:
        anchor = np.zeros(d)
    else:
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (d,):
            raise ValidationError(f"anchor must have length {d}, got {anchor.shape}")
    lhs = x.T @ x / t + lam * np.eye(d)
    rhs = x.T @ data.targets / t + lam * anchor
    theta = chol_solve(cholesky_with_jitter(lhs), rhs)
    residual = float(np.linalg.norm(lhs @ theta - rhs))
    scale = max(float(np.linalg.norm(rhs)), 1e-30)
    if residual > 1e-8 * scale:
        raise ValidationError(
            f"normal equations solved to relative residual {residual / scale:.3e} only")
    return theta


class TransferFit(NamedTuple):
    """Direct and anchored fits of one target; ``test`` and the metrics
    on it are in units of the target-train standardization."""

    direct: np.ndarray
    transfer: np.ndarray
    test: RegressionDataset
    y_mean: float
    y_std: float


def _standardized(fit: RegressionDataset, *others: RegressionDataset):
    """``fit`` and ``others`` standardized by ``fit``'s column and target
    statistics; a target std at or below 1e-12 is taken as 1."""
    columns = Standardizer(fit.features)
    y_mean = float(fit.targets.mean())
    y_std = float(fit.targets.std())
    if y_std <= 1e-12:
        y_std = 1.0
    return columns, y_mean, y_std, [
        RegressionDataset(columns.transform(d.features), (d.targets - y_mean) / y_std)
        for d in (fit, *others)]


def ridge_transfer(source: RegressionDataset, train: RegressionDataset,
                   test: RegressionDataset, lam_source: float = DEFAULT_SOURCE_LAMBDA,
                   lam_transfer: float = DEFAULT_TRANSFER_LAMBDA) -> TransferFit:
    """Standardize, pretrain on the pooled source, then fit the target
    directly and anchored to the pretrained parameter.

    The source is standardized by its own statistics, the target train
    and test sets by the target train's.  The anchor is plain ridge on the
    pooled source; the direct fit uses ``lam_source``.
    """
    src_columns, _, _, (source_std,) = _standardized(source)
    tgt_columns, y_mean, y_std, (train_std, test_std) = _standardized(train, test)
    if src_columns.n_kept != tgt_columns.n_kept:
        raise ValidationError(
            "source and target standardizers dropped different feature columns")
    return TransferFit(
        ridge_fit(train_std, lam_source),
        ridge_fit(train_std, lam_transfer, anchor=ridge_fit(source_std, lam_source)),
        test_std, y_mean, y_std)


def predict(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Apply a fitted parameter, one entry per feature column."""
    features = np.asarray(features, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != features.shape[1]:
        raise ValidationError(
            f"parameter length {theta.shape[0]} does not fit {features.shape[1]} features")
    return features @ theta


class EvalMetrics(NamedTuple):
    mse: float
    r2: float
    corr: float
    corr_defined: bool


def evaluate(theta: np.ndarray, test: RegressionDataset) -> EvalMetrics:
    """MSE, R², and prediction/target correlation on a held-out set."""
    preds = predict(theta, test.features)
    resid = preds - test.targets
    mse = float(np.mean(resid ** 2))
    ss_tot = float(np.sum((test.targets - test.targets.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 0.0
    sp = float(np.std(preds))
    st = float(np.std(test.targets))
    if sp <= 1e-15 or st <= 1e-15:
        return EvalMetrics(mse, r2, 0.0, False)
    corr = float(np.corrcoef(preds, test.targets)[0, 1])
    return EvalMetrics(mse, r2, corr, True)


def transfer_output_risk(theta: np.ndarray, test: RegressionDataset) -> float:
    """Empirical output transport cost of a fitted model on a test set.

    W_2^2 between the empirical law of predictions and the empirical law
    of realized targets (label-anchored surrogate for the unobservable
    optimal-output law).
    """
    return wp_empirical_1d(predict(theta, test.features), test.targets, 2.0)
