"""Closed-form output transport risks and regret for Gaussian task pairs.

Setting: source and target tasks are joint Gaussian laws over the same
input space, each solved exactly by its population least-squares affine
model.  Reusing the source model on the target task pushes the target
input law through the *source* model, producing an intermediate output
law that differs from the optimal target output law.  The divergence
between those two laws is the output transport risk; this module
evaluates it in closed form, split into

    total = variance term (covariance mismatch) + bias term (mean mismatch)

for three scenarios:

* basic case          -- same input and output spaces (scalar output);
* feature augmentation -- target inputs extend source inputs by k new
  coordinates, the natural input transport being the projection that
  drops them.  The projection kills the bias term identically.
* output augmentation -- target outputs stack the source outputs with a
  new k-dimensional prediction task, initialized by a caller-chosen
  affine model for the new block.

The basic case also carries the regret identity: the excess target loss
from reusing the source model equals the squared-W2 risk plus an
angular residual, which is nonnegative by Cauchy-Schwarz, so the
Wasserstein risk is always a lower bound on regret and can prescreen
source tasks without fitting anything.

``output_laws`` builds the two output laws of any of the three pairs:
the output-augmentation report carries them, and ``--verify`` hands
them to its oracles.  The output-augmentation closed form *is* the
generic split (``kl_split``, ``w2_split`` in ``gaussian``) on those
laws.  The scalar closed forms of the other two cases are cross-checked
in the test suite against the same generic divergences on explicitly
constructed pushforward laws, and against the sampling and cubature
oracles in ``mc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePushforward,
    DimensionMismatch,
    InconsistentAugmentation,
    SingularIntermediateCovariance,
    SingularReference,
)
from .gaussian import (
    AffineModel,
    GaussianDist,
    GaussianJointTask,
    RiskSplit,
    cholesky_with_jitter,
    explained_variance,
    fit_optimal_affine,
    kl_split,
    optimal_weight,
    pushforward_affine,
    w2_split,
)

DEGENERATE_VARIANCE_TOL = 1e-14

KL = "kl"
WASSERSTEIN = "w"
_VARIANTS = (KL, WASSERSTEIN)


def convex_rate(x: float) -> float:
    """h(x) = ½(x − log x − 1): the KL cost of a variance ratio x.

    Strictly convex on (0, ∞) with minimum 0 at x = 1.  Near x = 1 the
    naive expression cancels catastrophically (x − log x − 1 ≈ u²/2 for
    u = x − 1), exactly where the zero-risk tests concentrate, so
    |u| < 1e-4 switches to the series u²/2 − u³/3 + u⁴/4 (truncation
    error below 1e-21 there) and the direct branch evaluates
    u − log1p(u) rather than lose the leading digits to x − 1.  That u is
    exact for x ≥ 0.5; below, it would drop the low bits of x (and round
    to −1 for x ≲ 5.6e-17, where log1p fails), so x < 0.5 evaluates
    ½(x − 1 − log x), where log x dominates.
    """
    if x < 0.0:
        raise ValueError(f"variance ratio must be nonnegative, got {x}")
    if x == 0.0:
        return math.inf
    if x < 0.5:
        return 0.5 * (x - 1.0 - math.log(x))
    u = x - 1.0
    if abs(u) < 1e-4:
        return 0.5 * (u * u / 2.0 - u ** 3 / 3.0 + u ** 4 / 4.0)
    return 0.5 * (u - math.log1p(u))


class RegretSplit(NamedTuple):
    regret: float
    variance_term: float
    bias_term: float


class RegretIdentity(NamedTuple):
    regret: float
    risk_w: float
    residual: float


@dataclass(frozen=True)
class BasicCasePair:
    """Source/target joint tasks on the same input space, scalar output."""

    source: GaussianJointTask
    target: GaussianJointTask

    def __post_init__(self):
        if self.source.dim_y != 1 or self.target.dim_y != 1:
            raise DimensionMismatch("basic case requires scalar outputs")
        if self.source.dim_x != self.target.dim_x:
            raise DimensionMismatch(
                f"input dims differ: {self.source.dim_x} vs {self.target.dim_x}")


def _basic_quadratics(pair: BasicCasePair) -> tuple[float, float, float]:
    """(numerator, denominator, mean gap) shared by all basic-case forms.

    numerator   = Σ_TYX Σ_TX⁻¹ Σ_TXY          (target model output variance)
    denominator = w_Sᵀ Σ_TX w_S               (source model variance on target inputs)
    mean gap    = μ_TY − μ_SY − w_Sᵀ (μ_TX − μ_SX)
    """
    src, tgt = pair.source, pair.target
    w_s = optimal_weight(src.cov_x, src.cov_xy)[:, 0]
    numerator = explained_variance(tgt.cov_x, tgt.cov_xy)
    denominator = max(float(w_s @ tgt.cov_x @ w_s), 0.0)
    gap = float(tgt.mean_y[0] - src.mean_y[0] - w_s @ (tgt.mean_x - src.mean_x))
    return numerator, denominator, gap


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _scalar_split(target_var: float, inter_var: float, gap: float,
                  variant: str, inputs: str = "target") -> RiskSplit:
    """Risk between the scalar laws N(μ + gap, target_var) and
    N(μ, inter_var), both variances ≥ 0, split variance + bias.

    KL: h(target_var/inter_var) + gap²/(2·inter_var); inter_var ≤ 1e-14
    raises DegeneratePushforward, since the target law then has no
    density against the intermediate one.  ``inputs`` names the inputs
    the intermediate law is taken on, for that message.  W:
    (√inter_var − √target_var)² + gap², defined for degenerate laws too.
    """
    if variant == KL:
        if inter_var <= DEGENERATE_VARIANCE_TOL:
            raise DegeneratePushforward(
                f"source model output has (near-)zero variance on {inputs} inputs; "
                "no density to compare against")
        variance = convex_rate(target_var / inter_var)
        bias = gap * gap / (2.0 * inter_var)
    else:
        variance = (math.sqrt(inter_var) - math.sqrt(target_var)) ** 2
        bias = gap * gap
    return RiskSplit(variance + bias, variance, bias)


def basic_output_risk_kl(pair: BasicCasePair) -> RiskSplit:
    """KL output risk of reusing the source model, split variance + bias:
    h(numerator/denominator) + gap²/(2·denominator).  A zero numerator
    (uncorrelated target) yields +∞, matching the point-mass limit.
    """
    return _scalar_split(*_basic_quadratics(pair), KL)


def basic_output_risk_w(pair: BasicCasePair) -> RiskSplit:
    """Squared-W2 output risk of reusing the source model, split variance
    + bias: (√denominator − √numerator)² + gap²."""
    return _scalar_split(*_basic_quadratics(pair), WASSERSTEIN)


def regret_closed_form(pair: BasicCasePair) -> RegretSplit:
    """Excess target loss of the source model over the target optimum.

    regret = ‖Σ_TX^{1/2}(w_T − w_S)‖² + gap², always ≥ 0, zero exactly
    when the two optimal weights coincide and the mean gap vanishes.
    """
    src, tgt = pair.source, pair.target
    w_s = fit_optimal_affine(src).weight[0]
    w_t = fit_optimal_affine(tgt).weight[0]
    _, _, gap = _basic_quadratics(pair)
    diff = w_t - w_s
    variance = float(diff @ tgt.cov_x @ diff)
    bias = gap * gap
    return RegretSplit(variance + bias, variance, bias)


def regret_risk_identity(pair: BasicCasePair) -> RegretIdentity:
    """Decompose regret as squared-W2 risk plus an angular residual.

    residual = 2(‖a‖‖b‖ − ⟨a, b⟩) with a = Lᵀw_T and b = Lᵀw_S for the
    Cholesky factor L of Σ_TX, so that ‖a‖² = w_TᵀΣ_TX w_T and
    ⟨a, b⟩ = w_TᵀΣ_TX w_S.  It is ≥ 0 by Cauchy-Schwarz and vanishes
    exactly when a and b are parallel with nonnegative inner product.
    Hence risk_w ≤ regret: the W2 risk prescreens without ever being
    optimistic about regret.
    """
    src, tgt = pair.source, pair.target
    w_s = fit_optimal_affine(src).weight[0]
    w_t = fit_optimal_affine(tgt).weight[0]
    chol = cholesky_with_jitter(tgt.cov_x)
    a = chol.T @ w_t
    b = chol.T @ w_s
    residual = 2.0 * (float(np.linalg.norm(a) * np.linalg.norm(b)) - float(a @ b))
    regret = regret_closed_form(pair).regret
    risk_w = basic_output_risk_w(pair).total
    return RegretIdentity(regret, risk_w, residual)


@dataclass(frozen=True)
class FeatureAugmentedPair:
    """Target inputs extend source inputs by k trailing coordinates.

    The natural input transport is the projection onto the first d
    coordinates, under which the target task restricted to those
    coordinates *is* the source task.  That consistency is checked
    eagerly: the restricted mean/covariance blocks must equal the
    source blocks exactly, since the closed forms silently assume it.
    """

    source: GaussianJointTask
    target: GaussianJointTask

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src.dim_y != 1 or tgt.dim_y != 1:
            raise DimensionMismatch("feature augmentation requires scalar outputs")
        d = src.dim_x
        if tgt.dim_x <= d:
            raise DimensionMismatch(
                f"target input dim {tgt.dim_x} must exceed source input dim {d}")
        ok = (
            np.array_equal(tgt.mean_x[:d], src.mean_x)
            and np.array_equal(tgt.mean_y, src.mean_y)
            and np.array_equal(tgt.cov_x[:d, :d], src.cov_x)
            and np.array_equal(tgt.cov_xy[:d], src.cov_xy)
            and np.array_equal(tgt.cov_y, src.cov_y)
        )
        if not ok:
            raise InconsistentAugmentation(
                "target blocks restricted to the first d input coordinates "
                "must equal the source blocks")


def feature_aug_risk(pair: FeatureAugmentedPair, variant: str = KL) -> RiskSplit:
    """Output risk under feature augmentation; the bias term is 0.

    Projecting the target input reproduces the source input law
    exactly, so only the variance ratio

        ratio = (Σ_TYX Σ_TX⁻¹ Σ_TXY) / (Σ_SYX Σ_SX⁻¹ Σ_SXY)

    survives: KL risk h(ratio), W risk (√num − √den)².  The ratio is
    ≥ 1 whenever the extra coordinates are informative (adding features
    can only grow the explained output variance).  A source model that
    explains nothing (den ≤ 1e-14) leaves the KL risk undefined
    (DegeneratePushforward) and the W risk equal to num, as in the
    basic case.
    """
    _check_variant(variant)
    den = explained_variance(pair.source.cov_x, pair.source.cov_xy)
    num = explained_variance(pair.target.cov_x, pair.target.cov_xy)
    return _scalar_split(num, den, 0.0, variant, inputs="source")


def uncorrelated_aug_ratio(base_quadratic: float, aug_cov_x: np.ndarray,
                           aug_cov_xy: np.ndarray) -> float:
    """Variance ratio when the added features are uncorrelated with the old.

    With a block-diagonal input covariance the ratio collapses to

        1 + (Σ_AYX Σ_AX⁻¹ Σ_AXY) / base_quadratic,

    where base_quadratic = Σ_SYX Σ_SX⁻¹ Σ_SXY.  Exposed separately so
    the shortcut can be checked against the full computation.
    """
    if base_quadratic <= 0.0:
        raise DegeneratePushforward("base quadratic form must be positive")
    aug_cov_xy = np.asarray(aug_cov_xy, dtype=float).reshape(-1, 1)
    return 1.0 + explained_variance(np.asarray(aug_cov_x, dtype=float),
                                    aug_cov_xy) / base_quadratic


@dataclass(frozen=True)
class OutputAugmentedPair:
    """Target outputs stack the source outputs with k new components.

    The new block needs an initialization model (there is nothing to
    transfer for it); ``init_model`` maps inputs to the k new outputs.
    The target restricted to the first l output coordinates must equal
    the source task exactly, checked eagerly as in feature augmentation.
    """

    source: GaussianJointTask
    target: GaussianJointTask
    init_model: AffineModel

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src.dim_x != tgt.dim_x:
            raise DimensionMismatch("output augmentation keeps the input space fixed")
        l = src.dim_y
        if tgt.dim_y <= l:
            raise DimensionMismatch(
                f"target output dim {tgt.dim_y} must exceed source output dim {l}")
        k = tgt.dim_y - l
        if self.init_model.dim_in != src.dim_x or self.init_model.dim_out != k:
            raise DimensionMismatch(
                f"init model must map {src.dim_x} inputs to {k} new outputs")
        ok = (
            np.array_equal(tgt.mean_x, src.mean_x)
            and np.array_equal(tgt.mean_y[:l], src.mean_y)
            and np.array_equal(tgt.cov_x, src.cov_x)
            and np.array_equal(tgt.cov_xy[:, :l], src.cov_xy)
            and np.array_equal(tgt.cov_y[:l, :l], src.cov_y)
        )
        if not ok:
            raise InconsistentAugmentation(
                "target blocks restricted to the first l output coordinates "
                "must equal the source blocks")


def output_laws(pair: BasicCasePair | FeatureAugmentedPair | OutputAugmentedPair
                ) -> tuple[GaussianDist, GaussianDist]:
    """The target and intermediate output laws whose divergence is the
    output risk of ``pair``.

    Target law: target inputs pushed through the optimal target model.
    Intermediate law: the transferred model on the transported inputs,
    i.e. the optimal source model on the source inputs under feature
    augmentation (the projection of the target inputs), and on the
    target inputs otherwise; under output augmentation the transferred
    model stacks the optimal source model (first l outputs) on the
    caller's initialization (remaining k).
    """
    src, tgt = pair.source, pair.target
    target_law = pushforward_affine(fit_optimal_affine(tgt), tgt.mean_x, tgt.cov_x)
    model = fit_optimal_affine(src)
    if isinstance(pair, OutputAugmentedPair):
        model = AffineModel(np.vstack([model.weight, pair.init_model.weight]),
                            np.concatenate([model.intercept, pair.init_model.intercept]))
    inputs = src if isinstance(pair, FeatureAugmentedPair) else tgt
    return target_law, pushforward_affine(model, inputs.mean_x, inputs.cov_x)


def output_aug_risk(pair: OutputAugmentedPair, variant: str = KL) -> RiskSplit:
    """Output risk under output augmentation: the generic ``kl_split`` or
    ``w2_split`` of the target law against the intermediate law, both
    from ``output_laws(pair)``.

    The mean gap is supported entirely on the new output block: the
    transferred block contributes no bias.  The risk vanishes exactly
    when the initialization reproduces the optimal regression of the new
    outputs on the inputs.  A rank-deficient intermediate law has no
    density, so its KL raises SingularIntermediateCovariance.
    """
    _check_variant(variant)
    laws = output_laws(pair)
    if variant == WASSERSTEIN:
        return w2_split(*laws)
    try:
        return kl_split(*laws)
    except SingularReference:
        raise SingularIntermediateCovariance(
            "stacked intermediate covariance is not positive definite; "
            "the initialization must give the new block full rank") from None


def neutralizing_initialization(pair_source: GaussianJointTask,
                                aug_cov_xy: np.ndarray,
                                aug_mean_y: np.ndarray) -> AffineModel:
    """The initialization that makes the output-augmentation risk vanish.

    It is the population regression of the new outputs on the inputs:
    weight = Σ_AYX Σ_SX⁻¹, intercept = μ_AY − weight · μ_SX.  With this
    choice the stacked model equals the optimal target model, the two
    output laws coincide, and both risk variants are exactly zero.
    """
    aug_cov_xy = np.asarray(aug_cov_xy, dtype=float)
    if aug_cov_xy.ndim == 1:
        aug_cov_xy = aug_cov_xy.reshape(-1, 1)
    weight = optimal_weight(pair_source.cov_x, aug_cov_xy).T
    intercept = np.atleast_1d(np.asarray(aug_mean_y, dtype=float)) - weight @ pair_source.mean_x
    return AffineModel(weight, intercept)
