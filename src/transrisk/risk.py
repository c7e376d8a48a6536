"""Transfer-risk combiners, task metrics, and continuity probes.

A transfer candidate is summarized by two nonnegative numbers: the
input risk (how far the transported target inputs are from the source
inputs) and the output risk (how far the intermediate model's outputs
are from the optimal target outputs).  A combiner folds the pair into a
single prescreening score; it must vanish at (0, 0) and be monotone in
each component, so minimizing it over candidate models with a shared
input transport reduces to minimizing the output risk alone.

Two combiner families are provided: the linear form E^O + λ·E^I and a
nonnegative second-order polynomial.  ``OFFICE31_COMBINER`` pins the
polynomial coefficients (0.31 on the input risk, 0.92 on the squared
output risk) fitted on the Office-31 image-domain benchmark, together
with the six published (input risk, output risk, combined risk) rows in
``OFFICE31_TABLE`` for regression-testing the combiner.

The continuity probes quantify, for concrete Gaussian basic-case pairs,
how the Wasserstein transfer risk responds to small perturbations of
the source input distribution and of the pretrained model weights; the
observed ratios stay bounded as the perturbation shrinks, which is what
makes the risk usable for prescreening nearby source tasks.  Only the
probes compute Gaussian risks, so they import ``gauss_transfer`` and
``gaussian`` when they run, and a caller that only combines risk pairs
(``office-table``) does not load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .gauss_transfer import BasicCasePair
    from .gaussian import AffineModel
    from .mc import SeededStream


@dataclass(frozen=True)
class RiskPair:
    """(input risk, output risk); transfers never have negative effort."""

    input_risk: float
    output_risk: float

    def __post_init__(self):
        if not (self.input_risk >= 0.0) or not (self.output_risk >= 0.0):
            raise ValidationError(
                f"risks must be nonnegative, got ({self.input_risk}, {self.output_risk})")


@dataclass(frozen=True)
class PolyCombiner:
    """Second-order polynomial combiner with nonnegative coefficients.

    score = cI·E^I + cII·(E^I)² + cO·E^O + cOO·(E^O)².  Nonnegative
    coefficients keep the score monotone in each risk, which is what a
    combiner must satisfy.
    """

    coef_input: float
    coef_output_sq: float
    coef_output: float = 0.0
    coef_input_sq: float = 0.0

    def __post_init__(self):
        coefs = (self.coef_input, self.coef_output_sq, self.coef_output, self.coef_input_sq)
        if not all(c >= 0.0 for c in coefs):  # NaN fails here too
            raise ValidationError(f"combiner coefficients must be nonnegative, got {coefs}")


#: Polynomial combiner fitted on the Office-31 benchmark.
OFFICE31_COMBINER = PolyCombiner(coef_input=0.31, coef_output_sq=0.92)

#: Published Office-31 rows: (pair, input risk, output risk, combined risk).
#: Domains: A = Amazon, D = DSLR, W = Webcam.  Combined-risk entries are
#: rounded to three decimals in the published table.
OFFICE31_TABLE = (
    ("A-W", 0.181, 0.428, 0.224),
    ("A-D", 0.263, 0.380, 0.214),
    ("W-A", 0.181, 0.545, 0.330),
    ("W-D", 0.148, 0.084, 0.052),
    ("D-A", 0.263, 0.543, 0.353),
    ("D-W", 0.148, 0.412, 0.201),
)

OFFICE31_TABLE_TOL = 0.0025  # published rounding: half of 5e-3, plus slack


def linear_risk(pair: RiskPair, lam: float = 1.0) -> float:
    """E^O + λ·E^I for λ > 0 (λ defaults to 1 when a caller has no view)."""
    if not lam > 0.0:
        raise ValidationError(f"lambda must be positive, got {lam}")
    return pair.output_risk + lam * pair.input_risk


def poly_risk(pair: RiskPair, combiner: PolyCombiner = OFFICE31_COMBINER) -> float:
    """Evaluate a polynomial combiner on a risk pair."""
    ei, eo = pair.input_risk, pair.output_risk
    return (combiner.coef_input * ei + combiner.coef_input_sq * ei * ei
            + combiner.coef_output * eo + combiner.coef_output_sq * eo * eo)


def combine(pair: RiskPair, combiner_or_lambda) -> float:
    """Dispatch on combiner type: PolyCombiner or a positive λ (linear)."""
    if isinstance(combiner_or_lambda, PolyCombiner):
        return poly_risk(pair, combiner_or_lambda)
    return linear_risk(pair, float(combiner_or_lambda))


class MinRisk(NamedTuple):
    value: float
    model_id: object


def min_risk_over_set(entries: Sequence[tuple[object, RiskPair]],
                      combiner_or_lambda) -> MinRisk:
    """Minimum combined risk over candidate intermediate models.

    ``entries`` are (model id, RiskPair).  Ties break to the first
    entry in input order, deterministically.  With equal input risks
    across the set, the argmin coincides with the argmin of the output
    risk alone, by monotonicity of any combiner.
    """
    if len(entries) == 0:
        raise ValidationError("need at least one candidate model")
    best_value = math.inf
    best_id = None
    for model_id, pair in entries:
        value = combine(pair, combiner_or_lambda)
        if value < best_value:
            best_value = value
            best_id = model_id
    return MinRisk(best_value, best_id)


def affine_sup_distance(f1: AffineModel, f2: AffineModel, saturation: float) -> float:
    """Saturated sup-distance min{M, sup_x ‖f1(x) − f2(x)‖} between affine maps.

    Over an unbounded domain the sup is infinite whenever the weights
    differ, so the metric saturates at M; with equal weights (within
    1e-12) it is the constant intercept gap, capped at M.
    """
    if not saturation > 0.0:
        raise ValidationError(f"saturation must be positive, got {saturation}")
    if f1.weight.shape != f2.weight.shape or f1.intercept.shape != f2.intercept.shape:
        raise ValidationError("models must share dimensions")
    if float(np.max(np.abs(f1.weight - f2.weight))) > 1e-12:
        return saturation
    return min(saturation, float(np.linalg.norm(f1.intercept - f2.intercept)))


def source_task_distance(input_distance: float, model_distance: float) -> float:
    """Distance between pretrained source tasks: input-law metric plus
    saturated model metric.  Both components come from genuine metrics
    (e.g. the square root of the squared-W2, and affine_sup_distance),
    so the sum is one too."""
    if not input_distance >= 0.0:  # NaN fails here too
        raise ValidationError(f"input distance must be nonnegative, got {input_distance}")
    return input_distance + model_distance


# --- continuity probes -------------------------------------------------

def continuity_probe_input(pair: BasicCasePair, delta: float, trials: int,
                           stream: SeededStream) -> float:
    """Sensitivity of the W2 transfer risk to the source input mean.

    Shifts the source input mean by ``trials`` random directions of
    norm ``delta``, recomputes the closed-form W2 risk, and returns the
    largest |Δrisk| / D over the trials, where D is the W2 distance
    between original and shifted source input marginals (= ‖Δμ‖ for a
    pure mean shift).  delta = 0 returns 0.  The ratio stays within a
    constant band as delta walks down a ladder, witnessing continuity.
    """
    if delta < 0.0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return 0.0
    if trials < 1:
        raise ValidationError("need at least one trial")
    from .gauss_transfer import BasicCasePair, basic_output_risk_w
    from .gaussian import GaussianJointTask, w2_gaussian_sq

    src = pair.source
    base = basic_output_risk_w(pair).total
    d = src.dim_x
    source_inputs = src.input_marginal()
    worst = 0.0
    for k in range(trials):
        direction = stream.substream(k).normals(d)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        shift = direction * (delta / norm)
        mean = np.concatenate([src.mean_x + shift, src.mean_y])
        moved = BasicCasePair(GaussianJointTask(src.dim_x, src.dim_y, mean, src.cov),
                              pair.target)
        risk = basic_output_risk_w(moved).total
        input_distance = math.sqrt(w2_gaussian_sq(moved.source.input_marginal(),
                                                  source_inputs))
        worst = max(worst, abs(risk - base) / input_distance)
    return worst


def continuity_probe_model(pair: BasicCasePair, delta: float, trials: int,
                           stream: SeededStream) -> float:
    """Sensitivity of the W2 transfer risk to the pretrained weights.

    Perturbs each source-model weight entry by up to ±delta, recomputes
    the risk of the perturbed model directly (pushforward of the target
    input law vs. the optimal target output law), and returns the
    largest |Δrisk|.  delta = 0 returns 0.  At a zero-risk base pair the
    change is nonnegative for every perturbation: the risk is minimized
    at the unperturbed model.
    """
    if delta < 0.0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    if delta == 0.0:
        return 0.0
    if trials < 1:
        raise ValidationError("need at least one trial")
    from .gauss_transfer import output_laws
    from .gaussian import AffineModel, fit_optimal_affine, pushforward_affine, w2_gaussian_sq

    target_inputs = pair.target.input_marginal()
    source_model = fit_optimal_affine(pair.source)
    target_law = output_laws(pair)[0]

    def risk_of(model: AffineModel) -> float:
        return w2_gaussian_sq(pushforward_affine(model, target_inputs), target_law)

    base = risk_of(source_model)
    d = source_model.dim_in
    worst = 0.0
    for k in range(trials):
        bump = (2.0 * stream.substream(k).uniforms(d) - 1.0) * delta
        perturbed = AffineModel(source_model.weight + bump.reshape(1, -1),
                                source_model.intercept)
        worst = max(worst, abs(risk_of(perturbed) - base))
    return worst
