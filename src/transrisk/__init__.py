"""Transfer risk, regret, and transfer-learning solvers for Gaussian and
linear task pairs, verified against independent sampling and cubature oracles."""

__version__ = "0.1.0"

from .gaussian import (
    AffineModel,
    GaussianDist,
    GaussianJointTask,
    compose_affine,
    fit_optimal_affine,
    kl_gaussian,
    pushforward_affine,
    w2_gaussian_sq,
)
from .divergence import (
    DiscreteDist,
    EmpiricalSample1D,
    cross_entropy,
    cross_entropy_gap_bounds,
    entropy,
    output_bound_check,
    talagrand_diagnostic,
    wp_empirical_1d,
)
from .risk import (
    OFFICE31_COMBINER,
    OFFICE31_TABLE,
    PolyCombiner,
    RiskPair,
    affine_sup_distance,
    continuity_probe_input,
    continuity_probe_model,
    linear_risk,
    min_risk_over_set,
    poly_risk,
    source_task_distance,
)
from .gauss_transfer import (
    BasicCasePair,
    FeatureAugmentedPair,
    OutputAugmentedPair,
    basic_output_risk_kl,
    basic_output_risk_w,
    feature_aug_risk,
    neutralizing_initialization,
    output_aug_risk,
    regret_closed_form,
    regret_risk_identity,
    uncorrelated_aug_ratio,
)
from .signature import (
    PiecewisePath,
    TruncatedSignature,
    chen_product,
    signature_dim,
    signature_of_path,
    windowed_signature_features,
    word_labels,
)
from .regression import (
    RegressionDataset,
    Standardizer,
    evaluate,
    pretrain_source,
    ridge_fit,
    transfer_output_risk,
)
from .portfolio import (
    Portfolio,
    ReturnsDataset,
    estimate_moments,
    prescreen_risk_w2,
    project_simplex,
    sharpe_optimize,
    sharpe_ratio,
)
from .mc import (
    SeededStream,
    cubature,
    kl_quadrature_1d,
    loss_gap_cubature,
    mc_w2_1d,
    sample_joint,
)
