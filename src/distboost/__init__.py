"""Regularized tree boosting for distribution parameters.

Fits one additive tree ensemble per parameter of a parametric response
distribution by minimizing the total negative log-likelihood, using a
blended first/second-order expansion with clipped hessians and gradients
so that the loss only needs per-coordinate unimodality, not convexity.
Ships the insurance-pricing losses (gamma severity, zero-inflated Poisson
and negative binomial claim frequency with exposure and deductible
adjustment), synthetic data generation, model persistence, NLL evaluation,
and a CLI.
"""

from .booster import (
    BoostedModel,
    ParamEnsemble,
    ParamTrainConfig,
    RoundRecord,
    TrainResult,
    clamp_to_domain,
    clip_gradient,
    effective_hessian,
    train,
)
from .dataset import (
    Dataset,
    PiecewiseParamMap,
    generate_synthetic,
    load_csv,
    read_table,
    split_holdout,
    write_csv,
    write_table,
)
from .errors import (
    DataError,
    DistboostError,
    ModelFormatError,
    NumericError,
    TrainingError,
    ValidationError,
)
from .evaluate import EvalReport, nll_score
from .losses import (
    AdmissibilityReport,
    Loss,
    ParameterDomain,
    SliceReport,
    check_admissibility,
    double_well,
    gamma_nll,
    log_gamma,
    loss_names,
    make_loss,
    negbin_nll,
    squared_error,
    zip_nll,
)
from .model_io import load, save
from .tree import (
    RegressionTree,
    TreeParams,
    build_tree,
    leaf_score,
    leaf_weight,
    presort_features,
)

__version__ = "0.1.0"
