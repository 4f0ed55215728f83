"""Streaming sparse Gaussian process regression.

Inducing-point GP models (SoR / DTC / FITC / VFE / PEP) trained online by
Kalman-style recursive updates of the posterior over inducing outputs,
with hyper-parameters and inducing inputs learned by stochastic gradient
steps on a recursively accumulated collapsed lower bound.
"""

__version__ = "0.1.0"

from .batch import batch_bound
from .data import (
    Dataset,
    coverage,
    default_hyperparameters,
    generate_gp_data,
    load_dataset,
    rmse,
    save_dataset,
    simulate_cstr,
)
from .errors import (
    ContractViolationError,
    DataError,
    IllConditionedError,
    NumericalError,
    StreamGPError,
    ToleranceError,
)
from .inference import (
    PARAM_STANDARD,
    PARAM_TRANSFORMED,
    MiniBatch,
    PosteriorState,
    PredictiveDistribution,
    init_state,
    predict,
    split_into_batches,
    update,
)
from .kernel import Hyperparameters
from .model import ModelSpec
from .optimizer import (
    AdamState,
    FitResult,
    TrainConfig,
    TraceRecord,
    adam_step,
    fixed_theta_pass,
    init_inducing_subset,
    srgp_fit,
)

__all__ = [
    "AdamState",
    "ContractViolationError",
    "DataError",
    "Dataset",
    "FitResult",
    "Hyperparameters",
    "IllConditionedError",
    "MiniBatch",
    "ModelSpec",
    "NumericalError",
    "PARAM_STANDARD",
    "PARAM_TRANSFORMED",
    "PosteriorState",
    "PredictiveDistribution",
    "StreamGPError",
    "ToleranceError",
    "TraceRecord",
    "TrainConfig",
    "adam_step",
    "batch_bound",
    "coverage",
    "default_hyperparameters",
    "fixed_theta_pass",
    "generate_gp_data",
    "init_inducing_subset",
    "init_state",
    "load_dataset",
    "predict",
    "rmse",
    "save_dataset",
    "simulate_cstr",
    "split_into_batches",
    "srgp_fit",
    "update",
]
