"""Streaming sparse Gaussian process regression.

Inducing-point GP models (SoR / DTC / FITC / VFE / PEP) trained online by
Kalman-style recursive updates of the posterior over inducing outputs,
with hyper-parameters and inducing inputs learned by stochastic gradient
steps on a recursively accumulated collapsed lower bound.
"""

__version__ = "0.1.0"

import ctypes

from .batch import BatchBoundReport, batch_bound, fd_gradient
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
from .gradients import GradientState
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
    "BatchBoundReport",
    "ContractViolationError",
    "DataError",
    "Dataset",
    "FitResult",
    "GradientState",
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
    "fd_gradient",
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

# A training step allocates temporaries of 0.1-5 MB per call.  glibc maps
# each block above its mmap threshold (128 KiB until a larger mapped block
# is freed) anew and returns heap tops above its trim threshold, so every
# step would fault in their pages again (444 minor faults per step at
# D = 5, M = 50, B = 256).  Where the C library has mallopt, both are fixed
# at the ceiling of glibc's dynamic mmap threshold (32 MiB) and twice that
# instead.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    del _mallopt
