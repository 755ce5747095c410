"""Smooth piecewise-polynomial curve fitting with gradient-descent optimizers.

Splines in center-shifted monomial form are trained against a blended loss
(approximation error plus derivative-jump penalty, optionally strain energy)
and any residual jumps are removed exactly afterwards by local Hermite
correctors.  See the README for the CLI.
"""

from .cli import load_model, load_samples, save_model
from .losses import (
    LossBreakdown,
    LossConfig,
    LossEngine,
    ck_loss,
    fd_gradient,
    gradient,
    l2_loss,
    strain_loss,
    total_loss,
)
from .model import (
    DomainError,
    DomainMap,
    SampleSet,
    SplineModel,
    eval_segment,
    evaluate,
    rebase,
    segment_index,
)
from .optimizers import (
    NonFiniteGradientError,
    OptimizerConfig,
    OptimizerState,
    init_state,
    step,
)
from .repair import ConditioningError, RepairReport, repair_continuity, two_point_hermite
from .training import (
    HistoryRow,
    TrainConfig,
    TrainingReport,
    apply_regularization,
    fit,
    fit_sweep,
    least_squares_init,
    make_scaled_problem,
    regularization_vector,
)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError",
    "DomainError",
    "DomainMap",
    "HistoryRow",
    "LossBreakdown",
    "LossConfig",
    "LossEngine",
    "NonFiniteGradientError",
    "OptimizerConfig",
    "OptimizerState",
    "RepairReport",
    "SampleSet",
    "SplineModel",
    "TrainConfig",
    "TrainingReport",
    "apply_regularization",
    "ck_loss",
    "eval_segment",
    "evaluate",
    "fd_gradient",
    "fit",
    "fit_sweep",
    "gradient",
    "init_state",
    "l2_loss",
    "least_squares_init",
    "load_model",
    "load_samples",
    "make_scaled_problem",
    "rebase",
    "regularization_vector",
    "repair_continuity",
    "save_model",
    "segment_index",
    "step",
    "strain_loss",
    "total_loss",
    "two_point_hermite",
]
