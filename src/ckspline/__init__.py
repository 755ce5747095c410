"""Smooth piecewise-polynomial curve fitting with gradient-descent optimizers.

Splines in center-shifted monomial form are trained against a blended loss
(approximation error plus derivative-jump penalty, optionally strain energy)
and any residual jumps are removed exactly afterwards by local Hermite
correctors.  See the README for the CLI.

The public names are exported lazily (PEP 562): _EXPORTS maps each one to
the module that defines it, and that module is imported on first use.  So
`import ckspline` alone imports no numpy, and the `ckspline` command's
module, cli, runs its thread-count guard before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ConditioningError": "model",
    "DomainError": "model",
    "DomainMap": "model",
    "HistoryRow": "training",
    "LossBreakdown": "losses",
    "LossConfig": "losses",
    "LossEngine": "losses",
    "NonFiniteGradientError": "optimizers",
    "OptimizerConfig": "optimizers",
    "OptimizerState": "optimizers",
    "RepairReport": "repair",
    "SampleSet": "model",
    "SplineModel": "model",
    "TrainConfig": "training",
    "TrainingReport": "training",
    "apply_regularization": "training",
    "ck_loss": "losses",
    "eval_segment": "model",
    "evaluate": "model",
    "fd_gradient": "losses",
    "fit": "training",
    "fit_sweep": "training",
    "gradient": "losses",
    "init_state": "optimizers",
    "l2_loss": "losses",
    "least_squares_init": "training",
    "load_model": "cli",
    "load_samples": "cli",
    "make_scaled_problem": "training",
    "rebase": "model",
    "regularization_vector": "training",
    "repair_continuity": "repair",
    "save_model": "cli",
    "segment_index": "model",
    "step": "optimizers",
    "strain_loss": "losses",
    "total_loss": "losses",
    "two_point_hermite": "repair",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
