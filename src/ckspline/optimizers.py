"""First-order update rules over coefficient matrices.

Four families: SGD (plain, classical momentum, Nesterov), Adam, Adamax, and
AMSGrad.  One OptimizerState per training run; step() mutates the state and
the coefficient matrix in place and is fully deterministic.  step() checks
the gradient and then runs _update(), which checks nothing; the training
loop, which has tested the gradient already, calls _update() directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import OPTIMIZER_KINDS

__all__ = [
    "OPTIMIZER_KINDS",
    "NonFiniteGradientError",
    "OptimizerConfig",
    "OptimizerState",
    "init_state",
    "step",
]


class NonFiniteGradientError(ArithmeticError):
    """A gradient entry was NaN or infinite; the run has diverged."""

    def __init__(self, segment: int, power: int):
        self.segment = segment
        self.power = power
        super().__init__(f"non-finite gradient at segment {segment}, power {power}")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"
    learning_rate: float = 0.1
    momentum: float = 0.0
    nesterov: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer kind must be one of {OPTIMIZER_KINDS}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.nesterov and self.momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")


@dataclass(eq=False)
class OptimizerState:
    """Per-coefficient slot arrays; only the slots the kind needs are allocated."""

    step_count: int = 0
    velocity: np.ndarray | None = None
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    max_second_moment: np.ndarray | None = None
    inf_norm: np.ndarray | None = None


def init_state(config: OptimizerConfig, shape) -> OptimizerState:
    state = OptimizerState()
    if config.kind == "sgd":
        state.velocity = np.zeros(shape)
    else:
        state.first_moment = np.zeros(shape)
        if config.kind in ("adam", "amsgrad"):
            state.second_moment = np.zeros(shape)
        if config.kind == "amsgrad":
            state.max_second_moment = np.zeros(shape)
        if config.kind == "adamax":
            state.inf_norm = np.zeros(shape)
    return state


def _first_non_finite(grads: np.ndarray) -> tuple[int, int] | None:
    """(1-based segment, power) of the first NaN or infinite entry, else None.

    Segment and power are the last two axes; a 1-D gradient is one segment.
    """
    finite = np.isfinite(grads)
    if finite.all():
        return None
    index = np.unravel_index(int(np.flatnonzero(~finite)[0]), grads.shape)
    row, col = ((0, 0) + index)[-2:]
    return int(row) + 1, int(col)


def step(state: OptimizerState, config: OptimizerConfig,
         coefficients: np.ndarray, gradients: np.ndarray) -> None:
    """Apply exactly one update in place and advance the step counter.

    Checks the gradient's shape and finiteness first, then runs _update,
    which checks nothing.
    """
    grads = np.asarray(gradients, dtype=float)
    if grads.shape != coefficients.shape:
        raise ValueError(
            f"gradient shape {grads.shape} does not match coefficients {coefficients.shape}"
        )
    location = _first_non_finite(grads)
    if location is not None:
        raise NonFiniteGradientError(*location)
    _update(state, config, coefficients, grads)


def _update(state: OptimizerState, config: OptimizerConfig,
            coefficients: np.ndarray, grads: np.ndarray) -> None:
    """step() without its checks: grads must be a finite float array shaped like coefficients."""
    state.step_count += 1
    t = state.step_count
    lr = config.learning_rate

    if config.kind == "sgd":
        vel = state.velocity
        vel *= config.momentum
        vel -= lr * grads
        if config.nesterov:
            coefficients += config.momentum * vel - lr * grads
        else:
            coefficients += vel
        return

    m1 = state.first_moment
    m1 *= config.beta1
    m1 += (1.0 - config.beta1) * grads

    if config.kind == "adamax":
        norm = state.inf_norm
        np.maximum(config.beta2 * norm, np.abs(grads), out=norm)
        coefficients -= (lr / (1.0 - config.beta1**t)) * m1 / (norm + config.epsilon)
        return

    m2 = state.second_moment
    m2 *= config.beta2
    m2 += (1.0 - config.beta2) * grads * grads
    m1_hat = m1 / (1.0 - config.beta1**t)
    m2_hat = m2 / (1.0 - config.beta2**t)
    if config.kind == "amsgrad":
        np.maximum(state.max_second_moment, m2_hat, out=state.max_second_moment)
        m2_hat = state.max_second_moment
    # epsilon sits outside the square root
    coefficients -= lr * m1_hat / (np.sqrt(m2_hat) + config.epsilon)
