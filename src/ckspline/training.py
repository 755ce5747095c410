"""Full-batch training loop plus preprocessing and initialization.

Each epoch takes the blended loss's analytic gradient, optionally the
degree-based gradient regularization, and one optimizer step; exact loss
values are computed only at record epochs.  Runs are deterministic;
divergence (non-finite loss or gradient) stops the loop early and is
reported, not raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .losses import LossConfig, LossEngine, _sample_tables
from .model import DomainMap, SampleSet, SplineModel
from .optimizers import OptimizerConfig, _first_non_finite, init_state, step

__all__ = [
    "TrainConfig",
    "HistoryRow",
    "TrainingReport",
    "regularization_vector",
    "apply_regularization",
    "make_scaled_problem",
    "least_squares_init",
    "fit",
]

REGULARIZATIONS = ("none", "degree_based")
INITS = ("zeros", "least_squares")
SCALINGS = ("none", "unit_segments")


@dataclass(frozen=True)
class TrainConfig:
    segments: int = 8
    degree: int = 5
    epochs: int = 1000
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    regularization: str = "none"
    init: str = "zeros"
    scaling: str = "unit_segments"
    record_every: int = 10

    def __post_init__(self):
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.regularization not in REGULARIZATIONS:
            raise ValueError(f"regularization must be one of {REGULARIZATIONS}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


class HistoryRow(NamedTuple):
    epoch: int
    total: float
    l2: float
    ck: float
    strain: float


@dataclass
class TrainingReport:
    history: list[HistoryRow]
    final_model: SplineModel
    diverged: bool = False
    diverged_epoch: int | None = None
    # first non-finite gradient entry (1-based segment, power) at the
    # divergence; None when only the loss value had gone non-finite
    diverged_segment: int | None = None
    diverged_power: int | None = None
    rank_deficient_segments: tuple[int, ...] = ()


def regularization_vector(degree: int) -> np.ndarray:
    """Normalized 1/(1+power) gradient scaling; entries sum to 1.

    Scaling each gradient column by its entry shifts the optimization of
    high-power coefficients to later epochs and equalizes the per-segment
    gradient mass across degrees.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    raw = 1.0 / (1.0 + np.arange(degree + 1, dtype=float))
    return raw / raw.sum()


def apply_regularization(gradients: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Scale column j of the gradient matrix by reg[j], identically per segment."""
    reg = np.asarray(reg, dtype=float)
    if reg.shape != (gradients.shape[-1],):
        raise ValueError(
            f"regularization vector of length {reg.size} does not match "
            f"{gradients.shape[-1]} coefficient columns"
        )
    return gradients * reg


def make_scaled_problem(samples: SampleSet, segments: int, degree: int,
                        scaling: str = "unit_segments"):
    """Zero-initialized model over the sample range, plus the mapped samples.

    unit_segments places uniform breakpoints 0..m so every segment has unit
    length in internal coordinates; "none" keeps the raw data interval with
    an identity map.
    """
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}")
    if segments < 1 or degree < 0:
        raise ValueError("need segments >= 1 and degree >= 0")
    lo, hi = float(samples.xs[0]), float(samples.xs[-1])
    if hi == lo:
        raise ValueError(f"degenerate domain: all sample abscissae equal {lo}")
    if scaling == "unit_segments":
        a = segments / (hi - lo)
        domain_map = DomainMap(a, -a * lo)
        breakpoints = np.arange(segments + 1, dtype=float)
    else:
        domain_map = DomainMap()
        breakpoints = np.linspace(lo, hi, segments + 1)
    model = SplineModel.from_breakpoints(breakpoints, degree, domain_map=domain_map)
    internal_xs = np.clip(domain_map.forward(samples.xs), breakpoints[0], breakpoints[-1])
    return model, SampleSet(internal_xs, samples.ys)


def _least_squares_coefficients(model: SplineModel, samples: SampleSet):
    """Independent per-segment least squares in the shifted basis.

    Solves the normal equations per segment; a rank-deficient segment falls
    back to the minimum-norm solution and is flagged (1-based numbers).
    """
    seg, powers = _sample_tables(model, samples)
    width = model.degree + 1
    coeffs = np.zeros_like(model.coefficients)
    deficient = []
    for i in range(model.num_segments):
        mask = seg == i
        design = powers[mask]
        targets = samples.ys[mask]
        if design.shape[0] >= width and np.linalg.matrix_rank(design) == width:
            coeffs[i] = np.linalg.solve(design.T @ design, design.T @ targets)
        else:
            if design.shape[0]:
                coeffs[i] = np.linalg.lstsq(design, targets, rcond=None)[0]
            deficient.append(i + 1)
    return coeffs, tuple(deficient)


def least_squares_init(model: SplineModel, samples: SampleSet) -> SplineModel:
    """Model with the per-segment l2-optimal coefficients (no continuity coupling)."""
    coeffs, _ = _least_squares_coefficients(model, samples)
    out = model.copy()
    out.coefficients[:] = coeffs
    return out


def _exact_row(engine: LossEngine, epoch: int) -> HistoryRow | None:
    """History row from the residual-form breakdown; None if its total is non-finite."""
    exact = engine.breakdown()
    if not math.isfinite(exact.total):
        return None
    return HistoryRow(epoch, exact.total, exact.l2, exact.ck, exact.strain)


def fit(samples: SampleSet, config: TrainConfig) -> TrainingReport:
    """Run the training loop for exactly config.epochs iterations.

    Every epoch takes the gradient from the engine's precomputed operator and
    tests the loss for finiteness through the expanded value read off that
    gradient.  The exact residual-form breakdown runs only at record epochs
    (every record_every epochs) and once after the final update; recorded
    rows always satisfy the loss-blend identity.
    """
    loss_cfg = config.loss
    if loss_cfg.k > config.degree:
        raise ValueError(
            f"continuity order k={loss_cfg.k} exceeds spline degree {config.degree}"
        )
    if config.degree < 2 * loss_cfg.k + 1:
        warnings.warn(
            f"degree {config.degree} is below 2k+1={2 * loss_cfg.k + 1}; "
            "exact continuity repair will not be available for this model",
            stacklevel=2,
        )

    model, _ = make_scaled_problem(samples, config.segments, config.degree, config.scaling)
    deficient: tuple[int, ...] = ()
    if config.init == "least_squares":
        coeffs, deficient = _least_squares_coefficients(model, samples)
        model.coefficients[:] = coeffs

    state = init_state(config.optimizer, model.coefficients.shape)
    reg = (regularization_vector(config.degree)
           if config.regularization == "degree_based" else None)

    history: list[HistoryRow] = []
    diverged_epoch: int | None = None
    location: tuple[int, int] | None = None
    # divergence is detected via isfinite checks, so silence the transient
    # overflow warnings a runaway run (or data near the float limit, in the
    # operator's assembly) produces on its way there
    with np.errstate(over="ignore", invalid="ignore"):
        engine = LossEngine(model, samples, loss_cfg)
        for epoch in range(config.epochs):
            grads = engine.gradient()
            # the expanded value is non-finite whenever the gradient is
            if not math.isfinite(engine._expanded_total(grads)):
                diverged_epoch, location = epoch, _first_non_finite(grads)
                break
            if epoch % config.record_every == 0:
                row = _exact_row(engine, epoch)
                if row is None:
                    diverged_epoch = epoch
                    break
                history.append(row)
            if reg is not None:
                grads = apply_regularization(grads, reg)
            step(state, config.optimizer, model.coefficients, grads)
        else:
            row = _exact_row(engine, config.epochs)
            if row is None:
                diverged_epoch = config.epochs
            else:
                history.append(row)

    segment, power = location or (None, None)
    return TrainingReport(
        history=history,
        final_model=model,
        diverged=diverged_epoch is not None,
        diverged_epoch=diverged_epoch,
        diverged_segment=segment,
        diverged_power=power,
        rank_deficient_segments=deficient,
    )
