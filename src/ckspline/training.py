"""Full-batch training loop plus preprocessing and initialization.

Each epoch takes the blended loss's analytic gradient, optionally the
degree-based gradient regularization, and one optimizer step, for every
lambda of a sweep at once; exact loss values are computed only at record
epochs.  Runs are deterministic; divergence (non-finite loss or gradient)
stops a run early and is reported, not raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
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
    "fit_sweep",
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

    Segments with the same sample count are solved as one batch: one rank
    test over the stack of their design matrices and one batched solve of
    the normal equations.  A short or rank-deficient segment falls back to
    the minimum-norm solution and is flagged (1-based numbers).
    """
    seg, powers = _sample_tables(model, samples)
    m, width = model.coefficients.shape
    # each segment's samples, contiguous and in their original order
    order = np.argsort(seg, kind="stable")
    counts = np.bincount(seg, minlength=m)
    starts = np.cumsum(counts) - counts
    coeffs = np.zeros_like(model.coefficients)
    solved = np.zeros(m, dtype=bool)
    for count in np.unique(counts[counts >= width]):
        group = np.flatnonzero(counts == count)
        rows = order[starts[group, None] + np.arange(count)]
        design, targets = powers[rows], samples.ys[rows]
        full = np.linalg.matrix_rank(design) == width
        design, targets, group = design[full], targets[full, :, None], group[full]
        design_t = design.transpose(0, 2, 1)
        coeffs[group] = np.linalg.solve(design_t @ design, design_t @ targets)[..., 0]
        solved[group] = True
    deficient = np.flatnonzero(~solved)
    for i in deficient[counts[deficient] > 0]:
        rows = order[starts[i]:starts[i] + counts[i]]
        coeffs[i] = np.linalg.lstsq(powers[rows], samples.ys[rows], rcond=None)[0]
    return coeffs, tuple(int(i) + 1 for i in deficient)


def least_squares_init(model: SplineModel, samples: SampleSet) -> SplineModel:
    """Model with the per-segment l2-optimal coefficients (no continuity coupling)."""
    coeffs, _ = _least_squares_coefficients(model, samples)
    out = model.copy()
    out.coefficients[:] = coeffs
    return out


def fit(samples: SampleSet, config: TrainConfig) -> TrainingReport:
    """Run the training loop for exactly config.epochs iterations.

    The one-run case of fit_sweep, at config.loss.lam.  Every epoch takes
    the gradient from the engine's precomputed operator and tests the loss
    for finiteness through the expanded value read off that gradient.  The
    exact residual-form breakdown runs only at record epochs (every
    record_every epochs) and once after the final update; recorded rows
    always satisfy the loss-blend identity.
    """
    return fit_sweep(samples, config, [config.loss.lam])[0]


def fit_sweep(samples: SampleSet, config: TrainConfig, lambdas) -> list[TrainingReport]:
    """One training run per blend weight in lambdas, all trained in lockstep.

    The runs share everything but lam: validation, the scaled problem, the
    initial coefficients and one LossEngine are set up once.  The engine
    assembles the quadratic forms of all L runs in one pass; each epoch
    takes one stacked gradient, one finiteness test and one optimizer step
    over an (L, m, d+1) coefficient stack.  step() is elementwise and the
    stacked gradient sums every block in the same order as a single run, so
    each report is bit-identical to fit() at that lam.  A run that diverges
    records where and saves a copy of its coefficients; it then stays in
    the stack, frozen: its gradient rows are zero and it is out of the
    finiteness test.  Reports come in the order of lambdas and own their
    models.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambdas must not be empty")
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
    for lam in lambdas:
        replace(loss_cfg, lam=lam)  # LossConfig validates lam

    template, _ = make_scaled_problem(samples, config.segments, config.degree, config.scaling)
    deficient: tuple[int, ...] = ()
    if config.init == "least_squares":
        coeffs, deficient = _least_squares_coefficients(template, samples)
        template.coefficients[:] = coeffs
    stack = np.repeat(template.coefficients[None], len(lambdas), axis=0)
    state = init_state(config.optimizer, stack.shape)
    reg = (regularization_vector(config.degree)
           if config.regularization == "degree_based" else None)

    histories: list[list[HistoryRow]] = [[] for _ in lambdas]
    divergences: list[tuple[int, tuple[int, int] | None] | None] = [None] * len(lambdas)
    saved: dict[int, np.ndarray] = {}  # the coefficients of each run where it diverged
    frozen: list[int] = []  # the diverged runs, which stay in the stack

    def freeze(run, epoch, location):
        divergences[run] = (epoch, location)
        saved[run] = stack[run].copy()
        frozen.append(run)

    def record(run, epoch):
        """Append run's residual-form history row, or freeze it if the total is non-finite."""
        exact = engine._breakdown(stack[run], lambdas[run])
        if math.isfinite(exact.total):
            histories[run].append(HistoryRow(epoch, exact.total, exact.l2, exact.ck, exact.strain))
        else:
            freeze(run, epoch, None)

    # divergence is detected via isfinite checks, so silence the transient
    # overflow warnings a runaway run (or data near the float limit, in the
    # operator's assembly) produces on its way there
    with np.errstate(over="ignore", invalid="ignore"):
        engine = LossEngine(template, samples, loss_cfg)
        form = engine._forms(lambdas)
        for epoch in range(config.epochs):
            grads = form.gradients(stack)
            # the expanded value is non-finite whenever the gradient is
            finite = np.isfinite(form.expanded_totals(stack, grads))
            if frozen:
                finite[frozen] = True
            recording = epoch % config.record_every == 0
            if recording or not finite.all():
                for run in range(len(lambdas)):
                    if not finite[run]:
                        freeze(run, epoch, _first_non_finite(grads[run]))
                    elif recording and divergences[run] is None:
                        record(run, epoch)
                if len(frozen) == len(lambdas):
                    break
            if frozen:
                grads[frozen] = 0.0
            if reg is not None:
                grads = apply_regularization(grads, reg)
            step(state, config.optimizer, stack, grads)
        for run in range(len(lambdas)):
            if divergences[run] is None:
                record(run, config.epochs)

    reports = []
    for run, (history, divergence) in enumerate(zip(histories, divergences)):
        model = template.copy()
        model.coefficients[:] = saved.get(run, stack[run])
        epoch, location = divergence or (None, None)
        segment, power = location or (None, None)
        reports.append(TrainingReport(
            history=history,
            final_model=model,
            diverged=divergence is not None,
            diverged_epoch=epoch,
            diverged_segment=segment,
            diverged_power=power,
            rank_deficient_segments=deficient,
        ))
    return reports
