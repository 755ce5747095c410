"""Full-batch training loop plus preprocessing and initialization.

Each epoch takes the blended loss's analytic gradient, optionally the
degree-based gradient regularization, and one optimizer update, for every
lambda of a sweep at once.  The loss is tested for finiteness once per
block of epochs, and exact loss values are computed for a batch of record
epochs at a time, in one pass over all lambdas.  Runs are deterministic;
divergence (non-finite loss or gradient) stops a run early and is reported,
not raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .losses import LossConfig, LossEngine, _sample_tables
from .model import DomainMap, SampleSet, SplineModel
from .optimizers import OptimizerConfig, _first_non_finite, _update, init_state

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
# fit_sweep tests a block of at most _BLOCK epochs for finiteness at once,
# and sizes its record batches so that _breakdowns gathers at most about
# _RECORD_BYTES of sample tables
_BLOCK = 32
_RECORD_BYTES = 1 << 18


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
    if not math.isfinite(hi - lo):
        raise ValueError(f"sample range [{lo!r}, {hi!r}] is wider than a double can hold")
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
    the gradient from the engine's precomputed operator, and every epoch's
    loss is tested for finiteness through the expanded value read off that
    gradient.  The exact residual-form breakdown is taken only at record
    epochs (every record_every epochs) and once after the final update;
    recorded rows always satisfy the loss-blend identity.
    """
    return fit_sweep(samples, config, [config.loss.lam])[0]


def fit_sweep(samples: SampleSet, config: TrainConfig, lambdas) -> list[TrainingReport]:
    """One training run per blend weight in lambdas, all trained in lockstep.

    The runs share everything but lam: validation, the scaled problem, the
    initial coefficients and one LossEngine are set up once.  The engine
    assembles the quadratic forms of all L runs in one pass.  Each epoch
    takes one stacked gradient, writes each run's two dot products for the
    expanded value, and makes one unchecked _update, all over an (L, m, d+1)
    coefficient stack.  The update is elementwise and the stacked gradient
    is one matmul that treats every (run, segment) block as a single run's,
    so a run's bits do not depend on the others.

    The finiteness test runs once per block of at most _BLOCK epochs, over
    the buffered dot products of the live runs.  If a run failed, the stack
    and the optimizer state go back to the block's start and the block is
    replayed through the same epoch loop, which freezes each failed run at
    its first bad epoch with a copy of its coefficients and its first
    non-finite gradient entry.  Record epochs copy the stack into a batch,
    and one _breakdowns pass per full batch gives each run the bits of its
    own breakdown().  A non-finite recorded total freezes its run at that
    epoch with the copy, which wins over any later freeze.

    A frozen run stays in the stack and keeps training, out of the tests and
    the records.  Its report uses only its saved copy and the rows recorded
    before it froze, so its later values are never seen, and each report is
    bit-identical to fit() at that lam and to a per-epoch loop.  Reports
    come in the order of lambdas and own their models.
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
    # the stack and the optimizer's arrays at the start of the block, for a replay
    slots = [stack] + [a for a in vars(state).values() if isinstance(a, np.ndarray)]
    snapshot = [a.copy() for a in slots]
    # each epoch's g.c and linear.c, tested for finiteness once per block
    products = np.empty((_BLOCK, 2, len(lambdas), 1, 1))
    # the stacks of the record epochs not yet passed to _breakdowns, at most
    # batch of them, so that the pass's gathered sample tables stay small
    per_record = len(lambdas) * max(len(samples), config.segments) * (config.degree + 1) * 8
    batch = max(1, _RECORD_BYTES // per_record)
    records = np.empty((batch,) + stack.shape)
    record_epochs: list[int] = []
    every = config.record_every

    def freeze(run, epoch, location, coeffs):
        """Stop run at epoch, keeping coeffs, unless it stopped earlier already."""
        if divergences[run] is None or epoch < divergences[run][0]:
            divergences[run] = (epoch, location)
            saved[run] = coeffs.copy()
        if run not in frozen:
            frozen.append(run)

    def run_block(start, stop, due):
        """Epochs start..stop-1, each one gradient, its dot products and one update.

        The runs in due[epoch] are frozen at that epoch; the block stops
        there if that leaves no run live.
        """
        for row, epoch in enumerate(range(start, stop)):
            grads = form.gradients(stack)
            form.dot_products(stack, grads, products[row])
            for run in due.get(epoch, ()):
                freeze(run, epoch, _first_non_finite(grads[run]), stack[run])
            if len(frozen) == len(lambdas):
                return
            if epoch % every == 0:
                records[len(record_epochs)] = stack
                record_epochs.append(epoch)
            if reg is not None:
                grads *= reg
            _update(state, config.optimizer, stack, grads)

    def record():
        """Append the buffered epochs' history rows; a non-finite total freezes its run."""
        count = len(record_epochs)
        rows = engine._breakdowns(records[:count].reshape(-1, *stack.shape[1:]),
                                  lambdas * count)
        for i, epoch in enumerate(record_epochs):
            for run, row in enumerate(rows[i * len(lambdas):(i + 1) * len(lambdas)]):
                if divergences[run] is not None and divergences[run][0] <= epoch:
                    continue
                if math.isfinite(row[0]):
                    histories[run].append(HistoryRow(epoch, *row))
                else:
                    freeze(run, epoch, None, records[i, run])
        record_epochs.clear()

    # divergence is detected via isfinite checks, so silence the transient
    # overflow warnings a runaway run (or data near the float limit, in the
    # operator's assembly) produces on its way there
    with np.errstate(over="ignore", invalid="ignore"):
        engine = LossEngine(template, samples, loss_cfg)
        form = engine._forms(lambdas)
        start = 0
        while start < config.epochs and len(frozen) < len(lambdas):
            # the block ends at the latest at the record epoch that fills the batch
            filling = start + (-start) % every + (batch - len(record_epochs) - 1) * every
            stop = min(start + _BLOCK, config.epochs, filling + 1)
            for dst, src in zip(snapshot, slots):
                np.copyto(dst, src)
            step_count, recorded = state.step_count, len(record_epochs)
            run_block(start, stop, {})
            bad = ~np.isfinite(form.totals(products[:stop - start]))
            bad[:, frozen] = False
            if bad.any():
                # replay the block from its start, freezing each run at its first bad epoch
                due: dict[int, list[int]] = {}
                for run in np.flatnonzero(bad.any(axis=0)).tolist():
                    due.setdefault(start + int(bad[:, run].argmax()), []).append(run)
                for dst, src in zip(slots, snapshot):
                    np.copyto(dst, src)
                state.step_count = step_count
                del record_epochs[recorded:]
                run_block(start, stop, due)
            if len(record_epochs) == batch:
                record()
            start = stop
        if len(frozen) < len(lambdas):
            records[len(record_epochs)] = stack
            record_epochs.append(config.epochs)
        record()

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
