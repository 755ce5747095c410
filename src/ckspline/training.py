"""Full-batch training loop plus preprocessing and initialization.

Each epoch takes the blended loss's analytic gradient g, its dot product
g.c with the coefficients c, optionally the degree-based gradient
regularization, and one optimizer update, for every lambda of a sweep at
once, and keeps a copy of the coefficients it started from.  After a block
of epochs the exact loss values of the block's record epochs are computed
from those copies for all lambdas at once, and each run's rows go into its
one float table.  Runs are deterministic.

A run stops at its first epoch whose g.c or recorded residual total is not
finite.  That is a divergence, reported with the run and not raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .losses import (_RECORD_BYTES, LossConfig, LossEngine, _check_order, _count_groups,
                     _sample_tables)
from .model import INITS, REGULARIZATIONS, SCALINGS, DomainMap, SampleSet, SplineModel
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

# fit_sweep keeps the stacks of a block of at most _BLOCK epochs, in at most
# about _RECORD_BYTES; LossEngine._breakdowns bounds its record passes itself
_BLOCK = 80
# a least-squares start certifies a segment's rank when the kappa_F of its R
# factor is below _RANK_SCREEN / (count * eps); the factor leaves room for
# the rounding of the QR, of R's inverse and of matrix_rank's own SVD
_RANK_SCREEN = 1e-4


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
        _check_order(self.loss.k, self.degree)
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


@dataclass(eq=False)
class TrainingReport:
    """One run's recorded rows, final model and divergence.

    table holds one (epoch, total, l2, ck, strain) row per recorded epoch,
    as a (rows, 5) float64 array; history gives the same rows as
    HistoryRows with int epochs, built on each access.
    """

    table: np.ndarray
    final_model: SplineModel
    diverged: bool = False
    diverged_epoch: int | None = None
    # first non-finite gradient entry (1-based segment, power) at the
    # divergence; None when only the loss value had gone non-finite
    diverged_segment: int | None = None
    diverged_power: int | None = None
    rank_deficient_segments: tuple[int, ...] = ()

    @property
    def history(self) -> list[HistoryRow]:
        return [HistoryRow(int(epoch), *terms) for epoch, *terms in self.table.tolist()]


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


def _back_substitute(upper, rhs):
    """Solve the (G, w, w) upper-triangular systems upper @ x = rhs, rhs (G, w, r)."""
    out = np.empty_like(rhs)
    for j in range(upper.shape[-1] - 1, -1, -1):
        out[:, j] = (rhs[:, j] - np.einsum("gt,gtr->gr", upper[:, j, j + 1:], out[:, j + 1:])
                     ) / upper[:, j, j, None]
    return out


def _least_squares_coefficients(model: SplineModel, samples: SampleSet, tables=None):
    """Independent per-segment least squares in the shifted basis.

    tables are the (seg, powers) of _sample_tables(model, samples), built
    here when not given.

    Segments with the same sample count are solved as one batch.  One
    np.linalg.qr of the stacked [design | targets] gives each segment's R
    factor and Q'y, and back-substitution solves R c = Q'y; unlike the
    normal equations, this does not square the design's condition number.
    The same back-substitution inverts R.  kappa_F = ||R||_F ||R^-1||_F
    bounds the design's 2-norm condition number from above, so a segment
    whose kappa_F lies _RANK_SCREEN below matrix_rank's limit of
    1 / (count * eps) has full rank by its test; only the segments this
    screen cannot certify go through np.linalg.matrix_rank.  A short or
    rank-deficient segment falls back to the minimum-norm solution and is
    flagged (1-based numbers).  A solution that is not finite raises
    ValueError, before any training starts.
    """
    seg, powers = _sample_tables(model, samples) if tables is None else tables
    m, width = model.coefficients.shape
    table = np.concatenate([powers, samples.ys[:, None]], axis=1)
    coeffs = np.zeros_like(model.coefficients)
    solved = np.zeros(m, dtype=bool)
    # sample values near the float limit overflow the solves, and a singular
    # R divides by zero; that is reported or screened below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for count, group, rows in _count_groups(seg, m):
            stack = table[rows]
            design = stack[..., :width]
            if count >= width:
                r = np.linalg.qr(stack, mode="r")[:, :width]
                upper = r[..., :width]
                x = _back_substitute(upper, np.concatenate(
                    [np.broadcast_to(np.eye(width), upper.shape), r[..., width:]], axis=2))
                inverse = x[..., :width]
                kappa = np.sqrt(np.einsum("gst,gst->g", upper, upper)
                                * np.einsum("gst,gst->g", inverse, inverse))
                full = kappa * count * np.finfo(float).eps < _RANK_SCREEN
                full[~full] = np.linalg.matrix_rank(design[~full]) == width
                coeffs[group[full]] = x[full, :, width]
                solved[group[full]] = True
            for g in np.flatnonzero(~solved[group]):
                coeffs[group[g]] = np.linalg.lstsq(design[g], stack[g, :, width], rcond=None)[0]
    overflowed = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
    if overflowed.size:
        raise ValueError(f"least-squares start is not finite in segment {overflowed[0] + 1}: "
                         "the sample values are too large")
    return coeffs, tuple(int(i) + 1 for i in np.flatnonzero(~solved))


def least_squares_init(model: SplineModel, samples: SampleSet) -> SplineModel:
    """Model with the per-segment l2-optimal coefficients (no continuity coupling).

    Raises ValueError when a segment's solution is not finite.
    """
    coeffs, _ = _least_squares_coefficients(model, samples)
    out = model.copy()
    out.coefficients[:] = coeffs
    return out


def fit(samples: SampleSet, config: TrainConfig) -> TrainingReport:
    """Run the training loop for exactly config.epochs iterations.

    The one-run case of fit_sweep, at config.loss.lam.  Every epoch takes
    the gradient g from the engine's precomputed operator.  The exact
    residual-form breakdown is taken only at record epochs (every
    record_every epochs) and once after the final update; recorded rows
    always satisfy the loss-blend identity.  The run stops where the
    module's divergence rule says.
    """
    return fit_sweep(samples, config, [config.loss.lam])[0]


def fit_sweep(samples: SampleSet, config: TrainConfig, lambdas) -> list[TrainingReport]:
    """One training run per blend weight in lambdas, all trained in lockstep.

    The runs share everything but lam: validation, the scaled problem, the
    initial coefficients and one LossEngine are set up once.  The engine
    assembles the quadratic forms of all L runs in one pass, before the
    initial coefficients; an operator that overflows a double (the basis
    powers of wide unscaled segments) raises ValueError.  Each epoch
    copies the (L, m, d+1) coefficient stack into a ring, takes one stacked
    gradient g, writes each run's g.c, and makes one unchecked _update.  The
    update is elementwise and the stacked gradient is one matmul that treats
    every (run, segment) block as a single run's, so a run's bits do not
    depend on the others.

    The ring holds the stack at each epoch of a block of at most _BLOCK
    epochs, and products each epoch's g.c.  One settle step ends the block:
    a single _breakdowns call over the ring's record rows gives each run
    the bits of its own breakdown(), as one (record epochs, L, 4) array of
    its Python floats, and a bad epoch is one whose g.c or recorded total is
    not finite.  Each run not yet stopped copies its rows recorded before
    its first bad epoch into its table and stops there, with that epoch's
    ring row.  The stop keeps the first non-finite gradient entry only when
    g.c was not finite.  After the last block the final stack is settled as
    a one-row block of one record epoch.

    A stopped run stays in the stack and keeps training, but settle skips
    it, so its later values are never seen.  Each report is bit-identical
    to fit() at that lam and to a per-epoch loop.  Each run's table is
    allocated once, with its epoch column filled, for every record epoch
    and the final one; a stopped run's is trimmed to its rows.  Reports come
    in the order of lambdas and own their tables and models.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambdas must not be empty")
    loss_cfg = config.loss
    for lam in lambdas:
        replace(loss_cfg, lam=lam)  # LossConfig validates lam

    template, _ = make_scaled_problem(samples, config.segments, config.degree, config.scaling)
    # data near the float limit may overflow the operator's assembly; that is
    # reported below or by the training loop, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        engine = LossEngine(template, samples, loss_cfg)
        if config.degree < 2 * loss_cfg.k + 1:
            warnings.warn(
                f"degree {config.degree} is below 2k+1={2 * loss_cfg.k + 1}; "
                "exact continuity repair will not be available for this model",
                stacklevel=2,
            )
        form = engine._forms(lambdas)
    if not np.isfinite(form.rows).all():
        width = float(np.diff(template.breakpoints).max())
        raise ValueError(
            f"the loss operator overflows a double: degree {config.degree} basis powers over "
            f"segments {width:.3g} wide with scaling {config.scaling!r}; use scaling "
            "'unit_segments' or a narrower sample range")
    deficient: tuple[int, ...] = ()
    if config.init == "least_squares":
        coeffs, deficient = _least_squares_coefficients(template, samples,
                                                         (engine.seg, engine.powers))
        template.coefficients[:] = coeffs
    stack = np.repeat(template.coefficients[None], len(lambdas), axis=0)
    state = init_state(config.optimizer, stack.shape)
    reg = (regularization_vector(config.degree)
           if config.regularization == "degree_based" else None)

    every = config.record_every
    # each run's table holds the rows of every record epoch, then the final
    # epoch's; a run that stops keeps the rows before its stop
    schedule = np.append(np.arange(0, config.epochs, every), config.epochs)
    tables = [np.empty((len(schedule), 5)) for _ in lambdas]
    for table in tables:
        table[:, 0] = schedule
    # each stopped run's (epoch, first non-finite gradient entry or None, coefficients)
    stops: list[tuple[int, tuple[int, int] | None, np.ndarray] | None] = [None] * len(lambdas)
    # the stack at each epoch of the block, and each epoch's g.c
    ring = np.empty((max(1, min(_BLOCK, _RECORD_BYTES // stack.nbytes)),) + stack.shape)
    products = np.empty((len(ring), len(lambdas), 1, 1))

    def settle(start, stacks, unstable, first):
        """Fill each live run's rows from epoch start on, and stop it at its first bad epoch.

        stacks holds one stack per epoch and unstable marks the epochs whose
        g.c is not finite.  Rows first, first + every, ... are record epochs,
        and one whose recorded total is not finite is bad too.
        """
        record = stacks[first::every]
        rows = np.array(engine._breakdowns(record.reshape(-1, *stack.shape[1:]),
                                           lambdas * len(record)))
        rows = rows.reshape(len(record), len(lambdas), 4)
        bad = unstable.copy()
        bad[first::every] |= ~np.isfinite(rows[..., 0])
        done = len(range(0, start, every))  # record epochs before this block
        for run in range(len(lambdas)):
            if stops[run] is not None:
                continue
            hits = np.flatnonzero(bad[:, run])
            end = int(hits[0]) if hits.size else len(stacks)
            kept = len(range(first, end, every))
            tables[run][done:done + kept, 1:] = rows[:kept, run]
            if end < len(stacks):
                location = (_first_non_finite(form.gradients(stacks[end])[run])
                            if unstable[end, run] else None)
                stops[run] = (start + end, location, stacks[end, run].copy())

    # divergence is detected via isfinite checks, so silence the transient
    # overflow warnings a runaway run produces on its way there
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, config.epochs, len(ring)):
            if None not in stops:
                break
            count = min(len(ring), config.epochs - start)
            for row in range(count):
                ring[row] = stack
                grads = form.gradients(stack)
                np.matmul(grads.reshape(len(stack), 1, -1), stack.reshape(len(stack), -1, 1),
                          out=products[row])
                if reg is not None:
                    grads *= reg
                _update(state, config.optimizer, stack, grads)
            settle(start, ring[:count], ~np.isfinite(products[:count, :, 0, 0]), -start % every)
        settle(config.epochs, stack[None], np.zeros((1, len(lambdas)), dtype=bool), 0)

    reports = []
    for run, table in enumerate(tables):
        epoch, location, coeffs = stops[run] or (None, None, stack[run])
        segment, power = location or (None, None)
        if epoch is not None:
            table = table[:len(range(0, epoch, every))].copy()
        model = template.copy()
        model.coefficients[:] = coeffs
        reports.append(TrainingReport(
            table=table,
            final_model=model,
            diverged=epoch is not None,
            diverged_epoch=epoch,
            diverged_segment=segment,
            diverged_power=power,
            rank_deficient_segments=deficient,
        ))
    return reports
