"""Approximation and smoothness losses with exact analytic gradients.

The blended objective is

    total = lam * l2 + (1 - lam) * ck + strain_weight * strain

where l2 is the segment/sample-count equilibrated squared error, ck sums
squared derivative jumps at the breakpoints (optionally wrapping around for
cyclic or periodic boundary handling), and strain is the exact integral of
the squared second derivative.  Everything is a fixed quadratic form in the
coefficient matrix c:

    total = 0.5 * c.H.c - linear.c + constant,    gradient = H.c - linear

Segment i only meets segments i-1 and i+1 (and, across the wrap, segment m-1
meets segment 0), so the Hessian H is block-tridiagonal with one corner
block.  LossEngine assembles H and the linear term once, from the samples,
the boundary derivative bases and the strain tables; the gradient is then a
batched block mat-vec whose cost does not depend on the number of samples.
H, linear and constant are affine in lam, so the forms of a whole lambda
sweep are assembled in one pass and stacked, and one mat-vec serves every
run.

Loss values come from the residual form instead (l2 from the sample
residuals, ck from the jumps at every boundary in one batch, strain from its
per-segment tables): the expanded form above loses digits when l2 is tiny.
The training loop therefore takes the residual-form breakdown only at
record epochs, and tests each epoch's loss for finiteness through the cheap
expanded value.  fd_gradient differentiates breakdown numerically and so
stays an oracle independent of the assembled operator.

All three terms are evaluated in internal (scaled) coordinates.  Functions
here are pure; LossEngine only caches tables that depend on breakpoints and
samples, never on coefficients, so in-place coefficient updates are picked
up without rebuilding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import SampleSet, SplineModel, _boundaries, _locate, _one_sided

__all__ = [
    "BOUNDARY_MODES",
    "LossConfig",
    "LossBreakdown",
    "LossEngine",
    "l2_loss",
    "ck_loss",
    "strain_loss",
    "total_loss",
    "gradient",
    "fd_gradient",
]

BOUNDARY_MODES = ("open", "cyclic", "periodic")


@dataclass(frozen=True)
class LossConfig:
    """Blend weight, continuity order, boundary handling, optional strain term."""

    lam: float = 0.5
    k: int = 2
    boundary_mode: str = "open"
    strain_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 0:
            raise ValueError("continuity order k must be a non-negative integer")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")
        if not (math.isfinite(self.strain_weight) and self.strain_weight >= 0.0):
            raise ValueError("strain_weight must be finite and >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    l2: float
    ck: float
    strain: float


def _check_order(model: SplineModel, config: LossConfig):
    if config.k > model.degree:
        raise ValueError(
            f"continuity order k={config.k} exceeds spline degree {model.degree}"
        )


def _sample_tables(model: SplineModel, samples: SampleSet):
    """Owning row per sample plus the (n, d+1) matrix of basis powers."""
    t, seg = _locate(model, model.domain_map.forward(samples.xs), samples.xs, "sample")
    u = t - model.centers[seg]
    powers = u[:, None] ** np.arange(model.degree + 1)
    return seg, powers


def _l2_value(coeffs, seg, powers, ys):
    r = np.einsum("nt,nt->n", powers, coeffs[seg]) - ys
    return coeffs.shape[0] / ys.size * float(r @ r)


def _boundary_bases(model: SplineModel, config: LossConfig):
    """The boundaries the ck loss compares (model._boundaries), plus its divisor.

    The jumps at boundary b are right minus left one-sided derivative
    values.  Cyclic mode zeroes the wrap-around boundary's value (j=0) rows,
    so that jump is 0.
    """
    m = model.num_segments
    wrap = config.boundary_mode != "open"
    left, right, basis_left, basis_right = _boundaries(model, config.k, wrap)
    if config.boundary_mode == "cyclic":
        basis_left[-1, 0] = basis_right[-1, 0] = 0.0
    return (left, right, basis_left, basis_right), (m if wrap else max(m - 1, 1))


def _ck_value(coeffs, bases, divisor):
    left_vals, right_vals = _one_sided(bases, coeffs)
    jumps = right_vals - left_vals
    return float(np.einsum("bj,bj->", jumps, jumps)) / divisor


def _strain_tables(model: SplineModel):
    """Per-segment PSD forms G with strain_i = c.T @ G[i] @ c, c = coeffs[i, 2:].

    Squaring the second-derivative coefficient polynomial and integrating
    term by term over the segment gives a closed form; odd powers of the
    centered offset integrate to zero.
    """
    d = model.degree
    if d < 2:
        return None
    s = np.arange(d - 1)  # surviving coefficients, powers 2..d
    weights = (s + 2.0) * (s + 1.0)
    p = np.add.outer(s, s)
    half = np.diff(model.breakpoints)[:, None, None] / 2.0
    return np.where(p % 2 == 0,
                    np.outer(weights, weights) * 2.0 * half ** (p + 1) / (p + 1), 0.0)


def _strain_value(coeffs, tables):
    if tables is None:
        return 0.0
    upper = coeffs[:, 2:]
    return float(np.einsum("is,ist,it->", upper, tables, upper))


def _segment_sums(seg, columns, m):
    """(m, len(columns)) per-segment sums of each length-n column."""
    return np.stack([np.bincount(seg, col, minlength=m) for col in columns], axis=1)


def _row_axes(m: int) -> tuple[int, int, int]:
    """Axis order in which the (m, w, 3w) block rows are stored C-contiguous.

    einsum's summation order follows the operands' memory layout.  With
    these layouts each block is summed in the order np.concatenate's output
    gives a single run, and in that same order for any number of stacked
    blocks, so a run of a sweep gets its solo gradient bit for bit.  Both
    orders are their own inverse.
    """
    return (0, 1, 2) if m == 1 else (0, 2, 1)


def _block_matvec(rows, neighbours, coeffs):
    """H.c for a stack of runs, with the run and segment axes merged into blocks.

    rows is (B, w, 3w) in the memory order of _row_axes, neighbours (B, 3)
    and coeffs (B, w): block b's row multiplies the three coefficient rows
    coeffs[neighbours[b]].  One run is the B = m case.
    """
    return np.einsum("ist,it->is", rows, coeffs[neighbours].reshape(len(coeffs), -1))


class _Forms(NamedTuple):
    """The quadratic forms of L runs that differ only in lam, stacked.

    rows holds the (L*m, w, 3w) block rows in the memory order of
    _row_axes, neighbours the (L*m, 3) coefficient blocks each multiplies,
    linear and constant the (L, m, w) and (L,) stacks.  Both methods take an
    (L, m, w) coefficient stack, one row per lam in order.
    """

    rows: np.ndarray
    neighbours: np.ndarray
    linear: np.ndarray
    constant: np.ndarray

    def gradients(self, coeffs: np.ndarray) -> np.ndarray:
        blocks = coeffs.reshape(-1, coeffs.shape[-1])
        return _block_matvec(self.rows, self.neighbours, blocks).reshape(coeffs.shape) - self.linear

    def expanded_totals(self, coeffs: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """total = 0.5*c.g - 0.5*linear.c + constant for each run, g the gradient at c.

        Reads the value off the gradient, without the residuals.  Costs two
        dot products per run, but carries absolute rounding error on the
        scale of the constant term: a finiteness test, not a loss value.
        """
        c = coeffs.reshape(len(coeffs), -1, 1)
        g = grads.reshape(len(coeffs), 1, -1)
        lin = self.linear.reshape(len(coeffs), 1, -1)
        return 0.5 * (g @ c - lin @ c)[:, 0, 0] + self.constant


class LossEngine:
    """Precomputed quadratic form of the blended loss for one model and sample set.

    The constructor builds the tables that depend on the breakpoints and
    samples, then assembles the Hessian H of total, the linear term and the
    constant, so that total = 0.5 * c.H.c - linear.c + constant.  H is
    block-tridiagonal: m diagonal blocks H[i, i], m-1 neighbour blocks
    H[i, i+1] (with H[i+1, i] their transposes) and, in cyclic/periodic
    mode, one corner block H[m-1, 0], each (d+1, d+1).  The assembly is
    vectorised: l2 blocks come from per-segment bincount sums, ck blocks
    from all boundary derivative bases at once.  gradient() is one batched
    block mat-vec minus the linear term.

    breakdown() returns the exact per-term values in residual form.  Both
    read model.coefficients live on every call.  The loss is affine in
    lam, so _forms() assembles the operators of a whole sweep in one pass,
    and an engine is its one-lam case: a run of a sweep gets the same
    gradient bits as an engine of its own.
    """

    def __init__(self, model: SplineModel, samples: SampleSet, config: LossConfig):
        _check_order(model, config)
        self.model = model
        self.config = config
        self.seg, self.powers = _sample_tables(model, samples)
        self.ys = samples.ys
        self.bases, self.ck_divisor = _boundary_bases(model, config)
        self.strain_tables = _strain_tables(model)
        self._form = self._forms([config.lam])
        self.linear, self.constant = self._form.linear[0], float(self._form.constant[0])

    def _forms(self, lams) -> _Forms:
        """The stacked forms of this engine's problem at each blend weight in lams.

        lam is broadcast over the expressions a single run would evaluate,
        and the lam-free sums and einsums are computed once, so every entry
        is the same IEEE expression for any number of runs.
        """
        lam = np.asarray(lams, dtype=float)[:, None, None, None]
        m, width = self.model.coefficients.shape
        d, cfg = width - 1, self.config
        # l2: Gram block entries sum u**(s+t), so 2d+1 per-segment moments fill them
        l2_scale = 2.0 * lam * m / self.ys.size
        moments = _segment_sums(self.seg, (self.powers[:, min(p, d)] * self.powers[:, max(p - d, 0)]
                                           for p in range(2 * d + 1)), m)
        diag = l2_scale * moments[:, np.add.outer(np.arange(width), np.arange(width))]
        linear = l2_scale[..., 0] * _segment_sums(self.seg, (self.ys[:, None] * self.powers).T, m)
        constant = lam.ravel() * m / self.ys.size * float(self.ys @ self.ys)
        if cfg.strain_weight != 0.0 and self.strain_tables is not None:
            diag[..., 2:, 2:] += 2.0 * cfg.strain_weight * self.strain_tables

        # ck: boundary b adds L'L to H[left, left], R'R to H[right, right] and
        # -L'R to H[left, right]; after[:, i] = H[i, (i+1) mod m] holds the m-1
        # neighbour blocks, then the corner block (zero in open mode).  left
        # and right each name a segment at most once, so fancy-index += is exact.
        left, right, basis_left, basis_right = self.bases
        ck_scale = 2.0 * (1.0 - lam) / self.ck_divisor
        diag[:, left] += ck_scale * np.einsum("bjs,bjt->bst", basis_left, basis_left)
        diag[:, right] += ck_scale * np.einsum("bjs,bjt->bst", basis_right, basis_right)
        after = np.zeros_like(diag)
        after[:, left] = -ck_scale * np.einsum("bjs,bjt->bst", basis_left, basis_right)

        # block row i is [H[i, i-1], H[i, i], H[i, i+1]] against c[i-1], c[i], c[i+1], mod m
        before = np.roll(after, 1, axis=1).swapaxes(2, 3)
        axes = _row_axes(m)
        blocks = np.concatenate([before, diag, after], axis=3).reshape(-1, width, 3 * width)
        i = np.arange(m)
        neighbours = np.stack([(i - 1) % m, i, (i + 1) % m], axis=1)
        return _Forms(blocks.transpose(axes).copy().transpose(axes),
                      (m * np.arange(len(lam))[:, None, None] + neighbours).reshape(-1, 3),
                      linear, constant)

    def breakdown(self) -> LossBreakdown:
        return self._breakdown(self.model.coefficients, self.config.lam)

    def _breakdown(self, coeffs: np.ndarray, lam: float) -> LossBreakdown:
        """Residual-form values at coeffs, blended with weight lam."""
        l2 = _l2_value(coeffs, self.seg, self.powers, self.ys)
        ck = _ck_value(coeffs, self.bases, self.ck_divisor)
        strain = _strain_value(coeffs, self.strain_tables)
        total = lam * l2 + (1.0 - lam) * ck + self.config.strain_weight * strain
        return LossBreakdown(total=total, l2=l2, ck=ck, strain=strain)

    def gradient(self) -> np.ndarray:
        form = self._form
        return _block_matvec(form.rows, form.neighbours, self.model.coefficients) - self.linear


def l2_loss(model: SplineModel, samples: SampleSet) -> float:
    """(m/n) * sum of squared residuals; invariant to sample/segment counts."""
    seg, powers = _sample_tables(model, samples)
    return _l2_value(model.coefficients, seg, powers, samples.ys)


def ck_loss(model: SplineModel, config: LossConfig) -> float:
    """Equilibrated sum of squared derivative jumps across breakpoints.

    Open mode with a single segment has no interior boundaries and scores 0.
    """
    _check_order(model, config)
    return _ck_value(model.coefficients, *_boundary_bases(model, config))


def strain_loss(model: SplineModel) -> float:
    """Exact integral of the squared second derivative over the domain."""
    return _strain_value(model.coefficients, _strain_tables(model))


def total_loss(model: SplineModel, samples: SampleSet, config: LossConfig) -> LossBreakdown:
    return LossEngine(model, samples, config).breakdown()


def gradient(model: SplineModel, samples: SampleSet, config: LossConfig) -> np.ndarray:
    """Exact gradient of the blended total with respect to every coefficient."""
    return LossEngine(model, samples, config).gradient()


def fd_gradient(model: SplineModel, samples: SampleSet, config: LossConfig,
                h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the total loss, one coefficient at a time."""
    if not h > 0.0:
        raise ValueError("step h must be > 0")
    engine = LossEngine(model, samples, config)
    coeffs = model.coefficients
    out = np.zeros_like(coeffs)
    for i, j in np.ndindex(coeffs.shape):
        orig = coeffs[i, j]
        coeffs[i, j] = orig + h
        plus = engine.breakdown().total
        coeffs[i, j] = orig - h
        minus = engine.breakdown().total
        coeffs[i, j] = orig
        out[i, j] = (plus - minus) / (2.0 * h)
    return out
