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
block.  LossEngine assembles H and the linear term once, from the Gram
products of each segment's samples, the boundary derivative bases and the
strain tables; the gradient is then a block mat-vec whose cost does not
depend on the number of samples.  H and linear are affine in lam, so the
forms of a whole lambda sweep are assembled in one pass and stacked as an
(L, m) grid of block rows, and one matmul over that grid serves every run.

Loss values come from the residual form instead (l2 from the sample
residuals, ck from the jumps at every boundary in one batch, strain from its
per-segment tables): the expanded form above loses digits when l2 is tiny.
Sums of squares over the samples add dot products of at most 8,192 entries
in order, so a value has the same bits on any number of BLAS threads.
The training loop therefore takes the residual-form breakdown only at
record epochs, over all of a block's record epochs and every run of a
sweep at once (training.py states how that decides divergence).
fd_gradient moves each coefficient by +h and by -h and takes the
residual-form totals of all those copies in stacked passes, each run with
the bits of its own breakdown(), so it stays an oracle independent of the
assembled operator.

All three terms are evaluated in internal (scaled) coordinates.  Functions
here are pure; LossEngine only caches tables that depend on breakpoints and
samples, never on coefficients, so in-place coefficient updates are picked
up without rebuilding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (BOUNDARY_MODES, SampleSet, SplineModel, _boundaries, _check_boundary_mode,
                    _locate, _one_sided)

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

# a stacked residual pass (_breakdowns) gathers an (n, d+1) sample table for
# each coefficient set; _breakdowns takes its coefficient sets in passes whose
# tables stay within about _RECORD_BYTES, and fd_gradient sizes its stacks of
# perturbed copies to one such pass
_RECORD_BYTES = 1 << 18


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
        _check_boundary_mode(self.boundary_mode)
        if not (math.isfinite(self.strain_weight) and self.strain_weight >= 0.0):
            raise ValueError("strain_weight must be finite and >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    l2: float
    ck: float
    strain: float


def _check_order(k: int, degree: int):
    if k > degree:
        raise ValueError(f"continuity order k={k} exceeds spline degree {degree}")


def _sample_tables(model: SplineModel, samples: SampleSet):
    """Owning row per sample plus the (n, d+1) matrix of basis powers.

    Column j is column j-1 times the centered offset u, a running product:
    u**j after j-1 roundings, so within about j*eps of it, at a twentieth
    of the cost of pow.
    """
    t, seg = _locate(model, model.domain_map.forward(samples.xs), samples.xs, "sample")
    u = t - model.centers[seg]
    powers = np.empty((u.size, model.degree + 1))
    powers[:, 0] = 1.0
    for j in range(1, model.degree + 1):
        np.multiply(powers[:, j - 1], u, out=powers[:, j])
    return seg, powers


def _count_groups(seg, m):
    """Segments grouped by sample count, for batched per-segment work.

    Yields (count, group, rows) for each count > 0 that some segment has:
    group holds those segments in ascending order, and rows[g] the
    indices of segment group[g]'s samples, in their original order.
    Counts are grouped by a stable argsort, as the samples are, so the
    groups come in ascending count order.
    """
    order = np.argsort(seg, kind="stable")
    counts = np.bincount(seg, minlength=m)
    starts = np.cumsum(counts) - counts
    by_count = np.argsort(counts, kind="stable")
    edges = np.flatnonzero(np.diff(counts[by_count])) + 1
    for group in np.split(by_count, edges):
        count = int(counts[group[0]])
        if count:
            yield count, group, order[starts[group, None] + np.arange(count)]


# OpenBLAS splits a dot product of more than 10,000 entries across its
# threads and adds the parts in an order that depends on the thread count.
# Dots over chunks of at most this many entries, added in order, give the
# same bits on any number of threads; up to one chunk it is one dot.
_DOT_CHUNK = 8192


def _sums_of_squares(rows: np.ndarray) -> np.ndarray:
    """(L,) sum of squares of each row of a C-contiguous (L, n) array.

    Each row is squared by its own dot products, so a row's sum is the same
    bits whatever it is stacked with, and on any number of BLAS threads.
    """
    total = None
    for start in range(0, rows.shape[1], _DOT_CHUNK):
        part = rows[:, start:start + _DOT_CHUNK]
        part = (part[:, None, :] @ part[:, :, None])[:, 0, 0]
        total = part if total is None else total + part
    return total


def _l2_values(coeffs, seg, powers, ys):
    """(L,) l2 of an (L, m, d+1) coefficient stack.

    A reduction sums in an order that follows its operands' memory layout.
    take() keeps the gathered rows, and so the residuals, C-contiguous, and
    _sums_of_squares squares them.
    """
    r = np.einsum("nt,rnt->rn", powers, coeffs.take(seg, axis=1)) - ys
    return coeffs.shape[1] / ys.size * _sums_of_squares(r)


def _ck_values(coeffs, bases):
    """(L,) ck of an (L, m, d+1) coefficient stack, at the boundaries of bases.

    The jumps are right minus left one-sided derivative values; their
    squares are summed and divided by the boundary count, at least 1 (m in
    cyclic and periodic mode, m-1 in open mode).  _one_sided gathers with
    take(), so the jumps are C-contiguous and each run's sum is the same
    bits whatever it is stacked with, as in _l2_values.
    """
    left_vals, right_vals = _one_sided(bases, coeffs)
    jumps = right_vals - left_vals
    return np.einsum("rbj,rbj->r", jumps, jumps) / max(len(bases[0]), 1)


def _strain_tables(model: SplineModel):
    """Per-segment PSD forms G with strain_i = c.T @ G[i] @ c, c = coeffs[i, 2:].

    Squaring the second-derivative coefficient polynomial and integrating
    term by term over the segment gives a closed form; odd powers of the
    centered offset integrate to zero.  Below degree 2 the forms are empty,
    (m, 0, 0), and every strain is 0.
    """
    s = np.arange(max(model.degree - 1, 0))  # surviving coefficients, powers 2..d
    weights = (s + 2.0) * (s + 1.0)
    p = np.add.outer(s, s)
    half = np.diff(model.breakpoints)[:, None, None] / 2.0
    return np.where(p % 2 == 0,
                    np.outer(weights, weights) * 2.0 * half ** (p + 1) / (p + 1), 0.0)


def _strain_values(coeffs, tables):
    """(L,) strain of an (L, m, d+1) coefficient stack."""
    upper = coeffs[..., 2:]
    return np.einsum("ris,ist,rit->r", upper, tables, upper)


class _Forms(NamedTuple):
    """The quadratic forms of L runs that differ only in lam, stacked.

    rows holds the (L, m, w, 3w) block rows in one C-ordered array,
    neighbours the (m, 3) coefficient rows each block row multiplies, and
    linear the (L, m, w) stack.  gradients() takes an (L, m, w) coefficient
    stack, one row per lam in order.  It is one stacked matmul, which makes
    the same BLAS call on a contiguous (w, 3w) operand for every (run,
    segment) item, so a run's gradient is the same bits whatever it is
    stacked with.
    """

    rows: np.ndarray
    neighbours: np.ndarray
    linear: np.ndarray

    def gradients(self, coeffs: np.ndarray) -> np.ndarray:
        gathered = coeffs.take(self.neighbours, axis=1).reshape(*coeffs.shape[:2], -1, 1)
        return (self.rows @ gathered)[..., 0] - self.linear


class LossEngine:
    """Precomputed quadratic form of the blended loss for one model and sample set.

    The constructor builds the tables that depend on the breakpoints and
    samples.  The Hessian H of total and the linear term, so that
    total = 0.5 * c.H.c - linear.c + constant, are assembled on first use,
    since a sweep assembles its own stack instead; the constant is worked
    out on its own.  H is
    block-tridiagonal: m diagonal blocks H[i, i], m-1 neighbour blocks
    H[i, i+1] (with H[i+1, i] their transposes) and, in cyclic/periodic
    mode, one corner block H[m-1, 0], each (d+1, d+1).  The assembly is
    vectorised: l2 blocks are the Gram products P'P and P'y of each
    segment's design P, one einsum per group of segments with equal sample
    counts, and ck blocks come from all boundary derivative bases at once.
    gradient() is one matmul of the block rows with the gathered neighbour
    coefficients, minus the linear term.

    breakdown() returns the exact per-term values in residual form.  Both
    read model.coefficients live on every call.  The loss is affine in
    lam, so _forms() assembles the operators of a whole sweep in one pass,
    and an engine is its one-lam case: matmul treats every (run, segment)
    block alike, so a run of a sweep gets the same gradient bits as an
    engine of its own.  Likewise _breakdowns() takes the residual form of a
    whole stack of coefficient sets, and breakdown() is its one-run case.
    """

    def __init__(self, model: SplineModel, samples: SampleSet, config: LossConfig):
        _check_order(config.k, model.degree)
        self.model = model
        self.config = config
        self.seg, self.powers = _sample_tables(model, samples)
        self.ys = samples.ys
        self.bases = _boundaries(model, config.k, config.boundary_mode)
        self.strain_tables = _strain_tables(model)

    @functools.cached_property
    def _form(self) -> _Forms:
        """This engine's one-lam form."""
        return self._forms([self.config.lam])

    @property
    def linear(self) -> np.ndarray:
        return self._form.linear[0]

    @property
    def constant(self) -> float:
        return (self.config.lam * self.model.num_segments / self.ys.size
                * float(_sums_of_squares(self.ys[None])[0]))

    def _forms(self, lams) -> _Forms:
        """The stacked forms of this engine's problem at each blend weight in lams.

        lam is broadcast over the expressions a single run would evaluate,
        and the lam-free sums and einsums are computed once, so every entry
        is the same IEEE expression for any number of runs.
        """
        lam = np.asarray(lams, dtype=float)[:, None, None, None]
        m, width = self.model.coefficients.shape
        cfg = self.config
        # l2: segment i's block is the Gram matrix P'P of its (count, w) design
        # P, and its linear term P'y, taken a group of equal counts at a time;
        # each design is stored transposed, so that the sums run over
        # contiguous samples
        gram, moment = np.zeros((m, width, width)), np.zeros((m, width))
        for _, group, rows in _count_groups(self.seg, m):
            design = self.powers[rows].transpose(0, 2, 1).copy()
            gram[group] = np.einsum("gsn,gtn->gst", design, design)
            moment[group] = np.einsum("gsn,gn->gs", design, self.ys[rows])
        l2_scale = 2.0 * lam * m / self.ys.size
        diag = l2_scale * gram
        linear = l2_scale[..., 0] * moment
        if cfg.strain_weight != 0.0:
            diag[..., 2:, 2:] += 2.0 * cfg.strain_weight * self.strain_tables

        # ck: boundary b adds L'L to H[left, left], R'R to H[right, right] and
        # -L'R to H[left, right]; after[:, i] = H[i, (i+1) mod m] holds the m-1
        # neighbour blocks, then the corner block (zero in open mode).  left
        # and right each name a segment at most once, so fancy-index += is exact.
        left, right, basis_left, basis_right = self.bases
        ck_scale = 2.0 * (1.0 - lam) / max(len(left), 1)
        diag[:, left] += ck_scale * np.einsum("bjs,bjt->bst", basis_left, basis_left)
        diag[:, right] += ck_scale * np.einsum("bjs,bjt->bst", basis_right, basis_right)
        after = np.zeros_like(diag)
        after[:, left] = -ck_scale * np.einsum("bjs,bjt->bst", basis_left, basis_right)

        # block row i is [H[i, i-1], H[i, i], H[i, i+1]] against c[i-1], c[i], c[i+1], mod m,
        # filled into one C-ordered array
        rows = np.empty((len(lam), m, width, 3, width))
        rows[..., 0, :] = np.roll(after, 1, axis=1).swapaxes(2, 3)
        rows[..., 1, :] = diag
        rows[..., 2, :] = after
        i = np.arange(m)
        return _Forms(rows.reshape(len(lam), m, width, 3 * width),
                      np.stack([(i - 1) % m, i, (i + 1) % m], axis=1), linear)

    def _pass_runs(self) -> int:
        """Coefficient sets per _breakdowns pass whose gathered tables fit _RECORD_BYTES."""
        m, width = self.model.coefficients.shape
        return max(1, _RECORD_BYTES // (max(self.ys.size, m) * width * 8))

    def breakdown(self) -> LossBreakdown:
        return LossBreakdown(*self._breakdowns(self.model.coefficients[None], [self.config.lam])[0])

    def _breakdowns(self, coeffs: np.ndarray, lams) -> list[tuple[float, float, float, float]]:
        """Residual-form (total, l2, ck, strain) of each run of an (L, m, d+1) stack.

        Run r is blended with weight lams[r], in Python floats.  A term whose
        weight is 0 is left out of the blend, so an infinite term there
        cannot make the total NaN; a finite one would add exactly 0.  The
        runs are taken _pass_runs() at a time, so the gathered sample tables
        stay within about _RECORD_BYTES for any L.  Every run's row is the
        same bits whatever L is and whatever it is stacked with, so the
        passes do not change it, and breakdown() is the L = 1 case.
        """
        weight, size = self.config.strain_weight, self._pass_runs()
        terms = []
        for start in range(0, len(coeffs), size):
            part = coeffs[start:start + size]
            terms += zip(_l2_values(part, self.seg, self.powers, self.ys).tolist(),
                         _ck_values(part, self.bases).tolist(),
                         _strain_values(part, self.strain_tables).tolist())
        rows = []
        for lam, (l2, ck, strain) in zip(lams, terms):
            total = 0.0
            for w, term in ((lam, l2), (1.0 - lam, ck), (weight, strain)):
                if w:
                    total += w * term
            rows.append((total, l2, ck, strain))
        return rows

    def gradient(self) -> np.ndarray:
        return self._form.gradients(self.model.coefficients[None])[0]


def l2_loss(model: SplineModel, samples: SampleSet) -> float:
    """(m/n) * sum of squared residuals; invariant to sample/segment counts."""
    seg, powers = _sample_tables(model, samples)
    return float(_l2_values(model.coefficients[None], seg, powers, samples.ys)[0])


def ck_loss(model: SplineModel, config: LossConfig) -> float:
    """Equilibrated sum of squared derivative jumps across breakpoints.

    Open mode with a single segment has no interior boundaries and scores 0.
    """
    _check_order(config.k, model.degree)
    bases = _boundaries(model, config.k, config.boundary_mode)
    return float(_ck_values(model.coefficients[None], bases)[0])


def strain_loss(model: SplineModel) -> float:
    """Exact integral of the squared second derivative over the domain."""
    return float(_strain_values(model.coefficients[None], _strain_tables(model))[0])


def total_loss(model: SplineModel, samples: SampleSet, config: LossConfig) -> LossBreakdown:
    return LossEngine(model, samples, config).breakdown()


def gradient(model: SplineModel, samples: SampleSet, config: LossConfig) -> np.ndarray:
    """Exact gradient of the blended total with respect to every coefficient."""
    return LossEngine(model, samples, config).gradient()


def fd_gradient(model: SplineModel, samples: SampleSet, config: LossConfig,
                h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the total loss, for every coefficient.

    Entry (i, j) is (plus - minus) / (2h), where plus and minus are the
    residual-form totals with coefficient (i, j) moved by +h and by -h.
    The 2 m (d+1) perturbed copies of the coefficients are stacked about
    one _breakdowns pass at a time, but always at least one coefficient's
    two copies, and evaluated by _breakdowns.  A run's row has the bits of
    its own breakdown(), so the result is that of moving one coefficient at
    a time; model.coefficients is only read.  h must be finite and > 0.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("step h must be finite and > 0")
    engine = LossEngine(model, samples, config)
    coeffs = model.coefficients.ravel()
    out = np.empty(coeffs.size)
    # coefficients per pass; each gives two stacked runs, moved by +h and by -h
    count = max(1, engine._pass_runs() // 2)
    for start in range(0, coeffs.size, count):
        runs = min(count, coeffs.size - start)
        stack = np.empty((2, runs, coeffs.size))
        stack[:] = coeffs
        # run j of each half moves coefficient start + j (in C order)
        moved = stack.reshape(2, -1)[:, start::coeffs.size + 1]
        moved[0] += h
        moved[1] -= h
        totals = np.array([row[0] for row in engine._breakdowns(
            stack.reshape(2 * runs, *model.coefficients.shape), [config.lam] * (2 * runs))])
        out[start:start + runs] = (totals[:runs] - totals[runs:]) / (2.0 * h)
    return out.reshape(model.coefficients.shape)
