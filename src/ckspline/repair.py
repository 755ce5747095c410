"""Exact local continuity repair via two-point Hermite correctors.

After optimization the derivative jumps at the breakpoints are small but
rarely zero.  For each boundary, both neighbor segments are nudged toward
the mean of their derivative values there by adding a degree-(2k+1)
corrective polynomial whose derivatives up to order k vanish at the
segment's opposite end.  Corrections are local: no other boundary sees any
derivative of order <= k change, so the boundaries are handled a block at a
time: one read of the block's one-sided derivatives, one stack of Hermite
systems (one per corrected segment side) and one batched solve, which keeps
the working memory the same for any number of segments.
Requires spline degree >= 2k+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ConditioningError, SplineModel, _boundaries, _boundary_count,
                    _check_boundary_mode, _derivative_basis, _one_sided, _runs)

__all__ = [
    "ConditioningError",
    "RepairReport",
    "two_point_hermite",
    "repair_continuity",
]

_MAX_CONDITION = 1e12
# a Hermite system is certified without an SVD when its kappa_F lies
# _SCREEN below _MAX_CONDITION; the factor leaves room for the rounding of
# the computed inverse
_SCREEN = 1e-2
# boundaries per block: a block's bases, one-sided values and gathered
# Hermite stack take about 1 MB at k = 3, whatever the number of segments;
# smaller blocks let the fixed cost of each block's numpy calls show
_BLOCK = 512


@dataclass(frozen=True, eq=False)
class RepairReport:
    """Per-boundary derivative jumps before and after repair.

    Rows follow the repaired boundaries left to right; a wrap-around
    boundary, when present, is reported last at position xi_m.  Columns are
    derivative orders 0..k (right value minus left value); mean_targets
    holds the per-order mean derivative each boundary was moved to.  Entries
    the boundary mode does not compare (model._boundaries) read 0: in cyclic
    mode, the wrap row's order-0 column of all three arrays.
    """

    positions: tuple[float, ...]
    pre_defects: np.ndarray
    post_defects: np.ndarray
    mean_targets: np.ndarray
    max_correction: float


def _hermite(left_x, left_derivs, right_x, right_derivs, center):
    """Batched two_point_hermite: (S,) intervals and centers, (S, k+1) derivatives.

    Each of the S confluent Vandermonde systems keeps its own nodes
    (x - center) / length, rescaled to unit length.  The systems are built
    and conditioning-checked one per run of bitwise-equal consecutive
    offsets, here node pairs (at uniform breakpoints every pair is
    (-1/2, 1/2), one run); one batched LU solve then does all S on the
    gathered stack.  Returns (S, 2k+2) coefficients.

    The check raises ConditioningError when np.linalg.cond of a system
    exceeds _MAX_CONDITION.  kappa_F = ||A||_F ||A^-1||_F bounds that 2-norm
    condition number from above, with A^-1 from an LU solve, so a system
    whose kappa_F lies _SCREEN below the limit passes without the SVD; only
    the systems this screen cannot certify, or an exactly singular stack,
    go through np.linalg.cond.  At unit length every k <= 7 is certified.
    """
    order = left_derivs.shape[1] - 1
    size = 2 * order + 2
    length = right_x - left_x
    nodes = np.stack([left_x - center, right_x - center], axis=1) / length[:, None]
    pairs, which = _runs(nodes)
    system = _derivative_basis(pairs.ravel(), size - 1, order).reshape(-1, size, size)
    rhs = np.stack([left_derivs, right_derivs], axis=1)
    rhs = rhs * length[:, None, None] ** np.arange(order + 1)
    try:
        inverse = np.linalg.solve(system, np.broadcast_to(np.eye(size), system.shape))
        kappa = np.sqrt(np.einsum("pst,pst->p", system, system)
                        * np.einsum("pst,pst->p", inverse, inverse))
    except np.linalg.LinAlgError:  # exactly singular
        kappa = np.full(len(system), np.inf)
    unsure = ~(kappa <= _SCREEN * _MAX_CONDITION)  # a NaN kappa is not certified
    if unsure.any() and (np.linalg.cond(system[unsure]) > _MAX_CONDITION).any():
        raise ConditioningError(
            f"Hermite system for order k={order} is too ill-conditioned; "
            "use a smaller k or rescale the segments"
        )
    solution = np.linalg.solve(system[which], rhs.reshape(-1, size, 1))[..., 0]
    return solution / length[:, None] ** np.arange(size)


def two_point_hermite(left_x: float, left_derivs, right_x: float, right_derivs,
                      center: float) -> np.ndarray:
    """Unique degree-(2k+1) polynomial with prescribed derivatives 0..k at both ends.

    Returns coefficients in the shifted basis about `center`.  The confluent
    Vandermonde system is solved with the interval rescaled to unit length,
    which keeps it well conditioned for practical k; LAPACK's partially
    pivoted LU does the solve.  This is the one-system call of the batched
    builder that repair_continuity uses.
    """
    left = np.asarray(left_derivs, dtype=float)
    right = np.asarray(right_derivs, dtype=float)
    if left.ndim != 1 or left.shape != right.shape or left.size == 0:
        raise ValueError("need matching derivative value lists for both endpoints")
    if not left_x < right_x:
        raise ValueError(f"left_x={left_x!r} must be < right_x={right_x!r}")
    left_x, right_x, center = (np.array([v], dtype=float) for v in (left_x, right_x, center))
    return _hermite(left_x, left[None], right_x, right[None], center)[0]


def repair_continuity(model: SplineModel, k: int, boundary_mode: str = "open"):
    """Zero the derivative jumps of order <= k at every boundary.

    Returns a repaired copy of the model plus a RepairReport.  Each boundary
    contributes one corrector to each neighbor segment; the correctors are
    built from the unrepaired model (they are independent by construction),
    a block of _BLOCK boundaries at a time, into one array.  Then each
    segment adds the corrector for its left end before the one for its
    right end, so results are bit-reproducible and do not depend on the
    block size, and the jumps left are read a block at a time.  Which
    boundaries are repaired, and which jumps at each, is model._boundaries'
    rule for boundary_mode, the one the ck loss penalises: in cyclic mode
    the wrap-around boundary aligns derivatives 1..k and leaves each
    endpoint value unchanged; periodic aligns the values too.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"continuity order k must be >= 0 and an integer, got {k!r}")
    _check_boundary_mode(boundary_mode)
    if model.degree < 2 * k + 1:
        raise ValueError(
            f"repair with continuity order k={k} requires degree >= {2 * k + 1}, "
            f"got {model.degree}"
        )

    xi, centers = model.breakpoints, model.centers
    count = _boundary_count(model, boundary_mode)
    blocks = [slice(start, start + _BLOCK) for start in range(0, count, _BLOCK)]
    width = 2 * k + 2
    # corrections[0, b] goes to right[b]'s left end, corrections[1, b] to left[b]'s right end
    corrections = np.empty((2, count, width))
    pre, means, post = (np.empty((count, k + 1)) for _ in range(3))
    for block in blocks:
        bases = _boundaries(model, k, boundary_mode, block)
        left, right = bases[:2]
        left_vals, right_vals = _one_sided(bases, model.coefficients)
        pre[block] = right_vals - left_vals
        means[block] = 0.5 * (left_vals + right_vals)
        target_left, target_right = means[block] - left_vals, means[block] - right_vals
        # one system per corrected side: right[b]'s left end, then left[b]'s right end
        sides = np.concatenate([right, left])
        zeros = np.zeros_like(left_vals)
        corrections[:, block] = _hermite(
            xi[sides], np.concatenate([target_right, zeros]), xi[sides + 1],
            np.concatenate([zeros, target_left]), centers[sides]).reshape(2, -1, width)
    left = np.arange(count)
    repaired = model.copy()
    repaired.coefficients[(left + 1) % model.num_segments, :width] += corrections[0]
    repaired.coefficients[left, :width] += corrections[1]
    for block in blocks:
        post_left, post_right = _one_sided(_boundaries(model, k, boundary_mode, block),
                                           repaired.coefficients)
        post[block] = post_right - post_left

    report = RepairReport(
        positions=tuple(xi[left + 1].tolist()),
        pre_defects=pre,
        post_defects=post,
        mean_targets=means,
        max_correction=float(np.abs(corrections, out=corrections).max(initial=0.0)),
    )
    return repaired, report
