"""Piecewise polynomials in center-shifted monomial form.

A spline is described by breakpoints xi_0 < ... < xi_m, one coefficient row
per segment, per-segment centers pinned to the segment midpoints, and an
invertible affine map between data coordinates and the internal coordinates
the breakpoints live in.  Segment i (numbered 1..m) evaluates as

    p_i(x) = sum_t coefficients[i-1, t] * (x - centers[i-1])**t

in internal coordinates.  The centered basis keeps powers of the offset
small, which conditions both evaluation and gradient-based fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConditioningError",
    "DomainError",
    "DomainMap",
    "SampleSet",
    "SplineModel",
    "segment_index",
    "eval_segment",
    "evaluate",
    "rebase",
]

# Relative grace band at the domain ends; absorbs the round-off picked up
# when data endpoints travel through the affine map.
EDGE_SLACK = 1e-12
# How the last segment meets the first (_boundaries states what each compares).
BOUNDARY_MODES = ("open", "cyclic", "periodic")
# The choices of the other option flags, checked by optimizers.OptimizerConfig
# and training.TrainConfig, which export them; they live here with
# BOUNDARY_MODES so that the CLI builds its parser without loading those
# modules.
OPTIMIZER_KINDS = ("sgd", "adam", "adamax", "amsgrad")
REGULARIZATIONS = ("none", "degree_based")
INITS = ("zeros", "least_squares")
SCALINGS = ("none", "unit_segments")


def _check_boundary_mode(mode: str):
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")


class DomainError(ValueError):
    """An abscissa fell outside the spline's domain."""


class ConditioningError(ArithmeticError):
    """The Hermite system is numerically singular for the requested order.

    repair raises it and exports it; it is defined here so that the CLI
    catches it without loading repair.
    """


@dataclass(frozen=True)
class DomainMap:
    """Invertible affine map a*x + b from data coordinates to internal ones."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("domain map parameters must be finite")
        if self.a == 0.0:
            raise ValueError("domain map must be invertible (a != 0)")

    def forward(self, x):
        return self.a * x + self.b

    def inverse(self, t):
        return (t - self.b) / self.a


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sorted sample abscissae with target values."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be one-dimensional and the same length")
        if xs.size < 2:
            raise ValueError("need at least 2 samples")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("samples must be finite")
        if np.any(xs[1:] < xs[:-1]):
            raise ValueError("sample abscissae must be sorted non-decreasing")

    def __len__(self) -> int:
        return self.xs.size


@dataclass(eq=False)
class SplineModel:
    """Trainable piecewise polynomial.

    Attributes
    ----------
    breakpoints : (m+1,) strictly increasing internal abscissae.
    degree : polynomial degree d >= 0, shared by all segments.
    coefficients : (m, d+1) matrix, lowest power first, in each segment's
        center-shifted basis.  Training and repair update this in place or
        replace it wholesale; everything else treats the model as read-only,
        so concurrent evaluation is safe.
    centers : (m,) segment midpoints.
    domain_map : affine map from data coordinates to internal coordinates.
    """

    breakpoints: np.ndarray
    degree: int
    coefficients: np.ndarray
    centers: np.ndarray
    domain_map: DomainMap = field(default_factory=DomainMap)

    def __post_init__(self):
        xi = np.asarray(self.breakpoints, dtype=float)
        coeffs = np.asarray(self.coefficients, dtype=float)
        centers = np.asarray(self.centers, dtype=float)
        self.breakpoints, self.coefficients, self.centers = xi, coeffs, centers
        if xi.ndim != 1 or xi.size < 2:
            raise ValueError("need at least one segment (two breakpoints)")
        if not np.isfinite(xi).all() or np.any(np.diff(xi) <= 0.0):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 0:
            raise ValueError("degree must be a non-negative integer")
        self.degree = int(self.degree)
        m = xi.size - 1
        if coeffs.shape != (m, self.degree + 1):
            raise ValueError(
                f"coefficients must have shape ({m}, {self.degree + 1}), got {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        mid = 0.5 * (xi[:-1] + xi[1:])
        if centers.shape != (m,) or np.any(np.abs(centers - mid) > np.spacing(np.abs(mid))):
            raise ValueError("centers must sit at the segment midpoints")
        if not isinstance(self.domain_map, DomainMap):
            raise ValueError("domain_map must be a DomainMap")

    @classmethod
    def from_breakpoints(cls, breakpoints, degree, coefficients=None, domain_map=None):
        """Build a model with midpoint centers; zero coefficients by default."""
        xi = np.asarray(breakpoints, dtype=float)
        if coefficients is None:
            coefficients = np.zeros((xi.size - 1, degree + 1))
        if domain_map is None:
            domain_map = DomainMap()
        centers = 0.5 * (xi[:-1] + xi[1:])
        return cls(xi, degree, np.asarray(coefficients, dtype=float), centers, domain_map)

    @property
    def num_segments(self) -> int:
        return self.centers.size

    def copy(self) -> "SplineModel":
        return SplineModel(
            self.breakpoints.copy(),
            self.degree,
            self.coefficients.copy(),
            self.centers.copy(),
            self.domain_map,
        )

    def __call__(self, x, j: int = 0):
        return evaluate(self, x, j)


def _locate(model: SplineModel, t, x, noun: str = "point"):
    """Internal coordinates t clipped into the domain, and their owning 0-based rows.

    Ownership is half-open: an interior breakpoint belongs to the segment on
    its right, and the last segment is closed at xi_m, so a row is the count
    of interior breakpoints <= t (a binary search).  Points within EDGE_SLACK
    of the domain ends are pulled onto them; any farther out, or NaN, raise
    DomainError naming the first offender by its caller-side coordinate x.
    """
    xi = model.breakpoints
    t = np.asarray(t, dtype=float)
    slack = EDGE_SLACK * (xi[-1] - xi[0])
    bad = np.flatnonzero(~((t >= xi[0] - slack) & (t <= xi[-1] + slack)))
    if bad.size:
        i = int(bad[0])
        where = f"{noun} {i} at " if t.ndim else ""
        raise DomainError(
            f"{where}x={float(np.ravel(x)[i])!r} maps to {float(t.flat[i])!r}, "
            f"outside spline domain [{xi[0]!r}, {xi[-1]!r}]"
        )
    t = np.clip(t, xi[0], xi[-1])
    return t, np.searchsorted(xi[1:-1], t, side="right")


def segment_index(model: SplineModel, x: float) -> int:
    """Segment number (1-based) owning internal coordinate x.

    An interior breakpoint belongs to the segment on its right; the last
    segment is closed at xi_m.  Lookup is a binary search.
    """
    return int(_locate(model, x, x)[1]) + 1


def _derivative_coefficients(coeffs, j):
    """Coefficients of the j-th derivative, in the same shifted basis, of every row."""
    if not isinstance(j, (int, np.integer)) or j < 0:
        raise ValueError(f"derivative order must be >= 0 and an integer, got {j!r}")
    d = coeffs.shape[1] - 1
    if j > d:
        return np.zeros((coeffs.shape[0], 1))
    # Falling factorials t!/(t-j)! stay exact in integer arithmetic.
    factors = np.array([math.perm(t, j) for t in range(j, d + 1)], dtype=float)
    return coeffs[:, j:] * factors


def _horner(coeffs, rows, u):
    """sum_t coeffs[rows, t] * u**t, in place and one gathered column at a time.

    Never holds a (len(u), d+1) gather, so extra memory stays at two arrays
    the size of u.
    """
    acc = np.full(np.shape(u), coeffs[rows, -1])
    for t in range(coeffs.shape[1] - 2, -1, -1):
        acc *= u
        acc += coeffs[rows, t]
    return acc


def eval_segment(model: SplineModel, i: int, x, j: int = 0):
    """j-th derivative of segment i's polynomial at internal coordinate x.

    x may lie outside the segment's own interval, so both neighbors of a
    shared breakpoint can be probed there.
    """
    m = model.num_segments
    if not 1 <= i <= m:
        raise IndexError(f"segment {i} out of range 1..{m}")
    u = np.asarray(x, dtype=float) - model.centers[i - 1]
    out = _horner(_derivative_coefficients(model.coefficients[i - 1:i], j), 0, u)
    return float(out) if out.ndim == 0 else out


def _derivatives(model: SplineModel, x, orders):
    """Yield the j-th derivative at data coordinates x for each j in orders, as evaluate.

    One _locate maps x and finds the owning segments for every order.  Each
    yielded array has the shape of x.
    """
    x = np.asarray(x, dtype=float)
    t, rows = _locate(model, model.domain_map.forward(x), x)
    t -= model.centers[rows]  # now the offset within each owning segment
    # only the segments the points reach: a block of nearby points costs in
    # proportion to its own segments, not the model's
    first = rows.min(initial=model.num_segments)
    coeffs = model.coefficients[first:rows.max(initial=0) + 1]
    rows = rows - first
    for j in orders:
        out = _horner(_derivative_coefficients(coeffs, j), rows, t)
        out *= model.domain_map.a**j
        yield out


def evaluate(model: SplineModel, x, j: int = 0):
    """j-th derivative with respect to data coordinates, at data coordinate x.

    Maps x through the domain map, gathers the derivative coefficients of
    each point's owning segment, runs one Horner pass over all points, and
    applies the chain-rule factor a**j: the one-order case of _derivatives.
    A scalar x returns a float.
    """
    (out,) = _derivatives(model, x, [j])
    return float(out) if out.ndim == 0 else out


def _derivative_basis(u, degree, k):
    """(len(u), k+1, d+1): row j holds d^j/dx^j of each shifted monomial at offset u.

    The pows are one per power and one per run of bitwise-equal consecutive
    offsets (at uniform breakpoints every boundary side has the same offset,
    so u is one run), gathered per order and per u; the product is
    C-contiguous, which keeps einsum's summation order over it fixed.
    """
    distinct, which = _runs(u)
    j = np.arange(k + 1)[:, None]
    t = np.arange(degree + 1)
    factors = np.array([[math.perm(s, row) for s in range(degree + 1)] for row in range(k + 1)],
                       dtype=float)
    return (factors * (distinct[:, None] ** t).take(np.maximum(t - j, 0), axis=1))[which]


def _runs(values):
    """The first row of each run of bitwise-equal consecutive rows, and each row's run.

    values is (n,) or (n, r) float; rows compare by their int64 bits, so -0.0
    and 0.0 differ and a NaN equals its own bits.  Returns (firsts, which)
    with values == firsts[which] bit for bit.
    """
    bits = values.view(np.int64)
    differs = bits[1:] != bits[:-1]
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = differs if differs.ndim == 1 else differs.any(axis=1)
    return values[starts], np.cumsum(starts) - 1


def _boundary_count(model: SplineModel, mode: str) -> int:
    """How many boundaries mode compares: m-1 in open mode, m with the wrap."""
    return model.num_segments - (mode == "open")


def _boundaries(model: SplineModel, k: int, mode: str, block: slice = slice(None)):
    """The boundaries that boundary mode compares, with their order-0..k derivative bases.

    The one statement of which derivative jumps count: the ck loss
    penalises them and repair_continuity closes and reports them.  Boundary
    b joins row left[b] at its right end to row right[b] = (left[b] + 1) mod
    m at its left end.  The m-1 interior boundaries come first; in cyclic
    and periodic mode one wrap-around boundary follows, comparing derivative
    values at xi_m and xi_0.  Cyclic mode compares only orders 1..k there,
    so the order-0 rows of both its bases are zero, and so is its value
    jump.  Returns (left, right, basis_left, basis_right) for the boundaries
    in block, every boundary by default; _one_sided turns the bases into
    values.
    """
    m = model.num_segments
    xi, centers = model.breakpoints, model.centers
    left = np.arange(_boundary_count(model, mode))[block]
    right = (left + 1) % m
    basis_left = _derivative_basis(xi[left + 1] - centers[left], model.degree, k)
    basis_right = _derivative_basis(xi[right] - centers[right], model.degree, k)
    if mode == "cyclic":
        wrap = left == m - 1
        basis_left[wrap, 0] = basis_right[wrap, 0] = 0.0
    return left, right, basis_left, basis_right


def _one_sided(boundaries, coeffs):
    """(..., B, k+1) left and right one-sided derivative values at every boundary.

    coeffs is (m, d+1) or a stack of them, (..., m, d+1).
    """
    left, right, basis_left, basis_right = boundaries
    return (np.einsum("bjt,...bt->...bj", basis_left, coeffs.take(left, axis=-2)),
            np.einsum("bjt,...bt->...bj", basis_right, coeffs.take(right, axis=-2)))


def rebase(coeffs, old_center, new_center):
    """Re-express shifted-basis coefficients about a new center (Taylor shift).

    Returns beta with sum_t beta[t] (x-new)**t == sum_t coeffs[t] (x-old)**t.
    """
    out = np.array(coeffs, dtype=float)
    if not np.isfinite(out).all() or not math.isfinite(old_center) or not math.isfinite(new_center):
        raise ValueError("rebase requires finite inputs")
    h = float(new_center) - float(old_center)
    if h == 0.0:
        return out
    n = out.size
    # Repeated synthetic division: expands p(v + h) in powers of v.
    for s in range(n):
        for t in range(n - 2, s - 1, -1):
            out[t] += h * out[t + 1]
    return out
