"""Exact minimum of the blended loss, independent of the training loop.

Every loss term is quadratic in the coefficients, so the gradient is affine:
g(c) = H c - b.  H is assembled column by column from `LossEngine.gradient`
probes.  Segment i only couples to segments i-1 and i+1 (and, in cyclic or
periodic mode, segment 0 to segment m-1), so H is block-tridiagonal plus
corner blocks.  Probing every segment of one colour at once, with colours
at least three segments apart, therefore needs only colours * (d+1)
gradient calls.  The minimiser then comes from one dense `numpy.linalg.solve`
and the minimum is read back through `LossEngine.breakdown`, whose residual
form keeps its digits when the minimum is tiny.
"""

from __future__ import annotations

import numpy as np

from ckspline import LossEngine, fd_gradient, make_scaled_problem

# The residual gradient at the computed minimiser, relative to |b|, above
# which the solve is not trusted.
RESIDUAL_TOL = 1e-8


def _colours(m: int, wrap: bool) -> int:
    if not wrap:
        return min(3, m)
    # the wrap boundary joins segments m-1 and 0, so the colour period must divide m
    return next((c for c in range(3, m) if m % c == 0), m)


def quadratic_form(engine: LossEngine):
    """(H, b) with gradient(c) = H @ c.ravel() - b; leaves coefficients at zero."""
    coeffs = engine.model.coefficients
    m, width = coeffs.shape
    wrap = engine.config.boundary_mode != "open"
    coeffs[:] = 0.0
    g0 = engine.gradient()
    hessian = np.zeros((m, width, m, width))
    colours = _colours(m, wrap)
    for colour in range(colours):
        owners = np.arange(colour, m, colours)
        for power in range(width):
            coeffs[:] = 0.0
            coeffs[owners, power] = 1.0
            column = engine.gradient() - g0
            for i in owners:
                for row in (i - 1, i, i + 1):
                    if wrap:
                        row %= m
                    elif not 0 <= row < m:
                        continue
                    hessian[row, :, i, power] = column[row]
    coeffs[:] = 0.0
    size = m * width
    return hessian.reshape(size, size), -g0.ravel()


def exact_minimum(samples, config) -> float:
    """Smallest reachable `total` for the fit that `config` (a TrainConfig) describes."""
    if config.loss.lam == 0.0:
        # no l2 term means no linear term: c = 0 attains the minimum 0
        return 0.0
    model, _ = make_scaled_problem(samples, config.segments, config.degree, config.scaling)
    engine = LossEngine(model, samples, config.loss)
    hessian, rhs = quadratic_form(engine)
    model.coefficients[:] = np.linalg.solve(hessian, rhs).reshape(model.coefficients.shape)
    residual = float(np.abs(engine.gradient()).max())
    if not residual <= RESIDUAL_TOL * max(1.0, float(np.abs(rhs).max())):
        raise ArithmeticError(f"exact minimum not trusted: residual gradient {residual:.3g}")
    return engine.breakdown().total


def cross_check(samples, loss_config, segments: int, degree: int, seed: int) -> float:
    """Max deviation of H c - b from `fd_gradient` at seeded coefficients.

    Raises if the assembled quadratic form disagrees with the independent
    finite-difference oracle; returns the deviation otherwise.
    """
    model, _ = make_scaled_problem(samples, segments, degree)
    engine = LossEngine(model, samples, loss_config)
    hessian, rhs = quadratic_form(engine)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, model.coefficients.shape)
    model.coefficients[:] = coeffs
    finite_diff = fd_gradient(model, samples, loss_config)
    deviation = float(np.abs(hessian @ coeffs.ravel() - rhs - finite_diff.ravel()).max())
    if not deviation <= 1e-6 * max(1.0, float(np.abs(finite_diff).max())):
        raise ArithmeticError(f"oracle disagrees with fd_gradient by {deviation:.3g}")
    return deviation
