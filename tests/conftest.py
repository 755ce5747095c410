import math
from dataclasses import replace

import numpy as np
import pytest

from ckspline import (
    HistoryRow,
    LossEngine,
    SampleSet,
    SplineModel,
    apply_regularization,
    init_state,
    least_squares_init,
    make_scaled_problem,
    regularization_vector,
    step,
)
from ckspline.model import rebase


def benchmark_curve(x):
    """Two-harmonic wave over [0, 16]; periodic, so all derivatives wrap."""
    return np.sin(2 * np.pi * x / 16) + 0.5 * np.sin(4 * np.pi * x / 16)


@pytest.fixture(scope="session")
def benchmark_samples():
    x = np.linspace(0.0, 16.0, 128)
    return SampleSet(x, benchmark_curve(x))


def model_from_global(breakpoints, degree, global_coeffs, domain_map=None):
    """Model whose segment polynomials are given in the unshifted basis.

    global_coeffs is one coefficient list per segment (lowest power first,
    about x=0 in internal coordinates); each is padded and rebased to the
    segment center.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    rows = []
    centers = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    for center, coeffs in zip(centers, global_coeffs):
        padded = np.zeros(degree + 1)
        padded[: len(coeffs)] = coeffs
        rows.append(rebase(padded, 0.0, center))
    kwargs = {} if domain_map is None else {"domain_map": domain_map}
    return SplineModel.from_breakpoints(breakpoints, degree, np.array(rows), **kwargs)


def reference_fd_gradient(model, samples, config, h=1e-6):
    """fd_gradient as one breakdown() per perturbed coefficient, nothing stacked.

    Moves model.coefficients[i, j] by +h and by -h in place, one entry at a
    time, and puts each entry back before the next.
    """
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


def reference_fit(samples, config, lam):
    """fit() at lam as a plain loop of public calls, one run, nothing stacked.

    Returns the history, the final coefficients and the divergence epoch,
    segment and power.  A run diverges at the first epoch whose g.c (the
    gradient dotted with the coefficients) or recorded total is not finite.
    """
    model, _ = make_scaled_problem(samples, config.segments, config.degree, config.scaling)
    if config.init == "least_squares":
        model = least_squares_init(model, samples)
    engine = LossEngine(model, samples, replace(config.loss, lam=lam))
    coeffs = model.coefficients
    state = init_state(config.optimizer, coeffs.shape)
    history = []

    def recorded(epoch):
        loss = engine.breakdown()
        if math.isfinite(loss.total):
            history.append(HistoryRow(epoch, loss.total, loss.l2, loss.ck, loss.strain))
        return math.isfinite(loss.total)

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            grads = engine.gradient()
            if not math.isfinite(grads.ravel() @ coeffs.ravel()):
                bad = np.argwhere(~np.isfinite(grads))
                segment, power = (int(bad[0, 0]) + 1, int(bad[0, 1])) if len(bad) else (None, None)
                return history, coeffs, (epoch, segment, power)
            if epoch % config.record_every == 0 and not recorded(epoch):
                return history, coeffs, (epoch, None, None)
            if config.regularization == "degree_based":
                grads = apply_regularization(grads, regularization_vector(config.degree))
            step(state, config.optimizer, coeffs, grads)
        if not recorded(config.epochs):
            return history, coeffs, (config.epochs, None, None)
    return history, coeffs, (None, None, None)
