"""Property tests for the assembled loss operator over random problems.

Each example draws a degree, a continuity order k <= degree, a segment count,
a boundary mode, a strain weight, a scaling and the coefficients, then checks
the assembled operator against the finite-difference oracle and the
residual-form values against their definitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ckspline import LossConfig, LossEngine, SampleSet, ck_loss, fd_gradient, make_scaled_problem
from ckspline.losses import BOUNDARY_MODES
from ckspline.model import eval_segment
from ckspline.training import SCALINGS


@st.composite
def problems(draw):
    degree = draw(st.integers(0, 7))
    k = draw(st.integers(0, degree))
    segments = draw(st.integers(1, 5))
    config = LossConfig(
        lam=draw(st.floats(0.0, 1.0)),
        k=k,
        boundary_mode=draw(st.sampled_from(BOUNDARY_MODES)),
        strain_weight=draw(st.sampled_from([0.0, 1e-3, 0.5])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.5, 2.0 * segments))
    n = draw(st.integers(2, 40))
    xs = lo + width * np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)]))
    samples = SampleSet(xs, rng.normal(size=n))
    model, _ = make_scaled_problem(samples, segments, degree, draw(st.sampled_from(SCALINGS)))
    model.coefficients[:] = draw(arrays(float, model.coefficients.shape,
                                        elements=st.floats(-1.0, 1.0)))
    return model, samples, config


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(problems())
def test_operator_gradient_matches_fd_gradient(problem):
    model, samples, config = problem
    engine = LossEngine(model, samples, config)
    scale = max(1.0, engine.breakdown().total)
    assert_allclose(engine.gradient(), fd_gradient(model, samples, config),
                    rtol=1e-5, atol=1e-8 * scale)


@PROPERTY
@given(problems())
def test_operator_columns_form_a_symmetric_matrix(problem):
    model, samples, config = problem
    engine = LossEngine(model, samples, config)
    coeffs = model.coefficients
    base = engine.gradient()
    columns = []
    for i, j in np.ndindex(coeffs.shape):
        coeffs[i, j] += 1.0
        columns.append((engine.gradient() - base).ravel())
        coeffs[i, j] -= 1.0
    hessian = np.array(columns).T
    assert_allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * np.abs(hessian).max())


@PROPERTY
@given(problems())
def test_breakdown_blend_identity(problem):
    model, samples, config = problem
    engine = LossEngine(model, samples, config)
    bd = engine.breakdown()
    blend = config.lam * bd.l2 + (1.0 - config.lam) * bd.ck + config.strain_weight * bd.strain
    assert bd.total == pytest.approx(blend, rel=1e-12, abs=1e-300)
    # the cheap expanded value the training loop tests for finiteness agrees
    # with the residual form up to rounding on the scale of its largest term
    scale = 1.0 + engine.constant + bd.total
    assert engine._expanded_total(engine.gradient()) == pytest.approx(bd.total, abs=1e-9 * scale)


@PROPERTY
@given(problems())
def test_ck_matches_boundary_loop_reference(problem):
    # one boundary at a time through eval_segment, as the loss is defined:
    # cyclic mode skips the value row at the wrap, periodic mode keeps it
    model, _, config = problem
    m, xi = model.num_segments, model.breakpoints
    joins = [(b, b + 1, xi[b], xi[b], 0) for b in range(1, m)]
    if config.boundary_mode != "open":
        joins.append((m, 1, xi[-1], xi[0], int(config.boundary_mode == "cyclic")))
    reference = sum(
        (eval_segment(model, right, x_right, j) - eval_segment(model, left, x_left, j)) ** 2
        for left, right, x_left, x_right, first in joins
        for j in range(first, config.k + 1)
    ) / (m if config.boundary_mode != "open" else max(m - 1, 1))
    assert ck_loss(model, config) == pytest.approx(reference, rel=1e-9, abs=1e-12)
