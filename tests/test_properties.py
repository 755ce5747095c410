"""Property tests over random problems.

The loss examples draw a degree, a continuity order k <= degree, a segment
count, a boundary mode, a strain weight, a scaling and the coefficients, then
check the assembled operator against the finite-difference oracle and the
residual-form values against their definitions.  The repair and evaluation
examples draw non-uniform breakpoints and a domain map (a < 0 included), and
check the batched code against one eval_segment call per boundary or point.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ckspline import (
    DomainMap,
    LossConfig,
    LossEngine,
    OptimizerConfig,
    SampleSet,
    SplineModel,
    TrainConfig,
    ck_loss,
    evaluate,
    fd_gradient,
    fit,
    fit_sweep,
    make_scaled_problem,
    rebase,
    repair_continuity,
)
from ckspline.losses import BOUNDARY_MODES
from ckspline.model import eval_segment
from ckspline.optimizers import OPTIMIZER_KINDS
from ckspline.training import INITS, REGULARIZATIONS, SCALINGS


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
    form, coeffs = engine._forms([config.lam]), model.coefficients[None]
    expanded = form.expanded_totals(coeffs, form.gradients(coeffs))[0]
    assert expanded == pytest.approx(bd.total, abs=1e-9 * scale)


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


@st.composite
def splines(draw, min_degree=0, min_segments=1):
    """Model on random non-uniform breakpoints with random coefficients and domain map."""
    segments = draw(st.integers(min_segments, 6))
    degree = draw(st.integers(min_degree, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = rng.uniform(0.25, 2.0, segments)
    breakpoints = draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 5.0))
    return SplineModel.from_breakpoints(breakpoints, degree,
                                        rng.uniform(-1.0, 1.0, (segments, degree + 1)),
                                        DomainMap(a, draw(st.floats(-3.0, 3.0))))


def one_sided_reference(model, k, boundary_mode):
    """(B, k+1) left and right values, one eval_segment call per boundary and order."""
    m, xi = model.num_segments, model.breakpoints
    joins = [(b, b + 1, xi[b], xi[b]) for b in range(1, m)]
    if boundary_mode != "open":
        joins.append((m, 1, xi[-1], xi[0]))
    left = [[eval_segment(model, i, x, j) for j in range(k + 1)] for i, _, x, _ in joins]
    right = [[eval_segment(model, i, x, j) for j in range(k + 1)] for _, i, _, x in joins]
    return np.array(left).reshape(-1, k + 1), np.array(right).reshape(-1, k + 1)


@st.composite
def repair_problems(draw):
    k = draw(st.integers(0, 3))
    model = draw(splines(min_degree=2 * k + 1))
    return model, k, draw(st.sampled_from(BOUNDARY_MODES))


@PROPERTY
@given(repair_problems())
def test_repair_is_exact(problem):
    model, k, mode = problem
    repaired, report = repair_continuity(model, k, mode)
    pre_left, pre_right = one_sided_reference(model, k, mode)
    post_left, post_right = one_sided_reference(repaired, k, mode)
    scale = 1.0 + np.abs(pre_left).max(initial=0.0) + np.abs(pre_right).max(initial=0.0)
    assert_allclose(report.pre_defects, pre_right - pre_left, rtol=0.0, atol=1e-12 * scale)
    assert_allclose(report.mean_targets, 0.5 * (pre_left + pre_right), rtol=0.0,
                    atol=1e-12 * scale)
    expected = np.zeros_like(pre_left)
    if mode == "cyclic":
        # the wrap keeps both endpoint values, and so its value jump
        expected[-1, 0] = pre_right[-1, 0] - pre_left[-1, 0]
        assert_allclose(post_left[-1, 0], pre_left[-1, 0], rtol=0.0, atol=1e-12 * scale)
    assert_allclose(post_right - post_left, expected, rtol=0.0, atol=1e-10 * scale)
    assert_allclose(report.post_defects, expected, rtol=0.0, atol=1e-10 * scale)


@PROPERTY
@given(repair_problems(), st.data())
def test_repair_is_local(problem, data):
    # a spline made of one global polynomial, plus another polynomial added
    # right of boundary `jump` only: every other interior boundary is
    # continuous and must keep both one-sided derivatives 0..k
    model, k, mode = problem
    m = model.num_segments
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    smooth = rng.uniform(-1.0, 1.0, model.degree + 1) / np.cumprod(np.arange(1, model.degree + 2))
    step = rng.uniform(-1.0, 1.0, model.degree + 1)
    jump = data.draw(st.integers(0, m))  # 0 or m: no interior jump
    for row, center in enumerate(model.centers):
        model.coefficients[row] = rebase(smooth + step * (row >= jump), 0.0, center)
    before_left, before_right = one_sided_reference(model, k, mode)
    repaired, _ = repair_continuity(model, k, mode)
    after_left, after_right = one_sided_reference(repaired, k, mode)
    untouched = [b for b in range(m - 1) if b != jump - 1]
    scale = 1.0 + np.abs(before_left).max(initial=0.0) + np.abs(before_right).max(initial=0.0)
    assert_allclose(after_left[untouched], before_left[untouched], rtol=0.0, atol=1e-10 * scale)
    assert_allclose(after_right[untouched], before_right[untouched], rtol=0.0, atol=1e-10 * scale)


@PROPERTY
@given(arrays(float, st.integers(1, 9), elements=st.floats(-1.0, 1.0)),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
def test_rebase_round_trips_and_keeps_values(coeffs, old, new, x):
    shifted = rebase(coeffs, old, new)
    scale = (1.0 + abs(new - old)) ** (2 * coeffs.size)
    assert_allclose(rebase(shifted, new, old), coeffs, rtol=0.0, atol=1e-14 * scale)
    direct = sum(c * (x - old) ** t for t, c in enumerate(coeffs))
    moved = sum(c * (x - new) ** t for t, c in enumerate(shifted))
    assert moved == pytest.approx(direct, abs=1e-14 * scale * (1.0 + abs(x - new)) ** coeffs.size)


@PROPERTY
@given(splines(), st.integers(0, 8), st.data())
def test_evaluate_is_owning_segment_times_chain_factor(model, j, data):
    xi, a = model.breakpoints, model.domain_map.a
    fractions = data.draw(arrays(float, st.integers(1, 12), elements=st.floats(0.0, 1.0)))
    internal = np.concatenate([xi, xi[0] + fractions * (xi[-1] - xi[0])])
    xs = model.domain_map.inverse(internal)
    values = evaluate(model, xs, j)
    for x, value in zip(xs, values):
        t = min(max(model.domain_map.forward(x), xi[0]), xi[-1])
        owner = min(int(np.count_nonzero(xi <= t)), model.num_segments)
        expected = eval_segment(model, owner, t, j) * a**j
        assert value == expected
        assert evaluate(model, float(x), j) == expected


@PROPERTY
@given(splines(), st.integers(0, 8), st.integers(0, 5), st.floats(0.2, 0.8))
def test_evaluate_chain_rule_against_central_difference(model, j, segment, fraction):
    segment = min(segment, model.num_segments - 1)
    lo, hi = model.breakpoints[segment], model.breakpoints[segment + 1]
    dmap = model.domain_map
    x = dmap.inverse(lo + fraction * (hi - lo))
    h = 1e-5 * (hi - lo) / abs(dmap.a)  # internal step of 1e-5 segment widths
    central = (evaluate(model, x + h, j) - evaluate(model, x - h, j)) / (2.0 * h)
    # every derivative of a segment is at most sum_t t! |c_t| on its own interval
    factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, model.degree + 1)]))
    scale = abs(dmap.a) ** (j + 1) * (1.0 + (np.abs(model.coefficients) @ factorials).max())
    assert central == pytest.approx(evaluate(model, x, j + 1), abs=1e-8 * scale)


@st.composite
def sweeps(draw):
    """A training problem with a random lambda list, duplicates allowed."""
    degree = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(OPTIMIZER_KINDS))
    momentum = draw(st.sampled_from([0.0, 0.9])) if kind == "sgd" else 0.0
    optimizer = OptimizerConfig(kind, draw(st.sampled_from([1e-3, 0.05, 0.5, 5.0])),
                                momentum=momentum, nesterov=momentum > 0 and draw(st.booleans()))
    config = TrainConfig(
        segments=draw(st.integers(1, 6)), degree=degree, epochs=draw(st.integers(0, 60)),
        loss=LossConfig(k=draw(st.integers(0, degree)),
                        boundary_mode=draw(st.sampled_from(BOUNDARY_MODES)),
                        strain_weight=draw(st.sampled_from([0.0, 1e-2]))),
        optimizer=optimizer,
        regularization=draw(st.sampled_from(REGULARIZATIONS)),
        init=draw(st.sampled_from(INITS)), scaling=draw(st.sampled_from(SCALINGS)),
        record_every=draw(st.integers(1, 9)),
    )
    lam = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    lambdas = draw(st.lists(lam, min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])) * 3.0
    return SampleSet(xs, rng.normal(size=n) * 10.0 ** draw(st.integers(-2, 2))), config, lambdas


@PROPERTY
@given(sweeps())
def test_fit_sweep_equals_sequential_fits_bit_for_bit(sweep):
    samples, config, lambdas = sweep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degree below 2k+1
        swept = fit_sweep(samples, config, lambdas)
        solos = [fit(samples, replace(config, loss=replace(config.loss, lam=lam)))
                 for lam in lambdas]
    for report, solo in zip(swept, solos, strict=True):
        assert report.history == solo.history
        assert np.array_equal(report.final_model.coefficients, solo.final_model.coefficients)
        assert (report.diverged_epoch, report.diverged_segment, report.diverged_power,
                report.rank_deficient_segments) == (
                solo.diverged_epoch, solo.diverged_segment, solo.diverged_power,
                solo.rank_deficient_segments)
