"""Property tests over random problems.

The loss examples draw a degree, a continuity order k <= degree, a segment
count, a boundary mode, a strain weight, a scaling and the coefficients, then
check the assembled operator against the finite-difference oracle and the
residual-form values against their definitions.  The repair and evaluation
examples draw non-uniform breakpoints and a domain map (a < 0 included), and
check the batched code against one eval_segment call per boundary or point.
The sweep examples check fit_sweep against separate fits and against
reference_fit, a plain loop of public calls that tests and records epoch by
epoch.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from conftest import reference_fd_gradient, reference_fit


@st.composite
def problems(draw, max_degree=7):
    degree = draw(st.integers(0, max_degree))
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
@given(problems(max_degree=8), st.sampled_from([1e-6, 1e-3]))
def test_fd_gradient_equals_one_breakdown_per_perturbation(problem, h):
    model, samples, config = problem
    numeric = fd_gradient(model, samples, config, h=h)
    assert numeric.tobytes() == reference_fd_gradient(model, samples, config, h=h).tobytes()


def cancelling_problem():
    """One cyclic segment at k = 1 and a tiny lam.

    Every ck block of the operator is O(1), but in the one block row the
    three of them cancel, beside l2 entries of about 1e-230 that the
    cancellation rounds away in some columns and not in others.
    """
    rng = np.random.default_rng(0)
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 33)]))
    samples = SampleSet(xs, rng.normal(size=xs.size))
    model, _ = make_scaled_problem(samples, 1, 1, "none")
    model.coefficients[:] = rng.uniform(-1.0, 1.0, (1, 2))
    return model, samples, LossConfig(lam=2.4e-230, k=1, boundary_mode="cyclic")


@PROPERTY
@given(problems())
@example(cancelling_problem())
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
    # each column entry rounds on the scale of the operator entries its
    # block row sums, which can cancel to far below the largest entry of H
    assert_allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * np.abs(engine._form.rows).max())


@PROPERTY
@given(problems())
def test_breakdown_blend_identity(problem):
    model, samples, config = problem
    engine = LossEngine(model, samples, config)
    bd = engine.breakdown()
    blend = config.lam * bd.l2 + (1.0 - config.lam) * bd.ck + config.strain_weight * bd.strain
    assert bd.total == pytest.approx(blend, rel=1e-12, abs=1e-300)
    # the gradient form agrees with the residual form, 2*total = g.c -
    # linear.c + 2*constant, up to rounding on the scale of its largest term
    scale = 1.0 + engine.constant + bd.total
    coeffs = model.coefficients.ravel()
    expanded = engine.gradient().ravel() @ coeffs - engine.linear.ravel() @ coeffs
    assert expanded + 2.0 * engine.constant == pytest.approx(2.0 * bd.total, abs=2e-9 * scale)


def solo_breakdown(engine, coeffs, lam):
    """total, l2, ck and strain of one (m, d+1) run, term by term as defined."""
    r = np.einsum("nt,nt->n", engine.powers, coeffs[engine.seg]) - engine.ys
    l2 = coeffs.shape[0] / engine.ys.size * float(r @ r)
    left, right, basis_left, basis_right = engine.bases
    jumps = (np.einsum("bjt,bt->bj", basis_right, coeffs[right])
             - np.einsum("bjt,bt->bj", basis_left, coeffs[left]))
    ck = float(np.einsum("bj,bj->", jumps, jumps)) / max(len(left), 1)
    upper = coeffs[:, 2:]
    strain = float(np.einsum("is,ist,it->", upper, engine.strain_tables, upper))
    total = lam * l2 + (1.0 - lam) * ck + engine.config.strain_weight * strain
    return total, l2, ck, strain


@PROPERTY
@given(problems(), st.integers(1, 6), st.data())
def test_stacked_breakdown_row_equals_each_runs_own_breakdown(problem, runs, data):
    # the record pass and the gradient of a sweep: any number of runs, stacked
    # in any order, against breakdown() and gradient() of each run's own engine
    # and against the terms computed one run at a time
    model, samples, config = problem
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(size=(runs,) + model.coefficients.shape)
    stack *= 10.0 ** rng.integers(-3, 4, size=(runs, 1, 1))
    lams = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                              min_size=runs, max_size=runs))
    order = rng.permutation(runs)
    stacked, ordered = LossEngine(model, samples, config), [lams[r] for r in order]
    table = stacked._breakdowns(stack[order], ordered)
    grads = stacked._forms(ordered).gradients(stack[order])
    for row, grad, run in zip(table, grads, order, strict=True):
        model.coefficients[:] = stack[run]
        engine = LossEngine(model, samples, replace(config, lam=lams[run]))
        solo = engine.breakdown()
        assert row == (solo.total, solo.l2, solo.ck, solo.strain)
        assert row == solo_breakdown(engine, stack[run], lams[run])
        assert grad.tobytes() == engine.gradient().tobytes()


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
    pre_jumps, means = pre_right - pre_left, 0.5 * (pre_left + pre_right)
    post_jumps = post_right - post_left
    if mode == "cyclic":
        # the wrap keeps both endpoint values, and so its value jump, which
        # the mode does not compare: the report reads 0 there
        assert_allclose(post_left[-1, 0], pre_left[-1, 0], rtol=0.0, atol=1e-12 * scale)
        assert_allclose(post_right[-1, 0], pre_right[-1, 0], rtol=0.0, atol=1e-12 * scale)
        for table in (pre_jumps, means, post_jumps):
            table[-1, 0] = 0.0
    assert_allclose(report.pre_defects, pre_jumps, rtol=0.0, atol=1e-12 * scale)
    assert_allclose(report.mean_targets, means, rtol=0.0, atol=1e-12 * scale)
    assert_allclose(post_jumps, 0.0, rtol=0.0, atol=1e-10 * scale)
    assert_allclose(report.post_defects, 0.0, rtol=0.0, atol=1e-10 * scale)


@PROPERTY
@given(repair_problems())
def test_repair_report_holds_the_jumps_the_ck_loss_counts(problem):
    # one boundary rule for both: the report's pre-repair defects, squared and
    # equilibrated as the ck term is, give the ck loss in every mode
    model, k, mode = problem
    _, report = repair_continuity(model, k, mode)
    expected = float(np.sum(report.pre_defects**2)) / max(len(report.positions), 1)
    assert ck_loss(model, LossConfig(0.5, k, mode)) == pytest.approx(expected, rel=1e-12)


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
def sweeps(draw, kinds=st.sampled_from(OPTIMIZER_KINDS),
           rates=st.sampled_from([1e-3, 0.05, 0.5, 5.0]), max_epochs=60, max_record_every=9,
           scales=st.integers(-2, 2)):
    """A training problem with a random lambda list, duplicates allowed."""
    degree = draw(st.integers(0, 6))
    kind = draw(kinds)
    momentum = draw(st.sampled_from([0.0, 0.9])) if kind == "sgd" else 0.0
    optimizer = OptimizerConfig(kind, draw(rates),
                                momentum=momentum, nesterov=momentum > 0 and draw(st.booleans()))
    config = TrainConfig(
        segments=draw(st.integers(1, 6)), degree=degree, epochs=draw(st.integers(0, max_epochs)),
        loss=LossConfig(k=draw(st.integers(0, degree)),
                        boundary_mode=draw(st.sampled_from(BOUNDARY_MODES)),
                        strain_weight=draw(st.sampled_from([0.0, 1e-2]))),
        optimizer=optimizer,
        regularization=draw(st.sampled_from(REGULARIZATIONS)),
        init=draw(st.sampled_from(INITS)), scaling=draw(st.sampled_from(SCALINGS)),
        record_every=draw(st.integers(1, max_record_every)),
    )
    lam = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    lambdas = draw(st.lists(lam, min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])) * 3.0
    return SampleSet(xs, rng.normal(size=n) * 10.0 ** draw(scales)), config, lambdas


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


def history_bytes(history) -> bytes:
    """A history's rows as float64 bytes: NaN terms compare equal when their bits do."""
    return np.array(history, dtype=float).tobytes()


def nan_strain_sweep():
    """A least-squares start near the float limit: its strain is NaN at weight 0."""
    xs = np.array([0.0, 0.12292057, 0.80936014, 1.91088506, 3.0])
    ys = np.array([1.04900117e152, -5.35669373e152, 3.61595055e152, 1.30400005e153, 9.47080963e152])
    config = TrainConfig(segments=1, degree=4, epochs=0, loss=LossConfig(k=0),
                         optimizer=OptimizerConfig("sgd", 0.5), init="least_squares",
                         scaling="none", record_every=1)
    return SampleSet(xs, ys), config, [0.0]


@PROPERTY
@given(sweeps(kinds=st.just("sgd") | st.sampled_from(OPTIMIZER_KINDS),
              rates=st.sampled_from([0.5, 5.0]) | st.floats(1e-3, 5.0), max_epochs=120,
              max_record_every=40, scales=st.sampled_from([-2, 0, 2, 100, 150, 153])))
@example(nan_strain_sweep())
def test_fit_sweep_equals_reference_fit(sweep):
    # sgd at large rates and targets makes runs diverge anywhere in a block of
    # the stacked loop's finiteness test, on record epochs and off them
    samples, config, lambdas = sweep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degree below 2k+1
        swept = fit_sweep(samples, config, lambdas)
        references = [reference_fit(samples, config, lam) for lam in lambdas]
    for report, (history, coeffs, divergence) in zip(swept, references, strict=True):
        assert history_bytes(report.history) == history_bytes(history)
        assert report.final_model.coefficients.tobytes() == coeffs.tobytes()
        assert (report.diverged_epoch, report.diverged_segment, report.diverged_power) == divergence
