import math
import zlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckspline import (
    DomainMap,
    HistoryRow,
    LossConfig,
    LossEngine,
    OptimizerConfig,
    SampleSet,
    TrainConfig,
    apply_regularization,
    evaluate,
    fit,
    fit_sweep,
    init_state,
    least_squares_init,
    make_scaled_problem,
    regularization_vector,
    step,
)
from ckspline.losses import _sample_tables
from ckspline.training import _least_squares_coefficients


def line_samples(n=21):
    xs = np.linspace(0, 1, n)
    return SampleSet(xs, xs)


# ------------------------------------------------ regularization vector


def test_regularization_vector_values():
    assert_allclose(regularization_vector(0), [1.0])
    assert_allclose(regularization_vector(2), [6 / 11, 3 / 11, 2 / 11])
    assert_allclose(
        regularization_vector(4),
        [0.43796, 0.21898, 0.14599, 0.10949, 0.08759],
        atol=5e-6,
    )


def test_regularization_vector_sums_to_one_and_decreases():
    for degree in range(11):
        reg = regularization_vector(degree)
        assert abs(reg.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(reg) < 0) or degree == 0


def test_apply_regularization():
    grads = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    reg = regularization_vector(2)
    scaled = apply_regularization(grads, reg)
    assert_allclose(scaled[0], [6 / 11, 3 / 11, 2 / 11])
    assert_allclose(scaled[1], [12 / 11, 6 / 11, 4 / 11])
    assert_allclose(apply_regularization(np.zeros((2, 3)), reg), 0.0)
    one_col = np.array([[4.0], [5.0]])
    assert_allclose(apply_regularization(one_col, regularization_vector(0)), one_col)
    with pytest.raises(ValueError, match="length"):
        apply_regularization(grads, regularization_vector(3))


# ------------------------------------------------ scaling


def test_make_scaled_problem_unit_segments():
    xs = np.linspace(0, 16, 9)
    samples = SampleSet(xs, np.zeros(9))
    model, internal = make_scaled_problem(samples, 8, 3)
    assert model.domain_map.a == pytest.approx(0.5)
    assert model.domain_map.b == pytest.approx(0.0)
    assert_allclose(model.breakpoints, np.arange(9.0))
    assert_allclose(model.centers, np.arange(8.0) + 0.5)
    assert_allclose(internal.xs, xs / 2)
    assert np.all(model.coefficients == 0)


def test_make_scaled_problem_raw_interval():
    samples = SampleSet([0.0, 0.5, 1.0], [0, 1, 0])
    model, internal = make_scaled_problem(samples, 1, 2, scaling="none")
    assert_allclose(model.breakpoints, [0.0, 1.0])
    assert_allclose(model.centers, [0.5])
    assert model.domain_map.a == 1.0
    assert_allclose(internal.xs, samples.xs)


def test_make_scaled_problem_degenerate_domain():
    with pytest.raises(ValueError, match="degenerate"):
        make_scaled_problem(SampleSet([3.0, 3.0], [1.0, 2.0]), 2, 1)


# ------------------------------------------------ least squares init


def test_least_squares_recovers_exact_polynomial():
    xs = np.linspace(0, 1, 9)
    ys = 1 - 2 * xs + 3 * xs**2
    model, _ = make_scaled_problem(SampleSet(xs, ys), 1, 2, scaling="none")
    fitted = least_squares_init(model, SampleSet(xs, ys))
    predictions = evaluate(fitted, xs)
    assert_allclose(predictions, ys, atol=1e-12)


def test_least_squares_constant_is_mean():
    samples = SampleSet([0.0, 1.0], [0.0, 1.0])
    model, _ = make_scaled_problem(samples, 1, 0, scaling="none")
    fitted = least_squares_init(model, samples)
    assert fitted.coefficients[0, 0] == pytest.approx(0.5)


def test_least_squares_two_segments_on_line():
    xs = np.linspace(0, 2, 17)
    samples = SampleSet(xs, xs)
    model, _ = make_scaled_problem(samples, 2, 1, scaling="none")
    fitted = least_squares_init(model, samples)
    from ckspline import l2_loss

    assert l2_loss(fitted, samples) == pytest.approx(0.0, abs=1e-24)


def test_least_squares_rank_deficiency_flagged():
    # 3 samples cannot determine 2 cubic segments; fit falls back to min-norm
    xs = np.array([0.0, 0.4, 2.0])
    samples = SampleSet(xs, np.ones(3))
    config = TrainConfig(segments=2, degree=3, epochs=0,
                         loss=LossConfig(lam=1.0, k=0),
                         init="least_squares")
    report = fit(samples, config)
    assert report.rank_deficient_segments == (1, 2)


# ------------------------------------------------ fit loop


def sgd_config(degree, epochs, lam=1.0, momentum=0.0, **kwargs):
    return TrainConfig(
        segments=1,
        degree=degree,
        epochs=epochs,
        loss=LossConfig(lam=lam, k=0),
        optimizer=OptimizerConfig("sgd", 0.1, momentum=momentum),
        **kwargs,
    )


def test_fit_zero_epochs_records_initial_state():
    report = fit(line_samples(), sgd_config(1, 0))
    assert len(report.history) == 1
    assert report.history[0].epoch == 0
    assert np.all(report.final_model.coefficients == 0)
    assert not report.diverged


def test_fit_single_segment_reaches_least_squares_solution():
    samples = line_samples()
    report = fit(samples, sgd_config(1, 2000))
    model, _ = make_scaled_problem(samples, 1, 1)
    oracle = least_squares_init(model, samples)
    assert_allclose(report.final_model.coefficients, oracle.coefficients, atol=1e-3)
    assert report.history[-1].total < 1e-6


def test_fit_loss_monotone_on_convex_problem():
    report = fit(line_samples(), sgd_config(1, 300, record_every=1))
    totals = [row.total for row in report.history]
    assert all(b <= a + 1e-15 for a, b in zip(totals[1:], totals[2:]))


def test_fit_pure_continuity_stays_at_zero_init():
    xs = np.linspace(0, 2, 11)
    samples = SampleSet(xs, np.sin(xs))
    config = TrainConfig(segments=2, degree=3, epochs=50,
                         loss=LossConfig(lam=0.0, k=1),
                         optimizer=OptimizerConfig("sgd", 0.1))
    report = fit(samples, config)
    assert report.history[0].ck == 0.0
    assert report.history[-1].ck == 0.0
    assert np.all(report.final_model.coefficients == 0.0)


def test_fit_regularization_is_noop_for_degree_zero():
    samples = line_samples()
    with pytest.warns(UserWarning, match="repair"):  # degree 0 cannot be repaired
        plain = fit(samples, sgd_config(0, 200))
        scaled = fit(samples, sgd_config(0, 200, regularization="degree_based"))
    assert np.array_equal(plain.final_model.coefficients, scaled.final_model.coefficients)


def test_fit_reported_losses_ignore_sample_order():
    xs = np.linspace(0, 1, 16)
    rng = np.random.default_rng(6)
    ys = rng.normal(size=16)
    shuffle = rng.permutation(16)
    sorted_back = np.argsort(xs[shuffle], kind="stable")
    shuffled = SampleSet(xs[shuffle][sorted_back], ys[shuffle][sorted_back])
    a = fit(SampleSet(xs, ys), sgd_config(2, 100))
    b = fit(shuffled, sgd_config(2, 100))
    assert_allclose([r.total for r in a.history], [r.total for r in b.history], rtol=1e-12)


def test_fit_internal_losses_match_original_coordinate_predictions():
    xs = np.linspace(0, 16, 33)
    samples = SampleSet(xs, np.sin(xs / 3))
    config = TrainConfig(segments=4, degree=3, epochs=300,
                         loss=LossConfig(lam=1.0, k=1),
                         optimizer=OptimizerConfig("sgd", 0.1, momentum=0.9))
    report = fit(samples, config)
    model = report.final_model
    # reported l2 is computed in internal coordinates; evaluating the model
    # in original coordinates reproduces exactly the same residuals
    predictions = evaluate(model, xs)
    manual = (model.num_segments / len(xs)) * float(np.sum((predictions - samples.ys) ** 2))
    assert manual == pytest.approx(report.history[-1].l2, rel=1e-12)


def test_fit_history_epochs_and_identity():
    samples = line_samples()
    report = fit(samples, sgd_config(1, 25, lam=0.75, record_every=10))
    epochs = [row.epoch for row in report.history]
    assert epochs == [0, 10, 20, 25]
    for row in report.history:
        assert row.total == pytest.approx(0.75 * row.l2 + 0.25 * row.ck, rel=1e-12)


def test_fit_divergence_reported_not_raised():
    xs = np.linspace(0, 16, 64)
    samples = SampleSet(xs, np.sin(xs))
    config = TrainConfig(segments=8, degree=5, epochs=3000,
                         loss=LossConfig(lam=0.5, k=2),
                         optimizer=OptimizerConfig("sgd", 10.0))
    report = fit(samples, config)
    assert report.diverged
    assert report.diverged_epoch is not None
    assert all(np.isfinite(row.total) for row in report.history)


def test_fit_divergence_location():
    # sgd at lr 10 overflows the loss value while the gradient is still
    # finite, so no gradient entry is located
    xs = np.linspace(0, 16, 64)
    config = TrainConfig(segments=8, degree=5, epochs=3000,
                         loss=LossConfig(lam=0.5, k=2),
                         optimizer=OptimizerConfig("sgd", 10.0))
    report = fit(SampleSet(xs, np.sin(xs)), config)
    assert report.diverged
    assert (report.diverged_segment, report.diverged_power) == (None, None)
    # targets near the float limit overflow the linear term, so the very
    # first gradient is non-finite; the first such entry is located
    report = fit(SampleSet(xs, np.full(xs.size, 1e308)), config)
    assert report.diverged and report.diverged_epoch == 0
    assert (report.diverged_segment, report.diverged_power) == (1, 0)
    assert report.history == []


def test_fit_validates_continuity_order():
    with pytest.raises(ValueError, match="exceeds"):
        fit(line_samples(), TrainConfig(segments=1, degree=1, epochs=1,
                                        loss=LossConfig(lam=0.5, k=2)))


def test_fit_warns_when_repair_impossible():
    config = TrainConfig(segments=1, degree=2, epochs=0, loss=LossConfig(lam=1.0, k=1))
    with pytest.warns(UserWarning, match="repair"):
        fit(line_samples(), config)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(segments=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(regularization="l2")
    with pytest.raises(ValueError):
        TrainConfig(record_every=0)


# ------------------------------------------------ lockstep sweeps


def same_report(a, b):
    return (a.history == b.history
            and np.array_equal(a.final_model.coefficients, b.final_model.coefficients)
            and (a.diverged, a.diverged_epoch, a.diverged_segment, a.diverged_power,
                 a.rank_deficient_segments)
            == (b.diverged, b.diverged_epoch, b.diverged_segment, b.diverged_power,
                b.rank_deficient_segments))


def solo_fits(samples, config, lambdas):
    return [fit(samples, replace(config, loss=replace(config.loss, lam=lam))) for lam in lambdas]


@pytest.mark.parametrize("optimizer", [
    OptimizerConfig("sgd", 0.05, momentum=0.9, nesterov=True),
    OptimizerConfig("adam", 0.05),
    OptimizerConfig("adamax", 0.05),
    OptimizerConfig("amsgrad", 0.05),
])
@pytest.mark.parametrize("mode", ["open", "cyclic", "periodic"])
def test_fit_sweep_matches_sequential_fits_bit_for_bit(optimizer, mode):
    rng = np.random.default_rng(zlib.crc32(f"{optimizer.kind}-{mode}".encode()))
    xs = np.sort(rng.uniform(0.0, 5.0, 60))
    samples = SampleSet(xs, np.sin(xs) + 0.1 * rng.normal(size=60))
    lambdas = [0.5, 1.0, 0.5, 0.0, float(rng.uniform())]  # a duplicate included
    config = TrainConfig(segments=5, degree=5, epochs=120,
                         loss=LossConfig(lam=0.3, k=2, boundary_mode=mode, strain_weight=0.01),
                         optimizer=optimizer, regularization="degree_based",
                         init="least_squares", record_every=7)
    swept = fit_sweep(samples, config, lambdas)
    for report, solo in zip(swept, solo_fits(samples, config, lambdas), strict=True):
        assert same_report(report, solo)
    # every report owns its model
    swept[0].final_model.coefficients[:] = 0.0
    assert not np.array_equal(swept[2].final_model.coefficients, 0.0)


def test_fit_sweep_middle_divergence_leaves_the_others_unchanged():
    xs = np.linspace(0, 16, 128)
    samples = SampleSet(xs, np.sin(2 * np.pi * xs / 16) + 0.5 * np.sin(4 * np.pi * xs / 16))
    # with momentum a frozen run's row keeps moving, and without its zeroed
    # gradient it would reach a non-finite one before the last epoch
    config = TrainConfig(segments=8, degree=5, epochs=400, loss=LossConfig(lam=0.5, k=2),
                         optimizer=OptimizerConfig("sgd", 1.0, momentum=0.5))
    lambdas = [1.0, 0.5, 0.25, 0.0]
    swept = fit_sweep(samples, config, lambdas)
    assert [r.diverged for r in swept] == [False, True, True, False]
    assert swept[1].diverged_epoch > swept[2].diverged_epoch  # they leave at different epochs
    for report, solo in zip(swept, solo_fits(samples, config, lambdas), strict=True):
        assert same_report(report, solo)
    assert all(np.isfinite(row.total) for r in swept for row in r.history)


def test_fit_sweep_located_divergence_matches_fit():
    # targets near the float limit make the first gradient non-finite
    xs = np.linspace(0, 16, 64)
    samples = SampleSet(xs, np.full(xs.size, 1e308))
    config = TrainConfig(segments=8, degree=5, epochs=50, loss=LossConfig(lam=0.5, k=2),
                         optimizer=OptimizerConfig("sgd", 10.0))
    swept = fit_sweep(samples, config, [1.0, 0.5])
    for report, solo in zip(swept, solo_fits(samples, config, [1.0, 0.5]), strict=True):
        assert report.diverged_epoch == 0 and report.diverged_segment is not None
        assert same_report(report, solo)


def reference_fit(samples, config, lam):
    """fit() at lam as a plain loop of public calls, one run, nothing stacked.

    Returns the history, the final coefficients and the divergence epoch,
    segment and power.  A run diverges at the first epoch whose expanded
    loss value (read off the gradient) or recorded total is not finite.
    """
    model, _ = make_scaled_problem(samples, config.segments, config.degree, config.scaling)
    if config.init == "least_squares":
        model = least_squares_init(model, samples)
    engine = LossEngine(model, samples, replace(config.loss, lam=lam))
    coeffs, linear = model.coefficients, engine.linear.ravel()
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
            value = 0.5 * (grads.ravel() @ coeffs.ravel() - linear @ coeffs.ravel())
            if not math.isfinite(value + engine.constant):
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


@pytest.mark.parametrize("regularization", ["none", "degree_based"])
@pytest.mark.parametrize("optimizer", [
    OptimizerConfig("sgd", 0.05),
    OptimizerConfig("sgd", 0.05, momentum=0.9),
    OptimizerConfig("sgd", 0.05, momentum=0.9, nesterov=True),
    OptimizerConfig("sgd", 1.0, momentum=0.5),  # diverges at lambda 0.1 without scaling
    OptimizerConfig("adam", 0.05),
    OptimizerConfig("adamax", 0.05),
    OptimizerConfig("amsgrad", 0.05),
], ids=["sgd", "momentum", "nesterov", "diverging", "adam", "adamax", "amsgrad"])
def test_fit_sweep_equals_a_plain_loop_of_public_calls(optimizer, regularization):
    # the stacked loop against gradient(), breakdown(),
    # apply_regularization and step, run by run
    rng = np.random.default_rng(zlib.crc32(f"{optimizer}-{regularization}".encode()))
    xs = np.linspace(0.0, 16.0, 128)
    samples = SampleSet(xs, np.sin(2 * np.pi * xs / 16) + 0.5 * np.sin(4 * np.pi * xs / 16)
                        + 0.01 * rng.normal(size=xs.size))
    config = TrainConfig(segments=8, degree=5, epochs=150,
                         loss=LossConfig(k=2, boundary_mode="cyclic", strain_weight=0.01),
                         optimizer=optimizer, regularization=regularization,
                         init="zeros" if optimizer.kind == "sgd" else "least_squares",
                         record_every=7)  # 7 does not divide 150
    lambdas = [1.0, 0.5, 0.1]
    swept = fit_sweep(samples, config, lambdas)
    for report, lam in zip(swept, lambdas, strict=True):
        history, coeffs, divergence = reference_fit(samples, config, lam)
        assert report.history == history
        assert np.array_equal(report.final_model.coefficients, coeffs)
        assert (report.diverged_epoch, report.diverged_segment, report.diverged_power) == divergence
    diverging = optimizer.learning_rate == 1.0 and regularization == "none"
    assert any(r.diverged for r in swept) == diverging


def test_fit_sweep_validates_once_before_training():
    with pytest.raises(ValueError, match="empty"):
        fit_sweep(line_samples(), sgd_config(1, 5), [])
    with pytest.raises(ValueError, match="lam"):
        fit_sweep(line_samples(), sgd_config(1, 5), [0.5, 1.5])
    config = TrainConfig(segments=1, degree=2, epochs=0, loss=LossConfig(lam=1.0, k=1))
    with pytest.warns(UserWarning, match="repair") as caught:
        fit_sweep(line_samples(), config, [1.0, 0.5, 0.0])
    assert len(caught) == 1


@pytest.mark.parametrize("mirrored", [False, True])
def test_batched_least_squares_matches_per_segment_solves(mirrored):
    # reference: one normal-equation solve per full-rank segment over its
    # samples in input order, lstsq otherwise; a mirrored domain map (a < 0)
    # puts the samples in descending segment order
    rng = np.random.default_rng(23)
    xs = np.sort(np.concatenate([rng.uniform(0, 3, 300), np.full(5, 3.5), rng.uniform(6, 8, 200)]))
    samples = SampleSet(xs, np.cos(xs) + 0.01 * rng.normal(size=xs.size))
    model, _ = make_scaled_problem(samples, 16, 3)
    if mirrored:
        model.domain_map = DomainMap(-model.domain_map.a, 16.0 - model.domain_map.b)
    coeffs, deficient = _least_squares_coefficients(model, samples)
    seg, powers = _sample_tables(model, samples)
    expected, flagged = np.zeros_like(coeffs), []
    for i in range(16):
        design, targets = powers[seg == i], samples.ys[seg == i]
        if len(design) >= 4 and np.linalg.matrix_rank(design) == 4:
            expected[i] = np.linalg.solve(design.T @ design, design.T @ targets)
        else:
            if len(design):
                expected[i] = np.linalg.lstsq(design, targets, rcond=None)[0]
            flagged.append(i + 1)
    assert deficient == tuple(flagged) and len(flagged) > 2
    assert np.array_equal(coeffs, expected)
