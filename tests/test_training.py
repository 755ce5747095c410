import tracemalloc
import warnings
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
    least_squares_init,
    make_scaled_problem,
    regularization_vector,
)
from ckspline import losses, training
from ckspline.losses import _sample_tables
from ckspline.training import _BLOCK, _RECORD_BYTES, _least_squares_coefficients

from conftest import reference_fit


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


@pytest.mark.parametrize("scaling", ["unit_segments", "none"])
def test_make_scaled_problem_range_wider_than_a_double(scaling):
    samples = SampleSet([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"sample range \[-1e\+308, 1e\+308\]"):
        make_scaled_problem(samples, 4, 3, scaling)


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


def test_fit_builds_the_sample_tables_once_for_a_least_squares_start(monkeypatch):
    # the engine's tables serve the least-squares start too
    calls = []

    def counted(model, samples):
        calls.append(len(samples))
        return _sample_tables(model, samples)

    monkeypatch.setattr(losses, "_sample_tables", counted)
    monkeypatch.setattr(training, "_sample_tables", counted)
    xs = np.linspace(0, 16, 128)
    fit(SampleSet(xs, np.sin(xs)), TrainConfig(segments=8, degree=5, epochs=20,
                                               loss=LossConfig(k=2), init="least_squares"))
    assert calls == [128]


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
    # the error comes before the degree-below-2k+1 warning, which is not raised
    with warnings.catch_warnings(), pytest.raises(ValueError, match="exceeds"):
        warnings.simplefilter("error")
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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: TrainConfig(degree=-1), "degree must be >= 0", id="negative-degree"),
    pytest.param(lambda: TrainConfig(degree=1, loss=LossConfig(k=2)),
                 "continuity order k=2 exceeds spline degree 1", id="k-above-degree"),
    pytest.param(lambda: TrainConfig(init="ones"), "init must be one of", id="unknown-init"),
    pytest.param(lambda: TrainConfig(scaling="log"), "scaling must be one of",
                 id="unknown-scaling"),
    pytest.param(lambda: regularization_vector(-1), "degree must be >= 0",
                 id="regularization-negative-degree"),
    pytest.param(lambda: make_scaled_problem(line_samples(), 2, 1, "log"),
                 "scaling must be one of", id="problem-unknown-scaling"),
    pytest.param(lambda: make_scaled_problem(line_samples(), 0, 1),
                 "need segments >= 1 and degree >= 0", id="problem-no-segments"),
])
def test_training_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    # a frozen run's row keeps training and goes non-finite before the last
    # epoch; it must stay out of the finiteness tests and the record passes
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


def assert_matches_reference(samples, config, lambdas):
    """fit_sweep's reports against reference_fit, run by run; returns the reports."""
    swept = fit_sweep(samples, config, lambdas)
    for report, lam in zip(swept, lambdas, strict=True):
        history, coeffs, divergence = reference_fit(samples, config, lam)
        assert report.history == history
        assert report.final_model.coefficients.tobytes() == coeffs.tobytes()
        assert (report.diverged_epoch, report.diverged_segment, report.diverged_power) == divergence
        assert report.diverged == (divergence[0] is not None)
    return swept


def record_epoch_divergence(record_every):
    xs = np.linspace(0, 16, 64)
    config = TrainConfig(segments=8, degree=5, epochs=400,
                         loss=LossConfig(lam=0.5, k=0, boundary_mode="periodic"),
                         optimizer=OptimizerConfig("sgd", 3.0), record_every=record_every)
    return SampleSet(xs, np.sin(xs)), config


@pytest.mark.parametrize("record_every, epoch", [(9, 279), (10, 280)])
def test_fit_sweep_divergence_on_a_record_epoch(record_every, epoch):
    # the recorded total at epoch 279 (a multiple of 9) overflows one epoch
    # before g.c does; a record epoch freezes the run at the stack it
    # recorded, even when its block tests clean until later
    samples, config = record_epoch_divergence(record_every)
    [report] = assert_matches_reference(samples, config, [0.5])
    assert (report.diverged_epoch, report.diverged_segment, report.diverged_power) == (
        epoch, None, None)
    assert report.history[-1].epoch == 270


def test_fit_sweep_runs_on_when_the_sum_of_squared_targets_overflows():
    # sum(y**2) overflows a double while the least-squares residuals, and
    # so g.c and the recorded totals, stay finite: no run diverges
    xs = np.linspace(0, 16, 64)
    samples = SampleSet(xs, 1e154 * (1 + xs / 16))
    config = TrainConfig(segments=8, degree=1, epochs=10, loss=LossConfig(k=0),
                         optimizer=OptimizerConfig("sgd", 0.1), init="least_squares")
    swept = assert_matches_reference(samples, config, [1.0, 0.5])
    for report in swept:
        assert not report.diverged
        assert [row.epoch for row in report.history] == [0, 10]
        assert np.isfinite(np.array(report.history, dtype=float)).all()


def test_fit_sweep_expanded_test_wins_on_a_record_epoch_with_a_live_run():
    # lambda 1's g.c overflows at epoch 127 while its recorded total there
    # is still finite; the run gets no row at 127, and lambda 0 records on
    xs = np.linspace(0, 1, 97)
    config = TrainConfig(segments=3, degree=3, epochs=200,
                         loss=LossConfig(k=3, boundary_mode="cyclic", strain_weight=1.0),
                         optimizer=OptimizerConfig("sgd", 2.2), record_every=1)
    with pytest.warns(UserWarning, match="repair"):
        swept = assert_matches_reference(SampleSet(xs, np.sin(3 * xs)), config, [1.0, 0.0])
    assert [r.diverged_epoch for r in swept] == [127, None]
    assert swept[0].history[-1].epoch == 126


def test_fit_sweep_every_run_diverges():
    xs = np.linspace(0, 16, 64)
    samples = SampleSet(xs, np.sin(xs))
    config = TrainConfig(segments=8, degree=5, epochs=600, loss=LossConfig(k=2),
                         optimizer=OptimizerConfig("sgd", 10.0), record_every=3)
    swept = assert_matches_reference(samples, config, [1.0, 0.6, 0.3, 0.1])
    assert all(r.diverged for r in swept)
    assert len({r.diverged_epoch for r in swept}) > 1


@pytest.mark.parametrize("kind", ["adam", "adamax", "amsgrad"])
def test_fit_sweep_early_divergences_leave_the_adaptive_survivor_exact(kind):
    # at this rate every lambda but 1 diverges at epoch 1, and the frozen
    # runs keep training in the stack; the surviving run's bias correction
    # must count each epoch once
    xs = np.linspace(0, 16, 64)
    config = TrainConfig(segments=8, degree=5, epochs=100, loss=LossConfig(k=2),
                         optimizer=OptimizerConfig(kind, 1e153), init="least_squares")
    swept = assert_matches_reference(SampleSet(xs, np.sin(xs)), config, [1.0, 0.5, 0.0])
    assert [r.diverged_epoch for r in swept] == [None, 1, 1]


def test_fit_sweep_zero_epochs_records_the_start_only():
    config = replace(sgd_config(2, 0), init="least_squares")
    swept = assert_matches_reference(line_samples(), config, [1.0, 0.0])
    assert [[row.epoch for row in r.history] for r in swept] == [[0], [0]]


def assert_block_divergences(epochs, record_every):
    """A sweep of five runs in blocks of _BLOCK epochs against reference_fit.

    The runs diverge at epochs 59 and 61 in the first block, at _BLOCK on
    the second block's first epoch and at 98 or 99 (by record_every) inside
    the second block; lambda 0 stays at its zero start.  A sweep of exactly
    _BLOCK epochs sees lambda 0.77 diverge through its final record.
    """
    lambdas = [0.9, 0.77, 0.25, 0.1, 0.0]
    # at this size the ring holds _BLOCK stacks, so a block is _BLOCK epochs
    assert len(lambdas) * 8 * 6 * 8 * _BLOCK <= _RECORD_BYTES
    xs = np.linspace(0, 16, 64)
    config = TrainConfig(segments=8, degree=5, epochs=epochs, loss=LossConfig(k=2),
                         optimizer=OptimizerConfig("sgd", 10.0), record_every=record_every)
    swept = assert_matches_reference(SampleSet(xs, 1e30 * np.sin(xs)), config, lambdas)
    for report, at in zip(swept, [(98, 99), (_BLOCK,), (61,), (59,)]):
        assert report.diverged_epoch in (at if epochs >= max(at) else (None,))
    assert swept[-1].history[-1].epoch == epochs
    return swept


@pytest.mark.parametrize("epochs", [31, 33, 101])
@pytest.mark.parametrize("record_every", [1, 4, 32, 67])
def test_fit_sweep_epochs_not_a_multiple_of_the_block(epochs, record_every):
    # the sweep ends inside the first block or inside the second
    assert_block_divergences(epochs, record_every)


@pytest.mark.parametrize("epochs", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("record_every", [1, 7])
def test_fit_sweep_ends_next_to_a_block_boundary(epochs, record_every):
    assert_block_divergences(epochs, record_every)


def test_fit_sweep_stack_beyond_the_byte_budget():
    # the (5, 1024, 8) stack exceeds _RECORD_BYTES, so the ring holds one
    # stack and every epoch is a block; lambda 0.1 alone diverges
    xs = np.linspace(0, 16, 2048)
    config = TrainConfig(segments=1024, degree=7, epochs=40, loss=LossConfig(k=3),
                         optimizer=OptimizerConfig("sgd", 10.0), record_every=3)
    assert 5 * 1024 * 8 * 8 > _RECORD_BYTES
    swept = assert_matches_reference(SampleSet(xs, 1e100 * np.sin(xs)), config,
                                     [1.0, 0.75, 0.5, 0.25, 0.1])
    assert [r.diverged_epoch for r in swept] == [None, None, None, None, 39]


def test_fit_sweep_record_every_beyond_epochs():
    config = replace(sgd_config(1, 25), record_every=100)
    swept = assert_matches_reference(line_samples(), config, [1.0, 0.5])
    assert [[row.epoch for row in r.history] for r in swept] == [[0, 25], [0, 25]]


@pytest.mark.parametrize("batch", [1, 3, 8, 40])
def test_breakdowns_of_a_batch_of_stacks_equal_each_runs_breakdown(batch):
    # the record pass stacks several record epochs' (L, m, d+1) stacks into
    # one (batch * L) stack; each row keeps the bits of its run's breakdown()
    rng = np.random.default_rng(batch)
    xs = np.sort(rng.uniform(0, 16, 128))
    samples = SampleSet(xs, np.sin(xs))
    model, _ = make_scaled_problem(samples, 8, 5)
    config = LossConfig(k=2, boundary_mode="periodic", strain_weight=0.01)
    lambdas = [1.0, 0.75, 0.5, 0.25, 0.0]
    stack = rng.normal(size=(batch * len(lambdas),) + model.coefficients.shape)
    rows = LossEngine(model, samples, config)._breakdowns(stack, lambdas * batch)
    for row, coeffs, lam in zip(rows, stack, lambdas * batch, strict=True):
        model.coefficients[:] = coeffs
        solo = LossEngine(model, samples, replace(config, lam=lam)).breakdown()
        assert row == (solo.total, solo.l2, solo.ck, solo.strain)


def test_fit_sweep_buffers_do_not_grow_with_record_every():
    # the ring of the block's stacks has a fixed size: recording rarely
    # must not cost more memory than recording often
    xs = np.linspace(0, 16, 128)
    samples = SampleSet(xs, np.sin(xs))
    peaks = {}
    for record_every in (10, 10**6):
        config = TrainConfig(segments=8, degree=5, epochs=500, loss=LossConfig(k=2),
                             optimizer=OptimizerConfig("amsgrad", 0.1),
                             record_every=record_every)
        fit_sweep(samples, config, [1.0, 0.5, 0.0])  # warm caches outside the trace
        tracemalloc.start()
        try:
            fit_sweep(samples, config, [1.0, 0.5, 0.0])
            peaks[record_every] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10**6] <= peaks[10] + 16 * 1024


def assert_table_matches_history(report):
    table, history = report.table, report.history
    assert table.dtype == np.float64 and table.shape == (len(history), 5)
    assert table.base is None  # a stopped run's rows are trimmed to their own array
    assert table.tobytes() == np.array(history, dtype=float).reshape(-1, 5).tobytes()
    assert all(type(row) is HistoryRow and type(row.epoch) is int for row in history)
    assert np.array_equal(table[:, 0], np.trunc(table[:, 0]))


def test_fit_sweep_table_matches_its_history():
    xs = np.linspace(0, 16, 128)
    samples = SampleSet(xs, np.sin(2 * np.pi * xs / 16) + 0.5 * np.sin(4 * np.pi * xs / 16))
    config = TrainConfig(segments=8, degree=5, epochs=203, loss=LossConfig(k=2),
                         optimizer=OptimizerConfig("amsgrad", 0.1), record_every=7)
    swept = fit_sweep(samples, config, [1.0, 0.5, 0.0])
    epochs = list(range(0, 203, 7)) + [203]
    for report in swept:
        assert_table_matches_history(report)
        assert [row.epoch for row in report.history] == epochs
    # runs that stop partway through a block, and one stopped at epoch 0
    for report in assert_block_divergences(101, 4):
        assert_table_matches_history(report)
    xs = np.linspace(0, 16, 64)
    stopped = fit_sweep(SampleSet(xs, np.full(xs.size, 1e308)),
                        replace(config, optimizer=OptimizerConfig("sgd", 10.0)), [1.0, 0.5])
    for report in stopped:
        assert report.diverged_epoch == 0 and report.table.shape == (0, 5)
        assert_table_matches_history(report)
    # epochs = 0 records the start only
    for report in fit_sweep(samples, replace(config, epochs=0), [1.0, 0.0]):
        assert_table_matches_history(report)
        assert report.table[:, 0].tolist() == [0.0]


def test_fit_sweep_reports_hold_at_most_64_bytes_per_recorded_row():
    # the paper's sweep problem, recording as many rows as its 10,000 epochs
    # do; HistoryRows of Python floats held about 200 bytes each
    xs = np.linspace(0, 16, 128)
    samples = SampleSet(xs, np.sin(2 * np.pi * xs / 16) + 0.5 * np.sin(4 * np.pi * xs / 16))
    config = TrainConfig(segments=8, degree=5, epochs=2000, loss=LossConfig(k=2),
                         optimizer=OptimizerConfig("amsgrad", 0.1), record_every=2)
    lambdas = [1.0, 0.75, 0.5, 0.25, 0.0]
    fit_sweep(samples, config, lambdas)  # warm caches outside the trace
    tracemalloc.start()
    try:
        reports = fit_sweep(samples, config, lambdas)
        held = tracemalloc.get_traced_memory()[0]
        rows = sum(len(report.history) for report in reports)
        del reports
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows == 5 * 1001
    assert held <= 64 * rows


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
    # reference: one lstsq solve per segment over its samples in input
    # order, and matrix_rank for the flags; a mirrored domain map (a < 0)
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
        if len(design):
            expected[i] = np.linalg.lstsq(design, targets, rcond=None)[0]
        if not (len(design) >= 4 and np.linalg.matrix_rank(design) == 4):
            flagged.append(i + 1)
    assert deficient == tuple(flagged) and len(flagged) > 2
    assert_allclose(coeffs, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_least_squares_start_is_accurate_on_ill_conditioned_designs():
    # eight samples per segment, clustered in a twentieth of it: the designs'
    # condition numbers reach 1e6.  The QR start stays within 1e-10 of
    # per-segment lstsq; the normal equations square the condition number
    rng = np.random.default_rng(1)
    m = 8
    xs = np.sort(np.concatenate([i + 0.6 + 0.05 * rng.uniform(0, 1, 8) for i in range(m)]
                                + [[0.0, m]]))
    samples = SampleSet(xs, np.sin(xs))
    model, _ = make_scaled_problem(samples, m, 3)
    coeffs, deficient = _least_squares_coefficients(model, samples)
    seg, powers = _sample_tables(model, samples)
    assert deficient == ()
    kappa, qr_error, normal_error = 0.0, 0.0, 0.0
    for i in range(m):
        design, targets = powers[seg == i], samples.ys[seg == i]
        expected = np.linalg.lstsq(design, targets, rcond=None)[0]
        normal = np.linalg.solve(design.T @ design, design.T @ targets)
        kappa = max(kappa, np.linalg.cond(design))
        qr_error = max(qr_error, np.linalg.norm(coeffs[i] - expected) / np.linalg.norm(expected))
        normal_error = max(normal_error,
                           np.linalg.norm(normal - expected) / np.linalg.norm(expected))
    assert kappa >= 1e6
    assert qr_error <= 1e-10 < normal_error


def test_rank_screen_flags_the_segments_matrix_rank_flags(monkeypatch):
    # each segment holds two spread abscissae and a cluster of six spaced
    # delta apart, so its design's condition number grows like 1/delta.
    # From 1e-10 down to duplicates (delta = 0), the designs straddle
    # matrix_rank's tolerance; the screen certifies the well-conditioned
    # ones and leaves the rest to matrix_rank, and the flags are its flags
    deltas = np.r_[1e-2, 0.0, np.logspace(-10, -16, 13), 1e-3]
    m = len(deltas)
    xs = np.concatenate([i + np.r_[0.0, 0.3, 0.7 + delta * np.arange(6)]
                         for i, delta in enumerate(deltas)] + [[m]])
    samples = SampleSet(xs, np.cos(xs))
    model, _ = make_scaled_problem(samples, m, 3)
    seg, powers = _sample_tables(model, samples)
    expected = tuple(i + 1 for i in range(m)
                     if np.linalg.matrix_rank(powers[seg == i]) < 4)
    matrix_rank, ranked = np.linalg.matrix_rank, []

    def counted(designs, *args, **kwargs):
        ranked.append(len(designs))
        return matrix_rank(designs, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    coeffs, deficient = _least_squares_coefficients(model, samples)
    assert deficient == expected and 1 < len(expected) < m - 2
    # both paths ran: the screen certified some segments, and matrix_rank
    # ranked the rest, full-rank ones among them
    assert len(expected) < sum(ranked) < m
    assert np.isfinite(coeffs).all()
