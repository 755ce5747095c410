import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckspline import (
    DomainError,
    DomainMap,
    LossConfig,
    LossEngine,
    SampleSet,
    SplineModel,
    ck_loss,
    fd_gradient,
    gradient,
    l2_loss,
    make_scaled_problem,
    strain_loss,
    total_loss,
)
from ckspline import losses
from ckspline.model import rebase

from conftest import model_from_global, reference_fd_gradient


def random_fixture(rng, boundary_mode="open", strain_weight=0.0):
    segments = int(rng.integers(1, 5))
    degree = int(rng.integers(0, 8))
    k = int(rng.integers(0, min(3, degree) + 1))
    cuts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, segments))])
    model = SplineModel.from_breakpoints(
        cuts, degree, coefficients=rng.uniform(-1, 1, (segments, degree + 1))
    )
    xs = np.sort(rng.uniform(cuts[0], cuts[-1], 20))
    samples = SampleSet(xs, rng.normal(size=20))
    config = LossConfig(lam=float(rng.uniform(0, 1)), k=k,
                        boundary_mode=boundary_mode, strain_weight=strain_weight)
    return model, samples, config


# ---------------------------------------------------------------- l2


def test_l2_zero_spline():
    model = SplineModel.from_breakpoints([0, 1], 1)
    samples = SampleSet([0, 0.5, 1], [0, 1, 0])
    assert l2_loss(model, samples) == pytest.approx(1 / 3)


def test_l2_exact_fit_is_zero():
    model = model_from_global([0, 1, 2], 2, [[0.5, -1, 2], [0.5, -1, 2]])
    xs = np.linspace(0, 2, 9)
    samples = SampleSet(xs, 0.5 - xs + 2 * xs**2)
    assert l2_loss(model, samples) == pytest.approx(0.0, abs=1e-24)


def test_l2_two_segments():
    model = SplineModel.from_breakpoints([0, 1, 2], 1)
    samples = SampleSet([0.5, 1.5], [1, 1])
    assert l2_loss(model, samples) == pytest.approx(2.0)


def test_l2_sample_outside_domain_names_index():
    model = SplineModel.from_breakpoints([0, 1], 1)
    with pytest.raises(DomainError, match="sample 2"):
        l2_loss(model, SampleSet([0.0, 0.5, 1.5], [0, 0, 0]))


def test_l2_equilibration_factors():
    rng = np.random.default_rng(21)
    coeffs = rng.uniform(-1, 1, (2, 3))
    model = SplineModel.from_breakpoints([0, 1, 2], 2, coefficients=coeffs)
    xs = np.sort(rng.uniform(0, 2, 16))
    samples = SampleSet(xs, rng.normal(size=16))
    base = l2_loss(model, samples)

    # duplicating every sample halves m/n, halving the loss
    dup_order = np.argsort(np.concatenate([xs, xs]), kind="stable")
    doubled = SampleSet(
        np.concatenate([xs, xs])[dup_order],
        np.concatenate([samples.ys, samples.ys])[dup_order],
    )
    assert_allclose(l2_loss(model, doubled), base, rtol=1e-12)  # (2n, same residuals twice)

    # splitting each segment in two identical halves doubles m, doubling the loss
    split_breaks = np.array([0, 0.5, 1, 1.5, 2.0])
    split_centers = 0.5 * (split_breaks[:-1] + split_breaks[1:])
    rows = []
    for i in range(2):
        for new_center in split_centers[2 * i : 2 * i + 2]:
            rows.append(rebase(coeffs[i], model.centers[i], new_center))
    split_model = SplineModel.from_breakpoints(split_breaks, 2, np.array(rows))
    assert_allclose(l2_loss(split_model, samples), 2.0 * base, rtol=1e-12)


# ---------------------------------------------------------------- ck


def test_ck_open_jump_fixture():
    model = model_from_global([0, 1, 2], 1, [[0, 1], [0, 2]])  # x then 2x
    assert ck_loss(model, LossConfig(lam=0.5, k=1)) == pytest.approx(2.0)


def test_ck_continuous_spline_is_zero():
    model = model_from_global([0, 1, 2], 3, [[1, -2, 0.5, 0.25]] * 2)
    assert ck_loss(model, LossConfig(lam=0.5, k=3)) == pytest.approx(0.0, abs=1e-28)


def test_ck_single_segment_open_is_zero():
    model = model_from_global([0, 1], 1, [[0, 1]])
    assert ck_loss(model, LossConfig(lam=0.5, k=1)) == 0.0


def test_ck_single_segment_periodic_wrap():
    model = model_from_global([0, 1], 1, [[0, 1]])  # p(x) = x
    assert ck_loss(model, LossConfig(lam=0.5, k=0, boundary_mode="periodic")) == pytest.approx(1.0)
    # cyclic ignores the value row at the wrap
    assert ck_loss(model, LossConfig(lam=0.5, k=0, boundary_mode="cyclic")) == 0.0


def test_ck_cyclic_matches_derivatives_only():
    # slope jump of 1 at the wrap, same value at both ends
    model = model_from_global([0, 1], 2, [[0, 1, -1]])  # p = x - x^2, p(0)=p(1)=0
    cyc = ck_loss(model, LossConfig(lam=0.5, k=1, boundary_mode="cyclic"))
    assert cyc == pytest.approx((1.0 - (-1.0)) ** 2)  # p'(0)=1, p'(1)=-1


def test_ck_invariant_to_shared_polynomial_open():
    rng = np.random.default_rng(5)
    model = SplineModel.from_breakpoints([0, 1, 2, 3], 3,
                                         coefficients=rng.uniform(-1, 1, (3, 4)))
    shared = rng.uniform(-1, 1, 4)
    shifted = model.copy()
    for i, center in enumerate(model.centers):
        shifted.coefficients[i] += rebase(shared, 0.0, center)
    config = LossConfig(lam=0.5, k=3)
    assert_allclose(ck_loss(shifted, config), ck_loss(model, config), rtol=1e-10, atol=1e-12)


def test_ck_order_exceeds_degree():
    model = SplineModel.from_breakpoints([0, 1, 2], 1)
    with pytest.raises(ValueError, match="exceeds"):
        ck_loss(model, LossConfig(lam=0.5, k=2))


@pytest.mark.parametrize("fields, message", [
    pytest.param({"k": 1.5}, "continuity order k must be a non-negative integer",
                 id="non-integer-k"),
    pytest.param({"boundary_mode": "mirror"},
                 "boundary_mode must be one of ('open', 'cyclic', 'periodic')", id="unknown-mode"),
    pytest.param({"strain_weight": math.nan}, "strain_weight must be finite and >= 0",
                 id="nan-strain-weight"),
    pytest.param({"strain_weight": -1e-3}, "strain_weight must be finite and >= 0",
                 id="negative-strain-weight"),
])
def test_loss_config_validation(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LossConfig(**fields)


# ---------------------------------------------------------------- strain


def test_strain_examples():
    square = model_from_global([0, 1], 2, [[0, 0, 1]])
    assert strain_loss(square) == pytest.approx(4.0)
    cube = model_from_global([0, 1], 3, [[0, 0, 0, 1]])
    assert strain_loss(cube) == pytest.approx(12.0)
    line = model_from_global([0, 1], 1, [[3, 2]])
    assert strain_loss(line) == 0.0
    # below degree 2 the strain term is exactly 0 in breakdown() and gradient()
    xs = np.linspace(0.0, 2.0, 9)
    samples = SampleSet(xs, np.cos(xs))
    for degree in (0, 1):
        model = SplineModel.from_breakpoints([0, 1, 2], degree,
                                             coefficients=np.full((2, degree + 1), 0.5))
        weighted, plain = (LossEngine(model, samples, LossConfig(lam=0.4, k=0, strain_weight=w))
                           for w in (0.7, 0.0))
        assert weighted.breakdown().strain == 0.0
        assert weighted.breakdown() == plain.breakdown()
        assert weighted.gradient().tobytes() == plain.gradient().tobytes()


def test_strain_sums_over_segments():
    two = model_from_global([0, 0.5, 1], 2, [[0, 0, 1], [0, 0, 1]])
    assert strain_loss(two) == pytest.approx(4.0)


# ---------------------------------------------------------------- blend


def test_total_loss_extremes_and_blend():
    model = model_from_global([0, 1, 2], 1, [[0, 1], [0, 2]])
    xs = np.linspace(0, 2, 7)
    samples = SampleSet(xs, np.zeros(7))
    l2 = l2_loss(model, samples)
    ck = ck_loss(model, LossConfig(lam=0.5, k=1))
    pure_l2 = total_loss(model, samples, LossConfig(lam=1.0, k=1))
    assert pure_l2.total == pytest.approx(l2)
    pure_ck = total_loss(model, samples, LossConfig(lam=0.0, k=1))
    assert pure_ck.total == pytest.approx(ck)
    blend = total_loss(model, samples, LossConfig(lam=0.5, k=1))
    assert blend.total == pytest.approx(0.5 * l2 + 0.5 * ck, rel=1e-12)


def test_breakdown_leaves_zero_weight_terms_out():
    # the strain overflows, but at strain_weight 0 the total stays the
    # finite blend of the weighted terms, not 0 * inf = NaN
    xs = np.linspace(0.0, 16.0, 64)
    samples = SampleSet(xs, np.sin(xs))
    model, _ = make_scaled_problem(samples, 4, 5)
    model.coefficients[:] = [0.0, 0.0, 1e154, 0.0, 0.0, 0.0]
    for lam in (1.0, 0.5, 0.0):
        loss = LossEngine(model, samples, LossConfig(lam=lam, k=0)).breakdown()
        assert math.isinf(loss.strain) and math.isfinite(loss.l2) and loss.l2 > 1e306
        assert loss.total == lam * loss.l2 + (1.0 - lam) * loss.ck


def test_breakdown_identity_with_strain():
    rng = np.random.default_rng(9)
    model, samples, _ = random_fixture(rng)
    config = LossConfig(lam=0.3, k=0, strain_weight=0.7)
    bd = total_loss(model, samples, config)
    assert bd.total == pytest.approx(0.3 * bd.l2 + 0.7 * bd.ck + 0.7 * bd.strain, rel=1e-12)
    assert bd.l2 >= 0 and bd.ck >= 0 and bd.strain >= 0


# ---------------------------------------------------------------- gradients


def test_gradient_zero_at_global_minimum():
    # interpolates its samples and is smooth: gradient must vanish
    model = model_from_global([0, 1, 2], 3, [[0.5, 1, -0.5, 0.125]] * 2)
    xs = np.linspace(0, 2, 9)
    samples = SampleSet(xs, np.array([float(model(x)) for x in xs]))
    g = gradient(model, samples, LossConfig(lam=0.5, k=3))
    assert_allclose(g, 0.0, atol=1e-12)


def test_gradient_single_sample_formula():
    # one repeated sample keeps the 2m/n factor at 2: entries 2*(f-y)*u^j
    model = SplineModel.from_breakpoints([0, 0.5], 1)  # center 0.25, p = 0
    samples = SampleSet([0.5, 0.5], [1.0, 1.0])
    g = gradient(model, samples, LossConfig(lam=1.0, k=0))
    assert_allclose(g, [[-2.0, -0.5]], rtol=1e-15)


def test_gradient_linearity_in_lambda():
    rng = np.random.default_rng(13)
    model, samples, _ = random_fixture(rng)
    k = min(2, model.degree)
    lam = 0.37
    g_l2 = gradient(model, samples, LossConfig(lam=1.0, k=k))
    g_ck = gradient(model, samples, LossConfig(lam=0.0, k=k))
    g_mix = gradient(model, samples, LossConfig(lam=lam, k=k))
    assert_allclose(g_mix, lam * g_l2 + (1 - lam) * g_ck, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("mode", ["open", "cyclic", "periodic"])
def test_stacked_operator_rows_are_c_ordered(mode):
    # matmul passes each (w, 3w) block row to BLAS as one contiguous operand
    xs = np.linspace(0.0, 16.0, 64)
    samples = SampleSet(xs, np.sin(xs))
    model, _ = make_scaled_problem(samples, 8, 5)
    config = LossConfig(k=2, boundary_mode=mode, strain_weight=0.01)
    rows = LossEngine(model, samples, config)._forms([1.0, 0.5, 0.0]).rows
    assert rows.shape == (3, 8, 6, 18)
    assert rows.flags.c_contiguous


def test_sample_table_powers_are_within_rounding_of_pow():
    # column t is t running products of the offset u: within (t+1) eps of
    # u**t, relative, with columns 0 and 1 exact
    rng = np.random.default_rng(31)
    xs = np.sort(rng.uniform(-3.0, 5.0, 500))
    samples = SampleSet(xs, np.zeros(xs.size))
    model, _ = make_scaled_problem(samples, 7, 11, scaling="none")
    seg, powers = losses._sample_tables(model, samples)
    u = xs - model.centers[seg]
    t = np.arange(12)
    reference = u[:, None] ** t
    assert np.array_equal(powers[:, :2], reference[:, :2])
    assert (np.abs(powers - reference) <= (t + 1) * np.finfo(float).eps * np.abs(reference)).all()


def moment_blocks(seg, powers, ys, m):
    """Per-segment l2 Gram blocks and P'y from bincount moment sums.

    Block entry (s, t) sums u**(s+t), so 2d+1 moments fill each block.
    """
    d = powers.shape[1] - 1

    def sums(column):
        return np.bincount(seg, column, minlength=m)

    moments = np.stack([sums(powers[:, min(p, d)] * powers[:, max(p - d, 0)])
                        for p in range(2 * d + 1)], axis=1)
    return (moments[:, np.add.outer(np.arange(d + 1), np.arange(d + 1))],
            np.stack([sums(ys * column) for column in powers.T], axis=1))


@pytest.mark.parametrize("mode", ["open", "cyclic", "periodic"])
@pytest.mark.parametrize("mirrored", [False, True])
def test_gram_operator_equals_the_moment_assembly(mode, mirrored):
    # unequal sample counts, and segments 4 and 5 empty; a mirrored domain
    # map (a < 0) puts the samples in descending segment order.  The
    # reference adds the moment blocks to the operator of the same engine
    # with its l2 part zeroed (ck and strain only).  Each block entry sums
    # at most 30 products in either order, so they agree to 1e-13 of the
    # largest entry
    rng = np.random.default_rng(zlib.crc32(f"gram-{mode}-{mirrored}".encode()))
    m = 10
    xs = np.sort(np.concatenate([[0.0, m], rng.uniform(0, 4, 50), rng.uniform(6, m, 90)]))
    samples = SampleSet(xs, np.cos(xs) + 0.1 * rng.normal(size=xs.size))
    model, _ = make_scaled_problem(samples, m, 5)
    if mirrored:
        model.domain_map = DomainMap(-model.domain_map.a, m - model.domain_map.b)
    engine = LossEngine(model, samples, LossConfig(k=2, boundary_mode=mode, strain_weight=0.3))
    counts = np.bincount(engine.seg, minlength=m)
    assert counts[4] == counts[5] == 0 and len(set(counts[counts > 0])) > 2
    lams = [1.0, 0.5, 0.0]
    form = engine._forms(lams)
    gram, moment = moment_blocks(engine.seg, engine.powers, samples.ys, m)
    engine.powers = np.zeros_like(engine.powers)
    expected = engine._forms(lams)
    scale = 2.0 * np.array(lams)[:, None, None, None] * m / xs.size
    expected.rows.reshape(len(lams), m, 6, 3, 6)[..., 1, :] += scale * gram
    assert_allclose(form.rows, expected.rows, rtol=0, atol=1e-13 * np.abs(expected.rows).max())
    assert_allclose(form.linear, scale[..., 0] * moment,
                    rtol=0, atol=1e-13 * np.abs(form.linear).max())


@pytest.mark.parametrize("mode", ["open", "cyclic", "periodic"])
@pytest.mark.parametrize("strain", [0.0, 0.4])
def test_gradient_matches_finite_differences(mode, strain):
    # a stable seed: hash() of a str changes with PYTHONHASHSEED.  The loss is
    # an exact quadratic, so a wide central step adds no truncation error and
    # keeps the round-off of the difference quotient well under atol
    rng = np.random.default_rng(zlib.crc32(f"{mode}-{strain}".encode()))
    for _ in range(5):
        model, samples, config = random_fixture(rng, boundary_mode=mode, strain_weight=strain)
        analytic = gradient(model, samples, config)
        numeric = fd_gradient(model, samples, config, h=1e-3)
        assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_fd_gradient_zero_loss_fixture():
    model = model_from_global([0, 1], 1, [[0, 1]])
    xs = np.linspace(0, 1, 5)
    samples = SampleSet(xs, xs)
    fd = fd_gradient(model, samples, LossConfig(lam=1.0, k=0), h=1e-6)
    assert_allclose(fd, 0.0, atol=1e-8)


def test_fd_gradient_truncation_free_for_quadratic_loss():
    # the total loss is an exact quadratic in the coefficients, so central
    # differences carry no h^2 truncation term; deviations stay at rounding
    # level for both step sizes instead of shrinking with h
    rng = np.random.default_rng(17)
    model, samples, config = random_fixture(rng)
    analytic = gradient(model, samples, config)
    scale = max(1.0, np.abs(analytic).max())
    for h in (1e-3, 5e-4):
        dev = np.abs(fd_gradient(model, samples, config, h=h) - analytic).max()
        assert dev <= 1e-9 * scale


def test_fd_gradient_rejects_bad_step():
    model = model_from_global([0, 1], 1, [[0, 1]])
    samples = SampleSet([0.0, 1.0], [0.0, 1.0])
    for h in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="h"):
            fd_gradient(model, samples, LossConfig(lam=1.0, k=0), h=h)


def wave_problem(m, d, n, boundary_mode="open", strain_weight=0.0):
    xs = np.linspace(0.0, 16.0, n)
    samples = SampleSet(xs, np.sin(xs))
    model, _ = make_scaled_problem(samples, m, d)
    model.coefficients[:] = np.random.default_rng(m * d + n).normal(size=(m, d + 1))
    return model, samples, LossConfig(k=min(2, d), boundary_mode=boundary_mode,
                                      strain_weight=strain_weight)


def test_fd_gradient_in_several_passes_equals_the_reference(monkeypatch):
    # a budget of 7 runs gives passes of 3 coefficients, the last one partial
    model, samples, config = wave_problem(5, 4, 40, "periodic", 0.3)
    monkeypatch.setattr(losses, "_RECORD_BYTES", 7 * 40 * 5 * 8)
    passes = []
    breakdowns = LossEngine._breakdowns

    def counted(engine, coeffs, lams):
        passes.append(len(coeffs))
        return breakdowns(engine, coeffs, lams)

    monkeypatch.setattr(LossEngine, "_breakdowns", counted)
    numeric = fd_gradient(model, samples, config, h=1e-3)
    assert passes == [6] * 8 + [2]
    expected = reference_fd_gradient(model, samples, config, h=1e-3)
    assert numeric.tobytes() == expected.tobytes()


def test_fd_gradient_reads_read_only_coefficients():
    model, samples, config = wave_problem(4, 5, 64, "cyclic")
    expected = reference_fd_gradient(model, samples, config)
    before = model.coefficients.tobytes()
    model.coefficients.setflags(write=False)
    assert fd_gradient(model, samples, config).tobytes() == expected.tobytes()
    assert model.coefficients.tobytes() == before


def test_fd_gradient_memory_stays_within_its_passes():
    # one coefficient per pass here: a single stack of every perturbed copy
    # would gather about 300 MB of sample tables
    model, samples, config = wave_problem(64, 7, 4096, "cyclic")
    tracemalloc.start()
    try:
        fd_gradient(model, samples, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_losses_nonnegative_random():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model, samples, config = random_fixture(rng, strain_weight=0.5)
        bd = total_loss(model, samples, config)
        assert bd.l2 >= 0.0
        assert bd.ck >= 0.0
        assert bd.strain >= 0.0
