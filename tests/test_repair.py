import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ckspline.model
from ckspline import (
    LossConfig,
    LossEngine,
    SampleSet,
    SplineModel,
    ck_loss,
    eval_segment,
    repair_continuity,
    two_point_hermite,
)
from ckspline import repair
from ckspline.model import _boundaries, _derivative_basis, _one_sided, _runs, rebase
from ckspline.repair import ConditioningError, _hermite

from conftest import model_from_global


def boundary_derivatives(model, k):
    """(boundary, order) table of one-sided derivative values, both sides."""
    xi = model.breakpoints
    rows = []
    for b in range(1, model.num_segments):
        rows.append([(eval_segment(model, b, xi[b], j),
                      eval_segment(model, b + 1, xi[b], j)) for j in range(k + 1)])
    return np.array(rows)


# ---------------------------------------------------------------- hermite


def test_hermite_line_through_two_points():
    assert_allclose(two_point_hermite(0.0, [0.0], 1.0, [0.5], 0.0), [0.0, 0.5], atol=1e-15)


def test_hermite_zero_data_gives_zero_polynomial():
    coeffs = two_point_hermite(-1.0, [0.0, 0.0, 0.0], 2.0, [0.0, 0.0, 0.0], 0.3)
    assert_allclose(coeffs, np.zeros(6), atol=0.0)


def test_hermite_smoothstep():
    coeffs = two_point_hermite(0.0, [0.0, 0.0], 1.0, [1.0, 0.0], 0.0)
    assert_allclose(coeffs, [0.0, 0.0, 3.0, -2.0], atol=1e-12)


def test_hermite_reproduces_prescribed_derivatives():
    rng = np.random.default_rng(8)
    for k in range(4):
        left = rng.normal(size=k + 1)
        right = rng.normal(size=k + 1)
        a, b, center = -0.7, 1.9, 0.4
        coeffs = two_point_hermite(a, left, b, right, center)
        model = SplineModel.from_breakpoints([a, b], 2 * k + 1,
                                             coefficients=[rebase(coeffs, center, (a + b) / 2)])
        for j in range(k + 1):
            assert_allclose(eval_segment(model, 1, a, j), left[j], rtol=1e-9, atol=1e-9)
            assert_allclose(eval_segment(model, 1, b, j), right[j], rtol=1e-9, atol=1e-9)


def test_hermite_rejects_bad_interval():
    with pytest.raises(ValueError, match="left_x"):
        two_point_hermite(1.0, [0.0], 0.0, [1.0], 0.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda model: two_point_hermite(0.0, [1.0, 2.0], 1.0, [1.0], 0.5),
                 "need matching derivative value lists for both endpoints",
                 id="hermite-mismatched-lists"),
    pytest.param(lambda model: repair_continuity(model, -1), "continuity order k must be >= 0",
                 id="negative-k"),
    pytest.param(lambda model: repair_continuity(model, 0.5),
                 "continuity order k must be >= 0 and an integer, got 0.5", id="non-integer-k"),
    pytest.param(lambda model: repair_continuity(model, 1, "mirror"),
                 "boundary_mode must be one of ('open', 'cyclic', 'periodic')",
                 id="unknown-mode"),
])
def test_repair_validation(call, message):
    model = SplineModel.from_breakpoints([0, 1, 2], 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(model)


def test_hermite_conditioning_guard():
    with pytest.raises(ConditioningError):
        two_point_hermite(0.0, np.zeros(14), 1.0, np.ones(14), 0.0)


def uniform_model(k, rng):
    return SplineModel.from_breakpoints(np.arange(5.0), 2 * k + 1,
                                        rng.normal(size=(4, 2 * k + 2)))


@pytest.fixture
def cond_calls(monkeypatch):
    """The stacks np.linalg.cond is called with, which it still decides."""
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(a) or cond(a))
    return calls


@pytest.mark.parametrize("k", range(8))
def test_conditioning_screen_certifies_uniform_breakpoints_without_an_svd(monkeypatch, cond_calls,
                                                                          k):
    # kappa_F of the unit-length system is about 1.36 kappa_2: 6.9e9 at k = 7,
    # below the screen's 1e10; the screen leaves the corrector solve as it was
    model = uniform_model(k, np.random.default_rng(k))
    repaired, _ = repair_continuity(model, k, "periodic")
    assert cond_calls == []
    monkeypatch.setattr(repair, "_SCREEN", 0.0)  # every system goes to np.linalg.cond
    expected, _ = repair_continuity(model, k, "periodic")
    assert len(cond_calls) == 1
    assert repaired.coefficients.tobytes() == expected.coefficients.tobytes()


@pytest.mark.parametrize("factor, raises", [(1 - 1e-9, True), (1 + 1e-9, False)])
def test_conditioning_decision_follows_the_svd_near_the_limit(monkeypatch, cond_calls, factor,
                                                              raises):
    k = 3
    system = _derivative_basis(np.array([-0.5, 0.5]), 2 * k + 1, k).reshape(2 * k + 2, -1)
    limit = np.linalg.cond(system)
    assert 1.43e3 < limit < 1.45e3
    cond_calls.clear()
    monkeypatch.setattr(repair, "_MAX_CONDITION", factor * limit)
    model = uniform_model(k, np.random.default_rng(3))
    if raises:
        with pytest.raises(ConditioningError):
            repair_continuity(model, k)
    else:
        repair_continuity(model, k)
    # the screen cannot certify a system this close to the limit
    assert len(cond_calls) == 1


def test_exactly_singular_hermite_system_goes_to_the_svd(monkeypatch, cond_calls):
    # the screen's LU solve raises LinAlgError; np.linalg.cond reads inf
    monkeypatch.setattr(repair, "_derivative_basis", lambda u, degree, k: np.zeros(16))
    with pytest.raises(ConditioningError):
        two_point_hermite(0.0, [1.0, 0.0], 1.0, [0.0, 0.0], 0.5)
    assert len(cond_calls) == 1


def test_batched_hermite_equals_one_call_per_side_bit_for_bit():
    # repeated segment lengths: some sides share one Hermite system, some do not
    rng = np.random.default_rng(5)
    k = 2
    lengths = [1.0, 0.5, 1.0, 2.0, 0.5, 1.0, 0.3, 0.3]
    model = SplineModel.from_breakpoints(np.cumsum([-1.1] + lengths), 2 * k + 1)
    xi, centers = model.breakpoints, model.centers
    nodes = np.stack([xi[:-1] - centers, xi[1:] - centers], axis=1) / np.diff(xi)[:, None]
    assert 1 < len(np.unique(nodes, axis=0)) < len(lengths)
    left, right = rng.normal(size=(2, len(lengths), k + 1))
    batched = _hermite(xi[:-1], left, xi[1:], right, centers)
    for i in range(len(lengths)):
        one = two_point_hermite(xi[i], left[i], xi[i + 1], right[i], centers[i])
        assert batched[i].tobytes() == one.tobytes()


def basis_per_offset(u, degree, k):
    """_derivative_basis of one offset at a time, stacked."""
    return np.concatenate([_derivative_basis(u[i:i + 1], degree, k) for i in range(len(u))])


def hermite_per_side(*arrays):
    """_hermite of one corrected side at a time, stacked."""
    return np.concatenate([_hermite(*(a[i:i + 1] for a in arrays)) for i in range(len(arrays[0]))])


@pytest.mark.parametrize("mode", ["open", "cyclic", "periodic"])
def test_offsets_repeating_apart_give_the_bits_of_one_boundary_at_a_time(monkeypatch, mode):
    # widths 1, 2, 1, 2, ...: each offset and node pair repeats, but never
    # next to its repeat, so every boundary side is a run of its own
    k, m = 2, 12
    rng = np.random.default_rng(53)
    xi = np.cumsum(np.append(-3.0, np.tile([1.0, 2.0], m // 2)))
    model = SplineModel.from_breakpoints(xi, 2 * k + 1, rng.normal(size=(m, 2 * k + 2)))
    u = xi[1:] - model.centers
    assert len(np.unique(u)) == 2 and len(_runs(u)[0]) == m
    samples = SampleSet(np.linspace(xi[0], xi[-1], 97), rng.normal(size=97))
    config = LossConfig(0.5, k, boundary_mode=mode)
    results = []
    for one_at_a_time in (False, True):
        if one_at_a_time:
            monkeypatch.setattr(ckspline.model, "_derivative_basis", basis_per_offset)
            monkeypatch.setattr(repair, "_derivative_basis", basis_per_offset)
            monkeypatch.setattr(repair, "_hermite", hermite_per_side)
        repaired, report = repair_continuity(model, k, mode)
        results.append([repaired.coefficients, report.pre_defects, report.post_defects,
                        report.mean_targets, LossEngine(model, samples, config).gradient()])
    batched, reference = results
    for got, expected in zip(batched, reference):
        assert got.tobytes() == expected.tobytes()


def test_runs_compare_bits():
    values = np.array([0.0, 0.0, -0.0, np.nan, np.nan, 1.0, 0.0])
    firsts, which = _runs(values)
    assert firsts.tobytes() == values[[0, 2, 3, 5, 6]].tobytes()
    assert which.tolist() == [0, 0, 1, 2, 2, 3, 4]
    pairs = np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 2.0], [0.5, 1.0]])
    firsts, which = _runs(pairs)
    assert firsts.tolist() == [[0.5, 1.0], [0.5, 2.0], [0.5, 1.0]]
    assert which.tolist() == [0, 0, 1, 2]
    firsts, which = _runs(np.empty((0, 2)))
    assert firsts.shape == (0, 2) and which.shape == (0,)


# ---------------------------------------------------------------- repair


def test_repair_step_function_worked_example():
    model = model_from_global([0, 1, 2], 1, [[0.0], [1.0]])  # 0 then 1
    repaired, report = repair_continuity(model, 0)
    # both segments become 0.5 x
    assert_allclose(repaired.coefficients[0], rebase([0.0, 0.5], 0.0, 0.5), atol=1e-14)
    assert_allclose(repaired.coefficients[1], rebase([0.0, 0.5], 0.0, 1.5), atol=1e-14)
    assert eval_segment(repaired, 1, 1.0) == pytest.approx(0.5)
    assert eval_segment(repaired, 2, 1.0) == pytest.approx(0.5)
    # outer endpoint values untouched
    assert eval_segment(repaired, 1, 0.0) == pytest.approx(0.0)
    assert eval_segment(repaired, 2, 2.0) == pytest.approx(1.0)
    assert_allclose(report.pre_defects, [[1.0]])
    assert_allclose(report.post_defects, [[0.0]], atol=1e-15)
    assert report.positions == (1.0,)


def test_repair_leaves_continuous_spline_unchanged():
    model = model_from_global([0, 1, 2, 3], 5, [[0.2, 1, -0.3, 0.05, 0.01, -0.002]] * 3)
    repaired, report = repair_continuity(model, 2)
    assert_allclose(repaired.coefficients, model.coefficients, atol=1e-12)
    assert report.max_correction < 1e-12


def test_repair_random_degree5_two_segments():
    rng = np.random.default_rng(14)
    model = SplineModel.from_breakpoints([0, 1, 2], 5,
                                         coefficients=rng.uniform(-1, 1, (2, 6)))
    repaired, report = repair_continuity(model, 2)
    scale = np.maximum(1.0, np.abs(report.mean_targets))
    assert np.all(np.abs(report.post_defects) <= 1e-9 * scale)
    # outer endpoint derivatives of order <= k preserved
    for j in range(3):
        assert_allclose(eval_segment(repaired, 1, 0.0, j),
                        eval_segment(model, 1, 0.0, j), rtol=1e-9, atol=1e-9)
        assert_allclose(eval_segment(repaired, 2, 2.0, j),
                        eval_segment(model, 2, 2.0, j), rtol=1e-9, atol=1e-9)


def test_repair_requires_sufficient_degree():
    model = SplineModel.from_breakpoints([0, 1, 2], 2)
    with pytest.raises(ValueError, match="degree >= 3"):
        repair_continuity(model, 1)


def test_repair_locality_single_defective_boundary():
    # only the middle boundary jumps; repairing must not move derivative
    # values of order <= k at the other boundaries
    k = 1
    base = [0.1, 0.4, -0.2, 0.05]
    mid_bump = list(base)
    mid_bump[0] += 1e-2  # value jump at boundary 2 only
    model_rows = [base, base, mid_bump, mid_bump]
    model = model_from_global([0, 1, 2, 3, 4], 3, model_rows)
    before = boundary_derivatives(model, k)
    repaired, report = repair_continuity(model, k)
    after = boundary_derivatives(repaired, k)
    # boundaries 1 and 3 (defect-free) keep both one-sided values
    assert_allclose(after[0], before[0], atol=1e-12)
    assert_allclose(after[2], before[2], atol=1e-12)
    # boundary 2 is now continuous
    assert abs(after[1][0][0] - after[1][0][1]) < 1e-12


def test_repair_idempotent():
    rng = np.random.default_rng(15)
    model = SplineModel.from_breakpoints([0, 1, 2, 3], 5,
                                         coefficients=rng.uniform(-1, 1, (3, 6)))
    once, _ = repair_continuity(model, 2)
    twice, _ = repair_continuity(once, 2)
    assert_allclose(twice.coefficients, once.coefficients, atol=1e-10)


def test_repair_drives_ck_loss_to_machine_zero():
    rng = np.random.default_rng(16)
    base = rng.uniform(-1, 1, 6)
    rows = [base, base + 1e-3 * rng.uniform(-1, 1, 6), base + 1e-3 * rng.uniform(-1, 1, 6)]
    model = SplineModel.from_breakpoints([0, 1, 2, 3], 5, coefficients=np.array(rows))
    config = LossConfig(lam=0.5, k=2)
    assert ck_loss(model, config) > 1e-10
    repaired, _ = repair_continuity(model, 2)
    assert ck_loss(repaired, config) <= 1e-18


def test_repair_mirror_symmetry():
    rng = np.random.default_rng(17)
    model = SplineModel.from_breakpoints([0, 1, 2], 5,
                                         coefficients=rng.uniform(-1, 1, (2, 6)))

    def mirrored(m):
        signs = (-1.0) ** np.arange(m.degree + 1)
        coeffs = (m.coefficients * signs)[::-1]
        return SplineModel.from_breakpoints(-m.breakpoints[::-1], m.degree, coeffs)

    repaired_then_mirrored = mirrored(repair_continuity(model, 2)[0])
    mirrored_then_repaired = repair_continuity(mirrored(model), 2)[0]
    assert_allclose(repaired_then_mirrored.coefficients,
                    mirrored_then_repaired.coefficients, atol=1e-9)


def test_repair_periodic_wrap_boundary():
    rng = np.random.default_rng(18)
    model = SplineModel.from_breakpoints([0, 1, 2], 3,
                                         coefficients=rng.uniform(-1, 1, (2, 4)))
    repaired, report = repair_continuity(model, 1, boundary_mode="periodic")
    xi = repaired.breakpoints
    for j in range(2):
        wrap = eval_segment(repaired, 1, xi[0], j) - eval_segment(repaired, 2, xi[-1], j)
        assert abs(wrap) < 1e-10
    assert report.positions[-1] == pytest.approx(2.0)


def test_repair_cyclic_wrap_keeps_values():
    rng = np.random.default_rng(19)
    model = SplineModel.from_breakpoints([0, 1, 2], 3,
                                         coefficients=rng.uniform(-1, 1, (2, 4)))
    left_value = eval_segment(model, 2, 2.0)
    right_value = eval_segment(model, 1, 0.0)
    repaired, _ = repair_continuity(model, 1, boundary_mode="cyclic")
    # derivative aligned across the wrap, values untouched on both sides
    wrap_slope = eval_segment(repaired, 1, 0.0, 1) - eval_segment(repaired, 2, 2.0, 1)
    assert abs(wrap_slope) < 1e-10
    assert eval_segment(repaired, 2, 2.0) == pytest.approx(left_value, rel=1e-12)
    assert eval_segment(repaired, 1, 0.0) == pytest.approx(right_value, rel=1e-12)


def test_repair_badly_scaled_non_uniform_periodic():
    # far from the origin, with widths over four decades, the Hermite nodes
    # (x - center) / length miss +-0.5 in their last bits; every corrected
    # side must solve with its own segment's nodes to stay exact (one shared
    # +-0.5 system leaves defects near 1e-4 of the jumps here)
    rng = np.random.default_rng(29)
    xi = 1e3 + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-2, 2, 8))])
    model = SplineModel.from_breakpoints(xi, 7, rng.uniform(-1, 1, (8, 8)))
    _, report = repair_continuity(model, 3, boundary_mode="periodic")
    assert np.abs(report.post_defects).max() <= 1e-8 * np.abs(report.pre_defects).max()


def test_repair_single_segment_periodic():
    model = model_from_global([0, 1], 3, [[0, 1]])  # p(x) = x, ends differ
    repaired, report = repair_continuity(model, 1, boundary_mode="periodic")
    for j in range(2):
        wrap = eval_segment(repaired, 1, 0.0, j) - eval_segment(repaired, 1, 1.0, j)
        assert abs(wrap) < 1e-10
    assert report.pre_defects.shape == (1, 2)


def per_side_repair(model, k, mode):
    """repair_continuity as one two_point_hermite call per corrected side.

    Every boundary's one-sided values come from one read over all
    boundaries; each segment adds its left-end corrector, then its right-end
    one.  Returns the coefficients, pre and post defects, means and the
    largest correction.
    """
    xi, centers = model.breakpoints, model.centers
    bases = _boundaries(model, k, mode)
    left, right = bases[:2]
    left_vals, right_vals = _one_sided(bases, model.coefficients)
    means = 0.5 * (left_vals + right_vals)
    target_left, target_right = means - left_vals, means - right_vals
    zeros = np.zeros(k + 1)
    coeffs = model.coefficients.copy()
    width = 2 * k + 2
    left_ends = [two_point_hermite(xi[i], target, xi[i + 1], zeros, centers[i])
                 for i, target in zip(right, target_right)]
    right_ends = [two_point_hermite(xi[i], zeros, xi[i + 1], target, centers[i])
                  for i, target in zip(left, target_left)]
    for i, correction in zip(right, left_ends):
        coeffs[i, :width] += correction
    for i, correction in zip(left, right_ends):
        coeffs[i, :width] += correction
    post_left, post_right = _one_sided(bases, coeffs)
    largest = np.abs(left_ends + right_ends).max(initial=0.0)
    return coeffs, right_vals - left_vals, post_right - post_left, means, largest


@pytest.mark.parametrize("mode", ["open", "cyclic", "periodic"])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("last_block", [1, 5, 8])  # boundaries in the last block of 8
def test_blocked_repair_equals_one_call_per_side_bit_for_bit(monkeypatch, mode, uniform,
                                                             last_block):
    # three blocks of boundaries: the last one holds one boundary, part of a
    # block or a whole one, and in cyclic and periodic mode the wrap boundary
    monkeypatch.setattr(repair, "_BLOCK", 8)
    k = 2
    m = 16 + last_block + (mode == "open")
    rng = np.random.default_rng(31 + m)
    lengths = np.ones(m) if uniform else 10.0 ** rng.uniform(-1, 1, m)
    model = SplineModel.from_breakpoints(np.cumsum(np.append(-2.5, lengths)), 2 * k + 2,
                                         rng.normal(size=(m, 2 * k + 3)))
    repaired, report = repair_continuity(model, k, boundary_mode=mode)
    coeffs, pre, post, means, largest = per_side_repair(model, k, mode)
    assert len(report.positions) == 16 + last_block
    assert repaired.coefficients.tobytes() == coeffs.tobytes()
    assert report.pre_defects.tobytes() == pre.tobytes()
    assert report.post_defects.tobytes() == post.tobytes()
    assert report.mean_targets.tobytes() == means.tobytes()
    assert report.max_correction == largest


def test_repair_at_full_block_size_equals_one_call_per_side_bit_for_bit():
    # the module's own block size, with one boundary in the last block
    m = 2 * repair._BLOCK + 1
    rng = np.random.default_rng(37)
    model = SplineModel.from_breakpoints(np.cumsum(np.append(0.0, rng.uniform(0.5, 2.0, m))), 3,
                                         rng.normal(size=(m, 4)))
    repaired, report = repair_continuity(model, 1, boundary_mode="periodic")
    coeffs, _, post, _, _ = per_side_repair(model, 1, "periodic")
    assert repaired.coefficients.tobytes() == coeffs.tobytes()
    assert report.post_defects.tobytes() == post.tobytes()


def test_repair_working_memory_grows_only_by_its_corrections():
    # bases, one-sided values and Hermite systems are held a block of
    # boundaries at a time: beyond the repaired model and report it returns,
    # only the (2, B, 2k+2) corrections may grow with the boundary count B
    k = 3
    working, corrections = {}, {}
    for m in (1024, 8 * 1024):
        rng = np.random.default_rng(41)
        model = SplineModel.from_breakpoints(np.arange(m + 1.0), 2 * k + 1,
                                             rng.normal(size=(m, 2 * k + 2)))
        repair_continuity(model, k)  # warm caches outside the trace
        tracemalloc.start()
        try:
            result = repair_continuity(model, k)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        working[m] = peak - current
        corrections[m] = 2 * (m - 1) * (2 * k + 2) * 8
    assert working[8 * 1024] - working[1024] <= corrections[8 * 1024] - corrections[1024]
