import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckspline import (
    DomainError,
    DomainMap,
    SampleSet,
    SplineModel,
    eval_segment,
    evaluate,
    rebase,
    segment_index,
)
from ckspline.model import _derivative_basis

from conftest import model_from_global


def test_segment_index_half_open_convention():
    model = SplineModel.from_breakpoints([0, 1, 2], 1)
    assert segment_index(model, 0.5) == 1
    assert segment_index(model, 1.0) == 2  # interior breakpoint goes right
    assert segment_index(model, 2.0) == 2  # right endpoint closed
    assert segment_index(model, 0.0) == 1


def test_segment_index_every_interior_breakpoint_goes_right():
    model = SplineModel.from_breakpoints(np.linspace(-2, 3, 6), 0)
    for i, xi in enumerate(model.breakpoints[1:-1], start=1):
        assert segment_index(model, xi) == i + 1


def test_segment_index_domain_error():
    model = SplineModel.from_breakpoints([0, 1, 2], 1)
    with pytest.raises(DomainError, match="outside"):
        segment_index(model, -0.5)
    with pytest.raises(DomainError):
        segment_index(model, 2.5)


def test_eval_segment_values_and_derivatives():
    # p(x) = 1 + 2x + 3x^2 about center 0 (breakpoints [-1, 1])
    model = SplineModel.from_breakpoints([-1, 1], 2, coefficients=[[1, 2, 3]])
    assert eval_segment(model, 1, 2.0, 0) == pytest.approx(17.0)
    assert eval_segment(model, 1, 2.0, 1) == pytest.approx(14.0)
    assert eval_segment(model, 1, 0.0, 0) == pytest.approx(1.0)  # value at center
    assert eval_segment(model, 1, 2.0, 3) == 0.0  # order beyond degree


def test_eval_segment_index_bounds():
    model = SplineModel.from_breakpoints([0, 1], 1)
    with pytest.raises(IndexError):
        eval_segment(model, 0, 0.5)
    with pytest.raises(IndexError):
        eval_segment(model, 2, 0.5)


def test_horner_matches_naive_power_sum():
    rng = np.random.default_rng(7)
    for degree in range(10):
        coeffs = rng.uniform(-1, 1, degree + 1)
        model = SplineModel.from_breakpoints([-1, 1], degree, coefficients=[coeffs])
        for x in rng.uniform(-1.5, 1.5, 8):
            naive = sum(c * x**t for t, c in enumerate(coeffs))
            assert_allclose(eval_segment(model, 1, x, 0), naive, rtol=1e-12)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(11)
    h = 1e-5
    for degree in (2, 5, 9):
        coeffs = rng.uniform(-1, 1, degree + 1)
        model = SplineModel.from_breakpoints([0, 2], degree, coefficients=[coeffs])
        for x in rng.uniform(0.2, 1.8, 5):
            fd = (eval_segment(model, 1, x + h) - eval_segment(model, 1, x - h)) / (2 * h)
            assert_allclose(eval_segment(model, 1, x, 1), fd, rtol=1e-5)


def test_evaluate_identity_map():
    model = model_from_global([0, 1], 1, [[0, 1]])  # p(x) = x
    assert evaluate(model, 0.25) == pytest.approx(0.25)


def test_evaluate_chain_rule():
    # data coordinate x, internal t = 2x, internal spline p(t) = t on [0, 2]
    model = model_from_global([0, 2], 1, [[0, 1]], domain_map=DomainMap(2.0, 0.0))
    assert evaluate(model, 0.5, 1) == pytest.approx(2.0)
    assert evaluate(model, 0.5, 0) == pytest.approx(1.0)
    assert evaluate(model, 0.5, 2) == 0.0  # beyond degree


def test_evaluate_vectorized_matches_scalar():
    model = model_from_global([0, 1, 2, 3], 3, [[0, 1], [1, 0, 1], [0, 0, 0, 1]])
    xs = np.linspace(0, 3, 17)
    for j in range(3):
        vec = evaluate(model, xs, j)
        assert_allclose(vec, [evaluate(model, float(x), j) for x in xs], rtol=1e-13)


def test_evaluate_domain_error_vector():
    model = SplineModel.from_breakpoints([0, 1], 1)
    with pytest.raises(DomainError):
        evaluate(model, np.array([0.5, 1.5]))


def test_derivative_basis_is_c_ordered_and_matches_per_order_powers():
    # one pow per (u, power) must give the bits of one pow per (u, order,
    # power), in a C-ordered array: einsum's summation order over the basis,
    # and so the last bits of every ck value, follow its memory order
    u = np.array([-0.5, 0.5, -0.3, 1.7, 0.0, -0.0, 1e-3])
    for degree, k in [(5, 2), (7, 3), (3, 0), (0, 0)]:
        j = np.arange(k + 1)[:, None]
        t = np.arange(degree + 1)
        factors = np.array([[math.perm(s, row) for s in t] for row in range(k + 1)], dtype=float)
        basis = _derivative_basis(u, degree, k)
        assert basis.flags.c_contiguous
        assert basis.tobytes() == (factors * u[:, None, None] ** np.maximum(t - j, 0)).tobytes()


def test_rebase_examples():
    assert_allclose(rebase([0, 1], 0.0, 1.0), [1, 1])
    assert_allclose(rebase([0, 0, 1], 0.0, 1.0), [1, 2, 1])
    assert_allclose(rebase([5, 3, 2], 0.3, 0.3), [5, 3, 2])


def test_rebase_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = rng.uniform(-1, 1, rng.integers(1, 10))
        a, b = rng.uniform(-3, 3, 2)
        back = rebase(rebase(coeffs, a, b), b, a)
        assert_allclose(back, coeffs, rtol=1e-10, atol=1e-12)


def test_rebase_preserves_values():
    rng = np.random.default_rng(4)
    coeffs = rng.uniform(-1, 1, 6)
    shifted = rebase(coeffs, 0.0, 0.7)
    for x in rng.uniform(-2, 2, 10):
        direct = sum(c * x**t for t, c in enumerate(coeffs))
        moved = sum(c * (x - 0.7) ** t for t, c in enumerate(shifted))
        assert_allclose(moved, direct, rtol=1e-12, atol=1e-12)


def test_model_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SplineModel.from_breakpoints([0, 0, 1], 1)
    with pytest.raises(ValueError, match="shape"):
        SplineModel.from_breakpoints([0, 1], 2, coefficients=[[1, 2]])
    with pytest.raises(ValueError, match="finite"):
        SplineModel.from_breakpoints([0, 1], 0, coefficients=[[np.nan]])
    with pytest.raises(ValueError, match="midpoints"):
        SplineModel(np.array([0.0, 1.0]), 1, np.zeros((1, 2)), np.array([0.3]))
    with pytest.raises(ValueError, match="invertible"):
        DomainMap(0.0, 1.0)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: DomainMap(math.inf, 0.0), "domain map parameters must be finite",
                 id="domain-map-not-finite"),
    pytest.param(lambda: SampleSet([0.0, 1.0], [0.0, 1.0, 2.0]),
                 "xs and ys must be one-dimensional and the same length", id="sample-shapes"),
    pytest.param(lambda: SplineModel.from_breakpoints([0.0], 1),
                 "need at least one segment (two breakpoints)", id="one-breakpoint"),
    pytest.param(lambda: SplineModel.from_breakpoints([0.0, 1.0], 1.5, np.zeros((1, 2))),
                 "degree must be a non-negative integer", id="non-integer-degree"),
    pytest.param(lambda: SplineModel.from_breakpoints([0.0, 1.0], 1, domain_map=(1.0, 0.0)),
                 "domain_map must be a DomainMap", id="domain-map-not-a-DomainMap"),
    pytest.param(lambda: evaluate(model_from_global([0, 1], 1, [[0.0, 1.0]]), 0.5, j=-1),
                 "derivative order must be >= 0", id="evaluate-negative-order"),
    pytest.param(lambda: evaluate(model_from_global([0, 1], 1, [[0.0, 1.0]]), 0.5, 1.5),
                 "derivative order must be >= 0 and an integer, got 1.5",
                 id="evaluate-non-integer-order"),
    pytest.param(lambda: eval_segment(model_from_global([0, 1], 1, [[0.0, 1.0]]), 1, 0.5, 1.5),
                 "derivative order must be >= 0 and an integer, got 1.5",
                 id="eval-segment-non-integer-order"),
    pytest.param(lambda: rebase([1.0, 2.0], 0.0, math.nan), "rebase requires finite inputs",
                 id="rebase-not-finite"),
])
def test_invalid_inputs_raise_value_error(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_sample_set_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SampleSet([1.0], [2.0])
    with pytest.raises(ValueError, match="sorted"):
        SampleSet([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        SampleSet([0.0, 1.0], [0.0, np.inf])
    assert len(SampleSet([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])) == 3  # ties allowed
