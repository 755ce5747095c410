import dataclasses
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckspline import NonFiniteGradientError, OptimizerConfig, init_state, step
from ckspline.optimizers import _update


def run_constant(config, theta0, grad, steps):
    theta = np.array([[theta0]], dtype=float)
    state = init_state(config, theta.shape)
    trace = []
    for _ in range(steps):
        step(state, config, theta, np.array([[grad]]))
        trace.append(theta[0, 0])
    return np.array(trace), state


def test_sgd_plain_step():
    theta = np.array([[1.0]])
    config = OptimizerConfig("sgd", learning_rate=0.1)
    state = init_state(config, theta.shape)
    step(state, config, theta, np.array([[0.5]]))
    assert theta[0, 0] == pytest.approx(0.95)
    assert state.step_count == 1


def test_sgd_momentum_accumulates_velocity():
    config = OptimizerConfig("sgd", learning_rate=0.1, momentum=0.5)
    trace, state = run_constant(config, 1.0, 1.0, 2)
    # v1 = -0.1, theta1 = 0.9; v2 = 0.5*(-0.1) - 0.1 = -0.15, theta2 = 0.75
    assert_allclose(trace, [0.9, 0.75])
    assert state.velocity[0, 0] == pytest.approx(-0.15)


def test_sgd_nesterov_lookahead():
    config = OptimizerConfig("sgd", learning_rate=0.1, momentum=0.5, nesterov=True)
    trace, _ = run_constant(config, 1.0, 1.0, 1)
    # v1 = -0.1, theta += 0.5*v1 - 0.1 = -0.15
    assert trace[0] == pytest.approx(0.85)


def test_adam_first_step_is_almost_signed_lr():
    config = OptimizerConfig("adam", learning_rate=0.1)
    theta = np.array([[1.0]])
    state = init_state(config, theta.shape)
    step(state, config, theta, np.array([[0.5]]))
    assert abs(theta[0, 0] - 0.9) < 1e-6


def test_amsgrad_matches_adam_on_constant_gradient():
    adam_trace, _ = run_constant(OptimizerConfig("adam", 0.05), 1.0, 0.7, 10)
    ams_trace, state = run_constant(OptimizerConfig("amsgrad", 0.05), 1.0, 0.7, 10)
    # bias-corrected second moment is constant, so the max never binds
    assert_allclose(ams_trace, adam_trace, rtol=1e-12)
    assert state.max_second_moment[0, 0] == pytest.approx(0.49, rel=1e-9)


def test_amsgrad_max_slot_non_decreasing():
    rng = np.random.default_rng(2)
    config = OptimizerConfig("amsgrad", 0.05)
    theta = rng.normal(size=(3, 4))
    state = init_state(config, theta.shape)
    previous = state.max_second_moment.copy()
    for _ in range(50):
        step(state, config, theta, rng.normal(size=theta.shape))
        assert np.all(state.max_second_moment >= previous)
        previous = state.max_second_moment.copy()


def test_amsgrad_update_direction_invariant_to_gradient_scale():
    for scale in (3.0, 0.25):
        base = np.array([[1.0, -2.0], [0.5, -0.1]])
        a = np.zeros((2, 2)) + 1.0
        b = a.copy()
        sa = init_state(OptimizerConfig("amsgrad", 0.1), a.shape)
        sb = init_state(OptimizerConfig("amsgrad", 0.1), b.shape)
        for _ in range(10):
            before_a, before_b = a.copy(), b.copy()
            step(sa, OptimizerConfig("amsgrad", 0.1), a, base)
            step(sb, OptimizerConfig("amsgrad", 0.1), b, scale * base)
            assert np.array_equal(np.sign(a - before_a), np.sign(b - before_b))


def test_adamax_infinity_norm_update():
    config = OptimizerConfig("adamax", learning_rate=0.1)
    theta = np.array([[1.0]])
    state = init_state(config, theta.shape)
    step(state, config, theta, np.array([[0.5]]))
    # u = |g| = 0.5, m = 0.05, theta -= (0.1/0.1) * 0.05 / (0.5 + eps)
    assert theta[0, 0] == pytest.approx(1.0 - 0.05 / (0.5 + 1e-7))
    assert state.inf_norm[0, 0] == pytest.approx(0.5)
    assert np.all(state.inf_norm >= 0)


def test_sgd_converges_on_quadratic():
    # l(theta) = theta^2, gradient 2*theta, contraction factor 0.8 per step
    theta = np.array([[1.0]])
    config = OptimizerConfig("sgd", learning_rate=0.1)
    state = init_state(config, theta.shape)
    previous = abs(theta[0, 0])
    for _ in range(100):
        step(state, config, theta, 2.0 * theta)
        assert abs(theta[0, 0]) <= previous
        previous = abs(theta[0, 0])
    assert abs(theta[0, 0]) < 1e-9


def test_non_finite_gradient_reports_location():
    theta = np.zeros((3, 4))
    config = OptimizerConfig("sgd", 0.1)
    state = init_state(config, theta.shape)
    grads = np.zeros((3, 4))
    grads[2, 1] = np.nan
    with pytest.raises(NonFiniteGradientError, match="segment 3, power 1") as info:
        step(state, config, theta, grads)
    assert info.value.segment == 3
    assert info.value.power == 1
    assert state.step_count == 0  # failed step does not advance the counter


@pytest.mark.parametrize("shape, where, segment, power", [
    ((2, 3, 4), (1, 2, 3), 3, 3),  # a stack of runs: segment and power are the last two axes
    ((5,), (4,), 1, 4),  # one flat segment
])
def test_non_finite_gradient_location_in_any_shape(shape, where, segment, power):
    theta = np.zeros(shape)
    config = OptimizerConfig("amsgrad", 0.1)
    state = init_state(config, shape)
    grads = np.zeros(shape)
    grads[where] = np.nan
    with pytest.raises(NonFiniteGradientError) as info:
        step(state, config, theta, grads)
    assert (info.value.segment, info.value.power) == (segment, power)
    assert state.step_count == 0


def test_gradient_shape_mismatch():
    theta = np.zeros((2, 2))
    config = OptimizerConfig("sgd", 0.1)
    with pytest.raises(ValueError, match="shape"):
        step(init_state(config, theta.shape), config, theta, np.zeros((2, 3)))


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        OptimizerConfig("rmsprop")
    with pytest.raises(ValueError, match="learning_rate"):
        OptimizerConfig("sgd", learning_rate=0.0)
    with pytest.raises(ValueError, match="momentum"):
        OptimizerConfig("sgd", momentum=1.0)
    with pytest.raises(ValueError, match="nesterov"):
        OptimizerConfig("sgd", nesterov=True)
    with pytest.raises(ValueError, match="beta"):
        OptimizerConfig("adam", beta2=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        OptimizerConfig("adam", epsilon=0.0)


@pytest.mark.parametrize("kind", ["sgd", "adam", "adamax", "amsgrad"])
def test_deterministic_trajectories(kind):
    rng = np.random.default_rng(31)
    grads = rng.normal(size=(25, 2, 3))
    results = []
    for _ in range(2):
        theta = np.ones((2, 3))
        config = OptimizerConfig(kind, 0.05, momentum=0.9 if kind == "sgd" else 0.0)
        state = init_state(config, theta.shape)
        for g in grads:
            step(state, config, theta, g)
        results.append(theta.copy())
    assert np.array_equal(results[0], results[1])


@pytest.mark.parametrize("config", [
    OptimizerConfig("sgd", 0.05),
    OptimizerConfig("sgd", 0.05, momentum=0.9),
    OptimizerConfig("sgd", 0.05, momentum=0.9, nesterov=True),
    OptimizerConfig("adam", 0.05),
    OptimizerConfig("adamax", 0.05),
    OptimizerConfig("amsgrad", 0.05),
], ids=["sgd", "momentum", "nesterov", "adam", "adamax", "amsgrad"])
def test_unchecked_update_equals_step(config):
    rng = np.random.default_rng(zlib.crc32(repr(config).encode()))
    shape = (3, 4, 5)
    checked, unchecked = np.ones(shape), np.ones(shape)
    checked_state, unchecked_state = init_state(config, shape), init_state(config, shape)
    for _ in range(2000):
        grads = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
        step(checked_state, config, checked, grads)
        _update(unchecked_state, config, unchecked, grads)
    assert np.array_equal(checked, unchecked)
    for field in dataclasses.fields(checked_state):
        assert np.array_equal(getattr(checked_state, field.name),
                              getattr(unchecked_state, field.name)), field.name
