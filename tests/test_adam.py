"""Adam: frozen reference trace, update geometry, state handling."""

import dataclasses

import numpy as np
import pytest

from localfocus import Adam, ConfigError, StateError, Tensor
from localfocus.optim import BETA1, BETA2, EPS


def reference_adam(theta, grads, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-python scalar Adam, written independently of the package."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (v_hat ** 0.5 + eps)
    return theta


def stepped(p0, grads, **hyper):
    """Run ``Adam`` over one parameter initialised to ``p0``, feeding
    ``grads`` one step each; returns the optimizer."""
    param = Tensor(np.array(p0, dtype=np.float64), requires_grad=True)
    opt = Adam([param], **hyper)
    for g in grads:
        param.grad = np.array(g, dtype=np.float64)
        opt.step()
    return opt


class TestAdamStep:
    def test_two_step_scalar_trace(self):
        opt = stepped([1.0], [[0.5], [-0.3]], lr=0.1)
        expected = reference_adam(1.0, [0.5, -0.3], lr=0.1)
        np.testing.assert_allclose(opt.params[0].data, [expected], rtol=1e-15)
        assert opt.t == 2

    def test_longer_trace_random_grads(self):
        rng = np.random.default_rng(11)
        grads = rng.normal(size=20)
        opt = stepped([0.7], [[g] for g in grads], lr=3e-3)
        np.testing.assert_allclose(opt.params[0].data, [reference_adam(0.7, grads.tolist(), lr=3e-3)],
                                   rtol=1e-13)

    def test_first_step_magnitude_is_lr_times_sign(self):
        # After one step m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps) ~ lr * sign(g).
        for g in (0.5, -2.0, 1e-3):
            opt = stepped([0.0], [[g]], lr=1e-4)
            np.testing.assert_allclose(opt.params[0].data, [-1e-4 * np.sign(g)], rtol=1e-4)

    def test_eps_sits_outside_sqrt(self):
        # With v_hat = g^2 tiny, lr*g/(sqrt(v_hat)+eps) differs measurably
        # from lr*g/sqrt(v_hat+eps): 9.99e-7 vs ~3.16e-8 for g=1e-10.
        g = 1e-10
        opt = stepped([0.0], [[g]], lr=1e-6)
        outside = 1e-6 * g / (g + 1e-8)          # ~9.9e-9
        inside = 1e-6 * g / np.sqrt(g * g + 1e-8)  # ~1e-12
        update = -opt.params[0].data[0]
        assert update == pytest.approx(outside, rel=1e-9)
        assert update > 100.0 * inside

    def test_zero_gradient_is_a_no_op_on_params(self):
        opt = stepped([1.0, -2.0, 3.0], [np.zeros(3)], lr=0.5)
        np.testing.assert_array_equal(opt.params[0].data, [1.0, -2.0, 3.0])
        assert opt.t == 1

    def test_zero_lr_freezes_params(self):
        opt = stepped([1.0, 2.0], [[5.0, -5.0]], lr=0.0)
        np.testing.assert_array_equal(opt.params[0].data, [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            stepped(np.zeros(2), [np.zeros(3)])

    def test_defaults(self):
        opt = Adam([Tensor(np.zeros(1), requires_grad=True)])
        assert (opt.lr, opt.t) == (1e-4, 0)
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
        assert [f.name for f in dataclasses.fields(Adam)] == ["params", "lr"]


class TestAdamWrapper:
    def test_steps_all_params(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0, -1.0])
        opt.step()
        assert a.data[0] < 1.0
        assert b.data[0] < 2.0 and b.data[1] > 3.0

    def test_step_without_grads_raises(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([a])
        with pytest.raises(StateError):
            opt.step()

    def test_bad_hyperparameters(self):
        # Only the learning rate is settable; the rest are module constants.
        a = Tensor(np.array([1.0]), requires_grad=True)
        for hyper in ("beta1", "beta2", "eps"):
            with pytest.raises(TypeError):
                Adam([a], **{hyper: 0.9})

    def test_missing_gradient_moves_nothing(self):
        # The check runs over every parameter before any update, so a
        # later missing gradient cannot leave earlier ones stepped.
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        with pytest.raises(StateError):
            opt.step()
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [2.0, 3.0])
        np.testing.assert_array_equal(opt.m[0], [0.0])
        assert opt.t == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_moves_nothing(self, bad):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0, bad, 1.0])
        with pytest.raises(StateError, match="gradient 1 .* at element 1"):
            opt.step()
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(opt.m[0], [0.0])
        np.testing.assert_array_equal(opt.v[1], [0.0, 0.0, 0.0])
        assert opt.t == 0

    def test_wrong_shaped_gradient_moves_nothing(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0, 1.0, 1.0])
        with pytest.raises(ConfigError):
            opt.step()
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [2.0, 3.0])
        assert opt.t == 0
