"""Autograd engine: values, gradients, and graph bookkeeping."""

import numpy as np
import pytest

from localfocus import ShapeError, Tensor
from localfocus.gradcheck import check_gradient


class TestBasics:
    def test_data_is_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_grad_starts_none(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.grad is None

    def test_backward_needs_scalar_without_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            t.backward()

    def test_backward_grad_shape_checked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            t.backward(np.ones(3))


class TestArithmetic:
    def test_add_values_and_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = (a + b).sum()
        assert out.item() == 33.0
        out.backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_scalar_add_and_mul(self):
        # Scalars multiply a tensor; adding one is refused (see below).
        a = Tensor([2.0], requires_grad=True)
        out = (3.0 * a).sum()
        assert out.item() == 6.0
        out.backward()
        np.testing.assert_array_equal(a.grad, [3.0])

    @pytest.mark.parametrize("form", [lambda t: t + 1.0, lambda t: 1.0 + t,
                                      lambda t: t - 1.0, lambda t: 1.0 - t],
                             ids=["t+1", "1+t", "t-1", "1-t"])
    def test_scalar_add_and_sub_refused(self, form):
        with pytest.raises(TypeError):
            form(Tensor([2.0]))

    def test_elementwise_mul_grads(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0])
        np.testing.assert_array_equal(b.grad, [-1.0])

    def test_diamond_graph_accumulates(self):
        # y = a*a contributes twice through the same node
        a = Tensor([3.0], requires_grad=True)
        y = (a * a).sum()
        y.backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_shared_node_two_consumers(self):
        a = Tensor([2.0], requires_grad=True)
        h = a * 3.0
        y = (h + h * 2.0).sum()  # dy/da = 3 + 6
        y.backward()
        np.testing.assert_allclose(a.grad, [9.0])

    def test_first_gradient_is_a_private_copy(self):
        # add hands the same upstream array to both inputs, and the root
        # receives the caller's array: no gradient may alias another.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        up = np.array([1.0, 2.0, 3.0])
        (a + b).backward(up)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(up, [1.0, 2.0, 3.0])

    def test_backward_releases_the_graph(self):
        a = Tensor([2.0, -1.0], requires_grad=True)
        h = (a * 3.0).relu()
        y = (h + a).sum()
        nodes, stack = [], [y]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node._parents)
        assert len(nodes) > 3
        y.backward()
        np.testing.assert_array_equal(a.grad, [4.0, 1.0])
        for node in nodes:
            assert node._backward is None and node._parents == ()

    def test_no_grad_inputs_build_no_graph(self):
        a = Tensor([1.0])
        out = a.relu()
        assert out._backward is None and out._parents == ()
        assert not out.requires_grad


class TestNonlinearities:
    def test_sigmoid_values(self):
        x = Tensor([0.0, np.log(3.0)])
        np.testing.assert_allclose(x.sigmoid().data, [0.5, 0.75], atol=1e-15)

    def test_sigmoid_saturation_clamped(self):
        lo = Tensor([-800.0]).sigmoid().data[0]
        hi = Tensor([800.0]).sigmoid().data[0]
        assert lo == 1e-12
        assert hi == 1.0 - 1e-12

    def test_sigmoid_gradient(self):
        x = Tensor([0.3, -1.2], requires_grad=True)
        out = x.sigmoid()
        out.backward(np.ones(2))
        s = out.data
        np.testing.assert_allclose(x.grad, s * (1 - s), rtol=1e-12)

    def test_abs_values_and_subgradient(self):
        x = Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        out = x.abs()
        np.testing.assert_array_equal(out.data, [2.0, 0.0, 3.0])
        out.backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_relu_values_and_subgradient(self):
        x = Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        out = x.relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])
        out.backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("op", ["sigmoid", "abs", "relu"])
    def test_finite_difference(self, op):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x0 = rng.normal(size=(6,))
            if op in ("abs", "relu"):
                x0 = x0[np.abs(x0) > 1e-2]  # keep clear of the kink
            weights = rng.normal(size=x0.shape)

            def f(arr):
                t = Tensor(arr)
                return float((getattr(t, op)().data * weights).sum())

            x = Tensor(x0, requires_grad=True)
            out = getattr(x, op)()
            out.backward(weights)
            assert check_gradient(f, x0, x.grad) < 1e-4
