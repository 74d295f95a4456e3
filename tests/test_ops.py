"""Conv/pool/linear/loss kernels: frozen values, shape law, gradients."""

import numpy as np
import pytest

from localfocus import (ConfigError, DomainError, ShapeError, Tensor,
                        bce_loss, bce_loss_mean, conv2d, linear, maxpool2d)
from localfocus.gradcheck import check_gradient
from numpy.lib.stride_tricks import sliding_window_view


def conv_output_extent(n, k, stride, padding):
    """Independent statement of the conv shape law."""
    return (n + 2 * padding - k) // stride + 1


class TestConv2d:
    def test_single_window_sum(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        w = Tensor(np.ones((1, 1, 2, 2)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, w, b)
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 10.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(1, 5, 5))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(Tensor(img), w, Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, img)

    def test_bias_adds_per_channel(self):
        x = Tensor(np.zeros((1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 2, 2)))
        out = conv2d(x, w, Tensor([1.5, -2.0]))
        np.testing.assert_array_equal(out.data[0], np.full((2, 2), 1.5))
        np.testing.assert_array_equal(out.data[1], np.full((2, 2), -2.0))

    def test_linearity_in_input(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4, 3, 2, 2)))
        a = rng.normal(size=(3, 6, 6))
        b = rng.normal(size=(3, 6, 6))
        out_sum = conv2d(Tensor(a + 2.0 * b), w)
        out_parts = conv2d(Tensor(a), w).data + 2.0 * conv2d(Tensor(b), w).data
        np.testing.assert_allclose(out_sum.data, out_parts, atol=1e-12)

    @pytest.mark.parametrize("h,w,k,stride,padding", [
        (7, 9, 2, 1, 0), (8, 8, 3, 2, 1), (5, 5, 1, 1, 0),
        (10, 6, 2, 2, 0), (6, 6, 3, 3, 2),
    ])
    def test_shape_law(self, h, w, k, stride, padding):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, h, w)))
        wt = Tensor(rng.normal(size=(3, 2, k, k)))
        out = conv2d(x, wt, stride=stride, padding=padding)
        assert out.data.shape == (3, conv_output_extent(h, k, stride, padding),
                                  conv_output_extent(w, k, stride, padding))

    def test_matches_direct_convolution(self):
        # Independent O(n^4) reference on a small case.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 6))
        w = rng.normal(size=(3, 2, 2, 2))
        b = rng.normal(size=3)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        ref = np.zeros((3, 4, 5))
        for co in range(3):
            for i in range(4):
                for j in range(5):
                    ref[co, i, j] = (x[:, i:i + 2, j:j + 2] * w[co]).sum() + b[co]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((3, 4, 4)))
        w = Tensor(np.zeros((1, 4, 2, 2)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, w)

    def test_kernel_larger_than_input(self):
        x = Tensor(np.zeros((1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, w)

    def test_bad_stride_and_padding(self):
        x = Tensor(np.zeros((1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ConfigError):
            conv2d(x, w, stride=0)
        with pytest.raises(ConfigError):
            conv2d(x, w, padding=-1)

    def test_batched_matches_looped(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(3, 2, 6, 6))
        w = Tensor(rng.normal(size=(4, 2, 2, 2)))
        b = Tensor(rng.normal(size=4))
        batched = conv2d(Tensor(xs), w, b).data
        for i in range(3):
            single = conv2d(Tensor(xs[i]), w, b).data
            np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1)])
    def test_gradients(self, stride, padding):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(2, 5, 5))
        w0 = rng.normal(size=(3, 2, 2, 2))
        b0 = rng.normal(size=3)
        upstream = rng.normal(size=conv2d(Tensor(x0), Tensor(w0), Tensor(b0),
                                          stride=stride, padding=padding).data.shape)

        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        conv2d(x, w, b, stride=stride, padding=padding).backward(upstream)

        def f_of(which):
            def f(arr):
                args = {"x": x0, "w": w0, "b": b0}
                args[which] = arr
                out = conv2d(Tensor(args["x"]), Tensor(args["w"]), Tensor(args["b"]),
                             stride=stride, padding=padding)
                return float((out.data * upstream).sum())
            return f

        assert check_gradient(f_of("x"), x0, x.grad) < 1e-4
        assert check_gradient(f_of("w"), w0, w.grad) < 1e-4
        assert check_gradient(f_of("b"), b0, b.grad) < 1e-4


def oracle_maxpool2d(xd, g, k, stride):
    """Window-copy max-pool: argmax over each copied window (first max
    wins), then np.add.at scatters ``g`` to the winners. Returns the
    forward values and the input gradient for an N x C x H x W batch."""
    win = sliding_window_view(xd, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = win.shape[:4]
    flat = win.reshape(n, c, ho, wo, k * k)
    arg = flat.argmax(axis=4)
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    ni, ci, oi, oj = np.indices((n, c, ho, wo))
    dx = np.zeros_like(xd)
    np.add.at(dx, (ni, ci, oi * stride + arg // k, oj * stride + arg % k), g)
    return out, dx


class TestMaxPool2d:
    def test_single_window(self):
        out = maxpool2d(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_values(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out = maxpool2d(Tensor(x))
        np.testing.assert_array_equal(out.data[0], [[5.0, 7.0], [13.0, 15.0]])

    def test_tie_routes_to_first_row_major(self):
        x = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
        maxpool2d(x).backward(np.ones((1, 1, 1)))
        np.testing.assert_array_equal(x.grad[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            maxpool2d(Tensor(np.zeros((1, 1, 4))), k=2)

    def test_overlapping_windows_accumulate(self):
        x = Tensor([[[1.0, 5.0, 2.0], [0.0, 0.0, 0.0]]], requires_grad=True)
        out = maxpool2d(x, k=2, stride=1)  # both windows share the middle max
        assert out.data.shape == (1, 1, 2)
        np.testing.assert_array_equal(out.data[0], [[5.0, 5.0]])
        out.backward(np.ones((1, 1, 2)))
        np.testing.assert_array_equal(x.grad[0], [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])

    def test_batched_matches_looped(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(3, 2, 6, 6))
        batched = maxpool2d(Tensor(xs)).data
        for i in range(3):
            np.testing.assert_array_equal(batched[i], maxpool2d(Tensor(xs[i])).data)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x0 = rng.normal(size=(2, 6, 6))
            # keep window runners-up clearly separated so FD never crosses
            # a selection boundary
            x0 = np.round(x0, 1) + rng.permuted(
                np.linspace(0.0, 0.04, x0.size)).reshape(x0.shape)
            upstream = rng.normal(size=(2, 3, 3))
            x = Tensor(x0, requires_grad=True)
            maxpool2d(x).backward(upstream)

            def f(arr):
                return float((maxpool2d(Tensor(arr)).data * upstream).sum())

            assert check_gradient(f, x0, x.grad) < 1e-4

    @pytest.mark.parametrize("shape,k,stride", [
        ((2, 3, 63, 63), 2, 2), ((2, 3, 7, 5), 2, 2),
        ((2, 2, 9, 11), 3, 3), ((2, 2, 6, 7), 2, 1),
    ])
    def test_matches_window_oracle(self, shape, k, stride):
        rng = np.random.default_rng(8)
        for _ in range(3):
            # Rounding leaves many equal values per window (and signed zeros).
            x0 = np.round(rng.normal(size=shape))
            x = Tensor(x0, requires_grad=True)
            out = maxpool2d(x, k=k, stride=stride)
            upstream = rng.normal(size=out.data.shape)
            out.backward(upstream)
            ref_out, ref_dx = oracle_maxpool2d(x0, upstream, k, stride)
            # Values compare equal; which of two signed zeros a tie keeps
            # is left to np.maximum, so the forward is not compared as bytes.
            np.testing.assert_array_equal(out.data, ref_out)
            assert x.grad.tobytes() == ref_dx.tobytes()


class TestLinear:
    def test_frozen_value(self):
        out = linear(Tensor([1.0, 2.0]), Tensor([[3.0, 4.0]]), Tensor([0.5]))
        assert out.data.shape == (1,)
        assert out.data[0] == 11.5

    def test_batched_matches_looped(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(4, 7))
        w = Tensor(rng.normal(size=(1, 7)))
        b = Tensor(rng.normal(size=1))
        batched = linear(Tensor(xs), w, b).data
        assert batched.shape == (4, 1)
        for i in range(4):
            # BLAS blocks batched and single matmuls differently, so
            # agreement is to roundoff rather than bitwise.
            np.testing.assert_allclose(batched[i], linear(Tensor(xs[i]), w, b).data,
                                       rtol=1e-12, atol=1e-12)

    def test_feature_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(5)), Tensor(np.zeros((1, 4))))

    def test_gradients_tight(self):
        # Linear map: central differences are exact up to roundoff.
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=64)
        w0 = rng.normal(size=(1, 64))
        b0 = rng.normal(size=1)
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        linear(x, w, b).backward(np.ones(1))

        def f_x(arr):
            return float(linear(Tensor(arr), Tensor(w0), Tensor(b0)).data[0])

        def f_w(arr):
            return float(linear(Tensor(x0), Tensor(arr), Tensor(b0)).data[0])

        assert check_gradient(f_x, x0, x.grad) < 1e-6
        assert check_gradient(f_w, w0, w.grad) < 1e-6
        np.testing.assert_allclose(b.grad, [1.0])


class TestBceLoss:
    def test_frozen_values(self):
        assert bce_loss(Tensor([0.5]), 1).item() == pytest.approx(np.log(2.0), rel=1e-12)
        assert bce_loss(Tensor([0.9]), 0).item() == pytest.approx(-np.log(0.1), rel=1e-9)
        assert bce_loss(Tensor([1.0 - 1e-12]), 1).item() == pytest.approx(1e-12, abs=1e-13)

    def test_clamp_keeps_loss_finite(self):
        loss = bce_loss(Tensor([0.0]), 1)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_label_domain(self):
        with pytest.raises(DomainError):
            bce_loss(Tensor([0.5]), 2)
        with pytest.raises(DomainError):
            bce_loss_mean(Tensor([0.5, 0.5]), [0, 3])

    def test_mean_over_batch(self):
        probs = Tensor([0.5, 0.9])
        labels = [1, 0]
        expected = (np.log(2.0) - np.log(0.1)) / 2.0
        assert bce_loss_mean(probs, labels).item() == pytest.approx(expected, rel=1e-9)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss_mean(Tensor([0.5, 0.5, 0.5]), [0, 1])

    def test_gradient(self):
        rng = np.random.default_rng(10)
        p0 = rng.uniform(0.05, 0.95, size=6)
        labels = rng.integers(0, 2, size=6)
        p = Tensor(p0, requires_grad=True)
        bce_loss_mean(p, labels).backward()

        def f(arr):
            return bce_loss_mean(Tensor(arr), labels).item()

        assert check_gradient(f, p0, p.grad) < 1e-4

    def test_gradient_zero_in_clamped_region(self):
        p = Tensor([0.0], requires_grad=True)
        bce_loss(p, 1).backward()
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_sigmoid_chain_matches_closed_form(self):
        # d/dz bce(sigmoid(z), y) = sigmoid(z) - y
        for y in (0, 1):
            z = Tensor([0.7], requires_grad=True)
            bce_loss(z.sigmoid(), y).backward()
            s = 1.0 / (1.0 + np.exp(-0.7))
            np.testing.assert_allclose(z.grad, [s - y], rtol=1e-10)
