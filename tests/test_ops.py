"""Conv/pool/linear/loss kernels: frozen values, shape law, gradients."""

import contextlib
import re

import numpy as np
import pytest

from localfocus import (ConfigError, DomainError, ShapeError, Tensor,
                        bce_loss_mean, conv2d, linear, maxpool2d)
from localfocus import ops, tensor
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
        w, zero = Tensor(rng.normal(size=(4, 3, 2, 2))), Tensor(np.zeros(4))
        a = rng.normal(size=(3, 6, 6))
        b = rng.normal(size=(3, 6, 6))
        out_sum = conv2d(Tensor(a + 2.0 * b), w, zero)
        out_parts = conv2d(Tensor(a), w, zero).data + 2.0 * conv2d(Tensor(b), w, zero).data
        np.testing.assert_allclose(out_sum.data, out_parts, atol=1e-12)

    @pytest.mark.parametrize("h,w,k,stride,padding", [
        (7, 9, 2, 1, 0), (8, 8, 3, 2, 1), (5, 5, 1, 1, 0),
        (10, 6, 2, 2, 0), (6, 6, 3, 3, 2),
    ])
    def test_shape_law(self, h, w, k, stride, padding):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, h, w)))
        wt = Tensor(rng.normal(size=(3, 2, k, k)))
        out = conv2d(x, wt, Tensor(np.zeros(3)), stride=stride, padding=padding)
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
            conv2d(x, w, Tensor(np.zeros(1)))

    def test_kernel_larger_than_input(self):
        x = Tensor(np.zeros((1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, w, Tensor(np.zeros(1)))

    def test_bad_stride_and_padding(self):
        x = Tensor(np.zeros((1, 4, 4)))
        w, b = Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros(1))
        with pytest.raises(ConfigError):
            conv2d(x, w, b, stride=0)
        with pytest.raises(ConfigError):
            conv2d(x, w, b, padding=-1)

    @pytest.mark.parametrize("name, value", [("stride", 1.5), ("padding", 0.5), ("stride", True)])
    def test_non_integer_settings_rejected(self, name, value):
        x = Tensor(np.zeros((1, 4, 4)))
        w, b = Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros(1))
        with pytest.raises(ConfigError, match=f"^conv2d {name} must be an integer, got {value}$"):
            conv2d(x, w, b, **{name: value})
        assert conv2d(x, w, b, stride=np.int64(1), padding=np.int32(0)).shape == (1, 3, 3)

    def test_bias_required(self):
        with pytest.raises(TypeError):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    @pytest.mark.parametrize("x_shape, w_shape, b_shape, message", [
        ((4, 4), (1, 1, 2, 2), (1,), "conv2d input must be CxHxW or NxCxHxW, got rank 2"),
        ((1, 1, 1, 4, 4), (1, 1, 2, 2), (1,), "conv2d input must be CxHxW or NxCxHxW, got rank 5"),
        ((1, 4, 4), (1, 1, 2), (1,), "conv2d weight must be Cout x Cin x kh x kw, got rank 3"),
        ((1, 4, 4), (1, 1, 0, 2), (1,), "conv2d kernel must be at least 1x1, got 0x2"),
        ((1, 4, 4), (1, 1, 2, 2), (2,), "conv2d bias must have shape (1,), got (2,)"),
        ((1, 4, 2), (1, 1, 3, 3), (1,), "conv2d width axis too small: padded extent 2 < kernel 3"),
    ], ids=["rank-2", "rank-5", "weight-rank", "empty-kernel", "bias-shape", "narrow"])
    def test_shape_errors_name_the_failure(self, x_shape, w_shape, b_shape, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))

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
        (conv2d(x, w, b, stride=stride, padding=padding) * Tensor(upstream)).sum().backward()

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


    @pytest.mark.parametrize("constant", [0, 1, 2], ids=["input", "weight", "bias"])
    def test_constant_operand_stays_gradient_free(self, constant):
        rng = np.random.default_rng(11)
        values = (rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4))
        up = rng.normal(size=(2, 4, 4, 4))
        full = [Tensor(v, requires_grad=True) for v in values]
        (conv2d(*full) * Tensor(up)).sum().backward()
        part = [Tensor(v, requires_grad=i != constant) for i, v in enumerate(values)]
        (conv2d(*part) * Tensor(up)).sum().backward()
        for i, (f, p) in enumerate(zip(full, part)):
            if i == constant:
                assert p.grad is None
            else:
                np.testing.assert_array_equal(p.grad, f.grad)

    @pytest.mark.parametrize("shape,stride,padding", [
        ((2, 3, 7, 6), 1, 0), ((2, 3, 7, 6), 2, 1), ((3, 6, 5), 1, 1), ((3, 6, 5), 2, 0),
    ])
    def test_channels_last_input_matches_contiguous(self, shape, stride, padding):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=shape)
        x_cl = channels_last(x0)
        assert not x_cl.flags.c_contiguous and np.array_equal(x_cl, x0)
        w0, b0 = rng.normal(size=(4, shape[-3], 2, 2)), rng.normal(size=4)
        results = []
        for xd in (x0, x_cl):
            x, w, b = (Tensor(a, requires_grad=True) for a in (xd, w0, b0))
            out = conv2d(x, w, b, stride=stride, padding=padding)
            (out * Tensor(np.random.default_rng(10).normal(size=out.shape))).sum().backward()
            results.append((out.data, x.grad, w.grad, b.grad))
        for a, b in zip(*results):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_output_is_a_channels_last_view(self):
        # conv -> pool -> relu hands NHWC memory on without a transpose copy.
        rng = np.random.default_rng(11)
        out = conv2d(Tensor(rng.normal(size=(2, 3, 9, 9))), Tensor(rng.normal(size=(5, 3, 2, 2))),
                     Tensor(rng.normal(size=5)))
        for t in (out, maxpool2d(out), maxpool2d(out).relu()):
            assert t.data.transpose(0, 2, 3, 1).flags.c_contiguous


def oracle_conv2d(xd, wd, bd, g, stride, padding):
    """The whole-layer conv2d: one im2col matrix for the batch, one matmul,
    one bias pass, and a backward that reads the same rows. Returns the
    output and the x, weight and bias gradients for the output gradient ``g``."""
    x4 = xd if xd.ndim == 4 else xd[None]
    n, cin, h, w = x4.shape
    cout, _, kh, kw = wd.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xh = x4.transpose(0, 2, 3, 1)
    xp = np.pad(xh, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else xh
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    col = np.empty((n * ho * wo, kh * kw * cin))
    np.copyto(col.reshape(n, ho, wo, kh, kw, cin), win.transpose(0, 1, 2, 4, 5, 3))
    wmat = wd.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    flat = np.matmul(col, wmat.T, out=np.empty((n * ho * wo, cout)))
    flat += bd
    out = flat.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2).reshape(xd.shape[:-3] + (cout, ho, wo))

    gmat = g.reshape(n, cout, ho, wo).transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
    dcol = (gmat @ wmat).reshape(n, ho, wo, kh, kw, cin)
    dxp = np.zeros((n, hp, wp, cin))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcol[:, :, :, i, j]
    dx = dxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2).reshape(xd.shape)
    dw = (gmat.T @ col).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
    return out, dx, dw, np.einsum("ij->j", gmat)


def channels_last(a):
    """``a`` with channels-last memory: equal values, NCHW-shaped view."""
    lead = a.ndim - 3
    perm = tuple(range(lead)) + (lead + 1, lead + 2, lead)
    return np.ascontiguousarray(a.transpose(perm)).transpose(np.argsort(perm))


class TestConv2dBands:
    """The banded forward and its rebuilt-rows backward give the bytes of
    the whole-layer form, whatever the band height."""

    @pytest.mark.parametrize("rows", [1, 3], ids=["1-row", "3-row"])
    @pytest.mark.parametrize("shape,w_shape,stride,padding,layout", [
        ((2, 3, 8, 7), (4, 3, 2, 2), 1, 0, "nchw"),
        ((2, 3, 8, 7), (4, 3, 2, 2), 1, 0, "channels-last"),
        ((2, 3, 9, 8), (5, 3, 3, 3), 2, 1, "nchw"),
        ((2, 3, 9, 8), (5, 3, 3, 3), 2, 1, "channels-last"),
        ((3, 8, 7), (4, 3, 2, 2), 1, 0, "nchw"),
    ])
    def test_matches_the_whole_layer_form(self, monkeypatch, rows, shape, w_shape, stride, padding, layout):
        rng = np.random.default_rng(21)
        x0, w0, b0 = rng.normal(size=shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        if layout == "channels-last":
            x0 = channels_last(x0)
        cout, cin, kh, kw = w_shape
        ho = conv_output_extent(shape[-2], kh, stride, padding)
        wo = conv_output_extent(shape[-1], kw, stride, padding)
        assert ho % 3 != 0  # the 3-row bands end in a partial one
        monkeypatch.setattr(ops, "_BAND_BYTES", 8 * wo * (kh * kw * cin + cout) * rows)
        drawn = []
        monkeypatch.setattr(ops, "buffer", lambda *a: drawn.append(a[0]) or tensor.buffer(*a))
        g = rng.normal(size=shape[:-3] + (cout, ho, wo))

        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = conv2d(x, w, b, stride=stride, padding=padding)
        assert drawn[0] == (rows * wo, kh * kw * cin)
        (out * Tensor(g)).sum().backward()
        for got, want in zip((out.data, x.grad, w.grad, b.grad),
                             oracle_conv2d(x0, w0, b0, g, stride, padding)):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_a_batch_gives_the_bytes_of_a_loop_over_its_images(self):
        # conv2 at 256 px: many bands per image at the default budget.
        rng = np.random.default_rng(22)
        xs = rng.normal(size=(2, 32, 127, 127))
        w, b = Tensor(rng.normal(size=(64, 32, 2, 2))), Tensor(rng.normal(size=64))
        assert 8 * 126 * (4 * 32 + 64) * 126 > 2 * ops._BAND_BYTES
        batched = conv2d(Tensor(xs), w, b).data
        for i in range(2):
            assert np.array_equal(batched[i], conv2d(Tensor(xs[i]), w, b).data)

    def test_draws_only_its_output_and_one_band(self, monkeypatch):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(1, 32, 127, 127)))
        w, b = Tensor(rng.normal(size=(64, 32, 2, 2))), Tensor(rng.normal(size=64))
        calls = []
        for _ in range(2):
            drawn = []
            monkeypatch.setattr(ops, "buffer", lambda *a: drawn.append(tensor.buffer(*a)) or drawn[-1])
            with tensor.reuse_buffers():
                out = conv2d(x, w, b).data
            assert len(drawn) == 2
            band, = [a for a in drawn if not np.shares_memory(a, out)]
            assert band.nbytes <= ops._BAND_BYTES
            calls.append(drawn)
        for first, second in zip(*calls):
            assert np.shares_memory(first, second)

    @pytest.mark.parametrize("shape,w_shape,block", [
        ((1, 32, 127, 127), (64, 32, 2, 2), True),   # conv2 at 256 px: many bands
        ((2, 3, 64, 64), (32, 3, 2, 2), True),       # conv1 at 64 px: one band per image
        ((1, 32, 127, 127), (64, 32, 2, 2), False),  # the same two with no reuse block open
        ((2, 3, 64, 64), (32, 3, 2, 2), False),
    ], ids=["conv2-256px", "conv1-64px", "conv2-256px-no-block", "conv1-64px-no-block"])
    def test_a_float32_input_runs_in_float32(self, monkeypatch, shape, w_shape, block):
        rng = np.random.default_rng(24)
        x0 = rng.normal(size=shape)
        w, b = Tensor(rng.normal(size=w_shape)), Tensor(rng.normal(size=w_shape[0]))
        want = conv2d(Tensor(x0), w, b).data
        drawn = []
        monkeypatch.setattr(ops, "buffer", lambda *a: drawn.append(tensor.buffer(*a)) or drawn[-1])
        with tensor.reuse_buffers() if block else contextlib.nullcontext():
            got = conv2d(Tensor(x0.astype(np.float32)), w, b).data
        assert got.dtype == np.float32 and w.data.dtype == np.float64 and b.data.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        # The band is sized for 4-byte values: its rows and products fit the
        # budget, and one more row of them would not.
        band, = [a for a in drawn if not np.shares_memory(a, got)]
        cout, cin, kh, kw = w_shape
        ho, wo = got.shape[-2:]
        row_bytes = band.itemsize * wo * (kh * kw * cin + cout)
        rows = band.shape[0] // wo
        assert band.dtype == np.float32 and rows * row_bytes <= ops._BAND_BYTES
        assert rows == ho or (rows + 1) * row_bytes > ops._BAND_BYTES


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
        (maxpool2d(x) * Tensor(np.ones((1, 1, 1)))).sum().backward()
        np.testing.assert_array_equal(x.grad[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            maxpool2d(Tensor(np.zeros((1, 1, 4))), k=2)

    @pytest.mark.parametrize("shape, message", [
        ((1, 4, 1), "maxpool2d width axis too small: extent 1 < window 2"),
        ((4, 4), "maxpool2d input must be CxHxW or NxCxHxW, got rank 2"),
    ], ids=["narrow", "rank-2"])
    def test_shape_errors_name_the_failure(self, shape, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            maxpool2d(Tensor(np.zeros(shape)))

    def test_windows_must_tile(self):
        with pytest.raises(ConfigError, match="must tile"):
            maxpool2d(Tensor(np.zeros((1, 4, 4))), k=2, stride=1)

    def test_window_must_be_a_positive_integer(self):
        x = Tensor(np.zeros((1, 4, 4)))
        with pytest.raises(ConfigError, match="^maxpool2d window must be an integer, got 2.0$"):
            maxpool2d(x, 2.0, 2.0)
        with pytest.raises(ConfigError, match="^maxpool2d window must be >= 1, got 0$"):
            maxpool2d(x, 0, 0)
        with pytest.raises(ConfigError, match="^maxpool2d stride must be an integer, got True$"):
            maxpool2d(x, 1, True)
        with pytest.raises(ConfigError, match="^maxpool2d stride must be an integer, got 2.0$"):
            maxpool2d(x, 2, 2.0)
        assert maxpool2d(x, 2, 2).shape == (1, 2, 2)
        assert maxpool2d(x, np.int64(2), np.int64(2)).shape == (1, 2, 2)

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
            (maxpool2d(x) * Tensor(upstream)).sum().backward()

            def f(arr):
                return float((maxpool2d(Tensor(arr)).data * upstream).sum())

            assert check_gradient(f, x0, x.grad) < 1e-4

    @pytest.mark.parametrize("shape,k,stride", [
        ((2, 3, 63, 63), 2, 2), ((2, 3, 7, 5), 2, 2),
        ((2, 2, 9, 11), 3, 3),
    ])
    def test_matches_window_oracle(self, shape, k, stride):
        rng = np.random.default_rng(8)
        for _ in range(3):
            # Rounding leaves many equal values per window (and signed zeros).
            x0 = np.round(rng.normal(size=shape))
            x = Tensor(x0, requires_grad=True)
            out = maxpool2d(x, k=k, stride=stride)
            upstream = rng.normal(size=out.data.shape)
            (out * Tensor(upstream)).sum().backward()
            ref_out, ref_dx = oracle_maxpool2d(x0, upstream, k, stride)
            # Values compare equal; which of two signed zeros a tie keeps
            # is left to np.maximum, so the forward is not compared as bytes.
            np.testing.assert_array_equal(out.data, ref_out)
            assert x.grad.tobytes() == ref_dx.tobytes()


    @pytest.mark.parametrize("shape", [(2, 3, 8, 6), (2, 3, 7, 9)], ids=["even", "odd"])
    def test_input_gradient_keeps_channels_last_strides(self, shape):
        # conv2d reads its upstream gradient through an NHWC view, which is
        # free only when the gradient has the channels-last strides of its output.
        rng = np.random.default_rng(13)
        n, c, h, w = shape
        x0 = np.ascontiguousarray(rng.normal(size=(n, h, w, c))).transpose(0, 3, 1, 2)
        x = Tensor(x0, requires_grad=True)
        out = maxpool2d(x)
        upstream = rng.normal(size=out.data.shape)
        (out * Tensor(upstream)).sum().backward()
        assert x.grad.strides == x0.strides
        _, ref_dx = oracle_maxpool2d(np.ascontiguousarray(x0), upstream, 2, 2)
        assert x.grad.tobytes() == ref_dx.tobytes()

    def test_nan_window_routes_gradient_to_its_last_element(self):
        # A NaN maximum equals no element; the last tap takes what is left.
        x0 = np.array([[[[1.0, np.nan, 2.0, 0.0], [3.0, 0.5, 1.0, 5.0]]]])
        x = Tensor(x0, requires_grad=True)
        out = maxpool2d(x)
        (out * Tensor(np.array([[[[-2.0, 7.0]]]]))).sum().backward()
        assert np.isnan(out.data[0, 0, 0, 0]) and out.data[0, 0, 0, 1] == 5.0
        assert x.grad.tobytes() == np.array([[[[0.0, 0.0, 0.0, 0.0], [0.0, -2.0, 0.0, 7.0]]]]).tobytes()

    def test_infinite_upstream_reaches_only_the_winner(self):
        x0 = np.array([[[[1.0, 4.0], [3.0, 0.5]], [[0.0, -1.0], [2.0, 9.0]]]])
        x = Tensor(x0, requires_grad=True)
        (maxpool2d(x) * Tensor(np.full((1, 2, 1, 1), -np.inf))).sum().backward()
        expected = np.array([[[[0.0, -np.inf], [0.0, 0.0]], [[0.0, 0.0], [0.0, -np.inf]]]])
        assert x.grad.tobytes() == expected.tobytes()

    def test_pool_then_relu_matches_relu_then_pool(self):
        # relu is monotone, so the SNet's pool -> relu order gives the same
        # bits, forward and backward, as relu -> pool: windows whose maximum
        # is exactly 0 or negative give 0 and pass no gradient either way.
        # Such a window's zero gradient carries the upstream sign, at its
        # winner, which differs between the orders; + 0.0 drops that sign.
        rng = np.random.default_rng(12)
        x0 = np.round(rng.normal(size=(3, 4, 10, 10))) + 0.0  # many zeros, no -0.0
        x0[0, 0, :2, :2] = [[0.0, -1.0], [-2.0, 0.0]]
        x0[0, 1, :2, :2] = [[-1.0, -3.0], [-2.0, -1.0]]
        upstream = rng.normal(size=(3, 4, 5, 5))
        results = []
        for stages in ((maxpool2d, Tensor.relu), (Tensor.relu, maxpool2d)):
            x = Tensor(x0, requires_grad=True)
            out = stages[1](stages[0](x))
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data.tobytes(), (x.grad + 0.0).tobytes()))
        assert results[0] == results[1]


class TestLinear:
    def test_frozen_value(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([0.5]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.5

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
            np.testing.assert_allclose(batched[i], linear(Tensor(xs[i:i + 1]), w, b).data[0],
                                       rtol=1e-12, atol=1e-12)

    def test_feature_mismatch(self):
        with pytest.raises(ShapeError, match="feature axis"):
            linear(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 4))), Tensor(np.zeros(1)))

    def test_single_vector_rejected(self):
        with pytest.raises(ShapeError, match=r"\(B, N\) batch"):
            linear(Tensor(np.zeros(4)), Tensor(np.zeros((1, 4))), Tensor(np.zeros(1)))

    def test_bias_required(self):
        with pytest.raises(TypeError):
            linear(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))

    @pytest.mark.parametrize("w_shape, b_shape, message", [
        ((2, 4), (1,), "linear weight must have shape (1, N), got (2, 4)"),
        ((4,), (1,), "linear weight must have shape (1, N), got (4,)"),
        ((1, 4), (2,), "linear bias must have shape (1,), got (2,)"),
    ], ids=["two-rows", "rank-1", "bias-shape"])
    def test_parameter_shapes_checked(self, w_shape, b_shape, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            linear(Tensor(np.zeros((1, 4))), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))

    def test_constant_input_stays_gradient_free(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        w = Tensor([[0.5, -1.0, 2.0]], requires_grad=True)
        b = Tensor([0.25], requires_grad=True)
        linear(x, w, b).sum().backward()
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, [[3.0, 5.0, 7.0]])
        np.testing.assert_array_equal(b.grad, [2.0])

    def test_gradients_tight(self):
        # Linear map: central differences are exact up to roundoff.
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(1, 64))
        w0 = rng.normal(size=(1, 64))
        b0 = rng.normal(size=1)
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        (linear(x, w, b) * Tensor(np.ones((1, 1)))).sum().backward()

        def f_x(arr):
            return float(linear(Tensor(arr), Tensor(w0), Tensor(b0)).data[0, 0])

        def f_w(arr):
            return float(linear(Tensor(x0), Tensor(arr), Tensor(b0)).data[0, 0])

        assert check_gradient(f_x, x0, x.grad) < 1e-6
        assert check_gradient(f_w, w0, w.grad) < 1e-6
        np.testing.assert_allclose(b.grad, [1.0])


class TestBceLoss:
    def test_frozen_values(self):
        assert bce_loss_mean(Tensor([0.5]), [1]).item() == pytest.approx(np.log(2.0), rel=1e-12)
        assert bce_loss_mean(Tensor([0.9]), [0]).item() == pytest.approx(-np.log(0.1), rel=1e-9)
        assert bce_loss_mean(Tensor([1.0 - 1e-12]), [1]).item() == pytest.approx(1e-12, abs=1e-13)

    def test_clamp_keeps_loss_finite(self):
        loss = bce_loss_mean(Tensor([0.0]), [1])
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_label_domain(self):
        with pytest.raises(DomainError):
            bce_loss_mean(Tensor([0.5]), [2])
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

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError, match="^bce_loss_mean needs at least one probability$"):
            bce_loss_mean(Tensor(np.zeros(0)), [])

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
        bce_loss_mean(p, [1]).backward()
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_sigmoid_chain_matches_closed_form(self):
        # d/dz bce(sigmoid(z), y) = sigmoid(z) - y
        for y in (0, 1):
            z = Tensor([0.7], requires_grad=True)
            bce_loss_mean(z.sigmoid(), [y]).backward()
            s = 1.0 / (1.0 + np.exp(-0.7))
            np.testing.assert_allclose(z.grad, [s - y], rtol=1e-10)
