"""Residual feature extraction: values, invariances, gradients."""

import numpy as np
import pytest

from localfocus import NprConfig, ShapeError, Tensor, npr_extract
from localfocus.gradcheck import check_gradient


def _img(arr):
    """Replicate a 2-D array across 3 channels."""
    return np.repeat(np.asarray(arr, dtype=np.float64)[None], 3, axis=0)


def dense_adjoint(x0, cfg, upstream):
    """Adjoint oracle from the dense Jacobian: the signed residual is
    linear, so feeding every basis image through it gives the Jacobian's
    columns; |.| then multiplies by the residual's sign."""
    signed = NprConfig(take_abs=False)
    basis = np.eye(x0.size).reshape(-1, *x0.shape)
    columns = npr_extract(Tensor(basis), signed).data.reshape(x0.size, x0.size)
    g = upstream * np.sign(npr_extract(Tensor(x0), signed).data) if cfg.take_abs else upstream
    return (columns @ g.reshape(-1)).reshape(x0.shape)


class TestConfig:
    def test_defaults(self):
        assert NprConfig().take_abs is True


class TestForward:
    def test_worked_2x2_example(self):
        # window [[a, b], [c, d]], anchor top-left: residual [[0, b-a], [c-a, d-a]]
        x = _img([[0.2, 0.7], [0.4, 0.9]])
        out = npr_extract(Tensor(x), NprConfig(take_abs=False))
        np.testing.assert_allclose(out.data[0], [[0.0, 0.5], [0.2, 0.7]], atol=1e-15)

    def test_take_abs(self):
        x = _img([[0.9, 0.1], [0.5, 0.2]])
        signed = npr_extract(Tensor(x), NprConfig(take_abs=False)).data
        absd = npr_extract(Tensor(x), NprConfig(take_abs=True)).data
        np.testing.assert_array_equal(absd, np.abs(signed))

    def test_anchor_positions_are_zero(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 8, 8))
        out = npr_extract(Tensor(x)).data
        np.testing.assert_array_equal(out[:, ::2, ::2], 0.0)

    def test_constant_image_gives_zero(self):
        out = npr_extract(Tensor(np.full((3, 6, 6), 0.37)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_block_replicated_image_gives_zero(self):
        # An image that is exactly 2x-upsampled from anchor positions has
        # no residual anywhere.
        rng = np.random.default_rng(1)
        small = rng.random((3, 4, 4))
        blocky = small.repeat(2, axis=1).repeat(2, axis=2)
        out = npr_extract(Tensor(blocky)).data
        np.testing.assert_array_equal(out, 0.0)

    def test_linearity_without_abs(self):
        rng = np.random.default_rng(2)
        cfg = NprConfig(take_abs=False)
        a, b = rng.random((3, 6, 6)), rng.random((3, 6, 6))
        lhs = npr_extract(Tensor(2.0 * a + 3.0 * b), cfg).data
        rhs = 2.0 * npr_extract(Tensor(a), cfg).data + 3.0 * npr_extract(Tensor(b), cfg).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_divisibility_required(self):
        with pytest.raises(ShapeError, match="even, got 5x6"):
            npr_extract(Tensor(np.zeros((3, 5, 6))))
        with pytest.raises(ShapeError, match="even, got 6x5"):
            npr_extract(Tensor(np.zeros((3, 6, 5))))
        with pytest.raises(ShapeError, match="even, got 7x7"):
            npr_extract(Tensor(np.zeros((2, 3, 7, 7))))

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            npr_extract(Tensor(np.zeros((6, 6))))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        xs = rng.random((4, 3, 6, 6))
        batched = npr_extract(Tensor(xs)).data
        for i in range(4):
            np.testing.assert_array_equal(batched[i], npr_extract(Tensor(xs[i])).data)


class TestGradient:
    def test_all_ones_upstream_window2(self):
        # Non-anchor pixels pass 1; anchors collect 1 - 2*2 = -3.
        x = Tensor(_img([[0.1, 0.2], [0.3, 0.4]]), requires_grad=True)
        npr_extract(x, NprConfig(take_abs=False)).backward(np.ones(x.shape))
        np.testing.assert_array_equal(x.grad[0], [[-3.0, 1.0], [1.0, 1.0]])

    def test_matches_autograd_backward(self):
        rng = np.random.default_rng(4)
        x0 = rng.random((3, 6, 6))
        upstream = rng.normal(size=(3, 6, 6))
        for cfg in (NprConfig(take_abs=False), NprConfig(take_abs=True)):
            t = Tensor(x0, requires_grad=True)
            npr_extract(t, cfg).backward(upstream)
            np.testing.assert_allclose(t.grad, dense_adjoint(x0, cfg, upstream),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("take_abs", [False, True])
    def test_finite_difference(self, take_abs):
        rng = np.random.default_rng(5)
        cfg = NprConfig(take_abs=take_abs)
        for _ in range(5):
            # Distinct well-separated values keep |residual| away from its kink.
            x0 = rng.permuted(np.linspace(0.0, 1.0, 108)).reshape(3, 6, 6)
            upstream = rng.normal(size=(3, 6, 6))
            t = Tensor(x0, requires_grad=True)
            npr_extract(t, cfg).backward(upstream)

            def f(arr):
                return float((npr_extract(Tensor(arr), cfg).data * upstream).sum())

            assert check_gradient(f, x0, t.grad) < 1e-4

    def test_upstream_shape_checked(self):
        with pytest.raises(ShapeError):
            npr_extract(Tensor(np.zeros((3, 4, 4)), requires_grad=True),
                        NprConfig()).backward(np.zeros((3, 2, 2)))
