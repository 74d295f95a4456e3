"""Autograd engine: values, gradients, and graph bookkeeping."""

import contextlib
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from localfocus import (NprConfig, ShapeError, StateError, Tensor, TkpConfig, bce_loss_mean, conv2d,
                        gap_pool, gmp_pool, linear, maxpool2d, npr_extract, tkp_pool)
from localfocus.gradcheck import check_gradient
from localfocus.tensor import buffer, reuse_buffers


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

    def test_backward_from_a_root_that_needs_no_gradient_is_refused(self):
        # Without requires_grad=True on a, no leaf would get a gradient.
        a = Tensor([1.0, 2.0])
        with pytest.raises(StateError, match=r"^backward\(\) needs a root that requires a gradient$"):
            (a * 2.0).sum().backward()
        assert a.grad is None


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

    def test_mul_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"^mul needs matching shapes, got \(2,\) and \(3,\)$"):
            Tensor([1.0, 2.0]) * Tensor([1.0, 2.0, 3.0])

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
        # add hands one input the upstream array and the other a copy:
        # neither gradient may alias the other, nor the caller's array.
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        up = np.array([1.0, 2.0, 3.0])
        ((a + b) * Tensor(up)).sum().backward()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(up, [1.0, 2.0, 3.0])

    def test_fresh_first_gradient_is_adopted(self):
        a = Tensor(np.ones(3), requires_grad=True)
        fresh = np.array([1.0, 2.0, 3.0])
        Tensor._wrap(a.data.copy(), (a,), lambda g: (fresh,)).sum().backward()
        assert a.grad is fresh

    def test_gap_pool_gradient_is_a_writeable_copy(self):
        # One value per map, written out: no read-only broadcast view.
        x = Tensor(np.zeros((2, 3, 4, 4)), requires_grad=True)
        gap_pool(x).sum().backward()
        assert x.grad.flags.writeable and 0 not in x.grad.strides
        x.grad[0, 0, 0, 0] += 1.0
        assert x.grad[0, 0, 0, 1] == 1.0 / 16

    @pytest.mark.parametrize("start", ["root", "interior"])
    def test_second_backward_is_refused(self, start):
        a = Tensor([1.0, 2.0], requires_grad=True)
        y = (a * a).sum()
        z = y * 3.0
        (y if start == "root" else z).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 4.0] if start == "root" else [6.0, 12.0])
        before = a.grad.copy()
        with pytest.raises(StateError, match="already released") as err:
            y.backward()
        assert err.value.index is None
        np.testing.assert_array_equal(a.grad, before)
        assert y.grad is None

    def test_a_walk_that_reaches_a_released_node_is_refused(self):
        # A second root sharing t with a walked graph would lose t's share:
        # [6, 12] is due, and a silent walk left [2, 4].
        a = Tensor([1.0, 2.0], requires_grad=True)
        t = a * a
        t.sum().backward()
        with pytest.raises(StateError, match="already released"):
            (t * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])

    @pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a * b,
                                    lambda a, b: b + a, lambda a, b: b * a],
                             ids=["add", "mul", "add-reversed", "mul-reversed"])
    def test_constant_operand_stays_gradient_free(self, op):
        a = Tensor([2.0, -3.0], requires_grad=True)
        b = Tensor([5.0, 7.0])
        op(a, b).sum().backward()
        assert a.grad is not None and b.grad is None

    def test_backward_keeps_gradients_only_on_leaves(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        doubled = x * 2.0
        doubled.sum().backward()
        assert doubled.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

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

    def test_backward_leaves_an_interleaved_graph_alone(self):
        # The sibling's nodes are made between the root graph's nodes, so
        # their stamps fall inside the range the walk runs over.
        a = Tensor([2.0, -1.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        h = a * 3.0
        s1 = b * 5.0
        g = h.relu()
        s2 = s1 * s1
        y = (g + a).sum()
        s3 = s2.sum()
        y.backward()
        np.testing.assert_array_equal(a.grad, [4.0, 1.0])
        assert b.grad is None
        for node in (s1, s2, s3):
            assert node._backward is not None and node._parents
        s3.backward()
        np.testing.assert_array_equal(b.grad, [150.0])  # d(25 b^2)/db at b = 3

    def test_three_consumers_sum_every_contribution(self):
        a = Tensor([1.5, -2.0], requires_grad=True)
        h = a * 2.0  # [3, -4]
        (h * 3.0 + h * 5.0 + h.relu()).sum().backward()
        # dy/dh = 3 + 5 + [h > 0], and dy/da = 2 dy/dh.
        np.testing.assert_array_equal(a.grad, [2.0 * (3.0 + 5.0 + 1.0), 2.0 * (3.0 + 5.0 + 0.0)])

    def test_graphs_built_in_threads_at_once_walk_alone(self):
        # Stamps come from one counter, so graphs built at once interleave theirs.
        def chain(seed):
            x = Tensor(np.random.default_rng(seed).normal(size=8), requires_grad=True)
            h = x
            for _ in range(30):
                h = (h * 0.5 + x).relu()
            h.sum().backward()
            return x.grad

        expect = [chain(seed) for seed in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = [f.result(timeout=120) for f in [pool.submit(chain, seed) for seed in range(16)]]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expect):
            np.testing.assert_array_equal(a, b)

    def test_no_grad_inputs_build_no_graph(self):
        a = Tensor([1.0])
        out = a.relu()
        assert out._backward is None and out._parents == ()
        assert not out.requires_grad


def leaf(*shape):
    return Tensor(np.random.default_rng(5).standard_normal(shape), requires_grad=True)


def conv(x, cout=4, k=3, **kw):
    return conv2d(x, leaf(cout, x.shape[-3], k, k), leaf(cout), **kw)


OPS = {
    "add": lambda: leaf(2, 3) + leaf(2, 3),
    "add-self": lambda: (lambda x: x + x)(leaf(2, 3)),
    "mul": lambda: leaf(2, 3) * leaf(2, 3),
    "mul-self": lambda: (lambda x: x * x)(leaf(2, 3)),
    "mul-scalar": lambda: leaf(2, 3) * 2.5,
    "mul-0d": lambda: leaf() * leaf(),
    "mul-scalar-0d": lambda: leaf() * 2.5,
    "sub": lambda: leaf(2, 3) - leaf(2, 3),
    "sum": lambda: leaf(2, 3).sum(),
    "sum-0d": lambda: leaf().sum(),
    "sigmoid": lambda: leaf(2, 3).sigmoid(),
    "sigmoid-0d": lambda: leaf().sigmoid(),
    "abs": lambda: leaf(2, 3).abs(),
    "abs-0d": lambda: leaf().abs(),
    "relu": lambda: leaf(2, 3).relu(),
    "relu-0d": lambda: leaf().relu(),
    "npr-abs": lambda: npr_extract(leaf(2, 3, 4, 4), NprConfig(take_abs=True)),
    "npr-signed": lambda: npr_extract(leaf(2, 3, 4, 4), NprConfig(take_abs=False)),
    "conv-3d": lambda: conv(leaf(3, 6, 6)),
    "conv-4d": lambda: conv(leaf(2, 3, 6, 6)),
    "conv-channels-last": lambda: conv(Tensor(leaf(2, 6, 6, 3).data.transpose(0, 3, 1, 2), requires_grad=True)),
    "conv-stride2-pad1": lambda: conv(leaf(2, 3, 7, 7), stride=2, padding=1),
    "maxpool": lambda: maxpool2d(leaf(2, 3, 4, 4)),
    "linear": lambda: linear(leaf(4, 6), leaf(1, 6), leaf(1)),
    "bce": lambda: bce_loss_mean(Tensor(np.linspace(0.1, 0.9, 5), requires_grad=True), [0, 1, 1, 0, 1]),
    "tkp-rbld-rks": lambda: tkp_pool(leaf(2, 3, 4, 4), TkpConfig(k=3), np.random.default_rng(7)),
    "gap": lambda: gap_pool(leaf(2, 3, 4, 4)),
    "gmp": lambda: gmp_pool(leaf(2, 3, 4, 4)),
}


class TestGradientOwnership:
    """Each vjp gives every input that needs a gradient an array of its own:
    the rule in ``tensor``'s module docstring that lets ``_accumulate``
    adopt a first gradient as is."""

    @pytest.mark.parametrize("op", OPS.values(), ids=OPS.keys())
    def test_every_vjp_hands_out_arrays_it_owns(self, op, monkeypatch):
        calls, wrap = [], Tensor._wrap

        def capture(data, parents, vjp):
            out = wrap(data, parents, vjp)
            calls.append((out, parents, vjp))
            return out

        monkeypatch.setattr(Tensor, "_wrap", staticmethod(capture))
        op()
        assert calls
        for out, parents, vjp in calls:
            g = np.random.default_rng(8).standard_normal(out.shape)
            grads = [(p, np.asarray(d)) for p, d in zip(parents, vjp(g)) if p.requires_grad]
            assert grads and sum(d is g for _, d in grads) <= 1
            for i, (p, d) in enumerate(grads):
                assert isinstance(d, np.ndarray) and d.dtype == np.float64 and d.shape == p.shape
                assert d.flags.writeable
                others = [e for j, (_, e) in enumerate(grads) if j != i] + [q.data for q in parents]
                assert not any(np.shares_memory(d, o) for o in others + [out.data])


class TestNonlinearities:
    def test_sigmoid_values(self):
        x = Tensor([0.0, np.log(3.0)])
        np.testing.assert_allclose(x.sigmoid().data, [0.5, 0.75], atol=1e-15)

    def test_sigmoid_saturation_clamped(self):
        lo = Tensor([-800.0]).sigmoid().data[0]
        hi = Tensor([800.0]).sigmoid().data[0]
        assert lo == 1e-12
        assert hi == 1.0 - 1e-12

    def test_sigmoid_matches_the_two_branch_formula(self):
        # Reference: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere,
        # then the clamp; the bytes must be equal.
        edges = [0.0, 5e-324, 27.6, 36.7, 800.0, 1e308, np.inf]
        x = np.concatenate([edges, np.negative(edges), np.random.default_rng(3).normal(0, 30, 1000)])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        ref[~pos] = ez / (1.0 + ez)
        np.clip(ref, 1e-12, 1.0 - 1e-12, out=ref)
        assert Tensor(x).sigmoid().data.tobytes() == ref.tobytes()
        assert np.isnan(Tensor([np.nan]).sigmoid().data).all()

    def test_sigmoid_gradient(self):
        x = Tensor([0.3, -1.2], requires_grad=True)
        out = x.sigmoid()
        (out * Tensor(np.ones(2))).sum().backward()
        s = out.data
        np.testing.assert_allclose(x.grad, s * (1 - s), rtol=1e-12)

    def test_abs_values_and_subgradient(self):
        x = Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        out = x.abs()
        np.testing.assert_array_equal(out.data, [2.0, 0.0, 3.0])
        (out * Tensor(np.ones(3))).sum().backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_relu_values_and_subgradient(self):
        x = Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        out = x.relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])
        (out * Tensor(np.ones(3))).sum().backward()
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
            (out * Tensor(weights)).sum().backward()
            assert check_gradient(f, x0, x.grad) < 1e-4


class TestBufferReuse:
    def test_outside_a_block_buffers_are_fresh(self):
        a, b = buffer((4, 5)), buffer((4, 5))
        assert not np.may_share_memory(a, b)

    def test_a_block_gets_back_what_the_last_block_drew(self):
        with reuse_buffers():
            a, b = buffer((4, 5)), buffer((4, 5))
        with reuse_buffers():
            again = [buffer((4, 5)), buffer((4, 5))]
        assert {id(x) for x in again} == {id(a), id(b)}

    def test_a_block_of_another_shape_drops_the_old_buffers(self):
        with reuse_buffers():
            old = weakref.ref(buffer((4, 5)))
        with reuse_buffers():
            buffer((5, 4))
        assert old() is None

    def test_each_draw_reuses_the_array_drawn_at_its_position(self):
        with reuse_buffers():
            a, b = buffer((4, 5)), buffer((3, 2))
            b_ref = weakref.ref(b)
            del b
        with reuse_buffers():
            again, c = buffer((4, 5)), buffer((2, 3))
        assert again is a
        assert c.shape == (2, 3) and not np.may_share_memory(c, a)
        assert b_ref() is None

    def test_the_first_differing_draw_frees_the_rest_at_once(self):
        with reuse_buffers():
            a = buffer((4, 5))
            rest = [weakref.ref(buffer((3, 2))), weakref.ref(buffer((3, 2)))]
        with reuse_buffers():
            assert buffer((4, 5)) is a
            assert all(r() is not None for r in rest)
            buffer((2, 3))
            assert all(r() is None for r in rest)

    def test_a_draw_of_another_layout_is_fresh(self):
        c_order = np.empty((2, 3, 5, 4))
        channels_last = np.empty((2, 5, 4, 3)).transpose(0, 3, 1, 2)
        with reuse_buffers():
            first = buffer(c_order)
        with reuse_buffers():
            second = buffer(channels_last)
        assert not np.may_share_memory(first, second)
        assert second.strides == np.empty_like(channels_last).strides

    def test_each_thread_keeps_its_own_buffers(self):
        with reuse_buffers():
            a = buffer((4, 5))

        def other_thread():
            with reuse_buffers():
                return buffer((4, 5))

        with ThreadPoolExecutor(1) as pool:
            b = pool.submit(other_thread).result(timeout=60)
        assert b is not a
        with reuse_buffers():
            assert buffer((4, 5)) is a

    @pytest.mark.parametrize("like", [
        np.empty((2, 3, 4, 5)),
        np.empty((2, 5, 4, 3)).transpose(0, 3, 1, 2),
        np.empty((2, 6, 8, 3)).transpose(0, 3, 1, 2)[:, :, 0:6:2, 0:8:2],  # maxpool2d's first tap
    ], ids=["c-order", "channels-last", "stride-2-tap"])
    def test_like_keeps_the_axis_order(self, like):
        for reuse in (False, True, True):
            with reuse_buffers() if reuse else contextlib.nullcontext():
                b = buffer(like)
            assert b.shape == like.shape and b.strides == np.empty_like(like).strides

    def test_each_dtype_keeps_its_own_buffers(self):
        with reuse_buffers():
            a = buffer((4, 5))
        with reuse_buffers():
            b = buffer((4, 5), np.float32)
        assert a.dtype == np.float64 and b.dtype == np.float32
        with reuse_buffers():
            assert buffer((4, 5)) is a
        with reuse_buffers():
            assert buffer((4, 5), np.float32) is b

    def test_a_float32_shape_draw_never_returns_a_float64_array(self):
        kept = np.empty((4, 5))
        for _ in range(2):
            with reuse_buffers():
                drawn = [buffer((4, 5), np.float32), buffer(kept)]
            assert [a.dtype for a in drawn] == [np.float32, np.float64]
            assert not any(np.shares_memory(a, kept) for a in drawn)

    def test_a_mirrored_draw_of_another_dtype_is_fresh(self):
        wide = np.empty((4, 5))
        narrow = np.empty((4, 10), dtype=np.float32)[:, ::2]  # wide's shape and strides
        assert narrow.shape == wide.shape and narrow.strides == wide.strides
        with reuse_buffers():
            first = buffer(wide)
        with reuse_buffers():
            second = buffer(narrow)
        assert second.dtype == np.float32 and not np.shares_memory(first, second)


class TestDtypes:
    @pytest.mark.parametrize("data", [np.zeros(3, dtype=np.float32), np.float32(2.5)])
    def test_float32_data_stays_float32(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float32 and t.data.shape == np.shape(data)

    @pytest.mark.parametrize("data", [[1, 2, 3], np.arange(3, dtype=np.int32), np.zeros(3, dtype=np.float16),
                                      np.zeros(3, dtype=np.longdouble), True])
    def test_anything_else_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    def test_a_float32_input_stays_float32_with_no_block_open(self):
        # Every op draws in its input's dtype, inside a reuse block or not.
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32))
        outs = {"npr": npr_extract(x, NprConfig(take_abs=True)),
                "npr-signed": npr_extract(x, NprConfig(take_abs=False)),
                "maxpool2d": maxpool2d(x), "relu": x.relu(), "abs": x.abs(),
                "tkp_pool": tkp_pool(x, TkpConfig(k=4))[0], "gap_pool": gap_pool(x), "gmp_pool": gmp_pool(x)}
        assert {name: out.data.dtype for name, out in outs.items()} == dict.fromkeys(outs, np.float32)

    def test_a_float32_graph_is_not_walked(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        root = (x * 2.0).sum()
        with pytest.raises(StateError, match=r"^backward\(\) reached a float32 node; only float64 graphs are walked$"):
            root.backward()
        assert x.grad is None
