"""Salience network: config law, shape chase, parameter math, determinism."""

import re

import numpy as np
import pytest

from localfocus import ConfigError, ShapeError, SNet, SNetConfig, Tensor
from localfocus.snet import output_shape, snet_param_count


def walk_shapes(cfg: SNetConfig, h: int, w: int) -> list[tuple[int, int]]:
    """Independent stage-by-stage shape chase (conv k valid, pool 2/2)."""
    sizes = [(h, w)]
    kernels = [2] * (cfg.num_conv_layers - 1) + [1]
    for i, k in enumerate(kernels, start=1):
        h, w = h - k + 1, w - k + 1
        sizes.append((h, w))
        if i in cfg.pool_after:
            h, w = (h - 2) // 2 + 1, (w - 2) // 2 + 1
            sizes.append((h, w))
    return sizes


class TestConfig:
    def test_default_plan(self):
        cfg = SNetConfig()
        assert cfg.channel_plan == (32, 64, 64, 64, 64)
        assert cfg.kernel_sizes() == (2, 2, 2, 2, 1)
        assert cfg.pool_after == frozenset({1, 2, 3})

    def test_plan_alone_sets_the_depth(self):
        cfg = SNetConfig(channel_plan=(8, 16, 64), pool_after=frozenset({1, 2}))
        assert cfg.num_conv_layers == 3 and cfg.kernel_sizes() == (2, 2, 1)
        assert cfg == SNetConfig(num_conv_layers=3, channel_plan=(8, 16, 64), pool_after=frozenset({1, 2}))
        assert SNetConfig(channel_plan=(32,) + (64,) * 6).num_conv_layers == 7
        assert SNetConfig().num_conv_layers == 5

    def test_one_entry_plan_is_too_shallow(self):
        with pytest.raises(ConfigError, match="^snet needs at least 2 conv layers, got 1$"):
            SNetConfig(channel_plan=(64,))

    def test_plan_must_end_in_64(self):
        with pytest.raises(ConfigError):
            SNetConfig(num_conv_layers=3, channel_plan=(32, 64, 32))

    def test_plan_length_must_match(self):
        with pytest.raises(ConfigError):
            SNetConfig(num_conv_layers=5, channel_plan=(32, 64, 64))

    def test_pool_indices_bounded(self):
        with pytest.raises(ConfigError):
            SNetConfig(pool_after=frozenset({0}))
        with pytest.raises(ConfigError):
            SNetConfig(pool_after=frozenset({6}))

    def test_positive_channels(self):
        with pytest.raises(ConfigError):
            SNetConfig(num_conv_layers=2, channel_plan=(0, 64))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(num_conv_layers=3.0, channel_plan=(8, 16, 64)), "num_conv_layers must be an integer, got 3.0"),
        (dict(num_conv_layers=3, channel_plan=(8.7, 16, 64)), "channel_plan entry must be an integer, got 8.7"),
        (dict(pool_after={1.5}), "pool_after entry must be an integer, got 1.5"),
        (dict(num_conv_layers=True, channel_plan=(8, 16, 64)), "num_conv_layers must be an integer, got True"),
        (dict(channel_plan=(True, 16, 64)), "channel_plan entry must be an integer, got True"),
        (dict(channel_plan=None), "channel_plan must be a collection of integers, got None"),
        (dict(pool_after=None), "pool_after must be a collection of integers, got None"),
        (dict(pool_after=1), "pool_after must be a collection of integers, got 1"),
        (dict(channel_plan=np.array(1)), r"channel_plan must be a collection of integers, got array\(1\)"),
        (dict(pool_after=np.array(1)), r"pool_after must be a collection of integers, got array\(1\)"),
    ], ids=["depth", "channel-plan", "pool-after", "depth-bool", "channel-plan-bool",
            "channel-plan-none", "pool-after-none", "pool-after-scalar",
            "channel-plan-0d-array", "pool-after-0d-array"])
    def test_non_integer_settings_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SNetConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SNetConfig(num_conv_layers=np.int64(3), channel_plan=np.array([8, 16, 64]),
                         pool_after={np.int32(1)})
        assert cfg.channel_plan == (8, 16, 64) and cfg.pool_after == frozenset({1})


class TestShapes:
    def test_default_64_chain(self):
        cfg = SNetConfig()
        chain = walk_shapes(cfg, 64, 64)
        assert chain == [(64, 64), (63, 63), (31, 31), (30, 30), (15, 15),
                         (14, 14), (7, 7), (6, 6), (6, 6)]
        assert output_shape(cfg, 64, 64) == (64, 6, 6)

    def test_default_256(self):
        assert output_shape(SNetConfig(), 256, 256) == (64, 30, 30)

    @pytest.mark.parametrize("h,w", [(32, 32), (64, 96), (80, 64), (256, 256)])
    def test_matches_independent_walk(self, h, w):
        cfg = SNetConfig()
        assert output_shape(cfg, h, w)[1:] == walk_shapes(cfg, h, w)[-1]

    def test_forward_shape_agrees(self):
        rng = np.random.default_rng(0)
        cfg = SNetConfig()
        net = SNet(cfg, rng)
        out = net.forward(Tensor(rng.random((3, 64, 64))))
        assert out.data.shape == output_shape(cfg, 64, 64)

    def test_too_small_input_names_stage(self):
        cfg = SNetConfig()
        assert output_shape(cfg, 16, 16) is None
        net = SNet(cfg, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="conv layer 4"):
            net.forward(Tensor(np.zeros((3, 16, 16))))

    def test_output_channels_fixed_at_64(self):
        for cfg in (SNetConfig(), SNetConfig(channel_plan=(32, 64, 64, 64)),
                    SNetConfig(num_conv_layers=6, channel_plan=(8, 16, 16, 32, 32, 64))):
            assert output_shape(cfg, 64, 64)[0] == 64

    def test_wrong_input_channels(self):
        net = SNet(SNetConfig(), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="channels"):
            net.forward(Tensor(np.zeros((1, 64, 64))))

    @pytest.mark.parametrize("shape, message", [
        ((1, 64, 64), "conv layer 1: conv2d channel axis mismatch: input has 1 channels, weight expects 3"),
        ((64, 64), "conv layer 1: conv2d input must be CxHxW or NxCxHxW, got rank 2"),
        ((3, 6, 6), "conv layer 2: maxpool2d height axis too small: extent 1 < window 2"),
        ((3, 64, 16), "conv layer 4: conv2d width axis too small: padded extent 1 < kernel 2"),
    ], ids=["channels", "rank", "pool", "conv"])
    def test_an_op_refusal_names_its_conv_layer(self, shape, message):
        net = SNet(SNetConfig(), np.random.default_rng(0))
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            net.forward(Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("h, w", [(16, 16), (64, 16), (6, 6), (64, 6)],
                             ids=["conv", "conv-width", "pool", "pool-width"])
    def test_output_shape_is_none_where_a_stage_gets_too_little(self, h, w):
        # 16 px leaves conv4 a 1x1 input; 6 px leaves pool2 a 1x1 input.
        assert output_shape(SNetConfig(), h, w) is None

    @pytest.mark.parametrize("cfg", [SNetConfig(), SNetConfig(channel_plan=(8, 64), pool_after=frozenset())],
                             ids=["default", "two-layer-no-pool"])
    def test_output_shape_agrees_with_the_ops_at_every_small_size(self, cfg):
        net = SNet(cfg, np.random.default_rng(0))
        for side in range(1, 34):
            try:
                got = net.forward(Tensor(np.zeros((3, side, 24)))).data.shape
            except ShapeError:
                got = None
            assert output_shape(cfg, side, 24) == got, side


class TestParamCount:
    def test_default_closed_form(self):
        # 32*3*4+32 + 64*32*4+64 + 2*(64*64*4+64) + 64*64+64
        assert snet_param_count(SNetConfig()) == 45728

    def test_matches_brute_enumeration(self):
        for cfg in (SNetConfig(), SNetConfig(channel_plan=(32, 64, 64, 64)),
                    SNetConfig(num_conv_layers=6, channel_plan=(8, 8, 16, 32, 64, 64))):
            net = SNet(cfg, np.random.default_rng(1))
            assert snet_param_count(cfg) == sum(p.data.size for p in net.parameters())


class TestReceptiveField:
    def test_output_is_locally_determined(self):
        # Changing one input pixel far from an output unit's footprint
        # must not change that unit.
        rng = np.random.default_rng(2)
        cfg = SNetConfig()
        net = SNet(cfg, rng)
        base = rng.random((3, 64, 64))
        out0 = net.forward(Tensor(base)).data
        bumped = base.copy()
        bumped[:, 60, 60] += 0.5  # outside the 23x23 footprint of unit (0, 0)
        out1 = net.forward(Tensor(bumped)).data
        assert out1[:, 0, 0] == pytest.approx(out0[:, 0, 0], abs=1e-15)
        assert not np.allclose(out1, out0)


class TestForward:
    def test_deterministic_given_seed(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        x = np.random.default_rng(4).random((3, 32, 32))
        out_a = SNet(SNetConfig(), rng_a).forward(Tensor(x)).data
        out_b = SNet(SNetConfig(), rng_b).forward(Tensor(x)).data
        np.testing.assert_array_equal(out_a, out_b)

    def test_zero_input_zero_bias_gives_zero_maps(self):
        net = SNet(SNetConfig(), np.random.default_rng(5))
        for _, b in net.layers:
            b.data = np.zeros_like(b.data)
        out = net.forward(Tensor(np.zeros((3, 64, 64))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(6)
        net = SNet(SNetConfig(channel_plan=(32, 64, 64, 64)), rng)
        xs = rng.random((3, 3, 32, 32))
        batched = net.forward(Tensor(xs)).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], net.forward(Tensor(xs[i])).data,
                                       rtol=1e-12, atol=1e-12)

    def test_gradients_reach_all_layers(self):
        rng = np.random.default_rng(7)
        net = SNet(SNetConfig(channel_plan=(32, 64, 64, 64)), rng)
        out = net.forward(Tensor(rng.random((3, 32, 32))))
        out.sum().backward()
        for p in net.parameters():
            assert p.grad is not None
            assert p.grad.shape == p.data.shape
            assert np.any(p.grad != 0.0)
