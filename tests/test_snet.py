"""Salience network: config law, shape chase, parameter math, determinism."""

import numpy as np
import pytest

from localfocus import (ConfigError, ShapeError, SNet, SNetConfig, Tensor,
                        output_shape, receptive_field, snet_param_count)


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

    def test_derived_plan_for_other_depths(self):
        assert SNetConfig(num_conv_layers=4).channel_plan == (32, 64, 64, 64)
        assert SNetConfig(num_conv_layers=7).channel_plan == (32,) + (64,) * 6

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
        with pytest.raises(ShapeError, match="conv layer 4"):
            output_shape(cfg, 16, 16)
        net = SNet(cfg, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="conv layer 4"):
            net.forward(Tensor(np.zeros((3, 16, 16))))

    def test_output_channels_fixed_at_64(self):
        for cfg in (SNetConfig(), SNetConfig(num_conv_layers=4),
                    SNetConfig(num_conv_layers=6, channel_plan=(8, 16, 16, 32, 32, 64))):
            assert output_shape(cfg, 64, 64)[0] == 64

    def test_wrong_input_channels(self):
        net = SNet(SNetConfig(), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="channels"):
            net.forward(Tensor(np.zeros((1, 64, 64))))


class TestParamCount:
    def test_default_closed_form(self):
        # 32*3*4+32 + 64*32*4+64 + 2*(64*64*4+64) + 64*64+64
        assert snet_param_count(SNetConfig()) == 45728

    def test_matches_brute_enumeration(self):
        for cfg in (SNetConfig(), SNetConfig(num_conv_layers=4),
                    SNetConfig(num_conv_layers=6, channel_plan=(8, 8, 16, 32, 64, 64))):
            net = SNet(cfg, np.random.default_rng(1))
            assert snet_param_count(cfg) == sum(p.data.size for p in net.parameters())


class TestReceptiveField:
    def test_default_ordering(self):
        # conv2-pool-conv2-pool-conv2-pool-conv2-conv1 grows 1,1 | 2,2 | 4,4 | 8 | 0
        assert receptive_field(SNetConfig()) == 23

    def test_no_pools_is_sum_of_kernel_growth(self):
        # Stride-1 convs only: rf = 1 + sum(k_i - 1) = 1 + 1 + 1 + 0 = 3.
        cfg = SNetConfig(num_conv_layers=3, channel_plan=(8, 8, 64), pool_after=frozenset())
        assert receptive_field(cfg) == 3

    def test_small_cases_by_hand(self):
        # Single 2x2 conv then 1x1: rf 2.
        cfg = SNetConfig(num_conv_layers=2, channel_plan=(8, 64), pool_after=frozenset())
        assert receptive_field(cfg) == 2
        # 2x2 conv, 2x2 pool, 1x1 conv: rf 3.
        cfg = SNetConfig(num_conv_layers=2, channel_plan=(8, 64), pool_after=frozenset({1}))
        assert receptive_field(cfg) == 3

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
        net = SNet(SNetConfig(num_conv_layers=4), rng)
        xs = rng.random((3, 3, 32, 32))
        batched = net.forward(Tensor(xs)).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], net.forward(Tensor(xs[i])).data,
                                       rtol=1e-12, atol=1e-12)

    def test_gradients_reach_all_layers(self):
        rng = np.random.default_rng(7)
        net = SNet(SNetConfig(num_conv_layers=4), rng)
        out = net.forward(Tensor(rng.random((3, 32, 32))))
        out.sum().backward()
        for p in net.parameters():
            assert p.grad is not None
            assert p.grad.shape == p.data.shape
            assert np.any(p.grad != 0.0)
