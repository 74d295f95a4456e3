"""Salience network: a small conv stack over residual features.

Stage order for the default five-layer config (2x2 kernels everywhere
except the final 1x1 projection, 2x2/stride-2 max-pools after the first
three convs, ReLU after every conv except the last):

    conv1 -> pool -> conv2 -> pool -> conv3 -> pool -> conv4 -> conv5(1x1)

The output always has 64 channels; spatial size follows conv/pool floor
arithmetic (64x64 input -> 6x6, 256x256 -> 30x30). Deliberately small:
the receptive field stays local so the classifier scores neighborhood
texture, not global layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .ops import conv2d, maxpool2d
from .tensor import Tensor

IN_CHANNELS = 3
OUT_CHANNELS = 64


@dataclass(frozen=True)
class SNetConfig:
    """Layer plan for the salience network.

    num_conv_layers: total conv layers; the last is always 1x1, the rest 2x2.
    channel_plan: output channels per conv layer; None derives
        (32, 64, 64, ...) of the right length. Must end in 64.
    pool_after: 1-based conv indices followed by a 2x2/stride-2 max-pool.

    Every conv layer carries a per-channel bias.
    """

    num_conv_layers: int = 5
    channel_plan: tuple[int, ...] | None = None
    pool_after: frozenset[int] = frozenset({1, 2, 3})

    def __post_init__(self):
        if self.num_conv_layers < 2:
            raise ConfigError(f"snet needs at least 2 conv layers, got {self.num_conv_layers}")
        plan = self.channel_plan
        if plan is None:
            plan = (32,) + (OUT_CHANNELS,) * (self.num_conv_layers - 1)
        plan = tuple(int(c) for c in plan)
        object.__setattr__(self, "channel_plan", plan)
        if len(plan) != self.num_conv_layers:
            raise ConfigError(
                f"channel_plan length {len(plan)} != num_conv_layers {self.num_conv_layers}"
            )
        if any(c < 1 for c in plan):
            raise ConfigError(f"channel_plan entries must be positive, got {plan}")
        if plan[-1] != OUT_CHANNELS:
            raise ConfigError(f"channel_plan must end in {OUT_CHANNELS}, got {plan[-1]}")
        pool = frozenset(int(i) for i in self.pool_after)
        object.__setattr__(self, "pool_after", pool)
        if any(i < 1 or i > self.num_conv_layers for i in pool):
            raise ConfigError(f"pool_after indices must lie in [1, {self.num_conv_layers}], got {sorted(pool)}")

    def kernel_sizes(self) -> tuple[int, ...]:
        """Per-layer square kernel sizes: 2 everywhere, 1 for the last layer."""
        return (2,) * (self.num_conv_layers - 1) + (1,)

    def layer_shapes(self) -> list[tuple[int, int, int, int]]:
        """Weight shapes (cout, cin, k, k) per conv layer."""
        shapes = []
        cin = IN_CHANNELS
        for cout, k in zip(self.channel_plan, self.kernel_sizes()):
            shapes.append((cout, cin, k, k))
            cin = cout
        return shapes


def snet_param_count(cfg: SNetConfig) -> int:
    """Learnable parameter count from the config alone."""
    return sum(cout * cin * kh * kw + cout for cout, cin, kh, kw in cfg.layer_shapes())


def output_shape(cfg: SNetConfig, h: int, w: int) -> tuple[int, int, int]:
    """(channels, H', W') the network produces for an h x w input.

    Raises ShapeError naming the first stage whose input is too small.
    """
    for i, k in enumerate(cfg.kernel_sizes(), start=1):
        if h < k or w < k:
            raise ShapeError(f"conv layer {i} needs input >= {k}x{k}, got {h}x{w}")
        h, w = h - k + 1, w - k + 1
        if i in cfg.pool_after:
            if h < 2 or w < 2:
                raise ShapeError(f"pool after conv layer {i} needs input >= 2x2, got {h}x{w}")
            h, w = (h - 2) // 2 + 1, (w - 2) // 2 + 1
    return OUT_CHANNELS, h, w


def receptive_field(cfg: SNetConfig) -> int:
    """Side length of one output unit's input footprint, computed
    analytically from kernel sizes and strides."""
    rf, jump = 1, 1
    for i, k in enumerate(cfg.kernel_sizes(), start=1):
        rf += (k - 1) * jump
        if i in cfg.pool_after:
            rf += (2 - 1) * jump
            jump *= 2
    return rf


class SNet:
    """Conv stack with parameters initialized from ``rng`` (He normal)."""

    def __init__(self, cfg: SNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.layers: list[tuple[Tensor, Tensor]] = []
        for cout, cin, kh, kw in cfg.layer_shapes():
            scale = np.sqrt(2.0 / (cin * kh * kw))
            w = Tensor(rng.normal(0.0, scale, size=(cout, cin, kh, kw)), requires_grad=True)
            self.layers.append((w, Tensor(np.zeros(cout), requires_grad=True)))

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer]

    def forward(self, x: Tensor) -> Tensor:
        """Run the stack on residual features (CxHxW or NxCxHxW)."""
        if x.data.ndim not in (3, 4):
            raise ShapeError(f"snet input must be CxHxW or NxCxHxW, got rank {x.data.ndim}")
        if x.data.shape[-3] != IN_CHANNELS:
            raise ShapeError(f"snet expects {IN_CHANNELS} input channels, got {x.data.shape[-3]}")
        # Chase shapes up front so a too-small input names the failing stage
        # instead of dying mid-stack.
        output_shape(self.cfg, x.data.shape[-2], x.data.shape[-1])
        n_layers = self.cfg.num_conv_layers
        for i, (w, b) in enumerate(self.layers, start=1):
            x = conv2d(x, w, b)
            if i < n_layers:
                x = x.relu()
            if i in self.cfg.pool_after:
                x = maxpool2d(x, k=2, stride=2)
        return x
