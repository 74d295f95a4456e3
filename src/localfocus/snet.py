"""Salience network: a small conv stack over residual features.

Stage order for the default five-layer config (2x2 kernels everywhere
except the final 1x1 projection, 2x2/stride-2 max-pools after the first
three convs, ReLU after every conv except the last):

    conv1 -> pool -> relu -> conv2 -> pool -> relu -> conv3 -> pool -> relu
          -> conv4 -> relu -> conv5(1x1)

Pooling before the ReLU is exact, bit for bit, and runs the ReLU on a
quarter of the elements: ReLU is monotone, so relu(max(w)) = max(relu(w))
for every window w, and in either order a window whose maximum is <= 0
yields 0 and passes no gradient, while any other window passes its
gradient to the same winner.

The output always has 64 channels; spatial size follows conv/pool floor
arithmetic (64x64 input -> 6x6, 256x256 -> 30x30). Deliberately small:
the receptive field stays local so the classifier scores neighborhood
texture, not global layout.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, require_int
from .ops import conv2d, maxpool2d
from .tensor import Tensor

IN_CHANNELS = 3
OUT_CHANNELS = 64


@dataclass(frozen=True)
class SNetConfig:
    """Layer plan for the salience network.

    channel_plan: output channels per conv layer; its length is the depth
        (the last conv is 1x1, the rest 2x2). Must end in 64.
    num_conv_layers: ``len(channel_plan)``; a value passed in must equal it.
    pool_after: 1-based conv indices followed by a 2x2/stride-2 max-pool.

    Every conv layer carries a per-channel bias.
    """

    num_conv_layers: int | None = None
    channel_plan: tuple[int, ...] = (32, 64, 64, 64, 64)
    pool_after: frozenset[int] = frozenset({1, 2, 3})

    def __post_init__(self):
        for name, value in (("channel_plan", self.channel_plan), ("pool_after", self.pool_after)):
            if not isinstance(value, Collection) or getattr(value, "ndim", 1) != 1:
                raise ConfigError(f"{name} must be a collection of integers, got {value!r}")
        depth = len(self.channel_plan) if self.num_conv_layers is None else self.num_conv_layers
        require_int("num_conv_layers", depth)
        if depth < 2:
            raise ConfigError(f"snet needs at least 2 conv layers, got {depth}")
        require_int("channel_plan entry", *self.channel_plan, minimum=1)
        plan = tuple(int(c) for c in self.channel_plan)
        if len(plan) != depth:
            raise ConfigError(f"channel_plan length {len(plan)} != num_conv_layers {depth}")
        object.__setattr__(self, "channel_plan", plan)
        object.__setattr__(self, "num_conv_layers", len(plan))
        if plan[-1] != OUT_CHANNELS:
            raise ConfigError(f"channel_plan must end in {OUT_CHANNELS}, got {plan[-1]}")
        require_int("pool_after entry", *self.pool_after, minimum=1)
        pool = frozenset(int(i) for i in self.pool_after)
        object.__setattr__(self, "pool_after", pool)
        if any(i > self.num_conv_layers for i in pool):
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


def output_shape(cfg: SNetConfig, h: int, w: int) -> tuple[int, int, int] | None:
    """(channels, H', W') the network produces for an h x w input, or None
    when a conv or pool gets an input smaller than its window."""
    for i, k in enumerate(cfg.kernel_sizes(), start=1):
        h, w = h - k + 1, w - k + 1
        if i in cfg.pool_after:
            h, w = h // 2, w // 2
    # A side below 1 stays below 1 through every later stage, so one check at the end covers them all.
    return (OUT_CHANNELS, h, w) if min(h, w) >= 1 else None


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
        """Run the stack on residual features (CxHxW or NxCxHxW). Each conv
        and pool checks its own input; a refusal names the conv layer."""
        for i, (w, b) in enumerate(self.layers, start=1):
            try:
                x = conv2d(x, w, b)
                if i in self.cfg.pool_after:
                    x = maxpool2d(x, k=2, stride=2)
            except ShapeError as e:
                raise ShapeError(f"conv layer {i}: {e}") from e
            if i < len(self.layers):
                x = x.relu()
        return x
