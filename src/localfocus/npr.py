"""Pixel-resampling residual features.

Upsampling interpolates; a genuinely captured image does not have to.
Downsampling an image on a 2x2 grid and blowing it back up by
nearest-anchor replication reconstructs resampled content almost
exactly, while camera content leaves a residual in every non-anchor
pixel. With the anchor at the top-left pixel of each 2x2 block, the
residual

    R = I - up2(down2(I))

is identically zero at anchor positions, and |R| elsewhere concentrates
exactly the local correlation structure generators leave behind. ``R``
is linear in the input when ``take_abs`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, require_bool
from .ops import _as_batch
from .tensor import Tensor, buffer


@dataclass(frozen=True)
class NprConfig:
    """Residual extraction settings.

    take_abs: emit |residual| (what the detector consumes) instead of
        the signed residual.
    """

    take_abs: bool = True

    def __post_init__(self):
        require_bool("take_abs", self.take_abs)


def _blocks(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``data`` as 2x2 blocks on its last two axes, (..., H/2, 2, W/2, 2),
    and each block's top-left anchor, (..., H/2, 1, W/2, 1), which
    broadcasts over its block."""
    h, w = data.shape[-2], data.shape[-1]
    return data.reshape(data.shape[:-2] + (h // 2, 2, w // 2, 2)), data[..., ::2, None, ::2, None]


def resample_2x(data: np.ndarray) -> np.ndarray:
    """Nearest 2x down-then-up on the last two axes: every 2x2 block
    becomes its top-left pixel."""
    blocks, anchors = _blocks(data)
    return np.broadcast_to(anchors, blocks.shape).reshape(data.shape)


def _check_grid(h: int, w: int) -> None:
    """Refuse an h x w input that the 2x2 grid does not tile."""
    if h % 2 or w % 2:
        raise ShapeError(f"npr height and width must both be even, got {h}x{w}")


def _residual(data: np.ndarray) -> np.ndarray:
    """Signed residual of ``data`` (any rank >= 2; acts on the last two axes)."""
    _check_grid(*data.shape[-2:])
    blocks, anchors = _blocks(data)
    out = buffer(data.shape, data.dtype)
    np.subtract(blocks, anchors, out=out.reshape(blocks.shape))
    return out


def npr_extract(image: Tensor, cfg: NprConfig = NprConfig()) -> Tensor:
    """Differentiable residual features for one image or a batch.

    Accepts ``C x H x W`` or ``N x C x H x W`` with H and W even. Output
    has the same shape. Anchor positions are exactly zero by
    construction.
    """
    _as_batch(image.data, "npr_extract input")
    out = Tensor._wrap(_residual(image.data), (image,), lambda g: (_residual_backward(g),))
    return out.abs() if cfg.take_abs else out


def _residual_backward(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of the signed residual map.

    Each anchor pixel feeds every pixel of its 2x2 block negatively and
    itself positively, so with all-ones upstream the anchor gradient is
    1 - 4 = -3 and every other pixel gets 1.
    """
    blocks, _ = _blocks(upstream)
    dx = upstream.copy()
    _, anchors = _blocks(dx)
    anchors -= blocks.sum(axis=(-3, -1), keepdims=True)
    return dx
