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

from .errors import ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class NprConfig:
    """Residual extraction settings.

    take_abs: emit |residual| (what the detector consumes) instead of
        the signed residual.
    """

    take_abs: bool = True


def resample_2x(data: np.ndarray) -> np.ndarray:
    """Nearest 2x down-then-up on the last two axes: every 2x2 block
    becomes its top-left pixel."""
    return data[..., ::2, ::2].repeat(2, axis=-2).repeat(2, axis=-1)


def _residual(data: np.ndarray) -> np.ndarray:
    """Signed residual of ``data`` (any rank >= 2; acts on the last two axes)."""
    h, w = data.shape[-2], data.shape[-1]
    if h % 2 or w % 2:
        raise ShapeError(f"npr height and width must both be even, got {h}x{w}")
    return data - resample_2x(data)


def npr_extract(image: Tensor, cfg: NprConfig = NprConfig()) -> Tensor:
    """Differentiable residual features for one image or a batch.

    Accepts ``C x H x W`` or ``N x C x H x W`` with H and W even. Output
    has the same shape. Anchor positions are exactly zero by
    construction.
    """
    if image.data.ndim not in (3, 4):
        raise ShapeError(f"npr_extract input must be CxHxW or NxCxHxW, got rank {image.data.ndim}")

    def backward():
        image._accumulate(_residual_backward(out.grad))

    out = Tensor._wrap(_residual(image.data), (image,), backward)
    return out.abs() if cfg.take_abs else out


def _residual_backward(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of the signed residual map.

    Each anchor pixel feeds every pixel of its 2x2 block negatively and
    itself positively, so with all-ones upstream the anchor gradient is
    1 - 4 = -3 and every other pixel gets 1.
    """
    lead = upstream.shape[:-2]
    hh, ww = upstream.shape[-2], upstream.shape[-1]
    block_sums = upstream.reshape(*lead, hh // 2, 2, ww // 2, 2).sum(axis=(-3, -1))
    dx = upstream.copy()
    dx[..., ::2, ::2] -= block_sums
    return dx
