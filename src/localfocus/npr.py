"""Pixel-resampling residual features.

Upsampling interpolates; a genuinely captured image does not have to.
Downsampling an image on an ``m x m`` grid and blowing it back up by
nearest-anchor replication reconstructs resampled content almost
exactly, while camera content leaves a residual in every non-anchor
pixel. The residual

    R = I - replicate(anchors(I))

is identically zero at anchor positions, and |R| elsewhere concentrates
exactly the local correlation structure generators leave behind. ``R``
is linear in the input when ``take_abs`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class NprConfig:
    """Residual extraction settings.

    window: grid pitch m (anchors every m pixels along each axis).
    anchor_index: flat index into the m*m window, row-major; 0 is the
        top-left pixel of each window.
    take_abs: emit |residual| (what the detector consumes) instead of
        the signed residual.
    """

    window: int = 2
    anchor_index: int = 0
    take_abs: bool = True

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError(f"npr window must be >= 2, got {self.window}")
        if not 0 <= self.anchor_index < self.window * self.window:
            raise ConfigError(
                f"npr anchor_index must lie in [0, {self.window * self.window}), got {self.anchor_index}"
            )


def _check_divisible(shape: tuple[int, ...], m: int) -> None:
    h, w = shape[-2], shape[-1]
    if h % m != 0:
        raise ShapeError(f"npr height axis must be divisible by window {m}, got {h}")
    if w % m != 0:
        raise ShapeError(f"npr width axis must be divisible by window {m}, got {w}")


def _residual(data: np.ndarray, cfg: NprConfig) -> np.ndarray:
    """Signed residual of ``data`` (any rank >= 2; acts on the last two axes)."""
    m = cfg.window
    _check_divisible(data.shape, m)
    ar, ac = divmod(cfg.anchor_index, m)
    anchors = data[..., ar::m, ac::m]
    recon = anchors.repeat(m, axis=-2).repeat(m, axis=-1)
    return data - recon


def npr_extract(image: Tensor, cfg: NprConfig = NprConfig()) -> Tensor:
    """Differentiable residual features for one image or a batch.

    Accepts ``C x H x W`` or ``N x C x H x W`` with H, W divisible by
    ``cfg.window``. Output has the same shape. Anchor positions are
    exactly zero by construction.
    """
    if image.data.ndim not in (3, 4):
        raise ShapeError(f"npr_extract input must be CxHxW or NxCxHxW, got rank {image.data.ndim}")
    res = _residual(image.data, cfg)
    out_data = np.abs(res) if cfg.take_abs else res

    def backward():
        image._accumulate(_residual_backward(res, cfg, out.grad))

    out = Tensor._wrap(out_data, (image,), backward)
    return out


def _residual_backward(res: np.ndarray, cfg: NprConfig, upstream: np.ndarray) -> np.ndarray:
    """Adjoint of the residual map (including the optional |.|).

    Each anchor pixel feeds every pixel of its window negatively and
    itself positively, so with window m and all-ones upstream the anchor
    gradient is 1 - m*m and every other pixel gets 1.
    """
    m = cfg.window
    g0 = upstream * np.sign(res) if cfg.take_abs else np.asarray(upstream, dtype=np.float64)
    ar, ac = divmod(cfg.anchor_index, m)
    lead = res.shape[:-2]
    hh, ww = res.shape[-2], res.shape[-1]
    window_sums = g0.reshape(*lead, hh // m, m, ww // m, m).sum(axis=(-3, -1))
    dx = np.array(g0, dtype=np.float64, copy=True)
    dx[..., ar::m, ac::m] -= window_sums
    return dx
