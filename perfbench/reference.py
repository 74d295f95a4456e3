"""Independent plain-numpy forward pass of the default detector.

This module imports nothing from ``localfocus``: it is the oracle the
benchmark checks every program score against. It hard-codes the default
architecture (|2x2 anchor residual| -> conv 2x2 x4 + 1x1 with ReLU
between, 2x2/2 max-pool after conv1..conv3 -> per-channel top-k
ascending -> affine head -> clamped sigmoid) and uses a different
convolution algorithm than the program: one tensordot per kernel tap
instead of im2col.
"""

from __future__ import annotations

import numpy as np

POOL_AFTER = (1, 2, 3)
TOP_K = 16
CLAMP = 1e-12


def residual(image: np.ndarray) -> np.ndarray:
    """|x - top-left anchor of its 2x2 block| for a (3, H, W) image."""
    c, h, w = image.shape
    blocks = image.reshape(c, h // 2, 2, w // 2, 2)
    return np.abs(blocks - blocks[:, :, :1, :, :1]).reshape(c, h, w)


def conv_valid(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1, unpadded cross-correlation of (Cin, H, W) with (Cout, Cin, kh, kw)."""
    _, h, w = x.shape
    _, _, kh, kw = weight.shape
    ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((weight.shape[0], ho, wo))
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(weight[:, :, i, j], x[:, i:i + ho, j:j + wo], axes=(1, 0))
    return out + bias[:, None, None]


def maxpool2(x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    ho, wo = h // 2, w // 2
    return x[:, :2 * ho, :2 * wo].reshape(c, ho, 2, wo, 2).max(axis=(2, 4))


def score(image: np.ndarray, params: list[np.ndarray]) -> float:
    """Fake-probability of one (3, H, W) image.

    ``params`` lists the conv weight/bias pairs in layer order, then the
    (1, 64*k) head weight and the (1,) head bias.
    """
    convs = list(zip(params[:-2:2], params[1:-2:2]))
    x = residual(np.asarray(image, dtype=np.float64))
    for layer, (w, b) in enumerate(convs, start=1):
        x = conv_valid(x, w, b)
        if layer < len(convs):
            x = np.maximum(x, 0.0)
        if layer in POOL_AFTER:
            x = maxpool2(x)
    feats = np.sort(x.reshape(x.shape[0], -1), axis=1)[:, -TOP_K:].reshape(-1)
    z = float(feats @ params[-2][0] + params[-1][0])
    p = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    return min(max(p, CLAMP), 1.0 - CLAMP)
