"""Differentiable neural-net primitives on top of :class:`Tensor`.

All ops run in float64. ``conv2d`` and ``maxpool2d`` take a single
``C x H x W`` image or an ``N x C x H x W`` batch; the batched path
computes the same arithmetic as looping the single-image path (equal to
float64 roundoff; BLAS may block the larger matmul differently) and
exists for speed: one im2col matmul per layer instead of N.

``maxpool2d`` is a running maximum over k*k strided tap views, tap
(i, j) holding element (i, j) of every window. Its backward gives each
gradient to the first tap, in row-major order, that equals the maximum,
and adds it into that tap's slice; a slice never repeats a position.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor

_LOG_CLAMP = 1e-12


def _as_batch(data: np.ndarray, what: str) -> tuple[np.ndarray, bool]:
    """Return a 4-D view of ``data`` plus whether a batch axis was added."""
    if data.ndim == 3:
        return data[None], True
    if data.ndim == 4:
        return data, False
    raise ShapeError(f"{what} must be CxHxW or NxCxHxW, got rank {data.ndim}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate ``x`` with ``weight`` (+ optional per-channel bias).

    Output spatial extent per axis is floor((in + 2*padding - k)/stride) + 1.
    Implemented as im2col + one matmul; backward scatters through the
    same column layout.
    """
    if stride < 1:
        raise ConfigError(f"conv2d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ConfigError(f"conv2d padding must be >= 0, got {padding}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be Cout x Cin x kh x kw, got rank {weight.data.ndim}")
    xd, squeeze = _as_batch(x.data, "conv2d input")
    n, cin, h, w = xd.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel axis mismatch: input has {cin} channels, weight expects {cin_w}")
    if kh < 1 or kw < 1:
        raise ShapeError(f"conv2d kernel must be at least 1x1, got {kh}x{kw}")
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError(f"conv2d bias must have shape ({cout},), got {bias.data.shape}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh:
        raise ShapeError(f"conv2d height axis too small: padded extent {hp} < kernel {kh}")
    if wp < kw:
        raise ShapeError(f"conv2d width axis too small: padded extent {wp} < kernel {kw}")

    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (n, ho, wo, cin, kh, kw) -> one row per output pixel
    col = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, cin * kh * kw)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    flat = col @ wmat.T
    if bias is not None:
        flat = flat + bias.data
    out_data = flat.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    if squeeze:
        out_data = out_data[0]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward():
        g = out.grad if not squeeze else out.grad[None]
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, cout)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((gmat.T @ col).reshape(weight.data.shape))
        if x.requires_grad:
            dcol = (gmat @ wmat).reshape(n, ho, wo, cin, kh, kw).transpose(0, 3, 4, 5, 1, 2)
            dxp = np.zeros((n, cin, hp, wp))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcol[:, :, i, j]
            dx = dxp[:, :, padding:padding + h, padding:padding + w] if padding else dxp
            x._accumulate(dx[0] if squeeze else dx)

    out = Tensor._wrap(np.ascontiguousarray(out_data), parents, backward)
    return out


def maxpool2d(x: Tensor, k: int = 2, stride: int = 2) -> Tensor:
    """Max over k x k windows; ties resolve to the first element in
    row-major window order (numpy argmax convention). Gradient routes
    to each window's winner and accumulates across overlapping windows.
    """
    if k < 1:
        raise ConfigError(f"maxpool2d window must be >= 1, got {k}")
    if stride < 1:
        raise ConfigError(f"maxpool2d stride must be >= 1, got {stride}")
    xd, squeeze = _as_batch(x.data, "maxpool2d input")
    n, c, h, w = xd.shape
    if h < k:
        raise ShapeError(f"maxpool2d height axis too small: extent {h} < window {k}")
    if w < k:
        raise ShapeError(f"maxpool2d width axis too small: extent {w} < window {k}")

    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    taps = [np.s_[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            for i in range(k) for j in range(k)]
    pooled = xd[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(pooled, xd[tap], out=pooled)

    def backward():
        g = out.grad if not squeeze else out.grad[None]
        taken = np.zeros(pooled.shape, dtype=bool)
        hits = []
        for tap in taps:
            hit = (xd[tap] == pooled) & ~taken
            taken |= hit
            hits.append(hit)
        dx = np.zeros_like(xd)
        # Reversed tap order adds the gradients of overlapping windows
        # in row-major window order.
        for tap, hit in zip(reversed(taps), reversed(hits)):
            dx[tap] += np.where(hit, g, 0.0)
        x._accumulate(dx[0] if squeeze else dx)

    out = Tensor._wrap(pooled[0] if squeeze else pooled, (x,), backward)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``weight @ x + bias`` with ``weight`` of shape (1, N).

    Accepts a single feature vector (N,) -> (1,) or a batch (B, N) -> (B, 1).
    """
    if weight.data.ndim != 2 or weight.data.shape[0] != 1:
        raise ShapeError(f"linear weight must have shape (1, N), got {weight.data.shape}")
    nfeat = weight.data.shape[1]
    if bias is not None and bias.data.shape != (1,):
        raise ShapeError(f"linear bias must have shape (1,), got {bias.data.shape}")
    xd = x.data
    single = xd.ndim == 1
    if single:
        xd = xd[None]
    if xd.ndim != 2 or xd.shape[1] != nfeat:
        raise ShapeError(f"linear feature axis mismatch: input {x.data.shape} vs weight (1, {nfeat})")

    out_data = xd @ weight.data[0]
    if bias is not None:
        out_data = out_data + bias.data[0]
    out_data = out_data[:, None]  # (B, 1)
    if single:
        out_data = out_data[0]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward():
        g = out.grad if not single else out.grad[None]  # (B, 1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate(g.T @ xd)
        if x.requires_grad:
            dx = g @ weight.data
            x._accumulate(dx[0] if single else dx)

    out = Tensor._wrap(out_data, parents, backward)
    return out


def _check_labels(labels: np.ndarray) -> None:
    if not np.all((labels == 0) | (labels == 1)):
        bad = labels[(labels != 0) & (labels != 1)]
        raise DomainError(f"binary cross-entropy labels must be 0 or 1, got {bad[:4].tolist()}")


def bce_loss(y_hat: Tensor, y: int) -> Tensor:
    """Binary cross-entropy for one probability and one hard label.

    ``y_hat`` must be a single-element tensor; probabilities are clamped
    to [1e-12, 1 - 1e-12] before the log, and the gradient is zero in
    the clamped region.
    """
    if y_hat.data.size != 1:
        raise ShapeError(f"bce_loss expects a single probability, got shape {y_hat.shape}")
    return bce_loss_mean(y_hat, [y])


def bce_loss_mean(y_hat: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over a batch of probabilities.

    ``y_hat`` may be shaped (B,), (B, 1) or scalar-like; ``labels`` must
    match its element count and contain only 0/1.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    _check_labels(labels)
    a = y_hat
    flat = a.data.reshape(-1)
    if flat.size != labels.size:
        raise ShapeError(f"bce_loss_mean got {flat.size} probabilities and {labels.size} labels")
    if flat.size == 0:
        raise ShapeError("bce_loss_mean needs at least one probability")
    p = np.clip(flat, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    terms = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    out_data = np.asarray(terms.mean())

    def backward():
        # Zero gradient where the clamp was active.
        live = flat == p
        dp = -(labels / p - (1.0 - labels) / (1.0 - p)) * live / flat.size
        a._accumulate((float(out.grad) * dp).reshape(a.data.shape))

    out = Tensor._wrap(out_data, (a,), backward)
    return out
