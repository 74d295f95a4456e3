"""Differentiable neural-net primitives on top of :class:`Tensor`.

Each op returns its input's dtype (float64, or float32 on the scoring
path; ``conv2d`` casts its float64 parameters to it per call), except
``linear`` and ``bce_loss_mean``, which promote to float64, so the head
is float64. Only float64 graphs are walked. ``conv2d`` and ``maxpool2d``
take an ``N x C x H x W`` batch, or one ``C x H x W`` image run as a batch of one
(its output has no batch axis). A batch gives the same bytes as a loop
over its images: each image runs the same matmuls.

``conv2d`` works channels-last (NHWC, PyTorch's "channels_last"). Its
forward runs one image and one band of output rows at a time, the band
sized by ``_BAND_BYTES`` so its rows stay in cache (Goto & van de Geijn
2008): it copies each k x k window of the NHWC view of its input into one
im2col row (Chellapilla et al. 2006) in (kh, kw, cin) order, so every tap
copies contiguous channel runs, multiplies the band's rows by the weight
reordered to (kh*kw*cin, cout) into the output and adds the bias there.
The (n*ho*wo, cout) output is NHWC memory; it is returned as an
NCHW-shaped view without a copy, and the next layer's NHWC view of it is
contiguous again. Shapes seen from outside stay NCHW. The backward keeps
no rows from the forward: it rebuilds the layer's rows for the weight
gradient and frees them before forming the input gradient. ``maxpool2d``
and the elementwise ops keep whatever layout they are given.

The forward's large arrays (conv row bands and outputs, pooled maps) come
from ``tensor.buffer``, whose reuse rule the ``tensor`` module states. The
backward allocates its own.

``maxpool2d`` is a running maximum over k*k strided tap views, tap
(i, j) holding element (i, j) of every window. The windows tile the
input, so every position lies in at most one tap; the backward writes
each tap's slice exactly once, in row-major tap order: a window's
gradient goes to the first tap that equals its maximum, or to the last
tap when none did (a NaN window), and every other position gets +0.0.
The input gradient has the input's strides, so a channels-last input
gets a channels-last gradient, which conv2d's backward reads without a copy.

``bce_loss_mean`` clips probabilities to [1e-12, 1 - 1e-12] with
``tensor._CLAMP``, the clamp ``Tensor.sigmoid`` applies to its output.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, ShapeError, require_int
from .tensor import _CLAMP, Tensor, buffer

# One conv2d band's bytes: its im2col rows plus their products. At 2 MiB
# every 64 px layer is one band per image, and a 256 px image makes half
# the matmul calls it makes at 1 MiB.
_BAND_BYTES = 2 << 20


def _as_batch(data: np.ndarray, what: str) -> np.ndarray:
    """Return a 4-D view of a CxHxW image or an NxCxHxW batch."""
    if data.ndim not in (3, 4):
        raise ShapeError(f"{what} must be CxHxW or NxCxHxW, got rank {data.ndim}")
    return data if data.ndim == 4 else data[None]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate ``x`` with ``weight`` and add the per-channel ``bias``.

    Output spatial extent per axis is floor((in + 2*padding - k)/stride) + 1.
    The forward runs im2col, matmul and bias one band of output rows at a
    time; the backward rebuilds the layer's im2col rows for the weight
    gradient and scatters the input gradient through the same row layout.
    """
    require_int("conv2d stride", stride, minimum=1)
    require_int("conv2d padding", padding, minimum=0)
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be Cout x Cin x kh x kw, got rank {weight.data.ndim}")
    xd = _as_batch(x.data, "conv2d input")
    n, cin, h, w = xd.shape
    cout, cin_w, kh, kw = weight.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel axis mismatch: input has {cin} channels, weight expects {cin_w}")
    if kh < 1 or kw < 1:
        raise ShapeError(f"conv2d kernel must be at least 1x1, got {kh}x{kw}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d bias must have shape ({cout},), got {bias.data.shape}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh:
        raise ShapeError(f"conv2d height axis too small: padded extent {hp} < kernel {kh}")
    if wp < kw:
        raise ShapeError(f"conv2d width axis too small: padded extent {wp} < kernel {kw}")

    xh = xd.transpose(0, 2, 3, 1)
    xp = np.pad(xh, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else xh
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    kk = kh * kw * cin
    # (n, ho, wo, kh, kw, cin): one (kh, kw, cin) im2col row per output pixel
    taps = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    # The parameters stay float64; a float32 input gets float32 copies of them.
    wmat = weight.data.transpose(0, 2, 3, 1).reshape(cout, kk).astype(xd.dtype, copy=False)
    bias_row = bias.data.astype(xd.dtype, copy=False)
    band = max(1, min(ho, _BAND_BYTES // (xd.itemsize * wo * (kk + cout))))
    col = buffer((band * wo, kk), xd.dtype)
    flat = buffer((n * ho * wo, cout), xd.dtype)
    for i in range(n):
        for r in range(0, ho, band):
            m = min(band, ho - r)
            rows = col[:m * wo]
            np.copyto(rows.reshape(m, wo, kh, kw, cin), taps[i, r:r + m])
            y = np.matmul(rows, wmat.T, out=flat[(i * ho + r) * wo:(i * ho + r + m) * wo])
            y += bias_row
    out_data = flat.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2).reshape(x.data.shape[:-3] + (cout, ho, wo))

    def vjp(g):
        gmat = g.reshape(n, cout, ho, wo).transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
        # The rebuilt rows are freed before dcol is drawn.
        dw = gmat.T @ np.ascontiguousarray(taps).reshape(n * ho * wo, kk)
        dx = None
        if x.requires_grad:  # conv1 reads the residual, which needs none
            dcol = (gmat @ wmat).reshape(n, ho, wo, kh, kw, cin)
            dxp = np.zeros((n, hp, wp, cin))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcol[:, :, :, i, j]
            dx = dxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2).reshape(x.data.shape)
        return dx, dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2), np.einsum("ij->j", gmat)

    return Tensor._wrap(out_data, (x, weight, bias), vjp)


def maxpool2d(x: Tensor, k: int = 2, stride: int = 2) -> Tensor:
    """Max over the k x k windows that tile ``x`` (``stride`` must equal
    ``k``; a trailing row or column that fills no window is dropped).
    Ties resolve to the first element in row-major window order (numpy
    argmax convention), and the gradient routes to each window's winner.
    A window holding NaN pools to NaN and routes its gradient to its last element.
    """
    require_int("maxpool2d window", k, minimum=1)
    require_int("maxpool2d stride", stride, minimum=1)
    if stride != k:
        raise ConfigError(f"maxpool2d windows must tile: stride {stride} != window {k}")
    xd = _as_batch(x.data, "maxpool2d input")
    n, c, h, w = xd.shape
    if h < k:
        raise ShapeError(f"maxpool2d height axis too small: extent {h} < window {k}")
    if w < k:
        raise ShapeError(f"maxpool2d width axis too small: extent {w} < window {k}")

    ho, wo = h // k, w // k
    taps = [np.s_[:, :, i:k * ho:k, j:k * wo:k] for i in range(k) for j in range(k)]
    pooled = buffer(xd[taps[0]])
    np.copyto(pooled, xd[taps[0]])
    for tap in taps[1:]:
        np.maximum(pooled, xd[tap], out=pooled)

    def vjp(g):
        dx = np.empty_like(xd)  # keeps the input's (channels-last) strides
        dx[:, :, k * ho:] = 0.0
        dx[:, :, :, k * wo:] = 0.0
        # The bit patterns times 0 or 1: g exactly or +0.0, never the -0.0
        # or NaN a float product of a negative or infinite g would give.
        gbits = g.view(np.int64)
        free = np.ones_like(pooled, dtype=bool)
        for tap in taps[:-1]:
            hit = xd[tap] == pooled
            hit &= free
            np.multiply(gbits, hit, out=dx[tap].view(np.int64))
            free ^= hit
        np.multiply(gbits, free, out=dx[taps[-1]].view(np.int64))
        return (dx.reshape(x.data.shape),)

    return Tensor._wrap(pooled.reshape(x.data.shape[:-2] + (ho, wo)), (x,), vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``weight @ x + bias`` with ``weight`` of shape (1, N),
    taking a batch (B, N) to (B, 1)."""
    if weight.data.ndim != 2 or weight.data.shape[0] != 1:
        raise ShapeError(f"linear weight must have shape (1, N), got {weight.data.shape}")
    nfeat = weight.data.shape[1]
    if bias.data.shape != (1,):
        raise ShapeError(f"linear bias must have shape (1,), got {bias.data.shape}")
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"linear input must be a (B, N) batch, got shape {xd.shape}")
    if xd.shape[1] != nfeat:
        raise ShapeError(f"linear feature axis mismatch: input {xd.shape} vs weight (1, {nfeat})")

    out_data = (xd @ weight.data[0] + bias.data[0])[:, None]  # (B, 1)
    return Tensor._wrap(out_data, (x, weight, bias),
                        lambda g: (g @ weight.data, g.T @ xd, g.sum(axis=0)))


def _check_labels(labels: np.ndarray) -> None:
    if not np.all((labels == 0) | (labels == 1)):
        bad = labels[(labels != 0) & (labels != 1)]
        raise DomainError(f"binary cross-entropy labels must be 0 or 1, got {bad[:4].tolist()}")


def bce_loss_mean(y_hat: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over a batch of probabilities.

    ``y_hat`` may be shaped (B,), (B, 1) or scalar-like; ``labels`` must
    match its element count and contain only 0/1.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    _check_labels(labels)
    flat = y_hat.data.reshape(-1)
    if flat.size != labels.size:
        raise ShapeError(f"bce_loss_mean got {flat.size} probabilities and {labels.size} labels")
    if flat.size == 0:
        raise ShapeError("bce_loss_mean needs at least one probability")
    p = np.clip(flat, _CLAMP, 1.0 - _CLAMP)
    terms = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    out_data = np.asarray(terms.mean())

    def vjp(g):
        # Zero gradient where the clamp was active.
        live = flat == p
        dp = -(labels / p - (1.0 - labels) / (1.0 - p)) * live / flat.size
        return ((float(g) * dp).reshape(y_hat.shape),)

    return Tensor._wrap(out_data, (y_hat,), vjp)
