"""Top-k pooling with rank-based linear dropout and random-k sampling.

Global average/max pooling squeeze each activation map to one number,
so a handful of strongly detected local artifacts vanishes into the
mean. Top-k pooling instead keeps the k strongest activations per
channel, sorted ascending, and concatenates the per-channel slices into
one feature vector of length C*k.

Two training-only regularizers ride on top:

* Rank-based linear dropout (RBLD): the i-th kept activation (ascending
  rank i = 1..k) is zeroed with probability
  p_i = p_min + (p_max - p_min) * (i - 1) / (k - 1), so stronger
  activations drop more often and the classifier cannot lean on the
  single largest response. Zeroed entries stay in place; survivors are
  not rescaled.
* Random-k sampling (RKS): k positions per channel drawn uniformly
  without replacement, values sorted ascending, concatenated the same
  way. Scored by the same classifier head as an auxiliary target.

Both run exactly when the caller passes an rng (a training step); a call
without one is the deterministic top-k path used for inference.

Ordering is the total order on (value, flat index), so ties are stable
and reproducible: among equal values the smaller row-major position
ranks lower.

Each (sample, channel) map is one row, and each step runs once over all
rows. A training call draws first the (rows, k) dropout uniforms, then
the (rows, H*W) RKS keys, whose k smallest per row mark a uniform sample
without replacement (equal-weight Gumbel-top-k). The dropout pattern
thus does not depend on whether RKS is on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class TkpConfig:
    """Top-k pooling settings.

    k: activations kept per channel (1 <= k <= H'*W' of the maps).
    p_min, p_max: dropout band, 0 <= p_min <= p_max < 1; rank 1 (the
        smallest kept value) drops at p_min, rank k at p_max.
    rbld_enabled: apply rank-based dropout to the top-k vector.
    rks_enabled: also emit the random-k vector.
    """

    k: int = 16
    p_min: float = 0.1
    p_max: float = 0.3
    rbld_enabled: bool = True
    rks_enabled: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"tkp k must be >= 1, got {self.k}")
        if not (0.0 <= self.p_min <= self.p_max < 1.0):
            raise ConfigError(
                f"tkp dropout band must satisfy 0 <= p_min <= p_max < 1, got [{self.p_min}, {self.p_max}]"
            )


@dataclass
class PooledVectors:
    """Selection record of one :func:`tkp_pool` call.

    Every array has one row per (sample, channel), row n*C + c, shape
    (N*C, k), aligned with the k-wide slices of the returned tensors.

    selected_indices: flat map positions feeding the top-k vector.
    star_indices: flat positions feeding the random-sample vector, or
        None when RKS did not run.
    dropped: bool, True where RBLD zeroed an entry, or None when RBLD
        did not run.
    """

    selected_indices: np.ndarray
    star_indices: np.ndarray | None
    dropped: np.ndarray | None


def rbld_probabilities(k: int, p_min: float, p_max: float) -> np.ndarray:
    """Dropout probability per ascending rank i = 1..k (linear ramp).

    k == 1 degenerates to the single probability p_min.
    """
    if k == 1:
        return np.asarray([p_min])
    return p_min + (p_max - p_min) * np.arange(k) / (k - 1)


def topk_ascending(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of each row under the total order
    (value, flat index), returned in ascending order of that same key."""
    order = np.argsort(flat, axis=-1, kind="stable")
    return order[..., flat.shape[-1] - k:]


def _scatter(shape: tuple[int, ...], indices: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient on maps of ``shape`` from upstream values read at
    ``indices`` (flat positions, one row per map). Positions are unique
    within a row, so each lands once and no accumulation is needed."""
    rows, k = indices.shape
    grad = np.zeros((rows, shape[-2] * shape[-1]))
    np.put_along_axis(grad, indices, upstream.reshape(rows, k), axis=1)
    return grad.reshape(shape)


def tkp_pool(x: Tensor, cfg: TkpConfig, rng: np.random.Generator | None = None
             ) -> tuple[Tensor, Tensor | None, PooledVectors]:
    """Differentiable batched top-k pooling.

    ``x`` is (N, C, H, W); returns the (N, C*k) top-k tensor, the
    (N, C*k) random-sample tensor (None without an rng or with RKS
    off), and the selection record. Passing ``rng`` turns on the
    enabled regularizers; without it the result is deterministic.

    Pooling selects and reorders, so each backward scatters every
    upstream entry to the position it was read from; RBLD-zeroed
    entries pass nothing, and positions read by both vectors
    accumulate. Pooling itself has no parameters.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"tkp_pool input must be NxCxHxW, got rank {x.data.ndim}")
    n, c, h, w = x.data.shape
    if n == 0:
        raise ShapeError("tkp_pool needs a non-empty batch")
    if cfg.k > h * w:
        raise ConfigError(f"tkp k={cfg.k} exceeds map size {h}x{w}={h * w}")

    flat = x.data.reshape(n * c, h * w)
    selected = topk_ascending(flat, cfg.k)
    vector = np.take_along_axis(flat, selected, axis=1)
    dropped = star_idx = out_star = None
    if rng is not None and cfg.rbld_enabled:
        dropped = rng.random(selected.shape) <= rbld_probabilities(cfg.k, cfg.p_min, cfg.p_max)
        vector[dropped] = 0.0

    def backward_vec():
        up = out_vec.grad.reshape(selected.shape)
        if dropped is not None:
            up = up * ~dropped
        x._accumulate(_scatter(x.data.shape, selected, up))

    out_vec = Tensor._wrap(vector.reshape(n, -1), (x,), backward_vec)

    if rng is not None and cfg.rks_enabled:
        pick = np.argpartition(rng.random(flat.shape), cfg.k - 1, axis=1)[:, :cfg.k]
        picked = np.take_along_axis(flat, pick, axis=1)
        order = np.lexsort((pick, picked))
        star_idx = np.take_along_axis(pick, order, axis=1)

        def backward_star():
            x._accumulate(_scatter(x.data.shape, star_idx, out_star.grad))

        out_star = Tensor._wrap(np.take_along_axis(picked, order, axis=1).reshape(n, -1),
                                (x,), backward_star)

    return out_vec, out_star, PooledVectors(selected, star_idx, dropped)


def gap_pool(x: Tensor) -> Tensor:
    """Differentiable batched global average pooling: (N,C,H,W) -> (N,C)."""
    if x.data.ndim != 4:
        raise ShapeError(f"gap_pool input must be NxCxHxW, got rank {x.data.ndim}")
    n, c, h, w = x.data.shape
    out_data = x.data.mean(axis=(2, 3))

    def backward():
        g = out.grad[:, :, None, None] / (h * w)
        x._accumulate(np.broadcast_to(g, x.data.shape))

    out = Tensor._wrap(out_data, (x,), backward)
    return out


def gmp_pool(x: Tensor) -> Tensor:
    """Differentiable batched global max pooling: (N,C,H,W) -> (N,C).

    Ties route the gradient to the first maximum in row-major order.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"gmp_pool input must be NxCxHxW, got rank {x.data.ndim}")
    n, c, h, w = x.data.shape
    flat = x.data.reshape(n, c, h * w)
    arg = flat.argmax(axis=2)
    out_data = np.take_along_axis(flat, arg[..., None], axis=2)[..., 0]

    def backward():
        dx = np.zeros_like(flat)
        np.put_along_axis(dx, arg[..., None], out.grad[..., None], axis=2)
        x._accumulate(dx.reshape(x.data.shape))

    out = Tensor._wrap(out_data, (x,), backward)
    return out
