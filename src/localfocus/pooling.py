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

Inference uses the deterministic top-k path only.

Ordering is the total order on (value, flat index), so ties are stable
and reproducible: among equal values the smaller row-major position
ranks lower.

Each channel is one row, and each step runs once over all rows. A
training call draws first the (rows, k) dropout uniforms, then the
(rows, H*W) RKS keys, whose k smallest per row mark a uniform sample
without replacement (equal-weight Gumbel-top-k). The dropout pattern
thus does not depend on whether RKS is on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .tensor import Tensor


@dataclass(frozen=True)
class TkpConfig:
    """Top-k pooling settings.

    k: activations kept per channel (1 <= k <= H'*W' of the maps).
    p_min, p_max: dropout band, 0 <= p_min <= p_max < 1; rank 1 (the
        smallest kept value) drops at p_min, rank k at p_max.
    training: enables the stochastic paths below.
    rbld_enabled: apply rank-based dropout to the top-k vector.
    rks_enabled: also emit the random-k vector.
    """

    k: int = 16
    p_min: float = 0.1
    p_max: float = 0.3
    training: bool = False
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
    """Output of one pooling pass over one set of maps.

    vector: (C*k,) kept activations, ascending per channel slice
        (RBLD-zeroed entries stay in place).
    vector_star: (C*k,) random-sample vector, or None outside training
        or with RKS disabled.
    selected_indices: (C, k) flat map positions feeding ``vector``,
        aligned with its slices.
    star_indices: (C, k) flat positions feeding ``vector_star``, or None.
    dropped: (C, k) bool, True where RBLD zeroed an entry, or None when
        RBLD did not run.
    map_shape: (C, H, W) of the pooled maps, for gradient routing.
    """

    vector: np.ndarray
    vector_star: np.ndarray | None
    selected_indices: np.ndarray
    star_indices: np.ndarray | None
    dropped: np.ndarray | None
    map_shape: tuple[int, int, int]


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


def tkp_forward(maps: np.ndarray | Tensor, cfg: TkpConfig,
                rng: np.random.Generator | None = None) -> PooledVectors:
    """Pool one set of maps (C x H x W) into vectors per the scheme above.

    ``rng`` is consumed only on the stochastic training paths; the
    inference path never touches it and is fully deterministic.
    """
    data = maps.data if isinstance(maps, Tensor) else np.asarray(maps, dtype=np.float64)
    if data.ndim != 3:
        raise ShapeError(f"tkp_forward maps must be CxHxW, got rank {data.ndim}")
    channels, h, w = data.shape
    n = h * w
    if cfg.k > n:
        raise ConfigError(f"tkp k={cfg.k} exceeds map size {h}x{w}={n}")

    use_rbld = cfg.training and cfg.rbld_enabled
    use_rks = cfg.training and cfg.rks_enabled
    if (use_rbld or use_rks) and rng is None:
        raise ConfigError("tkp_forward needs an rng for the training paths")

    flat = data.reshape(channels, n)
    selected = topk_ascending(flat, cfg.k)
    vector = np.take_along_axis(flat, selected, axis=1)
    dropped = star_vals = star_idx = None
    if use_rbld:
        dropped = rng.random((channels, cfg.k)) <= rbld_probabilities(cfg.k, cfg.p_min, cfg.p_max)
        vector[dropped] = 0.0
    if use_rks:
        pick = np.argpartition(rng.random((channels, n)), cfg.k - 1, axis=1)[:, :cfg.k]
        picked = np.take_along_axis(flat, pick, axis=1)
        order = np.lexsort((pick, picked))
        star_idx = np.take_along_axis(pick, order, axis=1)
        star_vals = np.take_along_axis(picked, order, axis=1)

    return PooledVectors(
        vector=vector.reshape(-1),
        vector_star=star_vals.reshape(-1) if use_rks else None,
        selected_indices=selected,
        star_indices=star_idx,
        dropped=dropped,
        map_shape=(channels, h, w),
    )


def tkp_backward(pooled: PooledVectors, upstream_vec: np.ndarray | None,
                 upstream_star: np.ndarray | None = None) -> np.ndarray:
    """Route vector gradients back onto the maps.

    Pooling selects and reorders, so the gradient scatters each upstream
    entry to the flat position it was read from; positions touched by
    both vectors accumulate. RBLD-zeroed entries pass nothing. Pooling
    itself has no parameters.
    """
    if pooled.selected_indices is None:
        raise StateError("tkp_backward needs the selection record from tkp_forward")
    channels, h, w = pooled.map_shape
    k = pooled.selected_indices.shape[1]
    grad = np.zeros((channels, h * w))
    # Positions are unique within each row of a selection, so indexed
    # writes and adds never hit one position twice.
    if upstream_vec is not None:
        up = np.asarray(upstream_vec, dtype=np.float64).reshape(channels, k)
        if pooled.dropped is not None:
            up = up * ~pooled.dropped
        np.put_along_axis(grad, pooled.selected_indices, up, axis=1)
    if upstream_star is not None:
        if pooled.star_indices is None:
            raise StateError("tkp_backward got a star gradient but no star selection record")
        up = np.asarray(upstream_star, dtype=np.float64).reshape(channels, k)
        grad[np.arange(channels)[:, None], pooled.star_indices] += up
    return grad.reshape(channels, h, w)


# -- Tensor-graph wrappers ----------------------------------------------------


def _split_samples(pooled: PooledVectors, n: int) -> list[PooledVectors]:
    """Per-sample views of a record that pooled n samples' channels as rows."""
    rows, h, w = pooled.map_shape

    def split(a):
        return [None] * n if a is None else np.split(a, n)

    return [PooledVectors(*fields, map_shape=(rows // n, h, w))
            for fields in zip(split(pooled.vector), split(pooled.vector_star),
                              split(pooled.selected_indices), split(pooled.star_indices),
                              split(pooled.dropped))]


def tkp_pool(x: Tensor, cfg: TkpConfig, rng: np.random.Generator | None = None
             ) -> tuple[Tensor, Tensor | None, list[PooledVectors]]:
    """Differentiable batched pooling.

    ``x`` is (N, C, H, W); returns the (N, C*k) vector tensor, the
    (N, C*k) random-sample tensor (or None), and the per-sample pooling
    records. All N*C channels are pooled as one stack, so the batch
    costs one selection pass and one draw per random array.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"tkp_pool input must be NxCxHxW, got rank {x.data.ndim}")
    n, c, h, w = x.data.shape
    if n == 0:
        raise ShapeError("tkp_pool needs a non-empty batch")
    pooled = tkp_forward(x.data.reshape(n * c, h, w), cfg, rng)

    def backward_vec():
        x._accumulate(tkp_backward(pooled, out_vec.grad).reshape(x.data.shape))

    out_vec = Tensor._wrap(pooled.vector.reshape(n, -1), (x,), backward_vec)

    out_star = None
    if pooled.vector_star is not None:
        def backward_star():
            x._accumulate(tkp_backward(pooled, None, out_star.grad).reshape(x.data.shape))

        out_star = Tensor._wrap(pooled.vector_star.reshape(n, -1), (x,), backward_star)

    return out_vec, out_star, _split_samples(pooled, n)


def gap_forward(maps: np.ndarray) -> np.ndarray:
    """Global average pooling: per-channel mean, shape (C,)."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3:
        raise ShapeError(f"gap_forward maps must be CxHxW, got rank {maps.ndim}")
    return maps.mean(axis=(1, 2))


def gmp_forward(maps: np.ndarray) -> np.ndarray:
    """Global max pooling: per-channel max, shape (C,)."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3:
        raise ShapeError(f"gmp_forward maps must be CxHxW, got rank {maps.ndim}")
    return maps.max(axis=(1, 2))


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
