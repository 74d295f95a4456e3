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
  without replacement, ranked as top-k ranks, concatenated the same
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

from .errors import ConfigError, ShapeError, require_bool, require_int, require_real
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
        require_int("tkp k", self.k, minimum=1)
        require_real("p_min", self.p_min)
        require_real("p_max", self.p_max)
        require_bool("rbld_enabled", self.rbld_enabled)
        require_bool("rks_enabled", self.rks_enabled)
        if not self.p_min <= self.p_max < 1.0:
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
    return p_min + (p_max - p_min) * np.arange(k) / max(k - 1, 1)


def _gather(x: Tensor, indices: np.ndarray, dropped: np.ndarray | None = None) -> Tensor:
    """The (N, C*k) tensor of ``x``'s cells at ``indices`` (flat map
    positions, unique within each row), ``dropped`` entries set to 0."""
    n, c, h, w = x.data.shape
    values = np.take_along_axis(x.data.reshape(n * c, h * w), indices, axis=1)
    if dropped is not None:
        values[dropped] = 0.0

    def vjp(g):
        up = g.reshape(indices.shape)
        grad = np.zeros((n * c, h * w))
        np.put_along_axis(grad, indices, up if dropped is None else up * ~dropped, axis=1)
        return (grad.reshape(n, c, h, w),)

    return Tensor._wrap(values.reshape(n, -1), (x,), vjp)


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
    ranked = np.lexsort((flat,), axis=1)  # stable: the (value, index) order
    selected = ranked[:, -cfg.k:]
    dropped = star_idx = out_star = None
    if rng is not None and cfg.rbld_enabled:
        dropped = rng.random(selected.shape) <= rbld_probabilities(cfg.k, cfg.p_min, cfg.p_max)
    out_vec = _gather(x, selected, dropped)

    if rng is not None and cfg.rks_enabled:
        # The sampled cells (the k smallest keys), in top-k's ranking.
        sampled = np.zeros(flat.shape, dtype=bool)
        np.put_along_axis(sampled, np.argpartition(rng.random(flat.shape), cfg.k - 1, axis=1)[:, :cfg.k],
                          True, axis=1)
        star_idx = ranked[np.take_along_axis(sampled, ranked, axis=1)].reshape(-1, cfg.k)
        out_star = _gather(x, star_idx)

    return out_vec, out_star, PooledVectors(selected, star_idx, dropped)


def gap_pool(x: Tensor) -> Tensor:
    """Differentiable batched global average pooling: (N,C,H,W) -> (N,C)."""
    if x.data.ndim != 4:
        raise ShapeError(f"gap_pool input must be NxCxHxW, got rank {x.data.ndim}")
    h, w = x.data.shape[2:]
    return Tensor._wrap(x.data.mean(axis=(2, 3)), (x,),
                        lambda g: (np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).copy(),))


def gmp_pool(x: Tensor) -> Tensor:
    """Differentiable batched global max pooling: (N,C,H,W) -> (N,C).

    The top-1 vector of :func:`tkp_pool`, so ties follow its (value,
    position) order: the gradient goes to the last maximum in row-major
    order.
    """
    return tkp_pool(x, TkpConfig(k=1))[0]
