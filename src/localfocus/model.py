"""End-to-end detector: residual features -> salience net -> pooling -> head.

One shared affine head scores both the top-k vector and (in training)
the random-sample vector. The training objective is

    total = mean_bce(topk scores) + alpha * mean_bce(random-sample scores)

with alpha weighting the auxiliary term; forward_train reports all
three numbers and the decomposition is exact by construction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, require_finite_pixels, require_int, require_real
from .npr import NprConfig, _check_grid, npr_extract
from .ops import _check_labels, bce_loss_mean, linear
from .pooling import TkpConfig, gap_pool, gmp_pool, tkp_pool
from .snet import OUT_CHANNELS, SNet, SNetConfig, output_shape
from .tensor import Tensor, buffer, reuse_buffers

POOLING_VARIANTS = ("tkp", "gap", "gmp")
DEFAULT_ALPHA = 0.1
DEFAULT_THRESHOLD = 0.5


@dataclass
class LossReport:
    """Scalar losses from one training batch; total = loss_a + alpha*loss_b."""

    loss_a: float
    loss_b: float
    alpha: float
    total: float


def _batch(images, dtype) -> np.ndarray:
    """Cast (3, H, W) images into the (N, 3, H, W) ``dtype`` batch ``buffer``
    draws: the model path's one cast, whose dtype every op below the head follows.

    Rejects an empty batch, a wrong rank, an image shaped unlike image 0,
    and a pixel the cast leaves NaN or infinite (a float32 batch turns one
    beyond its range infinite), which would otherwise score as a label.
    """
    images = [np.asarray(im, dtype=np.float64) for im in images]
    if not images:
        raise ConfigError("a batch needs at least one image")
    for i, im in enumerate(images):
        if im.ndim != 3:
            raise ShapeError(f"image {i} must be one 3xHxW image, got rank {im.ndim}")
        if im.shape != images[0].shape:
            raise ShapeError(f"image {i} has shape {im.shape}, unlike image 0 with {images[0].shape}")
    batch = buffer((len(images),) + images[0].shape, dtype)
    with np.errstate(over="ignore"):
        np.stack(images, out=batch)
    for i, (im, cast) in enumerate(zip(images, batch)):
        require_finite_pixels(f"image {i}", cast, im)
    return batch


def head_width(pooling: str, k: int) -> int:
    """Length of the vector the head scores: 64*k under top-k pooling, else 64."""
    return OUT_CHANNELS * (k if pooling == "tkp" else 1)


def _check_settings(pooling: str, decision_threshold: float, alpha: float, seed: int) -> None:
    """Refuse a setting :class:`LfmModel` cannot take, before it allocates anything."""
    if pooling not in POOLING_VARIANTS:
        raise ConfigError(f"unknown pooling variant {pooling!r}; supported: {POOLING_VARIANTS}")
    require_real("decision_threshold", decision_threshold, high=1.0)
    require_real("alpha", alpha)
    require_int("seed", seed, minimum=0)


def _check_input_size(snet_cfg: SNetConfig, pooling: str, k: int, h: int, w: int) -> None:
    """Refuse an h x w input with an odd side or fewer final values than the
    head reads, naming the smallest even square side the model scores.
    It needs only the settings, so a caller can ask before building the head."""

    def fits(h: int, w: int) -> bool:
        shape = output_shape(snet_cfg, h, w)
        return shape is not None and math.prod(shape) >= head_width(pooling, k)

    _check_grid(h, w)
    if not fits(h, w):
        hi = 2  # values only grow with the side: double past the answer, then bisect
        while not fits(hi, hi):
            hi *= 2
        sides = range(2, hi + 1, 2)
        side = sides[bisect.bisect_left(sides, True, key=lambda s: fits(s, s))]
        raise ShapeError(f"a {h}x{w} input is too small for this model; "
                         f"the smallest side it scores is {side}")


class LfmModel:
    """Detector with a configurable pooling variant.

    ``pooling`` selects top-k ("tkp", the real model) or a global
    average/max baseline ("gap"/"gmp") over the same salience net; the
    head width follows the choice (:func:`head_width`). All parameters are
    initialized deterministically from ``seed``.
    """

    def __init__(self, npr_cfg: NprConfig | None = None,
                 snet_cfg: SNetConfig | None = None,
                 tkp_cfg: TkpConfig | None = None,
                 pooling: str = "tkp",
                 decision_threshold: float = DEFAULT_THRESHOLD,
                 alpha: float = DEFAULT_ALPHA,
                 seed: int = 0):
        _check_settings(pooling, decision_threshold, alpha, seed)
        self.npr_cfg = npr_cfg or NprConfig()
        self.snet_cfg = snet_cfg or SNetConfig()
        self.tkp_cfg = tkp_cfg or TkpConfig()
        self.pooling = pooling
        self.decision_threshold = float(decision_threshold)
        self.alpha = float(alpha)

        rng = np.random.default_rng((seed, 0))
        self.snet = SNet(self.snet_cfg, rng)
        width = head_width(pooling, self.tkp_cfg.k)
        self.fc_weight = Tensor(rng.normal(0.0, 1.0 / np.sqrt(width), size=(1, width)),
                                requires_grad=True)
        self.fc_bias = Tensor(np.zeros(1), requires_grad=True)

    # -- parameters -----------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        """All learnable tensors in fixed declaration order (conv stack
        weight/bias pairs, then head weight, then head bias)."""
        return self.snet.parameters() + [self.fc_weight, self.fc_bias]

    def parameter_names(self) -> list[str]:
        """Names in :meth:`parameters` order: conv1.weight, conv1.bias, ...,
        head.weight, head.bias."""
        layers = [f"conv{i}" for i in range(1, len(self.snet.layers) + 1)] + ["head"]
        return [f"{layer}.{kind}" for layer in layers for kind in ("weight", "bias")]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward paths ----------------------------------------------------------

    def _forward(self, images, rng: np.random.Generator | None,
                 dtype=np.float64) -> tuple[Tensor, Tensor | None]:
        """npr -> snet -> pool -> head over (3, H, W) images: the (N, 1) top-k
        probabilities and, when random-k sampling ran, the random-sample ones
        (else None). ``_batch`` casts the images to ``dtype``, and every op
        below the head follows it; the head's float64 weight makes its output
        float64. Its arrays come from ``reuse_buffers()``, so the recorded
        graph must be walked before this thread's next forward of ``dtype``."""
        with reuse_buffers():
            batch = _batch(images, dtype)
            _check_input_size(self.snet_cfg, self.pooling, self.tkp_cfg.k, *batch.shape[-2:])
            maps = self.snet.forward(npr_extract(Tensor(batch), self.npr_cfg))
            if self.pooling == "tkp":
                vec, star, _ = tkp_pool(maps, self.tkp_cfg, rng)
            else:
                vec, star = (gap_pool(maps) if self.pooling == "gap" else gmp_pool(maps)), None
            probs = linear(vec, self.fc_weight, self.fc_bias).sigmoid()
            return probs, None if star is None else linear(star, self.fc_weight, self.fc_bias).sigmoid()

    def forward_train(self, images, labels, rng: np.random.Generator
                      ) -> tuple[list[float], list[float] | None, LossReport]:
        """One training forward+backward pass over a batch.

        ``images`` is a sequence of (3, H, W) arrays, ``labels`` matching 0/1
        ints. Gradients are zeroed after the forward (a refused batch leaves
        them as they were) and populated on every parameter; the caller
        applies the optimizer step. The forward's arrays stay with the thread
        until its next forward. Returns per-sample top-k scores, per-sample
        random-sample scores (None unless the variant emits them), the report.
        """
        labels = np.asarray(labels)
        if labels.shape != (len(images),):
            raise ShapeError(f"got {len(images)} images but labels shaped {labels.shape}")
        _check_labels(labels)

        probs, star_probs = self._forward(images, rng)
        self.zero_grad()
        loss_a = bce_loss_mean(probs, labels)
        if star_probs is None:
            total, loss_b_val = loss_a, 0.0
        else:
            loss_b = bce_loss_mean(star_probs, labels)
            total = loss_a + self.alpha * loss_b
            loss_b_val = loss_b.item()
        total.backward()

        report = LossReport(loss_a=loss_a.item(), loss_b=loss_b_val, alpha=self.alpha,
                            total=total.item())
        scores = [float(v) for v in probs.data.reshape(-1)]
        star_scores = None if star_probs is None else [float(v) for v in star_probs.data.reshape(-1)]
        return scores, star_scores, report

    def score(self, image: np.ndarray) -> float:
        """Deterministic fake-probability for one (3, H, W) image.

        Everything below the head runs in float32 and the head in float64:
        the score is a float64 within about 1e-7 of a float64 forward. Only
        a scalar copy leaves: the forward's arrays stay with the thread
        until its next score. The recorded graph is freed on return.
        """
        probs, _ = self._forward([image], None, np.float32)
        return probs.data.reshape(-1)[0]

    def infer(self, image: np.ndarray) -> tuple[float, int]:
        """(probability, hard label) with label = probability >= threshold."""
        p = self.score(image)
        return float(p), int(p >= self.decision_threshold)


def total_param_count(model: LfmModel) -> int:
    """Learnable parameter count: conv stack + head (pooling adds none)."""
    return sum(p.data.size for p in model.parameters())
