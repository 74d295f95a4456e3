"""End-to-end detector: residual features -> salience net -> pooling -> head.

One shared affine head scores both the top-k vector and (in training)
the random-sample vector. The training objective is

    total = mean_bce(topk scores) + alpha * mean_bce(random-sample scores)

with alpha weighting the auxiliary term; forward_train reports all
three numbers and the decomposition is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .npr import NprConfig, npr_extract
from .ops import bce_loss_mean, linear
from .pooling import TkpConfig, gap_pool, gmp_pool, tkp_pool
from .snet import OUT_CHANNELS, SNet, SNetConfig
from .tensor import Tensor

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


def _check_finite(image: np.ndarray, what: str) -> None:
    """Reject NaN/inf pixels, which would otherwise score as a label."""
    if not np.isfinite(image).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(image))[0])
        raise DomainError(f"{what} has a non-finite pixel {image[where]} at {where}")


def head_width(pooling: str, k: int) -> int:
    """Length of the vector the head scores: 64*k under top-k pooling, else 64."""
    return OUT_CHANNELS * k if pooling == "tkp" else OUT_CHANNELS


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
        if pooling not in POOLING_VARIANTS:
            raise ConfigError(f"unknown pooling variant {pooling!r}; supported: {POOLING_VARIANTS}")
        if not 0.0 <= decision_threshold <= 1.0:
            raise ConfigError(f"decision_threshold must lie in [0, 1], got {decision_threshold}")
        if alpha < 0.0:
            raise ConfigError(f"alpha must be >= 0, got {alpha}")
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

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward paths ----------------------------------------------------------

    def _forward(self, batch: np.ndarray, rng: np.random.Generator | None
                 ) -> tuple[Tensor, Tensor | None]:
        """npr -> snet -> pool -> head over an (N, 3, H, W) batch: the (N, 1)
        top-k probabilities and, when random-k sampling ran, the random-sample
        probabilities (else None)."""
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

        ``images`` is a sequence of (3, H, W) arrays, ``labels`` matching
        0/1 ints. Gradients are zeroed, then populated on every
        parameter as a side effect; the caller applies the optimizer
        step. Returns per-sample top-k scores, per-sample random-sample
        scores (None unless the variant emits them), and the loss report.
        """
        images = [np.asarray(im, dtype=np.float64) for im in images]
        if len(images) == 0:
            raise ConfigError("forward_train needs a non-empty batch")
        for i, im in enumerate(images):
            _check_finite(im, f"batch image {i}")
        labels = np.asarray(labels)
        if labels.shape != (len(images),):
            raise ShapeError(f"got {len(images)} images but labels shaped {labels.shape}")
        if not np.all((labels == 0) | (labels == 1)):
            raise DomainError("labels must be 0 or 1")

        self.zero_grad()
        probs, star_probs = self._forward(np.stack(images), rng)
        loss_a = bce_loss_mean(probs, labels)
        if star_probs is None:
            total, loss_b_val = loss_a, 0.0
        else:
            loss_b = bce_loss_mean(star_probs, labels)
            total = loss_a + self.alpha * loss_b
            loss_b_val = loss_b.item()
        total.backward()

        report = LossReport(loss_a=loss_a.item(), loss_b=loss_b_val, alpha=self.alpha,
                            total=loss_a.item() + self.alpha * loss_b_val)
        scores = [float(v) for v in probs.data.reshape(-1)]
        star_scores = None if star_probs is None else [float(v) for v in star_probs.data.reshape(-1)]
        return scores, star_scores, report

    def score(self, image: np.ndarray) -> float:
        """Deterministic fake-probability for one (3, H, W) image."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3:
            raise ShapeError(f"score expects one 3xHxW image, got rank {image.ndim}")
        _check_finite(image, "image")
        probs, _ = self._forward(image[None], None)
        return probs.data.reshape(-1)[0]

    def infer(self, image: np.ndarray) -> tuple[float, int]:
        """(probability, hard label) with label = probability >= threshold."""
        p = self.score(image)
        return float(p), int(p >= self.decision_threshold)


def total_param_count(model: LfmModel) -> int:
    """Learnable parameter count: conv stack + head (pooling adds none)."""
    return sum(p.data.size for p in model.parameters())
