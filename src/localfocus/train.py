"""Training loop, evaluation, and throughput benchmarking.

Determinism contract: a fixed (config seed, dataset) pair fully
determines parameter initialization, per-epoch shuffles (one
permutation per epoch drawn from a dedicated substream), the pooling
RNG for every step, and therefore every checkpoint byte. Inference is
deterministic by construction and ignores the stochastic flags.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SampleRecord
from .errors import ConfigError, DomainError, StateError, require_bool, require_int, require_real
from .metrics import EvalReport, accuracy, average_precision
from .model import POOLING_VARIANTS, LfmModel, _check_input_size, total_param_count
from .optim import Adam
from .pooling import TkpConfig
from .snet import SNetConfig

_SHUFFLE_TAG = 101
_STEP_TAG = 202


@dataclass
class TrainConfig:
    """Run settings for :func:`train`.

    ``rbld``/``rks`` default to None meaning "as the ``TkpConfig`` given
    to :func:`build_model` says (on by default) when pooling is tkp, off
    otherwise"; requesting them with a non-tkp pooling variant is a
    contradiction and rejected.
    """

    lr: float = Adam.lr
    batch_size: int = 32
    epochs: int = 1
    seed: int = 0
    pooling: str = "tkp"
    rbld: bool | None = None
    rks: bool | None = None

    def __post_init__(self):
        require_real("lr", self.lr)
        require_int("batch_size", self.batch_size, minimum=1)
        require_int("epochs", self.epochs, minimum=1)
        require_int("seed", self.seed, minimum=0)
        for name in ("rbld", "rks"):
            if getattr(self, name) is not None:
                require_bool(name, getattr(self, name))
        if self.pooling not in POOLING_VARIANTS:
            raise ConfigError(f"unknown pooling variant {self.pooling!r}")
        if self.pooling != "tkp" and (self.rbld or self.rks):
            raise ConfigError("rbld/rks only apply to tkp pooling")


@dataclass
class TrainResult:
    """Final model, best-epoch snapshot, and the per-epoch loss curve."""

    model: LfmModel
    best_model: LfmModel
    best_epoch: int
    epoch_losses: list[float] = field(default_factory=list)


def _check_dataset(dataset: list[SampleRecord], snet_cfg: SNetConfig, pooling: str, k: int) -> None:
    """Refuse a dataset that is empty, lacks a class, or holds an image size
    the model these settings describe cannot score."""
    if len(dataset) == 0:
        raise ConfigError("train needs a non-empty dataset")
    labels_present = {rec.label for rec in dataset}
    if labels_present != {0, 1}:
        raise ConfigError(f"train needs both classes present, got labels {sorted(labels_present)}")
    for h, w in dict.fromkeys(rec.image.shape[-2:] for rec in dataset):
        _check_input_size(snet_cfg, pooling, k, h, w)


def train(model: LfmModel, dataset: list[SampleRecord], cfg: TrainConfig) -> TrainResult:
    """Optimize ``model`` in place over ``dataset``.

    The epoch loss recorded (and used to pick the best snapshot) is the
    sample-weighted mean of the per-batch totals. The best snapshot is a
    deep copy of the model at its lowest epoch loss, or of the initial
    model when no epoch loss is finite.
    """
    _check_dataset(dataset, model.snet_cfg, model.pooling, model.tkp_cfg.k)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    shuffle_rng = np.random.default_rng((cfg.seed, _SHUFFLE_TAG))
    n = len(dataset)
    best_loss = float("inf")
    best_epoch = -1
    best_model = copy.deepcopy(model)
    epoch_losses: list[float] = []

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            images = [dataset[i].image for i in idx]
            labels = [dataset[i].label for i in idx]
            step_rng = np.random.default_rng((cfg.seed, _STEP_TAG, epoch, step))
            _, _, report = model.forward_train(images, labels, step_rng)
            try:
                optimizer.step()
            except StateError as e:
                raise StateError(f"epoch {epoch} step {step}, parameter "
                                 f"{model.parameter_names()[e.index]}: {e}", e.index) from e
            loss_sum += report.total * len(idx)
        epoch_loss = loss_sum / n
        epoch_losses.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_epoch = epoch
            best_model = copy.deepcopy(model)

    return TrainResult(model=model, best_model=best_model, best_epoch=best_epoch,
                       epoch_losses=epoch_losses)


def build_model(cfg: TrainConfig, *, tkp_cfg: TkpConfig | None = None, **model_kwargs) -> LfmModel:
    """Construct the model a :class:`TrainConfig` describes.

    This is where ``cfg.rbld``/``cfg.rks`` become the model's
    ``TkpConfig`` flags. Unset, they keep ``tkp_cfg``'s flags under tkp
    pooling and are off under gap/gmp. Other keyword arguments
    (``npr_cfg``, ``snet_cfg``, ``decision_threshold``, ``alpha``) go to
    :class:`LfmModel` unchanged.
    """
    tkp = tkp_cfg or TkpConfig()
    on = cfg.pooling == "tkp"
    tkp = replace(tkp,
                  rbld_enabled=(on and tkp.rbld_enabled) if cfg.rbld is None else cfg.rbld,
                  rks_enabled=(on and tkp.rks_enabled) if cfg.rks is None else cfg.rks)
    return LfmModel(tkp_cfg=tkp, pooling=cfg.pooling, seed=cfg.seed, **model_kwargs)


def evaluate(model: LfmModel, dataset: list[SampleRecord]) -> EvalReport:
    """Score every sample deterministically and summarize.

    The report carries no timing, so it is byte-reproducible;
    ``perfbench/run.py`` measures throughput.
    """
    if len(dataset) == 0:
        raise ConfigError("evaluate needs a non-empty dataset")
    scores = [(model.score(rec.image), rec.label) for rec in dataset]
    return EvalReport(
        acc=accuracy(scores, model.decision_threshold),
        ap=average_precision(scores),
        n_real=sum(1 for rec in dataset if rec.label == 0),
        n_fake=sum(1 for rec in dataset if rec.label == 1),
        params=total_param_count(model),
    )


@dataclass
class BenchReport:
    """Measured inference throughput."""

    images_per_second: float


def bench(model: LfmModel, images: list[np.ndarray], batch_size: int = 32,
          workers: int = 1) -> BenchReport:
    """Time steady-state inference over ``images`` as ``images_per_second``.

    Needs at least 100 images for a stable estimate. After a short
    warmup, ``workers`` threads score ``batch_size`` chunks with the same
    deterministic code as :func:`evaluate` and discard the scores.
    """
    if len(images) < 100:
        raise DomainError(f"bench needs >= 100 images for stable timing, got {len(images)}")
    require_int("batch_size", batch_size, minimum=1)
    require_int("workers", workers, minimum=1)

    for img in images[:8]:
        model.score(img)

    chunks = [images[i:i + batch_size] for i in range(0, len(images), batch_size)]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda chunk: [model.score(img) for img in chunk], chunks))
    return BenchReport(images_per_second=len(images) / (time.perf_counter() - start))


def save_loss_curve(losses: list[float], path: str) -> None:
    """Write ``epoch<TAB>loss`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, loss in enumerate(losses):
            fh.write(f"{i}\t{loss!r}\n")
