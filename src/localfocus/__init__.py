"""Deepfake detection from local pixel-resampling artifacts.

The pipeline: residual features that expose generator upsampling
(npr), a small conv salience net (snet), top-k pooling with rank-based
dropout and a random-sample auxiliary vector (pooling), and a shared
affine head (model). Training runs on a minimal float64 autograd
(tensor, ops, optim) with deterministic seeding throughout (train).
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DatasetManifest, SampleRecord, gen_fake, gen_real,
                   load_dataset, read_manifest, write_manifest)
from .errors import (ConfigError, DomainError, ParseError, ShapeError,
                     StateError)
from .gradcheck import check_gradient
from .metrics import accuracy, average_precision
from .model import LfmModel
from .npr import NprConfig, npr_extract
from .ops import bce_loss_mean, conv2d, linear, maxpool2d
from .optim import Adam
from .pooling import TkpConfig, gap_pool, gmp_pool, tkp_pool
from .ppm import load_ppm, save_ppm
from .snet import SNet, SNetConfig
from .tensor import Tensor
from .train import TrainConfig, bench, build_model, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "ConfigError", "DatasetManifest", "DomainError", "LfmModel",
    "NprConfig", "ParseError", "SNet", "SNetConfig", "SampleRecord",
    "ShapeError", "StateError", "Tensor", "TkpConfig", "TrainConfig",
    "accuracy", "average_precision",
    "bce_loss_mean", "bench", "build_model", "check_gradient", "conv2d",
    "evaluate", "gap_pool", "gen_fake", "gen_real", "gmp_pool", "linear",
    "load_checkpoint", "load_dataset", "load_ppm", "maxpool2d", "npr_extract",
    "read_manifest", "save_checkpoint", "save_ppm", "tkp_pool",
    "train", "write_manifest",
]
