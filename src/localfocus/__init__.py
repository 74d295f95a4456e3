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
from .gradcheck import check_gradient, numeric_gradient, relative_error
from .metrics import EvalReport, accuracy, average_precision
from .model import LfmModel, LossReport, total_param_count
from .npr import NprConfig, npr_extract
from .ops import bce_loss_mean, conv2d, linear, maxpool2d
from .optim import Adam
from .pooling import (PooledVectors, TkpConfig, gap_pool, gmp_pool,
                      rbld_probabilities, tkp_pool, topk_ascending)
from .ppm import load_ppm, save_ppm
from .snet import (SNet, SNetConfig, output_shape, receptive_field,
                   snet_param_count)
from .tensor import Tensor
from .train import (BenchReport, TrainConfig, TrainResult, bench, build_model,
                    evaluate, train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "BenchReport", "ConfigError", "DatasetManifest",
    "DomainError", "EvalReport", "LfmModel", "LossReport", "NprConfig",
    "ParseError", "PooledVectors", "SNet", "SNetConfig", "SampleRecord",
    "ShapeError", "StateError", "Tensor", "TkpConfig", "TrainConfig",
    "TrainResult", "accuracy", "average_precision",
    "bce_loss_mean", "bench", "build_model", "check_gradient", "conv2d",
    "evaluate", "gap_pool", "gen_fake", "gen_real", "gmp_pool", "linear",
    "load_checkpoint", "load_dataset", "load_ppm", "maxpool2d", "npr_extract",
    "numeric_gradient", "output_shape", "rbld_probabilities", "read_manifest",
    "receptive_field", "relative_error", "save_checkpoint", "save_ppm",
    "snet_param_count", "tkp_pool", "topk_ascending", "total_param_count",
    "train", "write_manifest",
]
