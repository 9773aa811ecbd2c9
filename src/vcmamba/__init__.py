"""Hybrid convolutional / selective state-space vision backbone.

Convolutional stem and FFN stages for local features, a final stage that
interleaves four-direction selective-scan mixing blocks with FFN blocks for
global context. Everything runs on a self-contained numpy reverse-mode
autodiff engine; training, evaluation, checkpointing and diagnostics are
exposed through the `vcmamba` command-line tool.
"""

from .autodiff import DEFAULT_DTYPE, AutodiffError, ShapeMismatch, Tape, Tensor, backward
from .checkpoint import (CheckpointError, CheckpointFormatError, CheckpointIntegrityError,
                         CheckpointVersionError, load_checkpoint, save_checkpoint)
from .config import TrainConfig, ValidationError, load_train_config
from .data import ToyDataset, render_sample
from .gradcheck import GradCheckReport, finite_diff_check
from .model import PRESETS, ModelSpec, VCMamba, count_macs, count_params, get_preset
from .optim import AdamW
from .scanpath import Direction, PathId, ScanPath, build_path, path_table
from .ssm import (NonFiniteStateError, ScanInputs, SsmParams, direction_aware_scan,
                  directional_scan_sum, selective_projection, selective_scan_parallel,
                  selective_scan_sequential)
from .train import TrainingDiverged, TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AutodiffError", "CheckpointError", "CheckpointFormatError",
    "CheckpointIntegrityError", "CheckpointVersionError", "DEFAULT_DTYPE", "Direction",
    "GradCheckReport", "ModelSpec", "NonFiniteStateError", "PRESETS", "PathId", "ScanInputs",
    "ScanPath", "ShapeMismatch", "SsmParams", "Tape", "Tensor", "ToyDataset", "TrainConfig",
    "TrainResult", "TrainingDiverged", "VCMamba", "ValidationError", "backward",
    "count_macs", "count_params", "direction_aware_scan", "directional_scan_sum",
    "evaluate", "finite_diff_check", "get_preset", "load_checkpoint", "load_train_config",
    "path_table", "render_sample", "save_checkpoint",
    "selective_projection", "selective_scan_parallel", "selective_scan_sequential", "train",
    "build_path",
]
