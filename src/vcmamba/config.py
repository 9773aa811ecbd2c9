"""Training configuration: flat key = value sections, stdlib configparser.

Grammar (every key optional, defaults shown):

    [model]
    preset = nano            # one of S, M, B, nano

    [optimizer]
    lr = 1e-3
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    weight_decay = 0.05

    [train]
    batch_size = 32
    steps = 2000
    seed = 0
    checkpoint_every = 100
    checkpoint = vcmamba.ckpt
    log = train_log.csv

    [data]
    n_samples = 512
    seed = 0

Comments start with # or ; (also inline). Interpolation is disabled. Unknown
sections ([DEFAULT] is not special) or keys, out-of-range or non-finite
values, a checkpoint and log that resolve to the same file and a log that is
the checkpoint's temporary file (<checkpoint>.tmp, written by each save)
raise ValidationError before any training work starts. Whether the paths
can be written is train()'s check, so a config may name a directory that
does not exist yet.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields

from .model import PRESETS


class ValidationError(ValueError):
    """Bad user-supplied configuration or arguments."""


@dataclass
class TrainConfig:
    preset: str = "nano"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05
    batch_size: int = 32
    steps: int = 2000
    seed: int = 0
    checkpoint_every: int = 100
    checkpoint_path: str = "vcmamba.ckpt"
    log_path: str = "train_log.csv"
    n_samples: int = 512
    data_seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.preset not in PRESETS:
            raise ValidationError(f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if self.lr < 0:
            raise ValidationError(f"lr must be >= 0, got {self.lr}")
        if not (0 <= self.beta1 < 1) or not (0 <= self.beta2 < 1):
            raise ValidationError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.checkpoint_every < 1:
            raise ValidationError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        for key, seed in (("[train] seed", self.seed), ("[data] seed", self.data_seed)):
            if seed < 0:
                raise ValidationError(f"{key} must be >= 0, got {seed}")
        if not self.checkpoint_path or not self.log_path:
            raise ValidationError("checkpoint and log paths must be non-empty")
        log = os.path.realpath(self.log_path)
        if log == os.path.realpath(self.checkpoint_path):
            raise ValidationError(f"checkpoint and log are the same file: {self.log_path!r}")
        if log == os.path.realpath(f"{self.checkpoint_path}.tmp"):
            raise ValidationError(f"log {self.log_path!r} is the checkpoint's temporary file")
        return self


# section -> key -> TrainConfig field; a key's value is cast to the type of its field's default
_SCHEMA = {
    "model": {"preset": "preset"},
    "optimizer": {"lr": "lr", "beta1": "beta1", "beta2": "beta2", "eps": "eps",
                  "weight_decay": "weight_decay"},
    "train": {"batch_size": "batch_size", "steps": "steps", "seed": "seed",
              "checkpoint_every": "checkpoint_every", "checkpoint": "checkpoint_path",
              "log": "log_path"},
    "data": {"n_samples": "n_samples", "seed": "data_seed"},
}


def load_train_config(path: str) -> TrainConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"malformed config file {path!r}: {exc}") from exc

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown config section [{section}]; expected one of "
                                  f"{sorted(_SCHEMA)}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValidationError(f"unknown key {key!r} in section [{section}]; expected "
                                      f"one of {sorted(_SCHEMA[section])}")
            field_name = _SCHEMA[section][key]
            caster = type(getattr(TrainConfig, field_name))   # its default's type
            try:
                values[field_name] = caster(raw) if caster is not str else raw.strip()
            except ValueError as exc:
                raise ValidationError(f"[{section}] {key} = {raw!r} is not a valid "
                                      f"{caster.__name__}") from exc
    return TrainConfig(**values).validate()
