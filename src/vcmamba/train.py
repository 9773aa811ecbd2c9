"""Training and evaluation loops for the toy task.

The CSV log has columns step,phase,loss,accuracy,grad_norm. Per-step rows
carry phase=train with batch metrics; after the last step one phase=eval row
records full-training-set metrics in eval mode (grad_norm 0.0), so the log's
final entry is exactly what evaluate() reports on the same model and data. A
diverged run ends instead with a phase=diverged row, nan where not measured.

The checkpoint file always holds the most recent finite state: it is
written at initialization, every checkpoint_every steps and at the end
(unless the last step just wrote it). If
the loss or the gradient norm turns non-finite, or the forward pass meets a
non-finite scan delta or state (NonFiniteStateError), the run aborts with
TrainingDiverged before the update and the last written checkpoint stays on
disk untouched. The scan backward checks nothing: a non-finite scan gradient
shows up as a non-finite gradient norm. Before the first save, both output
paths must lie in an existing directory and not be directories themselves
(ValidationError otherwise), and the log is opened and its header written,
so a bad log path cannot replace a checkpoint already on disk.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .checkpoint import save_checkpoint
from .config import TrainConfig, ValidationError
from .data import ToyDataset
from .model import VCMamba, get_preset
from .optim import AdamW
from .ssm import NonFiniteStateError


class TrainingDiverged(RuntimeError):
    """A scan state (the NonFiniteStateError given as state), else the loss,
    else the gradient norm was non-finite."""

    def __init__(self, step: int, loss: float, checkpoint_path: str,
                 grad_norm: float = math.nan, state: NonFiniteStateError | None = None):
        bad = f"gradient norm ({grad_norm})" if math.isfinite(loss) else f"loss ({loss})"
        if state is not None:
            bad = f"model state ({state})"
        super().__init__(f"non-finite {bad} at step {step}; last-good checkpoint "
                         f"retained at {checkpoint_path}")
        self.step = step


@dataclass
class TrainResult:
    steps_run: int
    final_loss: float        # eval-mode mean loss on the training set
    final_accuracy: float    # eval-mode accuracy on the training set
    first_loss: float        # train loss at step 1
    checkpoint_path: str
    log_path: str


def evaluate(model: VCMamba, dataset: ToyDataset, *, batch_size: int = 64) -> tuple[float, float]:
    """Eval-mode mean loss and accuracy over a dataset, in storage order."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval()
    try:
        total_nll = 0.0
        correct = 0
        for start in range(0, len(dataset), batch_size):
            imgs = dataset.images[start:start + batch_size]
            labels = dataset.labels[start:start + batch_size]
            logits = model(Tensor(imgs.astype(model.dtype, copy=False)))
            loss = ad.softmax_cross_entropy(logits, labels)
            total_nll += loss.item() * len(labels)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    finally:
        model.train(was_training)
    return total_nll / len(dataset), correct / len(dataset)


def train(cfg: TrainConfig) -> TrainResult:
    cfg.validate()
    for what, path in (("checkpoint", cfg.checkpoint_path), ("log", cfg.log_path)):
        if os.path.isdir(path):
            raise ValidationError(f"{what} path {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValidationError(f"{what} path {path!r} is in a directory that does not exist")
    spec = get_preset(cfg.preset)
    model = VCMamba(spec, seed=cfg.seed)
    dataset = ToyDataset(cfg.n_samples, seed=cfg.data_seed, resolution=spec.input_resolution)
    opt = AdamW(model.named_parameters(), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2),
                eps=cfg.eps, weight_decay=cfg.weight_decay)
    batch_rng = np.random.default_rng(cfg.seed)

    first_loss = math.nan
    with open(cfg.log_path, "w", newline="") as logfile:
        log = csv.writer(logfile)
        log.writerow(["step", "phase", "loss", "accuracy", "grad_norm"])
        save_checkpoint(model, cfg.checkpoint_path)
        model.train()
        for step in range(1, cfg.steps + 1):
            idx = batch_rng.integers(0, len(dataset), size=cfg.batch_size)
            imgs, labels = dataset.images[idx], dataset.labels[idx]
            loss_val, gnorm, state = math.nan, math.nan, None
            try:
                with Tape():
                    logits = model(Tensor(imgs))
                    loss = ad.softmax_cross_entropy(logits, labels)
                loss_val = loss.item()
                if math.isfinite(loss_val):
                    opt.zero_grad()
                    ad.backward(loss)
                    gnorm = opt.grad_norm()
            except NonFiniteStateError as exc:
                state = exc
            if state is not None or not math.isfinite(gnorm):
                log.writerow([step, "diverged", f"{loss_val:.6f}", "nan", f"{gnorm:.6f}"])
                raise TrainingDiverged(step, loss_val, cfg.checkpoint_path, gnorm, state) from state
            if step == 1:
                first_loss = loss_val
            opt.step()
            acc = float((logits.data.argmax(axis=1) == labels).mean())
            log.writerow([step, "train", f"{loss_val:.6f}", f"{acc:.6f}", f"{gnorm:.6f}"])
            if step % cfg.checkpoint_every == 0:
                save_checkpoint(model, cfg.checkpoint_path)

        if cfg.steps % cfg.checkpoint_every:     # else the last step just saved
            save_checkpoint(model, cfg.checkpoint_path)
        eval_loss, eval_acc = evaluate(model, dataset)
        log.writerow([cfg.steps, "eval", f"{eval_loss:.6f}", f"{eval_acc:.6f}", "0.000000"])

    return TrainResult(steps_run=cfg.steps, final_loss=eval_loss, final_accuracy=eval_acc,
                       first_loss=first_loss, checkpoint_path=cfg.checkpoint_path,
                       log_path=cfg.log_path)
