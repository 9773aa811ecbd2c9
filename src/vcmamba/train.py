"""Training and evaluation loops for the toy task.

train_step() is the one training step: forward on a fresh tape, loss,
backward, gradient norm and AdamW update. Its step number is AdamW's
step_count, which the update advances. train() runs it cfg.steps times.

The CSV log has columns step,phase,loss,accuracy,grad_norm. Per-step rows
carry phase=train with batch metrics; after the last step one phase=eval row
records full-training-set metrics in eval mode (grad_norm 0.0), so the log's
final entry is exactly what evaluate() reports on the same model and data. A
diverged run ends instead with a phase=diverged row, nan where not measured.

The checkpoint file always holds the most recent finite state: it is
written at initialization, every checkpoint_every steps and at the end
(unless the last step just wrote it). A non-finite scan delta or state
(NonFiniteStateError) or batch-norm running statistic
(NonFiniteStatisticError), loss or gradient norm makes the step raise
TrainingDiverged before the update: the parameters, AdamW and the checkpoint
on disk are untouched (the failed forward's batch-norm running statistics
have moved, but train() never saves them). The scan backward checks nothing:
a non-finite scan gradient shows up as a non-finite gradient norm. Before the
first save, both output paths must lie in an existing directory and not be
directories (ValidationError otherwise), and the log is opened and its header
written, so a bad log path cannot replace a checkpoint already on disk.
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
from .nn import ModuleError
from .optim import AdamW


class TrainingDiverged(RuntimeError):
    """A step met a non-finite value (fault, e.g. "loss (nan)") and stopped
    before the update. loss and grad_norm are nan where not reached; train()
    fills in checkpoint_path, the last-good checkpoint, in place."""

    checkpoint_path: str | None = None

    def __init__(self, fault: str, step: int, loss: float = math.nan, grad_norm: float = math.nan):
        super().__init__(fault, step, loss, grad_norm)
        self.fault, self.step, self.loss, self.grad_norm = fault, step, loss, grad_norm

    def __str__(self) -> str:
        text = f"non-finite {self.fault} at step {self.step}"
        if self.checkpoint_path is not None:
            text += f"; last-good checkpoint retained at {self.checkpoint_path}"
        return text


@dataclass
class TrainResult:
    final_loss: float        # eval-mode mean loss on the training set
    final_accuracy: float    # eval-mode accuracy on the training set
    first_loss: float        # train loss at step 1


def train_step(model: VCMamba, opt: AdamW, images: np.ndarray,
               labels: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Step opt.step_count + 1 on one batch, in the model's dtype; returns
    (loss, grad_norm, logits array). Raises TrainingDiverged before the
    update on a non-finite model state (a ModuleError: scan state or batch-norm
    running statistic), loss or gradient norm."""
    step = opt.step_count + 1
    try:
        with Tape():
            logits = model(Tensor(images, dtype=model.dtype))
            loss = ad.softmax_cross_entropy(logits, labels)
    except ModuleError as exc:
        raise TrainingDiverged(f"model state ({exc})", step) from exc
    loss_val = loss.item()
    if not math.isfinite(loss_val):
        raise TrainingDiverged(f"loss ({loss_val})", step, loss_val)
    opt.zero_grad()
    ad.backward(loss)
    gnorm = opt.grad_norm()
    if not math.isfinite(gnorm):
        raise TrainingDiverged(f"gradient norm ({gnorm})", step, loss_val, gnorm)
    opt.step()
    return loss_val, gnorm, logits.data


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
        while opt.step_count < cfg.steps:
            idx = batch_rng.integers(0, len(dataset), size=cfg.batch_size)
            imgs, labels = dataset.images[idx], dataset.labels[idx]
            try:
                loss, gnorm, logits = train_step(model, opt, imgs, labels)
            except TrainingDiverged as err:
                log.writerow([err.step, "diverged", f"{err.loss:.6f}", "nan",
                              f"{err.grad_norm:.6f}"])
                err.checkpoint_path = cfg.checkpoint_path
                raise
            step = opt.step_count
            if step == 1:
                first_loss = loss
            acc = float((logits.argmax(axis=1) == labels).mean())
            log.writerow([step, "train", f"{loss:.6f}", f"{acc:.6f}", f"{gnorm:.6f}"])
            if step % cfg.checkpoint_every == 0:
                save_checkpoint(model, cfg.checkpoint_path)

        if cfg.steps % cfg.checkpoint_every:     # else the last step just saved
            save_checkpoint(model, cfg.checkpoint_path)
        eval_loss, eval_acc = evaluate(model, dataset)
        log.writerow([cfg.steps, "eval", f"{eval_loss:.6f}", f"{eval_acc:.6f}", "0.000000"])

    return TrainResult(final_loss=eval_loss, final_accuracy=eval_acc, first_loss=first_loss)
