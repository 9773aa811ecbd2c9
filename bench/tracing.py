"""Instrumentation of the vcmamba package, applied from outside at run time.

Nothing in ``src/`` is edited. Two levels:

StepClock
    The two hooks the untraced ``nano_train`` run needs to time the steps
    of the public ``train()``: ``Tape.__enter__`` starts a step and the
    return of ``AdamW.step`` ends it. Negligible cost.

Tracer
    One span per call of ``nn.Module.__call__``, of each autodiff op, of
    every vjp recorded through ``autodiff.record`` (timed under its op
    name), of ``autodiff.backward``, of the scan, scan-path, optimizer,
    data, checkpoint and training entry points. Spans stay in memory;
    ``summary()`` turns them into per-layer metrics.

A span carries the metric keys its duration adds to, its parent span and
the operation (train step or eval forward) it falls in. The benchmark loop
opens one root span per operation; per-layer times are inclusive span
durations inside operations, divided by the number of operations. Self
times (duration minus the children's durations) sum, over an operation,
to its wall time less the glue between spans; ``summary()`` reports that
unattributed share so missing instrumentation shows.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

from vcmamba import autodiff, checkpoint, data, nn, optim, scanpath, ssm
from vcmamba.model import VCMamba

# the package re-exports the function train(), which hides the module
train_module = importlib.import_module("vcmamba.train")

# autodiff ops timed forward under autodiff.fwd_s.<op>
AUTODIFF_OPS = ("add", "sub", "mul", "scale", "add_scalar", "sum_all", "mean_all", "reshape",
                "moveaxis", "take_last", "relu", "gelu", "silu", "softplus", "linear", "conv2d",
                "depthwise_conv2d", "batch_norm", "layer_norm", "add_map", "global_avg_pool",
                "bilinear_resize", "softmax_cross_entropy")
SCAN_FUNCTIONS = ("direction_aware_scan", "selective_scan_sequential", "selective_scan_parallel")


def _patch(saved: list, owner, name: str, replacement) -> None:
    """Replace owner.name and every vcmamba module global bound to the same
    object (covers ``from .x import name`` in other modules)."""
    original = getattr(owner, name)
    targets = [owner]
    if not isinstance(owner, type):
        targets += [m for key, m in list(sys.modules.items())
                    if (key == "vcmamba" or key.startswith("vcmamba.")) and m is not owner
                    and getattr(m, name, None) is original]
    for target in targets:
        saved.append((target, name, original))
        setattr(target, name, replacement)


def _restore(saved: list) -> None:
    while saved:
        target, name, original = saved.pop()
        setattr(target, name, original)


class StepClock:
    """Start and end times of the train steps run inside ``train()``."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._saved: list = []

    def install(self) -> None:
        enter, step = autodiff.Tape.__enter__, optim.AdamW.step

        @functools.wraps(enter)
        def timed_enter(tape):
            self.starts.append(perf_counter())
            return enter(tape)

        @functools.wraps(step)
        def timed_step(opt):
            step(opt)
            self.ends.append(perf_counter())

        _patch(self._saved, autodiff.Tape, "__enter__", timed_enter)
        _patch(self._saved, optim.AdamW, "step", timed_step)

    def uninstall(self) -> None:
        _restore(self._saved)


class Tracer:
    def __init__(self):
        self.keys: list[tuple] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.n_ops = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.tape_nodes: list[int] = []
        self.tapes_alive_max = 0
        self._tapes: list[weakref.ref] = []
        self._stack: list[int] = []
        self._open_op = -1
        self._labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list = []
        self._path_table_base = None

    # -- spans ------------------------------------------------------------
    def begin(self, keys: tuple) -> int:
        i = len(self.t0)
        self.keys.append(keys)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._open_op)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        """Close span i and any span still open inside it (an operation
        root left open by a step that raised is closed, not counted)."""
        t = perf_counter()
        while self._stack:
            j = self._stack.pop()
            self.t1[j] = t
            if j == self._open_op:
                self._open_op = -1
            if j == i:
                break

    def begin_op(self) -> None:
        self._open_op = self.begin(("op",))

    def end_op(self) -> None:
        if self._open_op >= 0:
            self.end(self._open_op)
            self.n_ops += 1

    def _in_op(self) -> bool:
        return self._open_op >= 0

    def _wrap(self, fn, keys):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(keys)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return wrapper

    # -- install ----------------------------------------------------------
    def install(self, *, train_steps_are_ops: bool = False) -> None:
        """Wrap the package. With train_steps_are_ops, each step of the
        public train() loop (Tape entry to AdamW.step return) is an
        operation root; otherwise the benchmark loop calls begin_op/end_op."""
        if self._path_table_base is None:
            info = scanpath.path_table.cache_info()
            self._path_table_base = (info.hits, info.misses)
        saved = self._saved

        for name in AUTODIFF_OPS:
            _patch(saved, autodiff, name,
                   self._wrap(getattr(autodiff, name), (f"autodiff.fwd_s.{name}",)))
        _patch(saved, autodiff, "record", self._timed_record(autodiff.record))
        _patch(saved, autodiff, "backward", self._timed_backward(autodiff.backward))

        for name in SCAN_FUNCTIONS:
            _patch(saved, ssm, name, self._timed_scan(getattr(ssm, name)))
        _patch(saved, ssm, "selective_projection",
               self._wrap(ssm.selective_projection, ("ssm.projection_fwd_s",)))
        _patch(saved, scanpath, "gather_tokens",
               self._wrap(scanpath.gather_tokens, ("scanpath.gather_s",)))
        _patch(saved, scanpath, "scatter_tokens",
               self._wrap(scanpath.scatter_tokens, ("scanpath.scatter_s",)))

        _patch(saved, nn.Module, "__call__", self._timed_module_call(nn.Module.__call__))
        _patch(saved, optim.AdamW, "zero_grad",
               self._wrap(optim.AdamW.zero_grad, ("optim.zero_grad_s", "train.optim_s")))
        _patch(saved, optim.AdamW, "grad_norm",
               self._wrap(optim.AdamW.grad_norm, ("optim.grad_norm_s", "train.optim_s")))

        step = optim.AdamW.step
        timed_step = self._wrap(step, ("optim.step_s", "train.optim_s"))
        if train_steps_are_ops:
            enter = autodiff.Tape.__enter__

            @functools.wraps(enter)
            def op_enter(tape):
                result = enter(tape)
                self.begin_op()
                return result

            @functools.wraps(step)
            def op_step(opt):
                timed_step(opt)
                self.end_op()

            _patch(saved, autodiff.Tape, "__enter__", self._counted_enter(op_enter))
            _patch(saved, optim.AdamW, "step", op_step)
        else:
            _patch(saved, autodiff.Tape, "__enter__",
                   self._counted_enter(autodiff.Tape.__enter__))
            _patch(saved, optim.AdamW, "step", timed_step)

        _patch(saved, data.ToyDataset, "__post_init__", self._timed_dataset(
            data.ToyDataset.__post_init__))
        _patch(saved, checkpoint, "save_checkpoint",
               self._timed_save(checkpoint.save_checkpoint))
        _patch(saved, checkpoint, "load_checkpoint",
               self._wrap(checkpoint.load_checkpoint, ("checkpoint.load_s",)))
        _patch(saved, train_module, "evaluate",
               self._wrap(train_module.evaluate, ("train.eval_s",)))
        _patch(saved, train_module, "train", self._wrap(train_module.train, ("train.train",)))

    def uninstall(self) -> None:
        _restore(self._saved)
        if self._open_op >= 0:
            self.end(self._open_op)

    def _timed_record(self, record):
        scan_ops = set(SCAN_FUNCTIONS)

        @functools.wraps(record)
        def timed(op, out, inputs, vjp):
            keys = ("ssm.scan_vjp_s",) if op in scan_ops else (f"autodiff.vjp_s.{op}",)

            def timed_vjp(g):
                i = self.begin(keys)
                try:
                    return vjp(g)
                finally:
                    self.end(i)
            return record(op, out, inputs, timed_vjp)
        return timed

    def _timed_backward(self, backward):
        @functools.wraps(backward)
        def timed(loss):
            if loss._tape is not None and self._in_op():
                self.tape_nodes.append(len(loss._tape))
            i = self.begin(("autodiff.backward_s", "train.backward_s"))
            try:
                return backward(loss)
            finally:
                self.end(i)
        return timed

    def _counted_enter(self, enter):
        """Count the Tapes of earlier steps that are still alive (the
        reference cycle Tensor._tape -> Tape._nodes -> out keeps each one
        until the cyclic collector runs)."""
        @functools.wraps(enter)
        def counted(tape):
            self._tapes = [r for r in self._tapes if r() is not None]
            self.tapes_alive_max = max(self.tapes_alive_max, len(self._tapes))
            self._tapes.append(weakref.ref(tape))
            return enter(tape)
        return counted

    def _timed_scan(self, scan):
        @functools.wraps(scan)
        def timed(inputs, params, **kwargs):
            if self._in_op():
                b, d, l = inputs.x.shape
                self.counts["ssm.scan_calls"] += 1
                self.counts["ssm.scan_elements"] += b * d * inputs.b_seq.shape[1] * l
            i = self.begin(("ssm.scan_fwd_s",))
            try:
                return scan(inputs, params, **kwargs)
            finally:
                self.end(i)
        return timed

    def _timed_module_call(self, call):
        labels = self._labels

        @functools.wraps(call)
        def timed(module, *args, **kwargs):
            if isinstance(module, VCMamba):
                for attr, child in module._children.items():
                    labels[child] = f"model.fwd_s.{attr}"
                keys = ("model.fwd_s.total", "train.forward_s")
            else:
                label = labels.get(module)
                cls = f"blocks.fwd_s.{type(module).__name__}"
                keys = (cls, label) if label else (cls,)
            i = self.begin(keys)
            try:
                return call(module, *args, **kwargs)
            finally:
                self.end(i)
        return timed

    def _timed_dataset(self, post_init):
        @functools.wraps(post_init)
        def timed(dataset):
            i = self.begin(("data.build_s",))
            try:
                post_init(dataset)
            finally:
                self.end(i)
            self.counts["data.samples"] += dataset.n_samples
            self.counts["data.builds"] += 1
        return timed

    def _timed_save(self, save):
        @functools.wraps(save)
        def timed(model, path):
            i = self.begin(("checkpoint.save_s",))
            try:
                save(model, path)
            finally:
                self.end(i)
            self.counts["checkpoint.save_bytes"] += os.path.getsize(path)
            self.counts["checkpoint.saves"] += 1
        return timed

    # -- summary ----------------------------------------------------------
    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics and the self-time accounting.

        Returns (metrics, accounting). In-operation metrics are seconds or
        counts per operation. data.*, checkpoint.* and train.eval_s are per
        call, since that work happens between operations.
        """
        n = len(self.t0)
        t0, t1 = np.asarray(self.t0), np.asarray(self.t1)
        parent, op = np.asarray(self.parent, dtype=np.int64), np.asarray(self.op, dtype=np.int64)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child

        per_op: dict[str, float] = defaultdict(float)
        per_call: dict[str, list[float]] = defaultdict(list)
        train_self = 0.0
        for i in range(n):
            keys = self.keys[i]
            if op[i] >= 0:
                for k in keys:
                    per_op[k] += dur[i]
            if keys[0] in ("data.build_s", "checkpoint.save_s", "checkpoint.load_s",
                           "train.eval_s"):
                per_call[keys[0]].append(dur[i])
            if keys[0] == "train.train":
                train_self += self_t[i]
        ops = max(self.n_ops, 1)
        metrics = {k: v / ops for k, v in per_op.items()}
        metrics.update({k: float(np.median(v)) for k, v in per_call.items()})
        for k in ("ssm.scan_calls", "ssm.scan_elements"):
            metrics[k] = self.counts[k] / ops
        if self.counts["data.builds"]:
            metrics["data.samples"] = self.counts["data.samples"] / self.counts["data.builds"]
        if self.counts["checkpoint.saves"]:
            metrics["checkpoint.save_bytes"] = (self.counts["checkpoint.save_bytes"]
                                                / self.counts["checkpoint.saves"])
        if self.tape_nodes:
            metrics["autodiff.tape_nodes"] = float(np.mean(self.tape_nodes))
            metrics["autodiff.tapes_alive_max"] = float(self.tapes_alive_max)
        if "train.train" in {k[0] for k in self.keys}:
            metrics["train.other_s"] = train_self / ops
        info = scanpath.path_table.cache_info()
        hits = info.hits - self._path_table_base[0]
        misses = info.misses - self._path_table_base[1]
        if hits + misses:
            metrics["scanpath.path_table_hit_ratio"] = hits / (hits + misses)

        roots = [i for i in range(n) if self.keys[i] == ("op",)]
        shares = []
        for r in roots:
            inside = op == r
            attributed = float(self_t[inside].sum())
            shares.append(1.0 - attributed / dur[r] if dur[r] > 0 else 0.0)
        accounting = {"ops": float(len(roots)),
                      "unattributed_share_max": max(shares) if shares else 0.0,
                      "unattributed_share_median": float(np.median(shares)) if shares else 0.0}
        return metrics, accounting

    def spans(self) -> list[list]:
        """Every span as [keys, start, end, parent, op]."""
        return [[list(k), a, b, p, o] for k, a, b, p, o in
                zip(self.keys, self.t0, self.t1, self.parent, self.op)]
