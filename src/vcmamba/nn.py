"""Minimal module system and the layers the backbone is assembled from.

Modules register parameters (Tensors), buffers (plain arrays, e.g. batch
norm running statistics) and child modules at attribute assignment, and walk
them recursively with stable dotted names. Insertion order is construction
order, which makes parameter iteration and serialization deterministic.
Module.declare registers a random parameter as zeros; Module.draw fills each in
float32 from one generator in attribute insertion order, not named_parameters
order (own before children's). Module.to casts a whole tree to another dtype.
Each module knows its dotted name in the tree (Module.qualname), and a
ModuleError raised in a forward pass names the innermost module it leaves.
Only BatchNorm2d reads the train/eval mode that Module.train sets on a tree.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal draw at std 0.02, resampled outside +-2 std, in the default dtype."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bound = 2.0 * std
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out.astype(ad.DEFAULT_DTYPE)


class ModuleError(RuntimeError):
    """A runtime fault met in a forward pass. The innermost Module.__call__ it
    leaves sets module to that module's qualname."""

    module: str | None = None


class Module:
    """Base class with recursive parameter/buffer/child bookkeeping."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_inits", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "qualname", "")   # dotted name under the root module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor):
            self._params[name] = value
            if value.name is None:
                value.name = name
        elif isinstance(value, Module):
            self._children[name] = value
            value._place(f"{self.qualname}.{name}" if self.qualname else name)
        object.__setattr__(self, name, value)

    def _place(self, qualname: str) -> None:
        object.__setattr__(self, "qualname", qualname)
        for name, child in self._children.items():
            child._place(f"{qualname}.{name}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def declare(self, name: str, shape: tuple[int, ...], init=trunc_normal) -> None:
        """Register a parameter that init(rng, shape) draws in float32; zeros until draw."""
        self._inits[name] = init
        setattr(self, name, Tensor(np.zeros(shape, ad.DEFAULT_DTYPE), requires_grad=True))

    def draw(self, rng: np.random.Generator) -> "Module":
        """Draw every declared parameter (the same Tensor objects) in insertion order."""
        for name, value in vars(self).items():
            if name in self._inits:
                value.data = self._inits[name](rng, value.shape).astype(value.dtype, copy=False)
            elif isinstance(value, Module):
                value.draw(rng)
        return self

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def to(self, dtype) -> "Module":
        """Cast every parameter (in place: the same Tensor objects) and every
        buffer to dtype, recursively. Arrays already in dtype are kept, not copied."""
        for p in self._params.values():
            p.data = p.data.astype(dtype, copy=False)
            p.grad = None if p.grad is None else p.grad.astype(dtype, copy=False)
        for name, b in self._buffers.items():
            self.register_buffer(name, b.astype(dtype, copy=False))
        for child in self._children.values():
            child.to(dtype)
        return self

    def __call__(self, *args, **kwargs):
        try:
            return self.forward(*args, **kwargs)
        except ModuleError as err:
            if err.module is None:
                err.module = self.qualname
            raise

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        for i, m in enumerate(modules):
            setattr(self, str(i), m)

    def __iter__(self):
        return iter(self._children.values())

    def __len__(self) -> int:
        return len(self._children)

    def __getitem__(self, i: int) -> Module:
        return list(self._children.values())[i]


class Conv2d(Module):
    """The 3x3 stride-2 conv ad.conv2d, padding 1 and no bias: the stem's and
    the downsamplers' conv, each followed by a BN."""

    def __init__(self, in_channels: int, out_channels: int):
        super().__init__()
        self.declare("weight", (out_channels, in_channels, 3, 3))

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight)


class PointwiseConv(Module):
    """A 1x1 conv of a channels-last map: ad.linear on each position's
    channels. The weight keeps the conv shape (out, in, 1, 1) checkpoints store."""

    def __init__(self, in_channels: int, out_channels: int, *, bias: bool):
        super().__init__()
        self.declare("weight", (out_channels, in_channels, 1, 1))
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class DepthwiseConv2d(Module):
    """The 3x3 per-channel filter ad.depthwise_conv2d, stride 1, padding 1 (shape-preserving)."""

    def __init__(self, channels: int, *, bias: bool):
        super().__init__()
        self.declare("weight", (channels, 1, 3, 3))
        self.bias = Tensor(np.zeros(channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ad.depthwise_conv2d(x, self.weight, self.bias)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int):
        super().__init__()
        self.declare("weight", (out_features, in_features))
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch norm of a channels-last (B, H, W, C) map, per channel: batch
    statistics in training mode, the running statistics in eval mode."""

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels, ad.DEFAULT_DTYPE))
        self.register_buffer("running_var", np.ones(channels, ad.DEFAULT_DTYPE))

    def forward(self, x: Tensor) -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                             training=self.training, momentum=self.momentum, eps=self.eps)

    def after(self, op, x: Tensor, weight: Tensor) -> Tensor:
        """This BN of op(x, weight), a bias-free conv or linear: its own pass in
        training mode, and in eval mode folded into the conv per call
        (fold_batch_norm), so it costs no pass over the map."""
        if self.training:
            return self(op(x, weight))
        return op(x, *ad.fold_batch_norm(weight, self.gamma, self.beta, self.running_mean,
                                         self.running_var, eps=self.eps))


class LayerNorm(Module):
    """Normalizes the last axis."""

    eps = 1e-5

    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, eps=self.eps)
