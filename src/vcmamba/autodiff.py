"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a dense ndarray plus gradient metadata. Operations executed
while a Tape is active append adjoint closures to that tape in execution
order; backward(loss) replays the tape in reverse and accumulates gradients
into every leaf it reaches, and into every recorded output still held. A tape
is single use: one forward pass, one backward pass, then build a fresh one.

Floating point policy: float32 by default, float64 on request (gradient
checks run in float64). Broadcasting is deliberately narrow: scalar ops,
channel bias adds and the spatial-map add broadcast, every other elementwise
binary op requires exactly matching shapes and raises ShapeMismatch
otherwise. The convolutions, batch norm and the map add take channels-last
(B, H, W, C) maps; global_avg_pool takes (B, C, H, W). conv2d is the model's
one 3x3 stride-2 conv and depthwise_conv2d its one 3x3 "same" filter; a 1x1
conv is linear on each position's channels. Their backward stays in that
layout: per-channel gradient sums read the rows into a float64 accumulator,
conv2d scatters its input gradient tap by tap, and depthwise_conv2d runs its
forward's tap sum over the padded gradient.

The tape decides, the ops compute. recording(*inputs) alone says whether an
op records: a tape is active and some input requires a gradient. An op builds
its output one way on every route, so a tape never changes an output's bits:
gelu and silu write it over their own scratch buffer, training batch_norm
over its xhat, and depthwise_conv2d accumulates it a few rows at a time. Every
vjp returns a gradient for each input; backward drops those no link wants.

Eval-mode batch norm is the per-channel affine map x * s + t, with s and t
taken in float64 and rounded once. batch_norm runs it as one pass;
fold_batch_norm folds it into the bias-free conv or linear before it, as the
weight w * s and the bias t, so it costs no pass of its own over the map.
The fold is taken per call from the current statistics and records the
folded weight and bias like any op output.

The tape holds only what a vjp reads. A node keeps its gradient accumulator,
its output's shape and a weak reference to the output, never the output's
data, and links each input recorded on the same tape by its producer node;
backward passes gradients from node to node and clears each node it replays.
So an output no vjp closure captures dies with the forward: gelu, silu, relu
and softplus take their slope when the node records and keep only that, and
the batch_norm output feeding each GELU is freed once the GELU has run.
A vjp keeps no array it can rebuild in one or two elementwise passes from an
input it holds, or with the one gemm or window gather that made it:
batch_norm's rebuilds xhat and depthwise_conv2d's re-pads its input, each
from the input's data as it is at backward time, and conv2d's regathers its
patch matrix from its input. An op whose output can be rebuilt from operands
its vjp holds says so on its node (a bias-free linear: its gemm); a consumer
reads its input through that node, so batch_norm keeps no copy of such an
output. Each rebuild runs the forward's exact operations.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, expit

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
_ROWS = 4   # output rows per depthwise_conv2d tap-sum tile


class AutodiffError(RuntimeError):
    """Engine misuse: tape reuse, backward without a tape, non-scalar loss."""


class ShapeMismatch(ValueError):
    """An op received operands whose shapes violate its contract."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class Tensor:
    """Array with gradient metadata.

    Data is stored contiguously. Unless an explicit dtype is given the data
    is cast to DEFAULT_DTYPE (float32); pass dtype=np.float64 for the
    high-precision mode used by gradient checking.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_tape", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._tape: "Tape | None" = None
        self._node: "_Node | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch("item", f"expected a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad}{tag})"


class _Node:
    """One recorded op. It holds no output data: its gradient accumulator,
    the output's shape and a weak reference to the output Tensor, so one the
    caller still holds gets its .grad. Each entry of inputs is the producer
    _Node of an input recorded on the same tape, else the input Tensor itself
    (a leaf), or None where no gradient is wanted. rebuild, when the op sets
    it, returns the output's data again from arrays the vjp already holds."""

    __slots__ = ("op", "out", "shape", "inputs", "vjp", "grad", "rebuild")

    def __init__(self, op: str, out: Tensor, inputs: tuple, vjp: Callable):
        self.op = op
        self.out = weakref.ref(out)
        self.shape = out.shape
        self.inputs = inputs
        self.vjp = vjp
        self.grad: np.ndarray | None = None
        self.rebuild: Callable[[], np.ndarray] | None = None


class Tape:
    """Ordered record of executed operations.

    Use as a context manager around a forward pass; ops executed inside
    record themselves when any input requires a gradient. Replay happens in
    reverse record order, which makes backward deterministic for a
    deterministic forward. A tape is single use: backward consumes it.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise AutodiffError("tape stack corrupted: exited a tape that is not innermost")

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE_STACK: list[Tape] = []


def recording(*inputs: Tensor | None) -> bool:
    """True when a tape is active and some input requires a gradient: whether
    an op on these inputs records. An op asks before it computes what only its
    vjp reads. Raises AutodiffError on a consumed tape, whatever the inputs."""
    if not _TAPE_STACK:
        return False
    if _TAPE_STACK[-1]._consumed:
        raise AutodiffError("tape already consumed; build a fresh Tape for a new forward pass")
    return any(t is not None and t.requires_grad for t in inputs)


def record(op: str, out: Tensor, inputs: Sequence[Tensor | None],
           vjp: Callable[[np.ndarray], tuple]) -> None:
    """Append one op to the active tape when recording(*inputs), else nothing.

    vjp receives the output gradient and returns one array (or None) per
    input, in order; backward drops the gradient of an input that needs none.
    The node holds vjp and the inputs' producer nodes, not out's data, so vjp
    should capture only the arrays it reads. Exposed so fused kernels outside
    this module can record themselves.
    """
    if not recording(*inputs):
        return
    tape = _TAPE_STACK[-1]
    links = tuple(None if t is None or not t.requires_grad else
                  t._node if t._tape is tape else t for t in inputs)
    out.requires_grad = True
    out._tape = tape
    out._node = _Node(op, out, links, vjp)
    tape._nodes.append(out._node)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Walks the recording tape once in reverse, passing each gradient from a
    node to the nodes that produced its inputs. Leaf tensors, and every
    recorded output the caller still holds, end up with a populated .grad
    (accumulated, so zero grads between optimizer steps). Calling backward
    twice on the same tape is an error. Replay pops each node and clears its
    vjp, inputs, gradient and rebuild, so nothing the step recorded outlives
    the backward, even while the caller keeps loss or logits.
    """
    tape = loss._tape
    if tape is None:
        raise AutodiffError("loss is not attached to a tape; run the forward pass inside "
                            "`with Tape():` and make sure it depends on a requires_grad tensor")
    if tape._consumed:
        raise AutodiffError("backward already ran on this tape; build a fresh Tape")
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape._consumed = True

    loss._node.grad = np.ones_like(loss.data)
    while tape._nodes:
        node = tape._nodes.pop()
        g, vjp, inputs = node.grad, node.vjp, node.inputs
        node.grad = node.vjp = node.inputs = node.rebuild = None
        if g is None:
            continue
        out = node.out()
        if out is not None:
            out.grad = g if out.grad is None else out.grad + g
        for t, gt in zip(inputs, vjp(g)):
            if t is None or gt is None:
                continue
            if gt.shape != t.shape:
                raise AutodiffError(f"{node.op}: vjp produced shape {gt.shape} for input "
                                    f"of shape {t.shape}")
            t.grad = gt if t.grad is None else t.grad + gt


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(op, f"operand shapes {a.shape} and {b.shape} must match exactly")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data, dtype=np.result_type(a.data, b.data))
    record("add", out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data, dtype=np.result_type(a.data, b.data))
    record("sub", out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data, dtype=np.result_type(a.data, b.data))
    ad, bd = a.data, b.data
    record("mul", out, (a, b), lambda g: (g * bd, g * ad))
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s, dtype=a.dtype)
    record("scale", out, (a,), lambda g: (g * s,))
    return out


def add_scalar(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data + float(s), dtype=a.dtype)
    record("add_scalar", out, (a,), lambda g: (g,))
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), dtype=a.dtype)
    shape, dtype = a.shape, a.dtype
    record("sum_all", out, (a,), lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),))
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean(), dtype=a.dtype)
    shape, dtype = a.shape, a.dtype
    record("mean_all", out, (a,),
           lambda g: (np.broadcast_to(g / n, shape).astype(dtype, copy=True),))
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatch("reshape", f"cannot reshape {a.shape} to {shape}") from exc
    out = Tensor(data, dtype=a.dtype)
    src = a.shape
    record("reshape", out, (a,), lambda g: (g.reshape(src),))
    return out


def moveaxis(a: Tensor, src: int, dst: int) -> Tensor:
    out = Tensor(np.moveaxis(a.data, src, dst), dtype=a.dtype)
    record("moveaxis", out, (a,),
           lambda g: (np.ascontiguousarray(np.moveaxis(g, dst, src)),))
    return out


def take_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis: out[..., i] = a[..., idx[i]].

    idx is a plain integer array. The adjoint scatter-adds, so repeated
    indices accumulate correctly; for permutations this is the inverse
    permutation.
    """
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise ShapeMismatch("take_last", f"index must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-1]):
        raise ShapeMismatch("take_last", f"index out of range for last axis of length {a.shape[-1]}")
    out = Tensor(np.take(a.data, idx, axis=-1), dtype=a.dtype)
    src_len = a.shape[-1]

    def vjp(g):
        ga = np.zeros(a.shape[:-1] + (src_len,), dtype=g.dtype)
        np.add.at(ga, (..., idx), g)
        return (ga,)

    record("take_last", out, (a,), vjp)
    return out


# ---------------------------------------------------------------------------
# activations


def _pointwise(op: str, a: Tensor, y: Callable[[], np.ndarray],
               slope: Callable[[], np.ndarray]) -> Tensor:
    """Elementwise op. slope() (dy/da) runs first, and only when recording(a);
    then y() builds the output, the same way on every route, and may write
    over a buffer slope() read. The vjp keeps the slope alone, so a's data
    can die with the forward."""
    s = slope() if recording(a) else None
    out = Tensor(y(), dtype=a.dtype)
    if s is not None:
        record(op, out, (a,), lambda g: (g * s,))
    return out


def relu(a: Tensor) -> Tensor:
    return _pointwise("relu", a, lambda: np.maximum(a.data, 0), lambda: a.data > 0)  # 0 at the kink


def gelu(a: Tensor) -> Tensor:
    """Exact (erf) form: x * Phi(x), written over the cdf buffer."""
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return _pointwise("gelu", a, lambda: np.multiply(x, cdf, out=cdf), lambda: _gelu_slope(x, cdf))


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """cdf + x * (exp(-x*x/2) / sqrt(2 pi)) in one buffer, with the per-element
    operations of that expression in its order."""
    t = np.multiply(x, -0.5)
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    t += cdf
    return t


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), written over the sigmoid buffer."""
    x = a.data
    sig = expit(x)
    return _pointwise("silu", a, lambda: np.multiply(x, sig, out=sig),
                      lambda: sig * (1.0 + x * (1.0 - sig)))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; exactly +0 for x <= about -104 in
    float32 (about -745 in float64)."""
    return _pointwise("softplus", a, lambda: np.logaddexp(0.0, a.data), lambda: expit(a.data))


# ---------------------------------------------------------------------------
# linear algebra layers


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T + b with x of shape (..., Din) and w of shape (Dout, Din), or a
    pointwise-conv weight (Dout, Din, 1, 1): a 1x1 conv of a channels-last map
    is this product on each position's channels. Recorded without a bias, its
    node rebuilds the output with the same gemm on the operands its vjp holds."""
    if w.ndim not in (2, 4) or w.shape[2:] not in ((), (1, 1)):
        raise ShapeMismatch("linear", f"weight must be (Dout, Din) or (Dout, Din, 1, 1), "
                                      f"got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatch("linear", f"input features {x.shape[-1]} (input {x.shape}) do not "
                                      f"match weight Din {w.shape[1]} (weight {w.shape})")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeMismatch("linear", f"bias shape {b.shape} must be ({w.shape[0]},)")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    wmat = w.data.reshape(w.shape[:2])
    y2 = x2 @ wmat.T
    if b is not None:
        y2 += b.data
    out = Tensor(y2.reshape(lead + (w.shape[0],)), dtype=y2.dtype)

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ wmat).reshape(x.shape), (g2.T @ x2).reshape(w.shape),
                None if b is None else g2.sum(axis=0))

    record("linear", out, (x, w, b), vjp)
    if b is None and out._node is not None:
        shape = out.shape    # not out, which must die with its last consumer
        out._node.rebuild = lambda: (x2 @ wmat.T).reshape(shape)
    return out


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """3x3 cross-correlation of a channels-last (B, H, W, Cin) map at stride 2
    and zero padding 1, weight (Cout, Cin, 3, 3), no bias and no kernel flip:
    the stem's and the downsamplers' conv. One gemm of the patch matrix
    (_patches), whose (B*oh*ow, Cout) result is already channels-last. The vjp
    keeps the input map, not the patch matrix (2.25 times its size): it
    regathers the patches from x.data, read at backward time, for the weight
    gradient, and scatters the input gradient tap by tap."""
    if x.ndim != 4 or w.ndim != 4 or w.shape[1:] != (x.shape[3], 3, 3):
        raise ShapeMismatch("conv2d", f"need a (B, H, W, Cin) input and a (Cout, Cin, 3, 3) "
                                      f"weight, got {x.shape} and {w.shape}")
    bsz, h, wd, cin = x.shape
    cout = w.shape[0]
    cols = _patches(x.data)
    oh, ow = cols.shape[1:3]
    wmat = w.data.reshape(cout, cin * 9)
    y = cols.reshape(-1, cin * 9) @ wmat.T
    out = Tensor(y.reshape(bsz, oh, ow, cout), dtype=y.dtype)

    # the stem's images are the one input in the program that needs no
    # gradient; their gemm and scatter would be a full-resolution waste a step
    need_x = x.requires_grad

    def vjp(g):
        g2 = g.reshape(-1, cout)
        gw = (g2.T @ _patches(x.data).reshape(-1, cin * 9)).reshape(w.shape)
        if not need_x:
            return (None, gw)
        gcols = (g2 @ wmat).reshape(bsz, oh, ow, cin, 3, 3)
        gxp = np.zeros((bsz, h + 2, wd + 2, cin), dtype=g.dtype)
        for i in range(3):
            for j in range(3):
                gxp[:, i:i + 2 * oh:2, j:j + 2 * ow:2] += gcols[..., i, j]
        return (np.ascontiguousarray(gxp[:, 1:1 + h, 1:1 + wd]), gw)

    record("conv2d", out, (x, w), vjp)
    return out


def _patches(a: np.ndarray) -> np.ndarray:
    """conv2d's patch matrix of a channels-last map: its stride-2 3x3 windows,
    zero-padded by 1, as a contiguous (B, oh, ow, C*9) array, columns (c, kh, kw)."""
    win = _same_windows(a)[:, ::2, ::2]
    return np.ascontiguousarray(win).reshape(win.shape[:3] + (-1,))


def _same_windows(a: np.ndarray) -> np.ndarray:
    """The 3x3 windows of a channels-last map zero-padded by 1: (B, H, W, C, 3, 3)."""
    return sliding_window_view(np.pad(a, ((0, 0), (1, 1), (1, 1), (0, 0))), (3, 3), axis=(1, 2))


def _tap_sum(win: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """Sum over the taps (i, j), in (i, j) order, of wk[i, j] * win[..., i, j],
    win (B, H, W, C, 3, 3) and wk (3, 3, C); _ROWS output rows at a time, so a
    tile's tap products stay in cache."""
    y = np.zeros(win.shape[:4], dtype=win.dtype)
    for r in range(0, y.shape[1], _ROWS):
        tile = y[:, r:r + _ROWS]
        for i in range(3):
            for j in range(3):
                tile += wk[i, j] * win[:, r:r + _ROWS, ..., i, j]
    return y


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """3x3 per-channel cross-correlation of a channels-last (B, H, W, C) map,
    weight (C, 1, 3, 3), stride 1 and zero padding 1: the output has x's shape.
    The input gradient is the same tap sum over the padded gradient's windows
    read in reverse, so each element adds its taps in the order a tap-by-tap
    scatter would. The weight gradient re-pads x.data, read at backward time."""
    if x.ndim != 4 or w.shape != (x.shape[3], 1, 3, 3):
        raise ShapeMismatch("depthwise_conv2d", f"need a (B, H, W, C) input and a (C, 1, 3, 3) "
                                                f"weight, got {x.shape} and {w.shape}")
    if b is not None and b.shape != (x.shape[3],):
        raise ShapeMismatch("depthwise_conv2d", f"bias shape {b.shape} must be ({x.shape[3]},)")

    wk = np.ascontiguousarray(np.moveaxis(w.data[:, 0], 0, -1))    # (3, 3, C)
    y = _tap_sum(_same_windows(x.data), wk)
    if b is not None:
        y += b.data
    out = Tensor(y, dtype=y.dtype)

    def vjp(g):
        gw = np.einsum("bhwc,bhwcij->cij", g, _same_windows(x.data),
                       dtype=np.float64).astype(w.dtype)[:, None]
        gb = None if b is None else _channel_sum(g)
        return (_tap_sum(_same_windows(g)[..., ::-1, ::-1], wk), gw, gb)

    record("depthwise_conv2d", out, (x, w, b), vjp)
    return out


# ---------------------------------------------------------------------------
# normalization


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of a channels-last map over its rows, accumulated in
    float64 and rounded once to the map's dtype."""
    return a.reshape(-1, a.shape[-1]).sum(axis=0, dtype=np.float64).astype(a.dtype)


def _batch_stats(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and biased variance of a channels-last map, summed in
    the NCHW order (the committed reference run pins these bits). The variance
    takes numpy's own var steps over an NCHW copy, from the mean already taken."""
    xc = np.moveaxis(a, -1, 1).copy()
    mean = xc.mean(axis=(0, 2, 3), keepdims=True)
    xc -= mean
    np.square(xc, out=xc)
    return mean.reshape(a.shape[-1]), xc.mean(axis=(0, 2, 3))


def _eval_affine(gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                 running_var: np.ndarray, eps: float):
    """Eval-mode batch norm as the per-channel map x * s + t: returns a copy of
    running_mean (a vjp must see these statistics, not later updates), istd =
    1 / sqrt(var + eps), s = gamma * istd and t = beta - mean * s, the last
    three taken in float64 and rounded once to gamma's dtype."""
    mean = running_mean.copy()
    istd = 1.0 / np.sqrt(running_var.astype(np.float64) + eps)
    s = gamma.data * istd
    return (mean,) + tuple(a.astype(gamma.dtype) for a in (istd, s, beta.data - mean * s))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, *, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Per-channel batch norm of a channels-last (B, H, W, C) map over its B*H*W rows.

    running_mean / running_var are plain arrays updated in place in training
    mode (unbiased variance for the running estimate, biased for the
    normalization itself). The batch statistics are taken in the NCHW order
    (_batch_stats) and the output is written over xhat. Eval mode normalizes
    with the running statistics in one affine pass, x * s + t (_eval_affine).
    The gamma and beta gradients are float64 sums of the rows (_channel_sum);
    the vjp rebuilds xhat from x.data, read at backward time, and the mean and
    istd the forward normalized with, by the training forward's operations.
    Where x's producing node can rebuild x (a bias-free linear's output), the
    vjp keeps that node's rebuild instead of x and reads x.data through it.
    """
    if x.ndim != 4:
        raise ShapeMismatch("batch_norm", f"expected (B, H, W, C) input, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch("batch_norm", f"gamma/beta must have shape ({c},), got "
                                          f"{gamma.shape} and {beta.shape}")

    n = x.size // c
    if training:
        mean, var = _batch_stats(x.data)
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean[...] = (1.0 - momentum) * running_mean + momentum * mean
        running_var[...] = (1.0 - momentum) * running_var + momentum * unbiased
        istd = 1.0 / np.sqrt(var + eps)
        xhat = x.data - mean
        xhat *= istd
        y = np.multiply(gamma.data, xhat, out=xhat)
        y += beta.data
    else:
        mean, istd, s, t = _eval_affine(gamma, beta, running_mean, running_var, eps)
        y = x.data * s
        y += t
    out = Tensor(y, dtype=x.dtype)
    source = (x._node and x._node.rebuild) or (lambda: x.data)

    def vjp(g):
        xhat = source() - mean   # the training forward's xhat, by its exact operations
        xhat *= istd
        gb = _channel_sum(g)
        gg = _channel_sum(g * xhat)
        gs = gamma.data * istd
        if not training:
            return (gs * g, gg, gb)
        # gs * (g - gb / n - xhat * (gg / n)), its passes reusing two buffers
        xhat *= gg / n
        gx = g - gb / n
        gx -= xhat
        gx *= gs
        return (gx, gg, gb)

    record("batch_norm", out, (x, gamma, beta), vjp)
    return out


def fold_batch_norm(w: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                    running_var: np.ndarray, *, eps: float = 1e-5) -> tuple[Tensor, Tensor]:
    """An eval-mode batch_norm folded into the bias-free conv or linear before
    it (RepVGG's re-parameterisation): batch_norm(conv(x, w)) is
    conv(x, w * s) + t, with s and t per output channel (_eval_affine) and w's
    first axis the output channel. Returns the folded weight and bias, taken
    per call from the current statistics, so none goes stale; each records
    itself, so gradients reach w, gamma and beta.
    """
    c = w.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch("fold_batch_norm", f"gamma/beta must have shape ({c},), got "
                                               f"{gamma.shape} and {beta.shape}")
    mean, istd, s, t = _eval_affine(gamma, beta, running_mean, running_var, eps)
    rows = s.reshape((c,) + (1,) * (w.ndim - 1))
    weight = Tensor(w.data * rows, dtype=w.dtype)
    bias = Tensor(t, dtype=beta.dtype)
    record("fold_batch_norm", weight, (w, gamma),
           lambda g: (g * rows, (g * w.data).reshape(c, -1).sum(axis=1) * istd))
    record("fold_batch_norm", bias, (gamma, beta), lambda g: (-(g * mean) * istd, g))
    return weight, bias


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, *, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatch("layer_norm", f"gamma/beta must have shape ({d},), got "
                                          f"{gamma.shape} and {beta.shape}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * istd
    out = Tensor(gamma.data * xhat + beta.data, dtype=x.dtype)

    lead = tuple(range(x.ndim - 1))

    def vjp(g):
        gh = g * gamma.data
        ghsum = gh.sum(axis=-1, keepdims=True)
        ghx = (gh * xhat).sum(axis=-1, keepdims=True)
        gx = istd * (gh - ghsum / d - xhat * (ghx / d))
        return (gx, (g * xhat).sum(axis=lead), g.sum(axis=lead))

    record("layer_norm", out, (x, gamma, beta), vjp)
    return out


# ---------------------------------------------------------------------------
# broadcast adds (the only sanctioned broadcasts besides scalars)


def add_map(x: Tensor, m: Tensor) -> Tensor:
    """x + m with x (B, H, W, C) and m (H, W, C), broadcast over the batch."""
    if x.ndim != 4 or m.shape != x.shape[1:]:
        raise ShapeMismatch("add_map", f"map shape {m.shape} must equal input shape "
                                       f"{x.shape} minus the batch axis")
    out = Tensor(x.data + m.data[None], dtype=np.result_type(x.data, m.data))
    record("add_map", out, (x, m), lambda g: (g, g.sum(axis=0)))
    return out


# ---------------------------------------------------------------------------
# pooling, resize, loss


def global_avg_pool(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C), mean over the spatial axes."""
    if x.ndim != 4:
        raise ShapeMismatch("global_avg_pool", f"expected NCHW input, got shape {x.shape}")
    _, _, h, w = shape = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)), dtype=x.dtype)
    record("global_avg_pool", out, (x,),
           lambda g: (np.broadcast_to(g[:, :, None, None] / (h * w), shape).astype(g.dtype, copy=True),))
    return out


def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    # align-corners linear sampling: endpoints map to endpoints
    if n_out == 1 or n_in == 1:
        pos = np.zeros(n_out)
    else:
        pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    rows = np.arange(n_out)
    r = np.zeros((n_out, n_in))
    r[rows, hi] = frac
    r[rows, lo] += 1.0 - frac      # where lo == hi the two weights sum to 1
    return r


def bilinear_resize(m: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize a (C, H, W) map with align-corners bilinear interpolation.

    The resize is the separable linear map ry @ m @ rx.T, with ry the
    (out_h, H) and rx the (out_w, W) interpolation matrix, computed in float64
    and rounded once to m's dtype; its vjp is ry.T @ g @ rx. At the map's own
    size both matrices are identities, so output and gradient keep their bits.
    Corners always map to corners, so a constant map stays constant at any size.
    """
    if m.ndim != 3:
        raise ShapeMismatch("bilinear_resize", f"expected (C, H, W) map, got shape {m.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeMismatch("bilinear_resize", f"output size {out_h}x{out_w} must be positive")
    _, h, w = m.shape
    ry, rx = _interp_matrix(out_h, h), _interp_matrix(out_w, w)
    out = Tensor((ry @ m.data @ rx.T).astype(m.dtype), dtype=m.dtype)
    record("bilinear_resize", out, (m,), lambda g: ((ry.T @ g @ rx).astype(g.dtype),))
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of integer labels under softmax(logits).

    logits (B, K), labels int array (B,). Computed with the max-shift trick,
    finite for any finite logits.
    """
    if logits.ndim != 2:
        raise ShapeMismatch("softmax_cross_entropy", f"logits must be (B, K), got {logits.shape}")
    labels = np.asarray(labels)
    bsz, k = logits.shape
    if labels.shape != (bsz,):
        raise ShapeMismatch("softmax_cross_entropy", f"labels shape {labels.shape} must be ({bsz},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeMismatch("softmax_cross_entropy", f"labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeMismatch("softmax_cross_entropy", f"labels must lie in [0, {k})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    logp = z - np.log(ez.sum(axis=1, keepdims=True))
    nll = -logp[np.arange(bsz), labels]
    out = Tensor(nll.mean(), dtype=logits.dtype)

    def vjp(g):
        gl = ez / ez.sum(axis=1, keepdims=True)     # softmax probabilities
        gl[np.arange(bsz), labels] -= 1.0
        return (gl * (g / bsz),)

    record("softmax_cross_entropy", out, (logits,), vjp)
    return out
