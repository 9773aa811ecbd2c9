"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a dense ndarray plus gradient metadata. Operations executed
while a Tape is active append adjoint closures to that tape in execution
order; backward(loss) replays the tape in reverse and accumulates gradients
into every requires_grad tensor it reaches. A tape is single use: one forward
pass, one backward pass, then build a fresh one.

Floating point policy: float32 by default, float64 on request (gradient
checks run in float64). Broadcasting is deliberately narrow: scalar ops,
channel bias adds and the spatial-map add broadcast, every other elementwise
binary op requires exactly matching shapes and raises ShapeMismatch
otherwise. The convolutions, batch norm and the map add take channels-last
(B, H, W, C) maps; global_avg_pool takes (B, C, H, W).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, expit

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


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

    __slots__ = ("data", "requires_grad", "grad", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._tape: "Tape | None" = None

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

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch("item", f"expected a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad}{tag})"

    # Small arithmetic surface, enough for residual sums and test plumbing.
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else add_scalar(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else add_scalar(self, -other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


class _Node:
    __slots__ = ("out", "inputs", "vjp", "op")

    def __init__(self, op: str, out: Tensor, inputs: tuple, vjp: Callable):
        self.op = op
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


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

    @property
    def consumed(self) -> bool:
        return self._consumed


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record(op: str, out: Tensor, inputs: Sequence[Tensor | None],
           vjp: Callable[[np.ndarray], tuple]) -> None:
    """Append one op to the active tape.

    No-op when no tape is active or when no input requires a gradient. vjp
    receives the output gradient and must return one array (or None) per
    input, in order. Exposed so fused kernels outside this module can record
    themselves.
    """
    tape = active_tape()
    if tape is None:
        return
    if tape._consumed:
        raise AutodiffError("tape already consumed; build a fresh Tape for a new forward pass")
    if not any(t is not None and t.requires_grad for t in inputs):
        return
    out.requires_grad = True
    out._tape = tape
    tape._nodes.append(_Node(op, out, tuple(inputs), vjp))


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Walks the recording tape once in reverse. Every requires_grad tensor the
    sweep reaches ends up with a populated .grad (accumulated, so zero grads
    between optimizer steps). Calling backward twice on the same tape is an
    error. Replay pops each node, so the step's graph, a reference cycle
    through Tensor._tape while recorded, is freed by reference counting.
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

    loss.grad = np.ones_like(loss.data)
    while tape._nodes:
        node = tape._nodes.pop()
        g = node.out.grad
        if g is None:
            continue
        grads = node.vjp(g)
        for t, gt in zip(node.inputs, grads):
            if t is None or gt is None or not t.requires_grad:
                continue
            if gt.shape != t.data.shape:
                raise AutodiffError(f"{node.op}: vjp produced shape {gt.shape} for input "
                                    f"of shape {t.data.shape}")
            if t.grad is None:
                t.grad = gt
            else:
                t.grad = t.grad + gt


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
    shape = a.shape
    record("sum_all", out, (a,), lambda g: (np.broadcast_to(g, shape).astype(a.dtype, copy=True),))
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean(), dtype=a.dtype)
    shape = a.shape
    record("mean_all", out, (a,),
           lambda g: (np.broadcast_to(g / n, shape).astype(a.dtype, copy=True),))
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


def _pointwise(op: str, a: Tensor, y: np.ndarray, slope: Callable[[], np.ndarray]) -> Tensor:
    """Elementwise op output y; slope() (dy/da) runs only when a tape replays the node."""
    out = Tensor(y, dtype=a.dtype)
    record(op, out, (a,), lambda g: (g * slope(),))
    return out


def relu(a: Tensor) -> Tensor:
    return _pointwise("relu", a, np.maximum(a.data, 0), lambda: a.data > 0)  # 0 at the kink


def gelu(a: Tensor) -> Tensor:
    """Exact (erf) form: x * Phi(x)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return _pointwise("gelu", a, x * cdf,
                      lambda: cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI))


def silu(a: Tensor) -> Tensor:
    x = a.data
    sig = expit(x)
    return _pointwise("silu", a, x * sig, lambda: sig * (1.0 + x * (1.0 - sig)))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; exactly +0 for x <= about -104 in
    float32 (about -745 in float64)."""
    return _pointwise("softplus", a, np.logaddexp(0.0, a.data), lambda: expit(a.data))


# ---------------------------------------------------------------------------
# linear algebra layers


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T + b with x of shape (..., Din) and w of shape (Dout, Din)."""
    if w.ndim != 2:
        raise ShapeMismatch("linear", f"weight must be 2-D (Dout, Din), got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatch("linear", f"input features {x.shape[-1]} (input {x.shape}) do not "
                                      f"match weight Din {w.shape[1]} (weight {w.shape})")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeMismatch("linear", f"bias shape {b.shape} must be ({w.shape[0]},)")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    y2 = x2 @ w.data.T
    if b is not None:
        y2 = y2 + b.data
    out = Tensor(y2.reshape(lead + (w.shape[0],)), dtype=y2.dtype)

    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w.data).reshape(x.shape) if need_x else None
        gw = g2.T @ x2 if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        return (gx, gw, gb)

    record("linear", out, (x, w, b), vjp)
    return out


def _conv_out_dim(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _check_conv_args(op: str, x: Tensor, w: Tensor, stride: int, padding: int) -> tuple[int, int]:
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch(op, f"need 4-D input and weight, got {x.shape} and {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeMismatch(op, f"stride must be >= 1 and padding >= 0, got {stride}, {padding}")
    kh, kw = w.shape[2], w.shape[3]
    oh = _conv_out_dim(x.shape[1], kh, stride, padding)
    ow = _conv_out_dim(x.shape[2], kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeMismatch(op, f"kernel {kh}x{kw} stride {stride} padding {padding} leaves no "
                                f"output positions on input {x.shape}")
    return oh, ow


def _taps(i: int, stride: int, n_out: int) -> slice:
    """The input rows (or columns) that kernel tap i reads for n_out outputs."""
    return slice(i, i + stride * (n_out - 1) + 1, stride)


def _pad_map(a: np.ndarray, padding: int) -> np.ndarray:
    return np.pad(a, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else a


def _unpad_map(a: np.ndarray, padding: int) -> np.ndarray:
    return np.ascontiguousarray(a[:, padding:a.shape[1] - padding, padding:a.shape[2] - padding])


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Cross-correlation of a channels-last (B, H, W, Cin) map, weight (Cout, Cin,
    kh, kw); no kernel flip. One gemm of the patch matrix, rows (b, oh, ow) and
    columns (cin, kh, kw), whose (B*oh*ow, Cout) result is already channels-last."""
    oh, ow = _check_conv_args("conv2d", x, w, stride, padding)
    bsz, _, _, cin = x.shape
    cout, wcin, kh, kw = w.shape
    if cin != wcin:
        raise ShapeMismatch("conv2d", f"input channels {cin} (input {x.shape}) do not match "
                                      f"weight Cin {wcin} (weight {w.shape})")
    if b is not None and b.shape != (cout,):
        raise ShapeMismatch("conv2d", f"bias shape {b.shape} must be ({cout},)")

    xp = _pad_map(x.data, padding)
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(win).reshape(bsz * oh * ow, cin * kh * kw)
    wmat = w.data.reshape(cout, cin * kh * kw)
    y = cols @ wmat.T
    if b is not None:
        y += b.data
    out = Tensor(y.reshape(bsz, oh, ow, cout), dtype=y.dtype)

    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad

    def vjp(g):
        g2 = g.reshape(-1, cout)
        gw = (g2.T @ cols).reshape(w.shape) if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        gx = None
        if need_x:
            gcols = (g2 @ wmat).reshape(bsz, oh, ow, cin, kh, kw)
            gxp = np.zeros(xp.shape, dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, _taps(i, stride, oh), _taps(j, stride, ow)] += gcols[..., i, j]
            gx = _unpad_map(gxp, padding)
        return (gx, gw, gb)

    record("conv2d", out, (x, w, b), vjp)
    return out


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Per-channel cross-correlation of a channels-last (B, H, W, C) map, weight
    (C, 1, kh, kw)."""
    oh, ow = _check_conv_args("depthwise_conv2d", x, w, stride, padding)
    bsz, _, _, c = x.shape
    wc, one, kh, kw = w.shape
    if wc != c or one != 1:
        raise ShapeMismatch("depthwise_conv2d", f"weight must be ({c}, 1, kh, kw) for input "
                                                f"{x.shape}, got {w.shape}")
    if b is not None and b.shape != (c,):
        raise ShapeMismatch("depthwise_conv2d", f"bias shape {b.shape} must be ({c},)")

    xp = _pad_map(x.data, padding)
    y = np.zeros((bsz, oh, ow, c), dtype=xp.dtype)
    taps = [(i, j, xp[:, _taps(i, stride, oh), _taps(j, stride, ow)])
            for i in range(kh) for j in range(kw)]
    for i, j, v in taps:
        y += w.data[:, 0, i, j] * v
    if b is not None:
        y += b.data
    out = Tensor(y, dtype=y.dtype)

    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad

    def vjp(g):
        gw = None
        if need_w:
            gw = np.zeros_like(w.data)
            for i, j, v in taps:
                gw[:, 0, i, j] = _channel_sum(g * v)
        gb = _channel_sum(g) if need_b else None
        gx = None
        if need_x:
            gxp = np.zeros(xp.shape, dtype=g.dtype)
            for i, j, _ in taps:
                gxp[:, _taps(i, stride, oh), _taps(j, stride, ow)] += w.data[:, 0, i, j] * g
            gx = _unpad_map(gxp, padding)
        return (gx, gw, gb)

    record("depthwise_conv2d", out, (x, w, b), vjp)
    return out


# ---------------------------------------------------------------------------
# normalization


def _nchw(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(a, -1, 1))


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of a channels-last map, taken over its (B, C, H, W) copy:
    the NCHW summation order, so training keeps the bits of that layout."""
    return _nchw(a).sum(axis=(0, 2, 3))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, *, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Per-channel batch norm of a channels-last (B, H, W, C) map over its B*H*W rows.

    running_mean / running_var are plain arrays updated in place in training
    mode (unbiased variance for the running estimate, biased for the
    normalization itself). Eval mode normalizes with the running statistics.
    The batch statistics and the gradient sums are taken in the NCHW order.
    """
    if x.ndim != 4:
        raise ShapeMismatch("batch_norm", f"expected (B, H, W, C) input, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeMismatch("batch_norm", f"gamma/beta must have shape ({c},), got "
                                          f"{gamma.shape} and {beta.shape}")

    n = x.size // c
    if training:
        xc = _nchw(x.data)
        mean = xc.mean(axis=(0, 2, 3))
        var = xc.var(axis=(0, 2, 3))
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean[...] = (1.0 - momentum) * running_mean + momentum * mean
        running_var[...] = (1.0 - momentum) * running_var + momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * istd
    out = Tensor(gamma.data * xhat + beta.data, dtype=x.dtype)

    def vjp(g):
        gb = _channel_sum(g)
        gg = _channel_sum(g * xhat)
        gs = gamma.data * istd
        gx = gs * (g - gb / n - xhat * (gg / n)) if training else gs * g
        return (gx, gg, gb)

    record("batch_norm", out, (x, gamma, beta), vjp)
    return out


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

    need_x, need_g, need_b = x.requires_grad, gamma.requires_grad, beta.requires_grad
    lead = tuple(range(x.ndim - 1))

    def vjp(g):
        gg = (g * xhat).sum(axis=lead) if need_g else None
        gb = g.sum(axis=lead) if need_b else None
        gx = None
        if need_x:
            gh = g * gamma.data
            ghsum = gh.sum(axis=-1, keepdims=True)
            ghx = (gh * xhat).sum(axis=-1, keepdims=True)
            gx = istd * (gh - ghsum / d - xhat * (ghx / d))
        return (gx, gg, gb)

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
    bsz, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)), dtype=x.dtype)
    record("global_avg_pool", out, (x,),
           lambda g: (np.broadcast_to(g[:, :, None, None] / (h * w), x.shape).astype(g.dtype, copy=True),))
    return out


def _resize_axis(n_in: int, n_out: int):
    # align-corners linear sampling: endpoints map to endpoints
    if n_out == 1 or n_in == 1:
        pos = np.zeros(n_out)
    else:
        pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    return lo, hi, frac


def bilinear_resize(m: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize a (C, H, W) map with align-corners bilinear interpolation.

    Identity (bitwise) when the output size equals the input size. Corners
    always map to corners, so a constant map stays constant at any size.
    """
    if m.ndim != 3:
        raise ShapeMismatch("bilinear_resize", f"expected (C, H, W) map, got shape {m.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeMismatch("bilinear_resize", f"output size {out_h}x{out_w} must be positive")
    c, h, w = m.shape
    if (out_h, out_w) == (h, w):
        out = Tensor(m.data.copy(), dtype=m.dtype)
        record("bilinear_resize", out, (m,), lambda g: (g,))
        return out

    y0, y1, fy = _resize_axis(h, out_h)
    x0, x1, fx = _resize_axis(w, out_w)
    wy0, wy1 = (1.0 - fy)[:, None], fy[:, None]       # (out_h, 1)
    wx0, wx1 = (1.0 - fx)[None, :], fx[None, :]       # (1, out_w)

    corners = ((y0, x0, wy0 * wx0), (y0, x1, wy0 * wx1),
               (y1, x0, wy1 * wx0), (y1, x1, wy1 * wx1))
    data = np.zeros((c, out_h, out_w), dtype=m.dtype)
    for yy, xx, ww in corners:
        data += m.data[:, yy[:, None], xx[None, :]] * ww
    out = Tensor(data, dtype=m.dtype)

    def vjp(g):
        gm = np.zeros((c, h, w), dtype=g.dtype)
        ci = np.arange(c)[:, None, None]
        for yy, xx, ww in corners:
            np.add.at(gm, (ci, yy[None, :, None], xx[None, None, :]), g * ww)
        return (gm,)

    record("bilinear_resize", out, (m,), vjp)
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
