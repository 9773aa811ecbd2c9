"""Selective state-space core with direction-aware scanning.

The continuous model h'(t) = A h(t) + B x(t), y = C h(t) + D x(t) is
discretized per token with a zero-order hold on A (exact exponential) and a
first-order Euler rule on B:

    abar_i = exp(delta_i * A)          bbar_i = delta_i * b_i

A = -exp(a_log) is diagonal and negative, so for delta >= 0 abar lies in
(0, 1] and h_i = abar_i h_{i-1} + bbar_i x_i is contractive; a zero delta
holds the state. B, C and delta are selective: selective_projection makes them
per token. The direction-aware form adds a learned per-direction term to B:
token i's effective input matrix is delta_i * (b_i + table[dirs[i]]).

Operands are (B, D, L); the kernel works scan axis first, (L, B, N, D). The
literal route discretizes, updates and reads out one token per step, so its
forward builds no (L, B, N, D) array. The scan is one tape op whose adjoint
keeps nothing from the forward: it recomputes h, then solves gh_i = gy_i c_i
+ abar_{i+1} gh_{i+1} with the route's pair-scan routine on reversed time.
The alternate route, a log-depth doubling scan over the associative pair
composition, is the oracle the literal one is tested against; the model does
not call it. A Mamba block makes one projection and one scan call: raster
tokens are projected once, gathered into all four path orders with the paths
folded into the batch axis, scanned, scattered back and summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor
from .nn import Module
from .scanpath import Direction, gather_tokens, path_table, scatter_tokens

N_DIRECTIONS = len(Direction)


class NonFiniteStateError(RuntimeError):
    """Non-finite scan delta, state or output, a runtime fault; names the first bad token."""

    def __init__(self, token_index: int, what: str = "value"):
        super().__init__(f"scan produced a non-finite {what} at token index {token_index}")
        self.token_index = token_index


def delta_rank(d_inner: int) -> int:
    """Rank of the low-rank delta head: one per 32 inner channels, at least 1."""
    return max(1, d_inner // 32)


def _dt_bias(rng: np.random.Generator, shape: tuple[int]) -> np.ndarray:
    """Bias placed so softplus lands log-uniformly in [1e-3, 0.1], rounded from float64."""
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(0.1), size=shape))
    return np.log(np.expm1(dt)).astype(ad.DEFAULT_DTYPE)


class SsmParams(Module):
    """Parameters of one selective SSM, shared across scan directions.

    a_log (D, N) stores log(-A) per channel and state; skip_gain is the
    direct feedthrough D term; b_proj / c_proj produce the per-token input
    and readout vectors from the token features; the delta head is a
    low-rank map (dt_down, dt_up, dt_bias) whose softplus output is the
    per-token step size; direction_table holds one additive B-space row per
    direction code.
    """

    def __init__(self, d_inner: int, n_state: int = 16):
        super().__init__()
        if d_inner < 1 or n_state < 1:
            raise ValueError(f"d_inner and n_state must be positive, got {d_inner}, {n_state}")
        self.d_inner = d_inner
        self.n_state = n_state
        self.dt_rank = delta_rank(d_inner)

        # S4D-real spectrum: state n relaxes at rate n + 1
        a_init = np.log(np.arange(1, n_state + 1, dtype=np.float64))[None, :]
        self.a_log = Tensor(np.broadcast_to(a_init, (d_inner, n_state)), requires_grad=True)
        self.skip_gain = Tensor(np.ones(d_inner), requires_grad=True)
        self.declare("b_proj", (n_state, d_inner))
        self.declare("c_proj", (n_state, d_inner))
        self.declare("dt_down", (self.dt_rank, d_inner))
        self.declare("dt_up", (d_inner, self.dt_rank))
        self.declare("dt_bias", (d_inner,), init=_dt_bias)
        self.direction_table = Tensor(np.zeros((N_DIRECTIONS, n_state)), requires_grad=True)


@dataclass
class ScanInputs:
    """Per-token scan operands. x, delta: (B, D, L); b_seq, c_seq: (B, N, L);
    dirs: integer direction codes, (L,) shared by every row or (B, L) per
    row, or None for direction-free scans."""

    x: Tensor
    delta: Tensor
    b_seq: Tensor
    c_seq: Tensor
    dirs: np.ndarray | None = None


def selective_projection(x_seq: Tensor, params: SsmParams) -> ScanInputs:
    """Produce per-token delta, B and C from token features x_seq (B, D, L).

    delta = softplus(dt_up @ (dt_down @ x) + dt_bias) is non-negative (exactly
    0 in float32 below about -104); b_seq and c_seq are plain linear maps into
    the state dimension.
    """
    if x_seq.ndim != 3 or x_seq.shape[1] != params.d_inner:
        raise ShapeMismatch("selective_projection",
                            f"expected (B, {params.d_inner}, L) features, got {x_seq.shape}")
    xt = ad.moveaxis(x_seq, 1, 2)                                   # (B, L, D)
    b_seq = ad.moveaxis(ad.linear(xt, params.b_proj), 1, 2)         # (B, N, L)
    c_seq = ad.moveaxis(ad.linear(xt, params.c_proj), 1, 2)         # (B, N, L)
    dt = ad.linear(ad.linear(xt, params.dt_down), params.dt_up, params.dt_bias)
    delta = ad.moveaxis(ad.softplus(dt), 1, 2)                      # (B, D, L)
    return ScanInputs(x=x_seq, delta=delta, b_seq=b_seq, c_seq=c_seq)


def _discretize(delta: np.ndarray, a_t: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Token-wise rule on the trailing axes: delta (..., D), A^T (N, D),
    b (..., N) -> abar = exp(delta * A), bbar = delta * b, both (..., N, D)."""
    abar = delta[..., None, :] * a_t
    return np.exp(abar, out=abar), delta[..., None, :] * b[..., None]


def discretize(delta: np.ndarray, a_log: np.ndarray,
               b_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order hold on A, first-order Euler on B.

    delta (B, D, L), a_log (D, N), b_seq (B, N, L) -> abar, bbar (B, D, N, L)
    with abar = exp(delta * A), A = -exp(a_log), and bbar = delta * b.
    """
    abar, bbar = _discretize(np.moveaxis(delta, -1, 0), -np.exp(a_log.T), np.moveaxis(b_seq, -1, 0))
    return abar.transpose(1, 3, 2, 0), bbar.transpose(1, 3, 2, 0)


def _pair_scan_sequential(abar: np.ndarray, u: np.ndarray) -> np.ndarray:
    """h_i = abar_i * h_{i-1} + u_i with h_{-1} = 0, literal loop over the
    leading (scan) axis."""
    h, acc = np.empty_like(u), 0.0
    for i in range(len(u)):
        h[i] = acc = abar[i] * acc + u[i]
    return h


def _pair_scan_doubling(abar: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Same recurrence by recursive doubling over the associative pair
    composition (a2, u2) o (a1, u1) = (a1 a2, a2 u1 + u2): after round s,
    position i holds elements (i - 2s, i]; any L, in ceil(log2 L) rounds."""
    a = abar.copy()
    h = u.copy()
    shift = 1
    while shift < len(u):
        # combine each position with the one `shift` steps earlier;
        # both right-hand sides read pre-round values
        h[shift:] = h[shift:] + a[shift:] * h[:-shift]
        a[shift:] = a[shift:] * a[:-shift]
        shift *= 2
    return h


def _check_scan_operands(op: str, inputs: ScanInputs, params: SsmParams,
                         need_dirs: bool) -> None:
    x, delta, b_seq, c_seq = inputs.x, inputs.delta, inputs.b_seq, inputs.c_seq
    if x.ndim != 3:
        raise ShapeMismatch(op, f"x must be (B, D, L), got {x.shape}")
    (bsz, d, length), n = x.shape, params.n_state
    if d != params.d_inner:
        raise ShapeMismatch(op, f"x has {d} channels but params expect {params.d_inner}")
    if delta.shape != (bsz, d, length):
        raise ShapeMismatch(op, f"delta shape {delta.shape} must match x shape {x.shape}")
    if b_seq.shape != (bsz, n, length) or c_seq.shape != (bsz, n, length):
        raise ShapeMismatch(op, f"b_seq/c_seq must be ({bsz}, {n}, {length}), got "
                                f"{b_seq.shape} and {c_seq.shape}")
    if np.any(delta.data < 0):
        raise ValueError(f"{op}: delta must be non-negative")
    if need_dirs:
        dirs = inputs.dirs
        if dirs is None:
            raise ValueError(f"{op}: direction codes are required")
        dirs = np.asarray(dirs)
        if dirs.shape not in ((length,), (bsz, length)) or not np.issubdtype(dirs.dtype, np.integer):
            raise ShapeMismatch(op, f"dirs must be ({length},) or ({bsz}, {length}) integers, "
                                    f"got {dirs.shape} {dirs.dtype}")
        if dirs.size:
            if np.any(dirs[..., 0] != Direction.BEGIN):
                raise ValueError(f"{op}: dirs[..., 0] must be the begin code ({Direction.BEGIN:d})")
            if dirs.min() < 0 or dirs.max() >= N_DIRECTIONS:
                raise ValueError(f"{op}: direction codes must lie in [0, {N_DIRECTIONS})")


def _selective_scan(op: str, inputs: ScanInputs, params: SsmParams, *,
                    with_directions: bool, scan):
    """Shared kernel body: y = C h + skip_gain * x with h_i = abar_i h_{i-1}
    + delta_i (b_i [+ table[dirs_i]]) x_i as one fused tape node. Returns y and
    a function recomputing (abar, h), both (L, B, N, D), by the route's scan."""
    _check_scan_operands(op, inputs, params, need_dirs=with_directions)
    x, delta, b_seq, c_seq = inputs.x, inputs.delta, inputs.b_seq, inputs.c_seq
    a_log, skip, table = params.a_log, params.skip_gain, params.direction_table
    bad = ~np.isfinite(delta.data).all(axis=(0, 1))                 # (L,)
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)), "delta")

    # scan axis first, channels last: (L, B, D) and (L, B, N)
    xt, dt, beff, ct = (np.ascontiguousarray(np.moveaxis(v.data, -1, 0))
                        for v in (x, delta, b_seq, c_seq))
    dirs = None
    if with_directions:
        dirs = np.broadcast_to(inputs.dirs, (x.shape[0], x.shape[2])).T   # (L, B)
        beff = beff + table.data[dirs]
    a_t = np.ascontiguousarray(-np.exp(a_log.data.T))               # A^T, (N, D)

    def states():
        abar, bbar = _discretize(dt, a_t, beff)
        bbar *= xt[:, :, None, :]
        return abar, scan(abar, bbar)

    # numpy warnings are redundant here: the explicit check below raises a
    # typed error naming the first bad token
    with np.errstate(over="ignore", invalid="ignore"):
        if scan is _pair_scan_doubling:
            y = np.einsum("lbn,lbnd->lbd", ct, states()[1])
        else:  # literal route, one token per step: the working set is one (B, N, D) state
            y, h = np.empty(xt.shape, np.result_type(dt, a_t, beff, xt, ct)), 0.0
            for i in range(len(xt)):
                abar, bbar = _discretize(dt[i], a_t, beff[i])
                h = abar * h + bbar * xt[i][:, None, :]
                y[i] = np.einsum("bn,bnd->bd", ct[i], h)
        y += skip.data * xt
    # a non-finite state entry makes its token's output non-finite
    bad = ~np.isfinite(y).all(axis=(1, 2))                          # (L,)
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)))

    out = Tensor(np.moveaxis(y, 0, -1), dtype=y.dtype)

    def vjp(gy):
        gy = np.moveaxis(gy, -1, 0)                                 # (L, B, D)
        abar, h = states()
        # gh_i = gy_i c_i + abar_{i+1} gh_{i+1} is the forward recurrence on
        # reversed time with abar shifted one step (the first reversed factor
        # meets the zero initial state), so the forward routine solves it
        gh = scan(np.concatenate([np.ones_like(abar[:1]), abar[:0:-1]]),
                  (gy[:, :, None, :] * ct[..., None])[::-1])[::-1]
        gdta = abar                                    # d/d(delta * A), built in place
        gdta[0] = 0.0
        gdta[1:] *= gh[1:] * h[:-1]
        gdx = (gh * beff[..., None]).sum(axis=2)                    # d/d(delta * x)
        # beff = b + table[dirs]: b and the table share the gradient of beff
        gb = np.einsum("lbnd,lbd->lbn", gh, dt * xt)
        gtable = None if dirs is None else np.zeros_like(table.data)
        if dirs is not None:
            np.add.at(gtable, dirs, gb)                             # codes repeat
        # abar = exp(delta * A), A = -exp(a_log): dA/da_log = A
        ga_log = (np.einsum("lbnd,lbd->nd", gdta, dt) * a_t).T
        grads = (gdx * dt + gy * skip.data, gdx * xt + np.einsum("lbnd,nd->lbd", gdta, a_t),
                 gb, np.einsum("lbd,lbnd->lbn", gy, h))
        return (*(np.moveaxis(g, 0, -1) for g in grads), ga_log,
                (gy * xt).sum(axis=(0, 1)), gtable)

    ad.record(op, out, (x, delta, b_seq, c_seq, a_log, skip, table), vjp)
    return out, states


def selective_scan_sequential(inputs: ScanInputs, params: SsmParams, *,
                              return_hidden: bool = False):
    """Direction-free scan evaluated as the literal recurrence; with return_hidden,
    also returns the (B, D, N, L) states, recomputed as the backward does."""
    out, states = _selective_scan("selective_scan_sequential", inputs, params,
                                  with_directions=False, scan=_pair_scan_sequential)
    return (out, states()[1].transpose(1, 3, 2, 0)) if return_hidden else out


def selective_scan_parallel(inputs: ScanInputs, params: SsmParams) -> Tensor:
    """Direction-free scan evaluated as the log-depth doubling scan."""
    return _selective_scan("selective_scan_parallel", inputs, params,
                           with_directions=False, scan=_pair_scan_doubling)[0]


def direction_aware_scan(inputs: ScanInputs, params: SsmParams, *,
                         parallel: bool = False) -> Tensor:
    """Scan with the per-direction additive B term, discretized exactly like B
    itself: token i's effective input matrix is delta_i * (b_i + table[dirs[i]]).
    A zero table reproduces the plain scan bit for bit."""
    scan = _pair_scan_doubling if parallel else _pair_scan_sequential
    return _selective_scan("direction_aware_scan", inputs, params,
                           with_directions=True, scan=scan)[0]


def directional_scan_sum(features: Tensor, params: SsmParams) -> Tensor:
    """Scan the four paths of a (B, D, H, W) map's grid (path_table) in one
    call, paths folded into the batch, and sum the rescattered results.
    The projection is tokenwise, so it runs once, in raster order."""
    bsz, d, h, w = features.shape
    paths = path_table(h, w)
    proj = selective_projection(ad.reshape(features, (bsz, d, h * w)), params)
    folded = [gather_tokens(ad.reshape(t, (bsz, t.shape[1], h, w)), paths)
              for t in (proj.delta, proj.b_seq, proj.c_seq)]
    dirs = np.repeat(np.stack([path.dirs for path in paths]), bsz, axis=0)
    inputs = ScanInputs(gather_tokens(features, paths), *folded, dirs=dirs)
    return scatter_tokens(direction_aware_scan(inputs, params), paths)
