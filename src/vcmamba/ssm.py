"""Selective state-space core with direction-aware scanning.

The continuous model h'(t) = A h(t) + B x(t), y = C h(t) + D x(t) is
discretized per token with a zero-order hold on A (exact exponential) and a
first-order Euler rule on B:

    abar_i = exp(delta_i * A)          bbar_i = delta_i * b_i

A is diagonal, negative real: A = -exp(a_log), so abar lies in (0, 1) for
positive delta and the recurrence h_i = abar_i h_{i-1} + bbar_i x_i is
contractive. B, C and delta are input dependent (selective), produced per
token by selective_projection. The direction-aware form adds a learned
per-direction term to B before discretization, so the effective input matrix
of token i is delta_i * (b_i + table[dirs[i]]).

The scan runs either as the literal sequential recurrence or as a log-depth
pairwise (recursive doubling) scan over the associative composition
(a2, u2) o (a1, u1) = (a1 a2, a2 u1 + u2). Both are exposed and contract
tested against each other. The whole scan is one tape op with a hand-derived
adjoint: gh_i = gy_i c_i + abar_{i+1} gh_{i+1}, the same recurrence run in
reverse time by the same routine as the forward scan.

Array layout is (B, D, N, L) with the scan axis last: batch, inner channels,
state dimension, sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor
from .nn import Module, trunc_normal
from .scanpath import Direction, ScanPath, gather_tokens, scatter_tokens

N_DIRECTIONS = len(Direction)


class NonFiniteStateError(RuntimeError):
    """A scan produced a non-finite state or output; names the first bad token."""

    def __init__(self, token_index: int):
        super().__init__(f"scan produced a non-finite value at token index {token_index}")
        self.token_index = token_index


def delta_rank(d_inner: int) -> int:
    """Rank of the low-rank delta head: one per 32 inner channels, at least 1."""
    return max(1, d_inner // 32)


class SsmParams(Module):
    """Parameters of one selective SSM, shared across scan directions.

    a_log (D, N) stores log(-A) per channel and state; skip_gain is the
    direct feedthrough D term; b_proj / c_proj produce the per-token input
    and readout vectors from the token features; the delta head is a
    low-rank map (dt_down, dt_up, dt_bias) whose softplus output is the
    per-token step size; direction_table holds one additive B-space row per
    direction code.
    """

    def __init__(self, d_inner: int, n_state: int = 16, *,
                 rng: np.random.Generator | None = None, dtype=ad.DEFAULT_DTYPE):
        super().__init__()
        if d_inner < 1 or n_state < 1:
            raise ValueError(f"d_inner and n_state must be positive, got {d_inner}, {n_state}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.d_inner = d_inner
        self.n_state = n_state
        self.dt_rank = delta_rank(d_inner)

        # S4D-real spectrum: state n relaxes at rate n + 1
        a_init = np.log(np.arange(1, n_state + 1, dtype=np.float64))[None, :]
        self.a_log = Tensor(np.broadcast_to(a_init, (d_inner, n_state)).astype(dtype),
                            requires_grad=True, dtype=dtype)
        self.skip_gain = Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True, dtype=dtype)
        self.b_proj = Tensor(trunc_normal(rng, (n_state, d_inner), dtype=dtype), requires_grad=True, dtype=dtype)
        self.c_proj = Tensor(trunc_normal(rng, (n_state, d_inner), dtype=dtype), requires_grad=True, dtype=dtype)
        self.dt_down = Tensor(trunc_normal(rng, (self.dt_rank, d_inner), dtype=dtype),
                              requires_grad=True, dtype=dtype)
        self.dt_up = Tensor(trunc_normal(rng, (d_inner, self.dt_rank), dtype=dtype),
                            requires_grad=True, dtype=dtype)
        # bias placed so softplus lands log-uniformly in [1e-3, 0.1]
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(0.1), size=d_inner))
        self.dt_bias = Tensor(np.log(np.expm1(dt)).astype(dtype), requires_grad=True, dtype=dtype)
        self.direction_table = Tensor(np.zeros((N_DIRECTIONS, n_state), dtype=dtype),
                                      requires_grad=True, dtype=dtype)


@dataclass
class ScanInputs:
    """Per-token scan operands. x, delta: (B, D, L); b_seq, c_seq: (B, N, L);
    dirs: (L,) integer direction codes or None for direction-free scans."""

    x: Tensor
    delta: Tensor
    b_seq: Tensor
    c_seq: Tensor
    dirs: np.ndarray | None = None


def selective_projection(x_seq: Tensor, params: SsmParams) -> ScanInputs:
    """Produce per-token delta, B and C from token features x_seq (B, D, L).

    delta = softplus(dt_up @ (dt_down @ x) + dt_bias) is strictly positive;
    b_seq and c_seq are plain linear maps into the state dimension.
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


def discretize(delta: np.ndarray, a_log: np.ndarray,
               b_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order hold on A, first-order Euler on B.

    delta (B, D, L), a_log (D, N), b_seq (B, N, L) -> abar, bbar (B, D, N, L)
    with abar = exp(delta * A), A = -exp(a_log), and bbar = delta * b.
    """
    a = -np.exp(a_log)                                              # (D, N)
    abar = np.exp(delta[:, :, None, :] * a[None, :, :, None])       # (B, D, N, L)
    bbar = delta[:, :, None, :] * b_seq[:, None, :, :]
    return abar, bbar


def _pair_scan_sequential(abar: np.ndarray, u: np.ndarray) -> np.ndarray:
    """h_i = abar_i * h_{i-1} + u_i with h_{-1} = 0, literal loop over L."""
    h = np.empty_like(u)
    acc = np.zeros(u.shape[:-1], dtype=u.dtype)
    for i in range(u.shape[-1]):
        acc = abar[..., i] * acc + u[..., i]
        h[..., i] = acc
    return h


def _pair_scan_doubling(abar: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Same recurrence evaluated as a log-depth pairwise scan.

    Recursive doubling over the associative pair composition: after round s,
    position i holds the composition of elements (i - 2s, i]. Handles any L,
    power of two or not, in ceil(log2 L) rounds of vectorized updates.
    """
    a = abar.copy()
    h = u.copy()
    length = u.shape[-1]
    shift = 1
    while shift < length:
        # combine each position with the one `shift` steps earlier;
        # both right-hand sides read pre-round values
        h[..., shift:] = h[..., shift:] + a[..., shift:] * h[..., :-shift]
        a[..., shift:] = a[..., shift:] * a[..., :-shift]
        shift *= 2
    return h


def _check_scan_operands(op: str, inputs: ScanInputs, params: SsmParams,
                         need_dirs: bool) -> None:
    x, delta, b_seq, c_seq = inputs.x, inputs.delta, inputs.b_seq, inputs.c_seq
    if x.ndim != 3:
        raise ShapeMismatch(op, f"x must be (B, D, L), got {x.shape}")
    bsz, d, length = x.shape
    n = params.n_state
    if d != params.d_inner:
        raise ShapeMismatch(op, f"x has {d} channels but params expect {params.d_inner}")
    if delta.shape != (bsz, d, length):
        raise ShapeMismatch(op, f"delta shape {delta.shape} must match x shape {x.shape}")
    if b_seq.shape != (bsz, n, length) or c_seq.shape != (bsz, n, length):
        raise ShapeMismatch(op, f"b_seq/c_seq must be ({bsz}, {n}, {length}), got "
                                f"{b_seq.shape} and {c_seq.shape}")
    if not np.all(delta.data > 0):
        raise ValueError(f"{op}: delta must be strictly positive")
    if need_dirs:
        dirs = inputs.dirs
        if dirs is None:
            raise ValueError(f"{op}: direction codes are required")
        dirs = np.asarray(dirs)
        if dirs.shape != (length,) or not np.issubdtype(dirs.dtype, np.integer):
            raise ShapeMismatch(op, f"dirs must be ({length},) integers, got {dirs.shape} "
                                    f"{dirs.dtype}")
        if dirs.size:
            if dirs[0] != Direction.BEGIN:
                raise ValueError(f"{op}: dirs[0] must be the begin code ({int(Direction.BEGIN)})")
            if dirs.min() < 0 or dirs.max() >= N_DIRECTIONS:
                raise ValueError(f"{op}: direction codes must lie in [0, {N_DIRECTIONS})")


def _selective_scan(op: str, inputs: ScanInputs, params: SsmParams, *,
                    with_directions: bool, scan):
    """Shared kernel body. Computes y = C h + skip_gain * x where h follows
    h_i = abar_i h_{i-1} + delta_i (b_i [+ table[dirs_i]]) x_i, evaluates the
    recurrence and its adjoint with the same pair-scan routine, records one
    fused node on the tape, and returns (y, h)."""
    _check_scan_operands(op, inputs, params, need_dirs=with_directions)
    x, delta, b_seq, c_seq = inputs.x, inputs.delta, inputs.b_seq, inputs.c_seq
    a_log, skip, table = params.a_log, params.skip_gain, params.direction_table

    xd, dd, bd, cd = x.data, delta.data, b_seq.data, c_seq.data
    if with_directions:
        dirs = np.asarray(inputs.dirs)
        beff = bd + table.data[dirs].T[None, :, :]          # (B, N, L)
    else:
        dirs = None
        beff = bd

    # numpy warnings are redundant here: the explicit check below raises a
    # typed error naming the first bad token
    with np.errstate(over="ignore", invalid="ignore"):
        abar, bbar = discretize(dd, a_log.data, beff)           # (B, D, N, L)
        h = scan(abar, bbar * xd[:, :, None, :])                # (B, D, N, L)
        y = np.einsum("bnl,bdnl->bdl", cd, h) + skip.data[None, :, None] * xd

    bad = ~(np.isfinite(h).all(axis=(0, 1, 2)) & np.isfinite(y).all(axis=(0, 1)))   # (L,)
    if bad.any():
        raise NonFiniteStateError(int(np.argmax(bad)))

    out = Tensor(y, dtype=y.dtype)
    needs = (x.requires_grad, delta.requires_grad, b_seq.requires_grad,
             c_seq.requires_grad, a_log.requires_grad, skip.requires_grad,
             with_directions and table.requires_grad)

    def vjp(gy):
        # gh_i = gy_i c_i + abar_{i+1} gh_{i+1} is the forward recurrence on
        # reversed time with abar shifted one step (the first reversed factor
        # meets the zero initial state), so the forward routine solves it
        t = gy[:, :, None, :] * cd[:, None, :, :]           # (B, D, N, L)
        a_rev = np.concatenate([np.ones_like(abar[..., :1]), abar[..., :0:-1]], axis=-1)
        gh = scan(a_rev, t[..., ::-1])[..., ::-1].copy()
        hprev = np.concatenate([np.zeros_like(h[..., :1]), h[..., :-1]], axis=-1)
        gabar = gh * hprev
        gdta = gabar * abar                                 # d/d(delta * A)
        # abar = exp(delta * A), A = -exp(a_log): dA/da_log = A
        a = -np.exp(a_log.data)

        gx = gskip = gdelta = gb = gc = gtable = ga_log = None
        if needs[0] or needs[1]:
            gdx = (gh * beff[:, None, :, :]).sum(axis=2)    # d/d(delta * x), (B, D, L)
        if needs[0]:
            gx = gdx * dd + gy * skip.data[None, :, None]
        if needs[1]:
            gdelta = gdx * xd + np.einsum("bdnl,dn->bdl", gdta, a)
        if needs[2] or needs[6]:
            # beff = b + table[dirs]: both share the gradient of beff
            gb = np.einsum("bdnl,bdl->bnl", gh, dd * xd)
        if needs[3]:
            gc = np.einsum("bdl,bdnl->bnl", gy, h)
        if needs[4]:
            ga_log = np.einsum("bdnl,bdl->dn", gdta, dd) * a
        if needs[5]:
            gskip = (gy * xd).sum(axis=(0, 2))
        if needs[6]:
            gtable = np.zeros_like(table.data)
            np.add.at(gtable, dirs, gb.sum(axis=0).T)
        return (gx, gdelta, gb, gc, ga_log, gskip, gtable)

    ad.record(op, out, (x, delta, b_seq, c_seq, a_log, skip, table), vjp)
    return out, h


def selective_scan_sequential(inputs: ScanInputs, params: SsmParams, *,
                              return_hidden: bool = False):
    """Direction-free scan evaluated as the literal recurrence; with
    return_hidden, also returns the (B, D, N, L) states."""
    out, h = _selective_scan("selective_scan_sequential", inputs, params,
                             with_directions=False, scan=_pair_scan_sequential)
    return (out, h) if return_hidden else out


def selective_scan_parallel(inputs: ScanInputs, params: SsmParams) -> Tensor:
    """Direction-free scan evaluated as the log-depth doubling scan."""
    return _selective_scan("selective_scan_parallel", inputs, params,
                           with_directions=False, scan=_pair_scan_doubling)[0]


def direction_aware_scan(inputs: ScanInputs, params: SsmParams, *,
                         parallel: bool = False) -> Tensor:
    """Scan with the per-direction additive B term, discretized exactly like
    B itself: the effective input matrix of token i is
    delta_i * (b_i + table[dirs[i]]). A zero table reproduces the plain scan
    bit for bit."""
    scan = _pair_scan_doubling if parallel else _pair_scan_sequential
    return _selective_scan("direction_aware_scan", inputs, params,
                           with_directions=True, scan=scan)[0]


def directional_scan_sum(features: Tensor, params: SsmParams,
                         paths: Sequence[ScanPath]) -> Tensor:
    """Run one direction-aware scan per path over a (B, D, H, W) map and sum
    the rescattered results (the pre-normalization mix)."""
    total = None
    for path in paths:
        tokens = gather_tokens(features, path)
        inputs = selective_projection(tokens, params)
        inputs.dirs = path.dirs
        y = direction_aware_scan(inputs, params)
        spread = scatter_tokens(y, path)
        total = spread if total is None else ad.add(total, spread)
    return total


def multi_directional_mix(features: Tensor, params: SsmParams, paths: Sequence[ScanPath],
                          ln_gamma: Tensor, ln_beta: Tensor, *, eps: float = 1e-5) -> Tensor:
    """Four-path scan mix: gather, project, scan, scatter, sum, then layer
    norm over the channel axis at every spatial position."""
    if not paths:
        raise ValueError("multi_directional_mix needs at least one path")
    mixed = directional_scan_sum(features, params, paths)
    moved = ad.moveaxis(mixed, 1, 3)                        # (B, H, W, D)
    normed = ad.layer_norm(moved, ln_gamma, ln_beta, eps=eps)
    return ad.moveaxis(normed, 3, 1)
