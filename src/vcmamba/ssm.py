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
recurrence is written once, in _chunk_states, which runs CHUNK tokens' abar
and states into two (CHUNK, B, N, D) buffers from the state entering them.
The literal forward walks the chunks with it and reads each one out, so it
builds no (L, B, N, D) array. The scan is one tape op. While a tape records,
the forward keeps each chunk's entry state, and nothing else; the adjoint
walks the chunks in reverse, recomputes each with the same routine, then
solves gh_i = gy_i c_i + abar_{i+1} gh_{i+1} one token at a time, writing
that token's gradients as it goes. A log-depth doubling scan over the
associative pair composition is the oracle the literal route is tested
against; it takes the entry states from its state array and shares the
adjoint. The model does not call it. A Mamba block makes one projection and
one scan call on a channels-last (B, H, W, D) map: the map is projected once,
the input and the projections are gathered into all four path orders with
the paths folded into the batch axis, scanned, scattered back and summed.
The fold's row layout, its rows' direction codes and the way back from a
failing row to path, image and cell all live in scanpath.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatch, Tensor
from .nn import Module, ModuleError
from .scanpath import Direction, fold_dirs, fold_site, gather_tokens, path_table, scatter_tokens

N_DIRECTIONS = len(Direction)
# tokens per chunk of the scan backward: the forward keeps the state entering
# each chunk, and the backward recomputes one chunk at a time
CHUNK = 8


class NonFiniteStateError(ModuleError):
    """Non-finite scan delta, state or output, a runtime fault. Names the first
    bad token and, in it, the first bad batch row; raised from the four-path
    mix it also names the path, the image and the grid cell (row, col), and
    from a model the module, e.g. "stage4.blocks.2.mamba, path col_snake_br,
    image 5, cell (3, 4)". The mix fills path, image and cell in place."""

    path: str | None = None
    image: int | None = None
    cell: tuple[int, int] | None = None

    def __init__(self, token_index: int, row: int, what: str = "value"):
        super().__init__(token_index, row, what)
        self.token_index, self.row, self.what = token_index, row, what

    def __str__(self) -> str:
        where = f"token index {self.token_index}, batch row {self.row}"
        if self.path is not None:
            where = f"path {self.path}, image {self.image}, cell {self.cell} ({where})"
        if self.module:
            where = f"{self.module}, {where}"
        return f"scan produced a non-finite {self.what} at {where}"


def _first_bad(bad: np.ndarray, what: str = "value") -> NonFiniteStateError:
    """The error for (L, B) non-finite flags: the first bad token, then its first bad row."""
    token = int(np.argmax(bad.any(axis=1)))
    return NonFiniteStateError(token, int(np.argmax(bad[token])), what)


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


def selective_projection(tokens: Tensor, params: SsmParams) -> tuple[Tensor, Tensor, Tensor]:
    """Per-token (delta, b_seq, c_seq) from channels-last token features
    (..., D), shaped (..., D), (..., N) and (..., N).

    delta = softplus(dt_up @ (dt_down @ x) + dt_bias) is non-negative (exactly
    0 in float32 below about -104); b_seq and c_seq are plain linear maps into
    the state dimension.
    """
    if tokens.shape[-1] != params.d_inner:
        raise ShapeMismatch("selective_projection",
                            f"expected (..., {params.d_inner}) features, got {tokens.shape}")
    b_seq = ad.linear(tokens, params.b_proj)
    c_seq = ad.linear(tokens, params.c_proj)
    dt = ad.linear(ad.linear(tokens, params.dt_down), params.dt_up, params.dt_bias)
    return ad.softplus(dt), b_seq, c_seq


def _discretize(delta: np.ndarray, a_t: np.ndarray, b: np.ndarray,
                out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Token-wise rule on the trailing axes: delta (..., D), A^T (N, D),
    b (..., N) -> abar = exp(delta * A), bbar = delta * b, both (..., N, D),
    written into out = (abar, bbar) where given."""
    abar = np.multiply(delta[..., None, :], a_t, out=out[0])
    return np.exp(abar, out=abar), np.multiply(delta[..., None, :], b[..., None], out=out[1])


def _chunk_states(delta: np.ndarray, a_t: np.ndarray, b: np.ndarray, x: np.ndarray,
                  h_in: np.ndarray | float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The literal recurrence over K tokens, scan axis first: delta, x (K, B, D),
    b (K, B, N), A^T (N, D) and the state entering them, h_in (B, N, D) or 0.0
    -> abar and the states h_i = abar_i h_{i-1} + (delta_i b_i) x_i, both
    (K, B, N, D). With out, a (2, >= K, B, N, D) buffer pair, they are
    written into its first K rows."""
    abar, h = _discretize(delta, a_t, b, (None, None) if out is None else out[:, :len(x)])
    h *= x[:, :, None, :]
    for j in range(len(h)):
        h[j] += abar[j] * (h[j - 1] if j else h_in)
    return abar, h


def _pair_scan_doubling(abar: np.ndarray, u: np.ndarray) -> np.ndarray:
    """h_i = abar_i h_{i-1} + u_i from h_{-1} = 0 along the leading axis by
    recursive doubling over the pair composition (a2, u2) o (a1, u1) =
    (a1 a2, a2 u1 + u2): after round s, position i holds elements (i - 2s, i];
    any L, in ceil(log2 L) rounds."""
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
                         dirs: np.ndarray | None) -> None:
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
    if dirs is not None:
        dirs = np.asarray(dirs)
        if dirs.shape not in ((length,), (bsz, length)) or not np.issubdtype(dirs.dtype, np.integer):
            raise ShapeMismatch(op, f"dirs must be ({length},) or ({bsz}, {length}) integers, "
                                    f"got {dirs.shape} {dirs.dtype}")
        if dirs.size:
            if np.any(dirs[..., 0] != Direction.BEGIN):
                raise ValueError(f"{op}: dirs[..., 0] must be the begin code ({Direction.BEGIN:d})")
            if dirs.min() < 0 or dirs.max() >= N_DIRECTIONS:
                raise ValueError(f"{op}: direction codes must lie in [0, {N_DIRECTIONS})")


def _selective_scan(op: str, inputs: ScanInputs, params: SsmParams,
                    dirs: np.ndarray | None, *, parallel: bool) -> Tensor:
    """Shared kernel body: y = C h + skip_gain * x with h_i = abar_i h_{i-1}
    + delta_i (b_i [+ table[dirs_i]]) x_i as one fused tape node, its states
    run by _chunk_states or, with parallel, by the doubling oracle. dirs is
    None for the direction-free scans."""
    _check_scan_operands(op, inputs, params, dirs)
    x, delta, b_seq, c_seq = inputs.x, inputs.delta, inputs.b_seq, inputs.c_seq
    a_log, skip, table = params.a_log, params.skip_gain, params.direction_table
    bad = ~np.isfinite(delta.data).all(axis=1)                      # (B, L)
    if bad.any():
        raise _first_bad(bad.T, "delta")

    # scan axis first, channels last: (L, B, D) and (L, B, N)
    xt, dt, beff, ct = (np.ascontiguousarray(np.moveaxis(v.data, -1, 0))
                        for v in (x, delta, b_seq, c_seq))
    if dirs is not None:
        dirs = np.broadcast_to(dirs, (x.shape[0], x.shape[2])).T    # (L, B)
        beff = beff + table.data[dirs]
    a_t = np.ascontiguousarray(-np.exp(a_log.data.T))               # A^T, (N, D)

    # the state entering each chunk, kept for the backward while a tape records
    keep = ad.recording(x, delta, b_seq, c_seq, a_log, skip, table)
    entry = [0.0]
    # numpy warnings are redundant here: the explicit check below raises a
    # typed error naming the first bad token
    with np.errstate(over="ignore", invalid="ignore"):
        if parallel:
            abar, u = _discretize(dt, a_t, beff)
            u *= xt[:, :, None, :]
            h = _pair_scan_doubling(abar, u)
            y = np.einsum("lbn,lbnd->lbd", ct, h)
            if keep:
                entry.extend(h[CHUNK - 1:-1:CHUNK].copy())
        else:  # literal route: the working set is one (2, CHUNK, B, N, D) buffer pair
            y = np.empty(xt.shape, np.result_type(dt, a_t, beff, xt, ct))
            buf, h_in = np.empty((2, min(CHUNK, len(y)), y.shape[1]) + a_t.shape, y.dtype), 0.0
            for start in range(0, len(y), CHUNK):
                if keep and start:
                    entry.append(h_in)
                chunk = slice(start, start + CHUNK)
                h = _chunk_states(dt[chunk], a_t, beff[chunk], xt[chunk], h_in, buf)[1]
                np.einsum("lbn,lbnd->lbd", ct[chunk], h, out=y[chunk])
                h_in = h[-1].copy()
        y += skip.data * xt
    # a non-finite state entry makes its token's output non-finite
    bad = ~np.isfinite(y).all(axis=2)                               # (L, B)
    if bad.any():
        raise _first_bad(bad)

    out = Tensor(np.moveaxis(y, 0, -1), dtype=y.dtype)
    shape, dtype = y.shape, y.dtype     # (L, B, D): the vjp keeps these, not y

    def vjp(gy):
        gy = np.ascontiguousarray(np.moveaxis(gy, -1, 0))           # (L, B, D)
        gx, gdelta = np.empty(shape, dtype), np.empty(shape, dtype)
        gb, gc = np.empty_like(beff), np.empty_like(ct)
        gdta_dt = np.zeros_like(a_t)          # sum over tokens and rows of gdta * delta
        buf = np.empty((2, min(CHUNK, len(gy)), shape[1]) + a_t.shape, dtype)
        carry = 0.0        # abar_{i+1} gh_{i+1}, formed before the buffers take the next chunk
        for start in reversed(range(0, len(gy), CHUNK)):
            chunk = slice(start, start + CHUNK)
            h_in = entry[start // CHUNK]
            abar, h = _chunk_states(dt[chunk], a_t, beff[chunk], xt[chunk], h_in, buf)
            gc[chunk] = np.einsum("lbd,lbnd->lbn", gy[chunk], h)
            for j in reversed(range(len(h))):
                i = start + j
                gh = gy[i][:, None, :] * ct[i][..., None] + carry
                gdu = (gh * beff[i][..., None]).sum(axis=1)         # d/d(delta * x)
                # beff = b + table[dirs]: b and the table share the gradient of beff
                gb[i] = np.einsum("bnd,bd->bn", gh, dt[i] * xt[i])
                carry = gh * abar[j]
                gx[i] = gdu * dt[i] + gy[i] * skip.data
                gdta = carry * (h[j - 1] if j else h_in)            # d/d(delta * A)
                gdta_dt += np.einsum("bnd,bd->nd", gdta, dt[i])
                gdelta[i] = gdu * xt[i] + np.einsum("bnd,nd->bd", gdta, a_t)
        gtable = None if dirs is None else np.zeros_like(table.data)
        if dirs is not None:
            np.add.at(gtable, dirs, gb)                             # codes repeat
        # abar = exp(delta * A), A = -exp(a_log): dA/da_log = A
        return (*(np.moveaxis(g, 0, -1) for g in (gx, gdelta, gb, gc)), (gdta_dt * a_t).T,
                (gy * xt).sum(axis=(0, 1)), gtable)

    ad.record(op, out, (x, delta, b_seq, c_seq, a_log, skip, table), vjp)
    return out


def selective_scan_sequential(inputs: ScanInputs, params: SsmParams) -> Tensor:
    """Direction-free scan evaluated as the literal recurrence."""
    return _selective_scan("selective_scan_sequential", inputs, params, None, parallel=False)


def selective_scan_parallel(inputs: ScanInputs, params: SsmParams) -> Tensor:
    """Direction-free scan evaluated as the log-depth doubling scan."""
    return _selective_scan("selective_scan_parallel", inputs, params, None, parallel=True)


def direction_aware_scan(inputs: ScanInputs, params: SsmParams, *,
                         parallel: bool = False) -> Tensor:
    """Scan with the per-direction additive B term, discretized exactly like B
    itself: token i's effective input matrix is delta_i * (b_i + table[dirs[i]]).
    A zero table reproduces the plain scan bit for bit."""
    if inputs.dirs is None:
        raise ValueError("direction_aware_scan: direction codes are required")
    return _selective_scan("direction_aware_scan", inputs, params, inputs.dirs, parallel=parallel)


def directional_scan_sum(features: Tensor, params: SsmParams) -> Tensor:
    """Scan the four paths of a channels-last (B, H, W, D) map's grid in one
    call, paths folded into the batch, and sum the rescattered results into a
    (B, H, W, D) map. The tokenwise projection runs once, on the map."""
    bsz, h, w, _ = features.shape
    paths = path_table(h, w)
    x = gather_tokens(features, paths)  # first, so the map's gradient is ((g_dt + g_c) + g_b) + g_x
    delta, b_seq, c_seq = (gather_tokens(t, paths) for t in selective_projection(features, params))
    inputs = ScanInputs(x, delta, b_seq, c_seq, dirs=fold_dirs(paths, bsz))
    try:
        y = direction_aware_scan(inputs, params)
    except NonFiniteStateError as err:
        err.path, err.image, err.cell = fold_site(paths, bsz, err.row, err.token_index)
        raise
    return scatter_tokens(y, paths)
