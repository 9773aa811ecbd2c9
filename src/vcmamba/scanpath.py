"""Continuous 2-D scan paths over an H x W grid.

Four serpentine traversals turn the grid into a token sequence without ever
jumping between non-adjacent cells: row and column boustrophedon starting at
the top-left, plus their exact elementwise reversals. Each path carries a
direction code per step, derived from the offset to the predecessor cell;
the first token gets the dedicated begin code.

gather_tokens folds the paths of a channels-last (B, H, W, C) map into the
batch, path p in row block p of its (P*B, C, L) result; scatter_tokens, its
adjoint, sums the blocks back in path order. Only this module knows the fold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from typing import IO, Sequence

import numpy as np

from .autodiff import Tensor, record


class PathId(str, Enum):
    ROW_SNAKE_TL = "row_snake_tl"
    COL_SNAKE_TL = "col_snake_tl"
    ROW_SNAKE_BR = "row_snake_br"
    COL_SNAKE_BR = "col_snake_br"


class Direction(IntEnum):
    BEGIN = 0
    RIGHT = 1
    LEFT = 2
    DOWN = 3
    UP = 4


# offset (drow, dcol) from predecessor to current cell
_STEP_TO_DIRECTION = {
    (0, 1): Direction.RIGHT,
    (0, -1): Direction.LEFT,
    (1, 0): Direction.DOWN,
    (-1, 0): Direction.UP,
}


@dataclass(frozen=True)
class ScanPath:
    """A fixed traversal: order[k] is the flat (row-major) cell index visited
    at step k, dirs[k] the direction code of the step that reached it."""

    path_id: PathId
    height: int
    width: int
    order: np.ndarray   # (L,) int64, a permutation of range(H*W)
    dirs: np.ndarray    # (L,) int64 direction codes, dirs[0] == BEGIN
    _inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inv = np.empty_like(self.order)
        inv[self.order] = np.arange(self.order.size)
        inv.setflags(write=False)
        object.__setattr__(self, "_inv", inv)

    @property
    def length(self) -> int:
        return self.height * self.width

    def inverse(self) -> np.ndarray:
        """inv with inv[order[k]] = k, i.e. the scatter indices (built once)."""
        return self._inv


def _snake_rows(height: int, width: int) -> np.ndarray:
    idx = np.arange(height * width, dtype=np.int64).reshape(height, width)
    idx[1::2] = idx[1::2, ::-1]
    return idx.reshape(-1)


def _snake_cols(height: int, width: int) -> np.ndarray:
    idx = np.arange(height * width, dtype=np.int64).reshape(height, width)
    t = np.ascontiguousarray(idx.T)
    t[1::2] = t[1::2, ::-1]
    return t.reshape(-1)


def _directions_for(order: np.ndarray, height: int, width: int) -> np.ndarray:
    rows, cols = order // width, order % width
    dirs = np.empty(order.size, dtype=np.int64)
    dirs[0] = Direction.BEGIN
    for k in range(1, order.size):
        step = (int(rows[k] - rows[k - 1]), int(cols[k] - cols[k - 1]))
        code = _STEP_TO_DIRECTION.get(step)
        if code is None:
            raise ValueError(f"scan path broke adjacency at step {k}: "
                             f"cell ({rows[k - 1]}, {cols[k - 1]}) -> ({rows[k]}, {cols[k]})")
        dirs[k] = code
    return dirs


def build_path(height: int, width: int, path_id: PathId | str) -> ScanPath:
    """Construct one of the four traversals for an H x W grid."""
    if height < 1 or width < 1:
        raise ValueError(f"grid must be at least 1x1, got {height}x{width}")
    path_id = PathId(path_id)
    if path_id in (PathId.ROW_SNAKE_TL, PathId.ROW_SNAKE_BR):
        order = _snake_rows(height, width)
    else:
        order = _snake_cols(height, width)
    if path_id in (PathId.ROW_SNAKE_BR, PathId.COL_SNAKE_BR):
        order = np.ascontiguousarray(order[::-1])
    dirs = _directions_for(order, height, width)
    order.setflags(write=False)
    dirs.setflags(write=False)
    return ScanPath(path_id, height, width, order, dirs)


@lru_cache(maxsize=64)
def path_table(height: int, width: int) -> tuple[ScanPath, ...]:
    """All four paths for a grid, in a fixed deterministic order."""
    return tuple(build_path(height, width, pid) for pid in PathId)


def _fold(fmap: np.ndarray, paths: Sequence[ScanPath]) -> np.ndarray:
    """(B, H, W, C) -> (P*B, C, L): row block p reads the cells in paths[p].order."""
    b, h, w, c = fmap.shape
    orders = np.stack([p.order for p in paths])
    taken = np.take(fmap.reshape(b, h * w, c), orders, axis=1)          # (B, P, L, C)
    return taken.transpose(1, 0, 3, 2).reshape(-1, c, h * w)


def _unfold(tokens: np.ndarray, paths: Sequence[ScanPath]) -> np.ndarray:
    """Adjoint of _fold: (P*B, C, L) -> (B, H, W, C), row block p read in
    paths[p].inverse(), blocks summed in path order. Every order is a
    permutation, so no index repeats and no scatter-add is needed."""
    parts = np.split(tokens, len(paths))
    total = parts[0][..., paths[0].inverse()]
    for part, path in zip(parts[1:], paths[1:]):
        total = total + part[..., path.inverse()]
    return np.moveaxis(total.reshape(total.shape[0], -1, paths[0].height, paths[0].width), 1, 3)


def gather_tokens(x: Tensor, paths: Sequence[ScanPath]) -> Tensor:
    """Channels-last (B, H, W, C) map -> (P*B, C, L) scan operands, path p's
    B rows in block p."""
    _, h, w, _ = x.shape
    if any((h, w) != (p.height, p.width) for p in paths):
        raise ValueError(f"feature map {h}x{w} does not match path grid "
                         f"{paths[0].height}x{paths[0].width}")
    out = Tensor(_fold(x.data, paths), dtype=x.dtype)
    record("gather_tokens", out, (x,), lambda g: (_unfold(g, paths),))
    return out


def scatter_tokens(tokens: Tensor, paths: Sequence[ScanPath]) -> Tensor:
    """(P*B, C, L) tokens, path p's B rows in block p -> channels-last
    (B, H, W, C) map: each block put back in place, the blocks summed."""
    pb, _, l = tokens.shape
    if any(l != p.length for p in paths):
        raise ValueError(f"token count {l} does not match path length {paths[0].length}")
    if pb % len(paths):
        raise ValueError(f"{pb} token rows do not split into {len(paths)} paths")
    out = Tensor(_unfold(tokens.data, paths), dtype=tokens.dtype)
    record("scatter_tokens", out, (tokens,), lambda g: (_fold(g, paths),))
    return out


def dump_csv(path: ScanPath, out: IO[str]) -> None:
    """Write the traversal as CSV: step, flat_index, row, col, direction."""
    writer = csv.writer(out)
    writer.writerow(["step", "flat_index", "row", "col", "direction"])
    for k, (flat, code) in enumerate(zip(path.order, path.dirs)):
        writer.writerow([k, int(flat), int(flat) // path.width, int(flat) % path.width,
                         Direction(int(code)).name.lower()])
