"""Continuous 2-D scan paths over an H x W grid.

Four serpentine traversals turn the grid into a token sequence without ever
jumping between non-adjacent cells: row and column boustrophedon starting at
the top-left, plus their exact elementwise reversals. build_path makes each
from the row-major index grid by index arithmetic, so a snake is adjacent by
construction. Each step carries a direction code, looked up from its offset
to the predecessor cell; the first token gets the dedicated begin code.

gather_tokens folds the paths of a channels-last (B, H, W, C) map into the
batch, path p in row block p of its (P*B, C, L) result; scatter_tokens, its
adjoint, sums the blocks back in path order. fold_dirs gives the fold rows
their direction codes and fold_site maps a fold row and token back to path,
image and cell. Only this module knows the fold.
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


# the code of a step by its offset from the predecessor cell,
# _CODE_BY_STEP[drow + 1, dcol + 1]; -1 marks the offsets no snake takes
_CODE_BY_STEP = np.array([[-1, Direction.UP, -1],
                          [Direction.LEFT, -1, Direction.RIGHT],
                          [-1, Direction.DOWN, -1]], dtype=np.int64)


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


def build_path(height: int, width: int, path_id: PathId | str) -> ScanPath:
    """Construct one of the four traversals for an H x W grid: the row-major
    index grid, transposed for the column snakes, every other row reversed,
    the whole order reversed for the _br paths."""
    if height < 1 or width < 1:
        raise ValueError(f"grid must be at least 1x1, got {height}x{width}")
    path_id = PathId(path_id)
    grid = np.arange(height * width, dtype=np.int64).reshape(height, width)
    if path_id in (PathId.COL_SNAKE_TL, PathId.COL_SNAKE_BR):
        grid = np.ascontiguousarray(grid.T)
    grid[1::2] = grid[1::2, ::-1]
    order = grid.reshape(-1)
    if path_id in (PathId.ROW_SNAKE_BR, PathId.COL_SNAKE_BR):
        order = np.ascontiguousarray(order[::-1])
    # np.divmod or a prepended diff here measured up to 10% more peak RSS in
    # an S@448 eval process: these small arrays live in the path_table cache,
    # and where they land in the heap decides its fragmentation
    rows, cols = order // width, order % width
    dirs = np.empty_like(order)
    dirs[0] = Direction.BEGIN
    dirs[1:] = _CODE_BY_STEP[np.diff(rows) + 1, np.diff(cols) + 1]
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


def fold_dirs(paths: Sequence[ScanPath], batch: int) -> np.ndarray:
    """Direction codes of the (P*B, L) fold rows: paths[p].dirs in row block p."""
    return np.repeat(np.stack([path.dirs for path in paths]), batch, axis=0)


def fold_site(paths: Sequence[ScanPath], batch: int, row: int,
              token: int) -> tuple[str, int, tuple[int, int]]:
    """Where token `token` of fold row `row` comes from, for a fold of `batch`
    images: the path id, the image and the grid cell (row, col)."""
    path = paths[row // batch]
    return path.path_id.value, row % batch, divmod(int(path.order[token]), path.width)


def dump_csv(path: ScanPath, out: IO[str]) -> None:
    """Write the traversal as CSV: step, flat_index, row, col, direction."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", "flat_index", "row", "col", "direction"])
    for k, (flat, code) in enumerate(zip(path.order, path.dirs)):
        writer.writerow([k, int(flat), int(flat) // path.width, int(flat) % path.width,
                         Direction(int(code)).name.lower()])
