"""Scan path tests: frozen small-grid traversals plus exhaustive properties.

The property block re-derives adjacency and direction codes in-test from raw
row/col arithmetic, so a bug in the path builder cannot hide in its own
helper.
"""

import csv
import io

import numpy as np
import pytest

import vcmamba.autodiff as ad
from vcmamba.autodiff import Tape, Tensor, backward
from vcmamba.scanpath import (Direction, PathId, ScanPath, build_path, dump_csv,
                              gather_tokens, path_table, scatter_tokens)

ALL_IDS = list(PathId)

# independent offset -> code table for the property checks
OFFSET_CODES = {(0, 1): 1, (0, -1): 2, (1, 0): 3, (-1, 0): 4}


class TestFrozenTraversals:
    def test_row_snake_2x2(self):
        p = build_path(2, 2, PathId.ROW_SNAKE_TL)
        np.testing.assert_array_equal(p.order, [0, 1, 3, 2])
        np.testing.assert_array_equal(
            p.dirs, [Direction.BEGIN, Direction.RIGHT, Direction.DOWN, Direction.LEFT])

    def test_col_snake_3x3(self):
        p = build_path(3, 3, PathId.COL_SNAKE_TL)
        np.testing.assert_array_equal(p.order, [0, 3, 6, 7, 4, 1, 2, 5, 8])
        np.testing.assert_array_equal(p.dirs, [0, 3, 3, 1, 4, 4, 1, 3, 3])

    def test_row_snake_br_2x2(self):
        p = build_path(2, 2, PathId.ROW_SNAKE_BR)
        np.testing.assert_array_equal(p.order, [2, 3, 1, 0])
        np.testing.assert_array_equal(
            p.dirs, [Direction.BEGIN, Direction.RIGHT, Direction.UP, Direction.LEFT])

    def test_row_snake_3x4(self):
        p = build_path(3, 4, PathId.ROW_SNAKE_TL)
        np.testing.assert_array_equal(p.order, [0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11])

    def test_single_cell_paths(self):
        for pid in ALL_IDS:
            p = build_path(1, 1, pid)
            np.testing.assert_array_equal(p.order, [0])
            np.testing.assert_array_equal(p.dirs, [Direction.BEGIN])

    def test_single_row_grid(self):
        tl = build_path(1, 5, PathId.ROW_SNAKE_TL)
        np.testing.assert_array_equal(tl.order, np.arange(5))
        assert np.all(tl.dirs[1:] == Direction.RIGHT)
        br = build_path(1, 5, PathId.ROW_SNAKE_BR)
        np.testing.assert_array_equal(br.order, np.arange(5)[::-1])
        assert np.all(br.dirs[1:] == Direction.LEFT)


class TestPathProperties:
    def _grids(self):
        for h in range(1, 17):
            for w in range(1, 17):
                yield h, w

    def test_exhaustive_up_to_16(self):
        for h, w in self._grids():
            for pid in ALL_IDS:
                p = build_path(h, w, pid)
                # permutation of all cells
                np.testing.assert_array_equal(np.sort(p.order), np.arange(h * w))
                # rook adjacency between consecutive cells
                rows, cols = p.order // w, p.order % w
                if h * w > 1:
                    manhattan = np.abs(np.diff(rows)) + np.abs(np.diff(cols))
                    assert np.all(manhattan == 1), (h, w, pid)
                # direction codes recomputed from the raw offsets
                assert p.dirs[0] == Direction.BEGIN
                for k in range(1, h * w):
                    step = (int(rows[k] - rows[k - 1]), int(cols[k] - cols[k - 1]))
                    assert int(p.dirs[k]) == OFFSET_CODES[step], (h, w, pid, k)

    def test_br_paths_are_exact_reversals(self):
        for h, w in self._grids():
            row_tl = build_path(h, w, PathId.ROW_SNAKE_TL)
            col_tl = build_path(h, w, PathId.COL_SNAKE_TL)
            np.testing.assert_array_equal(
                build_path(h, w, PathId.ROW_SNAKE_BR).order, row_tl.order[::-1])
            np.testing.assert_array_equal(
                build_path(h, w, PathId.COL_SNAKE_BR).order, col_tl.order[::-1])

    def test_start_cells(self):
        # forward snakes start at the top-left; the reversals start where the
        # forward snake ended, which is always in the last row / last column
        # (which corner depends on the snake's parity)
        for h, w in self._grids():
            assert build_path(h, w, PathId.ROW_SNAKE_TL).order[0] == 0
            assert build_path(h, w, PathId.COL_SNAKE_TL).order[0] == 0
            row_br = build_path(h, w, PathId.ROW_SNAKE_BR)
            col_br = build_path(h, w, PathId.COL_SNAKE_BR)
            assert row_br.order[0] // w == h - 1
            assert col_br.order[0] % w == w - 1

    def test_paths_distinct_on_proper_grids(self):
        for h in range(2, 9):
            for w in range(2, 9):
                orders = [tuple(build_path(h, w, pid).order) for pid in ALL_IDS]
                assert len(set(orders)) == 4, (h, w)

    def test_inverse_is_inverse(self):
        for h, w in [(1, 1), (3, 5), (8, 8)]:
            for pid in ALL_IDS:
                p = build_path(h, w, pid)
                inv = p.inverse()
                np.testing.assert_array_equal(p.order[inv], np.arange(h * w))
                np.testing.assert_array_equal(inv[p.order], np.arange(h * w))

    def test_order_arrays_are_frozen(self):
        p = build_path(3, 3, PathId.ROW_SNAKE_TL)
        with pytest.raises(ValueError):
            p.order[0] = 5

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            build_path(0, 3, PathId.ROW_SNAKE_TL)
        with pytest.raises(ValueError):
            build_path(3, -1, PathId.ROW_SNAKE_TL)

    def test_unknown_path_id_rejected(self):
        with pytest.raises(ValueError):
            build_path(2, 2, "diagonal_sweep")

    def test_string_path_id_accepted(self):
        p = build_path(2, 3, "row_snake_tl")
        assert p.path_id is PathId.ROW_SNAKE_TL


class TestPathTable:
    def test_fixed_order_and_caching(self):
        table = path_table(4, 6)
        assert [p.path_id for p in table] == ALL_IDS
        assert path_table(4, 6) is table

    def test_direction_code_histogram_row_snake(self):
        # an H x W row snake takes W-1 horizontal steps per row and H-1 downs
        p = build_path(5, 7, PathId.ROW_SNAKE_TL)
        counts = np.bincount(p.dirs, minlength=5)
        assert counts[Direction.BEGIN] == 1
        assert counts[Direction.DOWN] == 4
        assert counts[Direction.RIGHT] + counts[Direction.LEFT] == 5 * 6
        assert counts[Direction.UP] == 0


class TestGatherScatter:
    def test_gather_matches_fancy_indexing(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 5, 3)))
        for pid in ALL_IDS:
            p = build_path(4, 5, pid)
            tokens = gather_tokens(x, [p])
            np.testing.assert_array_equal(
                tokens.data, np.moveaxis(x.data, 3, 1).reshape(2, 3, 20)[:, :, p.order])

    def test_roundtrip_is_bitwise_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 3, 4)))
        for pid in ALL_IDS:
            p = build_path(6, 3, pid)
            back = scatter_tokens(gather_tokens(x, [p]), [p])
            np.testing.assert_array_equal(back.data, x.data)

    def test_scatter_then_gather_roundtrip(self, rng):
        tokens = Tensor(rng.normal(size=(1, 2, 12)))
        p = build_path(3, 4, PathId.COL_SNAKE_BR)
        back = gather_tokens(scatter_tokens(tokens, [p]), [p])
        np.testing.assert_array_equal(back.data, tokens.data)

    def test_roundtrip_gradient_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 3, 2)), requires_grad=True, dtype=np.float64)
        p = build_path(3, 3, PathId.COL_SNAKE_TL)
        weights = rng.normal(size=(1, 3, 3, 2))
        with Tape():
            y = scatter_tokens(gather_tokens(x, [p]), [p])
            loss = ad.sum_all(ad.mul(y, Tensor(weights, dtype=np.float64)))
        backward(loss)
        np.testing.assert_allclose(x.grad, weights, atol=1e-15)

    def test_shape_mismatches_rejected(self, rng):
        p = build_path(4, 4, PathId.ROW_SNAKE_TL)
        with pytest.raises(ValueError, match="does not match path grid"):
            gather_tokens(Tensor(np.zeros((1, 3, 4, 2))), [p])
        with pytest.raises(ValueError, match="does not match path length"):
            scatter_tokens(Tensor(np.zeros((1, 2, 15))), [p])

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (4, 4)])
    def test_four_path_fold_is_path_major(self, rng, h, w):
        b, c = 2, 3
        paths = path_table(h, w)
        x = Tensor(rng.normal(size=(b, h, w, c)), dtype=np.float64)
        folded = gather_tokens(x, paths)
        assert folded.shape == (4 * b, c, h * w)
        for k, p in enumerate(paths):
            np.testing.assert_array_equal(
                folded.data[k * b:(k + 1) * b],
                x.data.reshape(b, h * w, c)[:, p.order].transpose(0, 2, 1))

        tokens = rng.normal(size=(4 * b, c, h * w))
        expected = np.zeros((b, h * w, c))
        for k, p in enumerate(paths):
            block = np.zeros((b, h * w, c))
            block[:, p.order] = tokens[k * b:(k + 1) * b].transpose(0, 2, 1)
            expected = expected + block
        back = scatter_tokens(Tensor(tokens, dtype=np.float64), paths)
        np.testing.assert_array_equal(back.data, expected.reshape(b, h, w, c))

        with pytest.raises(ValueError, match="does not match path grid"):
            gather_tokens(Tensor(np.zeros((b, h + 1, w, c))), paths)


class TestDumpCsv:
    def test_csv_rows_for_2x2(self):
        buf = io.StringIO()
        dump_csv(build_path(2, 2, PathId.ROW_SNAKE_TL), buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["step", "flat_index", "row", "col", "direction"]
        assert rows[1:] == [["0", "0", "0", "0", "begin"],
                            ["1", "1", "0", "1", "right"],
                            ["2", "3", "1", "1", "down"],
                            ["3", "2", "1", "0", "left"]]

    def test_csv_row_count(self):
        buf = io.StringIO()
        dump_csv(build_path(5, 3, PathId.COL_SNAKE_BR), buf)
        rows = [r for r in csv.reader(io.StringIO(buf.getvalue())) if r]
        assert len(rows) == 1 + 15
