"""2D tiling schedules for matrix streams (Sec. III-B).

A matrix crossing a streaming interface is tiled in 2D; both the order of
tiles and the order of elements within a tile can be scheduled by rows or
by columns, giving the four streaming modes of the paper.  A schedule is a
deterministic enumeration of flat (row-major) element indices; interface
kernels index DRAM with it in streaming order, and compute kernels
are written against the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np


class TileOrder(Enum):
    """Order in which tiles of the 2D grid are visited."""

    BY_ROWS = "tiles_by_rows"        # tile (0,0), (0,1), ... then next row
    BY_COLS = "tiles_by_cols"        # tile (0,0), (1,0), ... then next col


class ElementOrder(Enum):
    """Order in which elements within one tile are streamed."""

    ROW_MAJOR = "row_major"
    COL_MAJOR = "col_major"


@dataclass(frozen=True)
class MatrixSchedule:
    """A complete streaming schedule for an N x M matrix.

    ``tile_rows`` x ``tile_cols`` tiles are visited in ``tile_order``;
    elements within each tile in ``elem_order``.  Dimensions must divide
    evenly into tiles — FBLAS requires compile-time tile sizes and the
    code generator pads otherwise; here we keep the invariant explicit.
    """

    rows: int
    cols: int
    tile_rows: int
    tile_cols: int
    tile_order: TileOrder = TileOrder.BY_ROWS
    elem_order: ElementOrder = ElementOrder.ROW_MAJOR

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ValueError("tile dimensions must be positive")
        if self.rows % self.tile_rows or self.cols % self.tile_cols:
            raise ValueError(
                f"matrix {self.rows}x{self.cols} is not divisible into "
                f"{self.tile_rows}x{self.tile_cols} tiles")

    # -- geometry -----------------------------------------------------------
    @property
    def grid_rows(self) -> int:
        return self.rows // self.tile_rows

    @property
    def grid_cols(self) -> int:
        return self.cols // self.tile_cols

    @property
    def num_tiles(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    @property
    def elements_per_tile(self) -> int:
        return self.tile_rows * self.tile_cols

    # -- enumeration ----------------------------------------------------------
    def tiles(self) -> Iterator[tuple]:
        """Yield (tile_row, tile_col) in streaming order."""
        if self.tile_order is TileOrder.BY_ROWS:
            for ti in range(self.grid_rows):
                for tj in range(self.grid_cols):
                    yield ti, tj
        else:
            for tj in range(self.grid_cols):
                for ti in range(self.grid_rows):
                    yield ti, tj

    def tile_elements(self, ti: int, tj: int) -> Iterator[int]:
        """Yield flat row-major indices of tile (ti, tj) in element order."""
        r0 = ti * self.tile_rows
        c0 = tj * self.tile_cols
        if self.elem_order is ElementOrder.ROW_MAJOR:
            for r in range(r0, r0 + self.tile_rows):
                base = r * self.cols
                for c in range(c0, c0 + self.tile_cols):
                    yield base + c
        else:
            for c in range(c0, c0 + self.tile_cols):
                for r in range(r0, r0 + self.tile_rows):
                    yield r * self.cols + c

    def indices(self) -> Iterable[int]:
        """Flat row-major indices of the whole matrix in streaming order.

        When the streaming order *is* the linear row-major order —
        full-width row bands (``tile_cols == cols``) with row-major
        elements — the result is a unit-stride :class:`range`, which
        :func:`repro.fpga.memory.read_kernel` and
        :func:`~repro.fpga.memory.write_kernel` normalize onto the
        identity, so their bursts are slices rather than gathers (every
        order is patterned either way).
        Otherwise it is an int ndarray, built without a Python loop: the
        row-major index grid viewed as (tile row, row, tile col, col)
        with its axes permuted into tile order, then element order.
        """
        if (self.elem_order is ElementOrder.ROW_MAJOR
                and self.tile_cols == self.cols):
            return range(self.num_elements)
        grid = np.arange(self.num_elements).reshape(
            self.grid_rows, self.tile_rows, self.grid_cols, self.tile_cols)
        tiles = (0, 2) if self.tile_order is TileOrder.BY_ROWS else (2, 0)
        elems = ((1, 3) if self.elem_order is ElementOrder.ROW_MAJOR
                 else (3, 1))
        return grid.transpose(*tiles, *elems).reshape(-1)

    def descriptor(self) -> tuple:
        """Hashable description used in stream signatures."""
        return ("matrix", self.rows, self.cols, self.tile_rows,
                self.tile_cols, self.tile_order.value, self.elem_order.value)

    def transposed(self) -> "MatrixSchedule":
        """The schedule that streams A^T in the same physical order.

        Streaming A in tiles by rows, row-major elements, is the same wire
        traffic as streaming A^T in tiles by columns, column-major — the
        trick that lets BICG feed one read of A to both GEMV and GEMV^T.
        """
        flip_tile = (TileOrder.BY_COLS if self.tile_order is TileOrder.BY_ROWS
                     else TileOrder.BY_ROWS)
        flip_elem = (ElementOrder.COL_MAJOR
                     if self.elem_order is ElementOrder.ROW_MAJOR
                     else ElementOrder.ROW_MAJOR)
        return MatrixSchedule(self.cols, self.rows, self.tile_cols,
                              self.tile_rows, flip_tile, flip_elem)


@dataclass(frozen=True)
class VectorSchedule:
    """A vector stream: ``n`` elements in blocks, optionally replayed.

    ``replay`` > 1 means the entire vector is streamed that many times
    (the x-replay of the tiles-by-rows GEMV).
    """

    n: int
    block: int = 0           # 0 means "whole vector"
    replay: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vector length must be positive")
        if self.block < 0 or self.replay < 1:
            raise ValueError("invalid block/replay")
        if self.block and self.n % self.block:
            raise ValueError(
                f"vector of {self.n} not divisible into blocks of {self.block}")

    @property
    def total_elements(self) -> int:
        return self.n * self.replay

    def indices(self) -> np.ndarray:
        """The vector's flat indices, ``replay`` times over."""
        return np.tile(np.arange(self.n), self.replay)

    def descriptor(self) -> tuple:
        return ("vector", self.n, self.block, self.replay)


def row_tiles(rows: int, cols: int, tile_rows: int, tile_cols: int,
              elem_order: ElementOrder = ElementOrder.ROW_MAJOR) -> MatrixSchedule:
    """Shorthand for a tiles-by-rows schedule."""
    return MatrixSchedule(rows, cols, tile_rows, tile_cols,
                          TileOrder.BY_ROWS, elem_order)


def col_tiles(rows: int, cols: int, tile_rows: int, tile_cols: int,
              elem_order: ElementOrder = ElementOrder.ROW_MAJOR) -> MatrixSchedule:
    """Shorthand for a tiles-by-columns schedule."""
    return MatrixSchedule(rows, cols, tile_rows, tile_cols,
                          TileOrder.BY_COLS, elem_order)
