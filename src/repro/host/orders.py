"""Flat-index streaming orders for DRAM interface kernels.

The host layer reads matrices from DRAM in the order the streaming kernels
consume them.  These generators produce the flat (row-major) index
sequences for the Level-2/3 stream contracts; they are shared by the host
API, the composed applications, and the tests.
"""

from __future__ import annotations

from typing import Iterator

from ..streaming.tiling import MatrixSchedule


def matrix_order(schedule: MatrixSchedule) -> Iterator[int]:
    """Alias for the schedule's own enumeration."""
    return schedule.indices()


def gemm_a_order(n: int, k: int, m: int, tile_n: int, tile_m: int
                 ) -> Iterator[int]:
    """A-strip columns for :func:`repro.blas.level3.gemm_tiled`.

    For each C tile (ti, tj) and each kk, the T_N elements
    A[ti*T_N:(ti+1)*T_N, kk]; A is effectively replayed M/T_M times.
    """
    for ti in range(n // tile_n):
        for _tj in range(m // tile_m):
            for kk in range(k):
                base = ti * tile_n
                for r in range(tile_n):
                    yield (base + r) * k + kk


def gemm_b_order(n: int, k: int, m: int, tile_n: int, tile_m: int
                 ) -> Iterator[int]:
    """B-strip rows: B[kk, tj*T_M:(tj+1)*T_M]; replayed N/T_N times."""
    for _ti in range(n // tile_n):
        for tj in range(m // tile_m):
            for kk in range(k):
                base = tj * tile_m
                for c in range(tile_m):
                    yield kk * m + base + c


def gemm_c_order(n: int, m: int, tile_n: int, tile_m: int) -> Iterator[int]:
    """C tiles by rows, row-major elements (both input and output order)."""
    for ti in range(n // tile_n):
        for tj in range(m // tile_m):
            for r in range(tile_n):
                base = (ti * tile_n + r) * m + tj * tile_m
                for c in range(tile_m):
                    yield base + c


def trsv_row_order(n: int, lower: bool) -> Iterator[int]:
    """Full rows of A in solve order (top-down lower, bottom-up upper)."""
    rows = range(n) if lower else range(n - 1, -1, -1)
    for i in rows:
        for j in range(n):
            yield i * n + j


def column_major_order(n: int, m: int) -> Iterator[int]:
    """Columns of an N x M matrix, one after the other (TRSM's B)."""
    for j in range(m):
        for i in range(n):
            yield i * m + j
