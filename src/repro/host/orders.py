"""Flat-index streaming orders for DRAM interface kernels.

The host layer reads matrices from DRAM in the order the streaming kernels
consume them.  These functions return the flat (row-major) index arrays
for the Level-2/3 stream contracts — each a permutation of the axes of a
row-major ``arange`` grid, no Python loop; they are shared by the host
API, the composed applications, and the tests.  The C tiles of GEMM are
:func:`repro.streaming.tiling.row_tiles` ``(n, m, tile_n,
tile_m).indices()``.
"""

from __future__ import annotations

import numpy as np


def gemm_a_order(n: int, k: int, m: int, tile_n: int, tile_m: int
                 ) -> np.ndarray:
    """A-strip columns for :func:`repro.blas.level3.gemm_tiled`.

    For each C tile (ti, tj) and each kk, the T_N elements
    A[ti*T_N:(ti+1)*T_N, kk]; A is effectively replayed M/T_M times.
    """
    strips = np.arange(n * k).reshape(n // tile_n, tile_n, k)
    return np.broadcast_to(strips.transpose(0, 2, 1)[:, None],
                           (n // tile_n, m // tile_m, k, tile_n)).reshape(-1)


def gemm_b_order(n: int, k: int, m: int, tile_n: int, tile_m: int
                 ) -> np.ndarray:
    """B-strip rows: B[kk, tj*T_M:(tj+1)*T_M]; replayed N/T_N times."""
    strips = np.arange(k * m).reshape(k, m // tile_m, tile_m)
    return np.broadcast_to(strips.transpose(1, 0, 2)[None],
                           (n // tile_n, m // tile_m, k, tile_m)).reshape(-1)


def trsv_row_order(n: int, lower: bool) -> np.ndarray:
    """Full rows of A in solve order (top-down lower, bottom-up upper)."""
    rows = np.arange(n * n).reshape(n, n)
    return (rows if lower else rows[::-1]).reshape(-1)


def column_major_order(n: int, m: int) -> np.ndarray:
    """Columns of an N x M matrix, one after the other (TRSM's B)."""
    return np.arange(n * m).reshape(n, m).T.reshape(-1)
