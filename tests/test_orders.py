"""The host's streaming orders are index arrays; their specification is the
loop nest each one enumerates, written out here element by element."""

import numpy as np
import pytest

from repro.host import orders
from repro.streaming.tiling import VectorSchedule, row_tiles

#: (n, k, m, tile_n, tile_m): single-element tiles, whole-matrix tiles,
#: square and ragged-aspect grids.
GEMM = [(4, 3, 6, 1, 1), (4, 3, 6, 4, 6), (4, 5, 6, 2, 3), (8, 2, 4, 4, 2),
        (6, 1, 6, 3, 6), (1, 4, 1, 1, 1)]


def _check(got, spec):
    assert isinstance(got, np.ndarray) and got.ndim == 1
    assert got.dtype.kind in "iu"
    assert got.tolist() == spec


@pytest.mark.parametrize("n,k,m,tn,tm", GEMM)
def test_gemm_a_order(n, k, m, tn, tm):
    spec = [(ti * tn + r) * k + kk
            for ti in range(n // tn)
            for _tj in range(m // tm)
            for kk in range(k)
            for r in range(tn)]
    _check(orders.gemm_a_order(n, k, m, tn, tm), spec)


@pytest.mark.parametrize("n,k,m,tn,tm", GEMM)
def test_gemm_b_order(n, k, m, tn, tm):
    spec = [kk * m + tj * tm + c
            for _ti in range(n // tn)
            for tj in range(m // tm)
            for kk in range(k)
            for c in range(tm)]
    _check(orders.gemm_b_order(n, k, m, tn, tm), spec)


@pytest.mark.parametrize("n,k,m,tn,tm", GEMM)
def test_gemm_c_tiles_are_row_tiles(n, k, m, tn, tm):
    spec = [(ti * tn + r) * m + tj * tm + c
            for ti in range(n // tn)
            for tj in range(m // tm)
            for r in range(tn)
            for c in range(tm)]
    assert list(row_tiles(n, m, tn, tm).indices()) == spec


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("lower", [True, False])
def test_trsv_row_order(n, lower):
    rows = range(n) if lower else range(n - 1, -1, -1)
    spec = [i * n + j for i in rows for j in range(n)]
    _check(orders.trsv_row_order(n, lower), spec)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (5, 1), (4, 6), (16, 16)])
def test_column_major_order(n, m):
    spec = [i * m + j for j in range(m) for i in range(n)]
    _check(orders.column_major_order(n, m), spec)


@pytest.mark.parametrize("n,replay", [(1, 1), (5, 1), (3, 4)])
def test_vector_schedule_indices(n, replay):
    spec = [i for _ in range(replay) for i in range(n)]
    _check(VectorSchedule(n, replay=replay).indices(), spec)
