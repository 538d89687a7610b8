"""Streaming Level-3 kernels.

:func:`gemm_tiled` is the generic streaming GEMM used inside compositions
(the high-throughput spatial implementation is the systolic array in
:mod:`repro.blas.systolic`).  SYRK/SYR2K/TRSM are built on the generic
kernels, as the paper prescribes for specialized matrix routines
("Specialized matrix routines ... must currently be implemented in terms
of the generic routines").

Fully-unrolled tiny-matrix kernels (:func:`gemm_unrolled`,
:func:`trsm_unrolled`) accept a complete problem per clock cycle; they are
the designs behind Table V's batched comparison.
"""

from __future__ import annotations

import numpy as np

from ..fpga.kernel import Clock, Pop, Push
from .level2 import _pop_block, _push_block, shard_row_tiles
from . import reference


def gemm_tiled(n, m, k, alpha, beta, ch_a, ch_b, ch_c, ch_out,
               tile_n, tile_m, width=1, dtype=np.float32):
    """GEMM C' = alpha*A*B + beta*C with an on-chip T_N x T_M C tile.

    Stream contract, per C tile (ti, tj), for kk = 0..K-1:

    * ``ch_a`` delivers the A strip column A[ti*T_N:(ti+1)*T_N, kk]
      (T_N elements) — i.e. A is replayed ceil(M/T_M) times overall;
    * ``ch_b`` delivers the B strip row B[kk, tj*T_M:(tj+1)*T_M]
      (T_M elements) — i.e. B is replayed ceil(N/T_N) times overall;
    * ``ch_c`` delivers the C tile (row-major) once before accumulation,
      and ``ch_out`` receives the finished tile in the same order.

    I/O complexity: NMK/T_M (A) + NMK/T_N (B) + 2NM (C), the classic tiled
    matrix-multiply volume the memory tile sizes control.
    """
    _check(n, tile_n, m, tile_m)
    if k < 1:
        raise ValueError("k must be positive")
    alpha = dtype(alpha)
    beta = dtype(beta)
    for ti in range(n // tile_n):
        for tj in range(m // tile_m):
            ctile = yield from _pop_block(ch_c, tile_n * tile_m, width, dtype)
            acc = [[dtype(0)] * tile_m for _ in range(tile_n)]
            for kk in range(k):
                a_col = yield from _pop_block(ch_a, tile_n, width, dtype)
                b_row = yield from _pop_block(ch_b, tile_m, width, dtype)
                for r in range(tile_n):
                    ar = dtype(a_col[r])
                    row = acc[r]
                    done = 0
                    while done < tile_m:
                        c = min(width, tile_m - done)
                        for j in range(done, done + c):
                            row[j] = row[j] + ar * dtype(b_row[j])
                        yield Clock()
                        done += c
            out = []
            for r in range(tile_n):
                for j in range(tile_m):
                    out.append(alpha * acc[r][j]
                               + beta * dtype(ctile[r * tile_m + j]))
            yield from _push_block(ch_out, out, width)


# ---------------------------------------------------------------------------
# Sharded multi-lane GEMM (HBM many-channel placement)
# ---------------------------------------------------------------------------

def shard_gemm_streams(a, b, c, tile_n, tile_m, lanes, dtype=np.float32):
    """Host-side pre-sharding for :func:`gemm_tiled_sharded`.

    Returns ``(a_streams, b_streams, c_streams)``: per lane, the flat A
    strip-column stream, B strip-row stream and C tile stream in exactly
    the order the lane's :func:`gemm_tiled` instance consumes them (its
    C row tiles in ascending global order).
    """
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    c = np.asarray(c, dtype=dtype)
    n, k = a.shape
    m = b.shape[1]
    _check(n, tile_n, m, tile_m)
    parts = shard_row_tiles(n, tile_n, lanes)
    col_tiles = m // tile_m
    a_streams, b_streams, c_streams = [], [], []
    for tiles in parts:
        a_blocks, b_blocks, c_blocks = [], [], []
        for ti in tiles:
            rows = slice(ti * tile_n, (ti + 1) * tile_n)
            for tj in range(col_tiles):
                cols = slice(tj * tile_m, (tj + 1) * tile_m)
                c_blocks.append(c[rows, cols].reshape(-1))
                for kk in range(k):
                    a_blocks.append(a[rows, kk])
                    b_blocks.append(b[kk, cols])
        a_streams.append(np.concatenate(a_blocks))
        b_streams.append(np.concatenate(b_blocks))
        c_streams.append(np.concatenate(c_blocks))
    return a_streams, b_streams, c_streams


def gemm_tiled_sharded(n, m, k, alpha, beta, lane_ports, ch_out,
                       tile_n, tile_m, width=1, dtype=np.float32):
    """Multi-lane GEMM: C row tiles striped across lanes, merged in order.

    ``lane_ports`` is one ``(ch_a, ch_b, ch_c, ch_part)`` tuple per lane.
    Each lane runs an unmodified :func:`gemm_tiled` over its share of C
    row tiles (round-robin, via :func:`~repro.blas.level2.shard_row_tiles`),
    so every output tile's arithmetic is exactly the single-lane
    computation; a :func:`~repro.fpga.util.merge_kernel` reassembles the
    T_N*T_M tiles into global (ti, tj) order on ``ch_out``.  Bitwise
    identical to the single-lane kernel while each lane's A/B/C streams
    can live in their own memory channels.

    Returns ``(lane_gens, merge_gen)``; register each as a kernel.
    """
    from ..fpga.util import merge_kernel

    lanes = len(lane_ports)
    _check(n, tile_n, m, tile_m)
    parts = shard_row_tiles(n, tile_n, lanes)
    lane_gens = []
    for (ch_a, ch_b, ch_c, ch_part), tiles in zip(lane_ports, parts):
        lane_gens.append(gemm_tiled(
            len(tiles) * tile_n, m, k, alpha, beta, ch_a, ch_b, ch_c,
            ch_part, tile_n, tile_m, width, dtype))
    schedule = [(ti % lanes, tile_n * tile_m)
                for ti in range(n // tile_n)
                for _ in range(m // tile_m)]
    merge = merge_kernel([p[3] for p in lane_ports], ch_out, schedule,
                         width)
    return lane_gens, merge


def syrk_tiled(n, k, alpha, beta, ch_a, ch_at, ch_c, ch_out,
               tile_n, tile_m, width=1, dtype=np.float32):
    """SYRK C' = alpha*A*A^T + beta*C on generic dense storage.

    Delegates to :func:`gemm_tiled`; the interface layer streams A on
    ``ch_a`` (strip columns) and A^T on ``ch_at`` (strip rows), which for
    SYRK are two differently-ordered reads of the same buffer.
    """
    yield from gemm_tiled(n, n, k, alpha, beta, ch_a, ch_at, ch_c, ch_out,
                          tile_n, tile_m, width, dtype)


def syr2k_tiled(n, k, alpha, beta, ch_a, ch_bt, ch_b, ch_at, ch_c, ch_out,
                tile_n, tile_m, width=1, dtype=np.float32):
    """SYR2K C' = alpha*(A*B^T + B*A^T) + beta*C.

    Per k-step the kernel consumes strip columns of A and B and strip rows
    of B^T and A^T, accumulating both outer products into the same on-chip
    tile — one pass over the data instead of two chained GEMMs.
    """
    _check(n, tile_n, n, tile_m)
    alpha = dtype(alpha)
    beta = dtype(beta)
    for ti in range(n // tile_n):
        for tj in range(n // tile_m):
            ctile = yield from _pop_block(ch_c, tile_n * tile_m, width, dtype)
            acc = [[dtype(0)] * tile_m for _ in range(tile_n)]
            for kk in range(k):
                a_col = yield from _pop_block(ch_a, tile_n, width, dtype)
                bt_row = yield from _pop_block(ch_bt, tile_m, width, dtype)
                b_col = yield from _pop_block(ch_b, tile_n, width, dtype)
                at_row = yield from _pop_block(ch_at, tile_m, width, dtype)
                for r in range(tile_n):
                    ar = dtype(a_col[r])
                    br = dtype(b_col[r])
                    row = acc[r]
                    done = 0
                    while done < tile_m:
                        c = min(width, tile_m - done)
                        for j in range(done, done + c):
                            row[j] = (row[j] + ar * dtype(bt_row[j])
                                      + br * dtype(at_row[j]))
                        yield Clock()
                        done += c
            out = []
            for r in range(tile_n):
                for j in range(tile_m):
                    out.append(alpha * acc[r][j]
                               + beta * dtype(ctile[r * tile_m + j]))
            yield from _push_block(ch_out, out, width)


def trsm_tiled(n, m, alpha, ch_a, ch_b, ch_out, width=1,
               dtype=np.float32, lower=True, unit_diag=False):
    """TRSM: solve A X = alpha*B (left side, triangular A).

    A (N x N, generic storage, row-major) is streamed once and buffered on
    chip (N^2 elements of M20K — the FBLAS design point for moderate N);
    each of the M columns of B then streams through a TRSV-style solve.
    """
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    alpha = dtype(alpha)
    a_flat = yield from _pop_block(ch_a, n * n, width, dtype)
    a = [[dtype(a_flat[i * n + j]) for j in range(n)] for i in range(n)]
    rows = list(range(n)) if lower else list(range(n - 1, -1, -1))
    for col in range(m):
        b = yield from _pop_block(ch_b, n, width, dtype)
        x = [dtype(0)] * n
        for i in rows:
            js = range(i) if lower else range(i + 1, n)
            acc = dtype(0)
            for j in js:
                acc = acc + a[i][j] * x[j]
            xi = alpha * dtype(b[i]) - acc
            if not unit_diag:
                xi = xi / a[i][i]
            x[i] = xi
        yield from _push_block(ch_out, x, width)


# ---------------------------------------------------------------------------
# Fully-unrolled tiny-matrix designs (Table V)
# ---------------------------------------------------------------------------

def gemm_unrolled(size, nbatch, alpha, beta, ch_in, ch_out,
                  dtype=np.float32):
    """Fully-unrolled GEMM of fixed ``size``: one problem per clock.

    ``ch_in`` delivers, per problem, A then B then C flattened row-major
    (3*size^2 values in one cycle); ``ch_out`` receives the size^2 result.
    The circuit is the routine body completely unrolled (Sec. III-A):
    every multiply-add exists in silicon, so a new problem starts every
    cycle at the cost of 2*size^3 DSP-equivalents.
    """
    if size < 1 or nbatch < 1:
        raise ValueError("size and nbatch must be positive")
    s2 = size * size
    for _ in range(nbatch):
        vals = yield Pop(ch_in, 3 * s2)
        a = np.array(vals[:s2], dtype=dtype).reshape(size, size)
        b = np.array(vals[s2:2 * s2], dtype=dtype).reshape(size, size)
        c = np.array(vals[2 * s2:], dtype=dtype).reshape(size, size)
        r = reference.gemm(alpha, a, b, beta, c)
        yield Push(ch_out, tuple(r.reshape(-1)), None)
        yield Clock()


def trsm_unrolled(size, nbatch, alpha, ch_in, ch_out,
                  dtype=np.float32, lower=True, unit_diag=False):
    """Fully-unrolled TRSM of fixed ``size``: one problem per clock.

    ``ch_in`` delivers A then B flattened (2*size^2 values); ``ch_out``
    receives the size^2 solution X of A X = alpha*B.
    """
    if size < 1 or nbatch < 1:
        raise ValueError("size and nbatch must be positive")
    s2 = size * size
    for _ in range(nbatch):
        vals = yield Pop(ch_in, 2 * s2)
        a = np.array(vals[:s2], dtype=dtype).reshape(size, size)
        b = np.array(vals[s2:], dtype=dtype).reshape(size, size)
        r = reference.trsm(alpha, a, b, lower=lower, unit_diag=unit_diag)
        yield Push(ch_out, tuple(np.asarray(r, dtype=dtype).reshape(-1)), None)
        yield Clock()


def _check(n, tile_n, m, tile_m):
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if n % tile_n or m % tile_m:
        raise ValueError(
            f"matrix {n}x{m} not divisible into {tile_n}x{tile_m} tiles")
