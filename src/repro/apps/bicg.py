"""BICG kernel: q = A p and s = A^T r (Sec. V-A, Fig. 7).

Both matrix-vector products read A.  The streaming composition reads A
from DRAM once and fans the stream out to a GEMV and a transposed GEMV
that accept the *same* tile schedule, halving the dominant I/O term
(2NM -> NM) while the two modules run in parallel.
"""

from __future__ import annotations

import numpy as np

from ..blas import reference
from ..host.api import Fblas
from ..host.context import FblasContext
from ..streaming import (BoundMDAG, ReadBinding, WriteBinding,
                         matrix_stream, row_tiles, vector_stream)
from .atax import bind_gemv_pair
from .catalogue import bound_graph, host_app, mdag, streamed


def bicg_reference(a, p, r):
    """Ground truth: (q, s) = (A p, A^T r)."""
    zq = np.zeros(a.shape[0], dtype=a.dtype)
    zs = np.zeros(a.shape[1], dtype=a.dtype)
    return (reference.gemv(1.0, a, p, 0.0, zq),
            reference.gemv(1.0, a, r, 0.0, zs, trans=True))


@host_app
def bicg_host(fb: Fblas, a, p, r):
    """Two independent GEMV host calls, each reading A from DRAM."""
    n, m = a.data.shape
    free = fb.context.free_name
    q = fb.allocate(n, dtype=a.data.dtype, name=free("bicg_q"))
    s = fb.allocate(m, dtype=a.data.dtype, name=free("bicg_s"))
    return (fb.gemv(1.0, a, p, 0.0, q),
            fb.gemv(1.0, a, r, 0.0, s, trans=True))


def bicg_mdag(n: int, m: int, tn: int, tm: int,
              width: int = 8) -> BoundMDAG:
    """The Fig. 7 MDAG, unbound: a valid fan-out multitree (A is N x M
    in ``tn x tm`` row tiles)."""
    d = 8 * width
    # The fan-out channels must absorb the cycles one GEMV spends popping
    # its vector blocks while the other keeps consuming A.
    fan = max(d, 4 * max(tn, tm))
    asig = matrix_stream(row_tiles(n, m, tn, tm))
    nodes = "read_A read_p read_r read_zn read_zm gemv gemvT write_q write_s"
    return mdag(nodes, [
        ("read_A", "gemv.A", asig, fan), ("read_A", "gemvT.A", asig, fan),
        ("read_p", "gemv.x", vector_stream(m, replay=n // tn), d),
        ("read_r", "gemvT.x", vector_stream(n), d),
        ("read_zn", "gemv.y", vector_stream(n), d),
        ("read_zm", "gemvT.y", vector_stream(m), d),
        ("gemv", "write_q", vector_stream(n), d),
        ("gemvT", "write_s", vector_stream(m), d)])


@streamed("level2")
def bicg_streaming(ctx: FblasContext, a, p, r, tile: int = 4,
                   width: int = 4):
    """One read of A feeds both GEMVs (Fig. 7)."""
    n, m = a.data.shape
    tn = tile if n % tile == 0 else n
    tm = tile if m % tile == 0 else m
    g = bound_graph(bicg_mdag, n, m, tn, tm, width)
    dtype = a.data.dtype
    q = ctx.mem.allocate(ctx.free_name("bicg_q"), n, dtype=dtype)
    s = ctx.mem.allocate(ctx.free_name("bicg_s"), m, dtype=dtype)
    zn = ctx.mem.bind(ctx.free_name("bicg_zn"), np.zeros(n, dtype))
    zm = ctx.mem.bind(ctx.free_name("bicg_zm"), np.zeros(m, dtype))
    g.bind("read_A", ReadBinding(a, width,
                                 order=row_tiles(n, m, tn, tm).indices()))
    g.bind("read_p", ReadBinding(p, width, repeat=n // tn))
    for node, buf in (("read_r", r), ("read_zn", zn), ("read_zm", zm)):
        g.bind(node, ReadBinding(buf, width))
    bind_gemv_pair(g, n, m, tn, tm, width, a)
    g.bind("write_q", WriteBinding(q, n, width))
    g.bind("write_s", WriteBinding(s, m, width))
    return [(g, {})], lambda: (np.array(q.data), np.array(s.data))
