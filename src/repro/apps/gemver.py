"""GEMVER (Sec. V-C, Fig. 9): a complex, partially-streamable composition.

Computes B = A + u1 v1^T + u2 v2^T;  x = beta*B^T y + z;  w = alpha*B x.

Classic BLAS needs two GER, two GEMV and two copies (~8N^2 I/O, 5N^2
cycles).  The fully streamed MDAG is a non-multitree (B feeds both the
x-computation and the w-computation through reconvergent paths), so the
paper's implementation splits it into two sequential multitree components:

1. GER -> GER -> GEMV^T fused: one pass over A produces B (written to
   DRAM) and x;
2. the final GEMV reads B and x back.

Total: ~3N^2 I/O and 2N^2 cycles — the Fig. 11 GEMVER speedup.
"""

from __future__ import annotations

import numpy as np

from ..blas import level2
from ..fpga.engine import Engine
from ..fpga.memory import read_kernel, write_kernel
from ..fpga.resources import level1_latency
from ..fpga.util import duplicate_kernel
from ..host.api import Fblas
from ..host.context import FblasContext
from ..streaming import MDAG, matrix_stream, row_tiles, vector_stream
from ..telemetry.runtime import span as _telemetry_span
from .axpydot import AppResult, host_app, streamed_app


def gemver_reference(a, u1, v1, u2, v2, y, z, alpha, beta):
    """Ground truth: (B, x, w)."""
    b = a + np.outer(u1, v1) + np.outer(u2, v2)
    x = beta * (b.T @ y) + z
    w = alpha * (b @ x)
    return b, x, w


@host_app
def gemver_host(fb: Fblas, a, u1, v1, u2, v2, y, z, alpha, beta):
    """Classic BLAS sequence: 2 copies, 2 GER, 2 GEMV."""
    n = a.data.shape[0]
    b = fb.allocate((n, n), dtype=a.data.dtype)
    x = fb.allocate(n, dtype=a.data.dtype)
    w = fb.allocate(n, dtype=a.data.dtype)
    fb.copy(a, b)                        # B <- A
    fb.ger(1.0, u1, v1, b)               # B += u1 v1^T
    fb.ger(1.0, u2, v2, b)               # B += u2 v2^T
    fb.copy(z, x)                        # x <- z
    fb.gemv(beta, b, y, 1.0, x, trans=True)   # x = beta*B^T y + z
    wv = fb.gemv(alpha, b, x, 0.0, w)         # w = alpha*B x
    return fb.copy_from_device(b), fb.copy_from_device(x), wv


def gemver_streaming(ctx: FblasContext, a, u1, v1, u2, v2, y, z,
                     alpha, beta, tile: int = 4, width: int = 4,
                     mode: str = "event") -> AppResult:
    """Two sequential streaming components (Fig. 9)."""
    with _telemetry_span("app.gemver", cat="app", n=a.data.shape[0],
                         tile=tile, width=width, mode=mode):
        return _gemver_streaming(ctx, a, u1, v1, u2, v2, y, z, alpha,
                                 beta, tile, width, mode)


@streamed_app("level2")
def _gemver_streaming(ctx, a, u1, v1, u2, v2, y, z, alpha, beta, tile,
                      width, mode):
    n = a.data.shape[0]
    dtype = a.data.dtype.type
    precision = "single" if a.data.dtype == np.float32 else "double"
    tn = tile if n % tile == 0 else n
    sched = row_tiles(n, n, tn, tn)
    replay = n // tn
    b = ctx.mem.allocate(ctx.free_name("gemver_B"), (n, n),
                         dtype=a.data.dtype)
    x = ctx.mem.allocate(ctx.free_name("gemver_x"), n, dtype=a.data.dtype)
    w = ctx.mem.allocate(ctx.free_name("gemver_w"), n, dtype=a.data.dtype)
    lat_map = level1_latency("map", width, precision)
    lat_red = level1_latency("map_reduce", width, precision)

    # -- component 1: GER -> GER -> (write B, GEMV^T producing x) ---------
    eng1 = Engine(memory=ctx.mem, mode=mode)
    ca = eng1.channel("A", 8 * width)
    cb1 = eng1.channel("B1", 8 * width)
    cb2 = eng1.channel("B2", 8 * width)
    cbw = eng1.channel("B_to_mem", max(8 * width, 4 * tn))
    cbg = eng1.channel("B_to_gemv", max(8 * width, 4 * tn))
    cu1 = eng1.channel("u1", 8 * width)
    cv1 = eng1.channel("v1", 8 * width)
    cu2 = eng1.channel("u2", 8 * width)
    cv2 = eng1.channel("v2", 8 * width)
    cy = eng1.channel("y", 8 * width)
    cz = eng1.channel("z", 8 * width)
    cx = eng1.channel("x", 8 * width)
    eng1.add_kernel("read_A", read_kernel(ctx.mem, a, ca, width,
                                          order=sched.indices()))
    eng1.add_kernel("read_u1", read_kernel(ctx.mem, u1, cu1, width))
    eng1.add_kernel("read_v1", read_kernel(ctx.mem, v1, cv1, width,
                                           repeat=replay))
    eng1.add_kernel("read_u2", read_kernel(ctx.mem, u2, cu2, width))
    eng1.add_kernel("read_v2", read_kernel(ctx.mem, v2, cv2, width,
                                           repeat=replay))
    eng1.add_kernel("read_y", read_kernel(ctx.mem, y, cy, width))
    eng1.add_kernel("read_z", read_kernel(ctx.mem, z, cz, width))
    eng1.add_kernel("ger1", level2.ger_kernel(
        n, n, 1.0, ca, cu1, cv1, cb1, tn, tn, width, dtype), latency=lat_map)
    eng1.add_kernel("ger2", level2.ger_kernel(
        n, n, 1.0, cb1, cu2, cv2, cb2, tn, tn, width, dtype),
        latency=lat_map)
    eng1.add_kernel("fanout", duplicate_kernel(cb2, (cbw, cbg), n * n,
                                               width))
    eng1.add_kernel("gemvT", level2.gemv_transposed_row_tiles(
        n, n, beta, 1.0, cbg, cy, cz, cx, tn, tn, width, dtype),
        latency=lat_red)
    eng1.add_kernel("write_B", write_kernel(ctx.mem, b, cbw, n * n, width,
                                            order=sched.indices()))
    eng1.add_kernel("write_x", write_kernel(ctx.mem, x, cx, n, width))
    rep1 = eng1.run()

    # -- component 2: w = alpha * B x -------------------------------------
    eng2 = Engine(memory=ctx.mem, mode=mode)
    cb = eng2.channel("B", 8 * width)
    cx2 = eng2.channel("x", 8 * width)
    cy0 = eng2.channel("zeros", 8 * width)
    cw = eng2.channel("w", 8 * width)
    zeros = ctx.mem.bind(ctx.free_name("gemver_zeros"),
                         np.zeros(n, dtype=a.data.dtype))
    eng2.add_kernel("read_B", read_kernel(ctx.mem, b, cb, width,
                                          order=sched.indices()))
    eng2.add_kernel("read_x", read_kernel(ctx.mem, x, cx2, width,
                                          repeat=replay))
    eng2.add_kernel("read_zeros", read_kernel(ctx.mem, zeros, cy0, width))
    eng2.add_kernel("gemv", level2.gemv_row_tiles(
        n, n, alpha, 0.0, cb, cx2, cy0, cw, tn, tn, width, dtype),
        latency=lat_red)
    eng2.add_kernel("write_w", write_kernel(ctx.mem, w, cw, n, width))
    rep2 = eng2.run()
    return ((np.array(b.data), np.array(x.data), np.array(w.data)),
            [rep1, rep2])


def gemver_full_streaming_mdag(n: int, tn: int) -> MDAG:
    """The *fully* streamed GEMVER MDAG — invalid (non-multitree).

    B fans out after the second GER toward both the x computation and the
    final GEMV, and x reconverges with B at that GEMV: two vertex-disjoint
    paths, hence the paper resorts to two sequential components.
    """
    g = MDAG()
    g.add_interface("read_A")
    g.add_module("ger1")
    g.add_module("ger2")
    g.add_module("gemvT")
    g.add_module("gemv_w")
    g.add_interface("write_w")
    bsig = matrix_stream(row_tiles(n, n, tn, tn))
    g.connect("read_A", "ger1", bsig, bsig)
    g.connect("ger1", "ger2", bsig, bsig)
    g.connect("ger2", "gemvT", bsig, bsig)
    g.connect("ger2", "gemv_w", bsig, bsig)
    xsig = vector_stream(n, replay=n // tn)
    g.connect("gemvT", "gemv_w", vector_stream(n), xsig)
    g.connect("gemv_w", "write_w", vector_stream(n), vector_stream(n))
    return g


def gemver_component1_mdag(n: int, tn: int) -> MDAG:
    """Component 1 of the paper's split (valid multitree)."""
    g = MDAG()
    g.add_interface("read_A")
    g.add_module("ger1")
    g.add_module("ger2")
    g.add_module("gemvT")
    g.add_interface("write_B")
    g.add_interface("write_x")
    bsig = matrix_stream(row_tiles(n, n, tn, tn))
    g.connect("read_A", "ger1", bsig, bsig)
    g.connect("ger1", "ger2", bsig, bsig)
    g.connect("ger2", "write_B", bsig, bsig)
    g.connect("ger2", "gemvT", bsig, bsig)
    g.connect("gemvT", "write_x", vector_stream(n), vector_stream(n))
    return g
