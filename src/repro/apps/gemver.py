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
from ..fpga.resources import level1_latency
from ..fpga.util import duplicate_kernel
from ..host.api import Fblas
from ..host.context import FblasContext
from ..streaming import (MDAG, BoundMDAG, ComputeBinding, ReadBinding,
                         WriteBinding, matrix_stream, row_tiles,
                         vector_stream)
from .catalogue import bound_graph, host_app, mdag, precision_of, streamed


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
    free, dtype = fb.context.free_name, a.data.dtype
    b = fb.allocate((n, n), dtype=dtype, name=free("gemver_B"))
    x = fb.allocate(n, dtype=dtype, name=free("gemver_x"))
    w = fb.allocate(n, dtype=dtype, name=free("gemver_w"))
    fb.copy(a, b)                        # B <- A
    fb.ger(1.0, u1, v1, b)               # B += u1 v1^T
    fb.ger(1.0, u2, v2, b)               # B += u2 v2^T
    fb.copy(z, x)                        # x <- z
    fb.gemv(beta, b, y, 1.0, x, trans=True)   # x = beta*B^T y + z
    wv = fb.gemv(alpha, b, x, 0.0, w)         # w = alpha*B x
    return fb.copy_from_device(b), fb.copy_from_device(x), wv


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


def gemver_component1_mdag(n: int, tn: int, width: int = 8) -> BoundMDAG:
    """Component 1 of the paper's split, unbound (a valid multitree):
    GER -> GER -> fan-out -> {write B, GEMV^T -> write x}.  The fan-out
    channels absorb gemvT's vector-block pops."""
    d, fan = 8 * width, max(8 * width, 4 * tn)
    bsig = matrix_stream(row_tiles(n, n, tn, tn))
    u, v = vector_stream(n), vector_stream(n, replay=n // tn)
    return mdag("read_A read_u1 read_v1 read_u2 read_v2 read_y read_z ger1 "
                "ger2 fanout gemvT write_B write_x", [
                    ("read_A", "ger1.A", bsig, d),
                    ("read_u1", "ger1.x", u, d), ("read_v1", "ger1.y", v, d),
                    ("ger1", "ger2.A", bsig, d),
                    ("read_u2", "ger2.x", u, d), ("read_v2", "ger2.y", v, d),
                    ("ger2", "fanout", bsig, d),
                    ("fanout.B", "write_B", bsig, fan),
                    ("fanout.gemv", "gemvT.A", bsig, fan),
                    ("read_y", "gemvT.x", u, d), ("read_z", "gemvT.y", u, d),
                    ("gemvT", "write_x", u, d)])


def _gemver_component2_mdag(n: int, tn: int, width: int) -> BoundMDAG:
    """Component 2: w = alpha * B x, reading B and x back."""
    d, u = 8 * width, vector_stream(n)
    return mdag("read_B read_x read_zeros gemv write_w", [
        ("read_B", "gemv.A", matrix_stream(row_tiles(n, n, tn, tn)), d),
        ("read_x", "gemv.x", vector_stream(n, replay=n // tn), d),
        ("read_zeros", "gemv.y", u, d), ("gemv", "write_w", u, d)])


@streamed("level2")
def gemver_streaming(ctx: FblasContext, a, u1, v1, u2, v2, y, z, alpha,
                     beta, tile: int = 4, width: int = 4):
    """Two sequential streaming components (Fig. 9), each bound only
    once the one before it has run."""
    n = a.data.shape[0]
    dtype = a.data.dtype.type
    precision = precision_of(a)
    tn = tile if n % tile == 0 else n
    replay = n // tn
    b = ctx.mem.allocate(ctx.free_name("gemver_B"), (n, n), dtype=dtype)
    x = ctx.mem.allocate(ctx.free_name("gemver_x"), n, dtype=dtype)
    w = ctx.mem.allocate(ctx.free_name("gemver_w"), n, dtype=dtype)
    # One tile order serves read_A, write_B and read_B.
    order = row_tiles(n, n, tn, tn).indices()
    lat_map = level1_latency("map", width, precision)
    lat_red = level1_latency("map_reduce", width, precision)

    def ger(i, o):
        return level2.ger_kernel(n, n, 1.0, i["A"], i["x"], i["y"], o["out"],
                                 tn, tn, width, dtype)

    def stages():
        g = bound_graph(gemver_component1_mdag, n, tn, width)
        g.bind("read_A", ReadBinding(a, width, order=order))
        for node, buf, repeat in (("read_u1", u1, 1), ("read_v1", v1, replay),
                                  ("read_u2", u2, 1), ("read_v2", v2, replay),
                                  ("read_y", y, 1), ("read_z", z, 1)):
            g.bind(node, ReadBinding(buf, width, repeat=repeat))
        g.bind("ger1", ComputeBinding(ger, lat_map))
        g.bind("ger2", ComputeBinding(ger, lat_map))
        g.bind("fanout", ComputeBinding(lambda i, o: duplicate_kernel(
            i["in"], (o["B"], o["gemv"]), n * n, width)))
        g.bind("gemvT", ComputeBinding(
            lambda i, o: level2.gemv_transposed_row_tiles(
                n, n, beta, 1.0, i["A"], i["x"], i["y"], o["out"], tn, tn,
                width, dtype), lat_red))
        g.bind("write_B", WriteBinding(b, n * n, width, order=order))
        g.bind("write_x", WriteBinding(x, n, width))
        yield g, {}
        g = bound_graph(_gemver_component2_mdag, n, tn, width)
        zeros = ctx.mem.bind(ctx.free_name("gemver_zeros"),
                             np.zeros(n, dtype=dtype))
        g.bind("read_B", ReadBinding(b, width, order=order))
        g.bind("read_x", ReadBinding(x, width, repeat=replay))
        g.bind("read_zeros", ReadBinding(zeros, width))
        g.bind("gemv", ComputeBinding(
            lambda i, o: level2.gemv_row_tiles(
                n, n, alpha, 0.0, i["A"], i["x"], i["y"], o["out"], tn, tn,
                width, dtype), lat_red))
        g.bind("write_w", WriteBinding(w, n, width))
        yield g, {}

    return stages(), lambda: (np.array(b.data), np.array(x.data),
                              np.array(w.data))
