"""BICG kernel: q = A p and s = A^T r (Sec. V-A, Fig. 7).

Both matrix-vector products read A.  The streaming composition reads A
from DRAM once and fans the stream out to a GEMV and a transposed GEMV
that accept the *same* tile schedule, halving the dominant I/O term
(2NM -> NM) while the two modules run in parallel.
"""

from __future__ import annotations

import numpy as np

from ..blas import level2, reference
from ..fpga.engine import Engine
from ..fpga.memory import read_kernel, write_kernel
from ..fpga.resources import level1_latency
from ..fpga.util import duplicate_kernel
from ..host.api import Fblas
from ..host.context import FblasContext
from ..streaming import MDAG, matrix_stream, row_tiles, vector_stream
from ..telemetry.runtime import span as _telemetry_span
from .axpydot import host_app, streamed_app


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
    q = fb.allocate(n, dtype=a.data.dtype)
    s = fb.allocate(m, dtype=a.data.dtype)
    return (fb.gemv(1.0, a, p, 0.0, q),
            fb.gemv(1.0, a, r, 0.0, s, trans=True))


@streamed_app("level2")
def bicg_streaming(ctx: FblasContext, a, p, r, tile: int = 4,
                   width: int = 4, mode: str = "event"):
    """One read of A feeds both GEMVs (Fig. 7)."""
    n, m = a.data.shape
    dtype = a.data.dtype.type
    precision = "single" if a.data.dtype == np.float32 else "double"
    tn = tile if n % tile == 0 else n
    tm = tile if m % tile == 0 else m
    sched = row_tiles(n, m, tn, tm)
    eng = Engine(memory=ctx.mem, mode=mode)
    # The fan-out channels must absorb the cycles one GEMV spends popping
    # its vector blocks while the other keeps consuming A.
    fan_depth = max(8 * width, 4 * max(tn, tm))
    ca = eng.channel("A", 8 * width)
    ca1 = eng.channel("A1", fan_depth)
    ca2 = eng.channel("A2", fan_depth)
    cp = eng.channel("p", 8 * width)
    cr = eng.channel("r", 8 * width)
    cy1 = eng.channel("y_q", 8 * width)
    cy2 = eng.channel("y_s", 8 * width)
    cq = eng.channel("q", 8 * width)
    cs = eng.channel("s", 8 * width)
    q = ctx.mem.allocate(ctx.free_name("bicg_q"), n, dtype=a.data.dtype)
    s = ctx.mem.allocate(ctx.free_name("bicg_s"), m, dtype=a.data.dtype)
    zeros_n = ctx.mem.bind(ctx.free_name("bicg_zn"),
                           np.zeros(n, dtype=a.data.dtype))
    zeros_m = ctx.mem.bind(ctx.free_name("bicg_zm"),
                           np.zeros(m, dtype=a.data.dtype))
    eng.add_kernel("read_A", read_kernel(ctx.mem, a, ca, width,
                                         order=sched.indices()))
    eng.add_kernel("fanout", duplicate_kernel(ca, (ca1, ca2), n * m, width))
    eng.add_kernel("read_p", read_kernel(ctx.mem, p, cp, width,
                                         repeat=n // tn))
    eng.add_kernel("read_r", read_kernel(ctx.mem, r, cr, width))
    eng.add_kernel("read_zn", read_kernel(ctx.mem, zeros_n, cy1, width))
    eng.add_kernel("read_zm", read_kernel(ctx.mem, zeros_m, cy2, width))
    lat = level1_latency("map_reduce", width, precision)
    eng.add_kernel("gemv", level2.gemv_row_tiles(
        n, m, 1.0, 0.0, ca1, cp, cy1, cq, tn, tm, width, dtype), latency=lat)
    eng.add_kernel("gemvT", level2.gemv_transposed_row_tiles(
        n, m, 1.0, 0.0, ca2, cr, cy2, cs, tn, tm, width, dtype), latency=lat)
    eng.add_kernel("write_q", write_kernel(ctx.mem, q, cq, n, width))
    eng.add_kernel("write_s", write_kernel(ctx.mem, s, cs, m, width))
    with _telemetry_span("app.bicg", cat="app", n=n, m=m, tile=tile,
                         width=width, mode=mode):
        report = eng.run()
    return (np.array(q.data), np.array(s.data)), [report]


def bicg_mdag(n: int, m: int, tn: int, tm: int) -> MDAG:
    """The Fig. 7 MDAG: a valid fan-out multitree."""
    g = MDAG()
    g.add_interface("read_A")
    g.add_interface("read_p")
    g.add_interface("read_r")
    g.add_module("gemv")
    g.add_module("gemvT")
    g.add_interface("write_q")
    g.add_interface("write_s")
    asig = matrix_stream(row_tiles(n, m, tn, tm))
    g.connect("read_A", "gemv", asig, asig)
    g.connect("read_A", "gemvT", asig, asig)
    psig = vector_stream(m, replay=n // tn)
    g.connect("read_p", "gemv", psig, psig)
    g.connect("read_r", "gemvT", vector_stream(n), vector_stream(n))
    g.connect("gemv", "write_q", vector_stream(n), vector_stream(n))
    g.connect("gemvT", "write_s", vector_stream(m), vector_stream(m))
    return g
