"""ATAX: y = A^T (A x) (Sec. V-B, Fig. 8) — the invalid composition.

The natural streaming composition shares one read of A between the two
GEMVs and chains the first's output into the second.  But the first GEMV
emits its first output block only after consuming an entire row of tiles
of A, while the second cannot consume any of A until that block arrives:
with two vertex-disjoint paths from the A interface to the second GEMV,
the composition **stalls forever** unless the second GEMV's A channel can
buffer a whole row of tiles (M * T_N elements — the paper's N*T_N in its
naming).  Remedies (Sec. V-B):

a) size that channel to the reordering window (only possible when the
   problem size is static) — :func:`atax_streaming` with
   ``channel_depth="auto"``;
b) break the MDAG in two components that read A independently —
   :func:`atax_broken`, which matches the non-streamed I/O volume but
   still overlaps the two pipelines.
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
from ..models.iomodel import atax_min_channel_depth
from ..streaming import MDAG, matrix_stream, row_tiles, vector_stream
from ..telemetry.runtime import span as _telemetry_span
from .axpydot import host_app, streamed_app


def atax_reference(a, x):
    """Ground truth: y = A^T A x.  A is M x N, x and y have length N."""
    tmp = a @ x
    return a.T @ tmp


@host_app
def atax_host(fb: Fblas, a, x):
    """Two GEMV host calls with the intermediate vector in DRAM."""
    m, n = a.data.shape
    tmp = fb.allocate(m, dtype=a.data.dtype)
    y = fb.allocate(n, dtype=a.data.dtype)
    fb.gemv(1.0, a, x, 0.0, tmp)
    return fb.gemv(1.0, a, tmp, 0.0, y, trans=True)


@streamed_app("level2")
def atax_streaming(ctx: FblasContext, a, x, tile: int = 4, width: int = 4,
                   channel_depth="auto", preflight: bool = False,
                   mode: str = "event"):
    """Fully streamed ATAX — valid only with an adequately sized channel.

    ``channel_depth`` is the depth of the second GEMV's A channel:
    ``"auto"`` applies the Sec. V-B bound (a full row of tiles); an
    integer forces a specific depth, and an undersized one makes the
    composition deadlock (the simulator raises
    :class:`repro.fpga.engine.DeadlockError`).  With ``preflight=True``
    the static analyzer proves that outcome before cycle 0 instead
    (:class:`repro.analysis.AnalysisError`, diagnostic FB003): every
    kernel below declares its ports, and the first GEMV declares its
    reordering window (it consumes a full row of tiles of A before its
    first output block).
    """
    m, n = a.data.shape
    dtype = a.data.dtype.type
    precision = "single" if a.data.dtype == np.float32 else "double"
    tm_ = tile if m % tile == 0 else m           # tile rows of A
    tn_ = tile if n % tile == 0 else n           # tile cols of A
    sched = row_tiles(m, n, tm_, tn_)
    if channel_depth == "auto":
        channel_depth = atax_min_channel_depth(n, tm_) + 8 * width
    eng = Engine(memory=ctx.mem, mode=mode)
    ca = eng.channel("A", 8 * width)
    ca1 = eng.channel("A1", max(8 * width, 4 * max(tm_, tn_)))
    ca2 = eng.channel("A2", channel_depth)
    cx = eng.channel("x", 8 * width)
    cy0a = eng.channel("zeros1", 8 * width)
    cy0b = eng.channel("zeros2", 8 * width)
    ctmp = eng.channel("tmp", max(8 * width, 2 * tm_))
    cy = eng.channel("y", 8 * width)
    y = ctx.mem.allocate(ctx.free_name("atax_y"), n, dtype=a.data.dtype)
    z1 = ctx.mem.bind(ctx.free_name("atax_z1"),
                      np.zeros(m, dtype=a.data.dtype))
    z2 = ctx.mem.bind(ctx.free_name("atax_z2"),
                      np.zeros(n, dtype=a.data.dtype))
    eng.add_kernel("read_A", read_kernel(ctx.mem, a, ca, width,
                                         order=sched.indices()),
                   writes=[(ca, width, 1)])
    eng.add_kernel("fanout", duplicate_kernel(ca, (ca1, ca2), m * n, width),
                   reads=(ca,), writes=[(ca1, width, 1), (ca2, width, 1)])
    eng.add_kernel("read_x", read_kernel(ctx.mem, x, cx, width,
                                         repeat=m // tm_),
                   writes=[(cx, width, 1)])
    eng.add_kernel("read_z1", read_kernel(ctx.mem, z1, cy0a, width),
                   writes=[(cy0a, width, 1)])
    eng.add_kernel("read_z2", read_kernel(ctx.mem, z2, cy0b, width),
                   writes=[(cy0b, width, 1)])
    lat = level1_latency("map_reduce", width, precision)
    eng.add_kernel("gemv", level2.gemv_row_tiles(
        m, n, 1.0, 0.0, ca1, cx, cy0a, ctmp, tm_, tn_, width, dtype),
        latency=lat, reads=(ca1, cx, cy0a), writes=[(ctmp, width)],
        defer=atax_min_channel_depth(n, tm_))
    eng.add_kernel("gemvT", level2.gemv_transposed_row_tiles(
        m, n, 1.0, 0.0, ca2, ctmp, cy0b, cy, tm_, tn_, width, dtype),
        latency=lat, reads=(ca2, ctmp, cy0b), writes=[(cy, width)])
    eng.add_kernel("write_y", write_kernel(ctx.mem, y, cy, n, width),
                   reads=(cy,))
    with _telemetry_span("app.atax", cat="app", m=m, n=n, tile=tile,
                         width=width, mode=mode):
        report = eng.run(preflight=preflight)
    return np.array(y.data), [report]


@streamed_app("level2")
def atax_broken(ctx: FblasContext, a, x, tile: int = 4, width: int = 4):
    """ATAX with the MDAG broken in two: each GEMV reads A itself.

    Same I/O volume as the non-streamed version (A read twice), but the
    two matrix-vector pipelines still overlap through the on-chip
    intermediate-vector channel (Sec. V-B's remedy b).
    """
    m, n = a.data.shape
    dtype = a.data.dtype.type
    precision = "single" if a.data.dtype == np.float32 else "double"
    tm_ = tile if m % tile == 0 else m
    tn_ = tile if n % tile == 0 else n
    sched = row_tiles(m, n, tm_, tn_)
    eng = Engine(memory=ctx.mem)
    ca1 = eng.channel("A1", 8 * width)
    ca2 = eng.channel("A2", 8 * width)
    cx = eng.channel("x", 8 * width)
    cy0a = eng.channel("zeros1", 8 * width)
    cy0b = eng.channel("zeros2", 8 * width)
    ctmp = eng.channel("tmp", max(8 * width, 2 * tm_))
    cy = eng.channel("y", 8 * width)
    y = ctx.mem.allocate(ctx.free_name("atax_b_y"), n, dtype=a.data.dtype)
    z1 = ctx.mem.bind(ctx.free_name("atax_b_z1"),
                      np.zeros(m, dtype=a.data.dtype))
    z2 = ctx.mem.bind(ctx.free_name("atax_b_z2"),
                      np.zeros(n, dtype=a.data.dtype))
    eng.add_kernel("read_A1", read_kernel(ctx.mem, a, ca1, width,
                                          order=sched.indices()),
                   writes=[(ca1, width, 1)])
    eng.add_kernel("read_A2", read_kernel(ctx.mem, a, ca2, width,
                                          order=sched.indices()),
                   writes=[(ca2, width, 1)])
    eng.add_kernel("read_x", read_kernel(ctx.mem, x, cx, width,
                                         repeat=m // tm_),
                   writes=[(cx, width, 1)])
    eng.add_kernel("read_z1", read_kernel(ctx.mem, z1, cy0a, width),
                   writes=[(cy0a, width, 1)])
    eng.add_kernel("read_z2", read_kernel(ctx.mem, z2, cy0b, width),
                   writes=[(cy0b, width, 1)])
    lat = level1_latency("map_reduce", width, precision)
    eng.add_kernel("gemv", level2.gemv_row_tiles(
        m, n, 1.0, 0.0, ca1, cx, cy0a, ctmp, tm_, tn_, width, dtype),
        latency=lat, reads=(ca1, cx, cy0a), writes=[(ctmp, width)],
        defer=atax_min_channel_depth(n, tm_))
    eng.add_kernel("gemvT", level2.gemv_transposed_row_tiles(
        m, n, 1.0, 0.0, ca2, ctmp, cy0b, cy, tm_, tn_, width, dtype),
        latency=lat, reads=(ca2, ctmp, cy0b), writes=[(cy, width)])
    eng.add_kernel("write_y", write_kernel(ctx.mem, y, cy, n, width),
                   reads=(cy,))
    report = eng.run()
    return np.array(y.data), [report]


def atax_mdag(m: int, n: int, tm: int, tn: int) -> MDAG:
    """The Fig. 8 MDAG — statically invalid (reconvergent paths)."""
    g = MDAG()
    g.add_interface("read_A")
    g.add_interface("read_x")
    g.add_module("gemv")
    g.add_module("gemvT")
    g.add_interface("write_y")
    asig = matrix_stream(row_tiles(m, n, tm, tn))
    g.connect("read_A", "gemv", asig, asig)
    g.connect("read_A", "gemvT", asig, asig)
    xsig = vector_stream(n, replay=m // tm)
    g.connect("read_x", "gemv", xsig, xsig)
    g.connect("gemv", "gemvT", vector_stream(m), vector_stream(m))
    g.connect("gemvT", "write_y", vector_stream(n), vector_stream(n))
    return g
