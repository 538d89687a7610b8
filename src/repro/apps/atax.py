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
from ..fpga.resources import level1_latency
from ..host.api import Fblas
from ..host.context import FblasContext
from ..models.iomodel import atax_min_channel_depth
from ..streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                         WriteBinding, matrix_stream, row_tiles,
                         vector_stream)
from .catalogue import (AppResult, bound_graph, host_app, mdag,
                        precision_of, run_app, streamed)


def atax_reference(a, x):
    """Ground truth: y = A^T A x.  A is M x N, x and y have length N."""
    tmp = a @ x
    return a.T @ tmp


@host_app
def atax_host(fb: Fblas, a, x):
    """Two GEMV host calls with the intermediate vector in DRAM."""
    m, n = a.data.shape
    free = fb.context.free_name
    tmp = fb.allocate(m, dtype=a.data.dtype, name=free("atax_tmp"))
    y = fb.allocate(n, dtype=a.data.dtype, name=free("atax_y"))
    fb.gemv(1.0, a, x, 0.0, tmp)
    return fb.gemv(1.0, a, tmp, 0.0, y, trans=True)


def atax_mdag(m: int, n: int, tm: int, tn: int, width: int = 8,
              depth: int = 0, split: bool = False) -> BoundMDAG:
    """The Fig. 8 MDAG, unbound (A is M x N in ``tm x tn`` row tiles).

    The A edge into ``gemvT`` is ``depth`` deep (default ``8 * width``,
    unsized), so the graph is statically invalid: two reconvergent paths
    from ``read_A``.  ``split`` gives each GEMV its own read of A
    (``read_A1`` / ``read_A2``: Sec. V-B's remedy b), a valid multitree.
    """
    a1, a2 = ("read_A1", "read_A2") if split else ("read_A", "read_A")
    d = 8 * width
    asig = matrix_stream(row_tiles(m, n, tm, tn))
    # The shared read's fan-out channels absorb the cycles gemv spends
    # popping its x blocks while gemvT keeps consuming A.
    return mdag(f"{a1} {a2} read_x read_z1 read_z2 gemv gemvT write_y", [
        (a1, "gemv.A", asig, d if split else max(d, 4 * max(tm, tn))),
        (a2, "gemvT.A", asig, depth or d),
        ("read_x", "gemv.x", vector_stream(n, replay=m // tm), d),
        ("read_z1", "gemv.y", vector_stream(m), d),
        ("read_z2", "gemvT.y", vector_stream(n), d),
        ("gemv", "gemvT.x", vector_stream(m), max(d, 2 * tm)),
        ("gemvT", "write_y", vector_stream(n), d)])


def bind_gemv_pair(g: BoundMDAG, rows: int, cols: int, tr: int, tc: int,
                   width: int, a, defer: int = 0) -> None:
    """Bind ``gemv`` (A x + y) and ``gemvT`` (A^T x + y) over the
    ``rows x cols`` matrix ``a`` streamed in ``tr x tc`` row tiles; each
    takes ports ``A``, ``x``, ``y`` and pushes ``out``.  ``defer`` is
    gemv's reordering window."""
    dtype = a.data.dtype.type
    lat = level1_latency("map_reduce", width, precision_of(a))
    for node, kernel, wait in (("gemv", level2.gemv_row_tiles, defer),
                               ("gemvT", level2.gemv_transposed_row_tiles,
                                0)):
        g.bind(node, ComputeBinding(
            lambda i, o, k=kernel: k(rows, cols, 1.0, 0.0, i["A"], i["x"],
                                     i["y"], o["out"], tr, tc, width,
                                     dtype),
            lat, wait))


def _bind(ctx: FblasContext, a, x, tile: int, width: int, depth: int,
          split: bool):
    """Fig. 8 (or, ``split``, remedy b) bound on ``ctx``'s DRAM."""
    m, n = a.data.shape
    tm = tile if m % tile == 0 else m            # tile rows of A
    tn = tile if n % tile == 0 else n            # tile cols of A
    g = bound_graph(atax_mdag, m, n, tm, tn, width, depth, split)
    prefix = "atax_b" if split else "atax"
    dtype = a.data.dtype
    y = ctx.mem.allocate(ctx.free_name(f"{prefix}_y"), n, dtype=dtype)
    z1 = ctx.mem.bind(ctx.free_name(f"{prefix}_z1"), np.zeros(m, dtype))
    z2 = ctx.mem.bind(ctx.free_name(f"{prefix}_z2"), np.zeros(n, dtype))
    order = row_tiles(m, n, tm, tn).indices()
    for node in ("read_A1", "read_A2") if split else ("read_A",):
        g.bind(node, ReadBinding(a, width, order=order))
    g.bind("read_x", ReadBinding(x, width, repeat=m // tm))
    g.bind("read_z1", ReadBinding(z1, width))
    g.bind("read_z2", ReadBinding(z2, width))
    bind_gemv_pair(g, m, n, tm, tn, width, a,
                   defer=atax_min_channel_depth(n, tm))
    g.bind("write_y", WriteBinding(y, n, width))
    return g, lambda: np.array(y.data)


@streamed("level2")
def atax_streaming(ctx: FblasContext, a, x, tile: int = 4, width: int = 4,
                   channel_depth="auto", preflight: bool = False):
    """Fully streamed ATAX — valid only with an adequately sized channel.

    ``channel_depth`` is the depth of the second GEMV's A channel:
    ``"auto"`` applies the Sec. V-B bound (a full row of tiles, plus
    ``8 * width``); an integer forces a specific depth, and an undersized
    one makes the composition deadlock (the simulator raises
    :class:`repro.fpga.engine.DeadlockError`).  The depth is handed to
    the planner as that edge's window, so the edge stays on chip at
    exactly that depth.  With ``preflight=True`` the static analyzer
    proves the deadlock before cycle 0 instead
    (:class:`repro.analysis.AnalysisError`, diagnostic FB003): the
    executor declares every kernel's ports, and the first GEMV its
    reordering window (a full row of tiles of A before its first output
    block).
    """
    m, n = a.data.shape
    if channel_depth == "auto":
        channel_depth = (atax_min_channel_depth(
            n, tile if m % tile == 0 else m) + 8 * width)
    g, value = _bind(ctx, a, x, tile, width, channel_depth, False)
    return [(g, {"windows": {("read_A", "gemvT"): channel_depth},
                 "buffer_budget": channel_depth,
                 "preflight": preflight})], value


def _broken(ctx: FblasContext, a, x, tile: int, width: int):
    g, value = _bind(ctx, a, x, tile, width, 0, True)
    return [(g, {})], value


def atax_broken(ctx: FblasContext, a, x, tile: int = 4,
                width: int = 4) -> AppResult:
    """ATAX with the MDAG broken in two: each GEMV reads A itself.

    Same I/O volume as the non-streamed version (A read twice), but the
    two matrix-vector pipelines still overlap through the on-chip
    intermediate-vector channel (Sec. V-B's remedy b).
    """
    return run_app(ctx, "atax_broken", "level2", _broken, a, x, tile=tile,
                   width=width)
