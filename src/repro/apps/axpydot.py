"""AXPYDOT: z = w - alpha*v;  beta = z^T u  (Sec. V-A, Fig. 6).

The host-layer version needs COPY + AXPY + DOT (7N memory I/O, three
sequential pipelines); the streaming composition chains AXPY into DOT
through an on-chip channel (3N+1 I/O, one pipeline).  On the paper's
Stratix board the host version is additionally penalised because z is
read and written in the same DDR bank — our DRAM model reproduces that
contention, which is why measured speedups approach 4 rather than the
ideal 3 (Sec. VI-C).
"""

from __future__ import annotations

from ..blas import level1, reference
from ..fpga.resources import level1_latency
from ..host.api import Fblas
from ..host.context import FblasContext
from ..streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                         WriteBinding, scalar_stream, vector_stream)
from .catalogue import bound_graph, host_app, mdag, precision_of, streamed


def axpydot_reference(w, v, u, alpha):
    """Ground truth: beta = (w - alpha*v)^T u."""
    z = reference.axpy(-alpha, v, w)
    return reference.dot(z, u)


@host_app
def axpydot_host(fb: Fblas, w, v, u, alpha):
    """Execute AXPYDOT with one host call per BLAS routine.

    ``w``, ``v``, ``u`` are device buffers.  A fresh z buffer is allocated
    (forced into a single bank, like the paper's BSP) and round-trips
    through DRAM between the calls.
    """
    n = w.num_elements
    name = fb.context.free_name("axpydot_z")
    # Place z in a bank not used by the inputs when one exists; even so,
    # AXPY reads and writes z in the *same* module — the self-contention
    # the paper blames for the >3x measured speedup.
    if fb.context.mem.interleaving:
        z = fb.allocate(n, dtype=w.data.dtype, name=name)
    else:
        used = {w.bank, v.bank, u.bank}
        free = [b for b in range(fb.context.mem.num_banks)
                if b not in used]
        z = fb.allocate(n, dtype=w.data.dtype, name=name,
                        bank=free[0] if free else (w.bank or 0))
    fb.copy(w, z)
    fb.axpy(-alpha, v, z)
    return fb.dot(z, u)


def axpydot_mdag(n: int, width: int = 16) -> BoundMDAG:
    """The Fig. 6 MDAG, unbound: every stream ``4 * width`` deep, AXPY's
    z fed to DOT on chip."""
    sig, d = vector_stream(n), 4 * width
    return mdag("read_w read_v read_u axpy dot write_beta", [
        ("read_w", "axpy.w", sig, d), ("read_v", "axpy.v", sig, d),
        ("axpy.z", "dot.z", sig, d), ("read_u", "dot.u", sig, d),
        ("dot.res", "write_beta", scalar_stream(), 4)])


@streamed("level1")
def axpydot_streaming(ctx: FblasContext, w, v, u, alpha, width: int = 16):
    """Execute AXPYDOT as one streaming composition (Fig. 6); beta lands
    in a one-element DRAM buffer (3N reads + 1 write)."""
    n = w.num_elements
    dtype = w.data.dtype.type
    precision = precision_of(w)
    g = bound_graph(axpydot_mdag, n, width)
    beta = ctx.mem.allocate(ctx.free_name("axpydot_beta"), 1, dtype=dtype)
    for node, buf in (("read_w", w), ("read_v", v), ("read_u", u)):
        g.bind(node, ReadBinding(buf, width))
    g.bind("axpy", ComputeBinding(
        lambda i, o: level1.axpy_kernel(n, -alpha, i["v"], i["w"], o["z"],
                                        width, dtype),
        level1_latency("map", width, precision)))
    g.bind("dot", ComputeBinding(
        lambda i, o: level1.dot_kernel(n, i["z"], i["u"], o["res"], width,
                                       dtype),
        level1_latency("map_reduce", width, precision)))
    g.bind("write_beta", WriteBinding(beta, 1))
    return [(g, {})], lambda: beta.data[0]
