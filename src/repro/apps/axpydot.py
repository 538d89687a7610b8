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

import functools
from dataclasses import dataclass

import numpy as np

from ..blas import level1, reference
from ..fpga.engine import Engine
from ..fpga.memory import read_kernel
from ..fpga.resources import level1_latency
from ..fpga.util import sink_kernel
from ..host.api import Fblas
from ..host.context import FblasContext
from ..streaming import MDAG, scalar_stream, vector_stream
from ..telemetry.runtime import span as _telemetry_span


def axpydot_reference(w, v, u, alpha):
    """Ground truth: beta = (w - alpha*v)^T u."""
    z = reference.axpy(-alpha, v, w)
    return reference.dot(z, u)


#: Schema tag of :meth:`AppResult.to_dict` documents.
APP_RESULT_SCHEMA = "repro.appresult/1"


def _jsonify(v):
    """Convert an app result value to plain JSON-able Python."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (tuple, list)):
        return [_jsonify(x) for x in v]
    return v


@dataclass
class AppResult:
    """Outcome of one application run."""

    value: object
    cycles: int
    io_elements: int
    seconds: float
    #: Total live kernel-cycles simulated (streaming versions only).
    kernel_steps: int = 0

    def to_dict(self, include_value: bool = True) -> dict:
        """JSON-able form (schema ``repro.appresult/1``).

        The accounting keys (``cycles``, ``kernel_steps``) use the same
        names as :meth:`repro.fpga.engine.SimReport.to_dict` and the
        benchmark baselines, so artifacts agree on vocabulary.  Numpy
        values are converted to plain lists/floats.
        """
        d = {
            "schema": APP_RESULT_SCHEMA,
            "cycles": self.cycles,
            "io_elements": self.io_elements,
            "seconds": self.seconds,
            "kernel_steps": self.kernel_steps,
        }
        if include_value:
            d["value"] = _jsonify(self.value)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AppResult":
        """Inverse of :meth:`to_dict` (values stay plain Python)."""
        return cls(value=d.get("value"), cycles=d["cycles"],
                   io_elements=d["io_elements"], seconds=d["seconds"],
                   kernel_steps=d.get("kernel_steps", 0))


def host_app(body):
    """``body(fb, ...)`` makes host calls and returns the app's value;
    the decorated call returns its :class:`AppResult`: cycles and seconds
    sum the call records, I/O is the DRAM traffic delta (the records'
    own totals outside ``"simulate"`` mode)."""
    @functools.wraps(body)
    def run(fb: Fblas, *args, **kwargs) -> AppResult:
        start = len(fb.records)
        io_before = fb.context.mem.total_elements_moved
        value = body(fb, *args, **kwargs)
        recs = fb.records[start:]
        io = (fb.context.mem.total_elements_moved - io_before
              if fb.mode == "simulate" else sum(r.io_elements for r in recs))
        return AppResult(value, sum(r.cycles for r in recs), io,
                         sum(r.seconds for r in recs))
    return run


def streamed_app(routine_class: str, scalar_outputs: int = 0):
    """``body(ctx, a, ...)`` runs engines and returns ``(value, reports)``;
    the decorated call returns its :class:`AppResult`: cycles and kernel
    steps sum the reports, I/O is the DRAM delta plus ``scalar_outputs``
    (results read back without a DRAM buffer, like AXPYDOT's beta);
    seconds use ``routine_class``'s modeled frequency.

    The buffers the body binds (outputs, zero addends, intermediates)
    are released once its value is copied out and the I/O counted —
    also when it raises — so a reused context holds only its caller's
    buffers between calls."""
    def decorate(body):
        @functools.wraps(body)
        def run(ctx: FblasContext, a, *args, **kwargs) -> AppResult:
            mem = ctx.mem
            bound = len(mem.buffers)
            io_before = mem.total_elements_moved
            try:
                value, reports = body(ctx, a, *args, **kwargs)
                io = mem.total_elements_moved - io_before + scalar_outputs
            finally:
                for name in list(mem.buffers)[bound:]:
                    mem.release(name)
            cycles = sum(r.cycles for r in reports)
            precision = "single" if a.data.dtype == np.float32 else "double"
            return AppResult(
                value, cycles, io,
                cycles / ctx.frequency_for(routine_class, precision),
                kernel_steps=sum(r.kernel_steps for r in reports))
        return run
    return decorate


@host_app
def axpydot_host(fb: Fblas, w, v, u, alpha):
    """Execute AXPYDOT with one host call per BLAS routine.

    ``w``, ``v``, ``u`` are device buffers.  A fresh z buffer is allocated
    (forced into a single bank, like the paper's BSP) and round-trips
    through DRAM between the calls.
    """
    n = w.num_elements
    # Place z in a bank not used by the inputs when one exists; even so,
    # AXPY reads and writes z in the *same* module — the self-contention
    # the paper blames for the >3x measured speedup.
    if fb.context.mem.interleaving:
        z = fb.allocate(n, dtype=w.data.dtype)
    else:
        used = {w.bank, v.bank, u.bank}
        free = [b for b in range(fb.context.mem.num_banks)
                if b not in used]
        z = fb.allocate(n, dtype=w.data.dtype,
                        bank=free[0] if free else (w.bank or 0))
    fb.copy(w, z)
    fb.axpy(-alpha, v, z)
    return fb.dot(z, u)


@streamed_app("level1", scalar_outputs=1)
def axpydot_streaming(ctx: FblasContext, w, v, u, alpha,
                      width: int = 16, mode: str = "event"):
    """Execute AXPYDOT as one streaming composition (Fig. 6)."""
    with _telemetry_span("app.axpydot", cat="app", n=w.num_elements,
                         width=width, mode=mode):
        eng, out = build_axpydot_engine(ctx, w, v, u, alpha, width, mode)
        report = eng.run()
    return out[0], [report]


def build_axpydot_engine(ctx, w, v, u, alpha, width: int = 16,
                         mode: str = "event", schedule_cache=None):
    """Build the Fig. 6 streaming engine without running it.

    Returns ``(engine, out)`` where ``out`` collects beta.  Exposed so
    the static analyzer CLI (``python -m repro.analysis --app axpydot``)
    and the certified-schedule tests can inspect the design pre-flight.
    """
    n = w.num_elements
    dtype = w.data.dtype.type
    precision = "single" if w.data.dtype == np.float32 else "double"
    eng = Engine(memory=ctx.mem, mode=mode, schedule_cache=schedule_cache)
    cw = eng.channel("w", 4 * width)
    cv = eng.channel("v", 4 * width)
    cu = eng.channel("u", 4 * width)
    cz = eng.channel("z", 4 * width)          # the on-chip AXPY->DOT edge
    cres = eng.channel("beta", 4)
    eng.add_kernel("read_w", read_kernel(ctx.mem, w, cw, width))
    eng.add_kernel("read_v", read_kernel(ctx.mem, v, cv, width))
    eng.add_kernel("read_u", read_kernel(ctx.mem, u, cu, width))
    eng.add_kernel("axpy", level1.axpy_kernel(
        n, -alpha, cv, cw, cz, width, dtype),
        latency=level1_latency("map", width, precision))
    eng.add_kernel("dot", level1.dot_kernel(n, cz, cu, cres, width, dtype),
        latency=level1_latency("map_reduce", width, precision))
    out = []
    eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    return eng, out


def axpydot_mdag(n: int) -> MDAG:
    """The Fig. 6 MDAG, for static validity analysis."""
    g = MDAG()
    g.add_interface("read_w")
    g.add_interface("read_v")
    g.add_interface("read_u")
    g.add_module("axpy")
    g.add_module("dot")
    g.add_interface("write_beta")
    sig = vector_stream(n)
    g.connect("read_w", "axpy", sig, sig)
    g.connect("read_v", "axpy", sig, sig)
    g.connect("axpy", "dot", sig, sig)
    g.connect("read_u", "dot", sig, sig)
    g.connect("dot", "write_beta", scalar_stream(), scalar_stream())
    return g
