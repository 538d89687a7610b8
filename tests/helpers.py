"""Shared test utilities: build-and-run harnesses for streaming kernels."""

from __future__ import annotations

import numpy as np

from repro.fpga import Engine, sink_kernel, source_kernel
from repro.streaming import MatrixSchedule


def bound_app(name: str, arrays, *scalars, **sizes):
    """Catalogue app ``name`` bound on a fresh context by its own binder:
    ``(graph, options, value, mem)`` of its one stage (``options`` are
    its ``execute_plan`` keywords; ``value()`` reads the result once the
    graph has run)."""
    from repro.apps import APPS
    from repro.host import FblasContext
    ctx = FblasContext()
    bufs = [ctx.copy_to_device(np.asarray(a)) for a in arrays]
    ((graph, options),), value = APPS[name].bind(ctx, *bufs, *scalars,
                                                 **sizes)
    return graph, options, value, ctx.mem


def stream_of(matrix: np.ndarray, schedule: MatrixSchedule) -> list:
    """Flatten ``matrix`` in the streaming order of ``schedule``."""
    flat = np.asarray(matrix).reshape(-1)
    return [flat[i] for i in schedule.indices()]


def run_map_kernel(kernel, inputs: dict, outputs: dict, width: int,
                   latency: int = 50, depth: int = 64):
    """Run a kernel with named input sequences and output lengths.

    ``kernel`` is a factory taking the channels in declaration order:
    first all inputs (sorted by insertion order of ``inputs``), then all
    outputs.  ``inputs`` maps channel name -> (list of values, width) and
    ``outputs`` maps channel name -> expected element count.  Returns
    (dict of output lists, SimReport).
    """
    eng = Engine()
    chans = []
    for name, (data, w) in inputs.items():
        ch = eng.channel(name, depth)
        eng.add_kernel(f"src_{name}", source_kernel(ch, data, w))
        chans.append(ch)
    sinks = {}
    for name, count in outputs.items():
        ch = eng.channel(name, depth)
        sinks[name] = (ch, count)
        chans.append(ch)
    eng.add_kernel("uut", kernel(*chans), latency=latency)
    results = {}
    for name, (ch, count) in sinks.items():
        results[name] = []
        eng.add_kernel(f"sink_{name}",
                       sink_kernel(ch, count, width, results[name]))
    report = eng.run()
    return results, report


def run_reduction_kernel(kernel, inputs: dict, latency: int = 90,
                         depth: int = 64, result_count: int = 1):
    """Run a kernel producing ``result_count`` scalar results."""
    eng = Engine()
    chans = []
    for name, (data, w) in inputs.items():
        ch = eng.channel(name, depth)
        eng.add_kernel(f"src_{name}", source_kernel(ch, data, w))
        chans.append(ch)
    cres = eng.channel("res", max(4, result_count))
    chans.append(cres)
    eng.add_kernel("uut", kernel(*chans), latency=latency)
    out = []
    eng.add_kernel("sink", sink_kernel(cres, result_count, 1, out))
    report = eng.run()
    return out, report
