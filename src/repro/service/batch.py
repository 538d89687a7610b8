"""Fused batched engine runs for compatible small jobs.

The service's throughput lever (Table V of the paper: batched GEMV —
many small problems amortizing one pipeline's fixed costs).  A windowed
engine run costs a near-constant setup overhead regardless of problem
size, so B small problems run back to back through *one* pipeline —
reading B*n-element concatenated buffers as a single regular patterned
region — cost barely more than one.  The batched kernels
(:func:`repro.blas.level1.batched_dot_kernel` /
:func:`~repro.blas.level1.batched_axpy_kernel`) reproduce each
segment's summation order exactly, so every job's result is
bit-identical to a separate single-caller run.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from ..blas import level1
from ..fpga.engine import Engine
from ..fpga.memory import read_kernel, write_kernel
from ..fpga.resources import level1_latency
from ..fpga.util import sink_kernel
from .jobs import RoutineJob

__all__ = ["run_batch"]

_SEQ = itertools.count()


def run_batch(context, jobs: Sequence[RoutineJob], mode: str, width: int,
              channel_depth: int = 256, schedule_cache=None) -> List:
    """Run compatible jobs as one fused engine run; per-job results.

    All jobs must share one :meth:`~RoutineJob.batch_key` (the caller
    groups them).  Buffers are bound under unique names and always
    released, so long-lived worker contexts do not accumulate garbage.
    """
    if not jobs:
        return []
    keys = {j.batch_key() for j in jobs}
    if len(keys) != 1 or None in keys:
        raise ValueError(f"jobs are not batch-compatible: {keys}")
    routine, n, _ = keys.pop()
    b = len(jobs)
    arrs = [j.arrays() for j in jobs]
    dtype = arrs[0][0].dtype.type
    precision = "double" if arrs[0][0].dtype == np.float64 else "single"

    mem = context.mem
    uid = next(_SEQ)
    names = [f"batch{uid}.x", f"batch{uid}.y", f"batch{uid}.out"]
    eng = Engine(memory=mem, mode=mode, schedule_cache=schedule_cache)
    cx = eng.channel("bx", channel_depth)
    cy = eng.channel("by", channel_depth)
    try:
        bx = mem.bind(names[0], np.concatenate([a[0] for a in arrs]))
        by = mem.bind(names[1], np.concatenate([a[1] for a in arrs]))
        eng.add_kernel("read_x", read_kernel(mem, bx, cx, width))
        eng.add_kernel("read_y", read_kernel(mem, by, cy, width))
        if routine == "dot":
            cres = eng.channel("bres", 4)
            out: List = []
            eng.add_kernel("batched_dot", level1.batched_dot_kernel(
                b, n, cx, cy, cres, width=width, dtype=dtype),
                latency=level1_latency("map_reduce", width, precision))
            eng.add_kernel("sink", sink_kernel(cres, b, 1, out))
            eng.run()
            return list(out)
        if routine == "axpy":
            alphas = [j.args[0] for j in jobs]
            co = eng.channel("bout", channel_depth)
            bo = mem.bind(names[2], np.zeros(b * n, dtype=dtype))
            eng.add_kernel("batched_axpy", level1.batched_axpy_kernel(
                b, n, alphas, cx, cy, co, width=width, dtype=dtype),
                latency=level1_latency("map", width, precision))
            eng.add_kernel("write", write_kernel(mem, bo, co, b * n, width))
            eng.run()
            flat = bo.data.copy()
            return [flat[i * n:(i + 1) * n] for i in range(b)]
        raise ValueError(f"no batched pipeline for routine {routine!r}")
    finally:
        for name in names:
            if name in mem.buffers:
                mem.release(name)
