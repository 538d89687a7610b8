"""On-chip data sources and sinks.

The paper's single-module evaluation (Sec. VI-B) generates input data
directly on the FPGA "to test the scaling behavior of the memory bound
applications ... considering vectorization width that can exploit memory
interfaces faster than the one offered by the testbed".  These kernels play
that role: they feed/drain channels at ``width`` elements per cycle without
consuming DRAM bandwidth.

Each streaming helper is one :class:`~repro.fpga.pattern.SteadyLoop`:
its block body is both the stepped iteration and the replayed window,
so the bulk engine fast-forwards the steady phase with the same code
the event core steps.  A width below 1 or a negative count is refused
when the kernel is built (:class:`~repro.fpga.errors.StreamOrderError`):
an empty push would count as progress and spin until the cycle budget
ran out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .errors import check_stream_geometry
from .kernel import Clock, Pop, Push
from .pattern import PatternedGenerator, StaticPattern, steady_kernel


def source_kernel(ch, data: Sequence, width: int = 1, repeat: int = 1):
    """Push ``data`` into ``ch``, up to ``width`` elements per cycle.

    ``repeat`` replays the whole sequence (vector replay, Sec. III-B);
    a pass's ragged tail is one narrower burst.
    """
    check_stream_geometry("source_kernel", width, repeat=repeat)
    size = len(data)

    def body(_ins, base, n, _lanes):
        lo = base % size
        if lo + n <= size:
            return [data[lo:lo + n]]
        return [np.resize(np.roll(data, -lo), n)]     # a window wraps

    return steady_kernel("source_kernel", body, writes=(ch,),
                         count=size * repeat, width=width, latency=1,
                         segment=size)


def sink_kernel(ch, count: int, width: int = 1, out: Optional[List] = None):
    """Pop ``count`` elements from ``ch``; append them to ``out`` if given."""

    def body(ins, _base, _n, _lanes):
        if out is not None:
            out.extend(ins[0])
        return ()

    return steady_kernel("sink_kernel", body, reads=(ch,), count=count,
                         width=width)


def scalar_sink(ch, out: List):
    """Pop a single element (e.g. a DOT result) into ``out``."""
    val = yield Pop(ch, 1)
    out.append(val)
    yield Clock()


def forward_kernel(ch_in, ch_out, count: int, width: int = 1):
    """Copy ``count`` elements from ``ch_in`` to ``ch_out`` (a wire)."""

    def body(ins, _base, _n, _lanes):
        return ins

    return steady_kernel("forward_kernel", body, reads=(ch_in,),
                         writes=(ch_out,), count=count, width=width,
                         latency=1)


def merge_kernel(inputs: Sequence, ch_out, schedule, width: int = 1):
    """Merge several lane streams into one, block by block.

    ``schedule`` is a sequence of ``(lane_index, count)`` pairs: pop
    ``count`` elements from ``inputs[lane_index]``, forward them to
    ``ch_out``, then move to the next entry.  The sharded GEMV/GEMM
    builders use this to reassemble per-lane row tiles into the global
    row order, so the merged stream is bitwise identical to the
    single-lane stream.

    The active read port changes from block to block, so no single
    static pattern covers the loop: the pattern is declare-only (ports
    and totals for the analyzer; always event-stepped, which is cheap —
    the merge only moves output elements, a sliver of the matrix
    traffic).
    """
    inputs = tuple(inputs)
    schedule = tuple((int(lane), int(count)) for lane, count in schedule)
    for lane, count in schedule:
        if not (0 <= lane < len(inputs)):
            raise ValueError(f"merge schedule lane {lane} out of range")
        if count < 1:
            raise ValueError("merge schedule counts must be positive")
    read_totals = [0] * len(inputs)
    for lane, count in schedule:
        read_totals[lane] += count
    total = sum(read_totals)

    def gen():
        for lane, count in schedule:
            ch_in = inputs[lane]
            done = 0
            while done < count:
                chunk = min(width, count - done)
                vals = yield Pop(ch_in, chunk)
                if chunk == 1:
                    vals = (vals,)
                yield Push(ch_out, tuple(vals), 1)
                done += chunk
                yield Clock()

    pat = StaticPattern.declare(
        reads=tuple((ch, width) for ch in inputs),
        writes=((ch_out, width, 1),), ii=1,
        read_totals=tuple(read_totals), write_totals=(total,))
    return PatternedGenerator(gen(), pat)


def duplicate_kernel(ch_in, outs: Sequence, count: int, width: int = 1):
    """Fan a stream out to several consumers (one producer, many readers).

    Models sharing one interface module between modules that read the same
    data, as in the BICG composition where both GEMVs read matrix A.
    """
    outs = tuple(outs)
    fan = len(outs)

    def body(ins, _base, _n, _lanes):
        # One physical stream copied to every consumer: the same array can
        # back every channel's run — readers never mutate popped blocks.
        return ins * fan

    return steady_kernel("duplicate_kernel", body, reads=(ch_in,),
                         writes=outs, count=count, width=width, latency=1)
