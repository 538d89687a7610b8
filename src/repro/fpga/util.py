"""On-chip data sources and sinks.

The paper's single-module evaluation (Sec. VI-B) generates input data
directly on the FPGA "to test the scaling behavior of the memory bound
applications ... considering vectorization width that can exploit memory
interfaces faster than the one offered by the testbed".  These kernels play
that role: they feed/drain channels at ``width`` elements per cycle without
consuming DRAM bandwidth.

Each streaming helper carries a :class:`~repro.fpga.pattern.StaticPattern`
so the bulk engine can fast-forward its steady phase: the generator and the
pattern's ``block()`` share one cursor object, and the generator updates
that cursor *before* yielding ``Clock`` (which emits no ops, so the
observable op sequence is unchanged) — at every cycle boundary the cursor
therefore describes exactly the iterations still to run.  A width below
1 or a negative count is refused when the kernel is built
(:class:`~repro.fpga.errors.StreamOrderError`): an empty push would
count as progress and spin until the cycle budget ran out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .errors import check_stream_geometry
from .kernel import Clock, Pop, Push
from .pattern import PatternedGenerator, StaticPattern


class _Cursor:
    """Shared mutable loop state for a patterned helper kernel."""

    __slots__ = ("done", "pass_no")

    def __init__(self):
        self.done = 0             # elements fully processed (current pass)
        self.pass_no = 0


def source_kernel(ch, data: Sequence, width: int = 1, repeat: int = 1):
    """Push ``data`` into ``ch``, up to ``width`` elements per cycle.

    ``repeat`` replays the whole sequence (vector replay, Sec. III-B).
    """
    check_stream_geometry("source_kernel", width, repeat=repeat)
    n = len(data)
    st = _Cursor()

    def gen():
        while st.pass_no < repeat:
            while st.done < n:
                chunk = min(width, n - st.done)
                yield Push(ch, tuple(data[st.done:st.done + chunk]), 1)
                st.done += chunk
                yield Clock()
            st.pass_no += 1
            st.done = 0

    def ready():
        return (n - st.done) // width

    def block(k, _ins):
        base = st.done
        moved = k * width
        st.done = base + moved
        return [data[base:base + moved]]

    pat = StaticPattern(writes=((ch, width, 1),), ii=1,
                        ready=ready, block=block,
                        write_totals=(n * repeat,),
                        ends=lambda: (st.pass_no == repeat - 1
                                      and (n - st.done) % width == 0))
    return PatternedGenerator(gen(), pat)


def sink_kernel(ch, count: int, width: int = 1, out: Optional[List] = None):
    """Pop ``count`` elements from ``ch``; append them to ``out`` if given."""
    check_stream_geometry("sink_kernel", width, count=count)
    st = _Cursor()

    def gen():
        while st.done < count:
            chunk = min(width, count - st.done)
            vals = yield Pop(ch, chunk)
            if chunk == 1:
                vals = [vals]
            if out is not None:
                out.extend(vals)
            st.done += chunk
            yield Clock()

    def ready():
        return (count - st.done) // width

    def block(k, ins):
        moved = k * width
        if out is not None:
            out.extend(list(ins[0]))
        st.done += moved
        return []

    pat = StaticPattern(reads=((ch, width),), ii=1,
                        ready=ready, block=block,
                        read_totals=(count,),
                        ends=lambda: (count - st.done) % width == 0)
    return PatternedGenerator(gen(), pat)


def scalar_sink(ch, out: List):
    """Pop a single element (e.g. a DOT result) into ``out``."""
    val = yield Pop(ch, 1)
    out.append(val)
    yield Clock()


def forward_kernel(ch_in, ch_out, count: int, width: int = 1):
    """Copy ``count`` elements from ``ch_in`` to ``ch_out`` (a wire)."""
    check_stream_geometry("forward_kernel", width, count=count)
    st = _Cursor()

    def gen():
        while st.done < count:
            chunk = min(width, count - st.done)
            vals = yield Pop(ch_in, chunk)
            if chunk == 1:
                vals = (vals,)
            yield Push(ch_out, tuple(vals), 1)
            st.done += chunk
            yield Clock()

    def ready():
        return (count - st.done) // width

    def block(k, ins):
        st.done += k * width
        return [ins[0]]

    pat = StaticPattern(reads=((ch_in, width),),
                        writes=((ch_out, width, 1),), ii=1,
                        ready=ready, block=block,
                        read_totals=(count,), write_totals=(count,),
                        ends=lambda: (count - st.done) % width == 0)
    return PatternedGenerator(gen(), pat)


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
    check_stream_geometry("duplicate_kernel", width, count=count)
    outs = tuple(outs)
    st = _Cursor()

    def gen():
        while st.done < count:
            chunk = min(width, count - st.done)
            vals = yield Pop(ch_in, chunk)
            if chunk == 1:
                vals = (vals,)
            else:
                vals = tuple(vals)
            for ch_out in outs:
                yield Push(ch_out, vals, 1)
            st.done += chunk
            yield Clock()

    def ready():
        return (count - st.done) // width

    def block(k, ins):
        st.done += k * width
        # One physical stream copied to every consumer: the same array can
        # back every channel's run — readers never mutate popped blocks.
        return [ins[0]] * len(outs)

    pat = StaticPattern(reads=((ch_in, width),),
                        writes=tuple((o, width, 1) for o in outs), ii=1,
                        ready=ready, block=block,
                        read_totals=(count,),
                        write_totals=(count,) * len(outs),
                        ends=lambda: (count - st.done) % width == 0)
    return PatternedGenerator(gen(), pat)
