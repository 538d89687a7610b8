"""Ragged tails, pinned byte for byte.

A steady streaming kernel runs ``n`` elements in ``w``-wide bursts; when
``w`` does not divide ``n`` its last burst is narrower, and a window
replay must stop short of it.  The Level-1 properties compare results
within a tolerance and ``host_golden.json`` uses ``n = 64`` only, so
neither would see a tail that moved by one rounding or one cycle.  This
file pins, per case, one SHA-256 over:

* the returned value and every operand buffer afterwards (bytes, dtype
  and shape);
* every engine run's ``SimReport.to_dict()`` and ``bulk_stats()``.

The cases are every Level-1 host routine, batched DOT and AXPY through
:func:`repro.service.batch.run_batch`, and a source -> forward ->
duplicate -> sink chain, at ``n`` in ``{1, w - 1, 3w + 1, 1001}``,
``w`` in ``{1, 3, 8, 16}``; and the tiled GEMV, GEMV^T and GER on
matrices whose tile width ``w`` does or does not divide (a row of a
tile then ends in a narrower burst) — each in float32 and float64, on
the event and the bulk tier.  Tier-1 checks the ``n = 3w + 1``,
``w in {3, 8}`` slice and two Level-2 geometries;
``python tests/test_ragged_tails.py`` checks every case, and
``python tests/test_ragged_tails.py --write`` records them (say in
CHANGES.md which cases moved and why).
"""

import functools
import hashlib
import json
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.fpga import DramModel, Engine
from repro.fpga.memory import read_kernel, write_kernel
from repro.fpga.util import (duplicate_kernel, forward_kernel, sink_kernel,
                             source_kernel)
from repro.host import Fblas, FblasContext
from repro.service.batch import run_batch
from repro.service.jobs import RoutineJob
from repro.streaming.tiling import row_tiles

PINS = Path(__file__).parent / "data" / "ragged_tails.json"

WIDTHS = (1, 3, 8, 16)
DTYPES = {"float32": np.float32, "float64": np.float64}
MODES = ("event", "bulk")
PARAM = [-1.0, 0.5, -0.25, 0.75, 1.5]
BATCH = 3

#: routine -> (vector operands, host call)
ROUTINES = {
    "scal": (1, lambda fb, x: fb.scal(1.5, x)),
    "copy": (2, lambda fb, x, y: fb.copy(x, y)),
    "axpy": (2, lambda fb, x, y: fb.axpy(0.75, x, y)),
    "swap": (2, lambda fb, x, y: fb.swap(x, y)),
    "rot": (2, lambda fb, x, y: fb.rot(x, y, 0.6, 0.8)),
    "rotm": (2, lambda fb, x, y: fb.rotm(x, y, PARAM)),
    "dot": (2, lambda fb, x, y: fb.dot(x, y)),
    "sdsdot": (2, lambda fb, x, y: fb.sdsdot(0.5, x, y)),
    "nrm2": (1, lambda fb, x: fb.nrm2(x)),
    "asum": (1, lambda fb, x: fb.asum(x)),
    "iamax": (1, lambda fb, x: fb.iamax(x)),
}
KINDS = (*ROUTINES, "batched_dot", "batched_axpy", "chain")

#: tiled Level-2 routine -> host call on (a, x, y)
MATRIX = {
    "gemv": lambda fb, a, x, y: fb.gemv(0.75, a, x, -0.5, y),
    "gemv_t": lambda fb, a, x, y: fb.gemv(0.75, a, x, -0.5, y, trans=True),
    "ger": lambda fb, a, x, y: fb.ger(0.75, x, y, a),
}
#: (rows, cols, width, tile): tile_m % width is 2, 2, 0 and 0 (the host
#: fits 12 rows to 6-row tiles under tile 8).
GEOMETRIES = ((12, 18, 4, 6), (10, 10, 3, 5), (16, 24, 4, 8),
              (12, 16, 2, 8))

#: DRAM interface design -> its (elements, passes, width) on one bank,
#: event tier only: a width-16 read -> write copy at 53 B/cycle (short
#: read grants and a write carry); an ordered gather read (4 x 4 tiles
#: of 8 x 8) at 14 B/cycle; a repeated read whose pass ``w`` does not
#: divide; a repeated read, ``w`` dividing its pass, that another read
#: on the bank grants short at first; a write fed 3 elements a cycle.
#: The rates are for float32; float64 gets twice the bytes.
INTERFACE = {"dram_copy": (1001, 1, 16), "gather_read": (64, 2, 4),
             "repeat_read": (63, 16, 4), "contended_repeat": (64, 4, 4),
             "narrow_write": (100, 1, 8)}


def _sizes(w):
    return sorted({1, w - 1, 3 * w + 1, 1001} - {0})


CASES = [f"{kind}/n{n}/w{w}/{dt}/{mode}"
         for kind in KINDS for w in WIDTHS for n in _sizes(w)
         for dt in DTYPES for mode in MODES] + [
    f"{kind}/{n}x{m}/w{w}/t{t}/{dt}/{mode}"
    for kind in MATRIX for n, m, w, t in GEOMETRIES
    for dt in DTYPES for mode in MODES] + [
    f"{kind}/n{n}x{passes}/w{w}/{dt}/event"
    for kind, (n, passes, w) in INTERFACE.items() for dt in DTYPES]
TIER1 = [c for c in CASES
         if c.split("/")[1:3] in (["n10", "w3"], ["n25", "w8"],
                                  ["12x18", "w4"], ["16x24", "w4"])
         or c.split("/")[0] in INTERFACE]


def _digest(value):
    """Type-, dtype-, shape- and byte-exact digest of a value."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [_digest(v) for v in value]
    arr = np.asarray(value)
    return (f"{type(value).__name__}:{arr.dtype.str}:{list(arr.shape)}:"
            f"{hashlib.sha256(arr.tobytes()).hexdigest()}")


@contextmanager
def _runs():
    """Collect ``(report dict, bulk stats)`` of every engine run."""
    seen, run = [], Engine.run

    def recording(eng, *args, **kwargs):
        report = run(eng, *args, **kwargs)
        seen.append([report.to_dict(), eng.bulk_stats()])
        return report

    Engine.run = recording
    try:
        yield seen
    finally:
        Engine.run = run


def _chain(n, w, dtype, mode, data):
    """source -> forward -> duplicate -> (sink, sink)."""
    eng = Engine(mode=mode)
    depth = 2 * w + 1
    a, b, c, d = (eng.channel(name, depth) for name in "abcd")
    outs = ([], [])
    eng.add_kernel("src", source_kernel(a, data[0], w), latency=2)
    eng.add_kernel("fwd", forward_kernel(a, b, n, w))
    eng.add_kernel("dup", duplicate_kernel(b, (c, d), n, w))
    eng.add_kernel("sink_c", sink_kernel(c, n, w, outs[0]))
    eng.add_kernel("sink_d", sink_kernel(d, n, w, outs[1]))
    eng.run()
    return [np.asarray(o, dtype=dtype) for o in outs], []


def _matrix(kind, size, w, tile, dtype, mode, rng):
    """One tiled Level-2 call on fresh buffers: (result, buffers)."""
    n, m = (int(d) for d in size.split("x"))
    fb = Fblas(width=w, tile=int(tile[1:]), engine_mode=mode)
    xlen, ylen = (m, n) if kind == "gemv" else (n, m)
    bufs = [fb.copy_to_device(rng.standard_normal(shape).astype(dtype))
            for shape in ((n, m), xlen, ylen)]
    return MATRIX[kind](fb, *bufs), [b.data for b in bufs]


def _interface(kind, n, passes, w, dtype, rng):
    """One DRAM interface design on a one-bank board: (what the sinks
    received or the store holds, with the element counters; buffers)."""
    rate = {"dram_copy": 53, "gather_read": 14, "contended_repeat": 20}
    mem = DramModel(num_banks=1, bytes_per_cycle=rate.get(kind, 64)
                    * np.dtype(dtype).itemsize // 4)
    eng = Engine(memory=mem)
    c, d = eng.channel("c", 2 * w), eng.channel("d", 4)
    data = rng.standard_normal(n).astype(dtype)
    src = mem.bind("src", data)
    dst = mem.allocate("dst", n, dtype)
    outs = ([], [])
    if kind == "dram_copy":
        eng.add_kernel("read", read_kernel(mem, src, c, w))
        eng.add_kernel("write", write_kernel(mem, dst, c, n, w))
    elif kind == "narrow_write":
        eng.add_kernel("src", source_kernel(c, data, 3))
        eng.add_kernel("write", write_kernel(mem, dst, c, n, w))
    else:
        if kind == "contended_repeat":
            # Registered first, it takes 8 of the bank's 20 B for three
            # cycles: the repeated read gets 3 elements, then full bursts.
            other = mem.bind("other", data[:6])
            eng.add_kernel("other", read_kernel(mem, other, d, 2))
            eng.add_kernel("sink_d", sink_kernel(d, 6, 2, outs[1]))
        order = row_tiles(8, 8, 4, 4).indices() if kind == "gather_read" \
            else None
        eng.add_kernel("read", read_kernel(mem, src, c, w, order=order,
                                           repeat=passes))
        eng.add_kernel("sink", sink_kernel(c, n * passes, w, outs[0]))
    eng.run()
    moved = [b.elements_read + b.elements_written
             for b in mem.buffers.values()]
    return ([np.asarray(o, dtype=dtype) for o in outs]
            + [np.asarray(moved)]), [b.data for b in mem.buffers.values()]


def run_case(case):
    """Drive one case on fresh state; return its SHA-256."""
    kind, size, w, *tile, dt, mode = case.split("/")
    w, dtype = int(w[1:]), DTYPES[dt]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    with _runs() as runs:
        if kind in MATRIX:
            result, buffers = _matrix(kind, size, w, *tile, dtype, mode,
                                      rng)
        elif kind in INTERFACE:
            n, passes = (int(v) for v in size[1:].split("x"))
            result, buffers = _interface(kind, n, passes, w, dtype, rng)
        elif kind in ROUTINES:
            n = int(size[1:])
            operands, call = ROUTINES[kind]
            fb = Fblas(width=w, engine_mode=mode)
            bufs = [fb.copy_to_device(rng.standard_normal(n).astype(dtype))
                    for _ in range(operands)]
            result = call(fb, *bufs)
            buffers = [b.data for b in bufs]
        elif kind == "chain":
            n = int(size[1:])
            data = [rng.standard_normal(n).astype(dtype)]
            result, buffers = _chain(n, w, dtype, mode, data)
        else:
            n = int(size[1:])
            routine = kind.split("_")[1]
            jobs = [RoutineJob(routine, (
                *((dtype(rng.standard_normal()),) if routine == "axpy"
                  else ()),
                rng.standard_normal(n).astype(dtype),
                rng.standard_normal(n).astype(dtype)))
                for _ in range(BATCH)]
            result = run_batch(FblasContext(), jobs, mode, width=w)
            buffers = [a for j in jobs for a in j.arrays()]
    blob = json.dumps({"result": _digest(result),
                       "buffers": _digest(buffers), "runs": runs})
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=1)
def _pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", TIER1)
def test_ragged_tail_is_pinned(case):
    assert run_case(case) == _pins()[case]


def test_every_case_is_pinned():
    assert sorted(_pins()) == sorted(CASES)


if __name__ == "__main__":
    # Every case, not only tier-1's slice; --write records them.
    start = time.perf_counter()
    got = {case: run_case(case) for case in CASES}
    print(f"{len(got)} cases in {time.perf_counter() - start:.1f} s")
    if sys.argv[1:] == ["--write"]:
        PINS.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n")
        sys.exit(0)
    moved = [case for case, digest in got.items()
             if _pins().get(case) != digest]
    for case in moved:
        print(f"moved: {case}")
    sys.exit(1 if moved else 0)
