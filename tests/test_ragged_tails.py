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
``w`` in ``{1, 3, 8, 16}``, float32 and float64, on the event and the
bulk tier.  Tier-1 checks the ``n = 3w + 1``, ``w in {3, 8}`` slice;
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

from repro.fpga import Engine
from repro.fpga.util import (duplicate_kernel, forward_kernel, sink_kernel,
                             source_kernel)
from repro.host import Fblas, FblasContext
from repro.service.batch import run_batch
from repro.service.jobs import RoutineJob

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


def _sizes(w):
    return sorted({1, w - 1, 3 * w + 1, 1001} - {0})


CASES = [f"{kind}/n{n}/w{w}/{dt}/{mode}"
         for kind in KINDS for w in WIDTHS for n in _sizes(w)
         for dt in DTYPES for mode in MODES]
TIER1 = [c for c in CASES
         if c.split("/")[1:3] in (["n10", "w3"], ["n25", "w8"])]


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


def run_case(case):
    """Drive one case on fresh state; return its SHA-256."""
    kind, n, w, dt, mode = case.split("/")
    n, w, dtype = int(n[1:]), int(w[1:]), DTYPES[dt]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    with _runs() as runs:
        if kind in ROUTINES:
            operands, call = ROUTINES[kind]
            fb = Fblas(width=w, engine_mode=mode)
            bufs = [fb.copy_to_device(rng.standard_normal(n).astype(dtype))
                    for _ in range(operands)]
            result = call(fb, *bufs)
            buffers = [b.data for b in bufs]
        elif kind == "chain":
            data = [rng.standard_normal(n).astype(dtype)]
            result, buffers = _chain(n, w, dtype, mode, data)
        else:
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
