"""Wakes around windows: the certified tier against the event core.

A superstep ends where a kernel outside it would wake (a pop waiter at
the maturation that feeds it, a back-pressured push waiter at its
retry) and lets a kernel whose pattern ends finish inside it.  This
property drives exactly those edges — DRAM-fed GEMV, GEMV^T, GER,
in-place AXPY, AXPYDOT and ATAX over a few tiles, channels down to the
FB403 minimum, write latencies up to 64, single-bank and striped
placements — and requires ``event == bulk == certified`` on the result
bytes, ``SimReport.to_dict()`` (bank stats included) and every kernel
and channel counter, then the same story under a full
:func:`repro.telemetry.session` (registry, slices, Chrome trace).

``python tests/test_wake_windows.py`` runs the property at a larger
budget than tier-1's.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.blas import level1, level2
from repro.fpga import Engine
from repro.fpga.memory import DramModel, Placement, read_kernel, write_kernel
from repro.fpga.util import duplicate_kernel, sink_kernel, source_kernel
from repro.streaming.tiling import row_tiles
from repro.telemetry.chrome_trace import to_chrome_trace
from test_engine_differential import _assert_certified_matches_event
from test_observed_windows import _assert_same_story, _engine_drive

wake_spec = st.fixed_dictionaries({
    "kind": st.sampled_from(("gemv", "gemvt", "ger", "axpy", "axpydot",
                             "atax")),
    "tiles": st.integers(1, 3),
    "tile": st.sampled_from((2, 4, 8)),
    "width": st.sampled_from((1, 2, 4)),
    "slack": st.sampled_from((0, 1, 5, 60)),    # depth above the minimum
    "lat": st.integers(1, 64),
    "striped": st.booleans(),
})


def _memory():
    return DramModel(num_banks=4, bytes_per_cycle=64)


def _build(eng, spec, out):
    """One DRAM-fed design of ``spec["kind"]``; returns what it stores."""
    kind, tn, w = spec["kind"], spec["tile"], spec["width"]
    n = m = tn * spec["tiles"]
    mem = eng.memory
    rng = np.random.default_rng(n * 7 + tn)
    depth = w + spec["slack"]

    def bind(name, data, bank):
        if spec["striped"] and bank == 0:
            return mem.bind(name, data, placement=Placement.striped((0, 1)))
        return mem.bind(name, data, bank=bank)

    def chan(name, extra=0):
        return eng.channel(name, depth + extra)

    vec = (lambda k: rng.integers(-3, 4, k).astype(np.float32))
    if kind == "axpy":
        bx, by = bind("x", vec(n * m), 0), bind("y", vec(n * m), 2)
        cx, cy, co = chan("x"), chan("y"), chan("out")
        eng.add_kernel("read_x", read_kernel(mem, bx, cx, w))
        eng.add_kernel("read_y", read_kernel(mem, by, cy, w))
        eng.add_kernel("axpy", level1.axpy_kernel(n * m, 0.5, cx, cy, co, w),
                       latency=spec["lat"])
        eng.add_kernel("write_y", write_kernel(mem, by, co, n * m, w))
        return (by.data,)
    if kind == "axpydot":
        bw, bv, bu = (bind(name, vec(n * m), bank)
                      for name, bank in (("w", 0), ("v", 2), ("u", 3)))
        cw, cv, cu, cz, cres = (chan(name) for name in "wvuzr")
        eng.add_kernel("read_w", read_kernel(mem, bw, cw, w))
        eng.add_kernel("read_v", read_kernel(mem, bv, cv, w))
        eng.add_kernel("read_u", read_kernel(mem, bu, cu, w))
        eng.add_kernel("axpy", level1.axpy_kernel(n * m, -0.5, cv, cw, cz, w),
                       latency=spec["lat"])
        eng.add_kernel("dot", level1.dot_kernel(n * m, cz, cu, cres, w),
                       latency=spec["lat"])
        eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
        return ()
    order = np.asarray(list(row_tiles(n, m, tn, tn).indices()))
    ba = bind("A", rng.integers(-4, 5, n * m).astype(np.float32), 0)
    bx, by = bind("x", vec(m), 2), bind("y", vec(n), 3)
    ca, cx, cy, co = chan("A"), chan("x"), chan("y"), chan("out")
    if kind == "atax":
        ca1, ca2 = chan("A1"), chan("A2", m * tn)   # the FB403 minimum
        cmid, cy1 = chan("mid"), chan("y1")
        bz = bind("z", np.zeros(m, np.float32), 3)
        eng.add_kernel("read_A", read_kernel(mem, ba, ca, w, order))
        eng.add_kernel("dup", duplicate_kernel(ca, (ca1, ca2), n * m, w))
        eng.add_kernel("read_x", read_kernel(mem, bx, cx, w,
                                             repeat=n // tn))
        eng.add_kernel("read_y", read_kernel(mem, by, cy, w))
        eng.add_kernel("gemv", level2.gemv_row_tiles(
            n, m, 1.0, 0.0, ca1, cx, cy, cmid, tn, tn, w),
            latency=spec["lat"])
        eng.add_kernel("read_z", read_kernel(mem, bz, cy1, w))
        eng.add_kernel("gemvt", level2.gemv_transposed_row_tiles(
            n, m, 1.0, 0.0, ca2, cmid, cy1, co, tn, tn, w),
            latency=spec["lat"])
        bo = bind("out", np.zeros(m, np.float32), 2)
        eng.add_kernel("write_out", write_kernel(mem, bo, co, m, w))
        return (bo.data,)
    eng.add_kernel("read_A", read_kernel(mem, ba, ca, w, order))
    reps_x = n // tn if kind == "gemv" else 1
    reps_y = n // tn if kind == "ger" else 1
    eng.add_kernel("read_x", read_kernel(mem, bx, cx, w, repeat=reps_x))
    eng.add_kernel("read_y", read_kernel(mem, by, cy, w, repeat=reps_y))
    if kind == "ger":
        body = level2.ger_kernel(n, m, 0.5, ca, cx, cy, co, tn, tn, w)
        bo = bind("out", np.zeros(n * m, np.float32), 3)
        store = write_kernel(mem, bo, co, n * m, w, order)
    else:
        maker = (level2.gemv_row_tiles if kind == "gemv"
                 else level2.gemv_transposed_row_tiles)
        body = maker(n, m, 0.5, 0.25, ca, cx, cy, co, tn, tn, w)
        bo = bind("out", np.zeros(n, np.float32), 3)
        store = write_kernel(mem, bo, co, n, w)
    eng.add_kernel(kind, body, latency=spec["lat"])
    eng.add_kernel("write_out", store)
    return (bo.data,)


_RUN_ID = re.compile(r"r-[0-9a-zA-Z]+-[0-9]{6}")


def _trace(mode, spec):
    """The Chrome trace of one watched run: run ids by first appearance,
    and without the engine-run span's ``mode`` (the tier asked for)."""
    with telemetry.session() as tel:
        eng = Engine(mode=mode, memory=_memory())
        _build(eng, spec, [])
        eng.run(max_cycles=200_000)
    doc = to_chrome_trace(tel)
    for event in doc["traceEvents"]:
        event.get("args", {}).pop("mode", None)
    ids = {}
    return _RUN_ID.sub(lambda m: ids.setdefault(m.group(0), f"#{len(ids)}"),
                       json.dumps(doc, sort_keys=True, default=repr))


def check_wakes(spec):
    """The whole property for one drawn design."""
    spec = dict(spec, memory=_memory)
    eng = _assert_certified_matches_event(_build, spec)
    if eng is None:
        return                          # refused before cycle 0
    _assert_same_story(_engine_drive(_build, spec), expect_windows=False)
    assert _trace("certified", spec) == _trace("event", spec)


@settings(max_examples=40, deadline=None)
@given(wake_spec)
def test_wakes_inside_windows_match_event(spec):
    check_wakes(spec)


@pytest.mark.parametrize("kind", ("gemv", "gemvt", "ger", "axpy",
                                  "axpydot", "atax"))
def test_wake_designs_replay_windows(kind):
    """At a few tiles of 8 every design of the property replays
    supersteps between its wakes, so the property compares windows."""
    spec = {"kind": kind, "tiles": 2, "tile": 8, "width": 2, "slack": 1,
            "lat": 9, "striped": True, "memory": _memory}
    eng = _assert_certified_matches_event(_build, spec)
    assert eng.bulk_stats()["windows"] > 0


def _build_batched(eng, spec, out):
    """Three ragged segments (``width`` does not divide ``n``) through a
    batched AXPY or DOT."""
    b, n, w = 3, spec["n"], spec["width"]
    cx, cy = eng.channel("x", 16), eng.channel("y", 16)
    eng.add_kernel("src_x", source_kernel(
        cx, [np.float32(i % 7) for i in range(b * n)], w))
    eng.add_kernel("src_y", source_kernel(
        cy, [np.float32(i % 5) for i in range(b * n)], w))
    co = eng.channel("out", 16)
    if spec["reduce"]:
        eng.add_kernel("bdot", level1.batched_dot_kernel(b, n, cx, cy, co, w),
                       latency=3)
        eng.add_kernel("sink", sink_kernel(co, b, 1, out))
    else:
        eng.add_kernel("baxpy", level1.batched_axpy_kernel(
            b, n, [0.5, 2.0, -1.0], cx, cy, co, w), latency=3)
        eng.add_kernel("sink", sink_kernel(co, b * n, w, out))


@pytest.mark.parametrize("reduce", (False, True), ids=("axpy", "dot"))
@pytest.mark.parametrize("n,width", [(6, 4), (5, 4), (9, 2)])
def test_ragged_batches_stop_at_their_total(n, width, reduce):
    """Past its last segment a batched kernel has no iteration ready, so
    no superstep replays one that does not exist: the certified run is
    the event run."""
    spec = {"n": n, "width": width, "reduce": reduce}
    assert _assert_certified_matches_event(_build_batched, spec) is not None


if __name__ == "__main__":
    # The wake property at a larger budget than tier-1's.
    settings(max_examples=400, deadline=None)(given(wake_spec)(check_wakes))()
