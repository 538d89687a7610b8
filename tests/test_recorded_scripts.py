"""Warm records: a warm certified run takes what the first runs of its
design recorded.

A certified design's timing does not depend on the values it carries,
so its first complete run compiles a hit (the progress of its kernels'
bodies and its counters), its first watched run also records what its
observers saw, and later runs of the same design take the hit, shown to
their observers as the recorded observation (``fpga/bulk.py``,
"Compiled hits").  Both live in the certificate's ``scripts``, one
``(hit, observation)`` per timing key.  Checked here:

* the key is the certificate plus the kernels' timing signatures, not
  the ``plan_key`` alone: designs that share a ``plan_key`` and run
  different schedules each take their own record; designs that differ
  only in the order their channels were created share one and apply it
  to their own channels, watched or not;
* a tampered record, or another design's, raises; an over-long one is
  marked and the design plans;
* on every design the differential and wake-window suites draw, plus
  an in-place SWAP (two DRAM stores) and a tiled GEMV^T whose A
  producer starts after its first phase, the recording run, the warm
  runs and a run that plans on a fresh cache agree byte for byte, and a
  watched warm run shows its observers what a watched plan does;
* two threads recording and taking hits on one shared cache get what
  one thread gets.

``python tests/test_recorded_scripts.py`` runs the cross-check at a
larger budget than tier-1's.
"""

import sys
import threading
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisError
from repro.blas import level1, level2
from repro.fpga import DeadlockError, Engine, LivelockError
from repro.fpga.bulk import WindowScheduler
from repro.fpga.memory import DramModel, read_kernel, write_kernel
from repro.fpga.observers import StallChainProfiler, TraceObserver
from repro.fpga.util import duplicate_kernel, sink_kernel, source_kernel
from repro.host import Fblas
from repro.plan import PlanCache
from repro.streaming.tiling import row_tiles
from test_engine_differential import (
    _build_atax,
    _build_certified_fanout,
    _build_inplace_axpy,
    _build_patterned_chain,
    _build_ramp_chain,
    _build_tiled,
    _stats,
    inplace_spec,
    patterned_chain_spec,
    patterned_fanout_spec,
    ramp_chain_spec,
    tiled_spec,
)
from test_wake_windows import _build as _build_wake
from test_wake_windows import _memory as _wake_memory
from test_wake_windows import wake_spec


def _certificate(cache):
    """The one certificate a single-design cache holds."""
    (key,) = list(cache)
    return cache[key]


def _planning_forbidden():
    """Make any window planning raise: a warm run plans nothing."""
    def refuse(self, *args):
        raise AssertionError("a warm run planned a window")
    return mock.patch.multiple(WindowScheduler, _survey=refuse,
                               _window_plan=refuse)


# ---------------------------------------------------------------------------
# The key: plan_key plus the timing signature
# ---------------------------------------------------------------------------

class _Kept(Fblas):
    """Keeps the report and engine of its last simulated call."""

    def _engine(self):
        eng = self.engine = super()._engine()
        run = eng.run

        def keep(*args, **kwargs):
            self.report = run(*args, **kwargs)
            return self.report
        eng.run = keep
        return eng


def _gemv(cache, tile, trans):
    """GEMV 512 x 512 (or GEMV^T) at width 4 and tile ``tile``."""
    fb = _Kept(width=4, engine_mode="certified", tile=tile,
               schedule_cache=cache)
    rng = np.random.default_rng(11)
    a = fb.copy_to_device(
        rng.integers(-4, 5, (512, 512)).astype(np.float32))
    x = fb.copy_to_device(rng.integers(-3, 4, 512).astype(np.float32))
    y = fb.copy_to_device(rng.integers(-3, 4, 512).astype(np.float32))
    out = fb.gemv(0.5, a, x, 0.25, y, trans=trans)
    return (fb.report.to_dict(), out.tobytes(), fb.engine.bulk_stats())


def _watching(watched):
    """A trace observer and a stall profiler, or nothing."""
    return [TraceObserver(), StallChainProfiler()] if watched else []


def _seen(observers):
    """What the observers of :func:`_watching` kept."""
    if not observers:
        return ()
    trace, prof = observers
    return (trace.timelines, trace.occupancy_sums, prof.stalls,
            prof.producers, prof.consumers)


def _source(cache, size, repeat, watched=False):
    """``size`` elements replayed ``repeat`` times into a sink, width 4."""
    observers = _watching(watched)
    eng = Engine(mode="certified", schedule_cache=cache, observers=observers)
    ch = eng.channel("c", 8)
    out = []
    eng.add_kernel("src", source_kernel(
        ch, np.arange(size, dtype=np.float32), 4, repeat=repeat))
    eng.add_kernel("sink", sink_kernel(ch, size * repeat, 4, out))
    report = eng.run()
    return (report.to_dict(), np.asarray(out).tobytes(), eng.bulk_stats(),
            *_seen(observers))


#: Designs with one ``plan_key`` and different superstep sequences.
COLLISIONS = {
    "gemv": [lambda c: _gemv(c, 512, False), lambda c: _gemv(c, 512, True),
             lambda c: _gemv(c, 256, True), lambda c: _gemv(c, 128, True)],
    "source": [lambda c: _source(c, 63, 16), lambda c: _source(c, 1008, 1)],
}


@pytest.mark.parametrize("reverse", (False, True), ids=("forward", "back"))
@pytest.mark.parametrize("name", sorted(COLLISIONS))
def test_designs_sharing_a_plan_key_replay_their_own_script(name, reverse):
    """Each design takes the hit it recorded under its own timing key."""
    designs = COLLISIONS[name][::-1] if reverse else COLLISIONS[name]
    cache = PlanCache()
    cold = [run(cache) for run in designs]
    assert len(cache) == 1              # one certificate for all of them
    # The collision is real: one cycle count or window sequence differs.
    assert len({(c[0]["cycles"], tuple(c[2].values())) for c in cold}) > 1
    assert len(_certificate(cache).scripts) == len(designs)
    with _planning_forbidden():
        warm = [run(cache) for run in designs]
    assert warm == cold


def _streams(cache, created, watched=False):
    """Two independent source -> sink streams, ``a`` (depth 8, width 4)
    and ``b`` (depth 32, width 2), their channels created in the order
    ``created``; the kernels are always registered in one order."""
    observers = _watching(watched)
    eng = Engine(mode="certified", schedule_cache=cache, observers=observers)
    geometry = {"a": (8, 256, 4), "b": (32, 96, 2)}
    chans = {n: eng.channel(n, geometry[n][0]) for n in created}
    outs = {"a": [], "b": []}
    for n in "ab":
        _depth, size, w = geometry[n]
        eng.add_kernel("src_" + n, source_kernel(
            chans[n], np.arange(size, dtype=np.float32) + 7 * (n == "b"), w))
    for n in "ab":
        _depth, size, w = geometry[n]
        eng.add_kernel("sink_" + n, sink_kernel(chans[n], size, w, outs[n]))
    report = eng.run()
    return (report.to_dict(), [np.asarray(outs[n]).tobytes() for n in "ab"],
            eng.bulk_stats(), *_seen(observers))


@pytest.mark.parametrize("first", ("ab", "ba"))
def test_channel_creation_order_does_not_move_a_replayed_superstep(first):
    """The ``plan_key`` sorts the channels, so two designs that differ
    only in the order their channels were created share a certificate
    and a record; each must apply its hit's channel counters and its
    observation's occupancy runs to its own channels."""
    runs = [(o, watched) for o in (first, first[::-1])
            for watched in (False, True)]
    planned = [_streams(PlanCache(), *run) for run in runs]
    # The streams differ, so counters or samples on the wrong FIFO show.
    assert (planned[0][0]["channels"]["a"]["max_occupancy"]
            != planned[0][0]["channels"]["b"]["max_occupancy"])
    assert planned[1][4]["a"] != planned[1][4]["b"]
    cache = PlanCache()
    cold = [_streams(cache, *run) for run in runs]
    assert len(cache) == 1 and len(_certificate(cache).scripts) == 1
    with _planning_forbidden():
        warm = [_streams(cache, *run) for run in runs]
    assert cold == planned
    assert warm == planned


def _edit_seen(edit):
    """Apply ``edit`` to the first recorded window with ops, as a list
    ``[start, cycles, states, ops, occupancy, blocked]``."""
    def apply(hit, seen):
        at = next(i for i, w in enumerate(seen) if w[3])
        window = list(seen[at])
        edit(window)
        return hit, (*seen[:at], tuple(window), *seen[at + 1:])
    return apply


def _edit_hit(edit):
    """Apply ``edit`` to the hit's last stretch, a list of ``[kernel
    index, progress]`` rows."""
    def apply(hit, seen):
        stretches, final = hit
        rows = [list(row) for row in stretches[-1]]
        edit(rows)
        last = tuple(tuple(row) for row in rows)
        return ((*stretches[:-1], last), final), seen
    return apply


def _tampered(edit):
    """Record ``_streams``' hit and observation, apply ``edit`` to the
    record and take it in a watched run."""
    cache = PlanCache()
    _streams(cache, "ab", watched=True)
    scripts = _certificate(cache).scripts
    (key,) = scripts
    scripts[key] = edit(*scripts[key])
    return _streams(cache, "ab", watched=True)


@pytest.mark.parametrize("edit,error", [
    # A kernel runs more elements than it has.
    (_edit_hit(lambda rows: rows[0].__setitem__(1, rows[0][1] + 4)),
     "recorded progress"),
    # A kernel stops short of its recorded end.
    (_edit_hit(lambda rows: rows[-1].__setitem__(1, rows[-1][1] - 4)),
     "recorded progress"),
    # A kernel the design does not have.
    (_edit_seen(lambda w: w.__setitem__(3, ((9, *w[3][0][1:]),
                                             *w[3][1:]))),
     "recorded observation"),
    # A channel the design does not have.
    (_edit_seen(lambda w: w.__setitem__(4, (("z", w[4][0][1]),
                                             *w[4][1:]))),
     "recorded observation"),
    # A channel left out.
    (_edit_seen(lambda w: w.__setitem__(4, w[4][1:])),
     "recorded observation"),
], ids=("iterations", "leaves-early", "kernel", "channel", "missing-channel"))
def test_a_superstep_the_live_state_cannot_run_is_an_error(edit, error):
    """A record that does not fit the live kernels and channels raises:
    an observation before any observer sees it, a hit once a kernel
    misses its recorded progress."""
    from repro.fpga import SimulationError

    with pytest.raises(SimulationError, match=error):
        _tampered(edit)


def test_a_script_that_does_not_fit_the_run_is_an_error():
    """Another design's record under this design's key raises, watched
    or not; a warm run never falls back to planning."""
    from repro.fpga import SimulationError

    streams, cache = PlanCache(), PlanCache()
    _streams(streams, "ab", watched=True)
    _source(cache, 63, 16)
    scripts = _certificate(cache).scripts
    (key,) = scripts
    (scripts[key],) = _certificate(streams).scripts.values()
    with pytest.raises(SimulationError, match="recorded observation"):
        _source(cache, 63, 16, watched=True)
    with pytest.raises(SimulationError, match="recorded progress"):
        _source(cache, 63, 16)


def test_a_script_too_long_to_keep_is_marked_and_the_design_plans():
    """A hit longer than the bound marks the design, which then plans;
    an observation longer than the bound keeps the hit for unwatched
    runs, and the design's watched runs plan."""
    def planning():
        return mock.patch.object(
            WindowScheduler, "_window_plan", autospec=True,
            side_effect=WindowScheduler._window_plan)

    cache = PlanCache()
    with mock.patch.object(WindowScheduler, "MAX_RECORD_LEN", 0):
        cold = _source(cache, 63, 16)
    assert list(_certificate(cache).scripts.values()) == [(None, None)]
    with planning() as plan:
        assert _source(cache, 63, 16) == cold
        assert _source(cache, 63, 16, watched=True)[:3] == cold
    assert plan.call_count > 0
    assert list(_certificate(cache).scripts.values()) == [(None, None)]

    cache = PlanCache()
    with mock.patch.object(WindowScheduler, "MAX_RECORD_LEN", 2):
        watched = _source(cache, 63, 16, watched=True)
    ((hit, seen),) = _certificate(cache).scripts.values()
    assert hit is not None and seen == ()
    with _planning_forbidden():
        assert _source(cache, 63, 16) == watched[:3]
    with planning() as plan:
        assert _source(cache, 63, 16, watched=True) == watched
    assert plan.call_count > 0


def _small(cache, **kw):
    """A 64-element source -> sink run, certified, width 4."""
    eng = Engine(mode="certified", schedule_cache=cache,
                 observers=kw.pop("observers", ()))
    ch = eng.channel("c", 8)
    eng.add_kernel("src", source_kernel(ch, np.ones(64, np.float32), 4))
    eng.add_kernel("sink", sink_kernel(ch, 64, 4))
    return eng.run(**kw)


def test_budgeted_and_uncached_runs_plan():
    """An explicit ``max_cycles`` and a run without a schedule cache
    neither record nor take a hit."""
    cache = PlanCache()
    _small(cache, max_cycles=10_000)
    _small(None)
    assert _certificate(cache).scripts == {}
    _small(cache)
    assert len(_certificate(cache).scripts) == 1
    with _planning_forbidden():
        _small(cache)
        for kw in ({"cache": cache, "max_cycles": 10_000},
                   {"cache": None}):
            with pytest.raises(AssertionError, match="planned a window"):
                _small(**kw)


def test_watched_runs_record_and_replay():
    """An unwatched run records the hit alone; the design's first watched
    run plans and records what its observers saw; later watched runs
    take the hit and show that, and unwatched runs take it as before."""
    cache = PlanCache()
    _small(cache)
    ((hit, seen),) = _certificate(cache).scripts.values()
    assert hit is not None and seen is None
    first = _small(cache, observers=[TraceObserver()])
    ((again, seen),) = _certificate(cache).scripts.values()
    assert again == hit and seen
    with _planning_forbidden():
        plain = _small(cache)
        watched = _small(cache, observers=[TraceObserver(),
                                           StallChainProfiler()])
    assert watched.cycles == plain.cycles == first.cycles
    assert watched.timelines == first.timelines and not plain.timelines


# ---------------------------------------------------------------------------
# Recorded == planned, over the differential and wake-window designs
# ---------------------------------------------------------------------------

def _two_banks():
    return DramModel(num_banks=2, bytes_per_cycle=64)


def _build_swap(eng, spec, out):
    """x <-> y through DRAM in place: two stores, each writing the buffer
    the other store's data was read from."""
    n, w = spec["n"], spec["width"]
    mem = eng.memory
    bx = mem.bind("x", (np.arange(n, dtype=np.float32) % 13) - 6, bank=0)
    by = mem.bind("y", (np.arange(n, dtype=np.float32) % 5) - 2, bank=1)
    cx, cy, ox, oy = (eng.channel(name, spec["depth"])
                      for name in ("in0", "in1", "out0", "out1"))
    eng.add_kernel("read0", read_kernel(mem, bx, cx, w))
    eng.add_kernel("read1", read_kernel(mem, by, cy, w))
    eng.add_kernel("swap", level1.swap_kernel(n, cx, cy, ox, oy, w),
                   latency=spec["lat"])
    eng.add_kernel("write0", write_kernel(mem, bx, ox, n, w))
    eng.add_kernel("write1", write_kernel(mem, by, oy, n, w))
    return (bx.data, by.data)


fanout_spec = st.fixed_dictionaries({
    "tiles": st.integers(1, 3),
    "tile": st.sampled_from((2, 4, 8)),
    "width": st.sampled_from((1, 2, 4)),
    "slack": st.sampled_from((0, 1, 5, 60)),
    "lat": st.integers(1, 64),
})


def _build_fanout_gemvt(eng, spec, out):
    """GEMVER's first component in small: A, scaled, fans out to a DRAM
    store and to a tiled GEMV^T.  The GEMV^T is registered first and its
    A producer starts after its first phase (the x and y block loads),
    so only the ports put the producers before it."""
    tn, w = spec["tile"], spec["width"]
    n = tn * spec["tiles"]
    mem = eng.memory
    rng = np.random.default_rng(n * 5 + tn)
    order = np.asarray(list(row_tiles(n, n, tn, tn).indices()))
    ba = mem.bind("A", rng.integers(-4, 5, n * n).astype(np.float32), bank=0)
    bx = mem.bind("x", rng.integers(-3, 4, n).astype(np.float32), bank=1)
    by = mem.bind("y", rng.integers(-3, 4, n).astype(np.float32), bank=2)
    bb = mem.bind("B", np.zeros(n * n, np.float32), bank=3)
    bo = mem.bind("out", np.zeros(n, np.float32), bank=2)
    depth = w + spec["slack"]
    fan = max(depth, 4 * tn)        # the fan-out absorbs the block pops
    ca, cs, cx, cy, co = (eng.channel(name, depth)
                          for name in ("A", "scaled", "x", "y", "out"))
    cb, cg = eng.channel("B", fan), eng.channel("gemv", fan)
    eng.add_kernel("gemvT", level2.gemv_transposed_row_tiles(
        n, n, 0.5, 0.25, cg, cx, cy, co, tn, tn, w), latency=spec["lat"])
    eng.add_kernel("read_A", read_kernel(mem, ba, ca, w, order))
    eng.add_kernel("scale", level1.scal_kernel(n * n, 2.0, ca, cs, w),
                   latency=spec["lat"])
    eng.add_kernel("fanout", duplicate_kernel(cs, (cb, cg), n * n, w))
    eng.add_kernel("read_x", read_kernel(mem, bx, cx, w))
    eng.add_kernel("read_y", read_kernel(mem, by, cy, w))
    eng.add_kernel("write_B", write_kernel(mem, bb, cb, n * n, w, order))
    eng.add_kernel("write_out", write_kernel(mem, bo, co, n, w))
    return (bb.data, bo.data)


designs = st.one_of(
    st.tuples(st.just(_build_patterned_chain), patterned_chain_spec),
    st.tuples(st.just(_build_certified_fanout), patterned_fanout_spec),
    st.tuples(st.just(_build_ramp_chain), ramp_chain_spec),
    st.tuples(st.just(_build_tiled), tiled_spec),
    st.tuples(st.just(_build_inplace_axpy),
              inplace_spec.map(lambda s: dict(s, memory=_two_banks))),
    st.tuples(st.just(_build_swap),
              inplace_spec.map(lambda s: dict(s, memory=_two_banks))),
    st.tuples(st.just(_build_atax), st.fixed_dictionaries({
        "tile": st.sampled_from((2, 4)), "width": st.sampled_from((1, 2)),
        "lat": st.integers(1, 40), "slack": st.sampled_from((0, 1))})),
    st.tuples(st.just(_build_wake),
              wake_spec.map(lambda s: dict(s, memory=_wake_memory))),
    st.tuples(st.just(_build_fanout_gemvt),
              fanout_spec.map(lambda s: dict(s, memory=_wake_memory))),
)


def _outcome(build, spec, cache, watched=False):
    """Everything one certified run at the default cycle budget shows:
    verdict and report, result bytes, bank stats, counters, bulk stats
    and, ``watched``, what a trace observer and a stall profiler saw.
    ``None`` when the design is refused before cycle 0."""
    memory = spec.get("memory")
    observers = _watching(watched)
    eng = Engine(mode="certified", memory=memory and memory(),
                 schedule_cache=cache, observers=observers)
    out = []
    extra = build(eng, spec, out)
    try:
        report = eng.run()
    except AnalysisError:
        return None
    except (DeadlockError, LivelockError) as exc:
        got = (type(exc).__name__, exc.cycle, dict(exc.blocked))
    else:
        got = ("done", report.to_dict())
    payload = [np.asarray(o).tobytes() for o in (out, *(extra or ()))]
    banks = ([(b.bytes_read, b.bytes_written, b.busy_cycles)
              for b in eng.memory.bank_stats] if eng.memory else [])
    return (got, payload, banks, _stats(eng), eng.bulk_stats(),
            *_seen(observers))


def check_script(design):
    """The recording, warm and fresh planning runs of one design,
    unwatched and watched."""
    build, spec = design
    cache = PlanCache()
    cold = _outcome(build, spec, cache)
    if cold is None:
        return                          # refused: nothing ran
    scripts = _certificate(cache).scripts
    if cold[0][0] != "done":
        assert scripts == {}            # only a completed run records
        return
    ((hit, seen),) = scripts.values()
    assert seen is None
    warm_path = _planning_forbidden if hit is not None else nullcontext
    with warm_path():
        warm = _outcome(build, spec, cache)
    watched = _outcome(build, spec, cache, watched=True)   # records
    with warm_path():
        rewatched = _outcome(build, spec, cache, watched=True)
    fresh_cache = PlanCache()
    fresh = _outcome(build, spec, fresh_cache)
    assert warm == cold, f"a hit diverged for {spec}"
    assert fresh == cold, f"a fresh plan diverged for {spec}"
    assert list(_certificate(fresh_cache).scripts.values()) == [(hit, None)]
    # A watched hit shows its observers what a watched plan does, and
    # looking changes nothing the run itself shows.
    planned = _outcome(build, spec, PlanCache(), watched=True)
    assert watched == planned, f"a watched plan diverged for {spec}"
    assert rewatched == planned, f"a watched hit diverged for {spec}"
    assert watched[:5] == cold


@settings(max_examples=100, deadline=None)
@given(designs)
def test_recorded_script_equals_planned_run(design):
    check_script(design)


# ---------------------------------------------------------------------------
# One cache, two threads
# ---------------------------------------------------------------------------

def test_two_threads_record_and_replay_on_one_cache():
    """Two threads run the same cold design 50 times each on one cache;
    every tenth run clears it, so both record as well as take hits.  Every
    result equals a single-thread run's, and nothing raises."""
    rng = np.random.default_rng(5)
    x, y = (rng.integers(-3, 4, 1000).astype(np.float32) for _ in range(2))

    def request(fb, dx, dy):
        dy.data[...] = y
        dot = fb.dot(dx, dy)
        out = fb.axpy(0.5, dx, dy)
        return (np.float32(dot).tobytes(), out.tobytes(),
                [r.cycles for r in fb.records[-2:]])

    def client(cache, runs, results, errors, barrier=None):
        try:
            fb = Fblas(width=4, engine_mode="certified",
                       schedule_cache=cache)
            dx, dy = fb.copy_to_device(x), fb.copy_to_device(y.copy())
            if barrier is not None:
                barrier.wait()
            for i in range(runs):
                if i % 10 == 0:
                    cache.clear()
                results.append(request(fb, dx, dy))
                fb.context.reset_records()
        except Exception as exc:        # surfaced below
            errors.append(exc)

    expected, errors = [], []
    client(PlanCache(), 1, expected, errors)
    cache, barrier = PlanCache(), threading.Barrier(2)
    results = [[], []]
    threads = [threading.Thread(target=client,
                                args=(cache, 50, results[i], errors,
                                      barrier))
               for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # interleave the two threads finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected * 50, expected * 50]


if __name__ == "__main__":
    # The cross-check at a larger budget than tier-1's.
    settings(max_examples=1000, deadline=None)(
        given(designs)(check_script))()
