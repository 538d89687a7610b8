"""Recorded superstep scripts: a warm certified run replays what the
first run of its design planned.

A certified design's supersteps do not depend on the values it
carries, so the first complete run records each decision of its window
scheduler (step this cycle, or this superstep) in the certificate entry
and later runs of the same design replay it (``fpga/bulk.py``,
"Recorded scripts").  Three things are checked here:

* the script's key is the certificate plus the kernels' timing
  signatures, not the ``plan_key`` alone: designs that share a
  ``plan_key`` and run different schedules each replay their own;
  designs that differ only in the order their channels were created
  share a script and replay it onto their own channels, and a recorded
  superstep the live kernels and channels cannot run raises;
* on every design the differential and wake-window suites draw, the
  recording run, the replaying run and a run that plans on a fresh
  cache agree byte for byte, and the fresh run records the same script;
  a watched replay (a trace observer and a stall profiler) shows its
  observers what a watched run that plans shows them;
* two threads recording and replaying on one shared cache get what one
  thread gets.

``python tests/test_recorded_scripts.py`` runs the cross-check at a
larger budget than tier-1's.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisError
from repro.fpga import DeadlockError, Engine, LivelockError
from repro.fpga.bulk import WindowScheduler
from repro.fpga.memory import DramModel
from repro.fpga.observers import StallChainProfiler, TraceObserver
from repro.fpga.util import sink_kernel, source_kernel
from repro.host import Fblas
from repro.plan import PlanCache
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
    """Make any window planning raise: a replaying run plans nothing."""
    def refuse(self, *args):
        raise AssertionError("a replaying run planned a window")
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


def _source(cache, size, repeat):
    """``size`` elements replayed ``repeat`` times into a sink, width 4."""
    eng = Engine(mode="certified", schedule_cache=cache)
    ch = eng.channel("c", 8)
    out = []
    eng.add_kernel("src", source_kernel(
        ch, np.arange(size, dtype=np.float32), 4, repeat=repeat))
    eng.add_kernel("sink", sink_kernel(ch, size * repeat, 4, out))
    report = eng.run()
    return (report.to_dict(), np.asarray(out).tobytes(), eng.bulk_stats())


#: Designs with one ``plan_key`` and different superstep sequences.
COLLISIONS = {
    "gemv": [lambda c: _gemv(c, 512, False), lambda c: _gemv(c, 512, True),
             lambda c: _gemv(c, 256, True), lambda c: _gemv(c, 128, True)],
    "source": [lambda c: _source(c, 63, 16), lambda c: _source(c, 1008, 1)],
}


@pytest.mark.parametrize("reverse", (False, True), ids=("forward", "back"))
@pytest.mark.parametrize("name", sorted(COLLISIONS))
def test_designs_sharing_a_plan_key_replay_their_own_script(name, reverse):
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


def _streams(cache, created):
    """Two independent source -> sink streams, ``a`` (depth 8, width 4)
    and ``b`` (depth 32, width 2), their channels created in the order
    ``created``; the kernels are always registered in one order."""
    eng = Engine(mode="certified", schedule_cache=cache)
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
            eng.bulk_stats())


@pytest.mark.parametrize("first", ("ab", "ba"))
def test_channel_creation_order_does_not_move_a_replayed_superstep(first):
    """The ``plan_key`` sorts the channels, so two designs that differ
    only in the order their channels were created share a certificate
    and a script; each must still replay onto its own channels."""
    orders = (first, first[::-1])
    planned = [_streams(PlanCache(), o) for o in orders]
    # The streams differ, so a superstep put on the wrong FIFO shows.
    assert (planned[0][0]["channels"]["a"]["max_occupancy"]
            != planned[0][0]["channels"]["b"]["max_occupancy"])
    cache = PlanCache()
    cold = [_streams(cache, o) for o in orders]
    assert len(cache) == 1 and len(_certificate(cache).scripts) == 1
    with _planning_forbidden():
        warm = [_streams(cache, o) for o in orders]
    assert cold == planned
    assert warm == planned


def _tampered(edit):
    """Record ``_streams``' script, apply ``edit`` to its one superstep
    entry ``[t, K, order, peaks]`` and replay it."""
    cache = PlanCache()
    _streams(cache, "ab")
    scripts = _certificate(cache).scripts
    (key,) = scripts
    (at,) = [i for i, e in enumerate(scripts[key]) if not isinstance(e, int)]
    entry = list(scripts[key][at])
    edit(entry)
    scripts[key] = (*scripts[key][:at], tuple(entry),
                    *scripts[key][at + 1:])
    return _streams(cache, "ab")


@pytest.mark.parametrize("edit", [
    # A kernel runs more iterations than it has ready.
    lambda e: e.__setitem__(2, ((e[2][0][0], e[2][0][1] + 1, e[2][0][2]),
                                *e[2][1:])),
    # Kernels said to leave before their last iteration.
    lambda e: e.__setitem__(2, tuple((i, n - 1, lv) for i, n, lv in e[2])),
    # A kernel queued then is left out.
    lambda e: e.__setitem__(2, e[2][1:]),
    # A channel the design does not have.
    lambda e: e.__setitem__(3, (("z", 4), *e[3][1:])),
    # A channel the kernels do not touch is missing.
    lambda e: e.__setitem__(3, e[3][1:]),
], ids=("iterations", "leaves-early", "kernel", "channel", "missing-channel"))
def test_a_superstep_the_live_state_cannot_run_is_an_error(edit):
    """A recorded superstep is checked against the live kernels and
    channels before it runs; one that does not fit raises."""
    from repro.fpga import SimulationError

    with pytest.raises(SimulationError, match="recorded superstep at cycle"):
        _tampered(edit)


def test_a_script_that_does_not_fit_the_run_is_an_error():
    """A replay that meets a cycle the script does not record raises; it
    never falls back to planning."""
    from repro.fpga import SimulationError

    cache = PlanCache()
    _source(cache, 63, 16)
    scripts = _certificate(cache).scripts
    (key,) = scripts
    scripts[key] = (-1, *scripts[key][1:])      # a step at no cycle
    with pytest.raises(SimulationError, match="recorded superstep script"):
        _source(cache, 63, 16)


def test_a_script_too_long_to_keep_is_marked_and_the_design_plans():
    cache = PlanCache()
    with mock.patch.object(WindowScheduler, "MAX_SCRIPT_ENTRIES", 2):
        cold = _source(cache, 63, 16)
    assert list(_certificate(cache).scripts.values()) == [()]
    with mock.patch.object(WindowScheduler, "_window_plan", autospec=True,
                           side_effect=WindowScheduler._window_plan) as plan:
        assert _source(cache, 63, 16) == cold
    assert plan.call_count > 0
    assert list(_certificate(cache).scripts.values()) == [()]


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
    neither record nor replay."""
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
    """Observers take no part in the script: a watched run records it,
    and watched and unwatched runs replay it."""
    cache = PlanCache()
    _small(cache, observers=[TraceObserver()])
    assert len(_certificate(cache).scripts) == 1
    with _planning_forbidden():
        plain = _small(cache)
        watched = _small(cache, observers=[TraceObserver(),
                                           StallChainProfiler()])
    assert watched.cycles == plain.cycles
    assert watched.timelines and not plain.timelines


# ---------------------------------------------------------------------------
# Recorded == planned, over the differential and wake-window designs
# ---------------------------------------------------------------------------

def _two_banks():
    return DramModel(num_banks=2, bytes_per_cycle=64)


designs = st.one_of(
    st.tuples(st.just(_build_patterned_chain), patterned_chain_spec),
    st.tuples(st.just(_build_certified_fanout), patterned_fanout_spec),
    st.tuples(st.just(_build_ramp_chain), ramp_chain_spec),
    st.tuples(st.just(_build_tiled), tiled_spec),
    st.tuples(st.just(_build_inplace_axpy),
              inplace_spec.map(lambda s: dict(s, memory=_two_banks))),
    st.tuples(st.just(_build_atax), st.fixed_dictionaries({
        "tile": st.sampled_from((2, 4)), "width": st.sampled_from((1, 2)),
        "lat": st.integers(1, 40), "slack": st.sampled_from((0, 1))})),
    st.tuples(st.just(_build_wake),
              wake_spec.map(lambda s: dict(s, memory=_wake_memory))),
)


def _outcome(build, spec, cache, watched=False):
    """Everything one certified run at the default cycle budget shows:
    verdict and report, result bytes, bank stats, counters, bulk stats
    and, ``watched``, what a trace observer and a stall profiler saw.
    ``None`` when the design is refused before cycle 0."""
    memory = spec.get("memory")
    observers = [TraceObserver(), StallChainProfiler()] if watched else []
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
    seen = ()
    if watched:
        trace, prof = observers
        seen = (trace.timelines, trace.occupancy_sums, prof.stalls,
                prof.producers, prof.consumers)
    return (got, payload, banks, _stats(eng), eng.bulk_stats(), *seen)


def check_script(design):
    """The recording, replaying and fresh planning runs of one design,
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
    (script,) = scripts.values()
    with _planning_forbidden():
        warm = _outcome(build, spec, cache)
        watched = _outcome(build, spec, cache, watched=True)
    fresh_cache = PlanCache()
    fresh = _outcome(build, spec, fresh_cache)
    assert warm == cold, f"the replay diverged for {spec}"
    assert fresh == cold, f"a fresh plan diverged for {spec}"
    assert list(_certificate(fresh_cache).scripts.values()) == [script]
    # A watched replay shows its observers what a watched plan does, and
    # looking changes nothing the run itself shows.
    planned = _outcome(build, spec, PlanCache(), watched=True)
    assert watched == planned, f"a watched replay diverged for {spec}"
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
    every tenth run clears it, so both record as well as replay.  Every
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
