"""Compiled hits: a warm certified run executes its recorded stretches as
block bodies, with no event loop (``fpga/bulk.py``, "Compiled hits").

The first run of a design plans and compiles its hit, and every later
run takes it; a watched one shows its observers what the design's
first watched run recorded.  Checked here:

* hit == engine: over the differential, wake-window and recorded-script
  designs, a run that takes the hit — with the planner, the walks and
  both cores patched to raise — leaves what a planning run leaves:
  result bytes, ``SimReport.to_dict()``, bank stats, per-buffer counters,
  the DRAM model's cycle, busy marks and budgets, kernel and channel
  counters and ``bulk_stats()``; and an event-tier run on the same
  memory afterwards sees the same state either way;
* a watched hit, patched the same way, exports from a full telemetry
  session (registry, slices, runs, ledger, Chrome trace, report) what a
  watched planning run exports;
* every host golden design that certifies, called four times on one
  context (in-place calls, SWAP / ROT / ROTM's two stores among them),
  gives what planning calls give;
* the signature is sound: designs that share a certificate and timing
  signatures share a record and a hit, so they must give equal reports;
* a hit whose live kernels cannot run the recorded progress raises, and
  a design with a kernel that runs no body is marked and plans.

Object addresses and hash seeds differ per process, so CI runs this
file in several fresh interpreters under several ``PYTHONHASHSEED``s;
``python tests/test_compiled_hits.py`` runs both properties at a larger
budget than tier-1's.
"""

import zlib
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis import AnalysisError
from repro.fpga import DeadlockError, Engine, LivelockError, SimulationError
from repro.fpga import bulk
from repro.fpga.bulk import WindowScheduler
from repro.fpga.scheduler import WakeListScheduler
from repro.fpga.util import sink_kernel, source_kernel
from repro.plan import PlanCache
from test_engine_differential import _stats
from test_host_golden import (CASES, DTYPES, TILE, WIDTH, _digest,
                              _Recording)
from test_recorded_scripts import COLLISIONS, _certificate, designs
from test_session_exports import _exports


def _forbidden():
    """Make the planner, the walks and both cores raise: a hit runs none
    of them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a compiled hit ran the engine")
    stack = ExitStack()
    stack.enter_context(mock.patch.multiple(
        WindowScheduler, _survey=refuse, _window_plan=refuse,
        _run_cycle=refuse, _execute_window=refuse,
        _describe_window=refuse))
    stack.enter_context(mock.patch.object(WakeListScheduler, "_run_cycle",
                                          refuse))
    stack.enter_context(mock.patch.multiple(bulk, _walk=refuse,
                                            _samples=refuse))
    return stack


def _never_compiled():
    """Keep every design planning."""
    return mock.patch.object(WindowScheduler, "_compile",
                             lambda self, trace, report: None)


def _run(build, spec, cache, memory, mode="certified"):
    """One run of ``build`` on ``memory`` (shared across runs): what it
    returns and leaves, or ``None`` when it is refused or hangs.  The
    design's buffers are released afterwards, so the next run binds
    them afresh on the same memory."""
    eng = Engine(mode=mode, memory=memory, schedule_cache=cache)
    out = []
    extra = build(eng, spec, out)
    try:
        report = eng.run()
    except (AnalysisError, DeadlockError, LivelockError):
        return None
    payload = [np.asarray(o).tobytes() for o in (out, *(extra or ()))]
    left = ()
    if memory is not None:
        left = ([(b.bytes_read, b.bytes_written, b.denied_cycles,
                  b.busy_cycles, b.ecc_events) for b in memory.bank_stats],
                [(name, b.elements_read, b.elements_written)
                 for name, b in memory.buffers.items()],
                memory.total_elements_moved, memory._cycle,
                list(memory._busy_mark), list(memory._budget),
                memory._pool_budget)
        for name in list(memory.buffers):
            memory.release(name)
    return (report.to_dict(), payload, left, _stats(eng), eng.bulk_stats())


def check_hit(design):
    """Cold, hit, hit, then an event-tier run, against cold, plan, plan,
    event on a cache that never compiles, each line on its own memory."""
    build, spec = design
    memory = spec.get("memory")
    lines = []
    for compiled in (False, True):
        mem, cache = memory and memory(), PlanCache()
        with ExitStack() as stack:
            if not compiled:
                stack.enter_context(_never_compiled())
            line = [_run(build, spec, cache, mem)]
            if line[0] is None:
                return                  # refused or hangs: nothing recorded
            (entry,) = _certificate(cache).scripts.values()
            assert (entry[0] is not None) == compiled
            if compiled:
                stack.enter_context(_forbidden())
            line.append(_run(build, spec, cache, mem))
            line.append(_run(build, spec, cache, mem))
        line.append(_run(build, spec, None, mem, mode="event"))
        lines.append(line)
    assert lines[1] == lines[0], f"a compiled hit diverged for {spec}"


@settings(max_examples=100, deadline=None)
@given(designs)
def test_hit_equals_engine(design):
    check_hit(design)


def _session(build, spec, cache):
    """What a full session exports around one certified run of
    ``build`` on a memory of its own (``None``: refused or hung)."""
    memory = spec.get("memory")
    with telemetry.session() as tel:
        eng = Engine(mode="certified", memory=memory and memory(),
                     schedule_cache=cache)
        build(eng, spec, [])
        try:
            eng.run()
        except (AnalysisError, DeadlockError, LivelockError):
            return None
    return _exports(tel)


def check_watched(design):
    """A watched planning run records the observation, then a watched
    hit exports what it exported.  The certificate is warm for both, so
    their ledgers see the same cache hits."""
    build, spec = design
    memory = spec.get("memory")
    cache = PlanCache()
    if _run(build, spec, cache, memory and memory()) is None:
        return                          # refused or hangs: nothing recorded
    scripts = _certificate(cache).scripts
    ((hit, _seen),) = scripts.values()
    if hit is None:
        return                          # marked: every run plans
    scripts.clear()
    planned = _session(build, spec, cache)
    with _forbidden():
        warm = _session(build, spec, cache)
    assert warm == planned, f"a watched hit diverged for {spec}"


@settings(max_examples=60, deadline=None)
@given(designs)
def test_watched_hit_exports_what_a_watched_plan_does(design):
    check_watched(design)


# ---------------------------------------------------------------------------
# Every host design, four calls on one context
# ---------------------------------------------------------------------------

def _rounds(case, dtype, cache):
    """Four calls of a host golden row on one certified context (in-place
    calls see their own results): what each returns and leaves."""
    makers, call, *overrides = CASES[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    fb = _Recording(**{"width": WIDTH, "tile": TILE, **(overrides[0] if
                       overrides else {})}, engine_mode="certified",
                    schedule_cache=cache)
    bufs = [fb.copy_to_device(make(rng, DTYPES[dtype])) for make in makers]
    rounds = []
    for _ in range(4):
        try:
            out = _digest(call(fb, *bufs))
        except AnalysisError as exc:
            return [sorted({d.code for d in exc.diagnostics})]
        rounds.append((out, [_digest(b.data) for b in bufs],
                       [[b.elements_read, b.elements_written] for b in bufs],
                       [[r.cycles, r.io_elements] for r in fb.records],
                       fb.report and fb.report.to_dict(),
                       fb.engine and fb.engine.bulk_stats(),
                       [(b.bytes_read, b.bytes_written, b.busy_cycles)
                        for b in fb.context.mem.bank_stats]))
    return rounds


@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_host_designs_take_the_hit_and_match_the_replay(case, dtype):
    """From the second call on, a host design that certifies takes its
    hit; every call's result, buffers, counters, record, report and bank
    traffic equal a planning run's (SWAP / ROT / ROTM store twice, in
    place)."""
    with _never_compiled():
        planned = _rounds(case, dtype, PlanCache())
    cache = PlanCache()
    assert _rounds(case, dtype, cache) == planned
    for key in list(cache):               # certificates, and refusals
        for hit, _seen in getattr(cache[key], "scripts", {}).values():
            assert hit is not None


# ---------------------------------------------------------------------------
# The signature is sound
# ---------------------------------------------------------------------------

def _stream(size, repeat, width, depth):
    """A source of ``size`` elements replayed ``repeat`` times into a
    sink: the designs whose ``plan_key`` collides the most."""
    def build(eng, cache):
        ch = eng.channel("c", depth)
        out = []
        eng.add_kernel("src", source_kernel(
            ch, np.arange(size, dtype=np.float32), width, repeat=repeat))
        eng.add_kernel("sink", sink_kernel(ch, size * repeat, width, out))
        return out
    return build


def _signed(build):
    """A design's certificate key, timing signatures and report, on a
    cache of its own."""
    eng = Engine(mode="certified", schedule_cache=PlanCache())
    build(eng, None)
    report = eng.run()
    key = tuple(k.pattern.timing for k in eng.kernels.values())
    return (eng.schedule.plan_key, key), report.to_dict()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((7, 8, 12, 16, 24, 48)),
                          st.sampled_from((1, 2, 3, 4, 6)),
                          st.sampled_from((2, 4)), st.sampled_from((4, 8))),
                min_size=2, max_size=6))
def test_designs_sharing_a_signature_share_their_reports(specs):
    """Designs with one certificate and one set of timing signatures
    share one record and take one hit, so their reports must agree: a
    counterexample is a signature that misses what decides the timing."""
    seen = {}
    for spec in specs:
        key, report = _signed(_stream(*spec))
        assert seen.setdefault(key, report) == report, spec


def test_signature_collisions_are_exercised():
    """The property above is not vacuous: distinct designs share a key
    (every source size a multiple of the width), and one ``plan_key``
    holds designs whose signatures differ (a ragged pass)."""
    keys = {}
    for size, repeat in ((8, 6), (12, 4), (48, 1), (7, 4), (28, 1)):
        key, _report = _signed(_stream(size, repeat, 4, 8))
        keys.setdefault(key[0], []).append(key[1])
    assert any(len(set(v)) < len(v) for v in keys.values())
    assert any(len(set(v)) > 1 for v in keys.values())


def test_gemv_designs_sharing_a_plan_key_take_their_own_hit():
    """The tiled GEMV / GEMV^T designs that share a ``plan_key`` (their
    tiles differ, so do their schedules) each compile and take their own
    hit."""
    cache = PlanCache()
    runs = COLLISIONS["gemv"]
    cold = [run(cache) for run in runs]
    warm = [run(cache) for run in runs]
    with _forbidden():
        hit = [run(cache) for run in runs]
    assert cold == warm == hit
    assert len({(c[0]["cycles"], tuple(c[2].values())) for c in cold}) > 1


def test_a_kernel_that_runs_no_body_keeps_the_design_replaying():
    """A zero-length DOT's reduction pushes its result without running a
    body: nothing to compile, so the design is marked and plans."""
    from repro.blas import level1

    cache, runs = PlanCache(), []
    for _ in range(4):
        eng = Engine(mode="certified", schedule_cache=cache)
        a, b, c = eng.channel("a", 8), eng.channel("b", 8), eng.channel("c")
        out = []
        eng.add_kernel("sa", source_kernel(a, np.ones(0, np.float32), 4))
        eng.add_kernel("sb", source_kernel(b, np.ones(0, np.float32), 4))
        eng.add_kernel("dot", level1.dot_kernel(0, a, b, c, 4))
        eng.add_kernel("sink", sink_kernel(c, 1, 1, out))
        runs.append((eng.run().to_dict(), out))
    assert runs == runs[:1] * 4
    (entry,) = _certificate(cache).scripts.values()
    assert entry == (None, None)


# ---------------------------------------------------------------------------
# A mismatch raises
# ---------------------------------------------------------------------------

def _small(cache):
    eng = Engine(mode="certified", schedule_cache=cache)
    ch = eng.channel("c", 8)
    out = []
    eng.add_kernel("src", source_kernel(ch, np.ones(64, np.float32), 4))
    eng.add_kernel("sink", sink_kernel(ch, 64, 4, out))
    return eng.run(), out


@pytest.mark.parametrize("edit", [
    lambda s: s[:-1],                           # the sink's last stretch
    lambda s: (*s[:-1], tuple((i, m + 4) for i, m in s[-1])),
], ids=("short", "beyond"))
def test_a_hit_the_live_kernels_cannot_run_is_an_error(edit):
    cache = PlanCache()
    _small(cache)
    scripts = _certificate(cache).scripts
    (key,) = scripts
    (stretches, final), seen = scripts[key]
    scripts[key] = ((edit(stretches), final), seen)
    with pytest.raises(SimulationError, match="recorded progress"):
        _small(cache)


if __name__ == "__main__":
    # The properties at a larger budget than tier-1's.
    settings(max_examples=600, deadline=None)(given(designs)(check_hit))()
    settings(max_examples=200, deadline=None)(
        given(designs)(check_watched))()
