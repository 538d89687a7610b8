"""Differential tests: ``mode="dense"`` vs ``mode="event"`` vs ``mode="bulk"``.

The wake-list scheduler and the bulk steady-state tier must be
*indistinguishable* from the dense reference loop in everything but
wall-clock time: cycle counts, kernel stats (active/stall/start/finish),
channel stats (pushes, pops, max occupancy, stall counters), delivered
data, trace timelines/occupancy, and deadlocks (same cycle, same blocked
set, same descriptions).  These tests build the same composition once per
mode, run all three, and compare everything.

Two families of random designs:

* the original *dynamic* chains/fan-outs (unpatterned generators) — for
  these ``"bulk"`` finds no certificate and must behave exactly like
  the event scheduler;
* *patterned* chains built from the real module generators
  (``repro.fpga.util`` sources/sinks, ``repro.blas.level1``), where
  windows are replayed when the design certifies and every counter must
  still match — including specs that deadlock (Sec. V parity) and mixed
  static/dynamic designs that are refused and stepped.

A third property covers ``mode="certified"``: any composition the FB4xx
rate analysis certifies must replay byte-identical to the event core,
and any composition it refuses must be refused *before* a single cycle
is simulated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import level1
from repro.fpga import Clock, DeadlockError, Engine, Pop, Push
from repro.fpga.util import duplicate_kernel, scalar_sink, sink_kernel, \
    source_kernel

_MODES = ("dense", "event", "bulk")


# ---------------------------------------------------------------------------
# Composition specs: pure data, so the same spec builds identical designs
# on two engines.
# ---------------------------------------------------------------------------

def _producer(ch, n, width, lat):
    i = 0
    while i < n:
        batch = tuple(float(j) for j in range(i, min(i + width, n)))
        yield Push(ch, batch, lat)
        i += len(batch)
        yield Clock()


def _mapper(cin, cout, n, width, lat, sleep):
    done = 0
    while done < n:
        take = min(width, n - done)
        vals = yield Pop(cin, take)
        if take == 1:
            vals = (vals,)
        yield Push(cout, tuple(v + 1.0 for v in vals), lat)
        done += take
        yield Clock(sleep)


def _deferrer(cin, cout, n, window, lat):
    """Consumes ``window`` elements before emitting them (reorder buffer)."""
    done = 0
    while done < n:
        buf = []
        take = min(window, n - done)
        for _ in range(take):
            v = yield Pop(cin)
            buf.append(v)
            done += 1
            yield Clock()
        for v in buf:
            yield Push(cout, (v,), lat)
            yield Clock()


def _duplicator(cin, c1, c2, n):
    for _ in range(n):
        v = yield Pop(cin)
        yield Push(c1, (v,), 1)
        yield Push(c2, (v,), 1)
        yield Clock()


def _zipper(c1, c2, cout, n, lat):
    for _ in range(n):
        a = yield Pop(c1)
        b = yield Pop(c2)
        yield Push(cout, (a + b,), lat)
        yield Clock()


def _collector(cin, n, out):
    for _ in range(n):
        v = yield Pop(cin)
        out.append(v)
        yield Clock()


stage_spec = st.one_of(
    st.tuples(st.just("map"), st.integers(1, 8),     # width
              st.integers(1, 20), st.integers(1, 4)),  # latency, sleep
    st.tuples(st.just("defer"), st.integers(1, 24),  # window
              st.integers(1, 20)),                     # latency
)

chain_spec = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "src_width": st.integers(1, 6),
    "src_lat": st.integers(1, 30),
    "depth": st.integers(1, 12),
    "stages": st.lists(stage_spec, min_size=0, max_size=3),
})

fanout_spec = st.fixed_dictionaries({
    "n": st.integers(1, 30),
    "src_lat": st.integers(1, 12),
    "depth_a": st.integers(1, 10),
    "depth_b": st.integers(1, 10),
    "defer_b": st.integers(0, 24),
    "lat": st.integers(1, 16),
})


def _build_chain(eng, spec, out):
    n = spec["n"]
    depth = max(spec["depth"], spec["src_width"],
                *[s[1] for s in spec["stages"] if s[0] == "map"] or [1])
    chans = [eng.channel(f"c{i}", depth)
             for i in range(len(spec["stages"]) + 1)]
    eng.add_kernel("src", _producer(chans[0], n, spec["src_width"],
                                    spec["src_lat"]))
    for i, s in enumerate(spec["stages"]):
        if s[0] == "map":
            eng.add_kernel(f"map{i}", _mapper(chans[i], chans[i + 1], n,
                                              s[1], s[2], s[3]))
        else:
            eng.add_kernel(f"defer{i}", _deferrer(chans[i], chans[i + 1], n,
                                                  s[1], s[2]))
    eng.add_kernel("sink", _collector(chans[-1], n, out))


def _build_fanout(eng, spec, out):
    """Duplicate -> (plain branch | deferring branch) -> zip rejoin.

    When ``defer_b`` exceeds what branch A can buffer, this is exactly
    the reconvergent deadlock of Sec. V — it must be detected at the
    same cycle with the same blocked set in both modes.
    """
    n = spec["n"]
    cin = eng.channel("cin", 8)
    ca = eng.channel("ca", spec["depth_a"])
    cb = eng.channel("cb", spec["depth_b"])
    cmid = eng.channel("cmid", spec["depth_b"])
    cout = eng.channel("cout", 8)
    eng.add_kernel("src", _producer(cin, n, 1, spec["src_lat"]))
    eng.add_kernel("dup", _duplicator(cin, ca, cb, n))
    if spec["defer_b"]:
        eng.add_kernel("defer", _deferrer(cb, cmid, n, spec["defer_b"],
                                          spec["lat"]))
    else:
        eng.add_kernel("fwd", _mapper(cb, cmid, n, 1, spec["lat"], 1))
    eng.add_kernel("zip", _zipper(ca, cmid, cout, n, spec["lat"]))
    eng.add_kernel("sink", _collector(cout, n, out))


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------

def _outcome(mode, build, spec, trace):
    eng = Engine(mode=mode, trace=trace)
    out = []
    build(eng, spec, out)
    try:
        report = eng.run(max_cycles=200_000)
    except DeadlockError as exc:
        return ("deadlock", exc.cycle, dict(exc.blocked), _stats(eng), None)
    return ("done", report.cycles, out, _stats(eng),
            (report.occupancy_sums, report.timelines) if trace else None)


def _stats(eng):
    kstats = {
        name: (k.stats.active_cycles, k.stats.stall_cycles,
               k.stats.start_cycle, k.stats.finish_cycle)
        for name, k in eng.kernels.items()
    }
    cstats = {
        name: (c.stats.pushes, c.stats.pops, c.stats.max_occupancy,
               c.stats.stalled_push_cycles, c.stats.stalled_pop_cycles)
        for name, c in eng.channels.items()
    }
    return kstats, cstats


def _assert_identical(build, spec, trace=False):
    dense = _outcome("dense", build, spec, trace)
    for mode in ("event", "bulk"):
        other = _outcome(mode, build, spec, trace)
        assert dense[0] == other[0], (
            f"outcome diverged: dense={dense[0]} {mode}={other[0]} "
            f"for {spec}")
        assert dense[1] == other[1], (
            f"cycle count diverged: dense={dense[1]} {mode}={other[1]} "
            f"for {spec}")
        assert dense[2] == other[2], f"payload diverged ({mode}) for {spec}"
        assert dense[3] == other[3], f"stats diverged ({mode}) for {spec}"
        assert dense[4] == other[4], f"trace diverged ({mode}) for {spec}"


class TestDifferentialRandom:
    @settings(max_examples=120, deadline=None)
    @given(chain_spec)
    def test_chains_identical(self, spec):
        """Random pipelines: identical reports or identical deadlocks."""
        _assert_identical(_build_chain, spec)

    @settings(max_examples=120, deadline=None)
    @given(fanout_spec)
    def test_reconvergent_identical(self, spec):
        """Random fan-out/re-join designs, including Sec. V deadlocks."""
        _assert_identical(_build_fanout, spec)

    @settings(max_examples=25, deadline=None)
    @given(chain_spec)
    def test_chains_identical_traced(self, spec):
        """Timelines and occupancy sums are byte-identical too."""
        _assert_identical(_build_chain, spec, trace=True)

    @settings(max_examples=25, deadline=None)
    @given(fanout_spec)
    def test_reconvergent_identical_traced(self, spec):
        _assert_identical(_build_fanout, spec, trace=True)


# ---------------------------------------------------------------------------
# Patterned designs: real module generators, where the bulk fast path
# actually engages (the dynamic designs above never trigger it).
# ---------------------------------------------------------------------------

patterned_chain_spec = st.fixed_dictionaries({
    "n": st.integers(1, 120),
    "width": st.integers(1, 8),
    "depth": st.integers(1, 24),
    "lat": st.integers(1, 30),
    "stages": st.lists(
        st.sampled_from(("scal", "copy")), min_size=0, max_size=3),
    "reduce": st.sampled_from((None, "asum", "nrm2", "iamax")),
    "dynamic_stage": st.booleans(),
})

patterned_fanout_spec = st.fixed_dictionaries({
    "n": st.integers(1, 60),
    "width": st.integers(1, 4),
    "depth_a": st.integers(1, 12),
    "depth_b": st.integers(1, 12),
    "lat": st.integers(1, 16),
})


def _build_patterned_chain(eng, spec, out):
    """source x2 -> axpy -> map stages [-> dynamic mapper] [-> reduction]."""
    n, w = spec["n"], spec["width"]
    depth = max(spec["depth"], w)       # engine rejects depth < consumer width
    data_x = [np.float32((i % 23) - 11) for i in range(n)]
    data_y = [np.float32((i % 7) - 3) for i in range(n)]
    cx = eng.channel("cx", depth)
    cy = eng.channel("cy", depth)
    eng.add_kernel("src_x", source_kernel(cx, data_x, w))
    eng.add_kernel("src_y", source_kernel(cy, data_y, w))
    cur = eng.channel("c0", depth)
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, cur, w),
                   latency=spec["lat"])
    for i, stg in enumerate(spec["stages"]):
        nxt = eng.channel(f"c{i + 1}", depth)
        if stg == "scal":
            eng.add_kernel(f"scal{i}",
                           level1.scal_kernel(n, 2.0, cur, nxt, w),
                           latency=3)
        else:
            eng.add_kernel(f"copy{i}",
                           level1.copy_kernel(n, cur, nxt, w),
                           latency=2)
        cur = nxt
    if spec["dynamic_stage"]:
        # An unpatterned kernel in the middle of the pipeline: the bulk
        # tier must fall back around it mid-run.
        nxt = eng.channel("cdyn", depth)
        eng.add_kernel("dyn", _mapper(cur, nxt, n, max(1, w - 1), 2, 1))
        cur = nxt
    if spec["reduce"]:
        cres = eng.channel("cres", 4)
        maker = {"asum": level1.asum_kernel, "nrm2": level1.nrm2_kernel,
                 "iamax": level1.iamax_kernel}[spec["reduce"]]
        eng.add_kernel("red", maker(n, cur, cres, w), latency=5)
        eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    else:
        eng.add_kernel("sink", sink_kernel(cur, n, w, out))


def _build_patterned_fanout(eng, spec, out):
    """source -> duplicate -> (direct | scal) -> dot rejoin.

    Shallow branch depths against the scal latency reproduce the Sec. V
    reconvergent deadlock with patterned kernels; deeper ones run to
    completion — both must agree across all three cores.
    """
    n, w = spec["n"], spec["width"]
    data = [np.float32((i % 13) - 6) for i in range(n)]
    cin = eng.channel("cin", 8)
    ca = eng.channel("ca", max(spec["depth_a"], w))
    cb = eng.channel("cb", max(spec["depth_b"], w))
    cmid = eng.channel("cmid", 8)
    cres = eng.channel("cres", 4)
    eng.add_kernel("src", source_kernel(cin, data, w))
    eng.add_kernel("dup", duplicate_kernel(cin, (ca, cb), n, w))
    eng.add_kernel("scal", level1.scal_kernel(n, 3.0, cb, cmid, w),
                   latency=spec["lat"])
    eng.add_kernel("dot", level1.dot_kernel(n, ca, cmid, cres, w),
                   latency=spec["lat"])
    eng.add_kernel("sink", scalar_sink(cres, out))


class TestDifferentialPatterned:
    @settings(max_examples=100, deadline=None)
    @given(patterned_chain_spec)
    def test_patterned_chains_identical(self, spec):
        """Patterned pipelines: all three cores agree on everything."""
        _assert_identical(_build_patterned_chain, spec)

    @settings(max_examples=100, deadline=None)
    @given(patterned_fanout_spec)
    def test_patterned_fanout_identical(self, spec):
        """Patterned fan-out/re-join, including Sec. V deadlock parity."""
        _assert_identical(_build_patterned_fanout, spec)

    @settings(max_examples=20, deadline=None)
    @given(patterned_chain_spec)
    def test_patterned_chains_identical_traced(self, spec):
        """Trace observers take each window as one record; timelines
        stay byte-identical."""
        _assert_identical(_build_patterned_chain, spec, trace=True)

    def test_fast_path_engages_on_steady_chain(self):
        """Sanity: a long patterned chain certifies, so ``"bulk"``
        really does fast-forward most of the run (it is not silently
        stepping)."""
        spec = {"n": 2048, "width": 4, "depth": 16, "lat": 8,
                "stages": ["scal", "copy"], "reduce": "asum",
                "dynamic_stage": False}
        eng = Engine(mode="bulk")
        out = []
        _build_patterned_chain(eng, spec, out)
        report = eng.run()
        assert eng._bulk_windows >= 1
        assert eng._bulk_cycles >= report.cycles // 2
        assert eng._bulk_fallback is None

    def test_patterned_deadlock_parity(self):
        """An axpy missing its second operand stream deadlocks at the
        same cycle with the same blocked set in all three cores."""
        outcomes = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            n, w = 40, 4
            cx = eng.channel("cx", 8)
            cy = eng.channel("cy", 8)
            cz = eng.channel("cz", 8)
            data = [np.float32(i) for i in range(n)]
            eng.add_kernel("src_x", source_kernel(cx, data, w))
            eng.add_kernel("axpy",
                           level1.axpy_kernel(n, 1.5, cx, cy, cz, w),
                           latency=4)
            eng.add_kernel("sink", sink_kernel(cz, n, w, []))
            with pytest.raises(DeadlockError) as exc:
                eng.run()
            outcomes[mode] = (exc.value.cycle, dict(exc.value.blocked),
                              _stats(eng))
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_mixed_static_dynamic_fallback(self):
        """A sleeping unpatterned monitor kernel refuses the certificate
        (FB404): ``"bulk"`` steps the whole run on the event core, with
        identical results and counters, and says why."""
        def monitor(ticks):
            for _ in range(ticks):
                yield Clock(37)

        results = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            n, w = 4000, 4
            data_x = [np.float32(i % 17) for i in range(n)]
            data_y = [np.float32(i % 5) for i in range(n)]
            cx = eng.channel("cx", 4 * w)
            cy = eng.channel("cy", 4 * w)
            cz = eng.channel("cz", 4 * w)
            cres = eng.channel("cres", 4)
            out = []
            eng.add_kernel("src_x", source_kernel(cx, data_x, w))
            eng.add_kernel("src_y", source_kernel(cy, data_y, w))
            eng.add_kernel("axpy",
                           level1.axpy_kernel(n, 0.25, cx, cy, cz, w),
                           latency=12)
            eng.add_kernel("asum", level1.asum_kernel(n, cz, cres, w),
                           latency=9)
            eng.add_kernel("sink", scalar_sink(cres, out))
            eng.add_kernel("monitor", monitor(60))
            report = eng.run()
            results[mode] = (report.to_dict(), out, _stats(eng))
            if mode == "bulk":
                assert eng._bulk_windows == 0
                # The first kernel without an executable pattern is
                # named: scalar_sink is registered before the monitor.
                assert eng._bulk_fallback == "FB404:sink"
        assert results["dense"] == results["event"] == results["bulk"]


class TestDifferentialDirected:
    def test_guaranteed_deadlock_parity(self):
        """A reconvergent window no branch can buffer deadlocks in both
        modes at the same cycle with the same blocked descriptions."""
        spec = {"n": 20, "src_lat": 1, "depth_a": 2, "depth_b": 2,
                "defer_b": 18, "lat": 1}
        outcomes = {m: _outcome(m, _build_fanout, spec, False)
                    for m in _MODES}
        assert all(o[0] == "deadlock" for o in outcomes.values())
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_orphan_pop_deadlock_parity(self):
        """A consumer with no producer blocks forever, in both modes."""
        outcomes = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            ch = eng.channel("lonely", 4)
            eng.add_kernel("sink", _collector(ch, 3, []))
            with pytest.raises(DeadlockError) as exc:
                eng.run()
            outcomes[mode] = (exc.value.cycle, dict(exc.value.blocked),
                              _stats(eng))
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_sleeping_kernels_wake_before_deadlock(self):
        """A long Clock(n) sleep defers the deadlock verdict identically."""
        def sleeper(ch):
            yield Clock(500)
            yield Pop(ch)      # never satisfied -> deadlock after waking

        outcomes = {}
        for mode in _MODES:
            eng = Engine(mode=mode)
            ch = eng.channel("c", 4)
            eng.add_kernel("sleepy", sleeper(ch))
            with pytest.raises(DeadlockError) as exc:
                eng.run()
            outcomes[mode] = (exc.value.cycle, dict(exc.value.blocked),
                              _stats(eng))
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_max_cycles_raised_in_both_modes(self):
        from repro.fpga import SimulationError

        for mode in _MODES:
            eng = Engine(mode=mode)
            ch = eng.channel("c", 4)
            eng.add_kernel("sink", _collector(ch, 3, []))
            eng.add_kernel("drip", _producer(ch, 1, 1, 40))
            with pytest.raises((SimulationError, DeadlockError)):
                eng.run(max_cycles=10)
            assert eng.now <= 10

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Engine(mode="quantum")


# ---------------------------------------------------------------------------
# Certified mode: certification implies byte-identical probe-free replay.
# ---------------------------------------------------------------------------

def _build_certified_fanout(eng, spec, out):
    """The patterned fan-out with a *patterned* scalar sink, so the whole
    design is certifiable (``scalar_sink`` is deliberately dynamic)."""
    n, w = spec["n"], spec["width"]
    data = [np.float32((i % 13) - 6) for i in range(n)]
    cin = eng.channel("cin", 8)
    ca = eng.channel("ca", max(spec["depth_a"], w))
    cb = eng.channel("cb", max(spec["depth_b"], w))
    cmid = eng.channel("cmid", 8)
    cres = eng.channel("cres", 4)
    eng.add_kernel("src", source_kernel(cin, data, w))
    eng.add_kernel("dup", duplicate_kernel(cin, (ca, cb), n, w))
    eng.add_kernel("scal", level1.scal_kernel(n, 3.0, cb, cmid, w),
                   latency=spec["lat"])
    eng.add_kernel("dot", level1.dot_kernel(n, ca, cmid, cres, w),
                   latency=spec["lat"])
    eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))


def _tier_outcome(mode, build, spec):
    """Everything observable about one run on one tier."""
    from repro.analysis import AnalysisError
    from repro.fpga import LivelockError

    eng = Engine(mode=mode, memory=spec.get("memory") and spec["memory"]())
    out = []
    extra = build(eng, spec, out)
    try:
        report = eng.run(max_cycles=spec.get("max_cycles", 200_000))
    except AnalysisError:
        assert all(k.stats.active_cycles == 0 for k in eng.kernels.values())
        return None, eng
    except DeadlockError as exc:
        got = ("deadlock", exc.cycle, dict(exc.blocked))
    except LivelockError as exc:
        got = ("hang", exc.trigger, exc.cycle, dict(exc.blocked))
    else:
        got = ("done", report.to_dict())
    payload = [np.asarray(o).tobytes() for o in (out, *(extra or ()))]
    return (got, payload, _stats(eng)), eng


def _assert_certified_matches_event(build, spec):
    """``"certified"`` replays what ``"event"`` steps or refuses before
    cycle 0; ``"bulk"`` is the first when there is a certificate and the
    second when there is not."""
    certified, eng = _tier_outcome("certified", build, spec)
    event, _ = _tier_outcome("event", build, spec)
    bulk, bulk_eng = _tier_outcome("bulk", build, spec)
    assert bulk == event, f"bulk diverged from event for {spec}"
    if certified is None:               # refused before cycle 0
        assert bulk_eng.bulk_stats()["windows"] == 0
        assert bulk_eng._bulk_fallback.startswith("FB40")
        return None
    assert certified == event, f"certified diverged from event for {spec}"
    assert bulk_eng.bulk_stats() == eng.bulk_stats()
    assert bulk_eng._bulk_fallback is None
    return eng


class TestDifferentialCertified:
    """When certification succeeds, the certified core must be
    indistinguishable from the event core (data, cycles, all stats)
    while never probing; when it fails, the design is rejected before
    cycle 0."""

    @settings(max_examples=100, deadline=None)
    @given(patterned_chain_spec)
    def test_certified_chains_match_event(self, spec):
        _assert_certified_matches_event(_build_patterned_chain, spec)

    @settings(max_examples=60, deadline=None)
    @given(patterned_fanout_spec)
    def test_certified_fanout_matches_event(self, spec):
        _assert_certified_matches_event(_build_certified_fanout, spec)


# ---------------------------------------------------------------------------
# Ramp windows: the certified tier also replays pipeline fill, drain and
# the block load/store phases of tiled modules as windows.  These designs
# aim at exactly those states — long latencies (a fill ramp dozens of
# cycles deep), channels at and just above their minimal depth (the
# staging headroom clamp), multi-tile level-2 modules (a prologue and an
# epilogue per tile), a cycle budget that expires inside a window, and an
# in-place DRAM map (the read kernel hands out views of the buffer the
# write kernel stores into).
# ---------------------------------------------------------------------------

ramp_chain_spec = st.fixed_dictionaries({
    "n": st.integers(1, 400),
    "width": st.integers(1, 4),
    "slack": st.sampled_from((0, 1, 2, 13)),     # depth above the minimum
    "lat": st.integers(1, 64),
    "lat2": st.integers(1, 64),
    "reduce": st.booleans(),
    "max_cycles": st.one_of(st.just(200_000), st.integers(1, 260)),
})


def _build_ramp_chain(eng, spec, out):
    """source x2 -> axpy -> scal -> sink | asum: two latency ramps."""
    n, w = spec["n"], spec["width"]
    depth = w + spec["slack"]
    chans = [eng.channel(name, depth) for name in ("cx", "cy", "c0", "c1")]
    cx, cy, c0, c1 = chans
    eng.add_kernel("src_x", source_kernel(
        cx, [np.float32((i % 23) - 11) for i in range(n)], w))
    eng.add_kernel("src_y", source_kernel(
        cy, [np.float32((i % 7) - 3) for i in range(n)], w))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, c0, w),
                   latency=spec["lat"])
    eng.add_kernel("scal", level1.scal_kernel(n, 2.0, c0, c1, w),
                   latency=spec["lat2"])
    if spec["reduce"]:
        cres = eng.channel("cres", 4)
        eng.add_kernel("asum", level1.asum_kernel(n, c1, cres, w),
                       latency=spec["lat"])
        eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    else:
        eng.add_kernel("sink", sink_kernel(c1, n, w, out))


tiled_spec = st.fixed_dictionaries({
    "kind": st.sampled_from(("gemv", "gemvt", "ger")),
    "tiles_n": st.integers(1, 3),
    "tiles_m": st.integers(1, 3),
    "tile_n": st.sampled_from((2, 4, 8)),
    "tile_m": st.sampled_from((4, 8, 16)),
    "width": st.sampled_from((1, 2, 4)),
    "slack": st.sampled_from((0, 1, 5, 60)),
    "lat": st.integers(1, 64),
    "max_cycles": st.one_of(st.just(200_000), st.integers(1, 400)),
})


def _build_tiled(eng, spec, out):
    """sources -> multi-tile GEMV / GEMV^T / GER -> sink."""
    from repro.blas import level2
    from repro.streaming.tiling import row_tiles

    tn, tm, w = spec["tile_n"], spec["tile_m"], spec["width"]
    n, m = tn * spec["tiles_n"], tm * spec["tiles_m"]
    rng = np.random.default_rng(n * 31 + m)
    a = rng.integers(-4, 5, (n, m)).astype(np.float32)
    a_stream = a.reshape(-1)[list(row_tiles(n, m, tn, tm).indices())]
    depth = w + spec["slack"]
    ca, cx, cy, co = (eng.channel(name, depth)
                      for name in ("A", "x", "y", "out"))
    kind = spec["kind"]
    xlen, ylen = (m, n) if kind == "gemv" else (n, m)
    x = rng.integers(-3, 4, xlen).astype(np.float32)
    y = rng.integers(-3, 4, ylen).astype(np.float32)
    reps_x = n // tn if kind == "gemv" else 1
    reps_y = n // tn if kind == "ger" else 1
    eng.add_kernel("src_a", source_kernel(ca, a_stream, w))
    eng.add_kernel("src_x", source_kernel(cx, x, w, repeat=reps_x))
    eng.add_kernel("src_y", source_kernel(cy, y, w, repeat=reps_y))
    if kind == "ger":
        body = level2.ger_kernel(n, m, 0.5, ca, cx, cy, co, tn, tm, w)
        count = n * m
    else:
        maker = (level2.gemv_row_tiles if kind == "gemv"
                 else level2.gemv_transposed_row_tiles)
        body = maker(n, m, 0.5, 0.25, ca, cx, cy, co, tn, tm, w)
        count = ylen
    eng.add_kernel(kind, body, latency=spec["lat"])
    eng.add_kernel("sink", sink_kernel(co, count, w, out))


inplace_spec = st.fixed_dictionaries({
    "n": st.integers(1, 600),
    "width": st.sampled_from((1, 2, 4)),
    "depth": st.sampled_from((4, 5, 16, 256)),
    "lat": st.integers(1, 64),
    "max_cycles": st.one_of(st.just(200_000), st.integers(1, 300)),
})


def _build_inplace_axpy(eng, spec, out):
    """y <- alpha*x + y through DRAM, y read and written in place."""
    from repro.fpga.memory import read_kernel, write_kernel

    n, w = spec["n"], spec["width"]
    mem = eng.memory
    bx = mem.bind("x", (np.arange(n, dtype=np.float32) % 13) - 6, bank=0)
    by = mem.bind("y", (np.arange(n, dtype=np.float32) % 5) - 2, bank=1)
    cx, cy, co = (eng.channel(name, spec["depth"])
                  for name in ("in0", "in1", "out0"))
    eng.add_kernel("read0", read_kernel(mem, bx, cx, w))
    eng.add_kernel("read1", read_kernel(mem, by, cy, w))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, co, w),
                   latency=spec["lat"])
    eng.add_kernel("write0", write_kernel(mem, by, co, n, w))
    return (by.data,)


def _build_atax(eng, spec, out):
    """A fans out to GEMV and GEMV^T; the direct branch must buffer the
    row of tiles the GEMV defers (the Sec. V reconvergence, FB403)."""
    from repro.blas import level2
    from repro.streaming.tiling import row_tiles

    n, m, tn, tm, w = 8, 8, spec["tile"], spec["tile"], spec["width"]
    rng = np.random.default_rng(5)
    a = rng.integers(-4, 5, (n, m)).astype(np.float32)
    a_stream = a.reshape(-1)[list(row_tiles(n, m, tn, tm).indices())]
    x = rng.integers(-3, 4, m).astype(np.float32)
    zeros_n, zeros_m = np.zeros(n, np.float32), np.zeros(m, np.float32)
    ca, ca1, cx, cy0, cmid, cy1, co = (
        eng.channel(name, 16)
        for name in ("A", "A1", "x", "y0", "mid", "y1", "out"))
    ca2 = eng.channel("A2", m * tn + spec["slack"])
    eng.add_kernel("src_a", source_kernel(ca, a_stream, w))
    eng.add_kernel("dup", duplicate_kernel(ca, (ca1, ca2), n * m, w))
    eng.add_kernel("src_x", source_kernel(cx, x, w, repeat=n // tn))
    eng.add_kernel("src_y0", source_kernel(cy0, zeros_n, w))
    eng.add_kernel("gemv", level2.gemv_row_tiles(
        n, m, 1.0, 0.0, ca1, cx, cy0, cmid, tn, tm, w),
        latency=spec["lat"])
    eng.add_kernel("src_y1", source_kernel(cy1, zeros_m, w))
    eng.add_kernel("gemvt", level2.gemv_transposed_row_tiles(
        n, m, 1.0, 0.0, ca2, cmid, cy1, co, tn, tm, w),
        latency=spec["lat"])
    eng.add_kernel("sink", sink_kernel(co, m, w, out))


class TestDifferentialRampWindows:
    @settings(max_examples=80, deadline=None)
    @given(ramp_chain_spec)
    def test_latency_ramps_match_event(self, spec):
        _assert_certified_matches_event(_build_ramp_chain, spec)

    @settings(max_examples=80, deadline=None)
    @given(tiled_spec)
    def test_tiled_modules_match_event(self, spec):
        _assert_certified_matches_event(_build_tiled, spec)

    @settings(max_examples=60, deadline=None)
    @given(inplace_spec)
    def test_inplace_axpy_matches_event(self, spec):
        from repro.fpga.memory import DramModel
        spec = dict(spec, memory=lambda: DramModel(num_banks=2,
                                                   bytes_per_cycle=64))
        _assert_certified_matches_event(_build_inplace_axpy, spec)

    @pytest.mark.parametrize("slack", (-1, 0, 1))
    @pytest.mark.parametrize("tile,width,lat", [(4, 2, 3), (2, 1, 40)])
    def test_atax_at_the_minimal_depth(self, slack, tile, width, lat):
        """At the FB403 minimum and just above it the reconvergent design
        runs to completion in windows; one below, it is refused."""
        spec = {"tile": tile, "width": width, "lat": lat, "slack": slack}
        eng = _assert_certified_matches_event(_build_atax, spec)
        assert (eng is None) == (slack < 0)
        if eng is not None:
            assert eng.bulk_stats()["windows"] > 0

    def test_fill_and_drain_are_windows(self):
        """A 60-deep latency ramp is replayed, not stepped: its fill,
        steady state and drain are three supersteps."""
        spec = {"n": 4000, "width": 4, "slack": 60, "lat": 60, "lat2": 33,
                "reduce": False, "max_cycles": 200_000}
        eng = _assert_certified_matches_event(_build_ramp_chain, spec)
        stats = eng.bulk_stats()
        assert stats["windows"] == 3
        assert stats["stepped_cycles"] <= 4


# ---------------------------------------------------------------------------
# Plan IR routing: certifying the *compiled* plan of one build must yield
# the exact certificate a separately built identical engine replays.
# ---------------------------------------------------------------------------

class TestDifferentialPlanIR:
    """One side routed through ``compile_plan()``.

    A probe engine is compiled to the typed :class:`repro.plan.PlanIR`
    and *the IR* is certified into a :class:`repro.plan.PlanCache`.  A
    second, separately built engine then runs in certified mode against
    that cache: its ``plan_key`` must hit the IR-derived entry (the IR
    is structurally faithful to the live engine), and the replay must
    stay byte-identical to the event core — data, cycles, every kernel
    and channel counter."""

    def _check(self, build, spec):
        from repro.analysis import AnalysisError, ensure_certified
        from repro.plan import PlanCache, compile_plan

        probe = Engine(mode="certified")
        build(probe, spec, [])
        plan = compile_plan(probe)
        cache = PlanCache()
        try:
            ensure_certified(plan, cache=cache)
        except AnalysisError:
            # Refusals are covered by TestDifferentialCertified; here we
            # only require the IR to be refused iff the engine is.
            with pytest.raises(AnalysisError):
                ensure_certified(probe)
            return
        assert plan.plan_key in cache

        eng = Engine(mode="certified", schedule_cache=cache)
        out = []
        build(eng, spec, out)
        hits_before = cache.hits
        try:
            report = eng.run(max_cycles=200_000)
        except DeadlockError as exc:
            certified = ("deadlock", exc.cycle, dict(exc.blocked),
                         _stats(eng), None)
        else:
            certified = ("done", report.cycles, out, _stats(eng), None)
        # The separately built engine hashed to the same plan_key and
        # replayed the certificate derived from the compiled IR.
        assert cache.hits > hits_before, f"plan_key missed for {spec}"
        event = _outcome("event", build, spec, False)
        assert certified == event, (
            f"IR-certified run diverged from event for {spec}")

    @settings(max_examples=60, deadline=None)
    @given(patterned_chain_spec)
    def test_ir_certified_chains_match_event(self, spec):
        self._check(_build_patterned_chain, spec)

    @settings(max_examples=40, deadline=None)
    @given(patterned_fanout_spec)
    def test_ir_certified_fanout_matches_event(self, spec):
        self._check(_build_certified_fanout, spec)
