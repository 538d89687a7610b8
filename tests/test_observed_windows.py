"""Observers ride the certified windows: the contract of ``on_window``.

An observer is told about a whole certified superstep at once, as it is
told about each stepped cycle and each jump; what it records must be
indistinguishable from having watched the same cycles stepped one by
one.  Every check here runs a design twice — ``Engine(mode="event")``
and ``mode="certified"`` — with a full :func:`repro.telemetry.session`
*and* a bare ``TraceObserver`` + ``StallChainProfiler`` attached, and
compares everything either side recorded: the metrics registry, the
Perfetto slices, timelines and occupancy sums, stall charges and
endpoint tables, the ``SimReport`` and the result bytes.  The certified
side must really have taken windows, whatever observers are attached.
"""

import io
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from host_cases import CASES
from repro import telemetry
from repro.analysis import AnalysisError
from repro.apps import axpydot_streaming
from repro.blas import level1
from repro.fpga import DeadlockError, Engine, LivelockError
from repro.fpga.memory import DramModel
from repro.fpga.observers import (EngineObserver, JsonlEventDump,
                                  StallChainProfiler, TraceObserver)
from repro.fpga.util import sink_kernel, source_kernel
from repro.host import Fblas, FblasContext
from test_engine_differential import (
    _build_atax, _build_certified_fanout, _build_inplace_axpy,
    _build_patterned_chain, _build_ramp_chain, _build_tiled, inplace_spec,
    patterned_chain_spec, patterned_fanout_spec, ramp_chain_spec, tiled_spec)


# ---------------------------------------------------------------------------
# The harness: one watched run, reduced to everything an observer kept
# ---------------------------------------------------------------------------

def _watched(mode, drive):
    """Run ``drive(mode, attach)`` under a full session; ``attach(engine)``
    adds the bare observers.  Returns what was recorded and the engines."""
    bare, engines = [], []

    def attach(eng):
        pair = (TraceObserver(), StallChainProfiler())
        for o in pair:
            eng.add_observer(o)
        bare.append(pair)
        engines.append(eng)

    with telemetry.session() as tel:
        try:
            result = ("done", drive(mode, attach))
        except AnalysisError:
            assert all(k.stats.active_cycles == 0
                       for e in engines for k in e.kernels.values())
            return None, engines
        except DeadlockError as exc:
            result = ("deadlock", exc.cycle, dict(exc.blocked))
        except LivelockError as exc:
            result = ("hang", exc.trigger, exc.cycle, dict(exc.blocked))
    seen = {
        "result": result,
        "metrics": {m["name"]: m for m in tel.registry.to_dict()["metrics"]},
        "slices": list(tel.slices),
        "runs": [{k: v for k, v in d.items() if k != "run_id"}
                 for d in tel.runs],
        "clock": tel.clock,
        "bare": [(tr.timelines, tr.occupancy_sums, pf.stalls, pf.producers,
                  pf.consumers) for tr, pf in bare],
        "reports": [e._build_report().to_dict() for e in engines],
    }
    return seen, engines


def _assert_same_story(drive, expect_windows=True):
    certified, engines = _watched("certified", drive)
    if certified is None:
        return None                     # refused before cycle 0
    event, _ = _watched("event", drive)
    shared = certified["metrics"].keys() & event["metrics"].keys()
    assert "channel.occupancy" in shared
    for name in sorted(shared):
        assert certified["metrics"][name] == event["metrics"][name], name
    for key in ("result", "slices", "runs", "clock", "bare", "reports"):
        assert certified[key] == event[key], key
    windows = sum(e.bulk_stats()["windows"] for e in engines)
    if expect_windows:
        assert windows > 0
    return windows


def _engine_drive(build, spec):
    """Drive for the differential suite's ``build(eng, spec, out)``."""
    def drive(mode, attach):
        eng = Engine(mode=mode,
                     memory=spec.get("memory") and spec["memory"]())
        out = []
        extra = build(eng, spec, out)
        attach(eng)
        eng.run(max_cycles=spec.get("max_cycles", 200_000))
        return [np.asarray(o).tobytes() for o in (out, *(extra or ()))]
    return drive


class _WatchedFblas(Fblas):
    """Host API whose every engine also carries the bare observers."""

    attach = None

    def _engine(self):
        eng = super()._engine()
        self.attach(eng)
        return eng


# ---------------------------------------------------------------------------
# Every certified builder of the differential suite
# ---------------------------------------------------------------------------

class TestDifferentialBuilders:
    @settings(max_examples=40, deadline=None)
    @given(patterned_chain_spec)
    def test_patterned_chains(self, spec):
        _assert_same_story(_engine_drive(_build_patterned_chain, spec),
                           expect_windows=False)

    @settings(max_examples=25, deadline=None)
    @given(patterned_fanout_spec)
    def test_certified_fanout(self, spec):
        _assert_same_story(_engine_drive(_build_certified_fanout, spec),
                           expect_windows=False)

    @settings(max_examples=40, deadline=None)
    @given(ramp_chain_spec)
    def test_latency_ramps(self, spec):
        _assert_same_story(_engine_drive(_build_ramp_chain, spec),
                           expect_windows=False)

    @settings(max_examples=40, deadline=None)
    @given(tiled_spec)
    def test_tiled_modules(self, spec):
        _assert_same_story(_engine_drive(_build_tiled, spec),
                           expect_windows=False)

    @settings(max_examples=25, deadline=None)
    @given(inplace_spec)
    def test_inplace_axpy(self, spec):
        spec = dict(spec, memory=lambda: DramModel(num_banks=2,
                                                   bytes_per_cycle=64))
        _assert_same_story(_engine_drive(_build_inplace_axpy, spec),
                           expect_windows=False)

    @pytest.mark.parametrize("slack", (0, 1))
    @pytest.mark.parametrize("tile,width,lat", [(4, 2, 3), (2, 1, 40)])
    def test_atax_at_the_minimal_depth(self, slack, tile, width, lat):
        spec = {"tile": tile, "width": width, "lat": lat, "slack": slack}
        assert _assert_same_story(_engine_drive(_build_atax, spec)) > 0

    def test_fill_steady_and_drain_windows(self):
        """The 60-deep ramp of the differential suite: fill (+w), steady
        (0) and drain (-w) channels all report their occupancy series."""
        spec = {"n": 4000, "width": 4, "slack": 60, "lat": 60, "lat2": 33,
                "reduce": False, "max_cycles": 200_000}
        assert _assert_same_story(_engine_drive(_build_ramp_chain, spec)) == 3


# ---------------------------------------------------------------------------
# A sweep aimed at the occupancy series: depths that saturate the FIFO
# ---------------------------------------------------------------------------

flow_spec = st.fixed_dictionaries({
    "n": st.integers(1, 1500),
    "width": st.sampled_from((1, 2, 3, 4, 8)),
    # width + slack: 0 keeps the FIFO full every cycle of a window.
    "slack": st.sampled_from((0, 1, 3, 7, 64, 500)),
    "lat": st.integers(1, 80),
    "lat2": st.integers(1, 80),
    "reduce": st.booleans(),
})


def _build_flow(eng, spec, out):
    """source -> scal -> copy -> (dot against itself | sink)."""
    n, w = spec["n"], spec["width"]
    depth = w + spec["slack"]
    data = [np.float32((i % 19) - 9) for i in range(n)]
    c0, c1, c2 = (eng.channel(name, depth) for name in ("c0", "c1", "c2"))
    eng.add_kernel("src", source_kernel(c0, data, w))
    eng.add_kernel("scal", level1.scal_kernel(n, 0.5, c0, c1, w),
                   latency=spec["lat"])
    eng.add_kernel("copy", level1.copy_kernel(n, c1, c2, w),
                   latency=spec["lat2"])
    if spec["reduce"]:
        cres = eng.channel("cres", 4)
        eng.add_kernel("nrm2", level1.nrm2_kernel(n, c2, cres, w),
                       latency=spec["lat"])
        eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    else:
        eng.add_kernel("sink", sink_kernel(c2, n, w, out))


class TestOccupancySeries:
    @settings(max_examples=60, deadline=None)
    @given(flow_spec)
    def test_flow_sweep(self, spec):
        _assert_same_story(_engine_drive(_build_flow, spec),
                           expect_windows=False)

    @pytest.mark.parametrize("slack", (0, 1, 500))
    def test_saturated_fifo_is_a_window(self, slack):
        spec = {"n": 1200, "width": 4, "slack": slack, "lat": 37,
                "lat2": 5, "reduce": True}
        assert _assert_same_story(_engine_drive(_build_flow, spec)) > 0

    @pytest.mark.parametrize("build,spec", [
        (_build_flow, {"n": 1200, "width": 4, "slack": 0, "lat": 37,
                       "lat2": 5, "reduce": True}),
        (_build_flow, {"n": 1200, "width": 3, "slack": 7, "lat": 2,
                       "lat2": 61, "reduce": False}),
        (_build_ramp_chain, {"n": 4000, "width": 4, "slack": 60, "lat": 60,
                             "lat2": 33, "reduce": False}),
    ])
    def test_peak_is_the_maximum_of_the_series(self, build, spec,
                                               monkeypatch):
        """An observed window reads ``max_occupancy`` off the series, an
        unobserved one asks the walk for the peak alone: the same pieces,
        so the same number, on fill, steady and drain channels alike.
        The series itself, expanded, is the storage model evaluated cycle
        by cycle."""
        from repro.fpga import bulk
        real, checked = bulk._samples, []

        def both(depth, occ, w, eff, n_p, n_c, K, offs, series):
            if not series:
                return real(depth, occ, w, eff, n_p, n_c, K, offs, False)
            runs, peak = real(depth, occ, w, eff, n_p, n_c, K, offs, True)
            assert peak == max(occ for occ, _n in runs) == real(
                depth, occ, w, eff, n_p, n_c, K, offs, False)
            assert sum(n for _occ, n in runs) == K
            due = [] if offs is None else offs.tolist()
            model = [min(depth, occ - w * min(j, n_c)
                         + sum(1 for o in due if o <= j)
                         + w * min(max(j - eff + 1, 0), n_p))
                     for j in range(K)]
            assert [occ for occ, n in runs for _ in range(n)] == model
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
            checked.append((n_p > 0, n_c > 0))
            return runs, peak

        monkeypatch.setattr(bulk, "_samples", both)
        eng = Engine(mode="certified", observers=[TraceObserver()])
        build(eng, spec, [])
        eng.run()
        assert {(True, True)} < set(checked)

    def test_trace_cap_falls_inside_a_window(self, monkeypatch):
        """Timelines and occupancy sums stop at the same cycle whether
        the cap is reached by a stepped cycle or part-way through a
        window."""
        from repro.fpga import observers
        monkeypatch.setattr(observers, "MAX_TRACE_CYCLES", 137)
        spec = {"n": 1200, "width": 4, "slack": 3, "lat": 9, "lat2": 5,
                "reduce": False}
        assert _assert_same_story(_engine_drive(_build_flow, spec)) > 0


# ---------------------------------------------------------------------------
# Registry routines through the host API, apps
# ---------------------------------------------------------------------------

_LEVEL1 = ("rot", "rotm", "swap", "scal", "copy", "axpy", "dot", "sdsdot",
           "nrm2", "asum", "iamax")


def _host_drive(routine, n, width, **fblas):
    case = CASES[routine]

    def drive(mode, attach):
        fb = _WatchedFblas(width=width, engine_mode=mode, **fblas)
        fb.attach = attach
        rng = np.random.default_rng(n * 8 + width)
        arrays = [rng.integers(-3, 4, size=n if len(shape) == 1
                               else (n, n)).astype(np.float32)
                  for shape in case.shapes]
        bufs = [fb.copy_to_device(a) for a in arrays]
        value = case.call(fb, *bufs)
        return ([np.asarray(value).tobytes()]
                + [b.data.tobytes() for b in bufs])
    return drive


class TestRegistryRoutines:
    # In-place maps need 2 x width x 4 B/cycle on one bank: width 8 is a
    # real FB402 refusal, identically on both tiers (nothing to compare).
    @pytest.mark.parametrize("width", (1, 4, 8))
    @pytest.mark.parametrize("n", (64, 4096))
    @pytest.mark.parametrize("routine", _LEVEL1)
    def test_level1(self, routine, n, width):
        windows = _assert_same_story(_host_drive(routine, n, width))
        assert windows is None or windows > 0

    # 100 003 elements step 12-100 k watched cycles on the event side
    # (1-8 s a case), so the ragged-tail size runs on one routine of
    # each kernel shape — two-input, one-input and two-stage reductions,
    # iamax, one-/two-input maps, the two-output in-place ones — rather
    # than on the full routine x width grid (DESIGN.md, "on_window").
    @pytest.mark.parametrize("routine,width", [
        ("dot", 8), ("sdsdot", 4), ("nrm2", 1), ("iamax", 4),
        ("scal", 4), ("axpy", 4), ("swap", 4), ("rot", 4)])
    def test_level1_ragged_large(self, routine, width):
        assert _assert_same_story(_host_drive(routine, 100_003, width)) > 0

    @pytest.mark.parametrize("routine", ("gemv", "ger"))
    @pytest.mark.parametrize("side,width", [(16, 4), (128, 4)])
    def test_one_tile_phase_programs(self, routine, side, width):
        drive = _host_drive(routine, side, width, tile=side)
        assert _assert_same_story(drive) > 0

    @pytest.mark.parametrize("side,width", [(16, 4), (128, 4)])
    def test_one_tile_gemv_transposed(self, side, width):
        def drive(mode, attach):
            fb = _WatchedFblas(width=width, engine_mode=mode, tile=side)
            fb.attach = attach
            rng = np.random.default_rng(side)
            a, x, y = (fb.copy_to_device(
                rng.integers(-3, 4, size=shape).astype(np.float32))
                for shape in ((side, side), side, side))
            return fb.gemv(2.0, a, x, 0.5, y, trans=True).tobytes()
        assert _assert_same_story(drive) > 0

    @pytest.mark.parametrize("n,width", [(4096, 8), (1000, 4)])
    def test_axpydot(self, n, width, monkeypatch):
        from repro.apps import catalogue
        from repro.streaming import executor
        real = executor._build_component

        def drive(mode, attach):
            def build(*args, **kwargs):
                eng = real(*args, **kwargs)
                attach(eng)
                return eng

            monkeypatch.setattr(executor, "_build_component", build)
            # Both tiers start from cold, uncounted caches, as the app
            # did when it wired its own engine.
            monkeypatch.setattr(catalogue, "PLANS", {})
            monkeypatch.setattr(catalogue, "CERTIFICATES", {})
            ctx = FblasContext()
            rng = np.random.default_rng(n)
            w, v, u = (ctx.copy_to_device(
                rng.standard_normal(n).astype(np.float32)) for _ in range(3))
            res = axpydot_streaming(ctx, w, v, u, 0.7, width=width,
                                    mode=mode)
            return np.asarray(res.value).tobytes(), res.cycles
        assert _assert_same_story(drive) > 0


# ---------------------------------------------------------------------------
# Every observer rides the windows
# ---------------------------------------------------------------------------

class _CountsCycles(EngineObserver):
    """A third-party subclass that counts the cycles it is shown."""

    def __init__(self):
        self.cycles = 0

    def on_window(self, start, cycles, window):
        self.cycles += cycles


_STEADY = {"n": 4000, "width": 4, "slack": 8, "lat": 9, "lat2": 5,
           "reduce": True}


def _run_steady(mode, observers):
    eng = Engine(mode=mode, observers=observers)
    out = []
    _build_flow(eng, _STEADY, out)
    report = eng.run()
    return eng, report, out


class TestOptIn:
    def test_bare_observers_ride_the_windows(self):
        eng, report, _ = _run_steady(
            "certified", [TraceObserver(), StallChainProfiler()])
        stats = eng.bulk_stats()
        assert stats["windows"] > 0
        assert stats["bulk_cycles"] > 0.8 * report.cycles
        assert eng._bulk_fallback is None

    def test_trace_flag_rides_the_windows(self):
        reports = {}
        for mode in ("event", "certified"):
            eng = Engine(mode=mode, trace=True)
            _build_flow(eng, _STEADY, [])
            report = eng.run()
            reports[mode] = (report.to_dict(), report.timelines,
                             report.occupancy_sums)
        assert eng.bulk_stats()["windows"] > 0
        assert reports["event"] == reports["certified"]
        assert {"#", "-"} <= set(report.timelines["scal"])

    def test_event_dump_keeps_every_cycle(self):
        """The dump writes a window's ops for each of its cycles, so a
        certified run keeps its windows and dumps the event run's bytes."""
        dumps = {}
        for mode in ("event", "certified"):
            buf = io.StringIO()
            eng, _report, _ = _run_steady(
                mode, [TraceObserver(), JsonlEventDump(buf)])
            dumps[mode] = buf.getvalue()
        assert eng.bulk_stats()["windows"] > 0
        assert eng.bulk_stats()["bulk_cycles"] > 0
        assert eng._bulk_fallback is None
        assert dumps["certified"] == dumps["event"]
        assert dumps["event"].count("\n") > _STEADY["n"] // 4

    def test_subclass_without_the_hook_keeps_every_cycle(self):
        """A plain ``EngineObserver`` subclass rides the windows too, and
        is shown every cycle of the run."""
        counter = _CountsCycles()
        eng, report, _ = _run_steady("certified", [counter])
        assert eng.bulk_stats()["windows"] > 0
        assert counter.cycles == report.cycles
        assert eng._bulk_fallback is None

    def test_subclass_of_a_built_in_inherits_the_hook(self):
        """A subclass of one of the built-in observers inherits
        ``on_window`` with the rest: the run keeps its windows, and an
        override of the one hook sees stepped cycles (one window each)
        and supersteps alike."""
        class Counted(TraceObserver):
            cycles = windows = 0

            def on_window(self, start, cycles, window):
                super().on_window(start, cycles, window)
                self.cycles += cycles
                self.windows += not window.quiet and cycles == 1

        counted, plain = Counted(), TraceObserver()
        eng, report, _ = _run_steady("certified", [counted, plain])
        stats = eng.bulk_stats()
        assert stats["windows"] > 0 and eng._bulk_fallback is None
        assert counted.cycles == report.cycles
        assert stats["stepped_cycles"] <= counted.windows < report.cycles
        assert counted.timelines == plain.timelines

    def test_bulk_spelling_rides_the_windows_too(self):
        """``"bulk"`` holds the same certificate, so it is the same run,
        with windows under any observer."""
        watched = [_run_steady(mode, [TraceObserver()])
                   for mode in ("certified", "bulk")]
        (cert, _, _), (bulk, _, _) = watched
        assert bulk.bulk_stats() == cert.bulk_stats()
        assert bulk.bulk_stats()["windows"] > 0
        assert bulk._bulk_fallback is None
        assert (bulk._observers[0].timelines
                == cert._observers[0].timelines)
        eng, _report, _ = _run_steady("bulk", [_CountsCycles()])
        assert eng.bulk_stats() == cert.bulk_stats()
        assert eng._bulk_fallback is None


# ---------------------------------------------------------------------------
# The ledger says whether, and why not
# ---------------------------------------------------------------------------

class TestLedger:
    def _record(self, observers=()):
        with telemetry.session() as tel:
            _run_steady("certified", list(observers))
        rec, = (r for r in tel.ledger.records() if r.kind == "engine.run")
        return rec

    def test_full_session_records_windows(self):
        rec = self._record()
        assert rec.bulk["windows"] > 0
        assert rec.bulk["bulk_cycles"] > 0.8 * rec.cycles
        assert rec.fallback_reason is None
        assert rec.to_dict()["fallback_reason"] is None

    def test_fallback_reason_names_the_observer(self):
        """No observer is a reason to step: a run watched by an event
        dump keeps its windows and names no fallback."""
        from repro.telemetry.ledger import RunRecord, fleet_report
        rec = self._record([JsonlEventDump(io.StringIO())])
        assert rec.bulk["windows"] > 0
        assert rec.fallback_reason is None
        again = RunRecord.from_dict(rec.to_dict())
        assert again.fallback_reason is None
        assert "observer:" not in fleet_report([rec])

    def test_other_tiers_have_no_reason(self):
        with telemetry.session() as tel:
            _run_steady("event", [])
            _run_steady("bulk", [])
        assert [r.fallback_reason for r in tel.ledger.records()] == [None] * 2

    def test_finished_engine_is_collectable_inside_the_session(self):
        """The session keeps each run's stall profiler for ``report()``;
        it must not keep the engine (channels, generators, buffers)."""
        import gc
        with telemetry.session() as tel:
            eng, _report, _ = _run_steady("certified", [])
            ref = weakref.ref(eng)
            del eng, _report
            gc.collect()
            assert ref() is None
            assert "telemetry report" in tel.report()
            # ... nor the engine of a run that raised.
            bad = Engine(mode="event")
            bad.add_kernel("sink", sink_kernel(bad.channel("c", 4), 3, 1,
                                               []))
            with pytest.raises(DeadlockError):
                bad.run()
            ref = weakref.ref(bad)
            del bad
            gc.collect()
            assert ref() is None
            assert "stall chains" in tel.report()
