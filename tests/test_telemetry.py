"""Tests for :mod:`repro.telemetry`: metrics, spans, traces, drift.

The invariants asserted here are the observability contracts ISSUE-3
introduces: metrics must agree *exactly* with the engine's own
``SimReport`` accounting, the exported Chrome trace must be loadable
(phases, monotonic timestamps, pid/tid mapping), activation must be
strictly scoped (an engine run outside a session produces a
bit-identical report), and the drift report must flag an intentionally
mis-modeled kernel while leaving the honest compositions unflagged.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.apps import AppResult, axpydot_streaming, gemver_streaming
from repro.fpga import Clock, Engine, Pop, Push, sink_kernel, source_kernel
from repro.fpga.engine import SIM_REPORT_SCHEMA
from repro.fpga.memory import DramModel, read_kernel
from repro.fpga.observers import JSONL_EVENTS_SCHEMA, JsonlEventDump
from repro.host.api import Fblas
from repro.host.context import FblasContext
from repro.apps.catalogue import APP_RESULT_SCHEMA
from repro.telemetry import (
    CHROME_TRACE_SCHEMA,
    METRICS_SCHEMA,
    MetricsRegistry,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.cli import main as telemetry_main
from repro.telemetry.drift import DriftEntry, DriftReport, entries_for

MODES = ("dense", "event")


def passthrough(n, ch_in, ch_out, width=1, sleep=1):
    done = 0
    while done < n:
        c = min(width, n - done)
        vals = yield Pop(ch_in, c)
        if c == 1:
            vals = (vals,)
        yield Push(ch_out, tuple(vals), None)
        yield Clock(sleep)
        done += c


def _small_pipeline(eng, n=64, width=4, sink_width=4):
    ci = eng.channel("i", 16)
    co = eng.channel("o", 16)
    out = []
    eng.add_kernel("src", source_kernel(ci, list(range(n)), width))
    eng.add_kernel("mid", passthrough(n, ci, co, width), latency=6)
    eng.add_kernel("sink", sink_kernel(co, n, sink_width, out))
    return out


def _axpydot_session(n=512, width=8, mode="event"):
    rng = np.random.default_rng(3)
    ctx = FblasContext()
    w = ctx.copy_to_device(rng.standard_normal(n).astype(np.float32))
    v = ctx.copy_to_device(rng.standard_normal(n).astype(np.float32))
    u = ctx.copy_to_device(rng.standard_normal(n).astype(np.float32))
    with telemetry.session() as tel:
        res = axpydot_streaming(ctx, w, v, u, 0.7, width=width, mode=mode)
    return tel, res


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", "operations")
        c.inc(3, kernel="a")
        c.inc(4, kernel="b")
        c.inc(1, kernel="a")
        assert c.get(kernel="a") == 4
        assert c.total() == 8
        with pytest.raises(ValueError):
            c.inc(-1, kernel="a")

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("util", "utilization")
        g.set(0.5, kernel="a")
        g.set(0.75, kernel="a")
        assert g.get(kernel="a") == 0.75

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("occ", "occupancy", buckets=(0, 2, 4))
        for v in (0, 1, 3, 9):
            h.observe(v, channel="c")
        assert h.count(channel="c") == 4
        assert h.mean(channel="c") == pytest.approx(13 / 4)
        exported = h.to_dict()["series"][0]
        assert exported["labels"] == {"channel": "c"}
        buckets = exported["value"]["buckets"]
        assert buckets["+inf"] == 1        # the 9
        assert sum(buckets.values()) == 4

    def test_histogram_bulk_observe(self):
        reg = MetricsRegistry()
        h = reg.histogram("occ", "occupancy")
        h.observe(5, count=1000)            # an on_quiet window
        assert h.count() == 1000
        assert h.mean() == 5

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", "a counter")
        with pytest.raises(TypeError):
            reg.gauge("x", "now a gauge")

    def test_to_dict_schema(self):
        reg = MetricsRegistry()
        reg.counter("x", "c").inc(2, run=0)
        d = reg.to_dict()
        json.dumps(d)
        assert d["schema"] == METRICS_SCHEMA
        assert d["metrics"][0]["name"] == "x"
        assert d["metrics"][0]["type"] == "counter"
        assert d["metrics"][0]["series"] == [
            {"labels": {"run": 0}, "value": 2}]


# ---------------------------------------------------------------------------
# Zero-cost contract: no session => engine runs untouched
# ---------------------------------------------------------------------------

class TestActivationScoping:
    @pytest.mark.parametrize("mode", MODES)
    def test_report_identical_without_session(self, mode):
        eng1 = Engine(mode=mode)
        _small_pipeline(eng1)
        baseline = eng1.run()

        with telemetry.session():
            eng2 = Engine(mode=mode)
            _small_pipeline(eng2)
            observed = eng2.run()

        assert observed.cycles == baseline.cycles
        assert observed.kernel_steps == baseline.kernel_steps
        assert observed.total_stall_cycles == baseline.total_stall_cycles

    def test_span_is_noop_outside_session(self):
        assert telemetry.active() is None
        with telemetry.span("anything"):
            pass                           # shared nullcontext, no recording
        with telemetry.session() as tel:
            with telemetry.span("inner"):
                pass
            assert [s.name for s in tel.spans.spans] == ["inner"]
        assert telemetry.active() is None

    def test_session_restores_previous(self):
        with telemetry.session() as outer:
            with telemetry.session() as inner:
                assert telemetry.active() is inner
            assert telemetry.active() is outer

    def test_observers_detach_after_run(self):
        with telemetry.session():
            eng = Engine(mode="event")
            _small_pipeline(eng)
            eng.run()
            assert eng._observers == []


# ---------------------------------------------------------------------------
# Metrics agree exactly with the engine's own accounting
# ---------------------------------------------------------------------------

class TestMetricsAgreeWithSimReport:
    @pytest.mark.parametrize("mode", MODES)
    def test_cycles_and_stalls_match(self, mode):
        tel, _res = _axpydot_session(mode=mode)
        assert len(tel.runs) == 1
        run = tel.runs[0]
        assert run["schema"] == SIM_REPORT_SCHEMA
        reg = tel.registry

        assert reg.get("sim.cycles").total() == run["cycles"]
        assert (reg.get("kernel.stall_cycles").total()
                == run["total_stall_cycles"])
        active = reg.get("kernel.active_cycles")
        stalled = reg.get("kernel.stall_cycles")
        for name, ks in run["kernels"].items():
            assert active.get(run=0, kernel=name) == ks["active_cycles"]
            assert stalled.get(run=0, kernel=name) == ks["stall_cycles"]

    def test_channel_counters_match(self):
        tel, _res = _axpydot_session()
        run = tel.runs[0]
        pushes = tel.registry.get("channel.pushes")
        for name, cs in run["channels"].items():
            assert pushes.get(run=0, channel=name) == cs["pushes"]

    def test_modes_agree_on_metric_totals(self):
        totals = {}
        for mode in MODES:
            tel, _ = _axpydot_session(mode=mode)
            totals[mode] = {
                "cycles": tel.registry.get("sim.cycles").total(),
                "stall": tel.registry.get("kernel.stall_cycles").total(),
                "active": tel.registry.get("kernel.active_cycles").total(),
            }
        assert totals["dense"] == totals["event"]

    def test_declared_vs_achieved_ii(self):
        """A producer backpressured to a 1-in-4 cadence must show an
        achieved initiation interval well above its declared ii=1."""
        def slow_sink(n, ch):
            for _ in range(n):
                yield Pop(ch, 1)
                yield Clock(3)

        with telemetry.session() as tel:
            eng = Engine(mode="event")
            ch = eng.channel("c", 2)
            data = [float(i) for i in range(60)]
            eng.add_kernel("src", source_kernel(ch, data, 1), ii=1)
            eng.add_kernel("slow", slow_sink(60, ch), ii=4)
            eng.run()
        ii = tel.registry.get("kernel.ii")
        assert ii.get(run=0, kernel="slow", kind="declared") == 4.0
        assert ii.get(run=0, kernel="src", kind="declared") == 1.0
        achieved = ii.get(run=0, kernel="src", kind="achieved")
        assert achieved >= 2.0              # stalled on the full FIFO

    def test_stall_cause_vocabulary(self):
        tel, _res = _axpydot_session()
        cause = tel.registry.get("kernel.stall_cause_cycles")
        causes = {dict(key)["cause"] for key in cause.labelsets()}
        assert causes <= {"upstream-starved", "downstream-backpressured"}
        # write_beta pops a scalar that arrives last: must be starved.
        assert cause.get(run=0, kernel="write_beta", channel="dot__write_beta",
                         cause="upstream-starved") > 0

    def test_declared_ii_validation(self):
        eng = Engine()
        ch = eng.channel("c", 4)
        with pytest.raises(ValueError):
            eng.add_kernel("bad", source_kernel(ch, [1.0], 1), ii=0)


# ---------------------------------------------------------------------------
# Spans and the session clock
# ---------------------------------------------------------------------------

class TestSpans:
    def test_host_roots_engine_nested(self):
        tel, _res = _axpydot_session()
        names = [s.name for s in tel.spans.spans]
        assert names[0] == "app.axpydot"
        assert "engine.run[0]" in names
        app = tel.spans.spans[0]
        eng_span = next(s for s in tel.spans.spans if s.cat == "engine")
        # app -> streaming.composition -> streaming.component[0] -> engine
        assert names[1:3] == ["streaming.composition",
                              "streaming.component[0]"]
        assert app.depth == 0 and eng_span.depth == 3
        assert app.start <= eng_span.start <= eng_span.end <= app.end

    def test_multi_run_clock_is_coherent(self):
        """GEMVER runs two engines; their spans must not overlap and the
        second must start where the first ended (session clock)."""
        rng = np.random.default_rng(5)
        ctx = FblasContext()
        n = 16
        f32 = np.float32
        bufs = [ctx.copy_to_device(rng.standard_normal((n, n)).astype(f32))]
        bufs += [ctx.copy_to_device(rng.standard_normal(n).astype(f32))
                 for _ in range(6)]
        with telemetry.session() as tel:
            gemver_streaming(ctx, *bufs, 1.5, -0.5, tile=4, width=4)
        runs = sorted((s for s in tel.spans.spans if s.cat == "engine"),
                      key=lambda s: s.start)
        assert [s.name for s in runs] == ["engine.run[0]", "engine.run[1]"]
        assert runs[0].end == runs[1].start
        assert tel.clock == tel.total_cycles()
        assert [d["run"] for d in tel.runs] == [0, 1]

    def test_host_api_span_renamed_to_routine(self):
        fb = Fblas(width=8)
        x = fb.copy_to_device(np.ones(64, dtype=np.float32))
        y = fb.copy_to_device(np.ones(64, dtype=np.float32))
        with telemetry.session() as tel:
            fb.dot(x, y)
        host = [s for s in tel.spans.spans if s.cat == "host"]
        assert any(s.name == "host.dot" for s in host)
        sp = next(s for s in host if s.name == "host.dot")
        assert sp.args["cycles"] > 0

    def test_slices_cover_run(self):
        tel, _res = _axpydot_session()
        cycles = tel.runs[0]["cycles"]
        by_kernel = {}
        for sl in tel.slices:
            by_kernel.setdefault(sl.kernel, []).append(sl)
        assert "axpy" in by_kernel
        for name, sls in by_kernel.items():
            sls.sort(key=lambda s: s.start)
            # contiguous tiling of the whole run, one state at a time
            assert sls[0].start == 0, name
            assert sls[-1].end == cycles, name
            for a, b in zip(sls, sls[1:]):
                assert a.end == b.start, name
                assert a.state != b.state, name   # coalesced
        # Work slices follow the classic trace=True timeline semantics:
        # the generator's completing step is drawn as "#" but not counted
        # in active_cycles, hence the +1.
        axpy_work = sum(s.end - s.start for s in by_kernel["axpy"]
                        if s.state == "#")
        active = tel.runs[0]["kernels"]["axpy"]["active_cycles"]
        assert active <= axpy_work <= active + 1


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def _trace(self):
        tel, _res = _axpydot_session()
        return tel, to_chrome_trace(tel)

    def test_phases_and_schema(self):
        _tel, doc = self._trace()
        assert doc["otherData"]["schema"] == CHROME_TRACE_SCHEMA
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"B", "E", "X", "M"} <= phases

    def test_timestamps_monotonic(self):
        _tel, doc = self._trace()
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_pid_tid_mapping(self):
        _tel, doc = self._trace()
        ev = doc["traceEvents"]
        # host spans on pid 1; engine run 0 on pid 2; kernels on tids >= 1
        assert any(e["ph"] == "X" and e["pid"] == 1 for e in ev)
        b = next(e for e in ev if e["ph"] == "B")
        assert b["pid"] == 2 and b["tid"] == 0
        kernel_tids = {e["tid"] for e in ev
                       if e["ph"] == "X" and e.get("cat") == "kernel"}
        assert kernel_tids and min(kernel_tids) >= 1
        named = {e["args"]["name"] for e in ev
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"axpy", "dot", "write_beta"} <= named

    def test_b_e_balanced_per_pid(self):
        _tel, doc = self._trace()
        opens = sum(1 for e in doc["traceEvents"] if e["ph"] == "B")
        closes = sum(1 for e in doc["traceEvents"] if e["ph"] == "E")
        assert opens == closes == 1

    def test_write_round_trips(self, tmp_path):
        tel, _res = _axpydot_session()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tel, path)
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["otherData"]["total_cycles"] == tel.clock


# ---------------------------------------------------------------------------
# DRAM bank stats surfacing (satellite a)
# ---------------------------------------------------------------------------

class TestBankStats:
    @pytest.mark.parametrize("mode", MODES)
    def test_report_carries_per_run_deltas(self, mode):
        mem = DramModel(num_banks=2, interleaving=False)
        buf = mem.bind("x", np.arange(64, dtype=np.float32), bank=1)

        def one_pass():
            eng = Engine(memory=mem, mode=mode)
            ch = eng.channel("c", 8)
            eng.add_kernel("rd", read_kernel(mem, buf, ch, 4))
            eng.add_kernel("sink", sink_kernel(ch, 64, 4))
            return eng.run()

        rep1 = one_pass()
        rep2 = one_pass()
        assert len(rep1.bank_stats) == 2
        # deltas, not cumulative totals: both passes moved the same bytes
        assert rep1.bank_stats[1].bytes_read == 64 * 4
        assert rep2.bank_stats[1].bytes_read == 64 * 4
        assert rep1.bank_stats[0].bytes_read == 0
        assert 0 < rep1.bank_stats[1].busy_cycles <= rep1.cycles

    def test_busy_cycles_mode_independent(self):
        def slow_sink(n, ch, width):
            rem = n
            while rem:
                c = min(width, rem)
                yield Pop(ch, c)
                yield Clock(3)
                rem -= c

        stats = {}
        for mode in MODES:
            mem = DramModel(num_banks=1, interleaving=False)
            buf = mem.bind("x", np.arange(64, dtype=np.float32))
            eng = Engine(memory=mem, mode=mode)
            ch = eng.channel("c", 8)
            eng.add_kernel("rd", read_kernel(mem, buf, ch, 4))
            eng.add_kernel("sink", slow_sink(64, ch, 4))
            stats[mode] = eng.run().bank_stats[0].busy_cycles
        assert stats["dense"] == stats["event"] > 0

    def test_no_memory_no_bank_stats(self):
        eng = Engine()
        _small_pipeline(eng)
        assert eng.run().bank_stats == []


# ---------------------------------------------------------------------------
# Serialization round trips (satellite c)
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_simreport_to_dict(self):
        eng = Engine(mode="event")
        _small_pipeline(eng)
        rep = eng.run()
        d = rep.to_dict()
        json.dumps(d)                       # JSON-able
        assert d["schema"] == SIM_REPORT_SCHEMA
        assert d["cycles"] == rep.cycles
        assert d["kernel_steps"] == rep.kernel_steps
        assert d["kernels"]["mid"]["active_cycles"] > 0
        assert d["channels"]["i"]["pushes"] == 64

    def test_appresult_round_trip(self):
        res = AppResult(np.float32(1.5), cycles=10, io_elements=7,
                        seconds=0.5, kernel_steps=30)
        d = res.to_dict()
        json.dumps(d)
        assert d["schema"] == APP_RESULT_SCHEMA
        back = AppResult.from_dict(json.loads(json.dumps(d)))
        assert back.cycles == 10 and back.kernel_steps == 30
        assert back.value == pytest.approx(1.5)

    def test_appresult_value_optional(self):
        res = AppResult(np.arange(4), 1, 2, 3.0)
        assert "value" not in res.to_dict(include_value=False)
        assert res.to_dict()["value"] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# JsonlEventDump determinism (satellite b)
# ---------------------------------------------------------------------------

class TestJsonlEventDumpLifecycle:
    def test_schema_in_header_and_context_manager(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlEventDump(path) as dump:
            eng = Engine(mode="event")
            eng.add_observer(dump)
            _small_pipeline(eng)
            eng.run()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["ev"] == "start"
        assert lines[0]["schema"] == JSONL_EVENTS_SCHEMA
        assert lines[-1]["ev"] == "end"

    def test_flushed_after_each_run_close_idempotent(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        dump = JsonlEventDump(path)
        eng = Engine(mode="event")
        eng.add_observer(dump)
        _small_pipeline(eng)
        eng.run()
        # flushed at run end: readable before close
        assert path.read_text().splitlines()
        dump.close()
        dump.close()                        # idempotent

    def test_two_runs_one_stream(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlEventDump(path) as dump:
            for _ in range(2):
                eng = Engine(mode="event")
                eng.add_observer(dump)
                _small_pipeline(eng)
                eng.run()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert sum(1 for l in lines if l["ev"] == "start") == 2
        assert sum(1 for l in lines if l["ev"] == "end") == 2


# ---------------------------------------------------------------------------
# Drift report (satellite d)
# ---------------------------------------------------------------------------

class TestDrift:
    def test_flags_intentionally_mismodeled_kernel(self):
        """Run the untransformed-style kernel (achieved ii >> 1) but model
        it with the ii=1 closed form: drift must flag the cycles entry."""
        def strided(n, ch, stride):
            for i in range(n):
                yield Push(ch, (float(i),), 1)
                yield Clock(stride - 1)

        eng = Engine(mode="event")
        ch = eng.channel("c", 8)
        n = 128
        eng.add_kernel("slow", strided(n, ch, 8))
        eng.add_kernel("sink", sink_kernel(ch, n, 1))
        rep = eng.run()
        modeled = n                        # the (wrong) ii=1 assumption
        entries = entries_for("mismodeled", rep.cycles, n, modeled, n)
        report = DriftReport(entries)
        flagged = report.flagged()
        assert [e.quantity for e in flagged] == ["cycles"]
        assert "FLAGGED" in report.table()

    def test_axpydot_probe_unflagged(self):
        from repro.telemetry.drift import probe
        entries = probe("axpydot", n=1024, tile=8, width=16)
        assert all(not e.flagged() for e in entries), entries

    def test_rel_error_edge_cases(self):
        assert DriftEntry("a", "cycles", 0, 0).rel_error == 0.0
        assert DriftEntry("a", "cycles", 0, 5).rel_error == float("inf")
        assert DriftEntry("a", "cycles", 100, 80).rel_error == \
            pytest.approx(0.2)

    def test_report_to_dict(self):
        rep = DriftReport([DriftEntry("a", "cycles", 100, 10)])
        d = rep.to_dict()
        assert d["schema"] == "repro.drift/1"
        assert len(d["flagged"]) == 1
        json.dumps(d)


# ---------------------------------------------------------------------------
# CLI (the tentpole's user surface)
# ---------------------------------------------------------------------------

class TestCli:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = telemetry_main(["axpydot", "--n", "256", "--width", "8",
                             "--trace", str(trace),
                             "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "axpydot:" in out

        tdoc = json.loads(trace.read_text())
        assert tdoc["otherData"]["schema"] == CHROME_TRACE_SCHEMA
        assert any(e["ph"] == "B" for e in tdoc["traceEvents"])

        mdoc = json.loads(metrics.read_text())
        assert mdoc["schema"] == "repro.telemetry/1"
        assert mdoc["result"]["schema"] == APP_RESULT_SCHEMA
        assert mdoc["metrics"]["schema"] == METRICS_SCHEMA
        # the metrics/runs/result accounting agrees with itself
        run = mdoc["runs"][0]
        sim = next(m for m in mdoc["metrics"]["metrics"]
                   if m["name"] == "sim.cycles")
        assert sum(s["value"] for s in sim["series"]) == run["cycles"]
        assert mdoc["result"]["cycles"] == run["cycles"]

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            telemetry_main(["nope"])
