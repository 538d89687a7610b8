"""Tests for the pluggable observer protocol and the shipped observers.

``TraceObserver`` must reproduce the classic ``trace=True`` recording in
either engine mode; ``StallChainProfiler`` must find backpressure root
causes; ``JsonlEventDump`` must emit a parseable, de-duplicated event
stream.  Custom observers see the documented hook sequence: the run as
windows, each executed cycle one of its own, a jump one marked window.
"""

import io
import json

import pytest

from repro.fpga import (
    Clock,
    Engine,
    EngineObserver,
    JsonlEventDump,
    Pop,
    Push,
    StallChainProfiler,
    TraceObserver,
    sink_kernel,
    source_kernel,
)

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


class TestTraceObserver:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_trace_flag(self, mode):
        """add_observer(TraceObserver()) == trace=True, in both modes."""
        eng1 = Engine(trace=True, mode=mode)
        _small_pipeline(eng1)
        rep1 = eng1.run()

        eng2 = Engine(mode=mode)
        obs = TraceObserver()
        eng2.add_observer(obs)
        _small_pipeline(eng2)
        eng2.run()

        assert obs.timelines == rep1.timelines
        assert obs.occupancy_sums == rep1.occupancy_sums

    def test_dense_and_event_traces_agree(self):
        reps = {}
        for mode in MODES:
            eng = Engine(trace=True, mode=mode)
            _small_pipeline(eng)
            reps[mode] = eng.run()
        assert reps["dense"].timelines == reps["event"].timelines
        assert reps["dense"].occupancy_sums == reps["event"].occupancy_sums
        assert reps["dense"].cycles == reps["event"].cycles

    @pytest.mark.parametrize("mode", MODES)
    def test_timeline_alphabet_and_length(self, mode):
        eng = Engine(trace=True, mode=mode)
        _small_pipeline(eng)
        rep = eng.run()
        for name, line in rep.timelines.items():
            assert len(line) == rep.cycles, name
            assert set(line) <= set("#sz-"), name
        assert "#" in rep.timelines["mid"]


class TestStallChainProfiler:
    @pytest.mark.parametrize("mode", MODES)
    def test_chain_walks_to_bottleneck(self, mode):
        """A slow sink back-pressures the whole pipeline; the chain from
        the source must end at the sink."""
        eng = Engine(mode=mode)
        prof = StallChainProfiler()
        eng.add_observer(prof)
        ci = eng.channel("i", 4)
        co = eng.channel("o", 4)
        n = 64
        eng.add_kernel("src", source_kernel(ci, list(range(n)), 4))
        eng.add_kernel("mid", passthrough(n, ci, co, 4))
        eng.add_kernel("slow", passthrough(n, co, eng.channel("z", 4), 4,
                                           sleep=9))
        eng.add_kernel("sink", sink_kernel(eng.channels["z"], n, 4))
        eng.run()

        assert sum(prof.stalls.get("src", {}).values()) > 0
        dom = prof.dominant_stall("src")
        assert dom is not None and dom[1] == "push"
        chain = prof.chain("src")
        assert chain[0] == "src"
        assert chain[-1] in ("slow", "sink")

    def test_modes_agree_on_stall_totals(self):
        totals = {}
        for mode in MODES:
            eng = Engine(mode=mode)
            prof = StallChainProfiler()
            eng.add_observer(prof)
            _small_pipeline(eng, sink_width=1)
            eng.run()
            totals[mode] = {k: dict(v) for k, v in prof.stalls.items()}
        assert totals["dense"] == totals["event"]

    def test_report_is_readable(self):
        eng = Engine()
        prof = StallChainProfiler()
        eng.add_observer(prof)
        _small_pipeline(eng, sink_width=1)
        eng.run()
        text = prof.report()
        assert "stall chains:" in text
        assert "stalled cycles" in text

    def test_no_stalls_report(self):
        prof = StallChainProfiler()
        assert "(no stalls recorded)" in prof.report()


class TestJsonlEventDump:
    @pytest.mark.parametrize("mode", MODES)
    def test_stream_is_valid_jsonl(self, mode):
        buf = io.StringIO()
        eng = Engine(mode=mode)
        eng.add_observer(JsonlEventDump(buf))
        _small_pipeline(eng)
        rep = eng.run()

        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert lines[0]["ev"] == "start"
        assert set(lines[0]["kernels"]) == {"src", "mid", "sink"}
        assert lines[-1] == {"ev": "end", "cycles": rep.cycles}
        ops = [l for l in lines if l["ev"] == "op"]
        assert sum(o["count"] for o in ops
                   if o["kind"] == "push" and o["channel"] == "i") == 64

    def test_kernel_states_deduplicated(self):
        buf = io.StringIO()
        eng = Engine(mode="dense")
        eng.add_observer(JsonlEventDump(buf))
        _small_pipeline(eng)
        rep = eng.run()
        klines = [json.loads(l) for l in buf.getvalue().splitlines()
                  if '"kernel"' in l and json.loads(l)["ev"] == "kernel"]
        # far fewer state lines than cycles x kernels
        assert len(klines) < rep.cycles * 3

    @pytest.mark.parametrize("mode", ("event", "bulk"))
    def test_zero_channel_design_marks_its_jumps(self, mode):
        """Windows without channels still tell an executed cycle from a
        jump: only the jumps are ``quiet`` lines (``"bulk"`` refuses the
        Clock-only kernels and steps them on the event core)."""
        def napper(cycles):
            yield Clock(2)
            yield Clock(cycles)

        buf = io.StringIO()
        eng = Engine(mode=mode, observers=[JsonlEventDump(buf)])
        eng.add_kernel("a", napper(49))
        eng.add_kernel("b", napper(30))
        assert eng.run().cycles == 52
        assert buf.getvalue().splitlines() == [
            '{"ev": "start", "schema": "repro.engine-events/1", '
            '"kernels": ["a", "b"], "channels": []}',
            '{"ev": "kernel", "t": 0, "kernel": "a", "state": "#"}',
            '{"ev": "kernel", "t": 0, "kernel": "b", "state": "#"}',
            '{"ev": "quiet", "t": 1, "cycles": 1}',
            '{"ev": "quiet", "t": 3, "cycles": 29}',
            '{"ev": "kernel", "t": 32, "kernel": "a", "state": "z"}',
            '{"ev": "quiet", "t": 33, "cycles": 18}',
            '{"ev": "kernel", "t": 51, "kernel": "a", "state": "#"}',
            '{"ev": "kernel", "t": 51, "kernel": "b", "state": "-"}',
            '{"ev": "end", "cycles": 52}']

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        eng = Engine(mode="event")
        eng.add_observer(JsonlEventDump(path))
        _small_pipeline(eng)
        eng.run()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["ev"] == "start"
        assert json.loads(lines[-1])["ev"] == "end"


class TestObserverProtocol:
    @pytest.mark.parametrize("mode", MODES)
    def test_hook_sequence(self, mode):
        events = []

        class Recorder(EngineObserver):
            def on_run_start(self, engine):
                events.append("start")

            def on_window(self, start, cycles, window):
                events.append((start, cycles, window.quiet))

            def on_run_end(self, report):
                events.append("end")

        eng = Engine(mode=mode)
        eng.add_observer(Recorder())
        _small_pipeline(eng, n=8, width=1)
        rep = eng.run()

        assert events[0] == "start" and events[-1] == "end"
        # The windows cover the run's cycles in order, each exactly once;
        # every executed cycle is a window of its own.
        t = 0
        for start, cycles, quiet in events[1:-1]:
            assert start == t and (quiet or cycles == 1)
            t += cycles
        assert t == rep.cycles

    def test_quiet_windows_only_in_event_mode(self):
        def napper(ch):
            yield Clock(100)
            yield Push(ch, (1.0,), 1)

        for mode, expect_quiet in (("dense", False), ("event", True)):
            events = []

            class Recorder(EngineObserver):
                def on_window(self, start, cycles, window):
                    if window.quiet:
                        events.append((start, cycles))

            eng = Engine(mode=mode)
            ch = eng.channel("c", 2)
            eng.add_kernel("nap", napper(ch))
            eng.add_kernel("sink", sink_kernel(ch, 1, 1))
            eng.add_observer(Recorder())
            eng.run()
            assert bool(events) == expect_quiet

    @pytest.mark.parametrize("mode", MODES)
    def test_multiple_observers(self, mode):
        eng = Engine(mode=mode)
        trace = TraceObserver()
        prof = StallChainProfiler()
        eng.add_observer(trace)
        eng.add_observer(prof)
        _small_pipeline(eng)
        rep = eng.run()
        assert trace.timelines and rep.cycles > 0
