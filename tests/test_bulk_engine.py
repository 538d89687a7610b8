"""Unit tests for the window scheduler behind ``mode="bulk"`` (PR 4).

Covers the pieces the three-way differential suite exercises only
end-to-end: block channel transfers (``push_block`` / ``pop_block`` /
``end_window``), the :class:`~repro.fpga.pattern.StaticPattern`
contract, fast-path engagement counters, DRAM-kernel parity, the
routine-registry pattern derivation, parallel DSE sweeps, and the
telemetry CLI's ``--engine-mode`` flag.
"""

import json

import numpy as np
import pytest

from repro.blas import level1
from repro.blas.routines import info as routine_info
from repro.fpga.channel import Channel, ChannelError
from repro.fpga.engine import Engine
from repro.fpga.memory import Placement, read_kernel, write_kernel
from repro.fpga.pattern import DramTraffic, PatternedGenerator, StaticPattern
from repro.host import FblasContext
from repro.models import dse
from repro.fpga.util import sink_kernel, source_kernel
from repro.telemetry.cli import main as telemetry_main


# ---------------------------------------------------------------------------
# Block channel transfers
# ---------------------------------------------------------------------------

class TestBlockTransfers:
    def test_push_block_pop_block_roundtrip(self):
        ch = Channel("c", depth=8)
        ch.push_block(np.arange(12, dtype=np.float32), lanes=4, first_ready=10)
        out = ch.pop_block(12)
        assert out.dtype == np.float32
        assert list(out) == list(range(12))
        assert ch.stats.pushes == 12 and ch.stats.pops == 12

    def test_pop_block_drains_in_arrival_order(self):
        """FIFO first, then staged, then block runs — stream order."""
        ch = Channel("c", depth=8)
        ch.push([1.0, 2.0], ready_cycle=0)
        ch.mature(0)                          # 1, 2 visible
        ch.push([3.0], ready_cycle=99)        # staged
        ch.push_block([4.0, 5.0], lanes=1, first_ready=100)
        out = ch.pop_block(5)
        assert list(out) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_pop_block_overdraw_raises(self):
        ch = Channel("c", depth=8)
        ch.push_block([1.0, 2.0], lanes=2, first_ready=5)
        with pytest.raises(ChannelError, match="exceeds the window's supply"):
            ch.pop_block(3)

    def test_pop_block_casts_to_dtype(self):
        ch = Channel("c", depth=8)
        ch.push_block(np.arange(4, dtype=np.float64), lanes=2, first_ready=0)
        out = ch.pop_block(4, dtype=np.float32)
        assert out.dtype == np.float32

    def test_end_window_matures_due_values(self):
        """Values due by the window's last cycle enter the FIFO, capped at
        depth; the remainder stays staged with the same ready ramp
        per-cycle pushes would have produced."""
        ch = Channel("c", depth=3)
        ch.push_block(np.arange(8, dtype=np.float32), lanes=2, first_ready=10)
        ch.end_window(11)        # groups ready at 10, 11, 12, 13
        assert ch.occupancy == 3                   # capped at depth
        assert ch.in_flight == 5
        assert ch.pop(3) == [0.0, 1.0, 2.0]
        # Drained every cycle, the channel shows the exact per-group
        # ready cycles: 3 (the rest of group 11), then 4, 5 at 12 and
        # 6, 7 at 13 — (matured, occupancy, in_flight, popped) per cycle.
        ramp = []
        for cycle in range(10, 15):
            moved = ch.mature(cycle)
            occ, flying = ch.occupancy, ch.in_flight
            ramp.append((moved, occ, flying, ch.pop(occ) if occ else []))
        assert ramp == [(0, 0, 5, []), (1, 1, 4, [3.0]),
                        (2, 2, 2, [4.0, 5.0]), (2, 2, 0, [6.0, 7.0]),
                        (0, 0, 0, [])]

    def test_end_window_leaves_stepped_maturation_exact(self):
        """Later maturation proceeds exactly as in cycle-stepped mode,
        depth cap included."""
        ch = Channel("c", depth=3)
        ch.push_block(np.arange(8, dtype=np.float32), lanes=2, first_ready=10)
        ch.end_window(11)
        ch.pop(3)
        assert ch.mature(12) == 3                  # 3, 4, 5: FIFO full
        assert (ch.occupancy, ch.in_flight) == (3, 2)
        assert ch.pop(3) == [3.0, 4.0, 5.0]

    def test_end_window_preserves_fifo_before_runs(self):
        ch = Channel("c", depth=8)
        ch.push([7.0], ready_cycle=0)
        ch.mature(0)
        ch.push_block([8.0, 9.0], lanes=2, first_ready=1)
        ch.end_window(1)
        assert list(ch._fifo) == [7.0, 8.0, 9.0]
        assert ch.drained is False


# ---------------------------------------------------------------------------
# StaticPattern / PatternedGenerator
# ---------------------------------------------------------------------------

class TestStaticPattern:
    def test_declare_never_ready(self):
        ch = Channel("x", 4)
        p = StaticPattern.declare(reads=((ch, 2),), writes=((ch, 2, None),))
        assert p.ready() == 0
        assert "declared" in p.describe()

    def test_executable_pattern_reports_ready(self):
        ch = Channel("x", 4)
        state = {"left": 5}
        p = StaticPattern(reads=((ch, 1),), ready=lambda: state["left"],
                          block=lambda k, ins: [])
        assert p.ready() == 5
        assert "static" in p.describe()

    def test_dram_traffic_validates_kind(self):
        with pytest.raises(ValueError, match="read.*write"):
            DramTraffic(None, None, 4, "readwrite")

    def test_level1_kernels_carry_patterns(self):
        """Every steady level-1 module generator advertises an executable
        pattern with the right port shape."""
        cx, cy, cz = (Channel(n, 16) for n in "xyz")
        k = level1.axpy_kernel(32, 2.0, cx, cy, cz, width=4)
        assert isinstance(k, PatternedGenerator)
        p = k.pattern
        assert [(c.name, w) for c, w in p.reads] == [("x", 4), ("y", 4)]
        assert [(c.name, w) for c, w, _l in p.writes] == [("z", 4)]
        assert p.ii == 1
        assert p.ready() == 8               # 32 elements / width 4

    def test_reduce_kernel_pattern_has_no_steady_write(self):
        cx, cr = Channel("x", 16), Channel("r", 4)
        k = level1.asum_kernel(32, cx, cr, width=4)
        assert isinstance(k, PatternedGenerator)
        assert k.pattern.writes == ()       # epilogue push is event-stepped

    def test_patterned_generator_protocol(self):
        def gen():
            got = yield 1
            yield got

        g = PatternedGenerator(gen(), StaticPattern.declare())
        assert iter(g) is g
        assert next(g) == 1
        assert g.send("v") == "v"
        g.close()

    def test_yield_from_delegates_through_wrapper(self):
        def inner():
            yield 1
            yield 2

        def outer():
            yield from PatternedGenerator(inner(), StaticPattern.declare())
            yield 3

        assert list(outer()) == [1, 2, 3]


# ---------------------------------------------------------------------------
# Bulk engine fast path
# ---------------------------------------------------------------------------

def _pipeline(eng, n=1024, w=4):
    data = [np.float32(i % 19) for i in range(n)]
    cx = eng.channel("cx", 4 * w)
    cm = eng.channel("cm", 4 * w)
    out = []
    eng.add_kernel("src", source_kernel(cx, data, w))
    eng.add_kernel("scal", level1.scal_kernel(n, 1.5, cx, cm, w), latency=6)
    eng.add_kernel("sink", sink_kernel(cm, n, w, out))
    return out


class TestBulkEngine:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Engine(mode="turbo")

    def test_fast_path_engages_and_matches_event(self):
        reports, outs = {}, {}
        for mode in ("event", "bulk"):
            eng = Engine(mode=mode)
            outs[mode] = _pipeline(eng)
            reports[mode] = eng.run().to_dict()
            if mode == "bulk":
                assert eng._bulk_windows > 0
                assert eng._bulk_cycles > 0
        assert reports["event"] == reports["bulk"]
        assert outs["event"] == outs["bulk"]

    def test_traced_run_replays_windows_and_matches_event(self):
        """A traced bulk run takes each window as one ``on_window``
        record: its report, timelines and occupancy sums are the event
        run's."""
        seen = {}
        for mode in ("event", "bulk"):
            eng = Engine(mode=mode, trace=True)
            _pipeline(eng)
            report = eng.run()
            seen[mode] = (report.to_dict(), report.timelines,
                          report.occupancy_sums)
        assert eng._bulk_windows > 0 and eng._bulk_fallback is None
        assert eng._bulk_cycles > report.cycles // 2
        assert seen["bulk"] == seen["event"]

    @pytest.mark.parametrize("n,width", [(64, 4), (10, 4), (9, 3)])
    def test_replayed_source_passes(self, n, width):
        """A source's ``repeat`` passes are segments of its one loop: a
        window runs through the passes when the width divides a pass
        (wrapping the data) and stops at each pass's ragged tail
        otherwise, with the event run's report and values either way."""
        seen = {}
        for mode in ("event", "certified"):
            eng = Engine(mode=mode)
            c = eng.channel("c", 4 * width)
            data = [np.float32(i) for i in range(n)]
            eng.add_kernel("src", source_kernel(c, data, width, repeat=16))
            out = []
            eng.add_kernel("sink", sink_kernel(c, 16 * n, width, out))
            seen[mode] = eng.run().to_dict(), [float(v) for v in out]
        assert seen["certified"] == seen["event"]
        assert seen["event"][1] == list(range(n)) * 16
        if n % width == 0:
            assert eng.bulk_stats()["windows"] == 1

    def test_dram_read_compute_write_parity(self):
        """Memory kernels carry patterns too: a read -> scal -> write
        round trip fast-forwards and leaves identical DRAM contents,
        cycle counts, and bank counters — also with the source striped
        over two channels, whose bursts a window splits over them as
        the event tier's grants do."""
        for placement in (None, Placement.striped((0, 1))):
            results = {}
            for mode in ("dense", "event", "bulk"):
                ctx = FblasContext()
                src = np.arange(512, dtype=np.float32)
                dsrc = ctx.mem.bind("src", src, placement=placement)
                ddst = ctx.allocate((512,), np.float32, name="dst", bank=2)
                eng = Engine(memory=ctx.mem, mode=mode)
                w = 4
                cin = eng.channel("cin", 4 * w)
                cmid = eng.channel("cmid", 4 * w)
                eng.add_kernel("read", read_kernel(ctx.mem, dsrc, cin, w))
                eng.add_kernel("scal",
                               level1.scal_kernel(512, 2.0, cin, cmid, w),
                               latency=5)
                eng.add_kernel("write",
                               write_kernel(ctx.mem, ddst, cmid, 512, w))
                rep = eng.run()
                banks = [b.to_dict() for b in ctx.mem.bank_stats]
                results[mode] = (rep.to_dict(),
                                 ctx.copy_from_device(ddst).tolist(), banks)
                if mode == "bulk":
                    assert eng._bulk_cycles > 0
            assert results["dense"] == results["event"] == results["bulk"]
            assert results["bulk"][1] == (np.arange(512, dtype=np.float32)
                                          * np.float32(2.0)).tolist()
            assert results["bulk"][2][0]["bytes_read"] == 2048


# ---------------------------------------------------------------------------
# Routine registry pattern derivation
# ---------------------------------------------------------------------------

class TestRoutinePatterns:
    def test_static_pattern_binds_ports(self):
        inf = routine_info("gemv")
        chans = {p: Channel(p, 8) for p in inf.inputs + inf.outputs}
        p = inf.static_pattern(chans, width=8)
        assert p.ready() == 0               # declare-only
        assert [c.name for c, _w in p.reads] == list(inf.inputs)
        assert [c.name for c, _w, _l in p.writes] == list(inf.outputs)
        assert all(w == 8 for _c, w in p.reads)

    def test_static_pattern_missing_port_raises(self):
        inf = routine_info("axpy")
        with pytest.raises(KeyError, match="unbound streaming ports"):
            inf.static_pattern({"x": Channel("x", 4)})


# ---------------------------------------------------------------------------
# Parallel DSE sweeps
# ---------------------------------------------------------------------------

class TestParallelDse:
    def test_level1_pool_matches_serial(self):
        from repro.fpga.device import DEVICES
        dev = next(iter(DEVICES.values()))
        serial = dse.explore_level1("dot", 4096, dev, workers=1)
        pooled = dse.explore_level1("dot", 4096, dev, workers=2)
        assert serial == pooled
        assert serial                       # sweep is non-empty

    def test_gemv_pool_matches_serial(self):
        from repro.fpga.device import DEVICES
        dev = next(iter(DEVICES.values()))
        serial = dse.explore_gemv(1024, 1024, dev, workers=1)
        pooled = dse.explore_gemv(1024, 1024, dev, workers=2)
        assert serial == pooled

    def test_small_sweep_stays_serial_by_default(self):
        """workers=None only pools at PARALLEL_THRESHOLD points."""
        from repro.fpga.device import DEVICES
        dev = next(iter(DEVICES.values()))
        pts = dse.explore_level1("dot", 4096, dev, widths=(4, 8))
        assert len(pts) == 2
        assert dse.PARALLEL_THRESHOLD > 2


# ---------------------------------------------------------------------------
# Telemetry CLI engine-mode flag
# ---------------------------------------------------------------------------

class TestCliEngineMode:
    def test_engine_mode_bulk_runs(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = telemetry_main(["axpydot", "--n", "256", "--width", "4",
                             "--engine-mode", "bulk",
                             "--metrics", str(metrics)])
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert doc["mode"] == "bulk"
        assert doc["result"]["cycles"] > 0

    def test_engine_mode_matches_legacy_mode_flag(self, tmp_path, capsys):
        """``--engine-mode`` is the one spelling: ``event`` is the
        default run, and the retired ``--mode`` is a usage error."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert telemetry_main(["axpydot", "--n", "256", "--width", "4",
                               "--metrics", str(a)]) == 0
        assert telemetry_main(["axpydot", "--n", "256", "--width", "4",
                               "--engine-mode", "event",
                               "--metrics", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["result"] == db["result"]
        assert da["mode"] == db["mode"] == "event"
        with pytest.raises(SystemExit) as exc:
            telemetry_main(["axpydot", "--mode", "event"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err
