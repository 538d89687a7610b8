"""Tests for the FB4xx SDF rate analyzer and certified static schedules.

Golden tests pin the diagnostic codes (FB400-FB405, FB104) to known-bad
designs; the certified-engine tests check the headline contract: a
certified run replays byte-identical to the event core on the strength
of its certificate alone.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    ANALYSIS_SCHEMA,
    AnalysisError,
    Severity,
    analyze_engine,
    analyze_rates,
    certify,
    ensure_certified,
    schedule_key,
)
from repro.analysis.rate_passes import min_depth_requirements
from repro.apps import atax_streaming, axpydot_reference
from repro.blas import level1, level2
from repro.fpga.engine import Engine
from repro.fpga.memory import DramModel, Placement, read_kernel
from repro.fpga.util import sink_kernel, source_kernel
from repro.host.context import FblasContext
from repro.models.iomodel import atax_min_channel_depth
from repro.streaming import build_engine

from helpers import bound_app

SRC = Path(__file__).resolve().parent.parent / "src"


def _stats(eng):
    k = {n: (x.stats.active_cycles, x.stats.stall_cycles,
             x.stats.start_cycle, x.stats.finish_cycle)
         for n, x in eng.kernels.items()}
    c = {n: (x.stats.pushes, x.stats.pops, x.stats.max_occupancy,
             x.stats.stalled_push_cycles, x.stats.stalled_pop_cycles)
         for n, x in eng.channels.items()}
    return k, c


def _codes(result):
    return [d.code for d in result.diagnostics]


# ------------------------------------------------------------ tiny designs
def _chain_engine(n=64, src_width=4, sink_width=4, src_total=None,
                  sink_total=None):
    eng = Engine()
    ch = eng.channel("c", 32)
    data = np.arange(src_total if src_total is not None else n,
                     dtype=np.float32)
    eng.add_kernel("src", source_kernel(ch, data, src_width))
    eng.add_kernel("snk", sink_kernel(
        ch, sink_total if sink_total is not None else n, sink_width))
    return eng


def _axpydot(n=1024, width=8, mode="event"):
    """The AXPYDOT engine the executor builds (not run) and its beta."""
    rng = np.random.default_rng(11)
    g, _, _, mem = bound_app(
        "axpydot", [rng.standard_normal(n).astype(np.float32)
                    for _ in range(3)], np.float32(0.5), width=width)
    return (build_engine(g, mem, mode=mode),
            g.bindings["write_beta"].buffer.data)


def _gemv_engine(mode, out, N=32, M=48, TN=8, TM=12, W=4):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((N, M)).astype(np.float32)
    x = rng.standard_normal(M).astype(np.float32)
    y = rng.standard_normal(N).astype(np.float32)
    eng = Engine(mode=mode)
    ca = eng.channel("a", 8 * W)
    cx = eng.channel("x", 8 * W)
    cy = eng.channel("y", 8 * W)
    co = eng.channel("o", 8 * W)
    tiles = []
    for ti in range(N // TN):
        for tj in range(M // TM):
            tiles.extend(A[ti * TN:(ti + 1) * TN,
                           tj * TM:(tj + 1) * TM].reshape(-1))
    eng.add_kernel("srcA", source_kernel(
        ca, np.asarray(tiles, np.float32), W), latency=2)
    eng.add_kernel("srcx", source_kernel(cx, x, W, repeat=N // TN),
                   latency=2)
    eng.add_kernel("srcy", source_kernel(cy, y, W), latency=2)
    eng.add_kernel("gemv", level2.gemv_row_tiles(
        N, M, 1.5, 0.5, ca, cx, cy, co, TN, TM, W), latency=6)
    eng.add_kernel("sink", sink_kernel(co, N, W, out))
    return eng, A, x, y


def _atax_engine(monkeypatch, channel_depth, m=16, n=12, tile=4, width=4):
    """Build (without running) the streaming ATAX engine."""
    captured = {}

    def fake_run(self, *a, **k):
        captured["eng"] = self

        class R:
            cycles = 0
            kernel_steps = 0
        return R()

    monkeypatch.setattr(Engine, "run", fake_run)
    ctx = FblasContext()
    a = ctx.copy_to_device(
        np.arange(m * n, dtype=np.float32).reshape(m, n) / 10)
    x = ctx.copy_to_device(np.ones(n, dtype=np.float32))
    atax_streaming(ctx, a, x, tile=tile, width=width,
                   channel_depth=channel_depth)
    return captured["eng"]


# ---------------------------------------------------------------- FB4xx
class TestRatePasses:
    def test_clean_chain_certifies(self):
        result = analyze_rates(_chain_engine())
        assert result.ok
        assert "FB405" in _codes(result)

    def test_fb400_lane_mismatch(self):
        result = analyze_rates(_chain_engine(src_width=4, sink_width=2))
        errs = result.by_code("FB400")
        assert errs and not result.ok
        assert "lanes" in (errs[0].fix or "")

    def test_fb401_token_surplus(self):
        result = analyze_rates(_chain_engine(src_total=64, sink_total=32))
        errs = result.by_code("FB401")
        assert errs and "surplus" in errs[0].message

    def test_fb401_token_starvation(self):
        result = analyze_rates(_chain_engine(src_total=32, sink_total=64))
        errs = result.by_code("FB401")
        assert errs and "starves" in errs[0].message

    def test_fb402_rejects_oversubscribed_width(self):
        # width 16 x 4 B = 64 B/cycle per DRAM reader > the per-bank
        # budget: the paper's Sec. VI-C contention case, caught statically.
        eng, _ = _axpydot(width=16)
        result = analyze_rates(eng)
        errs = result.by_code("FB402")
        assert errs and not result.ok
        with pytest.raises(AnalysisError) as ei:
            ensure_certified(eng)
        assert any(d.code == "FB402" for d in ei.value.diagnostics)

    def test_fb402_clean_at_half_width(self):
        result = analyze_rates(_axpydot(width=8)[0])
        assert result.ok and "FB405" in _codes(result)

    def test_fb402_refuses_a_stripe_sharing_its_channels(self):
        """A striped buffer's window traffic is the event tier's greedy
        split over its channels, which other traffic on one of them
        would make depend on step order: that design is refused."""
        def dot(y_bank):
            mem = DramModel(num_banks=4)
            x = mem.bind("x", np.ones(64, np.float32),
                         placement=Placement.striped((0, 1)))
            y = mem.bind("y", np.ones(64, np.float32), bank=y_bank)
            eng = Engine(memory=mem)
            cx, cy, co = (eng.channel(c, 16) for c in ("cx", "cy", "co"))
            eng.add_kernel("read_x", read_kernel(mem, x, cx, 4))
            eng.add_kernel("read_y", read_kernel(mem, y, cy, 4))
            eng.add_kernel("dot", level1.dot_kernel(64, cx, cy, co, 4))
            eng.add_kernel("sink", sink_kernel(co, 1, 1))
            return analyze_rates(eng)

        assert dot(2).ok
        errs = dot(1).by_code("FB402")
        assert [d.obj for d in errs] == ["bank1"]
        assert "striped buffer 'x' shares channel 1" in errs[0].message

    def test_fb404_unpatterned_kernel(self):
        eng = Engine()
        ch = eng.channel("c", 8)

        def raw():
            yield from ()

        eng.add_kernel("src", source_kernel(ch, np.ones(8, np.float32), 1))
        eng.add_kernel("opaque", raw())
        result = analyze_rates(eng)
        errs = result.by_code("FB404")
        assert [d.obj for d in errs] == ["opaque"]

    def test_fb404_declare_only_pattern(self):
        # tile_m not divisible by width -> gemv falls back to the
        # declare-only pattern (ports documented, no block executor).
        eng = Engine()
        out = []
        N, M, TN, TM, W = 8, 12, 4, 6, 4
        ca = eng.channel("a", 8 * W)
        cx = eng.channel("x", 8 * W)
        cy = eng.channel("y", 8 * W)
        co = eng.channel("o", 8 * W)
        eng.add_kernel("gemv", level2.gemv_row_tiles(
            N, M, 1.0, 0.0, ca, cx, cy, co, TN, TM, W))
        eng.add_kernel("sink", sink_kernel(co, N, W, out))
        result = analyze_rates(eng)
        errs = result.by_code("FB404")
        assert errs and "declare-only" in errs[0].message

    def test_fb403_atax_exact_bound(self, monkeypatch):
        m, n, tile = 16, 12, 4
        eng = _atax_engine(monkeypatch, channel_depth=8, m=m, n=n,
                           tile=tile)
        want = atax_min_channel_depth(n, tile)
        reqs = min_depth_requirements(eng)
        assert any(req == want and "read_A__gemvT" in chans
                   for _pair, _nodes, chans, _cap, req in reqs)
        errs = analyze_rates(eng).by_code("FB403")
        assert errs
        assert f"minimal deadlock-free branch depth is {want}" \
            in errs[0].message
        assert f"minimal deadlock-free depth {want}" in errs[0].fix
        assert "read_A__gemvT" in errs[0].fix

    def test_fb403_silent_at_auto_depth(self, monkeypatch):
        eng = _atax_engine(monkeypatch, channel_depth="auto")
        assert not analyze_rates(eng).by_code("FB403")


class TestBankLint:
    def test_fb104_warns_on_oversubscribed_bank(self):
        ctx = FblasContext()
        buf = ctx.copy_to_device(np.ones(1024, dtype=np.float32))
        eng = Engine(memory=ctx.mem)
        ch = eng.channel("c", 64)
        eng.add_kernel("read", read_kernel(ctx.mem, buf, ch, 16),
                       writes=[(ch, 16, 1)])
        eng.add_kernel("snk", sink_kernel(ch, 1024, 16), reads=(ch,))
        result = analyze_engine(eng)
        warns = result.by_code("FB104")
        assert warns and warns[0].severity == Severity.WARNING
        assert result.ok          # a warning, not a pre-flight failure

    def test_fb104_silent_within_budget(self):
        ctx = FblasContext()
        buf = ctx.copy_to_device(np.ones(1024, dtype=np.float32))
        eng = Engine(memory=ctx.mem)
        ch = eng.channel("c", 64)
        eng.add_kernel("read", read_kernel(ctx.mem, buf, ch, 8),
                       writes=[(ch, 8, 1)])
        eng.add_kernel("snk", sink_kernel(ch, 1024, 8), reads=(ch,))
        assert not analyze_engine(eng).by_code("FB104")


# ---------------------------------------------------------------- schedule
class TestStaticSchedule:
    def test_to_dict_schema_first(self):
        _result, schedule = certify(_chain_engine())
        blob = schedule.to_dict()
        assert next(iter(blob)) == "schema"
        assert blob["schema"] == "repro.schedule/1"
        assert blob["kernels"] and blob["channels"]

    def test_segments_fill_steady_drain(self):
        _result, schedule = certify(_chain_engine())
        for ks in schedule.kernels:
            assert [s.kind for s in ks.segments] == \
                ["fill", "steady", "drain"]
            assert ks.stall_free

    def test_predicted_band_contains_actual_cycles(self):
        eng, _out = _axpydot(mode="certified")
        report = eng.run()
        lo, hi = eng.schedule.predicted_cycles
        assert lo <= report.cycles <= hi

    def test_cache_reuses_certificate(self):
        cache = {}
        s1 = ensure_certified(_chain_engine(), cache=cache)
        s2 = ensure_certified(_chain_engine(), cache=cache)
        assert s1 is s2 and len(cache) == 1

    def test_key_changes_with_channel_depth(self):
        e1, e2 = _chain_engine(), _chain_engine()
        ch = e2.channels["c"]
        ch.depth = 64
        assert schedule_key(e1) != schedule_key(e2)

    def test_failed_certification_raises_before_cycle_zero(self):
        eng = _chain_engine(src_width=4, sink_width=2)
        eng.mode = "certified"
        with pytest.raises(AnalysisError):
            eng.run()


# ---------------------------------------------------------------- engine
class TestCertifiedEngine:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Engine(mode="warp")

    def test_axpydot_certified_parity_and_zero_probes(self):
        runs = {}
        for mode in ("event", "bulk", "certified"):
            eng, out = _axpydot(mode=mode)
            report = eng.run()
            runs[mode] = (report.cycles, [float(v) for v in out],
                          _stats(eng))
            if mode != "event":
                # Nothing is probed: there is not even a counter.
                assert sorted(eng.bulk_stats()) == [
                    "bulk_cycles", "stepped_cycles", "windows"]
                assert eng._bulk_windows >= 1
        assert runs["event"] == runs["bulk"] == runs["certified"]

    def test_gemv_four_spellings_agree(self):
        # The row-tiled GEMV re-forms its steady state every tile; the
        # per-channel flow check engages per tile, and "bulk" holds the
        # same certificate so it replays the same windows.
        runs = {}
        counters = {}
        for mode in ("dense", "event", "bulk", "certified"):
            out = []
            eng, A, x, y = _gemv_engine(mode, out)
            report = eng.run()
            runs[mode] = (report.cycles, [float(v) for v in out],
                          _stats(eng))
            counters[mode] = eng.bulk_stats()
        assert runs["dense"] == runs["event"] == runs["bulk"] \
            == runs["certified"]
        ref = 1.5 * (A @ x) + 0.5 * y
        np.testing.assert_allclose(
            np.array(runs["dense"][1], np.float32), ref, rtol=1e-4)
        assert counters["dense"] is counters["event"] is None
        assert counters["bulk"] == counters["certified"]
        assert counters["certified"]["windows"] >= 1
        assert counters["certified"]["bulk_cycles"] > 0

    def test_dot_certified_matches_reference(self):
        n, width = 256, 8
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n).astype(np.float32)
        y = rng.standard_normal(n).astype(np.float32)
        results = {}
        for mode in ("event", "certified"):
            eng = Engine(mode=mode)
            cx = eng.channel("x", 4 * width)
            cy = eng.channel("y", 4 * width)
            cr = eng.channel("r", 4)
            out = []
            eng.add_kernel("srcx", source_kernel(cx, x, width), latency=2)
            eng.add_kernel("srcy", source_kernel(cy, y, width), latency=2)
            eng.add_kernel("dot", level1.dot_kernel(
                n, cx, cy, cr, width, np.float32), latency=6)
            eng.add_kernel("sink", sink_kernel(cr, 1, 1, out))
            report = eng.run()
            results[mode] = (report.cycles, float(out[0]), _stats(eng))
            if mode == "certified":
                assert eng._bulk_windows >= 1
        assert results["event"] == results["certified"]

    def test_certified_value_matches_reference(self):
        rng = np.random.default_rng(11)
        n = 256
        w = rng.standard_normal(n).astype(np.float32)
        v = rng.standard_normal(n).astype(np.float32)
        u = rng.standard_normal(n).astype(np.float32)
        g, _, value, mem = bound_app("axpydot", (w, v, u), np.float32(0.5),
                                     width=8)
        build_engine(g, mem, mode="certified").run()
        ref = axpydot_reference(w, v, u, np.float32(0.5))
        np.testing.assert_allclose(value(), ref, rtol=1e-4)

    def test_host_api_certified_dot(self):
        from repro.host.api import Fblas
        fb = Fblas(engine_mode="certified", width=8)
        x = fb.copy_to_device(np.arange(64, dtype=np.float32))
        y = fb.copy_to_device(np.ones(64, dtype=np.float32))
        assert fb.dot(x, y) == pytest.approx(float(np.arange(64).sum()))
        assert len(fb._schedule_cache) == 1
        fb.dot(x, y)                  # structural hit, no new entry
        assert len(fb._schedule_cache) == 1


# ---------------------------------------------------------------- CLI
def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)})


class TestCli:
    def test_app_axpydot_certifies(self):
        proc = _cli("--app", "axpydot")
        assert proc.returncode == 0
        assert "FB405" in proc.stdout

    def test_app_atax_fails(self):
        proc = _cli("--app", "atax")
        assert proc.returncode == 1
        assert "FB002" in proc.stdout

    def test_app_json_schema_header(self):
        proc = _cli("--app", "axpydot", "--json")
        blob = json.loads(proc.stdout)
        assert blob["schema"] == ANALYSIS_SCHEMA
        assert blob["ok"] is True

    def test_app_sarif_structure(self):
        proc = _cli("--app", "axpydot", "--sarif")
        blob = json.loads(proc.stdout)
        assert blob["version"] == "2.1.0"
        run = blob["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert all(r.startswith("FB") for r in rules)
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"error", "warning", "note"}

    def test_json_sarif_mutually_exclusive(self):
        proc = _cli("--app", "axpydot", "--json", "--sarif")
        assert proc.returncode == 2
