"""Sharded multi-lane GEMV/GEMM, HBM placements, and FB105.

The sharding contract is *bitwise*: striping row tiles across lanes
moves bandwidth, never arithmetic — each lane runs the unmodified
single-lane kernel on its share, so the merged stream must equal the
single-lane stream byte for byte, on every engine mode, for every lane
count, with or without a memory model underneath.

The reconvergent corner: with a shared (duplicated) x feed, a merge
schedule that drains lanes out of production order needs the lagging
lane's merge channel to buffer its whole reordering window; undersized,
the design *provably deadlocks* — and all three engine modes must
agree on the deadlock, cycle for cycle (Sec. V parity).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, analyze_engine
from repro.blas import level3, reference
from repro.blas.level2 import (
    build_sharded_gemv_engine,
    gemv_row_tiles,
    shard_gemv_streams,
    shard_row_tiles,
)
from repro.fpga.device import DEVICES, U280, PowerModel
from repro.fpga.engine import Engine
from repro.fpga.errors import DeadlockError
from repro.fpga.memory import DramModel, Placement, read_kernel
from repro.fpga.util import (
    duplicate_kernel,
    merge_kernel,
    sink_kernel,
    source_kernel,
)
from repro.models.dse import explore_gemv_sharded, fastest
from repro.models.iomodel import (
    channel_bytes_per_cycle,
    gemv_io_sharded,
    gemv_io_tiles_by_rows,
    lane_read_rate,
    sharded_read_rate,
)
from repro.models.performance import sharded_gemv_cycles, sharded_gemv_speedup
from repro.plan import compile_plan
from repro.plan.ir import PlanIR

MODES = ("dense", "event", "bulk")


def _problem(n, m, seed=11):
    rng = np.random.default_rng(seed)
    return (np.asarray(rng.normal(size=(n, m)), dtype=np.float32),
            np.asarray(rng.normal(size=m), dtype=np.float32),
            np.asarray(rng.normal(size=n), dtype=np.float32))


# ---------------------------------------------------------------- placement

class TestPlacement:
    def test_constructors_and_describe(self):
        assert Placement.single(3).describe() == "ch3"
        assert Placement.striped((0, 2)).describe() == "striped[0,2]"
        assert Placement.channel_range(0, 4).describe() == "range[0:4]"
        assert Placement.channel_range(0, 4).channels == (0, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Placement("diagonal", (0,))
        with pytest.raises(ValueError):
            Placement.striped(())
        with pytest.raises(ValueError):
            Placement.striped((1, 1))
        with pytest.raises(ValueError):
            Placement.striped((-1, 0))
        with pytest.raises(ValueError):
            Placement("single", (0, 1))

    def test_single_sets_legacy_bank(self):
        mem = DramModel(num_banks=4, bytes_per_cycle=64)
        buf = mem.bind("b", np.zeros(8, dtype=np.float32),
                       placement=Placement.single(2))
        assert buf.bank == 2

    def test_bank_contradicting_placement_rejected(self):
        mem = DramModel(num_banks=4, bytes_per_cycle=64)
        with pytest.raises(ValueError):
            mem.bind("b", np.zeros(8, dtype=np.float32), bank=1,
                     placement=Placement.single(2))

    def test_out_of_range_channel_rejected(self):
        mem = DramModel(num_banks=4, bytes_per_cycle=64)
        with pytest.raises(ValueError):
            mem.bind("b", np.zeros(8, dtype=np.float32),
                     placement=Placement.striped((0, 7)))


class TestStripedGrants:
    def test_striped_read_draws_member_budgets(self):
        mem = DramModel(num_banks=4, bytes_per_cycle=8)
        mem.begin_cycle(0)
        buf = mem.bind("A", np.arange(64, dtype=np.float32),
                       placement=Placement.striped((1, 3)))
        # Two member channels at 8 B/cycle: a 32-byte ask gets 16.
        assert mem.request_read(buf, 32) == 16
        stats = mem.bank_stats
        assert stats[1].bytes_read == 8 and stats[3].bytes_read == 8
        assert stats[0].bytes_read == 0 and stats[2].bytes_read == 0

    def test_single_channel_grant_matches_legacy_bank(self):
        a = np.arange(64, dtype=np.float32)
        for placement in (Placement.single(1), None):
            mem = DramModel(num_banks=4, bytes_per_cycle=8)
            mem.begin_cycle(0)
            buf = mem.bind("A", a, bank=1 if placement is None else None,
                           placement=placement)
            assert mem.request_read(buf, 32) == 8
            assert mem.bank_stats[1].bytes_read == 8

    def test_placement_summary(self):
        mem = DramModel(num_banks=8, bytes_per_cycle=16, device="u280")
        mem.bind("A", np.zeros(8, dtype=np.float32),
                 placement=Placement.striped((0, 1)))
        mem.bind("B", np.zeros(8, dtype=np.float32),
                 placement=Placement.single(5))
        s = mem.placement_summary()
        assert s["device"] == "u280" and s["channels"] == 8
        assert s["buffers"] == 2
        assert s["placements"] == {"A": "striped[0,1]", "B": "ch5"}
        assert s["by_kind"]["striped"] == 1 and s["by_kind"]["single"] == 1


# ------------------------------------------------------- differential GEMV

def _run_sharded(a, x, y, lanes, tn, tm, w, mode, mem=None, placements=None):
    eng, out = build_sharded_gemv_engine(
        a, x, y, 1.25, 0.5, lanes=lanes, tile_n=tn, tile_m=tm, width=w,
        mode=mode, mem=mem, placements=placements)
    rep = eng.run(max_cycles=2_000_000)
    return rep.cycles, np.asarray(out, dtype=np.float32)


class TestShardedGemvDifferential:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_bitwise_identical_across_lanes_and_modes(self, data):
        tiles = data.draw(st.integers(2, 4), label="tiles")
        tn = data.draw(st.sampled_from([2, 4, 8]), label="tile_n")
        cols = data.draw(st.integers(1, 3), label="col_tiles")
        tm = data.draw(st.sampled_from([4, 8]), label="tile_m")
        w = data.draw(st.sampled_from([1, 2, 4]), label="width")
        n, m = tiles * tn, cols * tm
        a, x, y = _problem(n, m, seed=data.draw(st.integers(0, 99)))
        lane_counts = [l for l in (1, 2, 4, 8) if l <= tiles]
        outs = {}
        for lanes in lane_counts:
            for mode in MODES:
                _cycles, res = _run_sharded(a, x, y, lanes, tn, tm, w, mode)
                outs[(lanes, mode)] = res
        want = outs[(1, "dense")].tobytes()
        for key, res in outs.items():
            assert res.tobytes() == want, f"{key} diverged bitwise"

    def test_matches_reference_numerically(self):
        a, x, y = _problem(16, 16)
        _c, res = _run_sharded(a, x, y, 2, 4, 4, 2, "event")
        want = reference.gemv(1.25, a, x, 0.5, y)
        np.testing.assert_allclose(res, want, rtol=1e-4, atol=1e-5)

    def test_memory_fed_identical_to_source_fed(self):
        a, x, y = _problem(32, 32)
        _c, plain = _run_sharded(a, x, y, 4, 8, 8, 4, "event")
        for placements in (None,
                           [Placement.single(l) for l in range(4)],
                           [Placement.striped((l, (l + 4) % 8))
                            for l in range(4)]):
            mem = DramModel(num_banks=8, bytes_per_cycle=64)
            _c, res = _run_sharded(a, x, y, 4, 8, 8, 4, "event", mem=mem,
                                   placements=placements)
            assert res.tobytes() == plain.tobytes()

    def test_bandwidth_bound_lane_scaling(self):
        """Starved config (width 16 wants 64 B/cycle of A per lane, a
        channel grants 16): a lane on its own channel brings a whole
        budget (4 108 / 2 061 / 1 039 / 531 cycles); the same lanes all
        on channel 0 gain nothing, so the win is placement."""
        a, x, y = _problem(128, 128)
        lane_counts = (1, 2, 4, 8)

        def run(lanes, mode, placements=None):
            mem = DramModel(num_banks=8, bytes_per_cycle=16)
            count, res = _run_sharded(a, x, y, lanes, 16, 32, 16, mode,
                                      mem=mem, placements=placements)
            return count, res.tobytes()

        cells = []
        for lanes in lane_counts:
            by_mode = {run(lanes, mode) for mode in MODES}
            assert len(by_mode) == 1, f"modes diverged at {lanes} lanes"
            cells.append(by_mode.pop())
        cycles, outs = zip(*cells)
        assert len(set(outs)) == 1
        np.testing.assert_allclose(
            np.frombuffer(outs[0], dtype=np.float32),
            reference.gemv(1.25, a, x, 0.5, y), rtol=1e-4, atol=1e-4)
        assert all(c > d for c, d in zip(cycles, cycles[1:])), cycles
        speedup = {lanes: cycles[0] / c
                   for lanes, c in zip(lane_counts, cycles)}
        assert speedup[4] >= 2.5, cycles
        shared, _res = run(4, "event", [Placement.single(0)] * 4)
        assert cycles[0] / shared <= 0.6 * speedup[4], (shared, cycles)
        for lanes in lane_counts:
            model = sharded_gemv_speedup(128, 128, 16, 16, lanes, 16)
            assert abs(speedup[lanes] - model) <= 0.35 * model, (
                lanes, speedup[lanes], model)
        a, x, y = _problem(32, 32)          # and at the small tiles
        small = [_run_sharded(
            a, x, y, lanes, 8, 8, 4, "event",
            mem=DramModel(num_banks=8, bytes_per_cycle=16))[0]
            for lanes in (1, 4)]
        assert small[0] / small[1] >= 2.0, small


class TestShardRowTiles:
    def test_round_robin(self):
        assert shard_row_tiles(32, 8, 2) == [[0, 2], [1, 3]]
        assert shard_row_tiles(32, 8, 3) == [[0, 3], [1], [2]]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_row_tiles(32, 8, 5)       # more lanes than tiles
        with pytest.raises(ValueError):
            shard_row_tiles(30, 8, 2)       # tiles don't divide n


# ------------------------------------------------------- deadlock parity

def _adversarial_merge_engine(mode, part_depth, n=128, m=64, tn=8, tm=8,
                              w=4, lanes=2, depth=32, xdepth=16):
    """Shared-x sharded GEMV whose merge drains lane 1 *entirely* before
    lane 0: lane 0's merge channel must buffer lane 0's whole output
    (its reordering window).  Undersized, lane 0 blocks mid-push, stops
    popping x, the shared duplicator stalls, lane 1 starves — deadlock.
    """
    a, x, y = _problem(n, m, seed=7)
    parts = shard_row_tiles(n, tn, lanes)
    a_s, y_s = shard_gemv_streams(a, y, tn, tm, lanes)
    eng = Engine(mode=mode)
    ports = []
    for lane in range(lanes):
        ports.append((eng.channel(f"a{lane}", depth),
                      eng.channel(f"x{lane}", xdepth),
                      eng.channel(f"y{lane}", depth),
                      eng.channel(f"part{lane}", part_depth)))
        eng.add_kernel(f"srcA{lane}",
                       source_kernel(ports[lane][0], a_s[lane], w), latency=2)
        eng.add_kernel(f"srcy{lane}",
                       source_kernel(ports[lane][2], y_s[lane], w), latency=2)
    cx0 = eng.channel("xroot", depth)
    replay = len(parts[0])
    eng.add_kernel("srcx", source_kernel(cx0, x, w, repeat=replay),
                   latency=2)
    eng.add_kernel("dupx", duplicate_kernel(cx0, [p[1] for p in ports],
                                            m * replay, w))
    ch_out = eng.channel("out", depth)
    for lane, (ca, cx, cy, cp) in enumerate(ports):
        eng.add_kernel(f"gemv{lane}", gemv_row_tiles(
            len(parts[lane]) * tn, m, 1.0, 0.5, ca, cx, cy, cp, tn, tm, w),
            latency=8)
    sched = ([(1, tn)] * len(parts[1]) + [(0, tn)] * len(parts[0]))
    eng.add_kernel("merge", merge_kernel([p[3] for p in ports], ch_out,
                                         sched, w), latency=2)
    out = []
    eng.add_kernel("sink", sink_kernel(ch_out, n, w, out))
    return eng, out


class TestDeadlockParity:
    def test_undersized_merge_channel_deadlocks_identically(self):
        at = {}
        for mode in MODES:
            eng, _out = _adversarial_merge_engine(mode, part_depth=8)
            with pytest.raises(DeadlockError):
                eng.run(max_cycles=200_000)
            at[mode] = eng.now
        assert len(set(at.values())) == 1, f"deadlock cycles diverge: {at}"

    def test_window_sized_merge_channel_completes_identically(self):
        runs = {}
        for mode in MODES:
            # 64 = lane 0's whole output (8 tiles x tile_n): the full
            # reordering window the adversarial schedule creates.
            eng, out = _adversarial_merge_engine(mode, part_depth=64)
            rep = eng.run(max_cycles=200_000)
            runs[mode] = (rep.cycles,
                          np.asarray(out, dtype=np.float32).tobytes())
        assert len(set(runs.values())) == 1, "modes diverged"


# ------------------------------------------------------------ sharded GEMM

def _run_sharded_gemm(a, b, c, lanes, tn, tm, w, mode):
    n, k = a.shape
    m = b.shape[1]
    a_s, b_s, c_s = level3.shard_gemm_streams(a, b, c, tn, tm, lanes)
    eng = Engine(mode=mode)
    depth = max(8 * w, 2 * tn * tm)
    ports = []
    for lane in range(lanes):
        ports.append((eng.channel(f"a{lane}", depth),
                      eng.channel(f"b{lane}", depth),
                      eng.channel(f"c{lane}", depth),
                      eng.channel(f"part{lane}", depth)))
        for ch, stream in zip(ports[lane][:3], (a_s[lane], b_s[lane],
                                                c_s[lane])):
            eng.add_kernel(f"src_{ch.name}", source_kernel(ch, stream, w),
                           latency=2)
    ch_out = eng.channel("out", depth)
    lane_gens, merge = level3.gemm_tiled_sharded(
        n, m, k, 1.5, 0.5, ports, ch_out, tn, tm, w)
    for lane, g in enumerate(lane_gens):
        eng.add_kernel(f"gemm{lane}", g, latency=8)
    eng.add_kernel("merge", merge, latency=2)
    out = []
    eng.add_kernel("sink", sink_kernel(ch_out, n * m, w, out))
    eng.run(max_cycles=2_000_000)
    return np.asarray(out, dtype=np.float32)


class TestShardedGemm:
    def test_bitwise_identical_across_lanes_and_modes(self):
        rng = np.random.default_rng(5)
        n, m, k, tn, tm = 16, 16, 8, 4, 4
        a = np.asarray(rng.normal(size=(n, k)), dtype=np.float32)
        b = np.asarray(rng.normal(size=(k, m)), dtype=np.float32)
        c = np.asarray(rng.normal(size=(n, m)), dtype=np.float32)
        outs = {(lanes, mode): _run_sharded_gemm(a, b, c, lanes, tn, tm,
                                                 2, mode)
                for lanes in (1, 2, 4) for mode in MODES}
        want = outs[(1, "dense")].tobytes()
        for key, res in outs.items():
            assert res.tobytes() == want, f"{key} diverged bitwise"
        got = outs[(1, "dense")]
        ref = reference.gemm(1.5, a, b, 0.5, c)
        # outputs arrive as row-major T_N x T_M tiles in (ti, tj) order
        tiles = got.reshape(n // tn, m // tm, tn, tm)
        restored = tiles.transpose(0, 2, 1, 3).reshape(n, m)
        np.testing.assert_allclose(restored, ref, rtol=1e-4, atol=1e-5)


# ------------------------------------------------------------------ FB105

class TestFB105:
    def _engine(self, placements, num_banks=4, bytes_per_cycle=48,
                width=8):
        mem = DramModel(num_banks=num_banks,
                        bytes_per_cycle=bytes_per_cycle)
        eng = Engine(memory=mem)
        for i, pl in enumerate(placements):
            data = np.ones(1024, dtype=np.float32)
            buf = mem.bind(f"B{i}", data, placement=pl)
            ch = eng.channel(f"c{i}", 64)
            eng.add_kernel(f"read{i}", read_kernel(mem, buf, ch, width),
                           writes=[(ch, width, 1)])
            eng.add_kernel(f"snk{i}", sink_kernel(ch, 1024, width),
                           reads=(ch,))
        return eng

    def test_error_on_out_of_range_plan_channel(self):
        # The memory model rejects out-of-range placements at bind time,
        # so forge the plan: re-point a placement past the channel count.
        eng = self._engine([Placement.single(0)])
        plan = compile_plan(eng)
        d = plan.to_dict()
        d["placements"][0]["channels"] = [0, 9]
        d["placements"][0]["kind"] = "striped"
        forged = PlanIR.from_dict(d)
        from repro.analysis.engine_passes import check_placement_conflicts
        diags = list(check_placement_conflicts(forged, None))
        errs = [x for x in diags if x.code == "FB105"
                and x.severity == Severity.ERROR]
        assert errs and "only 4 channels" in errs[0].message

    def test_warns_when_buffers_share_a_channel(self):
        # Each reader wants 32 B/cycle against a 48 B/cycle channel:
        # together 64 > 48 on channel 0, yet each alone fits -> FB105
        # names the *conflict* (FB104 still reports the aggregate).
        eng = self._engine([Placement.single(0), Placement.single(0)])
        result = analyze_engine(eng)
        warns = result.by_code("FB105")
        assert warns and warns[0].severity == Severity.WARNING
        assert "channel 0" in warns[0].message
        assert "'B0'" in warns[0].message and "'B1'" in warns[0].message
        assert result.by_code("FB104")      # aggregate lint agrees
        assert result.ok

    def test_silent_when_spread_across_channels(self):
        eng = self._engine([Placement.single(0), Placement.single(1)])
        assert not analyze_engine(eng).by_code("FB105")

    def test_single_hog_is_fb104_not_fb105(self):
        # One buffer alone over budget: FB104's case, FB105 stays quiet.
        eng = self._engine([Placement.single(0)], bytes_per_cycle=16)
        result = analyze_engine(eng)
        assert result.by_code("FB104")
        assert not result.by_code("FB105")


# ------------------------------------------------------- plan round-trip

class TestPlanPlacements:
    def _plan(self, placement):
        mem = DramModel(num_banks=8, bytes_per_cycle=64)
        eng = Engine(memory=mem)
        buf = mem.bind("A", np.ones(256, dtype=np.float32),
                       placement=placement)
        ch = eng.channel("c", 32)
        eng.add_kernel("read", read_kernel(mem, buf, ch, 8),
                       writes=[(ch, 8, 1)])
        eng.add_kernel("snk", sink_kernel(ch, 256, 8), reads=(ch,))
        return compile_plan(eng)

    def test_round_trip_preserves_placement(self):
        plan = self._plan(Placement.striped((0, 3, 5)))
        restored = PlanIR.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.plan_key == plan.plan_key
        p = restored.placements[0]
        assert p.kind == "striped" and p.channels == (0, 3, 5)
        t = [t for k in restored.kernels for t in k.dram][0]
        assert t.channels == (0, 3, 5)

    def test_plan_key_distinguishes_placements(self):
        keys = [self._plan(pl).plan_key
                for pl in (Placement.single(0), Placement.single(1),
                           Placement.striped((0, 1)), None)]
        assert len(set(keys[:3])) == 3
        # No placement round-robins onto channel 0 — the *same physical
        # layout* as Placement.single(0), so the keys rightly coincide.
        assert keys[3] == keys[0]


# ----------------------------------------------------------------- models

class TestHbmModels:
    def test_channel_bytes_per_cycle(self):
        assert channel_bytes_per_cycle(14.375e9, 300e6) == 47
        with pytest.raises(ValueError):
            channel_bytes_per_cycle(0, 300e6)

    def test_lane_read_rate(self):
        assert lane_read_rate(16, 47.0) == pytest.approx(11.75)
        assert lane_read_rate(8, 64.0) == 8.0        # compute-bound

    def test_sharded_read_rate_near_linear_then_saturates(self):
        r1 = sharded_read_rate(16, 1, 1, 16.0)
        r4 = sharded_read_rate(16, 4, 4, 16.0)
        assert r4 == pytest.approx(4 * r1)
        # channels < lanes: budgets shared, no gain past the channels
        assert sharded_read_rate(16, 4, 1, 16.0) == pytest.approx(r1)

    def test_io_volume_is_lane_invariant(self):
        assert gemv_io_sharded(512, 512, 64, 4) \
            == gemv_io_tiles_by_rows(512, 512, 64)

    def test_sharded_cycles_monotone_in_lanes(self):
        c = [sharded_gemv_cycles(512, 512, 64, 16, l, 16.0)
             for l in (1, 2, 4, 8)]
        assert c[0] > c[1] > c[2] > c[3]
        assert sharded_gemv_speedup(512, 512, 64, 16, 4, 16.0) \
            == pytest.approx(c[0] / c[2])

    def test_sharded_cycles_validation(self):
        with pytest.raises(ValueError):
            sharded_gemv_cycles(500, 512, 64, 16, 2, 16.0)
        with pytest.raises(ValueError):
            sharded_gemv_cycles(512, 512, 64, 16, 9, 16.0)


class TestShardedDse:
    def test_split_placement_beats_shared(self):
        pts = explore_gemv_sharded(4096, 4096, U280, widths=(16,),
                                   tiles=(256,), lanes=(4,), workers=1)
        by_chans = {p.param("chans"): p for p in pts}
        assert by_chans[4].cycles < by_chans[1].cycles

    def test_sweep_covers_placement_axis(self):
        pts = explore_gemv_sharded(2048, 2048, U280, widths=(8, 16),
                                   tiles=(128,), lanes=(1, 2), workers=1)
        assert all(p.routine == "gemv_sharded" for p in pts)
        assert {p.param("chans") for p in pts} == {1, 2}
        best = fastest(pts)
        assert best.param("lanes") >= 1


class TestU280Catalog:
    def test_registered(self):
        assert DEVICES["u280"] is U280
        assert U280.dram_banks == 32
        assert U280.dram_bank_bytes == 256 * 1024 * 1024
        # 32 pseudo-channels x 14.375 GB/s = 460 GB/s aggregate
        assert U280.dram_bank_bandwidth * U280.dram_banks \
            == pytest.approx(460e9)

    def test_power_model_has_u280(self):
        assert "u280" in PowerModel.STATIC and "u280" in PowerModel.DYNAMIC
