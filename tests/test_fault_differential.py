"""Differential tests under fault injection.

The determinism contract of :mod:`repro.faults`: the same
:class:`FaultPlan` produces byte-identical outcomes on the dense, event
and bulk engine tiers — identical results and stats for completion-safe
fault kinds, and identical failure coordinates (deadlock cycle/blocked
set, crash site) for the destructive ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import level1
from repro.faults import (COMPLETION_SAFE_KINDS, ChannelFault, FaultPlan,
                          KernelFault, inject)
from repro.fpga import (Clock, DeadlockError, Engine, KernelCrashError,
                        LivelockError, Pop, Push)
from repro.fpga.memory import DramModel, read_kernel
from repro.fpga.util import duplicate_kernel, sink_kernel, source_kernel

_MODES = ("dense", "event", "bulk")


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


def _collector(cin, n, out):
    for _ in range(n):
        v = yield Pop(cin)
        out.append(v)
        yield Clock()


def _build_chain(eng, spec, out):
    """source -> axpy (patterned) -> dynamic mapper -> sink.

    Mixes a patterned stage (the bulk fast path wants to engage) with a
    dynamic one, so fault windows must force exact stepping."""
    n, w = spec["n"], spec["width"]
    depth = max(spec["depth"], w)
    data_x = [np.float32((i % 23) - 11) for i in range(n)]
    data_y = [np.float32((i % 7) - 3) for i in range(n)]
    cx = eng.channel("cx", depth)
    cy = eng.channel("cy", depth)
    c0 = eng.channel("c0", depth)
    c1 = eng.channel("c1", depth)
    eng.add_kernel("src_x", source_kernel(cx, data_x, w))
    eng.add_kernel("src_y", source_kernel(cy, data_y, w))
    eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, c0, w),
                   latency=spec["lat"])
    eng.add_kernel("dyn", _mapper(c0, c1, n, max(1, w - 1), 2, 1))
    eng.add_kernel("sink", _collector(c1, n, out))


_CHAIN_CHANNELS = ("cx", "cy", "c0", "c1")
_CHAIN_KERNELS = ("src_x", "src_y", "axpy", "dyn", "sink")

chain_spec = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "width": st.integers(1, 6),
    "depth": st.integers(2, 16),
    "lat": st.integers(1, 20),
})


def _outcome(mode, build, spec, plan, expect=None):
    """Run one tier under a *fresh* injection context for ``plan``."""
    with inject(plan):
        eng = Engine(mode=mode)
        out = []
        build(eng, spec, out)
        try:
            report = eng.run(max_cycles=200_000)
        except DeadlockError as exc:
            return ("deadlock", exc.cycle, dict(exc.blocked), _stats(eng))
        except LivelockError as exc:
            return ("livelock", exc.trigger, exc.cycle, _stats(eng))
        except KernelCrashError as exc:
            # No stats here: stall accounting is retro-credited on wake in
            # the event core, so mid-flight aborts leave it incomplete.
            return ("crash", exc.kernel, exc.work_cycle, eng.now)
        return ("done", report.cycles, _payload(out), _stats(eng))


def _payload(out):
    """Result bytes: a corrupting fault can produce NaN, which is never
    ``==`` itself, so tiers are compared on bit patterns."""
    return np.asarray(out, dtype=np.float64).tobytes()


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


def _assert_identical(build, spec, plan):
    dense = _outcome("dense", build, spec, plan)
    for mode in ("event", "bulk"):
        other = _outcome(mode, build, spec, plan)
        assert dense == other, (
            f"fault outcome diverged (dense vs {mode}) for {spec} under\n"
            f"{plan.describe()}\n dense={dense}\n {mode}={other}")


class TestFaultDifferential:
    @settings(max_examples=100, deadline=None)
    @given(chain_spec, st.integers(0, 10_000))
    def test_completion_safe_plans_identical(self, spec, seed):
        """Corrupt/freeze plans: all three tiers finish byte-identically
        (same payloads, same cycle counts, same stats)."""
        plan = FaultPlan.generate(
            seed, channels=_CHAIN_CHANNELS, kernels=_CHAIN_KERNELS,
            n_faults=3, element_horizon=2 * spec["n"],
            cycle_horizon=4 * spec["n"] + 64,
            kinds=COMPLETION_SAFE_KINDS)
        outcome = _outcome("dense", _build_chain, spec, plan)
        assert outcome[0] == "done"
        _assert_identical(_build_chain, spec, plan)

    @settings(max_examples=100, deadline=None)
    @given(chain_spec, st.integers(0, 10_000))
    def test_destructive_plans_identical(self, spec, seed):
        """Full fault vocabulary: every tier reaches the same outcome —
        completion, deadlock (same cycle, same blocked set) or crash
        (same kernel, same work cycle, same simulated cycle)."""
        plan = FaultPlan.generate(
            seed, channels=_CHAIN_CHANNELS, kernels=_CHAIN_KERNELS,
            n_faults=2, element_horizon=2 * spec["n"],
            cycle_horizon=4 * spec["n"] + 64)
        _assert_identical(_build_chain, spec, plan)

    def test_drop_induced_deadlock_parity(self):
        """A dropped element starves the sink: all three tiers report
        the deadlock at the same cycle with the same blocked set."""
        spec = {"n": 24, "width": 2, "depth": 8, "lat": 4}
        plan = FaultPlan(seed=0, channel_faults=(
            ChannelFault("c1", 10, "drop"),))
        outcomes = {m: _outcome(m, _build_chain, spec, plan)
                    for m in _MODES}
        assert outcomes["dense"][0] == "deadlock"
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]

    def test_crash_site_parity(self):
        spec = {"n": 24, "width": 2, "depth": 8, "lat": 4}
        plan = FaultPlan(seed=0, kernel_faults=(
            KernelFault("axpy", 5, "crash"),))
        outcomes = {m: _outcome(m, _build_chain, spec, plan)
                    for m in _MODES}
        assert outcomes["dense"][0] == "crash"
        assert outcomes["dense"] == outcomes["event"] == outcomes["bulk"]


class TestFaultInsideRampWindow:
    """The certified tier replays the pipeline fill as a window; a
    channel fault pending on a channel that window would push into must
    keep those cycles on the stepping core until it has fired."""

    N, W, LAT = 400, 4, 30

    def _run(self, mode, plan):
        with inject(plan):
            eng = Engine(mode=mode)
            n, w = self.N, self.W
            cx, cy, c0 = (eng.channel(name, 16) for name in ("cx", "cy", "c0"))
            out = []
            eng.add_kernel("src_x", source_kernel(
                cx, [np.float32(i % 19) for i in range(n)], w))
            eng.add_kernel("src_y", source_kernel(
                cy, [np.float32(i % 5) for i in range(n)], w))
            eng.add_kernel("axpy", level1.axpy_kernel(n, 0.5, cx, cy, c0, w),
                           latency=self.LAT)
            eng.add_kernel("sink", sink_kernel(c0, n, w, out))
            report = eng.run(max_cycles=200_000)
            return (report.cycles, _payload(out), _stats(eng)), eng

    def test_pending_fault_defers_the_fill_window(self):
        # Element 40 is pushed ten cycles into the 30-cycle fill ramp.
        plan = FaultPlan(seed=0, channel_faults=(
            ChannelFault("c0", 40, "corrupt", bit=30),))
        clean, clean_eng = self._run("certified", FaultPlan(seed=0))
        outcomes = {m: self._run(m, plan)[0]
                    for m in ("dense", "event", "bulk")}
        certified, eng = self._run("certified", plan)
        assert certified == outcomes["dense"] == outcomes["event"] \
            == outcomes["bulk"]
        assert certified[1] != clean[1]          # the fault did fire
        assert certified[0] == clean[0]
        # Fault-free, the ramp is replayed; with the fault pending its
        # first ten cycles are stepped, the rest still replayed.
        faulted, free = eng.bulk_stats(), clean_eng.bulk_stats()
        assert free["stepped_cycles"] <= 3
        assert faulted["stepped_cycles"] - free["stepped_cycles"] == 10
        assert faulted["windows"] >= free["windows"]


class TestMemoryFaultDifferential:
    def _outcome(self, mode, plan, n=64, width=4):
        with inject(plan):
            mem = DramModel(num_banks=2, bytes_per_cycle=32)
            buf = mem.bind("vec", np.arange(1, n + 1, dtype=np.float32))
            eng = Engine(memory=mem, mode=mode)
            ch = eng.channel("c", 4 * width)
            out = []
            eng.add_kernel("read", read_kernel(mem, buf, ch, width))
            eng.add_kernel("sink", sink_kernel(ch, n, width, out))
            report = eng.run(max_cycles=200_000)
            return (report.cycles, out, _stats(eng),
                    [(b.bytes_read, b.denied_cycles, b.ecc_events)
                     for b in mem.bank_stats])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_memory_plans_identical(self, seed):
        """Bitflips, ECC events and bandwidth throttles land on the same
        cycle coordinates in all three tiers."""
        plan = FaultPlan.generate(
            seed, buffers=("vec",), banks=2, n_faults=3,
            element_horizon=64, cycle_horizon=128,
            kinds=("bitflip", "ecc", "throttle"))
        dense = self._outcome("dense", plan)
        for mode in ("event", "bulk"):
            other = self._outcome(mode, plan)
            assert dense == other, (
                f"memory fault outcome diverged (dense vs {mode}) under\n"
                f"{plan.describe()}")

    def test_fanout_corrupt_parity(self):
        """Bit corruption upstream of a duplicate kernel reaches both
        branches identically in every tier."""
        n, w = 32, 2
        plan = FaultPlan(seed=0, channel_faults=(
            ChannelFault("cin", 7, "corrupt", bit=31),))
        results = {}
        for mode in _MODES:
            with inject(plan):
                eng = Engine(mode=mode)
                data = [np.float32(i + 1) for i in range(n)]
                cin = eng.channel("cin", 8)
                ca = eng.channel("ca", 8)
                cb = eng.channel("cb", 8)
                outa, outb = [], []
                eng.add_kernel("src", source_kernel(cin, data, w))
                eng.add_kernel("dup", duplicate_kernel(cin, (ca, cb), n, w))
                eng.add_kernel("sink_a", sink_kernel(ca, n, w, outa))
                eng.add_kernel("sink_b", sink_kernel(cb, n, w, outb))
                report = eng.run()
                results[mode] = (report.cycles, outa, outb)
        assert results["dense"] == results["event"] == results["bulk"]
        outa = results["dense"][1]
        assert outa[7] == np.float32(-8.0)


class TestPlanOnEngineConstructor:
    def test_constructor_plan_beats_ambient_context(self):
        inner = FaultPlan(seed=1, channel_faults=(
            ChannelFault("c", 0, "corrupt", bit=63),))
        ambient = FaultPlan(seed=2, channel_faults=(
            ChannelFault("c", 1, "corrupt", bit=63),))
        with inject(ambient) as ctx:
            eng = Engine(fault_plan=inner)
            ch = eng.channel("c", 4)
            out = []
            eng.add_kernel("src", _mapper_free_src(ch, [1.0, 2.0, 3.0]))
            eng.add_kernel("sink", _collector(ch, 3, out))
            eng.run()
        # The constructor plan fired (element 0), not the ambient one.
        assert out == [-1.0, 2.0, 3.0]
        assert ctx.faults_injected == 0


def _mapper_free_src(ch, vals):
    for v in vals:
        yield Push(ch, (v,), 1)
        yield Clock()
