"""Unit tests for the cycle-stepped engine: pipelining, stalls, deadlock."""

import pytest

from repro.faults import FaultInjector, FaultPlan, KernelFault
from repro.fpga import (
    Channel,
    Clock,
    DeadlockError,
    Engine,
    Pop,
    Push,
    SimulationError,
    sink_kernel,
    source_kernel,
)


def passthrough(n, ch_in, ch_out, width=1):
    done = 0
    while done < n:
        c = min(width, n - done)
        vals = yield Pop(ch_in, c)
        if c == 1:
            vals = (vals,)
        yield Push(ch_out, tuple(vals), None)
        yield Clock()
        done += c


class TestPipelining:
    def test_cycle_count_matches_l_plus_n_over_w(self):
        """The paper's C = L + II*M identity, measured."""
        n, w, lat = 1024, 8, 40
        eng = Engine()
        ci = eng.channel("i", 32)
        co = eng.channel("o", 32)
        out = []
        eng.add_kernel("src", source_kernel(ci, list(range(n)), w))
        eng.add_kernel("k", passthrough(n, ci, co, w), latency=lat)
        eng.add_kernel("sink", sink_kernel(co, n, w, out))
        rep = eng.run()
        model = lat + n // w
        assert abs(rep.cycles - model) <= 5
        assert out == list(range(n))

    def test_width_scaling_reduces_cycles_linearly(self):
        n = 512
        cycles = {}
        for w in (1, 2, 4, 8):
            eng = Engine()
            ci = eng.channel("i", 32)
            co = eng.channel("o", 32)
            eng.add_kernel("src", source_kernel(ci, [0.0] * n, w))
            eng.add_kernel("k", passthrough(n, ci, co, w), latency=10)
            eng.add_kernel("sink", sink_kernel(co, n, w))
            cycles[w] = eng.run().cycles
        assert cycles[1] > cycles[2] > cycles[4] > cycles[8]
        # dominant term halves with doubling width
        assert cycles[1] / cycles[8] > 5

    def test_chained_modules_pipeline_in_parallel(self):
        """Two chained modules cost ~L1+L2+N, not 2N (Sec. V-A)."""
        n, w = 2048, 4
        eng = Engine()
        c1 = eng.channel("c1", 16)
        c2 = eng.channel("c2", 16)
        c3 = eng.channel("c3", 16)
        eng.add_kernel("src", source_kernel(c1, [1.0] * n, w))
        eng.add_kernel("k1", passthrough(n, c1, c2, w), latency=50)
        eng.add_kernel("k2", passthrough(n, c2, c3, w), latency=50)
        eng.add_kernel("sink", sink_kernel(c3, n, w))
        rep = eng.run()
        assert rep.cycles < 50 + 50 + n // w + 20     # pipelined
        assert rep.cycles > n // w                    # but not free


class TestBackpressure:
    def test_slow_consumer_stalls_producer(self):
        n = 64
        eng = Engine()
        ch = eng.channel("c", 4)

        def slow_sink():
            for _ in range(n):
                _ = yield Pop(ch, 1)
                yield Clock(4)  # one pop every 4 cycles

        eng.add_kernel("src", source_kernel(ch, list(range(n)), 1))
        eng.add_kernel("sink", slow_sink())
        rep = eng.run()
        assert rep.cycles >= 4 * n
        assert rep.kernels["src"].stats.stall_cycles > n

    def test_stall_statistics_recorded_on_channel(self):
        eng = Engine()
        ch = eng.channel("c", 2)
        eng.add_kernel("src", source_kernel(ch, list(range(32)), 1))

        def lazy():
            yield Clock(20)
            for _ in range(32):
                _ = yield Pop(ch, 1)
                yield Clock()

        eng.add_kernel("sink", lazy())
        eng.run()
        assert ch.stats.stalled_push_cycles > 0


class TestDeadlock:
    def test_starved_consumer_deadlocks(self):
        eng = Engine()
        ch = eng.channel("c", 4)
        eng.add_kernel("src", source_kernel(ch, [1, 2, 3], 1))
        eng.add_kernel("sink", sink_kernel(ch, 10, 1))
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert "sink" in exc.value.blocked

    def test_full_channel_with_no_consumer_deadlocks(self):
        eng = Engine()
        a = eng.channel("a", 2)
        b = eng.channel("b", 2)
        eng.add_kernel("p", source_kernel(a, list(range(10)), 1))
        eng.add_kernel("c", sink_kernel(b, 1, 1))
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert set(exc.value.blocked) == {"p", "c"}

    def test_sleeping_kernel_is_not_a_deadlock(self):
        eng = Engine()
        ch = eng.channel("c", 4)

        def late_producer():
            yield Clock(100)
            yield Push(ch, (1,), 1)
            yield Clock()

        eng.add_kernel("p", late_producer())
        eng.add_kernel("s", sink_kernel(ch, 1, 1))
        rep = eng.run()
        assert rep.cycles >= 100


class TestProtocol:
    def test_missing_clock_is_detected(self):
        eng = Engine()
        ch = eng.channel("c", 1_000_000_000)

        def runaway():
            while True:
                yield Push(ch, (1,), 1)

        eng.add_kernel("bad", runaway())
        with pytest.raises(SimulationError, match="missing Clock"):
            eng.run()

    def test_unknown_op_rejected(self):
        eng = Engine()

        def bad():
            yield "not an op"

        eng.add_kernel("bad", bad())
        with pytest.raises(SimulationError, match="unknown op"):
            eng.run()

    def test_max_cycles_guard(self):
        eng = Engine()

        def spinner():
            while True:
                yield Clock()

        eng.add_kernel("spin", spinner())
        with pytest.raises(SimulationError, match="exceeded"):
            eng.run(max_cycles=100)

    def test_duplicate_names_rejected(self):
        eng = Engine()
        eng.channel("c")
        with pytest.raises(ValueError):
            eng.channel("c")
        eng.add_kernel("k", iter(()))
        with pytest.raises(ValueError):
            eng.add_kernel("k", iter(()))


class TestOpContract:
    """What kernels and their callers may rely on from the three ops."""

    def test_equality_and_hash_are_by_value(self):
        a, b = Channel("a", 4), Channel("b", 4)
        assert Pop(a, 2) == Pop(a, 2) and Pop(a) == Pop(a, 1)
        assert Pop(a, 2) != Pop(a, 1) and Pop(a, 2) != Pop(b, 2)
        assert Push(a, (1.0,), 1) == Push(a, (1.0,), 1)
        assert Push(a, (1.0,)) != Push(a, (1.0,), 1)
        assert Clock() == Clock(1) != Clock(2)
        # Different ops never compare equal, even with the same fields.
        assert Pop(a, 1) != Push(a, 1) and Clock(1) != (1,)
        assert len({Pop(a, 2), Pop(a, 2), Clock(), Clock(1),
                    Push(a, (1.0, 2.0), None)}) == 3

    def test_repr_names_every_field(self):
        ch = Channel("c", 4)
        assert repr(Pop(ch, 2)) == f"Pop(channel={ch!r}, count=2)"
        assert (repr(Push(ch, (1.0,), 1))
                == f"Push(channel={ch!r}, values=(1.0,), latency=1)")
        assert repr(Clock()) == "Clock(cycles=1)"

    def test_push_of_normalises_values(self):
        ch = Channel("c", 4)
        assert Push.of(ch, [1.0, 2.0]) == Push(ch, (1.0, 2.0), None)
        assert Push.of(ch, (3.0,), 2) == Push(ch, (3.0,), 2)
        assert Push.of(ch, 4.0).values == (4.0,)

    def test_fault_wrapper_stretches_clock(self):
        """The freeze wrapper recognises ``Clock`` among the body's ops and
        stretches exactly the work cycle it targets."""
        def body():
            for _ in range(3):
                yield Clock()

        plan = FaultPlan(seed=0, kernel_faults=(
            KernelFault("k", 1, "freeze", cycles=5),))
        inj = FaultInjector(plan, Engine())
        assert (list(inj._faulted_body("k", body(), plan.kernel_faults))
                == [Clock(), Clock(6), Clock()])

    @pytest.mark.parametrize("mode", ["event", "dense"])
    def test_freeze_on_a_patterned_kernel(self, mode):
        """A patterned body is resumed without its proxy until a fault
        wrapper replaces it; the wrapped body is what runs."""
        def cycles(plan):
            eng = Engine(mode=mode, fault_plan=plan)
            ch = eng.channel("c", 4)
            eng.add_kernel("src", source_kernel(ch, [1.0] * 8, 2))
            eng.add_kernel("sink", sink_kernel(ch, 8, 2))
            return eng.run().cycles

        frozen = FaultPlan(seed=0, kernel_faults=(
            KernelFault("src", 2, "freeze", cycles=7),))
        assert cycles(frozen) == cycles(None) + 7


class TestReport:
    def test_summary_mentions_kernels_and_channels(self):
        eng = Engine()
        ch = eng.channel("data", 8)
        eng.add_kernel("src", source_kernel(ch, [1, 2], 1))
        eng.add_kernel("sink", sink_kernel(ch, 2, 1))
        rep = eng.run()
        text = rep.summary()
        assert "src" in text and "sink" in text and "data" in text
        assert rep.total_stall_cycles >= 0
