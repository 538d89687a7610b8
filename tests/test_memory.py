"""Unit tests for the DRAM model: bandwidth, banking, interface kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisError
from repro.blas import level1
from repro.fpga import (DramModel, Engine, duplicate_kernel, forward_kernel,
                        sink_kernel, source_kernel)
from repro.fpga.channel import Channel
from repro.fpga.errors import ReproError, StreamOrderError
from repro.fpga.kernel import Clock, Pop
from repro.fpga.memory import read_kernel, write_kernel
from repro.host.orders import column_major_order
from repro.plan import PlanCache, plan_identity
from repro.streaming.tiling import col_tiles, row_tiles


class TestAllocation:
    def test_round_robin_bank_placement_without_interleaving(self):
        mem = DramModel(num_banks=2, interleaving=False)
        b1 = mem.allocate("a", 8)
        b2 = mem.allocate("b", 8)
        b3 = mem.allocate("c", 8)
        assert b1.bank == 0 and b2.bank == 1 and b3.bank == 0

    def test_interleaved_buffers_have_no_bank(self):
        mem = DramModel(num_banks=2, interleaving=True)
        assert mem.allocate("a", 8).bank is None

    def test_explicit_bank(self):
        mem = DramModel(num_banks=4)
        assert mem.allocate("a", 8, bank=3).bank == 3

    def test_bad_bank_rejected(self):
        mem = DramModel(num_banks=2)
        with pytest.raises(ValueError):
            mem.allocate("a", 8, bank=5)

    def test_duplicate_name_rejected(self):
        mem = DramModel()
        mem.allocate("a", 8)
        with pytest.raises(ValueError):
            mem.allocate("a", 8)

    def test_bind_copies_host_data(self):
        mem = DramModel()
        host = np.arange(4, dtype=np.float32)
        buf = mem.bind("a", host)
        host[0] = 99
        assert buf.data[0] == 0


class TestBandwidth:
    def test_grant_capped_per_cycle(self):
        mem = DramModel(num_banks=1, bytes_per_cycle=16)
        buf = mem.allocate("a", 64)
        assert mem.request_read(buf, 64) == 16
        assert mem.request_read(buf, 64) == 0       # budget exhausted
        mem.begin_cycle(1)
        assert mem.request_read(buf, 8) == 8

    def test_same_bank_buffers_contend(self):
        mem = DramModel(num_banks=2, bytes_per_cycle=16)
        a = mem.allocate("a", 64, bank=0)
        b = mem.allocate("b", 64, bank=0)
        got_a = mem.request_read(a, 16)
        got_b = mem.request_write(b, 16)
        assert got_a == 16 and got_b == 0           # same-bank contention

    def test_different_banks_do_not_contend(self):
        mem = DramModel(num_banks=2, bytes_per_cycle=16)
        a = mem.allocate("a", 64, bank=0)
        b = mem.allocate("b", 64, bank=1)
        assert mem.request_read(a, 16) == 16
        assert mem.request_read(b, 16) == 16

    def test_interleaved_buffer_uses_pooled_bandwidth(self):
        mem = DramModel(num_banks=4, bytes_per_cycle=16, interleaving=True)
        buf = mem.allocate("a", 1024)
        assert mem.request_read(buf, 64) == 64      # 4 banks pooled


class TestInterfaceKernels:
    def _roundtrip(self, n, width, banks=2, bpc=64):
        mem = DramModel(num_banks=banks, bytes_per_cycle=bpc)
        src = mem.bind("src", np.arange(n, dtype=np.float32))
        dst = mem.allocate("dst", n)
        eng = Engine(memory=mem)
        ch = eng.channel("c", 64)
        eng.add_kernel("rd", read_kernel(mem, src, ch, width))
        eng.add_kernel("wr", write_kernel(mem, dst, ch, n, width))
        rep = eng.run()
        return mem, src, dst, rep

    def test_read_write_roundtrip(self):
        mem, src, dst, _ = self._roundtrip(128, 4)
        np.testing.assert_array_equal(dst.data, src.data)

    def test_io_operation_counters(self):
        mem, src, dst, _ = self._roundtrip(100, 4)
        assert src.elements_read == 100
        assert dst.elements_written == 100
        assert mem.total_elements_moved == 200

    def test_bandwidth_bound_cycle_count(self):
        # 4 bytes/cycle = 1 float/cycle regardless of requested width
        mem, src, dst, rep = self._roundtrip(256, 8, banks=1, bpc=4)
        assert rep.cycles >= 256

    def test_custom_order_read(self):
        mem = DramModel()
        src = mem.bind("src", np.arange(6, dtype=np.float32))
        eng = Engine(memory=mem)
        ch = eng.channel("c", 16)
        order = [5, 3, 1, 0, 2, 4]
        out = []
        eng.add_kernel("rd", read_kernel(mem, src, ch, 2, order=order))
        eng.add_kernel("sink", sink_kernel(ch, 6, 2, out))
        eng.run()
        assert out == [5.0, 3.0, 1.0, 0.0, 2.0, 4.0]

    def test_replayed_read(self):
        mem = DramModel()
        src = mem.bind("src", np.arange(3, dtype=np.float32))
        eng = Engine(memory=mem)
        ch = eng.channel("c", 16)
        out = []
        eng.add_kernel("rd", read_kernel(mem, src, ch, 1, repeat=3))
        eng.add_kernel("sink", sink_kernel(ch, 9, 1, out))
        eng.run()
        assert out == [0.0, 1.0, 2.0] * 3
        assert src.elements_read == 9              # replay costs real I/O

    def test_custom_order_write(self):
        mem = DramModel()
        dst = mem.allocate("dst", 4)
        eng = Engine(memory=mem)
        ch = eng.channel("c", 16)
        eng.add_kernel("src", source_kernel(ch, [10.0, 20.0, 30.0, 40.0], 2))
        eng.add_kernel("wr", write_kernel(mem, dst, ch, 4, 2,
                                          order=[3, 2, 1, 0]))
        eng.run()
        np.testing.assert_array_equal(dst.data, [40.0, 30.0, 20.0, 10.0])

    def test_iterator_order_is_replayed_every_pass(self):
        """The order is materialised once, so a one-shot iterator streams
        on every ``repeat`` pass, not only the first."""
        mem = DramModel()
        src = mem.bind("src", np.arange(4, dtype=np.float32))
        eng = Engine(memory=mem)
        ch = eng.channel("c", 16)
        out = []
        eng.add_kernel("rd", read_kernel(mem, src, ch, 2,
                                         order=iter([3, 1, 2]), repeat=2))
        eng.add_kernel("sink", sink_kernel(ch, 6, 1, out))
        eng.run()
        assert out == [3.0, 1.0, 2.0] * 2


def _step(gen, feed=None):
    """Resume a kernel through one ``Clock``, answering its pops from
    ``feed``; return what it pushed."""
    pushed, op = [], next(gen)
    while not isinstance(op, Clock):
        if isinstance(op, Pop):
            vals = [feed.pop(0) for _ in range(op.count)]
            op = gen.send(vals[0] if op.count == 1 else vals)
        else:
            pushed += op.values
            op = next(gen)
    return pushed


class TestHeldLoops:
    """No window starts where the next cycles are not statically full:
    after a short read grant, with the write's register holding a
    carry, and at the end of a repeated read's pass."""

    def test_a_short_grant_holds_the_read(self):
        mem = DramModel(num_banks=1, bytes_per_cycle=12)
        buf = mem.bind("b", np.arange(16, dtype=np.float32))
        gen = read_kernel(mem, buf, Channel("c", 8), 4, repeat=2)
        loop = gen.pattern
        assert loop.ready() == 4 and not loop.ends()
        assert _step(gen) == [0.0, 1.0, 2.0]          # 12 of 16 bytes
        assert (loop.ready(), loop.ends()) == (0, False)
        mem.begin_cycle(1)
        assert _step(gen) == [3.0, 4.0, 5.0]
        mem.begin_cycle(2)
        mem.bytes_per_cycle = 64
        mem.begin_cycle(3)
        assert _step(gen) == [6.0, 7.0, 8.0, 9.0]     # off the grid
        assert loop.ready() == 1                      # stops at the pass end
        assert _step(gen) == [10.0, 11.0, 12.0, 13.0]
        mem.begin_cycle(4)
        assert _step(gen) == [14.0, 15.0]             # stepped to the end
        assert (loop.ready(), loop.ends()) == (0, False)
        mem.begin_cycle(5)
        assert _step(gen) == [0.0, 1.0, 2.0, 3.0]     # the next pass
        assert (loop.ready(), loop.ends()) == (3, True)

    def test_a_carry_holds_the_write(self):
        mem = DramModel(num_banks=1, bytes_per_cycle=12)
        buf = mem.allocate("b", 8)
        ch = Channel("c", 8)
        gen = write_kernel(mem, buf, ch, 8, 4)
        loop = gen.pattern
        ch._fifo.extend(range(8))      # all visible: pops take full bursts
        feed = list(np.arange(8, dtype=np.float32) + 1)
        _step(gen, feed)                              # pops 4, stores 3
        assert (loop.done, loop.ready(), loop.ends()) == (3, 0, False)
        mem.begin_cycle(1)
        mem.bytes_per_cycle = 64
        mem.begin_cycle(2)
        _step(gen, feed)                              # the carry and 3
        assert (loop.done, loop.ready(), loop.ends()) == (7, 0, False)
        _step(gen, feed)
        assert (loop.done, loop.ready(), loop.ends()) == (8, 0, True)
        np.testing.assert_array_equal(buf.data, np.arange(8) + 1)
        assert buf.elements_written == 8


class TestOrderRefusals:
    """An order that cannot be streamed is refused when the kernel is
    built, with a typed error, instead of failing mid-simulation."""

    def _setup(self):
        mem = DramModel()
        buf = mem.allocate("b", 16)
        return mem, buf, Engine(memory=mem).channel("c", 16)

    def _refused(self, build, match):
        with pytest.raises(StreamOrderError, match=match) as info:
            build()
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)

    def test_read_index_past_the_buffer(self):
        mem, b, c = self._setup()
        self._refused(lambda: read_kernel(mem, b, c, 4, order=[0, 16]),
                      "order index 16 is outside buffer 'b' of 16")

    def test_read_negative_index(self):
        mem, b, c = self._setup()
        self._refused(lambda: read_kernel(mem, b, c, 4, order=[3, -1]),
                      "order index -1 is outside buffer 'b'")

    def test_write_index_past_the_buffer(self):
        mem, b, c = self._setup()
        self._refused(lambda: write_kernel(mem, b, c, 2, 4, order=[1, 99]),
                      "order index 99 is outside buffer 'b'")

    def test_write_order_shorter_than_count(self):
        mem, b, c = self._setup()
        self._refused(
            lambda: write_kernel(mem, b, c, 16, 4, order=iter(range(8))),
            "holds 8 indices; the kernel stores 16 elements")

    def test_write_order_longer_than_count(self):
        mem, b, c = self._setup()
        self._refused(lambda: write_kernel(mem, b, c, 4, 4,
                                           order=range(15, -1, -1)),
                      "holds 16 indices; the kernel stores 4 elements")

    def test_non_integer_order(self):
        mem, b, c = self._setup()
        self._refused(lambda: read_kernel(mem, b, c, 4, order=[0.0, 1.0]),
                      "integer indices")


class TestGeometryRefusals:
    """A stream kernel that would spin, deadlock or finish without moving
    its elements is refused when it is built."""

    def _setup(self):
        mem = DramModel()
        buf = mem.allocate("b", 16)
        eng = Engine(memory=mem)
        return mem, buf, eng.channel("c", 16), eng.channel("d", 16)

    def _refused(self, build, match):
        with pytest.raises(StreamOrderError, match=match) as info:
            build()
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)

    def test_read_width_zero(self):
        mem, b, c, _ = self._setup()
        self._refused(lambda: read_kernel(mem, b, c, 0),
                      "read_kernel: width must be at least 1, got 0")

    def test_read_repeat_zero(self):
        mem, b, c, _ = self._setup()
        self._refused(lambda: read_kernel(mem, b, c, 4, repeat=0),
                      "read_kernel: repeat must be at least 1, got 0")

    def test_read_repeat_negative(self):
        mem, b, c, _ = self._setup()
        self._refused(lambda: read_kernel(mem, b, c, 4, repeat=-1),
                      "repeat must be at least 1, got -1")

    def test_write_negative_count(self):
        mem, b, c, _ = self._setup()
        self._refused(lambda: write_kernel(mem, b, c, -1, 4),
                      "write_kernel: count must be at least 0, got -1")

    def test_write_width_zero(self):
        mem, b, c, _ = self._setup()
        self._refused(lambda: write_kernel(mem, b, c, 8, 0),
                      "write_kernel: width must be at least 1, got 0")

    def test_linear_write_past_the_buffer(self):
        mem, b, c, _ = self._setup()
        self._refused(lambda: write_kernel(mem, b, c, 17, 4),
                      "write of 17 elements overruns buffer 'b' of 16")

    def test_source_width_zero(self):
        _, _, c, _ = self._setup()
        self._refused(lambda: source_kernel(c, [1.0, 2.0], 0),
                      "source_kernel: width must be at least 1")

    def test_sink_width_zero(self):
        _, _, c, _ = self._setup()
        self._refused(lambda: sink_kernel(c, 2, 0),
                      "sink_kernel: width must be at least 1")

    def test_sink_negative_count(self):
        _, _, c, _ = self._setup()
        self._refused(lambda: sink_kernel(c, -2, 1),
                      "sink_kernel: count must be at least 0")

    def test_forward_width_zero(self):
        _, _, c, d = self._setup()
        self._refused(lambda: forward_kernel(c, d, 2, 0),
                      "forward_kernel: width must be at least 1")

    def test_duplicate_width_zero(self):
        _, _, c, d = self._setup()
        self._refused(lambda: duplicate_kernel(c, [d], 2, 0),
                      "duplicate_kernel: width must be at least 1")


#: The identity order, spelled every way a caller can spell it.  Only
#: None and a full unit-stride range are recognised as the identity
#: (slices); the others are index arrays that happen to be sorted
#: (gathers), so they must stream, cost and count exactly the same.
IDENTITY = {
    "none": lambda n: None,
    "range": range,
    "arange": np.arange,
    "list": lambda n: list(range(n)),
}
#: (elements, width, repeat) swept by the order tests.
GEOMETRIES = [(n, w, r) for n in (1, 6, 17) for w in (2, 4) for r in (1, 3)]


def _bank_rates(width, gather=False):
    """A bank that grants a full burst per cycle, and one throttled
    below one burst so every burst is granted short (a gather burst is
    charged the default stride penalty of 2)."""
    return (64, (8 if gather else 4) * width - 2)


def _read(mode, n, width, repeat, bpc, order):
    """``(what the run streamed, cost and counted, windows replayed)``."""
    mem = DramModel(num_banks=1, bytes_per_cycle=bpc)
    src = mem.bind("src", np.arange(n, dtype=np.float32) * 0.5 - 3)
    eng = Engine(memory=mem, mode=mode)
    ch = eng.channel("c", 2 * width)
    total = (n if order is None else len(order)) * repeat
    out = []
    eng.add_kernel("rd", read_kernel(mem, src, ch, width, order=order,
                                     repeat=repeat))
    eng.add_kernel("sink", sink_kernel(ch, total, width, out))
    report = eng.run()
    return ((np.asarray(out, dtype=np.float32).tobytes(), report.to_dict(),
             [b.to_dict() for b in mem.bank_stats], src.elements_read),
            (eng.bulk_stats() or {}).get("windows", 0))


def _write(mode, count, width, bpc, order):
    mem = DramModel(num_banks=1, bytes_per_cycle=bpc)
    dst = mem.allocate("dst", count + 3)
    data = np.arange(count, dtype=np.float32) * 0.25 + 1
    eng = Engine(memory=mem, mode=mode)
    ch = eng.channel("c", 2 * width)
    eng.add_kernel("src", source_kernel(ch, data, width))
    eng.add_kernel("wr", write_kernel(mem, dst, ch, count, width,
                                      order=order))
    report = eng.run()
    return (dst.data.tobytes(), report.to_dict(),
            [b.to_dict() for b in mem.bank_stats], dst.elements_written)


class TestAnOrderIsAnOrder:
    """However the identity order is spelled, a kernel streams the same
    values in the same cycles at the same DRAM cost; a permutation
    streams exactly ``flat[order]`` — on the event and the window core,
    with full and with short bank grants."""

    @pytest.mark.parametrize("mode", ["event", "bulk"])
    def test_read_identity_spellings_agree(self, mode):
        for n, width, repeat in GEOMETRIES:
            for bpc in _bank_rates(width):
                runs = {name: _read(mode, n, width, repeat, bpc,
                                    spell(n))[0]
                        for name, spell in IDENTITY.items()}
                for name, run in runs.items():
                    assert run == runs["none"], (name, n, width, repeat, bpc)
                flat = np.arange(n, dtype=np.float32) * 0.5 - 3
                assert runs["none"][0] == np.tile(flat, repeat).tobytes()
        if mode == "bulk":
            # The identity really is replayed, not only stepped.
            assert _read(mode, 17, 2, 3, 64, None)[1] > 0

    @pytest.mark.parametrize("mode", ["event", "bulk"])
    def test_read_permutation_streams_the_gather(self, mode):
        rng = np.random.default_rng(5)
        for n, width, repeat in GEOMETRIES:
            order = rng.permutation(n)
            flat = np.arange(n, dtype=np.float32) * 0.5 - 3
            for bpc in _bank_rates(width, gather=True):
                (got, _, _, moved), _ = _read(mode, n, width, repeat, bpc,
                                              order)
                assert got == np.tile(flat[order], repeat).tobytes()
                assert moved == n * repeat

    @pytest.mark.parametrize("mode", ["event", "bulk"])
    def test_write_identity_spellings_agree(self, mode):
        for count, width, _ in GEOMETRIES:
            for bpc in _bank_rates(width):
                runs = {name: _write(mode, count, width, bpc, spell(count))
                        for name, spell in IDENTITY.items()}
                for name, run in runs.items():
                    assert run == runs["none"], (name, count, width, bpc)
                stored = np.frombuffer(runs["none"][0], dtype=np.float32)
                np.testing.assert_array_equal(
                    stored[:count],
                    np.arange(count, dtype=np.float32) * 0.25 + 1)
                assert not stored[count:].any()

    @pytest.mark.parametrize("mode", ["event", "bulk"])
    def test_write_permutation_scatters(self, mode):
        rng = np.random.default_rng(9)
        for count, width, _ in GEOMETRIES:
            order = rng.permutation(count + 3)[:count]
            expect = np.zeros(count + 3, dtype=np.float32)
            expect[order] = np.arange(count, dtype=np.float32) * 0.25 + 1
            for bpc in _bank_rates(width):
                got, _, _, moved = _write(mode, count, width, bpc, order)
                assert got == expect.tobytes()
                assert moved == count

    def test_every_order_carries_a_pattern(self):
        """Every order, however spelled, is patterned; a read whose
        aligned bursts cross a stride break declares gather traffic."""
        mem = DramModel()
        buf = mem.allocate("b", 8)
        ch = Engine(memory=mem).channel("c", 8)
        reads = {"read": (None, range(8), np.arange(8), list(range(8)),
                          tuple(range(8)), iter(range(8)), range(7),
                          range(1, 8), [2, 3, 0, 1, 6, 7, 4, 5],
                          [0, 1, 0, 1]),
                 "gather": (range(7, -1, -1), range(0, 8, 2),
                            [1, 2, 3, 4, 5, 6, 7, 0])}
        for kind, orders in reads.items():
            for order in orders:
                traffic, = read_kernel(mem, buf, ch, 2,
                                       order=order).pattern.dram
                assert traffic.kind == kind, order
        for order in (None, range(6), np.arange(6), list(range(6)),
                      range(1, 7), range(5, -1, -1)):
            traffic, = write_kernel(mem, buf, ch, 6, 2,
                                    order=order).pattern.dram
            assert traffic.kind == "write", order


# ---------------------------------------------------------------------------
# Ordered streams in windows: a window gathers every read before it
# stores a write, so a buffer read and written by one design replays only
# if each read walks the store's order once, no index twice.
# ---------------------------------------------------------------------------

def _order(kind, rows, cols, tile, rng):
    """One of the orders the tree builds, over a rows x cols buffer."""
    n = rows * cols
    return {
        "identity": lambda: None,
        "strided": lambda: np.arange(0, n, 2),
        "rows": lambda: row_tiles(rows, cols, tile, tile).indices(),
        "cols": lambda: col_tiles(rows, cols, tile, tile).indices(),
        "colmajor": lambda: column_major_order(rows, cols),
        "perm": lambda: rng.permutation(n),
        "replay": lambda: np.tile(np.arange(n // 2), 2),
    }[kind]()


def _ordered_run(mode, spec, cache=None):
    """``(report, stored bytes, bank stats)`` of read -> scal -> write,
    or the :class:`AnalysisError` the certified tier raises; plus the
    engine."""
    rows, cols, width = spec["rows"], spec["cols"], spec["width"]
    dt = spec["dtype"]
    mem = DramModel(num_banks=2, bytes_per_cycle=256)
    buf = mem.bind("buf", (np.arange(rows * cols) % 7 - 3).astype(dt),
                   bank=0)
    read_order, write_order = spec["orders"]
    n = rows * cols if read_order is None else len(read_order)
    dst = buf if spec["inplace"] else mem.allocate("dst", n, dt, bank=1)
    eng = Engine(memory=mem, mode=mode, schedule_cache=cache)
    cin, cout = eng.channel("cin", 2 * width), eng.channel("cout", 2 * width)
    eng.add_kernel("read", read_kernel(mem, buf, cin, width, read_order))
    eng.add_kernel("scal", level1.scal_kernel(n, 1.5, cin, cout, width, dt),
                   latency=spec["lat"])
    eng.add_kernel("write", write_kernel(mem, dst, cout, n, width,
                                         write_order))
    try:
        report = eng.run()
    except AnalysisError as exc:
        return exc, eng
    return (report.to_dict(), dst.data.tobytes(),
            [b.to_dict() for b in mem.bank_stats]), eng


@st.composite
def _ordered_specs(draw):
    rows, cols = (draw(st.sampled_from((2, 4, 8, 16))) for _ in range(2))
    tile = draw(st.sampled_from([t for t in (1, 2, 4) if t <= min(rows,
                                                                  cols)]))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    kind = draw(st.sampled_from(("identity", "strided", "rows", "cols",
                                 "colmajor", "perm", "replay")))
    read_order = _order(kind, rows, cols, tile, rng)
    pair = draw(st.sampled_from(("copy", "same", "other")))
    if pair == "other" and kind != "strided":
        other = draw(st.sampled_from(("identity", "rows", "cols",
                                      "colmajor", "perm")))
        write_order = _order(other, rows, cols, tile, rng)
    elif pair == "other":       # the odd elements, half as many
        write_order = np.arange(1, rows * cols, 2)
    else:
        write_order = read_order if pair == "same" else None
    return {"rows": rows, "cols": cols, "inplace": pair != "copy",
            "orders": (read_order, write_order),
            "width": draw(st.integers(1, 8)), "lat": draw(st.integers(1, 9)),
            "dtype": draw(st.sampled_from((np.float32, np.float64)))}


def _overtaken(spec):
    """Whether the spec's in-place read is one a window may not replay."""
    if not spec["inplace"]:
        return False
    a, b = (np.arange(spec["rows"] * spec["cols"]) if o is None
            else np.asarray(o) for o in spec["orders"])
    return not np.array_equal(a, b) or np.unique(a).size < a.size


def check_ordered_windows(spec):
    """event == bulk == certified, report and bytes; or, for a read its
    design stores over out of order, a typed refusal naming the read
    kernel and the buffer, and a bulk run that says so and steps."""
    (event, _), (bulk, bulk_eng) = (_ordered_run(m, spec)
                                    for m in ("event", "bulk"))
    certified, _ = _ordered_run("certified", spec)
    assert bulk == event
    if _overtaken(spec):
        assert isinstance(certified, AnalysisError)
        assert [(d.code, d.obj) for d in certified.diagnostics] == [
            ("FB404", "read@buf")]
        assert bulk_eng._bulk_fallback == "FB404:read@buf"
        assert bulk_eng.bulk_stats()["windows"] == 0
    else:
        assert certified == event
        assert bulk_eng._bulk_fallback is None


class TestOrderedWindows:
    @settings(max_examples=60, deadline=None)
    @given(_ordered_specs())
    def test_orders_replay_or_are_refused(self, spec):
        check_ordered_windows(spec)

    @pytest.mark.parametrize("read_order", [
        row_tiles(16, 16, 8, 8).indices(), None], ids=("tiles", "identity"))
    def test_in_place_reorder_never_replays(self, read_order):
        """Replayed, these copies would take the same cycles as stepped
        ones but store different bytes: a window gathers elements that,
        stepped, a store of the same window overwrites first."""
        spec = {"rows": 16, "cols": 16, "width": 4, "lat": 3,
                "dtype": np.float32, "inplace": True,
                "orders": (read_order, column_major_order(16, 16))}
        check_ordered_windows(spec)
        refused, _ = _ordered_run("certified", spec)
        assert "kernel 'read' reads buffer 'buf'" in str(refused)

    def test_a_repeated_read_of_a_stored_buffer_is_refused(self):
        mem = DramModel(bytes_per_cycle=256)
        buf = mem.bind("buf", np.arange(16, dtype=np.float32), bank=0)
        eng = Engine(memory=mem, mode="certified")
        cin, cout = eng.channel("cin", 8), eng.channel("cout", 8)
        eng.add_kernel("read", read_kernel(mem, buf, cin, 4, repeat=2))
        eng.add_kernel("scal", level1.scal_kernel(32, 1.5, cin, cout, 4))
        eng.add_kernel("write", write_kernel(mem, buf, cout, 32, 4,
                                             np.tile(np.arange(16), 2)))
        with pytest.raises(AnalysisError, match="FB404.*read@buf"):
            eng.run()

    def test_no_certificate_covers_a_hazardous_twin(self):
        """Same-order and reordering in-place copies differ only in the
        store's order: their keys differ, and the first's cached
        certificate does not let the second replay."""
        order = column_major_order(16, 16)
        safe = {"rows": 16, "cols": 16, "width": 4, "lat": 3,
                "dtype": np.float32, "inplace": True,
                "orders": (order, order)}
        twin = dict(safe, orders=(order, np.arange(256)))
        assert len({plan_identity(_ordered_run("event", spec)[1])[0]
                    for spec in (safe, twin)}) == 2
        cache = PlanCache()
        (event, _), (replayed, eng) = (_ordered_run(m, safe, cache)
                                       for m in ("event", "certified"))
        assert replayed == event and eng.bulk_stats()["windows"] > 0
        refused, _ = _ordered_run("certified", twin, cache)
        assert isinstance(refused, AnalysisError)


class TestValidation:
    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            DramModel(num_banks=0)
        with pytest.raises(ValueError):
            DramModel(bytes_per_cycle=0)


if __name__ == "__main__":
    # The ordered-window property at a larger budget than tier-1's.
    settings(max_examples=400, deadline=None)(
        given(_ordered_specs())(check_ordered_windows))()
