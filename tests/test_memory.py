"""Unit tests for the DRAM model: bandwidth, banking, interface kernels."""

import numpy as np
import pytest

from repro.fpga import (DramModel, Engine, duplicate_kernel, forward_kernel,
                        sink_kernel, source_kernel)
from repro.fpga.errors import ReproError, StreamOrderError
from repro.fpga.memory import read_kernel, write_kernel


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
#: None and a full unit-stride range are recognised as the identity (and
#: carry a pattern); the others are index arrays that happen to be
#: sorted, so they must stream, cost and count exactly the same.
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

    def test_only_the_identity_carries_a_pattern(self):
        mem = DramModel()
        buf = mem.allocate("b", 8)
        ch = Engine(memory=mem).channel("c", 8)
        for order in (None, range(8), range(0, 8, 1)):
            assert hasattr(read_kernel(mem, buf, ch, 2, order=order),
                           "pattern"), order
        for order in (np.arange(8), list(range(8)), tuple(range(8)),
                      iter(range(8)), range(7), range(1, 8),
                      range(7, -1, -1)):
            assert not hasattr(read_kernel(mem, buf, ch, 2, order=order),
                               "pattern"), order
        for order in (None, range(6)):
            assert hasattr(write_kernel(mem, buf, ch, 6, 2, order=order),
                           "pattern"), order
        for order in (np.arange(6), list(range(6)), range(1, 7),
                      range(5, -1, -1)):
            assert not hasattr(write_kernel(mem, buf, ch, 6, 2, order=order),
                               "pattern"), order


class TestValidation:
    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            DramModel(num_banks=0)
        with pytest.raises(ValueError):
            DramModel(bytes_per_cycle=0)
