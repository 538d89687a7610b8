"""Hypothesis conformance for Level-2 streaming kernels.

Random shapes (constrained to exact tilings), random tile geometry and
widths: GEMV (all variants) and GER must agree with the references, and
the tiling I/O identities must hold for every configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import level1, level2, reference
from repro.fpga import (DramModel, Engine, duplicate_kernel, forward_kernel,
                        sink_kernel, source_kernel)
from repro.fpga.bulk import _play
from repro.fpga.channel import Channel
from repro.fpga.kernel import Clock, Pop
from repro.fpga.memory import read_kernel, write_kernel
from repro.models import iomodel
from repro.streaming import row_tiles

from helpers import stream_of

RNG = np.random.default_rng(113)


def geometry():
    """(n, m, tn, tm, w): dims exact multiples of tiles, w free."""
    return st.tuples(
        st.integers(1, 4), st.integers(1, 4),     # tile grid
        st.integers(1, 4), st.integers(1, 4),     # tile dims
        st.integers(1, 6),                        # width
    ).map(lambda t: (t[0] * t[2], t[1] * t[3], t[2], t[3], t[4]))


def _build_gemv(n, m, tn, tm, w, variant, alpha, beta, data=None):
    if data is None:
        data = (RNG.normal(size=(n, m)).astype(np.float32),
                RNG.normal(size=m).astype(np.float32),
                RNG.normal(size=n).astype(np.float32))
    a, x, y = data
    sched = row_tiles(n, m, tn, tm)
    eng = Engine()
    ca = eng.channel("A", 512)
    cx = eng.channel("x", max(512, 2 * tm))
    cy = eng.channel("y", 512)
    co = eng.channel("o", 512)
    out = []
    eng.add_kernel("sa", source_kernel(ca, stream_of(a, sched), w))
    eng.add_kernel("sx", source_kernel(cx, list(x), w, repeat=n // tn))
    eng.add_kernel("sy", source_kernel(cy, list(y), w))
    kernel = {"plain": level2.gemv_row_tiles,
              "db": level2.gemv_row_tiles_db}[variant]
    eng.add_kernel("gemv", kernel(n, m, alpha, beta, ca, cx, cy, co,
                                  tn, tm, w), latency=90)
    eng.add_kernel("sink", sink_kernel(co, n, w, out))
    eng.run()
    return np.array(out), reference.gemv(alpha, a, x, beta, y), (ca, cx, cy)


class TestGemvConformance:
    @settings(max_examples=30, deadline=None)
    @given(geometry(), st.floats(-2, 2), st.floats(-2, 2))
    def test_row_tiles_any_geometry(self, geo, alpha, beta):
        n, m, tn, tm, w = geo
        out, want, _ = _build_gemv(n, m, tn, tm, w, "plain", alpha, beta)
        np.testing.assert_allclose(out, want, rtol=1e-3, atol=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(geometry())
    def test_double_buffered_equals_plain(self, geo):
        n, m, tn, tm, w = geo
        data = (RNG.normal(size=(n, m)).astype(np.float32),
                RNG.normal(size=m).astype(np.float32),
                RNG.normal(size=n).astype(np.float32))
        out_p, want, _ = _build_gemv(n, m, tn, tm, w, "plain", 1.0, 1.0,
                                     data=data)
        out_d, _, _ = _build_gemv(n, m, tn, tm, w, "db", 1.0, 1.0,
                                  data=data)
        np.testing.assert_allclose(out_p, want, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(out_d, out_p, rtol=1e-5, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(geometry())
    def test_io_identity_every_geometry(self, geo):
        """Measured channel traffic equals the Sec. III-B closed form for
        every tiling geometry."""
        n, m, tn, tm, w = geo
        _, _, (ca, cx, cy) = _build_gemv(n, m, tn, tm, w, "plain", 1, 0)
        measured = ca.stats.pops + cx.stats.pops + cy.stats.pops + n
        assert measured == iomodel.gemv_io_tiles_by_rows(n, m, tn)


class TestGerConformance:
    @settings(max_examples=25, deadline=None)
    @given(geometry(), st.floats(-2, 2))
    def test_any_geometry(self, geo, alpha):
        n, m, tn, tm, w = geo
        a = RNG.normal(size=(n, m)).astype(np.float32)
        x = RNG.normal(size=n).astype(np.float32)
        y = RNG.normal(size=m).astype(np.float32)
        sched = row_tiles(n, m, tn, tm)
        eng = Engine()
        ca = eng.channel("A", 512)
        cx = eng.channel("x", 512)
        cy = eng.channel("y", 512)
        co = eng.channel("o", 512)
        out = []
        eng.add_kernel("sa", source_kernel(ca, stream_of(a, sched), w))
        eng.add_kernel("sx", source_kernel(cx, list(x), w))
        eng.add_kernel("sy", source_kernel(cy, list(y), w,
                                           repeat=n // tn))
        eng.add_kernel("ger", level2.ger_kernel(
            n, m, alpha, ca, cx, cy, co, tn, tm, w), latency=50)
        eng.add_kernel("sink", sink_kernel(co, n * m, w, out))
        eng.run()
        got = np.empty(n * m, dtype=np.float32)
        for v, idx in zip(out, sched.indices()):
            got[idx] = v
        np.testing.assert_allclose(got.reshape(n, m),
                                   reference.ger(alpha, x, y, a),
                                   rtol=1e-3, atol=1e-3)


# ---------------------------------------------------------------------------
# The matrix phase's block() against its stepped loop, split anywhere
# ---------------------------------------------------------------------------
#
# A window hands ``matrix_body`` any ``k`` bursts from any position: the
# rest of a row, whole rows, a partial last row (for GEMV^T also whole
# tiles and a tile-column boundary).  Whatever the split, the loop's
# position, the cursor and every accumulator / output byte must equal
# the stepped loop (one burst per body call) over the same bursts, and
# the unsplit ``block(total)``.
#
# "Byte" has one exception, which predates the broadcast views: IEEE 754
# leaves the sign and payload of a NaN *result* open, x86 takes them from
# the first NaN operand, and a SIMD loop may commute an add the scalar
# path does not — so 0x7fc00000 and 0xffc00000 both occur for the same
# element.  Where a NaN stands is compared exactly, which NaN is not;
# zeros, infinities and every finite value are compared bit for bit.

SPECIALS = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-30, 3e38)


def _operand(rng, special, dtype, *shape):
    """Normal values with a hypothesis-chosen share of signed zeros,
    infinities and NaNs (the values a neutral element must survive)."""
    vals = rng.standard_normal(shape)
    mask = rng.random(shape) < special
    vals[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    with np.errstate(over="ignore"):
        return vals.astype(dtype)


class _Module:
    """One tiled module outside any engine: its generator is resumed by
    hand (values fed per ``Pop``, pushes collected) and its phases'
    ``block()`` called directly — what the stepping core and the window
    replay do to it."""

    def __init__(self, name, n, m, tn, tm, w, dtype, rng, special):
        self.ch = {c: Channel(c, 8) for c in "axyo"}
        a = _operand(rng, special, dtype, n, m)
        x_len, y_len = (m, n) if name == "gemv_row_tiles" else (n, m)
        x = _operand(rng, special, dtype, x_len)
        y = _operand(rng, special, dtype, y_len)
        replay = n // tn
        args = (self.ch["a"], self.ch["x"], self.ch["y"], self.ch["o"],
                tn, tm, w, dtype)
        if name == "gemv_row_tiles":
            x = np.tile(x, replay)
            self.body = level2.gemv_row_tiles(n, m, 0.5, 0.25, *args)
        elif name == "gemv_transposed_row_tiles":
            self.body = level2.gemv_transposed_row_tiles(
                n, m, 0.5, 0.25, *args)
        else:
            y = np.tile(y, replay)
            self.body = level2.ger_kernel(n, m, 0.5, *args)
        tiled = np.array(stream_of(a, row_tiles(n, m, tn, tm)), dtype=dtype)
        self.feed = {self.ch["a"]: tiled, self.ch["x"]: x, self.ch["y"]: y}
        self.at = dict.fromkeys(self.feed, 0)
        self.dtype = dtype
        self.out = []               # every value pushed, in order
        self.bursts = 0             # matrix-phase iterations so far
        self.matrix = self.cursor = None

    def _take(self, ch, count):
        lo = self.at[ch]
        self.at[ch] = lo + count
        assert self.at[ch] <= len(self.feed[ch])
        return self.feed[ch][lo:lo + count]

    def phase(self):
        return self.body.pattern.phase()

    def in_matrix(self, phase):
        return (phase is not None and bool(phase.reads)
                and phase.reads[0][0] is self.ch["a"])

    def step(self):
        """One stepped iteration (up to and including its ``Clock``)."""
        matrix = self.in_matrix(self.phase())
        op = self.body.send(None)
        while not isinstance(op, Clock):
            if isinstance(op, Pop):
                vals = list(self._take(op.channel, op.count))
                op = self.body.send(vals[0] if op.count == 1 else vals)
            else:
                self.out.extend(op.values)
                op = self.body.send(None)
        self.bursts += matrix

    def find_cursor(self, phase):
        """The matrix phase's loop and the cursor its ``matrix_body``
        closes over."""
        self.matrix = phase
        self.cursor = next(
            cell.cell_contents for cell in phase.body.__closure__
            if isinstance(cell.cell_contents, level2._TileCursor))

    def block(self, k):
        phase = self.phase()
        ins = [self._take(ch, k * lanes).copy() for ch, lanes in phase.reads]
        for out in phase.block(k, ins):
            self.out.extend(out)
        self.bursts += k * self.in_matrix(phase)

    def _bytes(self, values):
        arr = np.array(values, dtype=self.dtype)
        arr[np.isnan(arr)] = np.nan         # one NaN (see above)
        return arr.tobytes()

    def snapshot(self):
        """Loop position, cursor and accumulators, byte for byte."""
        fields = [self.matrix.done]
        for slot in level2._TileCursor.__slots__:
            val = getattr(self.cursor, slot, None)
            fields.append(val if val is None or isinstance(val, int)
                          else self._bytes(val))
        return tuple(fields)

    def result(self):
        return self._bytes(self.out)


def _run_split(make, chooser):
    """Run one module to the end.  At every matrix-phase boundary
    ``chooser(ready, bursts)`` picks ``k``: ``k > 0`` replays ``k``
    bursts with ``block``, ``0`` steps one iteration.  Returns
    ``{bursts: snapshot}`` for every boundary visited, and the output
    bytes."""
    mod = make()
    snaps = {}
    with np.errstate(all="ignore"):
        mod.step()                  # start the generator (first Pop .. Clock)
        while (phase := mod.phase()) is not None:
            if not mod.in_matrix(phase):
                # Loads and stores: whole phase at once; a ragged last
                # burst (block narrower than W) only exists stepped.
                if phase.ready():
                    mod.block(phase.ready())
                else:
                    mod.step()
                continue
            if mod.cursor is None:
                mod.find_cursor(phase)
            k = chooser(phase.ready(), mod.bursts)
            if k:
                mod.block(k)
            else:
                mod.step()
            snaps[mod.bursts] = mod.snapshot()
        with pytest.raises(StopIteration):
            mod.body.send(None)
    assert all(mod.at[ch] == len(data) for ch, data in mod.feed.items())
    return snaps, mod.result()


MODULES = ("gemv_row_tiles", "gemv_transposed_row_tiles", "ger_kernel")


def _maker(name, n, m, tn, tm, w, dtype, seed, special):
    return lambda: _Module(name, n, m, tn, tm, w, dtype,
                           np.random.default_rng(seed), special)


def _check_partition(make, cuts):
    """``cuts``: the sizes to try, in order (cycled; clipped to what is
    left of the phase); 0 means one stepped iteration."""
    stepped_snaps, stepped_out = _run_split(make, lambda ready, at: 0)
    whole_snaps, whole_out = _run_split(make, lambda ready, at: ready)
    sizes = iter(cuts * (max(stepped_snaps) + 1))
    split_snaps, split_out = _run_split(
        make, lambda ready, at: min(next(sizes), ready))
    assert whole_out == stepped_out
    assert split_out == stepped_out
    for snaps in (whole_snaps, split_snaps):
        for at, snap in snaps.items():
            assert snap == stepped_snaps[at], at
    return split_snaps


class TestMatrixBlockEqualsScalarLoop:
    @pytest.mark.parametrize("name", MODULES)
    def test_every_two_cut_partition_of_a_small_phase(self, name):
        """3 rows of 3 bursts (GEMV^T: two tile columns of them): every
        (k1, k2, rest) — splits inside a row, on a row edge, ``k == 1``,
        ``k < cpr``, head + whole rows + tail, and windows across the
        tile-column boundary."""
        w = 2
        make = _maker(name, 3, 12, 3, 6, w, np.float32, seed=5, special=0.2)
        total = {"gemv_transposed_row_tiles": 18}.get(name, 9)
        seen = set()
        for k1 in range(1, total):
            for k2 in range(1, total - k1 + 1):
                snaps = _check_partition(make, [k1, k2, total])
                seen.update(snaps)
        assert len(seen) >= total

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MODULES),
           st.sampled_from((np.float32, np.float64)),
           st.sampled_from((1, 2, 4, 8)),
           st.tuples(st.integers(1, 2), st.integers(1, 3),   # tile grid
                     st.integers(1, 4), st.integers(1, 4)),  # rows, cpr
           st.lists(st.integers(0, 40), min_size=1, max_size=12),
           st.sampled_from((0.0, 0.05, 0.5)), st.integers(0, 2 ** 16))
    def test_any_partition_any_geometry(self, name, dtype, w, geo, cuts,
                                        special, seed):
        gn, gm, tn, cpr = geo
        tm = cpr * w
        make = _maker(name, gn * tn, gm * tm, tn, tm, w, dtype, seed,
                      special)
        _check_partition(make, cuts)

    @pytest.mark.parametrize("name", MODULES)
    def test_signed_zero_rows_keep_their_sign(self, name):
        """All-(-0.0) products: a fresh row starts from the listing's
        +0.0, so its sum is +0.0 — and -0.0 only where the stepped
        loop says so — whichever way the window is cut."""
        def make():
            mod = _maker(name, 2, 8, 2, 4, 2, np.float32, 0, 0.0)()
            for ch, data in mod.feed.items():
                data[...] = -0.0 if ch is mod.ch["a"] else 1.0
            return mod
        for cuts in ([1], [2], [3], [1, 0, 2], [4], [8]):
            _check_partition(make, cuts)


# ---------------------------------------------------------------------------
# Every steady loop's block() against its stepped loop, split anywhere
# ---------------------------------------------------------------------------
#
# The same property for the one-loop kernels: the source, sink, forward
# and duplicate helpers, every Level-1 kernel a certified design in the
# differential suites uses (maps, reductions, the batched DOT and AXPY),
# and the DRAM read and write kernels (a repeated gather and a scatter,
# on a bank that grants every burst).  ``_run_split`` drives them like
# the tiled modules; the loop's ``done`` is the position.  The compiled
# hit's function-only steps are checked against the same stepped loops
# and the tiled modules.

class _Wire:
    """A channel stand-in: the op interpreter's side of it is the feed,
    so ``occupancy`` is what is left to feed (all of it visible)."""

    def __init__(self, name):
        self.name = name
        self.occupancy = 0


class _Loop:
    """One kernel that is a single :class:`~repro.fpga.pattern.SteadyLoop`
    outside any engine; the interface of :class:`_Module`."""

    def __init__(self, build, n=20, w=3):
        rng = np.random.default_rng(n * w)
        self.mem = DramModel(num_banks=1, bytes_per_cycle=1 << 12)
        self.ch = {c: _Wire(c) for c in "abcd"}
        self.feed = {}
        self.sunk = []
        self.body = build(self, n, w, rng)
        self.loop = self.cursor = self.body.pattern
        self.at = dict.fromkeys(self.feed, 0)
        self.out = {c: [] for c in self.ch.values()}
        self.cycle = 0
        self.finished = False

    def data(self, rng, n, dtype=np.float32):
        return rng.standard_normal(n).astype(dtype)

    def fed(self, name, values):
        self.feed[self.ch[name]] = values
        return self.ch[name]

    _take = _Module._take

    def phase(self):
        return None if self.finished else self.loop

    def in_matrix(self, phase):
        return True

    @property
    def bursts(self):
        return self.loop.done

    def step(self):
        """One stepped iteration; the bank's budget is refreshed first."""
        for ch, data in self.feed.items():
            ch.occupancy = len(data) - self.at[ch]
        self.mem.begin_cycle(self.cycle)
        self.cycle += 1
        try:
            op = self.body.send(None)
            while not isinstance(op, Clock):
                if isinstance(op, Pop):
                    vals = list(self._take(op.channel, op.count))
                    op = self.body.send(vals[0] if op.count == 1 else vals)
                else:
                    self.out[op.channel].extend(op.values)
                    op = self.body.send(None)
        except StopIteration:
            self.finished = True

    def block(self, k):
        phase = self.loop
        ins = [self._take(ch, k * lanes).copy() for ch, lanes in phase.reads]
        for (ch, _lanes, _lat), vals in zip(phase.writes,
                                            phase.block(k, ins)):
            self.out[ch].extend(vals)

    def snapshot(self):
        """Position, element counters, buffer and output bytes so far."""
        return (self.loop.done, self.result(),
                tuple((b.elements_read, b.elements_written, b.data.tobytes())
                      for b in self.mem.buffers.values()))

    def result(self):
        return tuple(np.asarray(v, dtype=np.float64).tobytes()
                     for v in (*self.out.values(), self.sunk))


def _read(mod, n, w, rng):
    buf = mod.mem.bind("src", mod.data(rng, n // 2))
    return read_kernel(mod.mem, buf, mod.ch["a"], w,
                       order=np.arange(n // 2)[::-1], repeat=2)


def _write(mod, n, w, rng):
    buf = mod.mem.allocate("dst", n + 3)
    return write_kernel(mod.mem, buf, mod.fed("a", mod.data(rng, n)), n, w,
                        order=rng.permutation(n + 3)[:n])


#: one-loop kernel -> builder(module, n, w, rng)
LOOPS = {
    "source": lambda m, n, w, rng: source_kernel(
        m.ch["a"], m.data(rng, n // 2 - 1), w, repeat=2),
    "sink": lambda m, n, w, rng: sink_kernel(
        m.fed("a", m.data(rng, n)), n, w, m.sunk),
    "forward": lambda m, n, w, rng: forward_kernel(
        m.fed("a", m.data(rng, n)), m.ch["b"], n, w),
    "duplicate": lambda m, n, w, rng: duplicate_kernel(
        m.fed("a", m.data(rng, n)), (m.ch["b"], m.ch["c"]), n, w),
    "axpy": lambda m, n, w, rng: level1.axpy_kernel(
        n, 0.75, m.fed("a", m.data(rng, n)), m.fed("b", m.data(rng, n)),
        m.ch["c"], w),
    "dot": lambda m, n, w, rng: level1.dot_kernel(
        n, m.fed("a", m.data(rng, n)), m.fed("b", m.data(rng, n)),
        m.ch["c"], w),
    "read": _read,
    "write": _write,
    "scal": lambda m, n, w, rng: level1.scal_kernel(
        n, -1.5, m.fed("a", m.data(rng, n)), m.ch["b"], w),
    "copy": lambda m, n, w, rng: level1.copy_kernel(
        n, m.fed("a", m.data(rng, n)), m.ch["b"], w),
    "asum": lambda m, n, w, rng: level1.asum_kernel(
        n, m.fed("a", m.data(rng, n)), m.ch["c"], w),
    "nrm2": lambda m, n, w, rng: level1.nrm2_kernel(
        n, m.fed("a", m.data(rng, n)), m.ch["c"], w),
    "iamax": lambda m, n, w, rng: level1.iamax_kernel(
        n, m.fed("a", m.data(rng, n)), m.ch["c"], w),
    "batched_dot": lambda m, n, w, rng: level1.batched_dot_kernel(
        2, n // 2, m.fed("a", m.data(rng, n)), m.fed("b", m.data(rng, n)),
        m.ch["c"], w),
    "batched_axpy": lambda m, n, w, rng: level1.batched_axpy_kernel(
        2, n // 2, [0.5, -2.0], m.fed("a", m.data(rng, n)),
        m.fed("b", m.data(rng, n)), m.ch["c"], w),
}


class TestSteadyBlockEqualsSteppedLoop:
    @pytest.mark.parametrize("name", LOOPS)
    def test_every_two_cut_partition(self, name):
        """n = 20 at w = 3 (the source and the read: two passes of 9
        and 10): every (k1, k2, rest) after the first stepped burst, and
        the ragged tail stepped."""
        make = lambda: _Loop(LOOPS[name])               # noqa: E731
        mod = make()
        mod.step()
        total = mod.loop.ready()
        assert total >= 2
        seen = set()
        for k1 in range(1, total):
            for k2 in range(1, total - k1 + 1):
                seen.update(_check_partition(make, [k1, k2, total]))
        assert len(seen) >= total

    @pytest.mark.parametrize("name", [*LOOPS, *MODULES])
    def test_function_only_steps_equal_the_stepped_loop(self, name):
        """A compiled hit runs a kernel by its bodies alone
        (``fpga/bulk.py`` ``_play``): full bursts at once, a ragged
        burst, a reduction's result, a phase hand-over and the first
        phase's arming are each a function-only step.  Cut anywhere on
        the stepped loop's grid — every two cuts, phase boundaries
        among them — it ends with the stepped loop's outputs, buffers
        and counters."""
        make = (_maker(name, 4, 8, 2, 4, 2, np.float32, 3, 0.1)
                if name in MODULES else lambda: _Loop(LOOPS[name]))
        stepped, points = _stepped_points(make)
        assert len(points) >= 6
        for i, a in enumerate(points):
            for b in points[i:]:
                assert _played(make, [a, b, points[-1]]) == stepped, (a, b)


def _progress(pattern, seen):
    """A kernel's progress over its phases (as the hit compiler counts
    it), ``seen`` carrying ``[phase, completed]`` between calls."""
    p = pattern.phase()
    if p is not seen[0]:
        seen[1] += seen[0].total if seen[0] is not None else 0
        seen[0] = p
    return seen[1] + (p.done if p is not None else 0)


def _outcome(mod):
    """Outputs, buffers and counters of a finished one-kernel module."""
    if isinstance(mod, _Loop):
        return mod.snapshot()
    return mod.result()


def _stepped_points(make):
    """The stepped run's outcome and its progress after every step."""
    mod, seen = make(), [None, 0]
    points = [_progress(mod.body.pattern, seen)]
    with np.errstate(all="ignore"):
        while not getattr(mod, "finished", False):
            try:
                mod.step()
            except StopIteration:
                break
            points.append(_progress(mod.body.pattern, seen))
    return _outcome(mod), sorted(set(points) - {0})


def _played(make, goals):
    """Run a fresh module function-only to each progress in ``goals``."""
    mod = make()
    q = {ch: [data] for ch, data in mod.feed.items()}
    outs = [ch for ch in mod.ch.values() if ch not in q]
    q.update((ch, []) for ch in outs)
    moved = 0
    with np.errstate(all="ignore"):
        for goal in goals:
            moved = _play(mod.body.pattern, moved, goal, q)
            assert moved == goal
    assert not any(q[ch] for ch in mod.feed)
    for ch in outs:
        vals = [v for run in q[ch] for v in run]
        if isinstance(mod, _Loop):
            mod.out[ch] = vals
        else:
            mod.out += vals
    return _outcome(mod)
