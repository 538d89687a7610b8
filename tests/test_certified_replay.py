"""Certified replay covers the whole run, in whole-array steps.

Three deterministic guards on the certified tier's cost model — wall
time proportional to the number of *phases*, not cycles or elements, and
allocation proportional to neither:

* **stepped-cycle budget** — for the stream-shaped host calls (DOT,
  in-place AXPY, tiled GEMV) all but a handful of cycles are replayed as
  windows, and the handful does not grow with the problem size;
* **vectorisation guard** — every executable pattern's ``block(k, ins)``
  touches its input arrays a number of times that does not grow with
  ``k``, no executor loops over a range derived from its window size
  (a ``block``'s ``k``, a steady loop body's ``n``), and only the
  shared machinery passes ``block=`` to ``StaticPattern``;
* **window temporaries** — a warm certified DOT allocates no
  window-sized array (runs move as views, the adder tree works in place
  on a per-thread scratch), the in-place tree rounds exactly like the
  scalar one, and the scratch really is per thread; the tiled Level-2
  matrix phases meet their on-chip block as broadcast views, so a warm
  512 x 512 call allocates no gathered operand, index array or staging
  grid.
"""

import ast
import gc
import inspect
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.blas import level1, level2, reference
from repro.fpga import memory, pattern, util
from repro.fpga.channel import Channel
from repro.fpga.kernel import Clock, Pop
from repro.fpga.memory import DramModel, read_kernel, write_kernel
from repro.host import Fblas

WIDTH = 4
#: Event-stepped cycles allowed per call: pipeline start-up, the cycles
#: that wake or block a kernel at a phase change, ragged tails.
BUDGET = 64


# ---------------------------------------------------------------------------
# Stepped-cycle budget
# ---------------------------------------------------------------------------

def _vec(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def _host_call(routine, n, mode="certified", tile=512):
    """Run one stream-shaped host call; return (result, cycles, stats)."""
    rng = np.random.default_rng(16)
    fb = Fblas(width=WIDTH, engine_mode=mode, tile=tile)
    engines = []
    make = fb._engine
    fb._engine = lambda: engines.append(make()) or engines[-1]
    if routine == "dot":
        x, y = _vec(rng, n), _vec(rng, n)
        got = fb.dot(fb.copy_to_device(x, bank=0),
                     fb.copy_to_device(y, bank=1))
        want = reference.dot(x, y)
    elif routine == "axpy":
        x, y = _vec(rng, n), _vec(rng, n)
        got = fb.axpy(0.5, fb.copy_to_device(x, bank=2),
                      fb.copy_to_device(y, bank=3))
        want = reference.axpy(0.5, x, y)
    else:
        a, x, y = _vec(rng, n, n), _vec(rng, n), _vec(rng, n)
        got = fb.gemv(0.5, fb.copy_to_device(a, bank=0),
                      fb.copy_to_device(x, bank=1), 0.25,
                      fb.copy_to_device(y, bank=2))
        want = reference.gemv(0.5, a, x, 0.25, y)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
    return (np.asarray(got).tobytes(), fb.records[-1].cycles,
            engines[-1].bulk_stats())


class TestSteppedCycleBudget:
    @pytest.mark.parametrize("routine,n", [
        ("dot", 1 << 16), ("axpy", 1 << 16), ("gemv", 512)])
    def test_host_calls_stay_within_budget(self, routine, n):
        got, cycles, stats = _host_call(routine, n)
        assert stats["stepped_cycles"] <= BUDGET
        # Every cycle is either replayed, stepped, or an idle stretch
        # the event core jumps over (a reduction's result latency).
        idle = cycles - stats["bulk_cycles"] - stats["stepped_cycles"]
        assert idle >= 0
        if routine != "dot":
            assert cycles - stats["bulk_cycles"] <= BUDGET
        # Same bytes, same cycle count as the stepping core.
        assert (got, cycles) == _host_call(routine, n, "event")[:2]

    @pytest.mark.parametrize("routine", ("dot", "axpy"))
    def test_budget_does_not_grow_with_n(self, routine):
        small = _host_call(routine, 1 << 12)[2]
        large = _host_call(routine, 1 << 16)[2]
        assert large["stepped_cycles"] == small["stepped_cycles"]
        assert large["windows"] == small["windows"]

    @pytest.mark.parametrize("tile", (512, 128))
    def test_tiled_gemv_stays_within_budget(self, tile):
        """The host's own GEMV, A read in tiles by rows (a gather)."""
        got, cycles, stats = _host_call("gemv", 512, tile=tile)
        # Entering a tile's x load and its matrix phase each wakes a
        # back-pressured read kernel: the waking pop and the reader's
        # retry are real event cycles, five per tile, on top of the
        # per-call handful.
        tiles = (512 // tile) ** 2
        assert stats["stepped_cycles"] <= min(BUDGET, 11) + 5 * (tiles - 1)
        event = _host_call("gemv", 512, "event", tile)
        assert (got, cycles) == event[:2]

    def test_tiled_gemv_budget_follows_phases_not_elements(self):
        """Four times the elements at the same tile count: the same
        phases, so (up to where a latency lands in them) the same
        stepped cycles, while the replayed cycles grow with the data."""
        small = _host_call("gemv", 128, tile=32)[2]
        large = _host_call("gemv", 256, tile=64)[2]
        assert abs(large["stepped_cycles"] - small["stepped_cycles"]) <= 3
        assert large["bulk_cycles"] > 3 * small["bulk_cycles"]


class TestViewsAreReadBeforeStores:
    def test_inplace_swap_on_large_vectors(self):
        """The read kernels hand out views of x and y, the SWAP passes
        them through, and both write kernels store in the same window:
        each must receive the other buffer's *old* bytes."""
        n = 1 << 17              # large enough for runs to move as views
        fb = Fblas(width=WIDTH, engine_mode="certified")
        x0 = np.arange(n, dtype=np.float32)
        y0 = -x0 - 0.5
        x, y = fb.copy_to_device(x0, bank=0), fb.copy_to_device(y0, bank=1)
        fb.swap(x, y)
        np.testing.assert_array_equal(x.data, y0)
        np.testing.assert_array_equal(y.data, x0)


# ---------------------------------------------------------------------------
# Vectorisation guard
# ---------------------------------------------------------------------------

class Counting(np.ndarray):
    """ndarray that counts Python-level element/slice accesses, on
    itself and on every array derived from it."""

    hits = 0

    def __getitem__(self, index):
        Counting.hits += 1
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        Counting.hits += 1
        super().__setitem__(index, value)


def _counting(n, dtype=np.float32):
    return ((np.arange(n) % 11) - 5).astype(dtype).view(Counting)


def _block_hits(pattern, k):
    """Accesses one ``block(k, ins)`` makes on its (counting) inputs."""
    ins = [_counting(k * lanes, pattern.dtype or np.float32)
           for _ch, lanes in pattern.reads]
    Counting.hits = 0
    outs = pattern.block(k, ins)
    assert len(outs) == len(pattern.writes)
    for out, (_ch, lanes, _lat) in zip(outs, pattern.writes):
        assert len(out) == k * lanes
    return Counting.hits


def _chan(name="c"):
    return Channel(name, 64)


def _single_phase_patterns():
    """(label, pattern) for every executable single-loop pattern; data
    sources are counting arrays too, so a per-element read of the
    source shows up like one of the inputs."""
    n = 1 << 12
    mem = DramModel()
    src = mem.bind("src", _counting(n))
    dst = mem.bind("dst", _counting(n))
    w = WIDTH
    c = [_chan(f"c{i}") for i in range(4)]
    yield "memory.read", read_kernel(mem, src, c[0], w).pattern
    yield "memory.write", write_kernel(mem, dst, c[0], n, w).pattern
    backwards = np.arange(n)[::-1]
    yield "memory.gather", read_kernel(mem, src, c[0], w,
                                       order=backwards).pattern
    yield "memory.scatter", write_kernel(mem, dst, c[0], n, w,
                                         order=backwards).pattern
    yield "util.source", util.source_kernel(c[0], _counting(n), w).pattern
    # (out= collects boxed values one by one by design; the pattern's
    # own work is what is measured.)
    yield "util.sink", util.sink_kernel(c[0], n, w).pattern
    yield "util.forward", util.forward_kernel(c[0], c[1], n, w).pattern
    yield "util.duplicate", util.duplicate_kernel(
        c[0], (c[1], c[2]), n, w).pattern
    l1 = level1
    yield "scal", l1.scal_kernel(n, 2.0, c[0], c[1], w).pattern
    yield "copy", l1.copy_kernel(n, c[0], c[1], w).pattern
    yield "axpy", l1.axpy_kernel(n, 2.0, c[0], c[1], c[2], w).pattern
    yield "swap", l1.swap_kernel(n, c[0], c[1], c[2], c[3], w).pattern
    yield "rot", l1.rot_kernel(n, .6, .8, c[0], c[1], c[2], c[3], w).pattern
    yield "rotm", l1.rotm_kernel(
        n, [-1.0, 1.0, 2.0, 3.0, 4.0], c[0], c[1], c[2], c[3], w).pattern
    yield "dot", l1.dot_kernel(n, c[0], c[1], c[2], w).pattern
    yield "sdsdot", l1.sdsdot_kernel(n, 1.0, c[0], c[1], c[2], w).pattern
    yield "nrm2", l1.nrm2_kernel(n, c[0], c[1], w).pattern
    yield "asum", l1.asum_kernel(n, c[0], c[1], w).pattern
    yield "iamax", l1.iamax_kernel(n, c[0], c[1], w).pattern
    yield "batched_dot", l1.batched_dot_kernel(
        2, n // 2, c[0], c[1], c[2], w).pattern
    yield "batched_axpy", l1.batched_axpy_kernel(
        2, n // 2, [1.0, 2.0], c[0], c[1], c[2], w).pattern


def _phased_kernels(n=128):
    m = n                        # one tile: 32-iteration loads and stores
    w = WIDTH
    a, x, y, o = (_chan(name) for name in "axyo")
    yield "gemv_row_tiles", level2.gemv_row_tiles(
        n, m, 0.5, 0.25, a, x, y, o, n, m, w)
    yield "gemv_transposed_row_tiles", level2.gemv_transposed_row_tiles(
        n, m, 0.5, 0.25, a, x, y, o, n // 2, m // 2, w)
    yield "ger_kernel", level2.ger_kernel(n, m, 0.5, a, x, y, o, n, m, w)


class TestBlocksAreVectorised:
    @pytest.mark.parametrize(
        "label,pattern", list(_single_phase_patterns()),
        ids=[label for label, _p in _single_phase_patterns()])
    def test_accesses_do_not_grow_with_k(self, label, pattern):
        assert pattern.ready() >= 256 + 8
        small = _block_hits(pattern, 8)
        assert _block_hits(pattern, 256) <= small

    @pytest.mark.parametrize(
        "label,body", list(_phased_kernels()),
        ids=[label for label, _b in _phased_kernels()])
    def test_phase_accesses_do_not_grow_with_k(self, label, body):
        """Walk a tiled module through every phase of its run with
        ``block`` alone (after one scalar iteration to start it), at a
        small and a large ``k`` per phase."""
        op = body.send(None)
        assert isinstance(op, Pop)
        assert isinstance(body.send(list(_counting(op.count))), Clock)
        outer = body.pattern
        seen = set()
        while (phase := outer.phase()) is not None:
            seen.add((phase.reads, phase.writes))
            ready = phase.ready()
            if ready >= 24:
                # 5 and 19 are odd on purpose: partial rows and tiles.
                small = _block_hits(phase, 5)
                assert _block_hits(phase, 19) <= small, label
                ready -= 24
            if ready:
                _block_hits(phase, ready)       # finish the phase
        # Every port of the module was exercised by some phase, and the
        # union the analyzer sees is exactly those ports.
        assert {ch for r, _w in seen for ch, _l in r} == {
            ch for ch, _l in outer.reads}
        assert {ch for _r, ws in seen for ch, _l, _t in ws} == {
            ch for ch, _l, _t in outer.writes}
        with pytest.raises(StopIteration):
            body.send(None)

    @pytest.mark.parametrize("module", (pattern, memory, util, level1,
                                        level2))
    def test_no_block_loops_over_k(self, module):
        """No executor contains a ``for`` or a comprehension over a
        ``range`` derived from its window size: the iteration count ``k``
        of a ``block(k, ins)``, or the element count ``n`` of a
        :class:`~repro.fpga.pattern.SteadyLoop` body
        ``body(ins, base, n, lanes)``."""
        tree = ast.parse(inspect.getsource(module))

        def args(fn):
            return [a.arg for a in fn.args.args if a.arg != "self"]

        def role(fn):
            """The window-size argument of an executor, else None."""
            name = fn.name.lstrip("_").split("_")[-1]
            if name in ("block", "blk") and args(fn)[:1] == ["k"]:
                return "k"
            if name == "body" and len(args(fn)) == 4:
                return args(fn)[2]
            return None

        executors = [(node, role(node)) for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and role(node)]
        assert executors, f"no executors found in {module.__name__}"
        for fn, size in executors:
            tainted = {size}

            def mentions(node):
                return any(isinstance(n, ast.Name) and n.id in tainted
                           for n in ast.walk(node))

            grew = True
            while grew:
                grew = False
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Assign, ast.AugAssign,
                                         ast.AnnAssign)) \
                            and node.value is not None \
                            and mentions(node.value):
                        targets = (node.targets
                                   if isinstance(node, ast.Assign)
                                   else [node.target])
                        for name in (n for t in targets
                                     for n in ast.walk(t)
                                     if isinstance(n, ast.Name)):
                            if name.id not in tainted:
                                tainted.add(name.id)
                                grew = True
            loops = [node.iter for node in ast.walk(fn)
                     if isinstance(node, (ast.For, ast.comprehension))]
            for it in loops:
                over_range = (isinstance(it, ast.Call)
                              and isinstance(it.func, ast.Name)
                              and it.func.id == "range")
                assert not (over_range and mentions(it)), (
                    f"{module.__name__}.{fn.name} (line {fn.lineno}) loops "
                    f"over a range derived from {size}: {ast.unparse(it)}")

    def test_steady_kernels_have_one_body(self):
        """A ``block=`` executor beside a scalar loop is a second copy of
        the kernel that only the differential suites hold equal, so only
        :mod:`repro.fpga.pattern` itself, the grant-driven interface
        kernels of :mod:`repro.fpga.memory` and the tiled Level-2 matrix
        phases (``_Stream``) pass one to ``StaticPattern(...)``.  Every
        other steady kernel is a :class:`~repro.fpga.pattern.SteadyLoop`,
        declared by its body alone."""
        root = Path(pattern.__file__).resolve().parents[1]
        shared = {"fpga/pattern.py", "fpga/memory.py"}
        found = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text())
            streams = {id(arg) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "_Stream"
                       for arg in node.args}
            for node in ast.walk(tree):
                callee = getattr(node, "func", None)
                if (isinstance(node, ast.Call)
                        and "StaticPattern" in (getattr(callee, "id", None),
                                                getattr(callee, "attr", None))
                        and any(kw.arg == "block" for kw in node.keywords)):
                    found.append(rel)
                    assert rel in shared or (
                        rel == "blas/level2.py" and id(node) in streams), (
                        f"{rel}:{node.lineno} passes block= to "
                        f"StaticPattern; declare the kernel with "
                        f"repro.fpga.pattern.steady_kernel instead")
        assert {"fpga/memory.py", "blas/level2.py"} <= set(found)

    def test_matrix_blocks_build_no_index_or_staging_array(self):
        """The tiled matrix phases cut their window into views
        (``level2._pieces``); nothing in them enumerates bursts
        (``arange``), gathers or repeats an operand, or stages the
        window on a padded grid (``full`` / ``concatenate``)."""
        banned = {"arange", "indices", "take", "tile", "repeat", "full",
                  "concatenate", "stack", "pad"}
        tree = ast.parse(inspect.getsource(level2))
        blocks = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "matrix_block"]
        assert len(blocks) == 3
        for fn in blocks:
            used = {node.func.attr for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)}
            assert not used & banned, (fn.lineno, used & banned)


# ---------------------------------------------------------------------------
# Window temporaries
# ---------------------------------------------------------------------------

def _warm_dot(n=4096, width=8):
    fb = Fblas(width=width, engine_mode="certified")
    rng = np.random.default_rng(7)
    x, y = (fb.copy_to_device(_vec(rng, n)) for _ in range(2))
    want = fb.dot(x, y)                 # certifies, sizes the scratch
    return (lambda: fb.dot(x, y)), want


def _alloc_peak_kb(call):
    """tracemalloc peak of one warm call above its pre-call baseline —
    the benchmark's ``host_alloc_peak_kb``, minus the subprocess."""
    tracemalloc.start()
    try:
        call()                          # tracemalloc's own first-use cost
        gc.collect()
        gc.disable()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        gc.enable()
        tracemalloc.stop()


def _warm_level2(routine, n=512):
    """A warm certified ``routine`` on ``n`` x ``n`` float32, one tile."""
    fb = Fblas(width=WIDTH, engine_mode="certified", tile=n)
    rng = np.random.default_rng(22)
    a = fb.copy_to_device(_vec(rng, n, n), bank=0)
    x = fb.copy_to_device(_vec(rng, n), bank=1)
    y = fb.copy_to_device(_vec(rng, n), bank=2)
    call = {"gemv": lambda: fb.gemv(0.5, a, x, 0.25, y),
            "gemv_trans": lambda: fb.gemv(0.5, a, x, 0.25, y, trans=True),
            "ger": lambda: fb.ger(0.5, x, y, a)}[routine]
    call()                              # certifies, sizes the scratch
    return call


def _matrix_block_overhead(body):
    """Walk a tiled module with ``block`` alone; in its first matrix
    phase replay one window that starts inside a row and ends the
    phase.  Returns (bytes that window allocated beyond what it
    returned, its ``k``)."""
    op = body.send(None)
    assert isinstance(body.send([np.float32(1)] * op.count), Clock)
    measured = None
    while (phase := body.pattern.phase()) is not None:
        def run(k):
            ins = [np.ones(k * lanes, np.float32)
                   for _ch, lanes in phase.reads]
            return sum(out.nbytes for out in phase.block(k, ins))
        matrix = [ch.name for ch, _lanes in phase.reads] == ["a"]
        if not matrix or measured is not None:
            run(phase.ready())
            continue
        run(5)
        k = phase.ready()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            returned = run(k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # (``run`` allocates the inputs inside the traced region too.)
        measured = (peak - returned - k * WIDTH * 4, k)
    return measured


class TestWindowTemporaries:
    @pytest.mark.parametrize("routine,budget_kb", [
        ("gemv", 256), ("gemv_trans", 256), ("ger", 1400)])
    def test_warm_level2_call_allocates_no_gathered_operand(
            self, routine, budget_kb):
        """One 512 x 512 float32 tile is 1 024 kB.  Before the matrix
        phases met their x / y block as broadcast views a warm call
        peaked at 2 360 (``gemv``: two int64 index arrays, the gathered
        x, the product), 3 642 (``gemv(trans=True)``: a padded grid and
        its concatenation) and 2 920 kB (``ger``); now ~100, ~100 and
        ~1 170 kB — the last is GER's pushed result, which must own its
        memory.  The benchmark's bound on this is 5 %."""
        assert _alloc_peak_kb(_warm_level2(routine)) <= budget_kb

    @pytest.mark.parametrize(
        "label", [label for label, _b in _phased_kernels()])
    def test_matrix_block_allocates_nothing_that_grows_with_k(self, label):
        """Beyond what it returns, a matrix-phase window of ``k`` bursts
        allocates numpy's fixed broadcast-iteration buffer (32 kB) and
        under a quarter of one ``k``-long int64 index array: the
        products live in the per-thread scratch."""
        _matrix_block_overhead(dict(_phased_kernels(256))[label])   # warm
        extra, k = _matrix_block_overhead(dict(_phased_kernels(256))[label])
        assert k >= 8000
        assert extra <= 40_000 + k * 8 // 4, (extra, k)

    def test_warm_dot_allocates_no_window_sized_array(self):
        """4096 float32 elements are 16 kB per operand: the products,
        the tree levels or one concatenated input would each show up
        (90.8 kB before runs moved as views and the tree went in place,
        ~33 kB since); the benchmark's bound on this is 5 %."""
        call, _want = _warm_dot()
        assert _alloc_peak_kb(call) <= 45

    def test_watched_warm_dot_allocates_no_more_than_a_stepped_one(self):
        """Inside a full session (55.5 kB when every cycle was stepped):
        the window's occupancy series are run-length pairs, not one
        sample per cycle."""
        call, _want = _warm_dot()
        with telemetry.session():
            assert _alloc_peak_kb(call) <= 60

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("width", range(1, 17))
    def test_in_place_tree_rounds_like_the_scalar_tree(self, width, dtype):
        rng = np.random.default_rng(width)
        # Wide exponent range: every pairing rounds differently.
        mat = (rng.standard_normal((37, width))
               * 10.0 ** rng.integers(-6, 7, (37, width))).astype(dtype)
        want = [level1._tree_reduce(list(row), dtype) for row in mat]
        got = level1._tree_reduce_rows(mat.copy())
        assert got.dtype == dtype
        assert got.tobytes() == np.asarray(want, dtype=dtype).tobytes()

    def test_scratch_is_per_thread(self):
        """Two engines replaying windows at once must not share the
        temporaries: each thread's results equal the single-thread
        bytes, every time."""
        calls = [_warm_dot(n, 8) for n in (4096, 8192)]
        rounds, got, errors = 40, [[], []], []
        start = threading.Barrier(2)

        def work(i):
            call, _want = calls[i]
            try:
                start.wait(30)
                for _ in range(rounds):
                    got[i].append(call())
            except BaseException as exc:    # surfaced below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        for (_call, want), seen in zip(calls, got):
            assert seen == [want] * rounds
