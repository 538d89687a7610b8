"""Streaming Level-2 kernels.

Level-2 routines are the interesting case for tiling (Sec. III-B): the
matrix is streamed in 2D tiles and the *same* routine admits multiple
streaming implementations with different I/O complexities:

* :func:`gemv_row_tiles` — A in tiles by rows; y is reused on chip, x must
  be **replayed** ceil(N/T_N) times (Fig. 2, left);
* :func:`gemv_col_tiles` — A in tiles by columns; x is reused, y partial
  results are **replayed** (written out and re-read) ceil(M/T_M) times
  (Fig. 2, right);
* :func:`gemv_nontiled` — Listing 1 of the paper: no reuse at all, x is
  replayed for every row.

All kernels expect the matrix stream in the order produced by the matching
:class:`repro.streaming.tiling.MatrixSchedule` with row-major elements.

A tiled loop nest is not one steady loop but a *sequence* of statically
regular phases — load a block of y, load a block of x, stream a tile of
A, store a block of results.  :func:`gemv_row_tiles`,
:func:`gemv_transposed_row_tiles` and :func:`ger_kernel` are written
that way (:class:`_Sequencer`): a block load or store is a
:class:`~repro.fpga.pattern.SteadyLoop` declared by its block body
(:class:`_Load`, :class:`_Store`), a matrix phase is a scalar generator
loop and an executable :class:`~repro.fpga.pattern.StaticPattern`
sharing one cursor (:class:`_Stream`; stepping it through its block
body would cost about three times as much per event-tier iteration),
the kernel's outer pattern reports the ports and ``ready()`` of
whichever phase is current (the phase-pattern contract of
:mod:`repro.fpga.pattern`), and the bulk/certified engines replay
block loads, whole tiles and result stores alike as windows.  The matrix phase is only regular when the
vectorization width divides the tile width; otherwise those three fall
back, like the remaining modules (column tiles, double buffering,
loop-carried solves), to a *declare-only* pattern via :func:`_declared`:
the steady ports, rates and reordering windows (``defer``) are
documented for analysis, but ``ready()`` is pinned to 0 and the fast
path always falls back to exact event stepping.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from ..fpga.kernel import Clock, Pop, Push
from ..fpga.pattern import PatternedGenerator, StaticPattern, SteadyLoop
from .level1 import _burst_sums, _chunk, _temp, _tree_reduce


def _declared(reads=(), writes=(), defer=None):
    """Attach a declare-only port pattern to a level-2 module generator.

    ``reads``/``writes`` name the decorated function's channel
    parameters; lane counts come from its bound ``width`` argument, so
    the derivation is automatic for every call signature.  ``defer``
    optionally maps the bound arguments to the kernel's reordering
    window (elements consumed before the first push) for the FB403
    minimal-depth inference.
    """
    def deco(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def build(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            w = arg.get("width", 1)
            pat = StaticPattern.declare(
                reads=tuple((arg[name], w) for name in reads),
                writes=tuple((arg[name], w, None) for name in writes),
                defer=defer(arg) if defer is not None else 0)
            return PatternedGenerator(fn(*args, **kwargs), pat)
        return build
    return deco


class _Sequencer(PatternedGenerator):
    """Kernel body that runs a tiled module as a sequence of statically
    regular phases.

    ``program`` is a generator holding the module's control flow: it
    prepares a phase's cursor (``load.start(count)``), yields the phase
    object, and resumes — with the phase's results in place — once the
    phase has run to completion.  A phase object carries ``run()``, the
    stepped generator loop driven off its cursor, and ``pattern``, the
    :class:`StaticPattern` whose ``block`` fast-forwards the same
    cursor.  Both call :meth:`advance` the moment they consume the
    phase's last iteration — the stepped loop *before* that iteration's
    ``Clock`` — so at every cycle boundary :meth:`current` already names
    the phase of the next iteration.

    The engine resumes the current phase's loop directly (no delegating
    frame in between); when that loop returns — its cursor exhausted by
    its own last iteration, or by a ``block()`` while it was suspended —
    the phase current by then takes over within the same cycle.
    """

    __slots__ = ("phase", "_program")

    def __init__(self):
        super().__init__(None, None)
        self.phase = None

    def start(self, program, pattern):
        self._program = program
        self._gen = self._first()
        self.pattern = pattern
        return self

    def _first(self):
        self.advance()
        return
        yield

    def advance(self):
        self.phase = next(self._program, None)

    def current(self):
        ph = self.phase
        return ph.pattern if ph is not None else None

    def send(self, value):
        try:
            return self._gen.send(value)
        except StopIteration:
            if self.phase is None:
                raise
        # The phase current now always has iterations left.
        self._gen = self.phase.run()
        return next(self._gen)

    def __next__(self):
        return self.send(None)


class _Load(SteadyLoop):
    """Phase: pop ``count`` elements in W-wide cycles into a fresh
    ``buf`` (the program keeps the previous one)."""

    __slots__ = ("buf",)

    def __init__(self, ch, width, dtype, on_end=None):
        super().__init__("load", self._body, (ch,), width=width,
                         dtype=dtype, on_end=on_end)

    def start(self, count):
        self.buf = np.empty(count, dtype=self.dtype)
        self.total = count
        self.done = 0
        return self

    def _body(self, ins, base, n, _lanes):
        self.buf[base:base + n] = ins[0]
        return ()


class _Store(SteadyLoop):
    """Phase: push the array ``values`` in W-wide cycles."""

    __slots__ = ("values",)

    def __init__(self, ch, width, on_end=None):
        super().__init__("store", self._body, writes=(ch,), width=width,
                         on_end=on_end)

    def start(self, values):
        self.values = values
        self.total = len(values)
        self.done = 0
        return self

    def _body(self, _ins, base, n, _lanes):
        return [self.values[base:base + n]]


class _Stream:
    """Phase: a module's own matrix loop (scalar ``run`` + pattern).

    The scalar loop stays beside the vectorised ``block``: on the event
    tier, where every iteration of A is stepped, it costs about a third
    of a one-burst ``block`` call."""

    __slots__ = ("run", "pattern")

    def __init__(self, run, pattern):
        self.run = run
        self.pattern = pattern


def _pop_block(ch, count, width, dtype):
    """Pop ``count`` elements in W-wide cycles; return them as an array.

    This is a sub-generator used via ``yield from``; each W-chunk costs one
    cycle, matching an interface that delivers W elements per clock.
    """
    load = _Load(ch, width, dtype).start(count)
    yield from load.run()
    return load.buf


def _push_block(ch, values, width):
    """Push an array of values in W-wide cycles (sub-generator)."""
    yield from _Store(ch, width).start(values).run()


def _pieces(a, pos, period, width):
    """Cut a popped run of ``width``-wide bursts, the first of which is
    burst ``pos`` of a stream of ``period``-burst rows, where the row
    structure changes: the rest of the row in progress, the whole rows,
    a partial last row.

    Yields ``(row, off, run)`` per non-empty piece: ``run`` is a
    ``(rows, per, width)`` *view* of ``a`` holding bursts ``off`` to
    ``off + per`` of rows ``row`` to ``row + rows``, so the on-chip
    block it meets is a broadcast view too — no per-burst index, no
    gathered operand.
    """
    a = a.reshape(-1, width)
    k = len(a)
    head = min(k, -pos % period)
    body = k - (k - head) % period
    for start, run in ((pos, a[:head]), (pos + head, a[head:body]),
                       (pos + body, a[body:])):
        if len(run):
            yield (*divmod(start, period),
                   run.reshape(-1, min(len(run), period), width))


class _TileCursor:
    """Matrix-phase loop state of a tiled module, shared by its scalar
    loop and its pattern's ``block()``; the module's program sets what
    it uses before every matrix phase: ``tj`` the tile column (GEMV^T),
    ``r`` the row within the tile, ``done`` the elements consumed in
    that row; ``row_acc`` the row's partial sum (GEMV), ``acc`` the
    on-chip accumulators (``tile_n`` of them, ``m`` for GEMV^T), ``xs``
    / ``ys`` the current x / y block, ``axs`` alpha times ``xs`` (GER)."""

    __slots__ = ("tj", "r", "done", "row_acc", "acc", "xs", "axs", "ys")


def gemv_row_tiles(n, m, alpha, beta, ch_a, ch_x, ch_y, ch_out,
                   tile_n, tile_m, width=1, dtype=np.float32):
    """GEMV y = alpha*A*x + beta*y, A (N x M) in tiles by rows.

    Stream contract: ``ch_a`` carries A in T_N x T_M tiles by rows with
    row-major elements; ``ch_x`` carries x in T_M blocks, the whole vector
    replayed ceil(N/T_N) times; ``ch_y`` carries y once; ``ch_out``
    receives y' in T_N blocks.  A block of y is reused on chip across an
    entire row of tiles.

    When ``width`` divides ``tile_m`` the matrix phase is statically
    regular (one W-wide burst of A per cycle) and the module is a
    sequence of executable phases — load y, then per tile load x and
    stream A, then store y' — which the bulk/certified engines replay
    arithmetically with the same adder-tree and sequential accumulation
    rounding as the scalar loop.
    """
    _check_tiles(n, tile_n, m, tile_m)
    alpha = dtype(alpha)
    beta = dtype(beta)
    st = _TileCursor()
    seq = _Sequencer()
    advance = seq.advance
    load_y = _Load(ch_y, width, dtype, advance)
    load_x = _Load(ch_x, width, dtype, advance)
    store = _Store(ch_out, width, advance)
    cpr = tile_m // width               # A-bursts per row

    def matrix_run():
        while st.r < tile_n:
            c = min(width, tile_m - st.done)
            avals = _chunk((yield Pop(ch_a, c)), c)
            st.row_acc = st.row_acc + _tree_reduce(
                [dtype(a) * x
                 for a, x in zip(avals, st.xs[st.done:st.done + c])],
                dtype)
            st.done += c
            if st.done == tile_m:
                st.acc[st.r] = st.acc[st.r] + st.row_acc
                st.row_acc = dtype(0)
                st.done = 0
                st.r += 1
                if st.r == tile_n:
                    seq.advance()
            yield Clock()

    def matrix_ready():
        return (tile_n - st.r) * cpr - st.done // width

    def matrix_block(k, ins):
        xs = st.xs.reshape(cpr, width)
        pos = st.r * cpr + st.done // width
        for r, off, run in _pieces(ins[0], pos, cpr, width):
            rows, per, _w = run.shape
            sums = _burst_sums(np.multiply, (run, xs[off:off + per]),
                               width).reshape(rows, per)
            # Left-fold the piece's rows at once, in place, each from the
            # row's partial sum (the scalar loop's +0.0 on a fresh row):
            # np.add.accumulate is elementwise-sequential like its adds.
            np.add(st.row_acc, sums[:, 0], out=sums[:, 0])
            totals = np.add.accumulate(sums, axis=1, out=sums)[:, -1]
            if off + per == cpr:
                st.acc[r:r + rows] += totals
                st.row_acc = dtype(0)
            else:
                st.row_acc = totals[0]
        st.r, b = divmod(pos + k, cpr)
        st.done = b * width
        if st.r == tile_n:
            seq.advance()
        return []

    matrix = _Stream(matrix_run, StaticPattern(
        reads=((ch_a, width),), dtype=dtype,
        ready=matrix_ready, block=matrix_block))

    def program():
        for _ti in range(n // tile_n):
            yield load_y.start(tile_n)
            ys = load_y.buf
            st.acc = np.zeros(tile_n, dtype=dtype)
            for _tj in range(m // tile_m):
                yield load_x.start(tile_m)
                st.xs = load_x.buf
                st.r = 0
                st.done = 0
                st.row_acc = dtype(0)
                yield matrix
            yield store.start(alpha * st.acc + beta * ys)

    union = dict(
        reads=((ch_a, width), (ch_x, width), (ch_y, width)),
        writes=((ch_out, width, None),),
        read_totals=(n * m, m * (n // tile_n), n),
        write_totals=(n,),
        defer=m * tile_n)               # a full row of tiles of A
    if tile_m % width:
        # Ragged bursts inside a row: not statically regular; keep the
        # ports and reordering window visible to analysis only.
        pat = StaticPattern.declare(**union)
    else:
        pat = StaticPattern.phased(seq.current, dtype=dtype, **union)
    return seq.start(program(), pat)


@_declared(reads=("ch_a", "ch_x", "ch_y"), writes=("ch_out",),
           defer=lambda a: a["m"] * a["tile_n"])
def gemv_row_tiles_colmajor(n, m, alpha, beta, ch_a, ch_x, ch_y, ch_out,
                            tile_n, tile_m, width=1, dtype=np.float32):
    """GEMV, tiles by rows, with *column-major* elements inside each tile.

    The fourth corner of the Sec. III-B mode matrix: tiles are visited by
    rows (y reused, x replayed — same I/O complexity as
    :func:`gemv_row_tiles`) but each tile streams column by column, the
    order a producer like a transposed GER would emit.  Within a tile the
    kernel applies one x element to a column of partial sums per burst,
    so the accumulator is W-banked over rows instead of reduced over
    columns.
    """
    _check_tiles(n, tile_n, m, tile_m)
    alpha = dtype(alpha)
    beta = dtype(beta)
    for ti in range(n // tile_n):
        ys = yield from _pop_block(ch_y, tile_n, width, dtype)
        acc = [dtype(0)] * tile_n
        for tj in range(m // tile_m):
            xs = yield from _pop_block(ch_x, tile_m, width, dtype)
            for c in range(tile_m):
                xc = dtype(xs[c])
                done = 0
                while done < tile_n:
                    cnt = min(width, tile_n - done)
                    avals = _chunk((yield Pop(ch_a, cnt)), cnt)
                    for i, a in enumerate(avals):
                        acc[done + i] = acc[done + i] + dtype(a) * xc
                    yield Clock()
                    done += cnt
        result = [alpha * a + beta * dtype(y) for a, y in zip(acc, ys)]
        yield from _push_block(ch_out, result, width)


@_declared(reads=("ch_a", "ch_x", "ch_y"), writes=("ch_out",),
           defer=lambda a: a["tile_n"] * a["tile_m"])
def gemv_col_tiles(n, m, alpha, beta, ch_a, ch_x, ch_y, ch_out,
                   tile_n, tile_m, width=1, dtype=np.float32):
    """GEMV with A (N x M) in tiles by columns (Fig. 2, right).

    A block of x is reused on chip across an entire column of tiles; the
    partial y results stream out after every column of tiles and are
    re-consumed on the next pass.  Stream contract: ``ch_a`` carries A in
    tiles by columns (row-major elements); ``ch_x`` carries x exactly once
    (M elements); ``ch_y`` must deliver the beta-scaled initial y on the
    first pass and the previous pass's partials afterwards — in isolation
    that replay goes through DRAM, in a composition through a feedback
    channel of depth >= N (see :func:`y_replay_router`).  ``ch_out``
    receives N elements per pass; only the final pass's values are the
    result (the router separates them).
    """
    _check_tiles(n, tile_n, m, tile_m)
    alpha = dtype(alpha)
    beta = dtype(beta)
    col_tiles_count = m // tile_m
    for tj in range(col_tiles_count):
        xs = yield from _pop_block(ch_x, tile_m, width, dtype)
        for ti in range(n // tile_n):
            ys = yield from _pop_block(ch_y, tile_n, width, dtype)
            out = []
            for r in range(tile_n):
                row_acc = dtype(0)
                done = 0
                while done < tile_m:
                    c = min(width, tile_m - done)
                    avals = _chunk((yield Pop(ch_a, c)), c)
                    row_acc = row_acc + _tree_reduce(
                        [dtype(a) * dtype(x)
                         for a, x in zip(avals, xs[done:done + c])], dtype)
                    yield Clock()
                    done += c
                base = beta * dtype(ys[r]) if tj == 0 else dtype(ys[r])
                out.append(base + alpha * row_acc)
            yield from _push_block(ch_out, out, width)


@_declared(reads=("ch_a", "ch_x", "ch_y"), writes=("ch_out",),
           defer=lambda a: a["m"] * a["tile_n"])
def gemv_row_tiles_db(n, m, alpha, beta, ch_a, ch_x, ch_y, ch_out,
                      tile_n, tile_m, width=1, dtype=np.float32):
    """GEMV, tiles by rows, with double-buffered x blocks.

    :func:`gemv_row_tiles` spends T_M/W dedicated cycles loading each x
    block before touching the tile.  Real FBLAS designs double-buffer: the
    next block streams in *during* the current tile's T_N*T_M/W compute
    cycles, so x fetches cost no extra time (Sec. IV-B: "new elements for
    x are required every T_N*T_M/W clock cycles").  Same stream contract
    as :func:`gemv_row_tiles`; only the cycle count differs, by the factor
    (1 + 1/T_N) the ablation benchmark measures.
    """
    _check_tiles(n, tile_n, m, tile_m)
    alpha = dtype(alpha)
    beta = dtype(beta)
    tiles_per_row = m // tile_m
    total_tiles = (n // tile_n) * tiles_per_row

    # Fill the first buffer up front (the only non-overlapped fetch).
    x_next = yield from _pop_block(ch_x, tile_m, width, dtype)
    tile_idx = 0
    for ti in range(n // tile_n):
        ys = yield from _pop_block(ch_y, tile_n, width, dtype)
        acc = [dtype(0)] * tile_n
        for tj in range(tiles_per_row):
            xs = x_next
            x_next = []
            prefetch_left = tile_m if tile_idx + 1 < total_tiles else 0
            for r in range(tile_n):
                row_acc = dtype(0)
                done = 0
                while done < tile_m:
                    c = min(width, tile_m - done)
                    avals = _chunk((yield Pop(ch_a, c)), c)
                    if prefetch_left > 0:
                        pc = min(width, prefetch_left)
                        pvals = _chunk((yield Pop(ch_x, pc)), pc)
                        x_next.extend(pvals)
                        prefetch_left -= pc
                    row_acc = row_acc + _tree_reduce(
                        [dtype(a) * dtype(x)
                         for a, x in zip(avals, xs[done:done + c])], dtype)
                    yield Clock()
                    done += c
                acc[r] = acc[r] + row_acc
            # Tail: tiny tiles may not offer enough compute cycles to hide
            # the whole fetch; finish it explicitly.
            while prefetch_left > 0:
                pc = min(width, prefetch_left)
                pvals = _chunk((yield Pop(ch_x, pc)), pc)
                x_next.extend(pvals)
                prefetch_left -= pc
                yield Clock()
            tile_idx += 1
        result = [alpha * a + beta * dtype(y) for a, y in zip(acc, ys)]
        yield from _push_block(ch_out, result, width)


@_declared(reads=("ch_from_gemv",), writes=("ch_feedback", "ch_final"))
def y_replay_router(n, passes, ch_from_gemv, ch_feedback, ch_final, width=1):
    """Route the col-tiles GEMV's per-pass partials.

    Passes 0..passes-2 loop back into ``ch_feedback`` (which must have
    depth >= N to hold a full intermediate y); the final pass goes to
    ``ch_final``.  In a real design this is either a DRAM round trip (the
    2NM/T_M I/O term) or an on-chip loop when N is known and small.
    """
    for p in range(passes):
        target = ch_final if p == passes - 1 else ch_feedback
        done = 0
        while done < n:
            c = min(width, n - done)
            vals = _chunk((yield Pop(ch_from_gemv, c)), c)
            yield Push(target, tuple(vals), None)
            yield Clock()
            done += c


@_declared(reads=("ch_a", "ch_x", "ch_y"), writes=("ch_out",),
           defer=lambda a: a["m"])
def gemv_nontiled(n, m, alpha, beta, ch_a, ch_x, ch_y, ch_out,
                  width=1, dtype=np.float32):
    """Non-tiled GEMV (Listing 1): x replayed for every row of A.

    Serves as the ablation baseline showing why tiling cuts the memory
    bandwidth requirement (Sec. IV-B): this version needs W elements of A
    *and* W elements of x per cycle.
    """
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    alpha = dtype(alpha)
    beta = dtype(beta)
    for i in range(n):
        yv = yield Pop(ch_y, 1)
        acc = dtype(0)
        done = 0
        while done < m:
            c = min(width, m - done)
            avals = _chunk((yield Pop(ch_a, c)), c)
            xvals = _chunk((yield Pop(ch_x, c)), c)
            acc = acc + _tree_reduce(
                [dtype(a) * dtype(x) for a, x in zip(avals, xvals)], dtype)
            yield Clock()
            done += c
        yield Push(ch_out, (beta * dtype(yv) + alpha * acc,), None)
        yield Clock()


def gemv_transposed_row_tiles(n, m, alpha, beta, ch_a, ch_x, ch_y, ch_out,
                              tile_n, tile_m, width=1, dtype=np.float32):
    """GEMV^T s = alpha*A^T*x + beta*s, with A (N x M) in tiles by ROWS.

    This is the schedule trick that makes BICG stream A once (Sec. V-A):
    the transposed routine consumes the *same* physical stream of A as the
    non-transposed one, accumulating into an M-element on-chip buffer
    (costing M*sizeof(elem) bytes of M20K) instead of replaying its
    output.  ``ch_x`` carries the N-element input once, in T_N blocks;
    ``ch_y`` the M-element addend once; ``ch_out`` the M-element result.

    Like :func:`gemv_row_tiles`, when ``width`` divides ``tile_m`` the
    module is a sequence of executable phases — per row of tiles load x
    and stream A, then load y and store the result — replayed by the
    bulk/certified engines with the scalar loop's exact accumulation
    order.
    """
    _check_tiles(n, tile_n, m, tile_m)
    alpha = dtype(alpha)
    beta = dtype(beta)
    st = _TileCursor()
    seq = _Sequencer()
    advance = seq.advance
    load_x = _Load(ch_x, width, dtype, advance)
    load_y = _Load(ch_y, width, dtype, advance)
    store = _Store(ch_out, width, advance)
    cpr = tile_m // width               # A-bursts per row segment
    bpt = tile_n * cpr                  # A-bursts per tile
    col_tiles = m // tile_m

    def matrix_run():
        while st.tj < col_tiles:
            c = min(width, tile_m - st.done)
            avals = _chunk((yield Pop(ch_a, c)), c)
            xr = st.xs[st.r]
            col0 = st.tj * tile_m + st.done
            for j, a in enumerate(avals):
                st.acc[col0 + j] = st.acc[col0 + j] + dtype(a) * xr
            st.done += c
            if st.done == tile_m:
                st.done = 0
                st.r += 1
                if st.r == tile_n:
                    st.r = 0
                    st.tj += 1
                    if st.tj == col_tiles:
                        seq.advance()
            yield Clock()

    def matrix_ready():
        return (col_tiles - st.tj) * bpt - st.r * cpr - st.done // width

    def matrix_block(k, ins):
        s = st.acc.reshape(col_tiles, tile_m)
        pos = st.tj * bpt + st.r * cpr + st.done // width
        # Whole tiles fold together; a partial tile is cut again into
        # rows (cutting whole tiles hands them back as their rows).
        for tj, at, tile_run in _pieces(ins[0], pos, bpt, width):
            tiles = len(tile_run)
            for r, off, run in _pieces(tile_run, at, cpr, width):
                shape = tiles, len(run) // tiles, run.shape[1] * width
                prod = _temp(run.size, run.dtype).reshape(shape)
                np.multiply(run.reshape(shape),
                            st.xs[r:r + shape[1], None], out=prod)
                # Left-fold the rows into their tile's s segment, in place
                # on the products (as :func:`gemv_row_tiles` folds bursts).
                seg = s[tj:tj + tiles, off * width:off * width + shape[2]]
                np.add(seg, prod[:, 0], out=prod[:, 0])
                seg[...] = np.add.accumulate(prod, axis=1, out=prod)[:, -1]
        st.tj, at = divmod(pos + k, bpt)
        st.r, b = divmod(at, cpr)
        st.done = b * width
        if st.tj == col_tiles:
            seq.advance()
        return []

    matrix = _Stream(matrix_run, StaticPattern(
        reads=((ch_a, width),), dtype=dtype,
        ready=matrix_ready, block=matrix_block))

    def program():
        st.acc = np.zeros(m, dtype=dtype)
        for _ti in range(n // tile_n):
            yield load_x.start(tile_n)
            st.xs = load_x.buf
            st.tj = 0
            st.r = 0
            st.done = 0
            yield matrix
        yield load_y.start(m)
        yield store.start(alpha * st.acc + beta * load_y.buf)

    union = dict(
        reads=((ch_a, width), (ch_x, width), (ch_y, width)),
        writes=((ch_out, width, None),),
        read_totals=(n * m, n, m), write_totals=(m,),
        defer=n * m)                    # the whole matrix before pushing
    if tile_m % width:
        pat = StaticPattern.declare(**union)
    else:
        pat = StaticPattern.phased(seq.current, dtype=dtype, **union)
    return seq.start(program(), pat)


def ger_kernel(n, m, alpha, ch_a, ch_x, ch_y, ch_out,
               tile_n, tile_m, width=1, dtype=np.float32):
    """GER A' = A + alpha*x*y^T, A in tiles by rows (map-class routine).

    ``ch_x`` carries x in T_N blocks, once (each block reused across its
    row of tiles); ``ch_y`` carries y in T_M blocks, the whole vector
    replayed ceil(N/T_N) times; ``ch_out`` receives A' in the same tile
    order as ``ch_a``.

    When ``width`` divides ``tile_m`` each tile's matrix phase is
    statically regular — one W-wide burst of A in and one W-wide burst
    of A' out per cycle — so the module is a sequence of executable
    phases (load x per row of tiles, then per tile load y and stream
    the tile) that the bulk/certified engines replay arithmetically.
    """
    _check_tiles(n, tile_n, m, tile_m)
    alpha = dtype(alpha)
    st = _TileCursor()
    seq = _Sequencer()
    advance = seq.advance
    load_x = _Load(ch_x, width, dtype, advance)
    load_y = _Load(ch_y, width, dtype, advance)
    cpr = tile_m // width               # A-bursts per row

    def matrix_run():
        while st.r < tile_n:
            c = min(width, tile_m - st.done)
            avals = _chunk((yield Pop(ch_a, c)), c)
            xr = st.axs[st.r]
            yield Push(ch_out, tuple(
                dtype(a) + xr * y
                for a, y in zip(avals, st.ys[st.done:st.done + c])), None)
            st.done += c
            if st.done == tile_m:
                st.done = 0
                st.r += 1
                if st.r == tile_n:
                    seq.advance()
            yield Clock()

    def matrix_ready():
        return (tile_n - st.r) * cpr - st.done // width

    def matrix_block(k, ins):
        ys = st.ys.reshape(cpr, width)
        pos = st.r * cpr + st.done // width
        # Each burst is an independent elementwise map: A + (alpha*x_r)
        # times the matching y segment — same products and adds as the
        # scalar loop.  The result is pushed, so it owns its memory.
        out = np.empty(k * width, dtype=dtype)
        lo = 0
        for r, off, run in _pieces(ins[0], pos, cpr, width):
            rows, per, _w = run.shape
            res = out[lo:lo + run.size].reshape(run.shape)
            np.multiply(st.axs[r:r + rows, None, None], ys[off:off + per],
                        out=res)
            np.add(run, res, out=res)
            lo += run.size
        st.r, b = divmod(pos + k, cpr)
        st.done = b * width
        if st.r == tile_n:
            seq.advance()
        return [out]

    matrix = _Stream(matrix_run, StaticPattern(
        reads=((ch_a, width),), writes=((ch_out, width, None),),
        dtype=dtype, ready=matrix_ready, block=matrix_block))

    def program():
        for _ti in range(n // tile_n):
            yield load_x.start(tile_n)
            st.axs = alpha * load_x.buf
            for _tj in range(m // tile_m):
                yield load_y.start(tile_m)
                st.ys = load_y.buf
                st.r = 0
                st.done = 0
                yield matrix

    union = dict(
        reads=((ch_a, width), (ch_x, width), (ch_y, width)),
        writes=((ch_out, width, None),),
        read_totals=(n * m, n, m * (n // tile_n)),
        write_totals=(n * m,))
    if tile_m % width:
        pat = StaticPattern.declare(**union)
    else:
        pat = StaticPattern.phased(seq.current, dtype=dtype, **union)
    return seq.start(program(), pat)


@_declared(reads=("ch_a", "ch_x_row", "ch_x_col"), writes=("ch_out",))
def syr_kernel(n, alpha, ch_a, ch_x_row, ch_x_col, ch_out,
               tile_n, tile_m, width=1, dtype=np.float32):
    """SYR A' = A + alpha*x*x^T on generic dense storage.

    Implemented as GER with both vector operands fed from x: the interface
    layer streams x twice (``ch_x_row`` in T_N blocks once, ``ch_x_col``
    in T_M blocks replayed), as the paper's generic-routine fallback for
    specialized matrix types prescribes.
    """
    yield from ger_kernel(n, n, alpha, ch_a, ch_x_row, ch_x_col, ch_out,
                          tile_n, tile_m, width, dtype)


@_declared(reads=("ch_a", "ch_x_row", "ch_y_col", "ch_y_row", "ch_x_col"), writes=("ch_out",))
def syr2_kernel(n, alpha, ch_a, ch_x_row, ch_y_col, ch_y_row, ch_x_col,
                ch_out, tile_n, tile_m, width=1, dtype=np.float32):
    """SYR2 A' = A + alpha*(x*y^T + y*x^T) on generic dense storage.

    Row-block streams (x then y, T_N blocks, once) and column-block
    streams (y then x, T_M blocks, replayed) arrive on four channels.
    """
    _check_tiles(n, tile_n, n, tile_m)
    alpha = dtype(alpha)
    for ti in range(n // tile_n):
        xs = yield from _pop_block(ch_x_row, tile_n, width, dtype)
        ys_row = yield from _pop_block(ch_y_row, tile_n, width, dtype)
        for tj in range(n // tile_m):
            ys = yield from _pop_block(ch_y_col, tile_m, width, dtype)
            xs_col = yield from _pop_block(ch_x_col, tile_m, width, dtype)
            for r in range(tile_n):
                xr = alpha * dtype(xs[r])
                yr = alpha * dtype(ys_row[r])
                done = 0
                while done < tile_m:
                    c = min(width, tile_m - done)
                    avals = _chunk((yield Pop(ch_a, c)), c)
                    yield Push(ch_out, tuple(
                        dtype(a) + xr * dtype(yv) + yr * dtype(xv)
                        for a, yv, xv in zip(avals, ys[done:done + c],
                                             xs_col[done:done + c])), None)
                    yield Clock()
                    done += c


@_declared(reads=("ch_a", "ch_b"), writes=("ch_out",),
           defer=lambda a: a["n"])
def trsv_kernel(n, ch_a, ch_b, ch_out, width=1, dtype=np.float32,
                lower=True, unit_diag=False):
    """TRSV: solve A x = b for triangular A streamed row by row.

    A arrives as the full N x N generic storage, rows in solve order
    (top-down for lower, bottom-up for upper); computed x values stay in
    an on-chip buffer, so each row's partial dot product uses only
    already-solved entries.  The loop-carried dependency makes this the
    map-reduce routine with the worst initiation interval in real HLS; the
    streamed version still processes W matrix elements per cycle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = [dtype(0)] * n
    rows = range(n) if lower else range(n - 1, -1, -1)
    for i in rows:
        bi = yield Pop(ch_b, 1)
        acc = dtype(0)
        row = []
        done = 0
        while done < n:
            c = min(width, n - done)
            avals = _chunk((yield Pop(ch_a, c)), c)
            row.extend(dtype(a) for a in avals)
            yield Clock()
            done += c
        js = range(i) if lower else range(i + 1, n)
        for j in js:
            acc = acc + row[j] * x[j]
        xi = dtype(bi) - acc
        if not unit_diag:
            xi = xi / row[i]
        x[i] = xi
        yield Push(ch_out, (xi,), None)
        yield Clock()


def _check_tiles(n, tile_n, m, tile_m):
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if n % tile_n or m % tile_m:
        raise ValueError(
            f"matrix {n}x{m} not divisible into {tile_n}x{tile_m} tiles")


# ---------------------------------------------------------------------------
# Sharded multi-lane GEMV (HBM many-channel placement)
# ---------------------------------------------------------------------------

def shard_row_tiles(n, tile_n, lanes):
    """Round-robin row-tile partition: lane ``l`` owns global row tiles
    ``l, l+lanes, l+2*lanes, ...``.

    Returns one list of global row-tile indices per lane.  Striping (not
    contiguous blocks) keeps the lanes' workloads balanced for any tile
    count and makes the merge schedule a plain round-robin.
    """
    if n < 1 or tile_n < 1 or n % tile_n:
        raise ValueError(f"n={n} not divisible into {tile_n}-row tiles")
    tiles = n // tile_n
    if not (1 <= lanes <= tiles):
        raise ValueError(f"lanes={lanes} must be in [1, {tiles}] "
                         f"(one row tile per lane minimum)")
    return [list(range(lane, tiles, lanes)) for lane in range(lanes)]


def shard_gemv_streams(a, y, tile_n, tile_m, lanes, dtype=np.float32):
    """Host-side pre-sharding for :func:`gemv_row_tiles_sharded`.

    Returns ``(a_streams, y_streams)``: per lane, the flat A tile stream
    (the lane's row tiles in ascending global order, each as a full row
    of T_N x T_M tiles with row-major elements — exactly the
    :func:`gemv_row_tiles` contract for the lane's sub-matrix) and the
    matching y blocks.  Each lane's stream is what gets bound to that
    lane's memory channel.
    """
    a = np.asarray(a, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    n, m = a.shape
    _check_tiles(n, tile_n, m, tile_m)
    parts = shard_row_tiles(n, tile_n, lanes)
    a_streams, y_streams = [], []
    for tiles in parts:
        blocks = [a[t * tile_n:(t + 1) * tile_n,
                    tj * tile_m:(tj + 1) * tile_m].reshape(-1)
                  for t in tiles for tj in range(m // tile_m)]
        a_streams.append(np.concatenate(blocks))
        y_streams.append(np.concatenate(
            [y[t * tile_n:(t + 1) * tile_n] for t in tiles]))
    return a_streams, y_streams


def gemv_row_tiles_sharded(n, m, alpha, beta, lane_ports, ch_out,
                           tile_n, tile_m, width=1, dtype=np.float32):
    """Multi-lane GEMV: row tiles striped across lanes, merged in order.

    ``lane_ports`` is one ``(ch_a, ch_x, ch_y, ch_part)`` tuple per lane.
    Each lane runs an unmodified :func:`gemv_row_tiles` over its share of
    row tiles (so every output row's arithmetic — order, rounding, adder
    tree — is exactly the single-lane computation), pushing its y' blocks
    into ``ch_part``; a :func:`~repro.fpga.util.merge_kernel` reassembles
    the T_N blocks into global row order on ``ch_out``.  The result is
    bitwise identical to the single-lane kernel while each lane's A
    stream can live in (and draw bandwidth from) its own memory channel.

    Returns ``(lane_gens, merge_gen)``; register each as a kernel.
    """
    from ..fpga.util import merge_kernel

    lanes = len(lane_ports)
    _check_tiles(n, tile_n, m, tile_m)
    parts = shard_row_tiles(n, tile_n, lanes)
    lane_gens = []
    for (ch_a, ch_x, ch_y, ch_part), tiles in zip(lane_ports, parts):
        lane_gens.append(gemv_row_tiles(
            len(tiles) * tile_n, m, alpha, beta, ch_a, ch_x, ch_y,
            ch_part, tile_n, tile_m, width, dtype))
    schedule = [(t % lanes, tile_n) for t in range(n // tile_n)]
    merge = merge_kernel([p[3] for p in lane_ports], ch_out, schedule,
                         width)
    return lane_gens, merge


def build_sharded_gemv_engine(a, x, y, alpha=1.0, beta=1.0, *, lanes,
                              tile_n, tile_m, width=1, mode="event",
                              dtype=np.float32, mem=None, placements=None,
                              part_depth=None, share_x=False,
                              max_cycles=None):
    """Wire a complete sharded GEMV design and return ``(engine, out)``.

    With ``mem`` (a :class:`~repro.fpga.memory.DramModel`), each lane's
    pre-sharded A stream is bound as its own DRAM buffer — placed on
    channel ``lane % num_channels`` unless ``placements`` (one
    :class:`~repro.fpga.memory.Placement` per lane) says otherwise — and
    streamed through the patterned linear read kernel, so per-channel
    bandwidth limits throttle each lane independently.  Without ``mem``,
    A is generated on chip (no DRAM term), the Sec. VI-B scaling setup.

    ``share_x`` feeds every lane's x replay from one duplicated source —
    the reconvergent shape where an undersized ``part_depth`` (the
    lane-partial merge channels) provably deadlocks: a lane that runs
    ahead fills its partial channel, the shared x duplicator blocks on
    that lane, and the lane the merge is actually waiting on starves.
    ``run(engine)`` is left to the caller so observers can be attached.
    """
    from ..fpga.engine import Engine
    from ..fpga.memory import read_kernel
    from ..fpga.util import duplicate_kernel, sink_kernel, source_kernel

    a = np.asarray(a, dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    n, m = a.shape
    parts = shard_row_tiles(n, tile_n, lanes)
    if share_x and len({len(p) for p in parts}) != 1:
        raise ValueError("share_x requires the row-tile count to divide "
                         "evenly across lanes")
    a_streams, y_streams = shard_gemv_streams(a, y, tile_n, tile_m, lanes,
                                              dtype)
    depth = max(8 * width, 2 * tile_m)
    if part_depth is None:
        part_depth = max(2 * tile_n, width)

    eng = Engine(mode=mode, memory=mem)
    lane_ports = []
    for lane in range(lanes):
        lane_ports.append((eng.channel(f"a{lane}", depth),
                           eng.channel(f"x{lane}", depth),
                           eng.channel(f"y{lane}", depth),
                           eng.channel(f"part{lane}", part_depth)))
    ch_out = eng.channel("out", depth)

    for lane, (ca, cx, cy, _) in enumerate(lane_ports):
        replay = len(parts[lane])
        if mem is not None:
            pl = placements[lane] if placements is not None else None
            bank = None if pl is not None else lane % mem.num_banks
            buf = mem.bind(f"A{lane}", a_streams[lane], bank=bank,
                           placement=pl)
            eng.add_kernel(f"readA{lane}", read_kernel(mem, buf, ca, width),
                           latency=2)
        else:
            eng.add_kernel(f"srcA{lane}",
                           source_kernel(ca, a_streams[lane], width),
                           latency=2)
        if not share_x:
            eng.add_kernel(f"srcx{lane}",
                           source_kernel(cx, x, width, repeat=replay),
                           latency=2)
        eng.add_kernel(f"srcy{lane}",
                       source_kernel(cy, y_streams[lane], width), latency=2)
    if share_x:
        cx0 = eng.channel("xroot", depth)
        replay = len(parts[0])
        eng.add_kernel("srcx", source_kernel(cx0, x, width, repeat=replay),
                       latency=2)
        eng.add_kernel("dupx", duplicate_kernel(
            cx0, [p[1] for p in lane_ports], m * replay, width))

    lane_gens, merge = gemv_row_tiles_sharded(
        n, m, alpha, beta, lane_ports, ch_out, tile_n, tile_m, width, dtype)
    for lane, g in enumerate(lane_gens):
        eng.add_kernel(f"gemv{lane}", g, latency=8)
    eng.add_kernel("merge", merge, latency=2)
    out: list = []
    eng.add_kernel("sink", sink_kernel(ch_out, n, width, out))
    return eng, out
