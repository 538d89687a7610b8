"""Streaming Level-1 kernels.

Each function builds a generator implementing one BLAS Level-1 routine
against the simulator's channel protocol (:mod:`repro.fpga.kernel`),
mirroring the structure of the paper's HLS listings: an outer loop
strip-mined by the vectorization width W, whose body pops W operands per
stream, computes the unrolled inner loop, and pushes the results — one
loop iteration per clock cycle (II = 1).

Every loop kernel carries a :class:`~repro.fpga.pattern.StaticPattern`:
the generator and the pattern's vectorized ``block()`` share one cursor
(and, for reductions, one accumulator), so the bulk engine can replay K
full-width iterations arithmetically with bit-identical rounding — the
block executors use only elementwise array ops, the same pairwise adder
tree (:func:`_tree_reduce_rows`), and strictly sequential accumulation
(``np.add.accumulate``) to reproduce the scalar loop's summation order.

Conventions: ``n`` is the vector length; widths need not divide ``n`` (the
tail iteration is narrower); ``dtype`` selects single (np.float32) or
double (np.float64) precision, with arithmetic performed in that dtype so
rounding matches a hardware implementation of the same precision.
"""

from __future__ import annotations

import threading

import numpy as np

from ..fpga.kernel import Clock, Pop, Push
from ..fpga.pattern import PatternedGenerator, StaticPattern
from . import reference


class _Scratch(threading.local):
    """Per-thread temporaries of the reduction block executors.

    A window hands ``block()`` tens of thousands of elements at once;
    allocating the product, the adder-tree levels and the running sums
    afresh each time made those temporaries the allocation peak of a
    certified request.  They live here instead, sized by the largest
    window the thread has replayed.  Two engines may run on two threads
    at once (the service's workers), hence ``threading.local``.

    Only values that are consumed before ``block()`` returns may be
    placed here — never an array that is pushed into a channel, stored
    on a cursor or returned to a caller: the next ``block()`` on this
    thread overwrites it.
    """

    def __init__(self):
        self.buf = np.empty(0, np.uint8)


_scratch = _Scratch()


def _temp(n, dtype):
    """``n`` uninitialised ``dtype`` elements of the thread's scratch,
    valid until the next call on this thread."""
    nbytes = n * dtype.itemsize
    if _scratch.buf.nbytes < nbytes:
        _scratch.buf = np.empty(nbytes, np.uint8)
    return _scratch.buf[:nbytes].view(dtype)


def _burst_sums(ufunc, arrs, k, width):
    """Adder-tree sum of each of ``k`` ``width``-wide bursts of
    ``ufunc(*arrs)``, which takes the shape of ``arrs[0]`` (the others
    broadcast against it): a view of the thread's scratch, valid until
    the next call on this thread (:func:`_fold_rows` consumes it)."""
    first = arrs[0]
    terms = _temp(k * width, first.dtype)
    ufunc(*arrs, out=terms.reshape(first.shape))
    return _tree_reduce_rows(terms.reshape(k, width))


def _chunk(vals, count):
    """Normalize a Pop result (scalar when count==1) to a list."""
    return [vals] if count == 1 else vals


class _Cursor:
    """Shared loop cursor: the generator advances it *before* its
    end-of-iteration ``Clock`` (no op is emitted in between, so the op
    sequence is unchanged) and the pattern's ``block()`` advances it by
    ``k`` iterations — both always agree at cycle boundaries."""

    __slots__ = ("done",)

    def __init__(self):
        self.done = 0


def _steady_map(n, width, ins, outs, emit, block, dtype):
    """Patterned elementwise kernel: pop W per input, emit W per output.

    ``emit(rows)`` computes one iteration's output tuples from lists of
    scalars (the original listing's body, verbatim); ``block(k, arrs)``
    is its vectorized equivalent over ``(k*width,)`` arrays.
    """
    st = _Cursor()

    def gen():
        while st.done < n:
            c = min(width, n - st.done)
            rows = []
            for ch in ins:
                rows.append(_chunk((yield Pop(ch, c)), c))
            for ch, vals in zip(outs, emit(rows)):
                yield Push(ch, vals, None)
            st.done += c
            yield Clock()

    def ready():
        return (n - st.done) // width

    def blk(k, arrs):
        st.done += k * width
        return block(k, arrs)

    pat = StaticPattern(
        reads=tuple((ch, width) for ch in ins),
        writes=tuple((ch, width, None) for ch in outs),
        ii=1, dtype=dtype, ready=ready, block=blk,
        read_totals=(n,) * len(ins), write_totals=(n,) * len(outs),
        ends=lambda: (n - st.done) % width == 0)
    return PatternedGenerator(gen(), pat)


def _steady_reduce(n, width, ins, ch_res, fold, block, finalize,
                   ii, dtype):
    """Patterned reduction kernel: accumulate over the stream, push the
    result in an (event-stepped) epilogue.

    ``fold(rows, base)`` folds one iteration starting at element index
    ``base``; ``block(k, arrs, base)`` folds ``k`` full-width iterations.
    """
    st = _Cursor()

    def gen():
        if ii < 1:
            raise ValueError("initiation interval must be >= 1")
        while st.done < n:
            c = min(width, n - st.done)
            rows = []
            for ch in ins:
                rows.append(_chunk((yield Pop(ch, c)), c))
            fold(rows, st.done)
            st.done += c
            yield Clock(ii)
        yield Push(ch_res, finalize(), None)
        yield Clock()

    def ready():
        return (n - st.done) // width

    def blk(k, arrs):
        block(k, arrs, st.done)
        st.done += k * width
        return []

    pat = StaticPattern(
        reads=tuple((ch, width) for ch in ins),
        ii=ii, dtype=dtype, ready=ready, block=blk,
        read_totals=(n,) * len(ins))
    return PatternedGenerator(gen(), pat)


def scal_kernel(n, alpha, ch_x, ch_out, width=1, dtype=np.float32):
    """SCAL: stream x, push alpha*x (Fig. 4 of the paper)."""
    alpha = dtype(alpha)

    def emit(rows):
        xs, = rows
        return (tuple(alpha * dtype(x) for x in xs),)

    def block(k, arrs):
        return [alpha * arrs[0]]

    return _steady_map(n, width, (ch_x,), (ch_out,), emit, block, dtype)


def copy_kernel(n, ch_x, ch_out, width=1, dtype=np.float32):
    """COPY: forward the stream unchanged."""

    def emit(rows):
        xs, = rows
        return (tuple(dtype(x) for x in xs),)

    def block(k, arrs):
        return [arrs[0]]

    return _steady_map(n, width, (ch_x,), (ch_out,), emit, block, dtype)


def axpy_kernel(n, alpha, ch_x, ch_y, ch_out, width=1, dtype=np.float32):
    """AXPY: push alpha*x + y."""
    alpha = dtype(alpha)

    def emit(rows):
        xs, ys = rows
        return (tuple(alpha * dtype(x) + dtype(y)
                      for x, y in zip(xs, ys)),)

    def block(k, arrs):
        xa, ya = arrs
        return [alpha * xa + ya]

    return _steady_map(n, width, (ch_x, ch_y), (ch_out,), emit, block, dtype)


def swap_kernel(n, ch_x, ch_y, ch_out_x, ch_out_y, width=1, dtype=np.float32):
    """SWAP: route x to the y output and vice versa."""

    def emit(rows):
        xs, ys = rows
        return (tuple(dtype(y) for y in ys),
                tuple(dtype(x) for x in xs))

    def block(k, arrs):
        xa, ya = arrs
        return [ya, xa]

    return _steady_map(n, width, (ch_x, ch_y), (ch_out_x, ch_out_y),
                       emit, block, dtype)


def rot_kernel(n, c_rot, s_rot, ch_x, ch_y, ch_out_x, ch_out_y,
               width=1, dtype=np.float32):
    """ROT: apply the plane rotation (c, s) elementwise."""
    c_rot = dtype(c_rot)
    s_rot = dtype(s_rot)

    def emit(rows):
        xs, ys = rows
        return (tuple(c_rot * dtype(x) + s_rot * dtype(y)
                      for x, y in zip(xs, ys)),
                tuple(c_rot * dtype(y) - s_rot * dtype(x)
                      for x, y in zip(xs, ys)))

    def block(k, arrs):
        xa, ya = arrs
        return [c_rot * xa + s_rot * ya, c_rot * ya - s_rot * xa]

    return _steady_map(n, width, (ch_x, ch_y), (ch_out_x, ch_out_y),
                       emit, block, dtype)


def rotm_kernel(n, param, ch_x, ch_y, ch_out_x, ch_out_y,
                width=1, dtype=np.float32):
    """ROTM: apply the modified rotation given by ``param`` elementwise."""
    flag = float(param[0])
    h11, h21, h12, h22 = (dtype(p) for p in param[1:5])
    one, mone = dtype(1), dtype(-1)
    if flag == -2.0:
        h11, h12, h21, h22 = one, dtype(0), dtype(0), one
    elif flag == 0.0:
        h11, h22 = one, one
    elif flag == 1.0:
        h12, h21 = one, mone
    elif flag != -1.0:
        raise ValueError(f"invalid rotm flag {flag}")

    def emit(rows):
        xs, ys = rows
        return (tuple(h11 * dtype(x) + h12 * dtype(y)
                      for x, y in zip(xs, ys)),
                tuple(h21 * dtype(x) + h22 * dtype(y)
                      for x, y in zip(xs, ys)))

    def block(k, arrs):
        xa, ya = arrs
        return [h11 * xa + h12 * ya, h21 * xa + h22 * ya]

    return _steady_map(n, width, (ch_x, ch_y), (ch_out_x, ch_out_y),
                       emit, block, dtype)


def dot_kernel(n, ch_x, ch_y, ch_res, width=1, dtype=np.float32, ii=1):
    """DOT: accumulate x^T y, push the single result (Fig. 5).

    The W-wide inner loop reduces through a binary tree; we reproduce the
    tree's summation order so single-precision rounding matches the
    hardware circuit rather than a sequential accumulation.

    ``ii`` is the loop initiation interval.  FBLAS applies the
    pipeline-enabling transformations of Sec. III-A (iteration-space
    transposition, accumulation interleaving) so its modules achieve
    ii=1 even in double precision, where the loop-carried accumulation
    would otherwise force the scheduler to ii > 1; passing ii > 1 models
    the *untransformed* loop for the ablation benchmark.
    """
    acc = [dtype(0)]

    def fold(rows, _base):
        xs, ys = rows
        acc[0] = acc[0] + _tree_reduce(
            [dtype(x) * dtype(y) for x, y in zip(xs, ys)], dtype)

    def block(k, arrs, _base):
        acc[0] = _fold_rows(acc[0], _burst_sums(np.multiply, arrs, k, width))

    def finalize():
        return (acc[0],)

    return _steady_reduce(n, width, (ch_x, ch_y), ch_res, fold, block,
                          finalize, ii, dtype)


def sdsdot_kernel(n, sb, ch_x, ch_y, ch_res, width=1):
    """SDSDOT: single-precision inputs, double-precision accumulation."""
    acc = [np.float64(sb)]

    def fold(rows, _base):
        xs, ys = rows
        acc[0] = acc[0] + _tree_reduce(
            [np.float64(x) * np.float64(y) for x, y in zip(xs, ys)],
            np.float64)

    def block(k, arrs, _base):
        acc[0] = _fold_rows(acc[0], _burst_sums(np.multiply, arrs, k, width))

    def finalize():
        return (np.float32(acc[0]),)

    return _steady_reduce(n, width, (ch_x, ch_y), ch_res, fold, block,
                          finalize, 1, np.float64)


def nrm2_kernel(n, ch_x, ch_res, width=1, dtype=np.float32):
    """NRM2: sqrt of the sum of squares."""
    acc = [dtype(0)]

    def fold(rows, _base):
        xs, = rows
        acc[0] = acc[0] + _tree_reduce(
            [dtype(x) * dtype(x) for x in xs], dtype)

    def block(k, arrs, _base):
        acc[0] = _fold_rows(acc[0], _burst_sums(
            np.multiply, (arrs[0], arrs[0]), k, width))

    def finalize():
        return (dtype(np.sqrt(acc[0])),)

    return _steady_reduce(n, width, (ch_x,), ch_res, fold, block,
                          finalize, 1, dtype)


def asum_kernel(n, ch_x, ch_res, width=1, dtype=np.float32):
    """ASUM: sum of absolute values."""
    acc = [dtype(0)]

    def fold(rows, _base):
        xs, = rows
        acc[0] = acc[0] + _tree_reduce(
            [dtype(abs(dtype(x))) for x in xs], dtype)

    def block(k, arrs, _base):
        acc[0] = _fold_rows(acc[0], _burst_sums(np.abs, arrs, k, width))

    def finalize():
        return (acc[0],)

    return _steady_reduce(n, width, (ch_x,), ch_res, fold, block,
                          finalize, 1, dtype)


def iamax_kernel(n, ch_x, ch_res, width=1, dtype=np.float32):
    """IAMAX: index of the first element of maximal magnitude."""
    best = [dtype(-1), 0]             # [magnitude, flat index]

    def fold(rows, base):
        xs, = rows
        for lane, x in enumerate(xs):
            mag = abs(dtype(x))
            if mag > best[0]:
                best[0] = mag
                best[1] = base + lane

    def block(k, arrs, base):
        # The scalar scan keeps the *first* strictly-greater magnitude;
        # over a block that is the first occurrence of the block maximum,
        # provided it beats the running best — exactly argmax semantics.
        mags = np.abs(arrs[0])
        m = mags.max()
        if m > best[0]:
            idx = int(np.argmax(mags))
            best[0] = mags[idx]
            best[1] = base + idx

    def finalize():
        return (best[1],)

    return _steady_reduce(n, width, (ch_x,), ch_res, fold, block,
                          finalize, 1, dtype)


def batched_dot_kernel(b, n, ch_x, ch_y, ch_res, width=1, dtype=np.float32):
    """Batched DOT: ``b`` independent length-``n`` dot products streamed
    back to back over one pipeline (Table V batched-operation territory).

    Each segment accumulates exactly like :func:`dot_kernel` — fresh
    accumulator, pairwise adder tree per burst, strictly sequential fold
    across bursts — so every result is bit-identical to ``b`` separate
    single-problem runs.  All ``b`` results are pushed in one
    event-stepped epilogue, which keeps the entire ``b*n``-element read
    phase a single regular patterned region: when ``width`` divides
    ``n``, ``block()`` replays bursts spanning segment boundaries by
    folding each segment's contiguous run of burst sums separately;
    otherwise bursts stop at segment boundaries so tails stay scalar.
    """
    if b < 1 or n < 1:
        raise ValueError("batched dot needs b >= 1 and n >= 1")
    total = b * n
    accs = [dtype(0)] * b
    st = _Cursor()

    def gen():
        while st.done < total:
            seg = st.done // n
            c = min(width, (seg + 1) * n - st.done)
            xs = _chunk((yield Pop(ch_x, c)), c)
            ys = _chunk((yield Pop(ch_y, c)), c)
            accs[seg] = accs[seg] + _tree_reduce(
                [dtype(x) * dtype(y) for x, y in zip(xs, ys)], dtype)
            st.done += c
            yield Clock()
        for seg in range(b):
            yield Push(ch_res, (accs[seg],), None)
            yield Clock()

    def ready():
        if n % width == 0:
            return (total - st.done) // width
        seg_end = min(total, (st.done // n + 1) * n)
        return (seg_end - st.done) // width

    def blk(k, arrs):
        rows = _burst_sums(np.multiply, arrs, k, width)
        pos, i = st.done, 0
        while i < k:
            seg = pos // n
            take = min(k - i, ((seg + 1) * n - pos) // width)
            accs[seg] = _fold_rows(accs[seg], rows[i:i + take])
            i += take
            pos += take * width
        st.done = pos
        return []

    pat = StaticPattern(
        reads=((ch_x, width), (ch_y, width)),
        ii=1, dtype=dtype, ready=ready, block=blk,
        read_totals=(total, total))
    return PatternedGenerator(gen(), pat)


def batched_axpy_kernel(b, n, alphas, ch_x, ch_y, ch_out,
                        width=1, dtype=np.float32):
    """Batched AXPY: ``b`` independent ``alpha_i * x_i + y_i`` updates
    streamed back to back over one pipeline.

    ``alphas`` holds one scalar per segment.  The vectorized ``block()``
    multiplies by a per-element alpha array (each segment's scalar
    repeated ``n`` times) — elementwise, that is the same IEEE operation
    as the scalar listing's ``alpha * x``, so results stay bit-identical
    to ``b`` separate :func:`axpy_kernel` runs.  Bursts never straddle a
    segment inside the generator (``c`` stops at the boundary); the
    pattern spans segments only when ``width`` divides ``n``, where
    boundaries coincide with burst edges.
    """
    if len(alphas) != b:
        raise ValueError(f"need {b} alphas, got {len(alphas)}")
    total = b * n
    alpha_seg = np.asarray([dtype(a) for a in alphas], dtype=dtype)
    alpha_elem = np.repeat(alpha_seg, n)
    st = _Cursor()

    def gen():
        while st.done < total:
            seg = st.done // n
            c = min(width, (seg + 1) * n - st.done)
            a = alpha_seg[seg]
            xs = _chunk((yield Pop(ch_x, c)), c)
            ys = _chunk((yield Pop(ch_y, c)), c)
            yield Push(ch_out, tuple(a * dtype(x) + dtype(y)
                                     for x, y in zip(xs, ys)), None)
            st.done += c
            yield Clock()

    def ready():
        if n % width == 0:
            return (total - st.done) // width
        seg_end = min(total, (st.done // n + 1) * n)
        return (seg_end - st.done) // width

    def blk(k, arrs):
        xa, ya = arrs
        base = st.done
        st.done += k * width
        return [alpha_elem[base:base + k * width] * xa + ya]

    pat = StaticPattern(
        reads=((ch_x, width), (ch_y, width)),
        writes=((ch_out, width, None),),
        ii=1, dtype=dtype, ready=ready, block=blk,
        read_totals=(total, total), write_totals=(total,),
        ends=lambda: st.done + ready() * width == total)
    return PatternedGenerator(gen(), pat)


def rotg_kernel(ch_ab, ch_out, dtype=np.float32):
    """ROTG: pop (a, b), push (r, z, c, s)."""
    ab = yield Pop(ch_ab, 2)
    r, z, c, s = reference.rotg(ab[0], ab[1], dtype=dtype)
    yield Push(ch_out, (dtype(r), dtype(z), dtype(c), dtype(s)), None)
    yield Clock()


def rotmg_kernel(ch_in, ch_out, dtype=np.float32):
    """ROTMG: pop (d1, d2, x1, y1), push (d1', d2', x1', param[0:5])."""
    vals = yield Pop(ch_in, 4)
    d1, d2, x1, param = reference.rotmg(*vals, dtype=dtype)
    yield Push(ch_out, (dtype(d1), dtype(d2), dtype(x1)) +
               tuple(dtype(p) for p in param), None)
    yield Clock()


def _tree_reduce(values, dtype):
    """Sum a list the way the unrolled adder tree does (pairwise)."""
    if not values:
        return dtype(0)
    level = list(values)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i] + level[i + 1])
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _tree_reduce_rows(mat):
    """Row-wise :func:`_tree_reduce` over a ``(k, w)`` matrix, **in
    place**: ``mat`` must be a temporary the caller owns, its contents
    are destroyed and the result is its first column (a view).

    Each adder-tree level is one vectorized add shared by the ``k``
    per-iteration reductions, with the same pairing — hence the same
    rounding — as the scalar tree: at stride ``s`` the live partial
    sums sit in columns ``0, s, 2s, ...``; neighbours are added into
    the left one, and an odd one out is already where the next level
    (stride ``2s``) expects it.
    """
    w = mat.shape[1]
    s = 1
    while s < w:
        right = mat[:, s::2 * s]
        left = mat[:, :2 * s * right.shape[1]:2 * s]
        np.add(left, right, out=left)
        s *= 2
    return mat[:, 0]


def _fold_rows(acc, rows):
    """Left-fold ``rows`` into ``acc`` exactly as sequential scalar adds.

    ``np.add.accumulate`` is defined elementwise-sequentially (each
    output is the previous output plus the next input), unlike
    ``np.sum``/``np.add.reduce`` which use pairwise summation — so this
    matches ``k`` per-iteration ``acc = acc + row`` updates bit-exactly.
    ``rows`` is a temporary the caller owns: its first element absorbs
    ``acc`` and the running sums overwrite it in place.
    """
    rows[0] += acc
    return np.add.accumulate(rows, out=rows)[-1]
