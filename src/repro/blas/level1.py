"""Streaming Level-1 kernels.

Each function builds a generator implementing one BLAS Level-1 routine
against the simulator's channel protocol (:mod:`repro.fpga.kernel`),
mirroring the structure of the paper's HLS listings: an outer loop
strip-mined by the vectorization width W, whose body pops W operands per
stream, computes the unrolled inner loop, and pushes the results — one
loop iteration per clock cycle (II = 1).

Every loop kernel is one :class:`~repro.fpga.pattern.SteadyLoop`
declared by its block body ``body(ins, base, n, lanes)``: the event
core steps it one burst at a time and the bulk engine replays K
full-width iterations with the same call, so the two agree by
construction.  Bodies use only elementwise array ops, the pairwise
adder tree of the unrolled inner loop (:func:`_tree_reduce_rows`) per
burst, and strictly sequential accumulation across bursts
(``np.add.accumulate``), which is the listing's summation order.  A
reduction's lone stepped burst takes the same tree on scalars
(:func:`_fold_bursts`); the two trees pair alike and round alike.

Conventions: ``n`` is the vector length; widths need not divide ``n`` (the
tail iteration is narrower); ``dtype`` selects single (np.float32) or
double (np.float64) precision, with arithmetic performed in that dtype so
rounding matches a hardware implementation of the same precision.
"""

from __future__ import annotations

import threading

import numpy as np

from ..fpga.kernel import Clock, Pop, Push
from ..fpga.pattern import steady_kernel
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


def _burst_sums(ufunc, arrs, width):
    """Adder-tree sum of each ``width``-wide burst of ``ufunc(*arrs)``,
    which takes the shape of ``arrs[0]`` (the others broadcast against
    it): a view of the thread's scratch, valid until the next call on
    this thread (:func:`_fold_rows` consumes it)."""
    first = arrs[0]
    terms = _temp(first.size, first.dtype)
    ufunc(*arrs, out=terms.reshape(first.shape))
    return _tree_reduce_rows(terms.reshape(-1, width))


def _chunk(vals, count):
    """Normalize a Pop result (scalar when count==1) to a list."""
    return [vals] if count == 1 else vals


def _fold_bursts(acc, ufunc, arrs, width):
    """``acc`` plus the adder-tree sum of each ``width``-wide burst of
    ``ufunc(*arrs)``, folded in sequentially.  A lone burst (a stepped
    iteration) takes the same pairwise tree on scalars: for so few lanes
    the array tree's per-level calls cost several times as much."""
    if len(arrs[0]) == width:
        return acc + _tree_reduce(list(ufunc(*arrs)), type(acc))
    return _fold_rows(acc, _burst_sums(ufunc, arrs, width))


def _sum_kernel(kernel, n, width, ins, ch_res, ufunc, acc, finish,
                dtype, ii=1):
    """Sum ``ufunc`` of the input bursts — per burst through the adder
    tree, across bursts sequentially from ``acc`` — then push
    ``finish(sum)``."""
    acc = [acc]

    def body(ins, _base, _n, lanes):
        acc[0] = _fold_bursts(acc[0], ufunc, ins, lanes)
        return ()

    return steady_kernel(kernel, body, ins, count=n, width=width, ii=ii,
                         dtype=dtype,
                         result=(ch_res, lambda: (finish(acc[0]),)))


def scal_kernel(n, alpha, ch_x, ch_out, width=1, dtype=np.float32):
    """SCAL: stream x, push alpha*x (Fig. 4 of the paper)."""
    alpha = dtype(alpha)

    def body(ins, _base, _n, _lanes):
        return [alpha * ins[0]]

    return steady_kernel("scal_kernel", body, (ch_x,), (ch_out,), count=n,
                         width=width, dtype=dtype)


def copy_kernel(n, ch_x, ch_out, width=1, dtype=np.float32):
    """COPY: forward the stream unchanged."""

    def body(ins, _base, _n, _lanes):
        return ins

    return steady_kernel("copy_kernel", body, (ch_x,), (ch_out,), count=n,
                         width=width, dtype=dtype)


def axpy_kernel(n, alpha, ch_x, ch_y, ch_out, width=1, dtype=np.float32):
    """AXPY: push alpha*x + y."""
    alpha = dtype(alpha)

    def body(ins, _base, _n, _lanes):
        xa, ya = ins
        return [alpha * xa + ya]

    return steady_kernel("axpy_kernel", body, (ch_x, ch_y), (ch_out,),
                         count=n, width=width, dtype=dtype)


def swap_kernel(n, ch_x, ch_y, ch_out_x, ch_out_y, width=1, dtype=np.float32):
    """SWAP: route x to the y output and vice versa."""

    def body(ins, _base, _n, _lanes):
        xa, ya = ins
        return [ya, xa]

    return steady_kernel("swap_kernel", body, (ch_x, ch_y),
                         (ch_out_x, ch_out_y), count=n, width=width,
                         dtype=dtype)


def rot_kernel(n, c_rot, s_rot, ch_x, ch_y, ch_out_x, ch_out_y,
               width=1, dtype=np.float32):
    """ROT: apply the plane rotation (c, s) elementwise."""
    c_rot = dtype(c_rot)
    s_rot = dtype(s_rot)

    def body(ins, _base, _n, _lanes):
        xa, ya = ins
        return [c_rot * xa + s_rot * ya, c_rot * ya - s_rot * xa]

    return steady_kernel("rot_kernel", body, (ch_x, ch_y),
                         (ch_out_x, ch_out_y), count=n, width=width,
                         dtype=dtype)


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

    def body(ins, _base, _n, _lanes):
        xa, ya = ins
        return [h11 * xa + h12 * ya, h21 * xa + h22 * ya]

    return steady_kernel("rotm_kernel", body, (ch_x, ch_y),
                         (ch_out_x, ch_out_y), count=n, width=width,
                         dtype=dtype)


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
    return _sum_kernel("dot_kernel", n, width, (ch_x, ch_y), ch_res,
                       np.multiply, dtype(0), dtype, dtype, ii)


def sdsdot_kernel(n, sb, ch_x, ch_y, ch_res, width=1):
    """SDSDOT: single-precision inputs, double-precision accumulation."""
    return _sum_kernel("sdsdot_kernel", n, width, (ch_x, ch_y), ch_res,
                       np.multiply, np.float64(sb), np.float32, np.float64)


def nrm2_kernel(n, ch_x, ch_res, width=1, dtype=np.float32):
    """NRM2: sqrt of the sum of squares."""
    return _sum_kernel("nrm2_kernel", n, width, (ch_x,), ch_res, np.square,
                       dtype(0), lambda s: dtype(np.sqrt(s)), dtype)


def asum_kernel(n, ch_x, ch_res, width=1, dtype=np.float32):
    """ASUM: sum of absolute values."""
    return _sum_kernel("asum_kernel", n, width, (ch_x,), ch_res, np.abs,
                       dtype(0), dtype, dtype)


def iamax_kernel(n, ch_x, ch_res, width=1, dtype=np.float32):
    """IAMAX: index of the first element of maximal magnitude.

    The listing keeps the *first* strictly greater magnitude, so a NaN
    never wins; over a run of bursts that is the first occurrence of
    the largest non-NaN magnitude, provided it beats the running best.
    """
    best = [dtype(-1), 0]             # [magnitude, flat index]

    def body(ins, base, _n, _lanes):
        mags = np.abs(ins[0])
        m = np.fmax.reduce(mags)
        if m > best[0]:
            idx = int(np.argmax(mags == m))
            best[0] = m
            best[1] = base + idx
        return ()

    return steady_kernel("iamax_kernel", body, (ch_x,), count=n,
                         width=width, dtype=dtype,
                         result=(ch_res, lambda: best[1:]))


def batched_dot_kernel(b, n, ch_x, ch_y, ch_res, width=1, dtype=np.float32):
    """Batched DOT: ``b`` independent length-``n`` dot products streamed
    back to back over one pipeline (Table V batched-operation territory).

    Each segment accumulates exactly like :func:`dot_kernel` — fresh
    accumulator, pairwise adder tree per burst, strictly sequential fold
    across bursts — so every result is bit-identical to ``b`` separate
    single-problem runs.  All ``b`` results are pushed in one
    event-stepped epilogue, which keeps the entire ``b*n``-element read
    phase one loop: when ``width`` divides ``n`` a window spans segment
    boundaries and each segment's contiguous run of burst sums is folded
    separately; otherwise bursts stop at segment boundaries.
    """
    if b < 1 or n < 1:
        raise ValueError("batched dot needs b >= 1 and n >= 1")
    accs = [dtype(0)] * b

    def body(ins, base, n_in, lanes):
        if n_in == lanes:                   # one burst lies in one problem
            accs[base // n] = _fold_bursts(accs[base // n], np.multiply,
                                           ins, lanes)
            return ()
        sums = _burst_sums(np.multiply, ins, lanes)
        i, k = 0, n_in // lanes
        while i < k:
            seg = base // n
            take = min(k - i, ((seg + 1) * n - base) // lanes)
            accs[seg] = _fold_rows(accs[seg], sums[i:i + take])
            i += take
            base += take * lanes
        return ()

    return steady_kernel("batched_dot_kernel", body, (ch_x, ch_y),
                         count=b * n, width=width, dtype=dtype, segment=n,
                         result=(ch_res, lambda: accs))


def batched_axpy_kernel(b, n, alphas, ch_x, ch_y, ch_out,
                        width=1, dtype=np.float32):
    """Batched AXPY: ``b`` independent ``alpha_i * x_i + y_i`` updates
    streamed back to back over one pipeline.

    ``alphas`` holds one scalar per segment.  The body multiplies by a
    per-element alpha array (each segment's scalar repeated ``n``
    times) — elementwise, that is the same IEEE operation as the
    listing's ``alpha * x``, so results stay bit-identical to ``b``
    separate :func:`axpy_kernel` runs.  Bursts stop at segment
    boundaries, which only exist inside a burst when ``width`` does not
    divide ``n``.
    """
    if len(alphas) != b:
        raise ValueError(f"need {b} alphas, got {len(alphas)}")
    alpha_elem = np.repeat(np.asarray([dtype(a) for a in alphas],
                                      dtype=dtype), n)

    def body(ins, base, n_in, _lanes):
        xa, ya = ins
        return [alpha_elem[base:base + n_in] * xa + ya]

    return steady_kernel("batched_axpy_kernel", body, (ch_x, ch_y),
                         (ch_out,), count=b * n, width=width, dtype=dtype,
                         segment=n)


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
    """Sum a list the way the unrolled adder tree does (pairwise), with
    the stride pairing of :func:`_tree_reduce_rows`."""
    if not values:
        return dtype(0)
    vals = list(values)
    n, s = len(vals), 1
    while s < n:
        for i in range(0, n - s, 2 * s):
            vals[i] = vals[i] + vals[i + s]
        s *= 2
    return vals[0]


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
