#!/usr/bin/env python
"""What a certified request costs against the arithmetic it carries.

A certified run replays its windows with whole-array numpy in exactly
the order the streaming modules document: every W-wide burst goes
through the W-lane adder tree, burst sums are folded strictly left to
right (``np.add.accumulate``), maps are elementwise.  That order is the
contract (results are bit-identical to the stepped simulation), so the
cheapest a certified call can ever be is the same arithmetic done
free-standing, once, on the whole operand — the *faithful-order floor*.

This script measures both, at the sizes of the benchmark's
``stream_certified`` workload (DOT 2^20, in-place AXPY 2^19, GEMV / GEMV^T
/ GER on one 512 x 512 tile, width 4, float32), checks that the two
produce the same bytes, and prints the floors side by side.  What
separates the columns is the simulator (host marshalling, engine build,
the superstep plans and the cycles stepped between them — a handful per
call, where a kernel wakes, blocks or pushes a result — and the DRAM
model), not the payload.

Run:  python examples/faithful_order_floors.py [repeats]
"""

import gc
import sys
import time

import numpy as np

from repro.host import Fblas

W = 4
N_DOT, N_AXPY, N_MAT = 1 << 20, 1 << 19, 512
ALPHA, BETA = np.float32(0.5), np.float32(0.25)


def tree(mat):
    """Pairwise adder tree over the last axis, in place; returns the sums."""
    s = 1
    while s < mat.shape[-1]:
        right = mat[..., s::2 * s]
        left = mat[..., :2 * s * right.shape[-1]:2 * s]
        np.add(left, right, out=left)
        s *= 2
    return mat[..., 0]


def fold(sums):
    """Sequential left fold along the last axis, from the +0.0 every
    accumulator starts at."""
    np.add(np.float32(0), sums[..., 0], out=sums[..., 0])
    return np.add.accumulate(sums, axis=-1, out=sums)[..., -1]


def dot(x, y):
    return fold(tree((x * y).reshape(-1, W)))


def axpy(x, y):
    return ALPHA * x + y


def gemv(a, x, y):
    rows = fold(tree((a * x).reshape(len(a), -1, W)))
    return ALPHA * (np.float32(0) + rows) + BETA * y


def gemv_t(a, x, y):
    # s[c] accumulates a[r, c] * x[r] over rows, in row order.
    prod = a * x[:, None]
    np.add(np.float32(0), prod[0], out=prod[0])
    return ALPHA * np.add.accumulate(prod, axis=0, out=prod)[-1] + BETA * y


def ger(a, x, y):
    return a + (ALPHA * x)[:, None] * y


def floor_ms(call, prepare, repeats):
    best = float("inf")
    for _ in range(repeats):
        prepare()
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main(repeats=30):
    rng = np.random.default_rng(22)

    def vec(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    fb = Fblas(width=W, engine_mode="certified", tile=N_MAT)
    dx, dy = vec(N_DOT), vec(N_DOT)
    ax, ay = vec(N_AXPY), vec(N_AXPY)
    a, x, y = vec(N_MAT, N_MAT), vec(N_MAT), vec(N_MAT)
    dev = {name: fb.copy_to_device(arr.copy(), bank=bank)
           for name, arr, bank in (("dx", dx, 0), ("dy", dy, 1), ("ax", ax, 2),
                                   ("ay", ay, 3), ("a", a, 0), ("x", x, 1),
                                   ("y", y, 2))}

    def restore(*names):
        host = {"ay": ay, "y": y, "a": a}
        def prepare():
            for name in names:
                dev[name].data[...] = host[name]
        return prepare

    cases = [
        ("dot", lambda: fb.dot(dev["dx"], dev["dy"]),
         lambda: dot(dx, dy), restore()),
        ("axpy", lambda: fb.axpy(ALPHA, dev["ax"], dev["ay"]),
         lambda: axpy(ax, ay), restore("ay")),
        ("gemv", lambda: fb.gemv(ALPHA, dev["a"], dev["x"], BETA, dev["y"]),
         lambda: gemv(a, x, y), restore("y")),
        ("gemv^T", lambda: fb.gemv(ALPHA, dev["a"], dev["x"], BETA, dev["y"],
                                   trans=True),
         lambda: gemv_t(a, x, y), restore("y")),
        ("ger", lambda: fb.ger(ALPHA, dev["x"], dev["y"], dev["a"]),
         lambda: ger(a, x, y), restore("a")),
    ]
    print(f"{'routine':8s} {'certified call':>15s} {'faithful order':>15s} "
          f"{'ratio':>6s}   (floor over {repeats} warm calls, ms)")
    total = [0.0, 0.0]
    for name, certified, free, prepare in cases:
        prepare()
        got = np.asarray(certified(), dtype=np.float32)
        want = np.asarray(free(), dtype=np.float32)
        assert got.tobytes() == want.tobytes(), f"{name}: bytes differ"
        gc.collect()
        ms = (floor_ms(certified, prepare, repeats),
              floor_ms(free, prepare, repeats))
        print(f"{name:8s} {ms[0]:15.3f} {ms[1]:15.3f} {ms[0] / ms[1]:6.1f}")
        if name in ("dot", "axpy", "gemv"):
            total = [t + m for t, m in zip(total, ms)]
    print(f"{'request':8s} {total[0]:15.3f} {total[1]:15.3f} "
          f"{total[0] / total[1]:6.1f}   (dot + axpy + gemv, the "
          f"stream_certified request)")
    print("same bytes from both columns: yes")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30)
