"""Level-1 host calls (mixin for :class:`repro.host.api.Fblas`).

Each routine validates its operands and hands
:meth:`~repro.host.api.Fblas._run_design` one design row.  The strided
calls always spell a stream's order out (never None, even at stride 1): a
logical length n smaller than the buffer must bound the interface's
stream, or the reader would push the buffer's tail into a channel nobody
drains.
"""

from __future__ import annotations

import numpy as np

from ..blas import level1, reference
from ..models.performance import level1_cycles, routine_flops
from ._validate import (device_operands, real_scalar, rotm_param,
                        strided_length, strided_pair)


def _strided(buf, inc, n):
    """The n elements of ``buf`` at stride ``inc``: a writable flat view."""
    return buf.data.reshape(-1)[::inc][:n]


class Level1Mixin:
    """BLAS Level-1 routines over device buffers."""

    # -- map routines -----------------------------------------------------------
    def scal(self, alpha, x, n=None, incx=1, async_=False):
        """x <- alpha * x (over n elements with stride incx)."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        dt = device_operands("scal", x).type
        n = strided_length(x, incx, n)
        order = range(0, n * incx, incx)
        return self._execute(lambda: self._run_design(
            "scal", "level1", dt, routine_flops("scal", n),
            lambda w: ((("in0", "read0", x, w, order),),
                       lambda c: level1.scal_kernel(n, alpha, *c, w, dt),
                       (("out0", "write0", x, n, w, order),)),
            lambda: np.copyto(_strided(x, incx, n), reference.scal(
                alpha, _strided(x, incx, n))),
            lambda w: (level1_cycles("scal", n, w), 2 * n),
            returns=x), async_)

    def copy(self, x, y, n=None, incx=1, incy=1, async_=False):
        """y <- x (strided)."""
        dt = device_operands("copy", x, y).type
        n = strided_pair(x, y, incx, incy, n)
        return self._execute(lambda: self._run_design(
            "copy", "level1", dt, routine_flops("copy", n),
            lambda w: ((("in0", "read0", x, w, range(0, n * incx, incx)),),
                       lambda c: level1.copy_kernel(n, *c, w, dt),
                       (("out0", "write0", y, n, w,
                         range(0, n * incy, incy)),)),
            lambda: np.copyto(_strided(y, incy, n),
                              reference.copy(_strided(x, incx, n))),
            lambda w: (level1_cycles("copy", n, w), 2 * n),
            returns=y), async_)

    def axpy(self, alpha, x, y, n=None, incx=1, incy=1, async_=False):
        """y <- alpha*x + y (strided)."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        dt = device_operands("axpy", x, y).type
        n = strided_pair(x, y, incx, incy, n)
        return self._execute(lambda: self._run_design(
            "axpy", "level1", dt, routine_flops("axpy", n),
            lambda w: ((("in0", "read0", x, w, range(0, n * incx, incx)),
                        ("in1", "read1", y, w, range(0, n * incy, incy))),
                       lambda c: level1.axpy_kernel(n, alpha, *c, w, dt),
                       (("out0", "write0", y, n, w,
                         range(0, n * incy, incy)),)),
            lambda: np.copyto(_strided(y, incy, n), reference.axpy(
                alpha, _strided(x, incx, n), _strided(y, incy, n))),
            lambda w: (level1_cycles("axpy", n, w), 3 * n),
            returns=y), async_)

    def _update_pair(self, routine, x, y, kernel, apply, async_):
        """The row SWAP, ROT and ROTM share: x and y stream in, both
        stream back in place, nothing is returned."""
        dt = device_operands(routine, x, y).type
        n = strided_pair(x, y)

        def update():
            xd, yd = x.data.reshape(-1), y.data.reshape(-1)
            xd[:], yd[:] = apply(xd, yd)

        return self._execute(lambda: self._run_design(
            routine, "level1", dt, routine_flops(routine, n),
            lambda w: ((("in0", "read0", x, w), ("in1", "read1", y, w)),
                       lambda c: kernel(n, *c, w, dt),
                       (("out0", "write0", x, n, w),
                        ("out1", "write1", y, n, w))),
            update, lambda w: (level1_cycles(routine, n, w), 4 * n)), async_)

    def swap(self, x, y, async_=False):
        """x <-> y."""
        return self._update_pair("swap", x, y, level1.swap_kernel,
                                 reference.swap, async_)

    def rot(self, x, y, c, s, async_=False):
        """Apply the plane rotation (c, s) to x and y."""
        if c.__class__ is not float:
            real_scalar("c", c)
        if s.__class__ is not float:
            real_scalar("s", s)
        return self._update_pair(
            "rot", x, y,
            lambda n, *rest: level1.rot_kernel(n, c, s, *rest),
            lambda xd, yd: reference.rot(xd, yd, c, s), async_)

    def rotm(self, x, y, param, async_=False):
        """Apply the modified rotation defined by ``param``."""
        rotm_param(param)
        return self._update_pair(
            "rotm", x, y,
            lambda n, *rest: level1.rotm_kernel(n, param, *rest),
            lambda xd, yd: reference.rotm(xd, yd, param), async_)

    # -- reductions -------------------------------------------------------------
    def dot(self, x, y, n=None, incx=1, incy=1, async_=False):
        """Return x^T y (strided)."""
        dt = device_operands("dot", x, y).type
        n = strided_pair(x, y, incx, incy, n)
        return self._execute(lambda: self._run_design(
            "dot", "level1", dt, routine_flops("dot", n),
            lambda w: ((("in0", "read0", x, w, range(0, n * incx, incx)),
                        ("in1", "read1", y, w, range(0, n * incy, incy))),
                       lambda c: level1.dot_kernel(n, *c, w, dt), ()),
            lambda: reference.dot(_strided(x, incx, n), _strided(y, incy, n)),
            lambda w: (level1_cycles("dot", n, w), 2 * n + 1),
            sink=True), async_)

    def sdsdot(self, sb, x, y, async_=False):
        """Return sb + x^T y accumulated in double precision."""
        if sb.__class__ is not float:
            real_scalar("sb", sb)
        dt = device_operands("sdsdot", x, y).type
        n = strided_pair(x, y)
        return self._execute(lambda: self._run_design(
            "sdsdot", "level1", dt, routine_flops("sdsdot", n),
            lambda w: ((("in0", "read0", x, w), ("in1", "read1", y, w)),
                       lambda c: level1.sdsdot_kernel(n, sb, *c, w), ()),
            lambda: reference.sdsdot(sb, x.data.reshape(-1),
                                     y.data.reshape(-1)),
            lambda w: (level1_cycles("dot", n, w), 2 * n + 1),
            sink=True), async_)

    def _reduce_vector(self, routine, x, kernel, apply, async_):
        """The row NRM2, ASUM and IAMAX share: x streams in, one scalar
        comes back."""
        dt = device_operands(routine, x).type
        n = x.data.size
        return self._execute(lambda: self._run_design(
            routine, "level1", dt, routine_flops(routine, n),
            lambda w: ((("in0", "read0", x, w),),
                       lambda c: kernel(n, *c, w, dt), ()),
            lambda: apply(x.data.reshape(-1)),
            lambda w: (level1_cycles(routine, n, w), n + 1),
            sink=True), async_)

    def nrm2(self, x, async_=False):
        """Return the Euclidean norm of x."""
        return self._reduce_vector("nrm2", x, level1.nrm2_kernel,
                                   reference.nrm2, async_)

    def asum(self, x, async_=False):
        """Return the sum of absolute values of x."""
        return self._reduce_vector("asum", x, level1.asum_kernel,
                                   reference.asum, async_)

    def iamax(self, x, async_=False):
        """Return the index of the first element of maximal magnitude."""
        return self._reduce_vector("iamax", x, level1.iamax_kernel,
                                   reference.iamax, async_)

    def rotg(self, a, b, dtype=np.float64):
        """Generate a Givens rotation; returns (r, z, c, s)."""
        real_scalar("a", a)
        real_scalar("b", b)
        r = reference.rotg(a, b, dtype=dtype)
        self._record("rotg", "level1", dtype, 50, 6, 10, "model")
        return r

    def rotmg(self, d1, d2, x1, y1, dtype=np.float64):
        """Generate a modified Givens rotation."""
        real_scalar("d1", d1)
        real_scalar("d2", d2)
        real_scalar("x1", x1)
        real_scalar("y1", y1)
        r = reference.rotmg(d1, d2, x1, y1, dtype=dtype)
        self._record("rotmg", "level1", dtype, 60, 12, 30, "model")
        return r
