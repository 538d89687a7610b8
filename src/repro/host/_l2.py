"""Level-2 host calls (mixin for :class:`repro.host.api.Fblas`)."""

from __future__ import annotations

import math

import numpy as np

from ..blas import level2, reference
from ..models import iomodel
from ..models.performance import gemv_cycles, routine_flops
from ..streaming.tiling import col_tiles, row_tiles
from . import orders
from ._validate import HostValueError, device_operands, real_scalar


class Level2Mixin:
    """BLAS Level-2 routines over device buffers."""

    def gemv(self, alpha, a, x, beta, y, trans=False, scheme="rows",
             async_=False):
        """y <- alpha*op(A)*x + beta*y.

        ``scheme`` picks the streaming specialization (Sec. III-B):
        ``"rows"`` streams A in tiles by rows (y reused on chip, x
        replayed from DRAM — I/O NM + MN/T_N + 2N); ``"cols"`` streams A
        in tiles by columns (x reused, the partial y replayed through a
        feedback loop — I/O NM + M + 2NM/T_M).  Transposed GEMV currently
        uses the rows scheme.
        """
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        if beta.__class__ is not float:
            real_scalar("beta", beta)
        dt = device_operands("gemv", a, x, y).type
        n, m = a.data.shape
        xlen, ylen = (n, m) if trans else (m, n)
        if x.num_elements != xlen or y.num_elements != ylen:
            raise HostValueError(
                f"gemv shape mismatch: A {a.data.shape}, x {x.num_elements}, "
                f"y {y.num_elements}, trans={trans}")
        if scheme not in ("rows", "cols"):
            raise HostValueError(f"scheme must be rows/cols, got {scheme!r}")
        if scheme == "cols" and trans:
            raise HostValueError("the cols scheme is not available transposed")
        if y is x and scheme == "rows" and not trans:
            # x is replayed from DRAM while finished tiles of y land in it.
            raise HostValueError("gemv: y must not alias the replayed x")

        def run():
            tn, tm = self._fit_tile(n), self._fit_tile(m)
            if scheme == "cols":
                passes = m // tm
                # The feedback loop stands in for the DRAM replay of y;
                # charge the I/O the paper's scheme pays: each non-final
                # pass writes and re-reads the N partials.
                io_model, tile, replay_io = (iomodel.gemv_io_tiles_by_cols,
                                             tm, 2 * n * (passes - 1))

                def design(w):
                    return ((("A", "read_a", a, w,
                              col_tiles(n, m, tn, tm).indices()),
                             ("x", "read_x", x, w),
                             (("y", max(self.channel_depth, 2 * n)),
                              "read_y", y, w)),
                            lambda c: level2.gemv_col_tiles(
                                n, m, alpha, beta, *c[:4], tn, tm, w, dt),
                            (("out", "write_y", y, n, w),),
                            ("partial", "router",
                             lambda c: level2.y_replay_router(
                                 n, passes, c[3], c[2], c[4], w)))
            else:
                io_model, tile, replay_io = (iomodel.gemv_io_tiles_by_rows,
                                             tn, 0)
                kernel = (level2.gemv_transposed_row_tiles if trans
                          else level2.gemv_row_tiles)

                def design(w):
                    return ((("A", "read_a", a, w,
                              row_tiles(n, m, tn, tm).indices()),
                             ("x", "read_x", x, w, None,
                              1 if trans else n // tn),
                             ("y", "read_y", y, w)),
                            lambda c: kernel(n, m, alpha, beta, *c, tn, tm,
                                             w, dt),
                            (("out", "write_y", y, ylen, w),))
            return self._run_design(
                "gemv", "level2", dt, routine_flops("gemv", n, m), design,
                lambda: np.copyto(y.data.reshape(-1), reference.gemv(
                    alpha, a.data, x.data.reshape(-1), beta,
                    y.data.reshape(-1), trans=trans)),
                lambda w: (gemv_cycles(n, m, w), io_model(n, m, tile)),
                returns=y, io_extra=replay_io)

        return self._execute(run, async_)

    def _rank_update(self, routine, a, reads, kernel, update, model_io,
                     async_):
        """The row GER, SYR and SYR2 share: A streams through the module
        in tiles by rows and back in place, beside vector streams that
        are read once (``replayed`` False) or once per row of tiles."""
        n, m = a.data.shape

        def run():
            tn, tm = self._fit_tile(n), self._fit_tile(m)
            sched = row_tiles(n, m, tn, tm)
            return self._run_design(
                routine, "level2", a.data.dtype,
                routine_flops(routine, n, m),
                lambda w: ((("A", "read_a", a, w, sched.indices()),
                            *((ch, f"read_{ch}", buf, w, None,
                               n // tn if replayed else 1)
                              for ch, buf, replayed in reads)),
                           lambda c: kernel(*c, tn, tm, w),
                           (("out", "write_a", a, n * m, w,
                             sched.indices()),)),
                lambda: np.copyto(a.data, update()),
                lambda w: (gemv_cycles(n, m, w),
                           model_io(math.ceil(n / tn))),
                returns=a)

        return self._execute(run, async_)

    def ger(self, alpha, x, y, a, async_=False):
        """A <- A + alpha * x y^T."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        dt = device_operands("ger", x, y, a).type
        n, m = a.data.shape
        if x.num_elements != n or y.num_elements != m:
            raise HostValueError("ger shape mismatch")
        return self._rank_update(
            "ger", a, (("x", x, False), ("y", y, True)),
            lambda *rest: level2.ger_kernel(n, m, alpha, *rest, dt),
            lambda: reference.ger(alpha, x.data.reshape(-1),
                                  y.data.reshape(-1), a.data),
            lambda tiles: 2 * n * m + n + m * tiles, async_)

    def syr(self, alpha, x, a, async_=False):
        """A <- A + alpha * x x^T."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        dt = device_operands("syr", x, a).type
        n = x.num_elements
        if a.data.shape != (n, n):
            raise HostValueError("syr shape mismatch")
        return self._rank_update(
            "syr", a, (("xr", x, False), ("xc", x, True)),
            lambda *rest: level2.syr_kernel(n, alpha, *rest, dt),
            lambda: reference.syr(alpha, x.data.reshape(-1), a.data),
            lambda tiles: 2 * n * n + n + n * tiles, async_)

    def syr2(self, alpha, x, y, a, async_=False):
        """A <- A + alpha * (x y^T + y x^T)."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        dt = device_operands("syr2", x, y, a).type
        n = x.num_elements
        if a.data.shape != (n, n) or y.num_elements != n:
            raise HostValueError("syr2 shape mismatch")
        return self._rank_update(
            "syr2", a, (("xr", x, False), ("yc", y, True),
                        ("yr", y, False), ("xc", x, True)),
            lambda *rest: level2.syr2_kernel(n, alpha, *rest, dt),
            lambda: reference.syr2(alpha, x.data.reshape(-1),
                                   y.data.reshape(-1), a.data),
            lambda tiles: 2 * n * n + 2 * n + 2 * n * tiles, async_)

    def trsv(self, a, b, lower=True, unit_diag=False, async_=False):
        """Solve A x = b in place of b (triangular A, generic storage)."""
        dt = device_operands("trsv", a, b).type
        n = b.num_elements
        if a.data.shape != (n, n):
            raise HostValueError("trsv shape mismatch")

        def design(w):
            solve_order = np.arange(n) if lower else np.arange(n)[::-1]
            return ((("A", "read_a", a, w, orders.trsv_row_order(n, lower)),
                     ("b", "read_b", b, 1, solve_order)),
                    lambda c: level2.trsv_kernel(n, *c, w, dt, lower,
                                                 unit_diag),
                    (("out", "write_x", b, n, 1, solve_order),))

        return self._execute(lambda: self._run_design(
            "trsv", "level2", dt, routine_flops("trsv", n), design,
            lambda: np.copyto(b.data.reshape(-1), reference.trsv(
                a.data, b.data.reshape(-1), lower=lower,
                unit_diag=unit_diag)),
            lambda w: (gemv_cycles(n, n, w), n * n + 2 * n),
            returns=b), async_)
