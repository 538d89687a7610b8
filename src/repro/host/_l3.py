"""Level-3 host calls (mixin for :class:`repro.host.api.Fblas`)."""

from __future__ import annotations

import numpy as np

from ..blas import level3, reference
from ..blas.systolic import SystolicConfig, SystolicGemm
from ..models.iomodel import gemm_io_tiled
from ..models.performance import gemm_systolic_cycles, routine_flops
from ..streaming.tiling import row_tiles
from . import orders
from ._validate import HostValueError, device_operands, real_scalar


class Level3Mixin:
    """BLAS Level-3 routines over device buffers."""

    def gemm(self, alpha, a, b, beta, c, impl="systolic", async_=False):
        """C <- alpha*A*B + beta*C.

        ``impl`` selects the spatial design: ``"systolic"`` uses the 2D PE
        array of Sec. III-C (cycle-simulated in "simulate" mode, analytic
        in "model" mode); ``"tiled"`` uses the generic streaming kernel
        through the DRAM interfaces.
        """
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        if beta.__class__ is not float:
            real_scalar("beta", beta)
        dt = device_operands("gemm", a, b, c).type
        n, k = a.data.shape
        k2, m = b.data.shape
        if k != k2 or c.data.shape != (n, m):
            raise HostValueError("gemm shape mismatch")
        if impl not in ("systolic", "tiled"):
            raise HostValueError(
                f"impl must be systolic/tiled, got {impl!r}")
        if impl == "tiled" and (c is a or c is b):
            # A and B strips are replayed while finished C tiles land.
            raise HostValueError("gemm: tiled C must not alias A or B")

        def update():
            np.copyto(c.data, reference.gemm(alpha, a.data, b.data, beta,
                                             c.data))

        def tiled(w):
            # Generic tiled streaming kernel through the DRAM interfaces.
            tn, tm = self._fit_tile(n), self._fit_tile(m)
            c_order = row_tiles(n, m, tn, tm).indices()
            return ((("A", "read_a", a, w,
                      orders.gemm_a_order(n, k, m, tn, tm)),
                     ("B", "read_b", b, w,
                      orders.gemm_b_order(n, k, m, tn, tm)),
                     ("C", "read_c", c, w, c_order)),
                    lambda ch: level3.gemm_tiled(n, m, k, alpha, beta, *ch,
                                                 tn, tm, w, dt),
                    (("out", "write_c", c, n * m, w, c_order),))

        def systolic():
            flops = routine_flops("gemm", n, m, k)
            if self.mode == "model":
                update()
                cycles, io = self._systolic_model(n, m, k, drain=True)
            else:
                cfg = self._systolic_config(n, m)
                sys = SystolicGemm(cfg, dtype=dt)
                result, stats = sys.multiply(a.data, b.data, alpha, beta,
                                             c.data)
                c.data[:, :] = result
                # Account the DRAM traffic the feeders/drainers would cause.
                a.elements_read += n * k * (m // cfg.tile_c)
                b.elements_read += k * m * (n // cfg.tile_r)
                c.elements_read += n * m
                c.elements_written += n * m
                cycles, io = stats.cycles, self._gemm_io(n, m, k)
            self._record("gemm", "systolic", dt, cycles, io, flops, self.mode)
            return self.context.copy_from_device(c)

        if impl == "systolic":
            return self._execute(systolic, async_)
        return self._execute(lambda: self._run_design(
            "gemm", "systolic", dt, routine_flops("gemm", n, m, k), tiled,
            update, lambda _w: self._systolic_model(n, m, k, drain=True),
            returns=c), async_)

    def _systolic_config(self, n, m):
        pr = self.systolic_rows
        pc = self.systolic_cols
        tr = self._fit_tile(n, multiple_of=pr)
        tc = self._fit_tile(m, multiple_of=pc)
        return SystolicConfig(pr, pc, tr, tc)

    def _gemm_io(self, n, m, k):
        return gemm_io_tiled(n, m, k, self._fit_tile(n), self._fit_tile(m))

    def _systolic_model(self, n, m, k, drain=False):
        """Closed-form ``(cycles, io)`` of an n x m x k product on the
        systolic array; ``drain`` adds GEMM's per-tile drain."""
        cfg = self._systolic_config(n, m)
        return (gemm_systolic_cycles(
            n, m, k, cfg.pr, cfg.pc, cfg.tile_r, cfg.tile_c,
            drain_latency=cfg.elems_per_pe + cfg.pr if drain else 0),
            self._gemm_io(n, m, k))

    def syrk(self, alpha, a, beta, c, async_=False):
        """C <- alpha*A*A^T + beta*C."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        if beta.__class__ is not float:
            real_scalar("beta", beta)
        dt = device_operands("syrk", a, c).type
        n, k = a.data.shape
        if c.data.shape != (n, n):
            raise HostValueError("syrk shape mismatch")
        if c is a:
            # A strips are replayed while finished C tiles land in it.
            raise HostValueError("syrk: C must not alias A")

        def design(w):
            tn = self._fit_tile(n)
            a_order = orders.gemm_a_order(n, k, n, tn, tn)
            # A^T strip rows are column reads of A (A^T[kk, col] = A[col,
            # kk]): the A strips with the two tile loops swapped.
            at_order = a_order.reshape(n // tn, n // tn, -1).transpose(
                1, 0, 2).reshape(-1)
            c_order = row_tiles(n, n, tn, tn).indices()
            return ((("A", "read_a", a, w, a_order),
                     ("At", "read_at", a, w, at_order),
                     ("C", "read_c", c, w, c_order)),
                    lambda ch: level3.syrk_tiled(n, k, alpha, beta, *ch,
                                                 tn, tn, w, dt),
                    (("out", "write_c", c, n * n, w, c_order),))

        return self._execute(lambda: self._run_design(
            "syrk", "systolic", dt, routine_flops("syrk", n, 0, k), design,
            lambda: np.copyto(c.data, reference.syrk(alpha, a.data, beta,
                                                     c.data)),
            lambda _w: self._systolic_model(n, n, k), returns=c), async_)

    def syr2k(self, alpha, a, b, beta, c, async_=False):
        """C <- alpha*(A*B^T + B*A^T) + beta*C (model-backed host call)."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        if beta.__class__ is not float:
            real_scalar("beta", beta)
        dt = device_operands("syr2k", a, b, c).type
        n, k = a.data.shape
        if b.data.shape != (n, k) or c.data.shape != (n, n):
            raise HostValueError("syr2k shape mismatch")

        def impl():
            c.data[:, :] = reference.syr2k(alpha, a.data, b.data, beta,
                                           c.data)
            cycles, io = self._systolic_model(n, n, k)
            self._record("syr2k", "systolic", dt, 2 * cycles, 2 * io,
                         routine_flops("syr2k", n, 0, k), "model")
            return self.context.copy_from_device(c)

        return self._execute(impl, async_)

    def trsm(self, alpha, a, b, lower=True, unit_diag=False, async_=False):
        """B <- solution X of A X = alpha*B (left side)."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        dt = device_operands("trsm", a, b).type
        n, m = b.data.shape
        if a.data.shape != (n, n):
            raise HostValueError("trsm shape mismatch")

        def design(w):
            col_order = orders.column_major_order(n, m)
            return ((("A", "read_a", a, w), ("B", "read_b", b, w, col_order)),
                    lambda ch: level3.trsm_tiled(n, m, alpha, *ch, w, dt,
                                                 lower, unit_diag),
                    (("out", "write_b", b, n * m, w, col_order),))

        return self._execute(lambda: self._run_design(
            "trsm", "level2", dt, routine_flops("trsm", n, m), design,
            lambda: np.copyto(b.data, reference.trsm(
                alpha, a.data, b.data, lower=lower, unit_diag=unit_diag)),
            lambda w: (n * n // w + n * m // w, n * n + 2 * n * m),
            returns=b), async_)

    # -- batched tiny-matrix routines (Table V) -------------------------------
    def batched_gemm(self, size, a_batch, b_batch, c_batch,
                     alpha=1.0, beta=1.0):
        """Run ``nbatch`` fully-unrolled size x size GEMMs, one per cycle.

        ``*_batch`` are (nbatch, size, size) device buffers.  Returns the
        result array; the call record reflects the II=1 pipeline: roughly
        ``latency + nbatch`` cycles when DRAM can feed a problem per cycle.
        """
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        if beta.__class__ is not float:
            real_scalar("beta", beta)
        return self._run_batched(
            "gemm", size, (a_batch, b_batch, c_batch), 40,
            lambda nbatch, *rest: level3.gemm_unrolled(
                size, nbatch, alpha, beta, *rest),
            lambda ai, bi, ci: reference.gemm(alpha, ai, bi, beta, ci),
            2 * size ** 3)

    def batched_trsm(self, size, a_batch, b_batch, alpha=1.0):
        """Run ``nbatch`` fully-unrolled size x size TRSMs, one per cycle."""
        if alpha.__class__ is not float:
            real_scalar("alpha", alpha)
        return self._run_batched(
            "trsm", size, (a_batch, b_batch), 50,
            lambda nbatch, *rest: level3.trsm_unrolled(
                size, nbatch, alpha, *rest),
            lambda ai, bi: reference.trsm(alpha, ai, bi), size ** 3)
