"""The FBLAS host API (Sec. II-B).

:class:`Fblas` exposes library calls matching classical BLAS in signature
and behaviour, executed on the simulated FPGA.  Calls are synchronous by
default; passing ``async_=True`` returns a :class:`Handle` immediately
(the paper's asynchronous flavour) which materializes on ``wait()`` or at
:meth:`Fblas.finish`.

Precision is carried by the device buffers (float32 = s-routines, float64
= d-routines); classic prefixed names (``sdot``, ``dgemv``, ``isamax``,
...) are provided as checked aliases.

Two execution modes:

``simulate``
    Every call builds a full streaming design — DRAM interface kernels,
    the routine module, write-back — and runs it cycle by cycle.  Exact
    but meant for moderate sizes.
``model``
    Results come from the numpy reference; cycles and I/O come from the
    Sec. IV/V closed forms (which the tests validate against the
    simulator).  This is how the paper-scale benchmark tables are
    produced.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..blas.routines import REGISTRY
from ..fpga.device import STRATIX10, FpgaDevice
from ..fpga.engine import Engine, check_engine_mode
from ..fpga.memory import DramBuffer, read_kernel, write_kernel
from ..fpga.resources import level1_latency
from ..fpga.util import sink_kernel
from ..plan import PlanCache
from ..telemetry.ledger import run_scope
from ..telemetry.runtime import active as _telemetry_active
from ._l1 import Level1Mixin
from ._l2 import Level2Mixin
from ._l3 import Level3Mixin
from ._validate import HostArgumentError, HostValueError, device_operands
from .context import CallRecord, FblasContext

_PREFIXED = {
    "s": np.float32, "d": np.float64,
}


class Handle:
    """Deferred result of an asynchronous call."""

    def __init__(self, thunk: Callable):
        self._thunk = thunk
        self._done = False
        self._value = None

    def wait(self):
        """Block until the call completes; returns the result."""
        if not self._done:
            self._value = self._thunk()
            self._done = True
        return self._value

    def result(self):
        return self.wait()

    @property
    def done(self) -> bool:
        return self._done


class Fblas(Level1Mixin, Level2Mixin, Level3Mixin):
    """FBLAS library instance bound to one device context."""

    def __init__(self, context: Optional[FblasContext] = None,
                 device: FpgaDevice = STRATIX10, mode: str = "simulate",
                 width: Optional[int] = None, tile: Optional[int] = None,
                 systolic_rows: int = 4, systolic_cols: int = 4,
                 channel_depth: int = 256, preflight: bool = False,
                 engine_mode: str = "event", resilience=None,
                 schedule_cache: Optional[PlanCache] = None,
                 **context_kwargs):
        if mode not in ("simulate", "model"):
            raise HostValueError(
                f"mode must be simulate/model, got {mode!r}")
        self.context = context or FblasContext(device=device,
                                               **context_kwargs)
        self.mode = mode
        self.width = width or self.context.default_width
        self.tile = tile or self.context.default_tile
        if systolic_rows < 1 or systolic_cols < 1:
            raise HostValueError("systolic grid must be positive")
        self.systolic_rows = systolic_rows
        self.systolic_cols = systolic_cols
        self.channel_depth = channel_depth
        #: Run the static analyzer (:mod:`repro.analysis`) on every built
        #: design before simulating it; errors raise
        #: :class:`~repro.analysis.AnalysisError` instead of stalling.
        self.preflight = preflight
        #: Engine core used for ``simulate`` calls, one of
        #: :data:`repro.fpga.engine.ENGINE_MODES`: ``"event"`` (wake-list
        #: scheduler, the default), ``"dense"`` (reference cycle loop),
        #: ``"certified"`` (the FB4xx rate analysis must certify the
        #: design up front, after which its windows replay as arithmetic
        #: supersteps — byte-identical results; raises
        #: :class:`~repro.analysis.AnalysisError` for non-certifiable
        #: designs) or ``"bulk"`` (replays like ``"certified"`` when the
        #: design certifies, steps like ``"event"`` when it does not).
        self.engine_mode = check_engine_mode(engine_mode)
        #: Certified static schedules memoized on the structural
        #: ``plan_key`` (device identity included) — rebuilding the same
        #: composition for a new problem instance reuses the certificate
        #: instead of re-running the rate passes.  A counting
        #: :class:`repro.plan.PlanCache`, so hit rates are observable
        #: (and, under a telemetry session, exported as the labelled
        #: ``plan_cache.requests`` counter).  An externally-owned
        #: instance is accepted so a service layer can share one across
        #: its whole worker fleet (every worker's repeat plans hit the
        #: same entries).
        self._schedule_cache: PlanCache = (
            schedule_cache if schedule_cache is not None
            else PlanCache(name="host.schedule"))
        #: Recovery ladder for ``simulate`` calls: ``None`` disables it,
        #: ``True`` uses the default :class:`repro.faults.RetryPolicy`,
        #: or pass a policy instance.  When set, every call runs under
        #: :func:`repro.faults.run_with_recovery`: device memory is
        #: checkpointed before the attempt, transient faults retry from
        #: the checkpoint, and watchdog trips demote the engine tier
        #: (certified | bulk -> event -> dense) for the re-attempt.
        if resilience is True:
            from ..faults.recovery import RetryPolicy
            resilience = RetryPolicy()
        self.resilience = resilience
        #: :class:`repro.faults.RecoveryOutcome` of the most recent call
        #: that ran under the recovery ladder (None before any).
        self.last_recovery = None
        self._pending: List[Handle] = []

    def _engine(self) -> Engine:
        """A fresh simulation engine bound to this context's memory."""
        return Engine(memory=self.context.mem, preflight=self.preflight,
                      mode=self.engine_mode,
                      schedule_cache=self._schedule_cache)

    # -- convenience passthroughs ------------------------------------------------
    def copy_to_device(self, array, name=None, bank=None):
        return self.context.copy_to_device(array, name, bank)

    def copy_from_device(self, buf):
        return self.context.copy_from_device(buf)

    def allocate(self, shape, dtype=np.float32, name=None, bank=None):
        return self.context.allocate(shape, dtype, name, bank)

    @property
    def records(self):
        return self.context.records

    # -- async plumbing ---------------------------------------------------------
    def _run_recorded(self, thunk: Callable):
        """Run one routine thunk under a telemetry root span (if active).

        The routine name is only known *after* the thunk runs (it appends
        a :class:`~repro.host.context.CallRecord`), so the span opens
        generically and is renamed from the records it produced.

        Each instrumented call is also one **ledger request**: it mints
        the root ``run_id`` (stamped into the span, hence the Chrome
        trace), correlates everything the call spawns — engine runs,
        hang forensics, recovery outcomes — under that id, and appends a
        ``host.call`` :class:`~repro.telemetry.ledger.RunRecord` with
        the certificate cache delta, the recovery summary and the
        rolled-up certified cycle band.
        """
        runner = thunk
        if self.resilience is not None and self.mode == "simulate":
            runner = lambda: self._run_resilient(thunk)  # noqa: E731
        tel = _telemetry_active()
        if tel is None:
            return runner()
        recs = self.context.records
        before = len(recs)
        prior_recovery = self.last_recovery
        cache = self._schedule_cache
        hits0, misses0 = cache.hits, cache.misses
        with tel.span("host.call", cat="host") as sp, \
                run_scope(tel.ledger, "host.call",
                          engine_mode=self.engine_mode) as lrec:
            sp.args["run_id"] = lrec.run_id
            out = runner()
            new = recs[before:]
            if new:
                sp.name = f"host.{new[-1].routine}"
                sp.args["routine"] = new[-1].routine
                sp.args["precision"] = new[-1].precision
                sp.args["cycles"] = sum(r.cycles for r in new)
                lrec.label = new[-1].routine
                lrec.cycles = sum(r.cycles for r in new)
            lrec.schedule_cache = {"hits": cache.hits - hits0,
                                   "misses": cache.misses - misses0}
            if self.last_recovery is not prior_recovery:
                outcome = self.last_recovery
                lrec.recovery = outcome.to_dict()
                lrec.retries = outcome.retries
                lrec.demotions = outcome.demotions
                lrec.engine_mode = outcome.mode
            return out

    def _run_resilient(self, thunk: Callable):
        """Run one routine thunk under the recovery ladder.

        The thunk rebuilds its streaming design on every invocation (the
        runner constructs engine and kernels inside the closure), so
        re-attempts are safe; device memory is restored from a pre-call
        checkpoint before each re-attempt so partial writes of a failed
        run cannot leak.
        Demotion temporarily lowers :attr:`engine_mode` for the re-run.
        """
        from ..faults.recovery import MemoryCheckpoint, run_with_recovery
        ckpt = MemoryCheckpoint.capture(self.context.mem)
        saved_mode = self.engine_mode

        def attempt(mode):
            self.engine_mode = mode
            try:
                return thunk()
            finally:
                self.engine_mode = saved_mode

        out = run_with_recovery(
            attempt, policy=self.resilience, mode=saved_mode,
            restore=ckpt.restore if ckpt is not None else None)
        self.last_recovery = out
        return out.result

    def _execute(self, thunk: Callable, async_: bool):
        if not async_:
            return self._run_recorded(thunk)
        handle = Handle(lambda: self._run_recorded(thunk))
        self._pending.append(handle)
        return handle

    def finish(self) -> None:
        """Complete every outstanding asynchronous call, in issue order."""
        for handle in self._pending:
            handle.wait()
        self._pending.clear()

    # -- generated-routine invocation -------------------------------------------
    def invoke(self, routine, *args, async_=False, **kwargs):
        """Call a code-generator routine through the host API.

        ``routine`` is a :class:`repro.codegen.GeneratedRoutine` (or a
        bare :class:`RoutineSpec`); the call runs with the routine's
        specialized non-functional parameters — vectorization width, tile
        sizes, functional flags — instead of this instance's defaults,
        mirroring how FBLAS host programs call the kernels their
        specification file produced.  Positional/keyword arguments follow
        the corresponding named method (e.g. ``invoke(gen_dot, x, y)``).
        """
        spec = getattr(routine, "spec", routine)
        dtype = np.float32 if spec.precision == "single" else np.float64
        self._check_dtype(spec.user_name, dtype, spec.blas_name, args, kwargs)
        method = getattr(self, spec.blas_name)
        if spec.blas_name == "gemv":
            kwargs.setdefault("trans", spec.transposed)
        elif spec.blas_name in ("trsv", "trsm"):
            kwargs.setdefault("lower", spec.lower)
            kwargs.setdefault("unit_diag", spec.unit_diag)
        saved_width, saved_tile = self.width, self.tile
        self.width = spec.width
        if spec.tiled:
            self.tile = max(spec.tile_n_size, spec.tile_m_size)
        try:
            if spec.blas_name in ("rotg", "rotmg"):
                return method(*args, dtype=dtype, **kwargs)
            return method(*args, async_=async_, **kwargs)
        finally:
            self.width, self.tile = saved_width, saved_tile

    # -- prefixed BLAS aliases ----------------------------------------------------
    def __getattr__(self, name: str):
        # sdot, dgemv, ...: any registry routine behind an s/d prefix.
        # IAMAX is spelled isamax/idamax; sdsdot is a method of its own.
        if name in ("isamax", "idamax"):
            prefix, base = name[1], "iamax"
        else:
            prefix, base = name[:1], name[1:]
            if base in ("iamax", "sdsdot"):     # siamax, dsdsdot: not BLAS
                base = None
        if prefix in _PREFIXED and base in REGISTRY:
            want = _PREFIXED[prefix]
            method = getattr(self, base)

            def checked(*args, **kwargs):
                self._check_dtype(name, want, base, args, kwargs)
                if base in ("rotg", "rotmg"):
                    kwargs.setdefault("dtype", want)
                return method(*args, **kwargs)

            checked.__name__ = name
            return checked
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @staticmethod
    def _check_dtype(name, want, routine, args, kwargs):
        """Hold the routine's declared array operands, wherever the call
        passes them, to the precision the prefixed name promises."""
        for i, (operand, rank) in enumerate(REGISTRY[routine].operands):
            buf = args[i] if i < len(args) else kwargs.get(operand)
            if rank and isinstance(buf, DramBuffer) \
                    and buf.data.dtype != want:
                raise HostArgumentError(
                    f"{name} requires {np.dtype(want).name} buffers, got "
                    f"{buf.data.dtype.name} ({buf.name!r})")

    # -- the design runners every routine goes through ----------------------------
    def _record(self, routine, klass, dtype, cycles, io, flops, mode):
        """Account one call: the only place a :class:`CallRecord` is made,
        so the two modes cannot disagree on routine, precision or flops."""
        precision = "single" if dtype == np.float32 else "double"
        return self.context.record(CallRecord(
            routine, precision, cycles,
            self.context.frequency_for(klass, precision), io, flops, mode))

    def _run_design(self, routine, klass, dtype, flops, design, update,
                    model, returns=None, sink=False, io_extra=0):
        """Run one streamed routine from its design row (``klass`` is its
        frequency-model class, ``dtype`` what its operands share).

        ``design(width)`` describes the streaming design and is only
        looked at when simulating: ``(reads, module, writes, *extras)``
        with one tuple per DRAM stream — ``(channel, kernel name,
        *read_kernel arguments from the buffer on)`` and ``(channel,
        kernel name, *write_kernel arguments from the buffer on)`` — a
        ``module(channels)`` factory for the routine's kernel (named after
        the routine, latency from its registry class), and ``(channel,
        kernel name, factory(channels))`` extras such as the y-replay
        router.  A channel is a name (default depth) or ``(name, depth)``.
        Channels are created reads, extras, writes (then the ``sink``
        result channel); kernels reads, module, extras, sink, writes.
        Names and creation order are part of the contract: they are in
        ``SimReport.to_dict()`` and the structural ``plan_key``.

        ``update()`` applies :mod:`repro.blas.reference` to the device
        buffers (and returns the scalar of a reduction) and
        ``model(width)`` gives the closed-form ``(cycles, io_elements)``;
        both are only used in model mode.  The call returns the refreshed
        ``returns`` buffer, the ``sink`` scalar, or None.
        """
        if self.mode == "model":
            value = update()
            self._record(routine, klass, dtype, *model(self.width), flops,
                         "model")
        else:
            mem = self.context.mem
            io_before = mem.total_elements_moved
            eng = self._engine()
            reads, module, writes, *extras = design(self.width)
            chans, result = [], []
            for spec, *_ in (*reads, *extras, *writes):
                chans.append(eng.channel(*spec) if spec.__class__ is tuple
                             else eng.channel(spec, self.channel_depth))
            if sink:
                chans.append(eng.channel("res", 4))
            for (_, name, buf, *rest), ch in zip(reads, chans):
                eng.add_kernel(name, read_kernel(mem, buf, ch, *rest))
            eng.add_kernel(routine, module(chans), latency=level1_latency(
                REGISTRY[routine].inner_class, self.width,
                "single" if dtype == np.float32 else "double"))
            for _, name, factory in extras:
                eng.add_kernel(name, factory(chans))
            if sink:
                eng.add_kernel("sink", sink_kernel(chans[-1], 1, 1, result))
                io_extra = 1                    # the scalar result
            for (_, name, buf, *rest), ch in zip(
                    writes, chans[len(reads) + len(extras):]):
                eng.add_kernel(name, write_kernel(mem, buf, ch, *rest))
            report = eng.run()
            self._record(routine, klass, dtype, report.cycles,
                         mem.total_elements_moved - io_before + io_extra,
                         flops, "simulate")
            value = result[0] if sink else None
        if returns is not None:
            return self.context.copy_from_device(returns)
        return value

    def _run_batched(self, base, size, batches, latency, module, solve,
                     flops_each):
        """Run one batched tiny-matrix routine (Table V) of ``base``.

        A feeder reads problem ``i`` of every ``(nbatch, size, size)``
        buffer in ``batches`` in one burst and pushes it into the fully
        unrolled ``module(nbatch, ch_in, ch_out, dtype)`` of fixed
        ``latency``, whose results overwrite the last buffer; model mode
        applies ``solve`` problem by problem instead.
        """
        dt = device_operands(f"batched_{base}", *batches).type
        out = batches[-1]
        nbatch, s2, k = len(out.data), size * size, len(batches)
        if any(b.data.shape != (nbatch, size, size) for b in batches):
            raise HostValueError(
                f"batched_{base}: every batch must be (nbatch, {size}, "
                f"{size}), got {[b.data.shape for b in batches]}")
        mem = self.context.mem
        if self.mode == "model":
            res = np.empty_like(out.data)
            for i in range(nbatch):
                res[i] = solve(*(b.data[i] for b in batches))
            out.data[:] = res
            cycles, io = latency + nbatch, (k + 1) * s2 * nbatch
        else:
            io_before = mem.total_elements_moved
            eng = self._engine()
            ci = eng.channel("in", (k + 1) * s2)
            co = eng.channel("out", 2 * s2)

            def feeder():
                from ..fpga.kernel import Clock, Push
                for i in range(nbatch):
                    vals = sum((tuple(b.data[i].reshape(-1))
                                for b in batches), ())
                    granted = 0
                    need = k * s2 * out.itemsize
                    while granted < need:
                        granted += mem.request_read(batches[0],
                                                    need - granted)
                        yield Clock()
                    for b in batches:
                        b.elements_read += s2
                    yield Push(ci, vals, 1)
                    yield Clock()

            eng.add_kernel("feed", feeder())
            eng.add_kernel(f"{base}_u", module(nbatch, ci, co, dt),
                           latency=latency)
            eng.add_kernel("write", write_kernel(
                mem, out, co, nbatch * s2, s2))
            cycles = eng.run().cycles
            io = mem.total_elements_moved - io_before
        self._record(f"{base}_batched", "level1", dt, cycles, io,
                     flops_each * nbatch, self.mode)
        return self.context.copy_from_device(out)

    def _fit_tile(self, n: int, multiple_of: int = 1) -> int:
        """Largest divisor of n that is <= the default tile and a multiple
        of ``multiple_of`` (streaming kernels need exact tiling)."""
        if n % multiple_of:
            raise HostValueError(
                f"dimension {n} is not a multiple of the compute grid "
                f"({multiple_of})")
        top = min(n, max(self.tile, multiple_of))
        for d in range(top - top % multiple_of, 0, -multiple_of):
            if n % d == 0:
                return d
        return multiple_of
