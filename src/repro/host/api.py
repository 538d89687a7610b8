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

import functools
import inspect
from typing import Callable, List, Optional

import numpy as np

from ..fpga.device import STRATIX10, FpgaDevice
from ..fpga.engine import Engine
from ..fpga.errors import ReproError
from ..fpga.memory import DramBuffer
from ..plan import PlanCache
from ..telemetry.ledger import run_scope
from ..telemetry.runtime import active as _telemetry_active
from ._l1 import Level1Mixin
from ._l2 import Level2Mixin
from ._l3 import Level3Mixin
from .context import FblasContext

_PREFIXED = {
    "s": np.float32, "d": np.float64,
}

#: Routines reachable through BLAS-prefixed aliases.
_ALIASABLE = {
    "scal", "copy", "axpy", "swap", "rot", "rotm", "dot", "nrm2", "asum",
    "gemv", "ger", "syr", "syr2", "trsv", "gemm", "syrk", "syr2k", "trsm",
    "rotg", "rotmg",
}


class HostArgumentError(ReproError, TypeError):
    """A vector/matrix operand of a host call is not a device buffer."""


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
                 plan_cache: Optional[PlanCache] = None,
                 schedule_cache: Optional[PlanCache] = None,
                 **context_kwargs):
        if mode not in ("simulate", "model"):
            raise ValueError(f"mode must be simulate/model, got {mode!r}")
        self.context = context or FblasContext(device=device,
                                               **context_kwargs)
        self.mode = mode
        self.width = width or self.context.default_width
        self.tile = tile or self.context.default_tile
        if systolic_rows < 1 or systolic_cols < 1:
            raise ValueError("systolic grid must be positive")
        self.systolic_rows = systolic_rows
        self.systolic_cols = systolic_cols
        self.channel_depth = channel_depth
        #: Run the static analyzer (:mod:`repro.analysis`) on every built
        #: design before simulating it; errors raise
        #: :class:`~repro.analysis.AnalysisError` instead of stalling.
        self.preflight = preflight
        #: Engine core used for ``simulate`` calls: ``"event"`` (wake-list
        #: scheduler, the default), ``"dense"`` (reference cycle loop),
        #: ``"bulk"`` (event core plus the steady-state superstep fast
        #: path of :mod:`repro.fpga.bulk` — byte-identical results,
        #: fast-forwarded steady pipeline phases) or ``"certified"``
        #: (fully static: the FB4xx rate analysis must certify the design
        #: up front, after which steady windows replay with no runtime
        #: probing; raises :class:`~repro.analysis.AnalysisError` for
        #: non-certifiable designs).
        self.engine_mode = engine_mode
        #: Certified static schedules memoized on the structural
        #: ``plan_key`` (device identity included) — rebuilding the same
        #: composition for a new problem instance reuses the certificate
        #: instead of re-running the rate passes.  A counting
        #: :class:`repro.plan.PlanCache`, so hit rates are observable
        #: (and, under a telemetry session, exported as the labelled
        #: ``plan_cache.requests`` counter).
        #: Both caches accept externally-owned instances so a service
        #: layer can share one compiled-plan cache across its whole
        #: worker fleet (every worker's repeat plans hit the same
        #: entries).
        self._schedule_cache: PlanCache = (
            schedule_cache if schedule_cache is not None
            else PlanCache(name="host.schedule"))
        #: Compiled :class:`repro.plan.PlanIR` artifacts memoized on a
        #: structural MDAG fingerprint: repeat ``simulate`` requests of
        #: the same composition shape skip MDAG validation, scheduling
        #: and pattern derivation entirely.
        self.plan_cache: PlanCache = (
            plan_cache if plan_cache is not None
            else PlanCache(name="host.plan"))
        #: Recovery ladder for ``simulate`` calls: ``None`` disables it,
        #: ``True`` uses the default :class:`repro.faults.RetryPolicy`,
        #: or pass a policy instance.  When set, every call runs under
        #: :func:`repro.faults.run_with_recovery`: device memory is
        #: checkpointed before the attempt, transient faults retry from
        #: the checkpoint, and watchdog trips demote the engine tier
        #: (bulk -> event -> dense) for the re-attempt.
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
        the plan/certificate cache deltas, the recovery summary and the
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
        pc0 = self.plan_cache.stats()
        sc0 = self._schedule_cache.stats()
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
            pc1 = self.plan_cache.stats()
            sc1 = self._schedule_cache.stats()
            lrec.plan_cache = {"hits": pc1["hits"] - pc0["hits"],
                               "misses": pc1["misses"] - pc0["misses"]}
            lrec.schedule_cache = {"hits": sc1["hits"] - sc0["hits"],
                                   "misses": sc1["misses"] - sc0["misses"]}
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
        mixins construct kernels inside the closure), so re-attempts are
        safe; device memory is restored from a pre-call checkpoint before
        each re-attempt so partial writes of a failed run cannot leak.
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
        for arg in args:
            if hasattr(arg, "data") and hasattr(arg.data, "dtype"):
                want = (np.float32 if spec.precision == "single"
                        else np.float64)
                self._check_dtype(spec.user_name, want, arg)
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
                dtype = (np.float32 if spec.precision == "single"
                         else np.float64)
                return method(*args, dtype=dtype, **kwargs)
            return method(*args, async_=async_, **kwargs)
        finally:
            self.width, self.tile = saved_width, saved_tile

    # -- prefixed BLAS aliases ----------------------------------------------------
    def __getattr__(self, name: str):
        # isamax/idamax
        if name in ("isamax", "idamax"):
            want = _PREFIXED[name[1]]
            def checked_iamax(x, **kw):
                self._check_dtype(name, want, x)
                return self.iamax(x, **kw)
            return checked_iamax
        if name == "sdsdot":
            raise AttributeError(name)  # defined concretely on the mixin
        if len(name) > 1 and name[0] in _PREFIXED and name[1:] in _ALIASABLE:
            base = name[1:]
            want = _PREFIXED[name[0]]
            method = getattr(self, base)

            def checked(*args, **kwargs):
                for arg in args:
                    if hasattr(arg, "data") and hasattr(arg.data, "dtype"):
                        self._check_dtype(name, want, arg)
                if base in ("rotg", "rotmg"):
                    kwargs.setdefault("dtype", want)
                return method(*args, **kwargs)

            checked.__name__ = name
            return checked
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @staticmethod
    def _check_dtype(name, want, buf):
        if buf.data.dtype != want:
            raise TypeError(
                f"{name} requires {np.dtype(want).name} buffers, got "
                f"{buf.data.dtype.name} ({buf.name!r})")

    # -- shared helpers used by the mixins -----------------------------------------
    def _precision(self, buf) -> str:
        return "single" if buf.data.dtype == np.float32 else "double"

    def _frequency(self, routine_class: str, dtype) -> float:
        precision = "single" if np.dtype(dtype) == np.float32 else "double"
        return self.context.frequency_for(routine_class, precision)

    def _same_length(self, x, y) -> int:
        if x.num_elements != y.num_elements:
            raise ValueError(
                f"vector length mismatch: {x.num_elements} vs "
                f"{y.num_elements}")
        if x.data.dtype != y.data.dtype:
            raise TypeError(
                f"mixed precision: {x.data.dtype} vs {y.data.dtype}")
        return x.num_elements

    def _fit_tile(self, n: int, multiple_of: int = 1) -> int:
        """Largest divisor of n that is <= the default tile and a multiple
        of ``multiple_of`` (streaming kernels need exact tiling)."""
        if n % multiple_of:
            raise ValueError(
                f"dimension {n} is not a multiple of the compute grid "
                f"({multiple_of})")
        best = multiple_of
        limit = max(self.tile, multiple_of)
        for d in range(multiple_of, n + 1, multiple_of):
            if n % d == 0 and d <= limit:
                best = d
        return best


def _device_operands(fn):
    """Reject host-side operands before the routine touches them.

    FBLAS routines work on device buffers (results land in device
    memory), so a raw ``ndarray`` is a caller error; name the argument
    instead of failing deep inside the stride plumbing.
    """
    # (rot's ``c`` is the rotation's cosine, not a matrix.)
    buffers = {"a", "b", "x", "y"}
    if fn.__name__ != "rot":
        buffers.add("c")
    operands = [(i, name) for i, name in
                enumerate(list(inspect.signature(fn).parameters)[1:])
                if name in buffers]

    @functools.wraps(fn)
    def checked(self, *args, **kwargs):
        for i, name in operands:
            if i < len(args):
                val = args[i]
            elif name in kwargs:
                val = kwargs[name]
            else:
                continue
            if not isinstance(val, DramBuffer):
                raise HostArgumentError(
                    f"{fn.__name__}: argument {name!r} must be a device "
                    f"buffer (see Fblas.copy_to_device), got "
                    f"{type(val).__name__}")
        return fn(self, *args, **kwargs)
    return checked


for _name in sorted((_ALIASABLE | {"sdsdot", "iamax"}) - {"rotg", "rotmg"}):
    setattr(Fblas, _name, _device_operands(getattr(Fblas, _name)))
