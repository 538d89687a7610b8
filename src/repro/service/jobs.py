"""Job kinds the simulation service accepts.

Three shapes of work, mirroring how the repository's layers are used:

* :class:`RoutineJob` — one FBLAS routine call by name, with host-side
  numpy arguments.  By-value semantics: arrays are copied to the
  worker's device memory for the run and the routine's return value is
  the result; the caller's arrays are never mutated.  Compatible small
  jobs (same :meth:`~RoutineJob.batch_key`) fuse into one batched
  engine run — the Table V batched-operation regime.
* :class:`EngineJob` — an arbitrary streaming composition built by a
  caller-supplied function onto a fresh engine/context pair.  This is
  the kind admission control can *prove* things about: the FBxxx
  pre-flight runs on the built design before the job is queued.
* :class:`AppJob` — an opaque callable given the engine mode, e.g. a
  catalogue ``repro.apps.AppSpec.run`` over bound operands; admitted as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["AppJob", "EngineJob", "PlanJob", "RoutineJob",
           "BATCHABLE_ROUTINES"]

#: Routines the batch fuser knows how to run back-to-back over one
#: pipeline (see :mod:`repro.service.batch`).
BATCHABLE_ROUTINES = ("dot", "axpy")


@dataclass
class RoutineJob:
    """Call ``Fblas.<routine>(*args, **kwargs)`` on a worker.

    ``args``/``kwargs`` hold host values: numpy arrays are copied into
    the worker's device DRAM (and released after the run); scalars pass
    through.  The job's result is the routine's return value.
    """

    routine: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"routine.{self.routine}"

    @property
    def plan_label(self) -> str:
        """Degradation key: one sticky tier per routine/shape/dtype."""
        shapes = "x".join(
            str(a.size) for a in self.args if isinstance(a, np.ndarray))
        dts = {a.dtype.name for a in self.args
               if isinstance(a, np.ndarray)}
        return f"{self.routine}/{shapes or 'scalar'}/{'+'.join(sorted(dts))}"

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(a for a in self.args if isinstance(a, np.ndarray))

    def batch_key(self) -> Optional[Tuple]:
        """Fusion compatibility key, or None when the job must run alone.

        Two jobs with equal keys stream back to back through one
        pipeline with bit-identical results (the batched kernels
        reproduce the per-segment summation order exactly).
        """
        if self.routine not in BATCHABLE_ROUTINES or self.kwargs:
            return None
        arrs = self.arrays()
        if self.routine == "dot":
            if len(self.args) != 2 or len(arrs) != 2:
                return None
        elif self.routine == "axpy":
            # (alpha, x, y) with a scalar alpha.
            if len(self.args) != 3 or len(arrs) != 2 or \
                    isinstance(self.args[0], np.ndarray):
                return None
        x, y = arrs
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or \
                x.dtype != y.dtype or x.size == 0:
            return None
        return (self.routine, x.size, x.dtype.name)

    def validate(self) -> Optional[str]:
        """Request-shape check; returns a rejection message or None.

        Held to the same operand declaration the host API checks device
        buffers against (:attr:`repro.blas.routines.RoutineInfo.operands`):
        every operand present, arrays exactly where the routine takes
        them (and positional — only ``args`` are copied to the device),
        float32/float64, non-empty, matrices 2-D, one common dtype.
        """
        from ..blas.routines import REGISTRY
        if self.routine not in REGISTRY:
            return f"unknown routine {self.routine!r}"
        who = f"routine {self.routine!r}"
        operands = REGISTRY[self.routine].operands
        args, nargs, dtype = self.args, len(self.args), None
        for i, (name, rank) in enumerate(operands):
            if i >= nargs:
                if rank or name not in self.kwargs:
                    return f"{who}: missing positional operand {name!r}"
                continue
            a = args[i]
            if isinstance(a, np.ndarray) != (rank > 0):
                return (f"{who}: operand {name!r} must be "
                        f"{'an ndarray' if rank else 'a scalar'}, got "
                        f"{type(a).__name__}")
            if not rank:
                continue
            if a.dtype != np.float32 and a.dtype != np.float64:
                return (f"{who}: FBLAS buffers are float32/float64, got "
                        f"{a.dtype}")
            if a.size == 0:
                return f"{who}: empty operand"
            if rank > 1 and a.ndim != rank:
                return (f"{who}: operand {name!r} must be {rank}-D, got "
                        f"shape {a.shape}")
            if dtype is None:
                dtype = a.dtype
            elif a.dtype != dtype:
                return f"{who}: mixed precision ({dtype} and {a.dtype})"
        for a in args[len(operands):]:
            if isinstance(a, np.ndarray):
                return f"{who}: unexpected array argument"
        return None


@dataclass
class EngineJob:
    """Build-and-run an arbitrary streaming composition.

    ``build(engine, context)`` wires kernels and channels onto the
    given fresh :class:`~repro.fpga.engine.Engine` (bound to the fresh
    :class:`~repro.host.context.FblasContext`'s memory) and returns a
    zero-argument finisher producing the job's result after the run —
    or None for side-effect-only designs.  The builder is invoked once
    at admission (on a throwaway pair, for the FBxxx pre-flight) and
    once per execution attempt, so it must be re-entrant.
    """

    build: Callable[[Any, Any], Optional[Callable[[], Any]]]
    name: str = "engine"

    @property
    def label(self) -> str:
        return f"engine.{self.name}"

    @property
    def plan_label(self) -> str:
        return self.label


@dataclass
class PlanJob:
    """Build-and-execute a bound MDAG through the streaming executor.

    ``build(context)`` constructs a :class:`~repro.streaming.BoundMDAG`
    on the given fresh context's memory and returns ``(mdag, finish)``
    where ``finish()`` produces the job's result after execution (or
    None).  The worker routes the run through
    :func:`repro.streaming.execute_plan` with the **service-shared
    compiled-plan cache**: the structural MDAG fingerprint of a repeat
    plan — even from a different tenant on a different worker — is a
    cache hit that skips validation, scheduling and pattern derivation.
    Admission runs the FBxxx MDAG passes on the built graph.
    """

    build: Callable[[Any], Tuple[Any, Optional[Callable[[], Any]]]]
    name: str = "plan"
    windows: Optional[Dict] = None
    buffer_budget: int = 0

    @property
    def label(self) -> str:
        return f"plan.{self.name}"

    @property
    def plan_label(self) -> str:
        return self.label


@dataclass
class AppJob:
    """Run an opaque application callable: ``run(engine_mode) -> result``.

    The campaign-style self-verifying shape — ``run`` may return a
    ``(value, reference)`` pair and assert equivalence itself.  No
    static design is available at submit time, so admission only gates
    on service health (queue bound, shutdown), never on FBxxx.
    """

    run: Callable[[str], Any]
    name: str = "app"

    @property
    def label(self) -> str:
        return f"app.{self.name}"

    @property
    def plan_label(self) -> str:
        return self.label
