"""``repro.plan`` — the typed plan IR (``repro.plan/1``).

One compiled artifact, five consumers:

* the **analyzer** (:mod:`repro.analysis`) runs its FB0xx/FB1xx/FB4xx
  passes over the IR instead of introspecting live engines;
* the **certifier** (:func:`repro.analysis.certify`) is a
  PlanIR -> StaticSchedule pass memoized on :attr:`PlanIR.plan_key`;
* the **executor** (:func:`repro.streaming.execute_plan`) builds
  engines from the IR's recorded scheduling decisions, with a
  ``plan_key``-addressed cache that skips MDAG validation and
  scheduling on repeat requests;
* **codegen** (:func:`repro.codegen.emit_composition`) emits channel
  declarations from the IR's planned depths;
* the **drift reporter** (:mod:`repro.telemetry.drift`) compares
  measured runs against the predictions attached to the IR.
"""

from .cache import PlanCache
from .compile import (
    EngineRows,
    as_plan,
    compile_plan,
    composition_from_plan,
    mdag_fingerprint,
    plan_from_composition,
    plan_from_engine,
    plan_from_mdag,
    plan_identity,
)
from .ir import (
    PLAN_SCHEMA,
    PlanChannel,
    PlanEdge,
    PlanError,
    PlanIR,
    PlanKernel,
    PlanMemory,
    PlanPlacement,
    PlanPort,
    PlanPrediction,
    PlanTraffic,
)

__all__ = [
    "PLAN_SCHEMA", "EngineRows", "PlanCache", "PlanChannel", "PlanEdge",
    "PlanError", "PlanIR", "PlanKernel", "PlanMemory", "PlanPlacement", "PlanPort",
    "PlanPrediction", "PlanTraffic", "as_plan", "compile_plan",
    "composition_from_plan", "mdag_fingerprint", "plan_from_composition",
    "plan_from_engine", "plan_from_mdag", "plan_identity",
]
