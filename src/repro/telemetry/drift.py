"""Model-vs-measured drift: keep the paper's closed forms honest.

The analytical models in :mod:`repro.models.iomodel` and
:mod:`repro.models.performance` predict each composed application's
off-chip I/O volume and completion cycles.  The simulator *measures*
both.  This module runs the four Sec. V applications at small sizes,
evaluates the matching closed form with the latencies the composition
actually instantiated, and reports the relative error — so the
performance model is a continuously-checked observable rather than a
one-shot table.  An entry whose relative error exceeds the threshold is
*flagged*: either the model or the composition regressed.

Modeling notes (the closed forms are deliberately first-order):

* I/O models count the paper's idealized traffic; the simulated
  compositions also replay tiled vectors and stream explicit zero
  vectors, so a few-percent measured excess is expected and stays well
  under the default 25% flag threshold.
* ATAX has no published cycle form.  Its fan-out serializes the two
  GEMVs strip-by-strip (the Sec. V-B reordering hazard: the second
  GEMV's bounded A channel backpressures the shared reader until the
  intermediate vector arrives), so we model the matrix as traversed
  twice back-to-back through one pipeline of two chained GEMV depths.
* GEMVER's published ``2N^2`` form ignores the two fused GER map
  latencies in component 1; we add them via
  :func:`repro.models.performance.pipeline_cycles` per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fpga.resources import level1_latency
from ..host.context import FblasContext
from ..models import iomodel
from ..models.performance import pipeline_cycles
from ..plan import PlanIR, compile_plan

__all__ = ["DriftEntry", "DriftReport", "entries_for", "entries_from_plan",
           "drift_report", "probe", "DRIFT_SCHEMA", "DEFAULT_THRESHOLD"]

#: Schema tag for serialized drift reports.
DRIFT_SCHEMA = "repro.drift/1"

#: Relative error above which an entry is flagged as mis-modeled.
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class DriftEntry:
    """One measured-vs-modeled quantity for one application run."""

    app: str
    quantity: str               # "cycles" | "io_elements"
    measured: float
    modeled: float

    @property
    def rel_error(self) -> float:
        """|measured - modeled| / measured (0 when both are 0)."""
        if self.measured == 0:
            return 0.0 if self.modeled == 0 else math.inf
        return abs(self.measured - self.modeled) / self.measured

    def flagged(self, threshold: float = DEFAULT_THRESHOLD) -> bool:
        return self.rel_error > threshold

    def to_dict(self) -> dict:
        return {"app": self.app, "quantity": self.quantity,
                "measured": self.measured, "modeled": self.modeled,
                "rel_error": self.rel_error}


@dataclass
class DriftReport:
    """All drift entries of one sweep plus the flagging threshold."""

    entries: List[DriftEntry]
    threshold: float = DEFAULT_THRESHOLD

    def flagged(self) -> List[DriftEntry]:
        return [e for e in self.entries if e.flagged(self.threshold)]

    def table(self) -> str:
        lines = [
            "drift report (measured vs model, flag threshold "
            f"{self.threshold:.0%}):",
            f"  {'app':10s} {'quantity':12s} {'measured':>12s} "
            f"{'modeled':>12s} {'rel.err':>8s}",
        ]
        for e in self.entries:
            mark = "  <-- FLAGGED" if e.flagged(self.threshold) else ""
            lines.append(
                f"  {e.app:10s} {e.quantity:12s} {e.measured:12.0f} "
                f"{e.modeled:12.0f} {e.rel_error:8.1%}{mark}")
        n = len(self.flagged())
        lines.append(f"  {n} flagged entr{'y' if n == 1 else 'ies'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": DRIFT_SCHEMA,
            "threshold": self.threshold,
            "entries": [e.to_dict() for e in self.entries],
            "flagged": [e.to_dict() for e in self.flagged()],
        }


def entries_for(app: str, measured_cycles: float, measured_io: float,
                modeled_cycles: float, modeled_io: float) -> List[DriftEntry]:
    """Build the standard (cycles, io) entry pair for one app run."""
    return [
        DriftEntry(app, "cycles", measured_cycles, modeled_cycles),
        DriftEntry(app, "io_elements", measured_io, modeled_io),
    ]


def entries_from_plan(app: str, plan: PlanIR, measured_cycles: float,
                      measured_io: float) -> List[DriftEntry]:
    """Compare a measured run against a plan's attached predictions.

    The plan IR is the single carrier of model output: each probe
    compiles its application MDAG once, stamps the closed-form numbers
    into :attr:`repro.plan.PlanIR.predictions` via
    :meth:`~repro.plan.PlanIR.with_predictions`, and the drift entries
    are derived from the plan alone — so what the report compares is
    exactly what the compiled plan claims.
    """
    pred = plan.predictions
    if pred is None or pred.cycles_lo is None or pred.cycles_hi is None:
        raise ValueError(
            f"plan for {app!r} carries no cycle prediction; attach one "
            "with PlanIR.with_predictions() before computing drift")
    if pred.io_elements is None:
        raise ValueError(
            f"plan for {app!r} carries no io_elements prediction")
    # A point prediction (lo == hi) is passed through unchanged so the
    # drift numbers stay identical to the closed form that produced it.
    modeled_cycles = (pred.cycles_lo if pred.cycles_lo == pred.cycles_hi
                      else (pred.cycles_lo + pred.cycles_hi) / 2)
    return entries_for(app, measured_cycles, measured_io,
                       modeled_cycles, pred.io_elements)


# ---------------------------------------------------------------------------
# Per-application measured-vs-modeled probes (small, deterministic sizes)
# ---------------------------------------------------------------------------

def _axpydot_model(n: int, width: int) -> Tuple[float, float]:
    model = iomodel.axpydot(
        n, l_copy=0,                            # the copy module is fused away
        l_axpy=level1_latency("map", width, "single"),
        l_dot=level1_latency("map_reduce", width, "single"),
        width=width)
    return model.streaming_cycles, model.streaming_io


def _bicg_model(n: int, width: int) -> Tuple[float, float]:
    model = iomodel.bicg(
        n, n, l_gemv=level1_latency("map_reduce", width, "single"),
        width=width)
    return model.streaming_cycles, model.streaming_io


def _atax_model(n: int, width: int) -> Tuple[float, float]:
    lat = level1_latency("map_reduce", width, "single")
    # The fan-out serializes the two GEMVs (see module docstring): the
    # matrix effectively streams through the chained pipeline twice.
    return (pipeline_cycles(2 * lat, 1, 2 * math.ceil(n * n / width)),
            iomodel.atax_io(n, n, streaming_valid=True))


def _gemver_model(n: int, width: int) -> Tuple[float, float]:
    l_map = level1_latency("map", width, "single")
    l_red = level1_latency("map_reduce", width, "single")
    # Component 1 chains GER -> GER -> GEMV^T (two map depths plus one
    # reduce depth); component 2 is the lone GEMV.  Each streams N^2/W
    # blocks.
    steps = math.ceil(n * n / width)
    return (pipeline_cycles(2 * l_map + l_red, 1, steps)
            + pipeline_cycles(l_red, 1, steps),
            iomodel.gemver(n, l_mod=l_red, width=width).streaming_io)


#: One row per catalogue app: its closed form ``(n, width) -> (cycles,
#: io_elements)`` and the size, tile and width the sweep runs it at.
_MODELS: Dict[str, Tuple[Callable[[int, int], Tuple[float, float]],
                         int, int, int]] = {
    "axpydot": (_axpydot_model, 2048, 8, 16),
    "bicg": (_bicg_model, 64, 8, 8),
    "atax": (_atax_model, 64, 8, 8),
    "gemver": (_gemver_model, 32, 8, 8),
}


def probe(app: str, n: int, tile: int, width: int,
          mode: str = "event") -> List[DriftEntry]:
    """Run catalogue app ``app`` at one size against its closed form,
    stamped into the predictions of the app's compiled MDAG plan."""
    from ..apps import APPS
    spec = APPS[app]
    res = spec.run(FblasContext(), spec.draw(np.random.default_rng(7), n),
                   width=width, tile=tile, mode=mode)
    cycles, io = _MODELS[app][0](n, width)
    plan = compile_plan(spec.mdag()).with_predictions(
        cycles_lo=cycles, cycles_hi=cycles, io_elements=io)
    return entries_from_plan(app, plan, res.cycles, res.io_elements)


def drift_report(apps: Optional[Sequence[str]] = None,
                 threshold: float = DEFAULT_THRESHOLD,
                 mode: str = "event") -> DriftReport:
    """Run the drift sweep for ``apps`` (default: every catalogue app)."""
    from ..apps import APPS
    entries: List[DriftEntry] = []
    for app in (apps or APPS):
        if app not in _MODELS:
            raise ValueError(
                f"unknown app {app!r}; expected one of {', '.join(_MODELS)}")
        _model, n, tile, width = _MODELS[app]
        entries.extend(probe(app, n, tile, width, mode=mode))
    return DriftReport(entries, threshold)
