"""Static design-checking for streaming compositions (Sec. V, fail-fast).

The paper argues MDAG validity *statically*: an invalid composition does
not crash, it stalls forever.  This package catches those mistakes before
any cycle is simulated, as a pass-based analyzer with stable ``FBxxx``
diagnostic codes over three kinds of subject:

* :func:`analyze_mdag` — MDAGs (signatures, cycles, replay, and the
  reconvergent-buffering prover of Sec. V-B);
* :func:`analyze_engine` — a built :class:`~repro.fpga.engine.Engine`
  whose kernels declared their ports (wiring, cycles, and the
  channel-depth sufficiency prover), run automatically by
  ``Engine.run(preflight=True)``;
* :func:`analyze_specs` — codegen routine specifications (lint plus
  resource fit against the Table II device catalogs);
* :func:`analyze_rates` — SDF rate analysis over an engine's
  :class:`~repro.fpga.pattern.StaticPattern` ports (balance equations,
  token conservation, bank-bandwidth feasibility, minimal deadlock-free
  depths — the FB4xx family), and :func:`certify` /
  :func:`ensure_certified` to compile the passing design into a
  :class:`~repro.analysis.schedule.StaticSchedule` that
  ``Engine(mode="certified")`` replays without runtime probing.

``python -m repro.analysis`` exposes the same checks on the command line
(``--json`` for the versioned ``repro.analysis/1`` report, ``--sarif``
for SARIF 2.1.0).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .diagnostics import (
    ANALYSIS_SCHEMA,
    CODES,
    SCHEDULE_SCHEMA,
    AnalysisError,
    AnalysisResult,
    Diagnostic,
    Severity,
)
from .graphs import disjoint_paths, multipath_pairs, reconvergent_pairs
from .passes import REGISTRIES, register, run_passes

# Importing the pass modules populates the registries.
from . import engine_passes, mdag_passes, rate_passes, spec_passes  # noqa: F401
from .schedule import (
    ChannelPlan,
    KernelSchedule,
    PhaseSegment,
    StaticSchedule,
    certify,
    ensure_certified,
    schedule_key,
)
from .spec_passes import estimate_spec_resources

__all__ = [
    "ANALYSIS_SCHEMA", "CODES", "SCHEDULE_SCHEMA",
    "AnalysisError", "AnalysisResult", "ChannelPlan", "Diagnostic",
    "KernelSchedule", "PhaseSegment", "Severity", "StaticSchedule",
    "REGISTRIES", "analyze_engine", "analyze_mdag", "analyze_rates",
    "analyze_specs", "certify", "disjoint_paths", "ensure_certified",
    "estimate_spec_resources",
    "multipath_pairs", "reconvergent_pairs", "register", "run_passes",
    "schedule_key",
]


def analyze_mdag(mdag, windows: Optional[Dict[Tuple[str, str], int]] = None,
                 ) -> AnalysisResult:
    """Run every MDAG pass; see :mod:`repro.analysis.mdag_passes`.

    ``windows`` optionally maps edges to reordering windows (elements), in
    which case reconvergent pairs are *proved* safe (FB008) or deadlocking
    (FB003) instead of merely flagged (FB002).
    """
    return run_passes("mdag", mdag, {"windows": windows or {}},
                      subject_name="MDAG")


def analyze_engine(engine) -> AnalysisResult:
    """Run every engine pre-flight pass; see
    :mod:`repro.analysis.engine_passes`.

    ``engine`` may be a live :class:`~repro.fpga.engine.Engine` or an
    already-compiled :class:`~repro.plan.PlanIR` — the passes consume
    the typed plan either way.
    """
    from ..plan import as_plan
    plan = as_plan(engine)
    return run_passes("engine", plan, {}, subject_name=plan.subject)


def analyze_specs(specs: Iterable, device=None) -> AnalysisResult:
    """Run every spec pass; see :mod:`repro.analysis.spec_passes`.

    ``specs`` is a list of :class:`~repro.codegen.spec.RoutineSpec`;
    ``device`` an optional :class:`~repro.fpga.device.FpgaDevice` enabling
    the resource-fit lint.
    """
    specs = list(specs)
    return run_passes("spec", specs, {"device": device},
                      subject_name=f"{len(specs)} routine spec(s)")


def analyze_rates(engine) -> AnalysisResult:
    """Run every SDF rate pass; see :mod:`repro.analysis.rate_passes`.

    Identical to :func:`certify` minus the schedule compilation: a clean
    result carries the FB405 certificate diagnostic.  ``engine`` may be
    a live engine or a compiled :class:`~repro.plan.PlanIR`.
    """
    result, _schedule = certify(engine)
    return result
