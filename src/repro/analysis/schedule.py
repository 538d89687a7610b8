"""Certified whole-program static schedules.

When every FB4xx rate pass in :mod:`repro.analysis.rate_passes` comes
back clean, the design's steady state is fully determined before cycle
0: every kernel fires every cycle at its declared lanes, every DRAM
burst is granted in full, and every reconvergent branch has the buffer
capacity its sibling's reordering window needs.  :func:`certify`
compiles that proof into a typed :class:`StaticSchedule` artifact — the
fill / steady-window / drain phase plan per kernel, the per-channel
minimal depths, the per-bank byte budget, and a two-sided predicted
cycle band from the ``C = L + II * M`` pipeline model.

Certification is a **PlanIR -> StaticSchedule** pass: the subject is
compiled once through :func:`repro.plan.compile_plan` (live engines are
coerced at the boundary) and both the rate passes and the schedule
builder consume only the typed plan.  :func:`ensure_certified` memoizes
on :attr:`~repro.plan.PlanIR.plan_key` — a structural SHA-256 that
includes the device-catalog identity of the plan's memory and names
DRAM buffers by role, so rebuilding the same composition for a new
problem instance (new buffers included) reuses the certificate while a
schedule certified on one device is never replayed on another.  For a
live engine the key comes from one extraction pass
(:func:`repro.plan.plan_identity`); the ``PlanIR`` itself is only built
when the lookup misses.

``Engine(mode="certified")`` calls :func:`ensure_certified` before
running and then executes through
:class:`~repro.fpga.bulk.WindowScheduler`, which replays windows
against the certificate on the strength of a per-channel flow check on
the current storage — nothing is probed at run time.
``Engine(mode="bulk")`` asks :func:`lookup_certified` instead: the same
memoized verdict, handed back rather than raised when it is a refusal,
so the engine can step the design on the event core.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..models.performance import certified_cycle_band
from ..plan import PlanIR, PlanKernel, as_plan, plan_identity
from .diagnostics import (
    SCHEDULE_SCHEMA,
    AnalysisError,
    AnalysisResult,
    Diagnostic,
    Severity,
)
from .passes import run_passes
from .rate_passes import (
    bank_demand,
    both_sided_edges,
    min_depth_requirements,
    solve_balance,
)

__all__ = [
    "ChannelPlan", "KernelSchedule", "PhaseSegment", "StaticSchedule",
    "certify", "ensure_certified", "lookup_certified", "schedule_key",
]


@dataclass(frozen=True)
class PhaseSegment:
    """One phase of a kernel's static execution plan."""

    kind: str                    # "fill" | "steady" | "drain"
    cycles: int                  # length of one repetition, in cycles
    repetitions: int = 1


@dataclass(frozen=True)
class KernelSchedule:
    """Per-kernel phase plan plus the steady-state deltas the replay
    engine applies per cycle without simulating."""

    kernel: str
    lanes: int                   # elements moved per port per firing
    iterations: Optional[int]    # steady firings M (None = data-dependent)
    latency: int
    ii: int
    segments: Tuple[PhaseSegment, ...]
    dram_bytes_per_cycle: int = 0
    stall_free: bool = True      # certified steady windows never stall


@dataclass(frozen=True)
class ChannelPlan:
    """Per-channel capacity plan: configured vs. inferred-minimal depth
    and the steady occupancy delta (zero — F(S) == S)."""

    channel: str
    depth: int
    min_depth: int
    lanes: int
    producer: str
    consumer: str
    occupancy_delta: int = 0


@dataclass(frozen=True)
class StaticSchedule:
    """A certified whole-program schedule (``repro.schedule/1``).

    ``plan_key`` names the structure the certificate was compiled from
    (and is cached under); run records copy it from here.

    ``scripts`` is not part of the certificate's value (not a field, not
    compared, not in :meth:`to_dict`): it maps the kernels' timing
    signatures to the ``(compiled hit, observation)`` the runs of that
    design recorded, so warm runs take the hit instead of planning
    (:mod:`repro.fpga.bulk`, "Compiled hits").  Living here, it is
    evicted with its certificate.
    """

    subject: str
    kernels: Tuple[KernelSchedule, ...]
    channels: Tuple[ChannelPlan, ...]
    repetition: Dict[str, int] = field(default_factory=dict)
    bank_bytes_per_cycle: Dict[str, int] = field(default_factory=dict)
    predicted_cycles: Tuple[int, int] = (0, 0)
    plan_key: str = ""
    schema: str = SCHEDULE_SCHEMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "scripts", {})

    def to_dict(self) -> dict:
        d = asdict(self)
        d["predicted_cycles"] = list(self.predicted_cycles)
        # schema first, for the same reasons as the analysis reports
        return {"schema": d.pop("schema"), **d}


def _kernel_lanes(k: PlanKernel) -> int:
    widths = [p.lanes for p in k.reads]
    widths += [p.lanes for p in k.writes]
    return max(widths, default=1)


def _kernel_iterations(k: PlanKernel, lanes: int) -> Optional[int]:
    totals = [p.total for p in k.reads + k.writes if p.total is not None]
    if not totals or lanes < 1:
        return None
    return max(-(-t // lanes) for t in totals)


def _build_schedule(plan: PlanIR) -> StaticSchedule:
    """Compile the certificate.  Only called once the rate passes have
    all passed, so every kernel has an executable ii=1 pattern."""
    q, _conflicts = solve_balance(plan)
    edges = both_sided_edges(plan)

    # Per-channel minimal depths: lanes by default, the reconvergence
    # window where the FB403 analysis found one.
    min_depths: Dict[str, int] = {}
    for _pair, _nodes, chans, _cap, required in \
            min_depth_requirements(plan):
        for name in chans:
            min_depths[name] = max(min_depths.get(name, 0), required)

    kernels = []
    for k in plan.kernels:
        lanes = _kernel_lanes(k)
        m = _kernel_iterations(k, lanes)
        dram = sum(t.elements * t.itemsize for t in k.dram)
        segments = (PhaseSegment("fill", k.latency),
                    PhaseSegment("steady", k.pattern_ii,
                                 m if m is not None else 0),
                    PhaseSegment("drain", k.latency))
        kernels.append(KernelSchedule(
            kernel=k.name, lanes=lanes, iterations=m, latency=k.latency,
            ii=k.pattern_ii, segments=segments, dram_bytes_per_cycle=dram))

    channels = []
    for ch, (pk, pw, _pt, ck, _cw, _ct) in edges.items():
        channels.append(ChannelPlan(
            channel=ch, depth=plan.depth_of(ch),
            min_depth=min_depths.get(ch, pw), lanes=pw,
            producer=pk, consumer=ck))

    banks = {("dram" if bank is None else f"bank{bank}"): nbytes
             for bank, nbytes in bank_demand(plan).items()}

    lo, hi = certified_cycle_band(
        latencies=[ks.latency for ks in kernels],
        iis=[ks.ii for ks in kernels],
        iterations=[ks.iterations for ks in kernels],
        lanes=[ks.lanes for ks in kernels])

    return StaticSchedule(
        subject=plan.subject,
        kernels=tuple(kernels),
        channels=tuple(sorted(channels, key=lambda c: c.channel)),
        repetition={name: int(v) for name, v in sorted(q.items())},
        bank_bytes_per_cycle=banks,
        predicted_cycles=(lo, hi),
        plan_key=plan.plan_key)


def certify(subject) -> Tuple[AnalysisResult, Optional[StaticSchedule]]:
    """Run the FB4xx rate passes; compile a schedule when they pass.

    ``subject`` may be an engine, an MDAG, or an already-compiled
    :class:`~repro.plan.PlanIR`.  Returns ``(result, schedule)`` —
    ``schedule`` is ``None`` when any error-severity diagnostic fired.
    A clean run appends the FB405 certificate diagnostic so reports
    show *why* the design was allowed into certified mode.
    """
    plan = as_plan(subject)
    result = run_passes("rates", plan, {}, subject_name=plan.subject)
    if not result.ok:
        return result, None
    schedule = _build_schedule(plan)
    lo, hi = schedule.predicted_cycles
    result.diagnostics.append(Diagnostic(
        "FB405", Severity.INFO,
        f"design certified: whole-program static schedule exists "
        f"({len(schedule.kernels)} kernels, uniform repetition vector, "
        f"predicted {lo}..{hi} cycles)"))
    return result, schedule


def schedule_key(subject) -> str:
    """Structural fingerprint of a composition: the plan's ``plan_key``.

    Two designs with the same kernel/pattern/channel shape *on the same
    device* share their certificate even when the payload data (and the
    buffers holding it) differ — totals are part of the key because
    they fix the steady repetition counts, and the memory's
    device-catalog identity is part of the key so a certificate never
    crosses device boundaries.
    """
    return plan_identity(subject)[0]


def lookup_certified(subject, cache: Optional[dict] = None
                     ) -> Union[StaticSchedule, AnalysisResult]:
    """The verdict of :func:`certify`, memoized on ``cache`` when given:
    the :class:`StaticSchedule`, or the failing :class:`AnalysisResult`
    of a design the rate passes refuse.

    The cache is keyed on :attr:`~repro.plan.PlanIR.plan_key`; a hit on
    a live engine costs one extraction pass and builds no ``PlanIR``.
    Refusals are cached beside certificates, so a refused structure pays
    for the rate passes once.
    """
    compiled = subject
    if cache is not None:
        key, compiled = plan_identity(subject)
        hit = cache.get(key)
        if hit is not None:
            return hit
    result, schedule = certify(compiled)
    verdict = schedule if schedule is not None else result
    if cache is not None:
        cache[key] = verdict
    return verdict


def ensure_certified(subject, cache: Optional[dict] = None
                     ) -> StaticSchedule:
    """:func:`lookup_certified`, raising on a refusal.

    This is the entry point ``Engine(mode="certified")`` uses: a design
    that fails any rate pass raises
    :class:`~repro.analysis.diagnostics.AnalysisError` carrying the full
    diagnostic list, *before* any cycle is simulated.
    """
    verdict = lookup_certified(subject, cache)
    if isinstance(verdict, StaticSchedule):
        return verdict
    raise AnalysisError(verdict)
