"""Simulation engine: builds a design and hands each run to a scheduler.

The engine advances simulated time in clock cycles.  Each executed cycle:

1. staged channel values whose pipeline latency has elapsed become visible
   (:meth:`Channel.mature`);
2. the DRAM model's per-cycle bandwidth budgets are reset;
3. runnable kernels are resumed until they end their cycle (yield
   ``Clock``) or block on a ``Pop``/``Push`` that cannot be satisfied.

A kernel blocked this cycle is retried on a later cycle; its stall cycles
are counted.  If a cycle passes in which *nothing* can make progress — no
kernel stepped, no staged value will ever mature, no kernel is sleeping
on a timer — the composition is deadlocked and a :class:`DeadlockError`
describing every blocked kernel is raised.  This is precisely the "stalls
forever" condition of invalid module compositions in Sec. V of the FBLAS
paper.

One op interpreter implements these semantics and three schedulers
(:mod:`repro.fpga.scheduler`, :mod:`repro.fpga.bulk`) decide which
kernels it steps on which cycles, behind :data:`ENGINE_MODES`:

``mode="event"`` (default)
    The wake-list scheduler: kernels wait on channel events instead of
    being re-polled, and simulated time jumps over provably idle
    cycles.  Cycle counts, stall accounting and deadlock semantics are
    identical to the dense schedule — only wall-clock time changes.

``mode="dense"``
    The reference schedule: every kernel steps every cycle.

``mode="certified"``
    The event core plus the window scheduler of :mod:`repro.fpga.bulk`:
    the FB4xx rate analysis must certify the design before cycle 0
    (:class:`repro.analysis.AnalysisError` otherwise), after which
    every window of K known cycles is replayed arithmetically in one
    superstep (vectorized block transfers, counter arithmetic) and
    only the cycles around a blocking boundary are event-stepped.

``mode="bulk"``
    The same certificate and scheduler when the design certifies; the
    plain event core when it does not, with the first blocking FB40x
    code kept as the run's ``fallback_reason``.  Never raises
    :class:`~repro.analysis.AnalysisError`.

Tracing and profiling attach through the observer protocol of
:mod:`repro.fpga.observers`; ``trace=True`` is shorthand for attaching a
:class:`~repro.fpga.observers.TraceObserver`.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .bulk import WindowScheduler
from .channel import DEFAULT_CHANNEL_DEPTH, Channel
from .errors import (MAX_OPS_PER_CYCLE, DeadlockError, EngineModeError,
                     HangError, LivelockError, SimulationError)
from .kernel import Kernel, KernelBody
from .memory import BankStats
from .observers import MAX_TRACE_CYCLES, TraceObserver
from .scheduler import DenseScheduler, WakeListScheduler

# Safe despite the apparent cycle: repro.telemetry's import closure
# never touches repro.fpga at module scope (see telemetry/observers.py).
from ..telemetry.runtime import active as _telemetry_active

__all__ = [
    "DeadlockError", "ENGINE_MODES", "Engine", "HangError", "LivelockError",
    "MAX_OPS_PER_CYCLE", "SIM_REPORT_SCHEMA", "SimReport",
    "SimulationError", "check_engine_mode",
]

#: Every accepted ``Engine(mode=...)`` spelling; the host API, the
#: service and the CLIs validate against (and offer) exactly these.
ENGINE_MODES = ("event", "dense", "bulk", "certified")

#: Schema tag of :meth:`SimReport.to_dict` documents (shared by the
#: benchmark baselines and the telemetry ``--metrics`` artifacts).
SIM_REPORT_SCHEMA = "repro.simreport/1"


def check_engine_mode(mode: str) -> str:
    """``mode``, or a typed error (a ``ReproError`` that is also a
    ``ValueError``) where it is configured rather than at the first run."""
    if mode not in ENGINE_MODES:
        raise EngineModeError(
            f"engine mode must be one of {', '.join(ENGINE_MODES)}; "
            f"got {mode!r}")
    return mode


def _adapt_iterable(body):
    """Turn a plain iterable of ops into a generator the engine can drive.

    Pop results cannot be delivered into a plain iterable, so this adapter
    is only suitable for scripted Push/Clock sequences (and empty bodies).
    """
    def gen():
        yield from iter(body)
    return gen()


@dataclass
class SimReport:
    """Result of a simulation run."""

    cycles: int
    kernels: Dict[str, "Kernel"]
    channels: Dict[str, Channel]
    #: Per-channel summed occupancy over traced cycles (only filled when a
    #: TraceObserver was attached / ``trace=True``); see
    #: :meth:`mean_occupancy`.
    occupancy_sums: Dict[str, int] = field(default_factory=dict)
    #: Per-kernel per-cycle state strings ('#': worked, 's': stalled,
    #: 'z': sleeping, '-': done), trace mode only.
    timelines: Dict[str, List[str]] = field(default_factory=dict)
    #: Per-DRAM-bank traffic deltas for *this run* (empty when the engine
    #: has no memory model attached).
    bank_stats: List[BankStats] = field(default_factory=list)

    @property
    def total_stall_cycles(self) -> int:
        return sum(k.stats.stall_cycles for k in self.kernels.values())

    @property
    def kernel_steps(self) -> int:
        """Total live kernel-cycles (active + stalled) across the run — a
        mode-independent measure of simulated work (the unit of
        ``fpga.kernel_steps_per_req`` in ``bench/``)."""
        return sum(k.stats.active_cycles + k.stats.stall_cycles
                   for k in self.kernels.values())

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able summary of the run (schema ``repro.simreport/1``).

        ``cycles`` and ``kernel_steps`` are the names the run ledger
        (``RunRecord``) and the benchmark's traces use, so every
        artifact that quotes simulated work quotes it identically.
        Trace-mode extras (timelines, occupancy sums) are not included —
        they are unbounded and have their own observers.
        """
        return {
            "schema": SIM_REPORT_SCHEMA,
            "cycles": self.cycles,
            "kernel_steps": self.kernel_steps,
            "total_stall_cycles": self.total_stall_cycles,
            "kernels": {
                name: {
                    "active_cycles": k.stats.active_cycles,
                    "stall_cycles": k.stats.stall_cycles,
                    "start_cycle": k.stats.start_cycle,
                    "finish_cycle": k.stats.finish_cycle,
                    "latency": k.latency,
                    "ii": k.ii,
                }
                for name, k in self.kernels.items()
            },
            "channels": {
                name: {
                    "depth": ch.depth,
                    "pushes": ch.stats.pushes,
                    "pops": ch.stats.pops,
                    "max_occupancy": ch.stats.max_occupancy,
                    "stalled_push_cycles": ch.stats.stalled_push_cycles,
                    "stalled_pop_cycles": ch.stats.stalled_pop_cycles,
                }
                for name, ch in self.channels.items()
            },
            "bank_stats": [
                {"bank": i, **bs.to_dict()}
                for i, bs in enumerate(self.bank_stats)
            ],
        }

    # -- profiling ---------------------------------------------------------
    def kernel_utilization(self, name: str) -> float:
        """Fraction of a kernel's live cycles it did work (vs stalling)."""
        s = self.kernels[name].stats
        busy = s.active_cycles
        total = busy + s.stall_cycles
        return busy / total if total else 0.0

    def bottleneck(self) -> str:
        """The kernel that stalled the most — where to spend resources.

        This is the dimensioning question of Sec. IV-B: a module stalled
        on its inputs is over-provisioned (its producers or DRAM are the
        bottleneck); a module everyone else waits on is under-provisioned.
        """
        if not self.kernels:
            raise ValueError("no kernels in report")
        return max(self.kernels, key=lambda n:
                   self.kernels[n].stats.stall_cycles)

    def mean_occupancy(self, channel: str) -> float:
        """Average FIFO occupancy (requires a trace-enabled run).

        Occupancy sampling stops at ``MAX_TRACE_CYCLES`` — the same cap
        the timelines honour — so on longer runs this is the mean over
        the first ``MAX_TRACE_CYCLES`` cycles, not the whole run.
        """
        if channel not in self.occupancy_sums:
            raise ValueError(
                f"no occupancy trace for {channel!r}; run the engine "
                "with trace=True")
        sampled = min(self.cycles, MAX_TRACE_CYCLES)
        return self.occupancy_sums[channel] / max(sampled, 1)

    def timeline(self, max_width: int = 72) -> str:
        """ASCII Gantt of kernel activity (requires a trace-enabled run).

        Each row is one kernel; each column a bucket of cycles, showing
        the bucket's dominant state: ``#`` working, ``s`` stalled, ``z``
        sleeping, ``-`` finished.  Backpressure chains are immediately
        visible as diagonal bands of ``s``.
        """
        if not self.timelines:
            raise ValueError(
                "no timeline recorded; run the engine with trace=True")
        span = max(len(t) for t in self.timelines.values())
        bucket = max(1, math.ceil(span / max_width))
        name_w = max(len(n) for n in self.timelines)
        lines = [f"timeline ({span} cycles, {bucket} cycles/char):"]
        for name, states in self.timelines.items():
            row = []
            for start in range(0, span, bucket):
                chunk = states[start:start + bucket]
                if not chunk:
                    row.append(" ")
                    continue
                # precedence: work > stall > sleep > done
                for ch in ("#", "s", "z", "-"):
                    if ch in chunk:
                        row.append(ch)
                        break
            lines.append(f"  {name:>{name_w}} |{''.join(row)}|")
        return "\n".join(lines)

    def profile(self) -> str:
        """Human-readable utilization/backpressure summary."""
        lines = [f"profile over {self.cycles} cycles:"]
        for name in self.kernels:
            s = self.kernels[name].stats
            lines.append(
                f"  kernel  {name:20s} util={self.kernel_utilization(name):6.1%}"
                f" active={s.active_cycles} stalled={s.stall_cycles}")
        for name, ch in self.channels.items():
            st = ch.stats
            occ = (f" mean_occ={self.mean_occupancy(name):.1f}"
                   if name in self.occupancy_sums else "")
            lines.append(
                f"  channel {name:20s} max_occ={st.max_occupancy}"
                f" push_stalls={st.stalled_push_cycles}"
                f" pop_stalls={st.stalled_pop_cycles}{occ}")
        lines.append(f"  bottleneck: {self.bottleneck()}")
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [f"simulation finished in {self.cycles} cycles"]
        for name, k in self.kernels.items():
            s = k.stats
            lines.append(
                f"  kernel {name}: active={s.active_cycles} "
                f"stalled={s.stall_cycles} span=[{s.start_cycle},{s.finish_cycle}]"
            )
        for name, ch in self.channels.items():
            st = ch.stats
            lines.append(
                f"  channel {name}: pushes={st.pushes} pops={st.pops} "
                f"max_occ={st.max_occupancy}"
            )
        return "\n".join(lines)


class Engine:
    """Owns channels and kernels and advances the clock.

    Parameters
    ----------
    memory:
        Optional :class:`repro.fpga.memory.DramModel`; its per-cycle
        bandwidth budgets are reset at every clock edge.
    trace:
        Shorthand for attaching a
        :class:`~repro.fpga.observers.TraceObserver`; the run's report
        then carries timelines and occupancy sums.
    preflight:
        When True, :meth:`run` performs the static pre-flight analysis
        (:func:`repro.analysis.analyze_engine`) before the first cycle and
        raises :class:`repro.analysis.AnalysisError` on any error-severity
        diagnostic — failing fast instead of stalling mid-simulation.
    mode:
        One of :data:`ENGINE_MODES` (module docstring).  All produce
        identical reports; event mode is faster the more a design
        stalls or sleeps, the window scheduler the longer
        pattern-annotated pipelines run between blocking boundaries.
    schedule_cache:
        Optional mutable mapping reused across ``"certified"`` and
        ``"bulk"`` runs: structurally identical compositions share one
        certification verdict — certificate or refusal (see
        :func:`repro.analysis.schedule.lookup_certified`) — and a
        certificate keeps the compiled hits its designs' runs recorded
        (:mod:`repro.fpga.bulk`, "Compiled hits").
    observers:
        Iterable of :class:`~repro.fpga.observers.EngineObserver`
        instances notified of run/cycle/kernel/channel events.
    """

    def __init__(self, memory=None, trace: bool = False,
                 preflight: bool = False, mode: str = "event",
                 observers=(), fault_plan=None, schedule_cache=None):
        self.memory = memory
        self.trace = trace
        self.preflight = preflight
        self.mode = check_engine_mode(mode)
        #: Optional :class:`repro.faults.FaultPlan` applied to every run of
        #: this engine (takes precedence over an ambient
        #: :func:`repro.faults.inject` context).
        self.fault_plan = fault_plan
        self.channels: Dict[str, Channel] = {}
        self.kernels: Dict[str, Kernel] = {}
        self._observers: List = list(observers)
        if trace:
            self._observers.append(TraceObserver())
        self.now = 0
        # Bank-stat snapshot taken at run start (per-run traffic deltas).
        self._bank_baseline = None
        # Watchdog state, resolved by _run: livelock window in cycles
        # (0 = disabled) and the last cycle any channel element moved or
        # kernel finished.  Every scheduler updates _last_op_cycle.
        self._watch_window = 0
        self._last_op_cycle = 0
        # The FaultInjector attached for the duration of a run (None
        # outside injected runs); the window scheduler consults it to
        # clamp supersteps away from fault cycles.
        self._injector = None
        # "certified" / "bulk" state: the certification cache (shared
        # by the caller, e.g. one per Fblas instance), the StaticSchedule
        # the last run replayed against, why it stepped instead (None
        # when it did not) and its superstep counters (see bulk_stats).
        self._schedule_cache = schedule_cache
        self.schedule = None
        self._bulk_fallback: Optional[str] = None
        self._bulk_windows: Optional[int] = None
        self._bulk_cycles = self._bulk_stepped = 0

    # -- construction -------------------------------------------------------
    def channel(self, name: str,
                depth: int = DEFAULT_CHANNEL_DEPTH) -> Channel:
        """Create and register a channel."""
        if name in self.channels:
            raise ValueError(f"duplicate channel name {name!r}")
        ch = Channel(name, depth)
        self.channels[name] = ch
        return ch

    def add_kernel(self, name: str, body: KernelBody, latency: int = 1,
                   reads=(), writes=(), defer: int = 0,
                   ii: int = 1) -> Kernel:
        """Register a kernel generator under ``name``.

        ``body`` is normally a generator; any iterable of ops is accepted
        (useful for scripted pushes), but only generators can receive Pop
        results.  ``reads``/``writes``/``defer``/``ii`` are optional
        static annotations consumed by the pre-flight analyzer and the
        telemetry layer (see :class:`repro.fpga.kernel.Kernel`); they do
        not change simulation.
        """
        if name in self.kernels:
            raise ValueError(f"duplicate kernel name {name!r}")
        if not hasattr(body, "send"):
            body = _adapt_iterable(body)
        k = Kernel(name, body, latency, reads=reads, writes=writes,
                   defer=defer, ii=ii,
                   pattern=getattr(body, "pattern", None))
        k.index = len(self.kernels)
        self.kernels[name] = k
        return k

    def add_observer(self, observer) -> None:
        """Attach an :class:`~repro.fpga.observers.EngineObserver`."""
        self._observers.append(observer)

    def _trace_observer(self) -> Optional[TraceObserver]:
        for o in self._observers:
            if isinstance(o, TraceObserver):
                return o
        return None

    def _bank_delta(self) -> List[BankStats]:
        """Per-bank traffic since :meth:`run` captured its baseline."""
        if self.memory is None:
            return []
        base = self._bank_baseline
        if base is None:
            return [BankStats(b.bytes_read, b.bytes_written,
                              b.denied_cycles, b.busy_cycles, b.ecc_events)
                    for b in self.memory.bank_stats]
        return [BankStats(b.bytes_read - r0, b.bytes_written - w0,
                          b.denied_cycles - d0, b.busy_cycles - u0,
                          b.ecc_events - e0)
                for b, (r0, w0, d0, u0, e0)
                in zip(self.memory.bank_stats, base)]

    def _build_report(self) -> SimReport:
        tr = self._trace_observer()
        return SimReport(self.now, dict(self.kernels), dict(self.channels),
                         dict(tr.occupancy_sums) if tr else {},
                         dict(tr.timelines) if tr else {},
                         bank_stats=self._bank_delta())

    def bulk_stats(self) -> Optional[Dict[str, int]]:
        """Superstep counters of the most recent bulk/certified run.

        ``windows`` (supersteps replayed), ``bulk_cycles`` (cycles they
        fast-forwarded) and ``stepped_cycles`` (cycles the stepping core
        executed instead; idle cycles the event core jumps over are in
        neither count).  None before any bulk/certified run; the
        telemetry session copies these into each engine-run ledger
        record.
        """
        if self._bulk_windows is None:
            return None
        return {"windows": self._bulk_windows,
                "bulk_cycles": self._bulk_cycles,
                "stepped_cycles": self._bulk_stepped}

    # -- execution ----------------------------------------------------------
    def cycle_budget(self) -> int:
        """Default ``max_cycles``: finite, derived from the declared work.

        Channel depths, kernel latencies, reorder windows (``defer``) and
        initiation intervals bound how long a *progressing* design can
        plausibly run; the budget scales with their sum, floored high
        enough that every known workload finishes with orders of
        magnitude to spare.  Runs that exhaust it raise
        :class:`LivelockError` (``trigger="timeout"``) instead of hanging
        the process — the unbounded-run hazard fix.
        """
        return max(2_000_000, 2_000 * max(1, self._work()))

    def livelock_budget(self) -> int:
        """Default progress window for the livelock watchdog.

        If no channel element moves and no kernel finishes for this many
        consecutive cycles (while kernels keep burning cycles), the run
        is declared livelocked.  Scaled by the same work terms as
        :meth:`cycle_budget` so deep pipelines and long reorder windows
        never trip it spuriously; sleeping kernels (``Clock(n)``) are
        exempt for as long as they sleep.
        """
        return 10_000 + 4 * self._work()

    def _work(self) -> int:
        """The declared work both budgets scale with."""
        return (sum([ch.depth for ch in self.channels.values()])
                + sum([k.latency + k.defer + k.ii
                       for k in self.kernels.values()]))

    def run(self, max_cycles: Optional[int] = None,
            preflight: Optional[bool] = None,
            livelock_window: Optional[int] = None) -> SimReport:
        """Run until every kernel completes; return the report.

        Raises :class:`DeadlockError` if the composition stalls forever
        and :class:`LivelockError` if the watchdog gives up first —
        either ``max_cycles`` (default: :meth:`cycle_budget`) elapsing,
        or no progress for ``livelock_window`` (default:
        :meth:`livelock_budget`; 0 disables) consecutive cycles.  Both
        hang errors carry a structured
        :class:`~repro.fpga.errors.HangReport`.  With ``preflight``
        (argument or constructor flag) the static analyzer runs first and
        raises :class:`repro.analysis.AnalysisError` before cycle 0 if it
        proves the composition invalid.

        When a :func:`repro.telemetry.session` is active, the run is
        instrumented (metrics, spans, kernel slices) for its duration
        and appends one correlated
        :class:`~repro.telemetry.ledger.RunRecord` to the session's run
        ledger; otherwise the single ``active()`` check here is the
        entire cost.
        When a fault plan is bound (constructor ``fault_plan`` or ambient
        :func:`repro.faults.inject` context), its faults are armed for
        the duration of the run.
        """
        tel = _telemetry_active()
        if tel is None:
            return self._run(max_cycles, preflight, livelock_window)
        with tel.engine_run(self):
            return self._run(max_cycles, preflight, livelock_window)

    def _resolve_injector(self):
        """Arm the fault plan for this run, if any; return the injector."""
        plan = self.fault_plan
        ctx = None
        if plan is None:
            from ..faults.runtime import active as _faults_active
            ctx = _faults_active()
            if ctx is not None:
                plan = ctx.plan
        if plan is None or not len(plan):
            return None
        from ..faults.inject import FaultInjector
        return FaultInjector(plan, self, ctx)

    def _run(self, max_cycles: Optional[int],
             preflight: Optional[bool],
             livelock_window: Optional[int] = None) -> SimReport:
        if self.preflight if preflight is None else preflight:
            # Imported lazily: repro.analysis depends on this module.
            from ..analysis import analyze_engine
            analyze_engine(self).raise_if_errors()
        # A compiled hit assumes the default cycle budget; the budgets
        # are worked out by the scheduler (None), which a hit never runs.
        warm = max_cycles is None and self._schedule_cache is not None
        self._watch_window = livelock_window
        self._last_op_cycle = self.now
        if self.memory is not None:
            self._bank_baseline = [
                (b.bytes_read, b.bytes_written, b.denied_cycles,
                 b.busy_cycles, b.ecc_events)
                for b in self.memory.bank_stats]
        injector = self._resolve_injector()
        self._injector = injector
        if injector is not None:
            injector.attach()
        try:
            if self.mode == "dense":
                return DenseScheduler(self, max_cycles).run()
            if self.mode == "event":
                return WakeListScheduler(self, max_cycles).run()
            self._bulk_windows = self._bulk_cycles = self._bulk_stepped = 0
            self._bulk_fallback = self._window_tier()
            if self._bulk_fallback is None:
                sched = WindowScheduler(self, max_cycles)
                if warm and injector is None:
                    return sched.run_warm(self.schedule.scripts)
                return sched.run()
            return WakeListScheduler(self, max_cycles).run()
        finally:
            if injector is not None:
                injector.detach()
            self._injector = None

    def _window_tier(self) -> Optional[str]:
        """Find the certificate this run replays against
        (:attr:`schedule`); return None, or why the run steps instead.

        ``"certified"`` raises :class:`~repro.analysis.AnalysisError`
        on a refusal.  ``"bulk"`` never does: a kernel without an
        executable pattern is found by a scan that builds no plan and
        runs no rate pass, any other refusal is memoized in the schedule
        cache beside the certificates.
        Both step when an observer has no ``on_window``.
        """
        # Imported lazily: repro.analysis depends on this module.
        from ..analysis.schedule import (StaticSchedule, ensure_certified,
                                         lookup_certified)
        self.schedule = None
        if self.mode == "certified":
            self.schedule = ensure_certified(self, cache=self._schedule_cache)
        else:
            for k in self.kernels.values():
                p = k.pattern
                if p is None or not p.executable or p.ii != 1:
                    return f"FB404:{k.name}"
            verdict = lookup_certified(self, cache=self._schedule_cache)
            if not isinstance(verdict, StaticSchedule):
                d = verdict.errors[0]
                return f"{d.code}:{d.obj}" if d.obj else d.code
            self.schedule = verdict
        for o in self._observers:
            if not hasattr(o, "on_window"):
                return f"observer:{type(o).__name__}"
        return None

    def _make_hang(self, kind: str, cycle: int, budget: int = 0):
        """Build the hang exception for ``kind`` with forensics attached.

        Forensics failures must never mask the hang itself, so report
        construction is best-effort.
        """
        blocked = {k.name: k.describe_block()
                   for k in self.kernels.values() if not k.done}
        try:
            from ..faults.forensics import build_hang_report
            report = build_hang_report(self, cycle, kind)
        except Exception:       # pragma: no cover - forensics best-effort
            report = None
        if kind == "deadlock":
            return DeadlockError(cycle, blocked, report)
        return LivelockError(cycle, blocked, report, trigger=kind,
                             budget=budget)
