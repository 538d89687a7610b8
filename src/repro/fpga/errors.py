"""Simulation error hierarchy, hang forensics records and protocol limits.

Every exception the reproduction raises derives from :class:`ReproError`
(itself a ``RuntimeError`` so historical ``except RuntimeError`` catchers
keep working).  The hierarchy:

``ReproError``
    ├── ``SimulationError``       — kernel protocol violations, exhausted
    │        │                      cycle budgets
    │        └── (also) ``LivelockError`` (multiple inheritance, below)
    ├── ``ChannelError``          — FIFO protocol violations
    ├── ``EngineModeError``       — unknown ``Engine(mode=...)`` spelling
    │                               (also a ``ValueError``)
    ├── ``StreamOrderError``      — a stream kernel's width, repeat,
    │                               count or ``order=`` that cannot be
    │                               streamed (also a ``ValueError``)
    ├── ``SessionConfigError``    — a telemetry session switched half
    │                               on (also a ``ValueError``)
    ├── ``FaultError``            — errors raised *by injected faults*
    │        └── ``TransientFaultError`` — retrying may succeed
    │                 ├── ``KernelCrashError`` — injected kernel crash
    │                 └── ``EccError``         — uncorrectable DRAM ECC
    └── ``HangError``             — the run cannot (or will not) finish;
             │                      carries a structured :class:`HangReport`
             ├── ``DeadlockError`` — provably no further progress
             └── ``LivelockError`` — progress-free beyond the watchdog
                                     window, or ``max_cycles`` exhausted
                                     (also a ``SimulationError``: the
                                     historical type of a cycle-budget
                                     trip)

The hang exceptions are raised by ``_raise_deadlock`` / ``_raise_hang``
of :class:`repro.fpga.scheduler.WakeListScheduler`, which every
scheduler inherits; the differential tests pin down that each schedule
raises them at the same cycle.  They live here so the engine modules do
not import each other; :mod:`repro.fpga.engine` re-exports them under
their historical names.

:class:`HangReport` (and its row types) also live here because the hang
exceptions carry one; the *builder* — wait-for graph, channel pressure,
analyzer verdict — is :func:`repro.faults.forensics.build_hang_report`,
imported lazily by the engine at raise time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Optional, Tuple

#: Safety bound on ops a kernel may perform within one simulated cycle.
#: Real kernels perform O(W) pops/pushes per cycle; hitting this bound means
#: a kernel body forgot to yield ``Clock()``.
MAX_OPS_PER_CYCLE = 1_000_000

#: Schema tag of :meth:`HangReport.to_dict` documents.
HANG_REPORT_SCHEMA = "repro.hangreport/1"


class ReproError(RuntimeError):
    """Base class of every error the reproduction raises."""


class SimulationError(ReproError):
    """Raised on kernel protocol violations and exhausted cycle budgets."""


class EngineModeError(ReproError, ValueError):
    """An engine mode that is not one of ``repro.fpga.engine.ENGINE_MODES``."""


class StreamOrderError(ReproError, ValueError):
    """A stream kernel whose geometry cannot be streamed: a width,
    ``repeat`` or initiation interval that is not an integer >= 1, a
    negative or fractional element count, an interface kernel's
    order holding an index outside its buffer or (writes) not holding
    ``count`` of them, or a linear write longer than its buffer.  Raised
    when the kernel is built, not mid-simulation."""


def check_stream_geometry(kernel: str, width: int, repeat: int = 1,
                          count: int = 0, ii: int = 1) -> None:
    """Refuse a stream kernel that would spin, deadlock or finish
    without moving its elements (:class:`StreamOrderError`)."""
    for name, value, least in (("width", width, 1), ("repeat", repeat, 1),
                               ("count", count, 0), ("ii", ii, 1)):
        if value.__class__ is not int and (
                value.__class__ is bool or not isinstance(value, Integral)):
            raise StreamOrderError(
                f"{kernel}: {name} must be an integer, got {value!r}")
        if value < least:
            raise StreamOrderError(
                f"{kernel}: {name} must be at least {least}, got {value}")


class SessionConfigError(ReproError, ValueError):
    """A :func:`repro.telemetry.session` whose ``metrics``,
    ``kernel_slices`` and ``occupancy`` are not all on or all off: they
    are one switch."""


class ChannelError(ReproError):
    """Raised on FIFO protocol violations (pop from empty, push to full...)."""


class DeadlineExceeded(ReproError):
    """A wall-clock deadline bounded the request and expired.

    Raised by :func:`repro.faults.run_with_recovery` when ``deadline_s``
    runs out across retries, and by the service layer
    (:mod:`repro.service`) when a request's deadline expires while it is
    still queued.  Deliberately *not* a :class:`SimulationError` (a
    deadline is a caller policy, not a simulator failure, so the
    recovery ladder neither retries nor demotes it) — the run ledger
    classifies it as the distinct outcome ``"deadline"``.
    """

    def __init__(self, message: str, deadline_s: Optional[float] = None,
                 elapsed_s: Optional[float] = None):
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        super().__init__(message)


class FaultError(ReproError):
    """Base class of errors raised by *injected* faults (:mod:`repro.faults`)."""


class TransientFaultError(FaultError):
    """An injected fault whose effect is transient — a retry may succeed.

    Host-level recovery policies (:mod:`repro.faults.recovery`) catch this
    class: bounded retry with backoff is the appropriate response, exactly
    as it would be for an SEU on a real board.
    """


class KernelCrashError(TransientFaultError):
    """An injected fault crashed a kernel mid-run."""

    def __init__(self, kernel: str, work_cycle: int):
        self.kernel = kernel
        self.work_cycle = work_cycle
        super().__init__(
            f"injected crash in kernel {kernel!r} at its work cycle "
            f"{work_cycle}")


class EccError(TransientFaultError):
    """An injected uncorrectable DRAM ECC event."""

    def __init__(self, buffer: str, bank: Optional[int], cycle: int):
        self.buffer = buffer
        self.bank = bank
        self.cycle = cycle
        where = f"bank {bank}" if bank is not None else "interleaved"
        super().__init__(
            f"uncorrectable ECC event in buffer {buffer!r} ({where}) at "
            f"cycle {cycle}")


# ---------------------------------------------------------------------------
# Hang forensics records
# ---------------------------------------------------------------------------

@dataclass
class KernelState:
    """One kernel's situation at the moment the watchdog tripped."""

    kernel: str
    #: ``"blocked-pop"`` | ``"blocked-push"`` | ``"sleeping"`` |
    #: ``"runnable"`` | ``"not-started"`` | ``"done"``
    state: str
    channel: Optional[str] = None
    #: Elements the blocking op needs (pop count or push size).
    wants: int = 0
    #: Elements available to it (FIFO occupancy for a pop, free space for
    #: a push).
    available: int = 0
    #: Cycle the kernel has been blocked since (None when not blocked).
    since: Optional[int] = None
    stall_cycles: int = 0
    active_cycles: int = 0

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel, "state": self.state,
            "channel": self.channel, "wants": self.wants,
            "available": self.available, "since": self.since,
            "stall_cycles": self.stall_cycles,
            "active_cycles": self.active_cycles,
        }


@dataclass
class ChannelPressure:
    """One channel's fill level at the moment the watchdog tripped."""

    channel: str
    occupancy: int
    in_flight: int
    depth: int

    @property
    def fill(self) -> float:
        """Visible-occupancy fraction of capacity."""
        return self.occupancy / self.depth if self.depth else 0.0

    def to_dict(self) -> dict:
        return {
            "channel": self.channel, "occupancy": self.occupancy,
            "in_flight": self.in_flight, "depth": self.depth,
            "fill": round(self.fill, 4),
        }


@dataclass
class HangReport:
    """Structured forensics for a hung (deadlocked / livelocked) run.

    Built by :func:`repro.faults.forensics.build_hang_report` and carried
    by :class:`DeadlockError` / :class:`LivelockError`; renderable as text
    (:meth:`render_text`) or JSON (:meth:`to_dict`).
    """

    #: ``"deadlock"`` | ``"livelock"`` | ``"timeout"``
    kind: str
    cycle: int
    #: One-line human explanation of what tripped.
    reason: str = ""
    kernels: List[KernelState] = field(default_factory=list)
    #: Wait-for edges ``(waiter, waited_on, via_channel)``: the kernel
    #: that must act before the waiter can proceed.
    wait_for: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Kernel cycles in the wait-for graph (each a closed chain) — a
    #: non-empty list is the classic circular-wait certificate.
    wait_cycles: List[List[str]] = field(default_factory=list)
    channels: List[ChannelPressure] = field(default_factory=list)
    #: Static-analyzer diagnostics (``Diagnostic.to_dict`` form) for the
    #: hung engine, when its kernels carry port annotations.
    analysis: List[dict] = field(default_factory=list)
    #: Correlation id of the request that hung (the ambient
    #: :func:`repro.telemetry.ledger.current_run_id` at build time), so
    #: the forensics document joins against its run-ledger record.
    run_id: Optional[str] = None

    # -- derived views -----------------------------------------------------
    @property
    def blocked(self) -> Dict[str, str]:
        """Kernel -> short description of the blocking op (legacy shape)."""
        out = {}
        for ks in self.kernels:
            if ks.state == "blocked-pop":
                out[ks.kernel] = (
                    f"pop({ks.wants}) from {ks.channel!r} "
                    f"(occupancy={ks.available})")
            elif ks.state == "blocked-push":
                out[ks.kernel] = (
                    f"push({ks.wants}) to {ks.channel!r} "
                    f"(space={ks.available})")
            elif ks.state != "done":
                out[ks.kernel] = ks.state.replace("-", " ")
        return out

    def analysis_codes(self) -> List[str]:
        """Distinct diagnostic codes the analyzer attached, sorted."""
        return sorted({d["code"] for d in self.analysis})

    def fullest_channels(self, n: int = 3) -> List[ChannelPressure]:
        return sorted(self.channels, key=lambda c: -c.fill)[:n]

    def emptiest_channels(self, n: int = 3) -> List[ChannelPressure]:
        return sorted(self.channels, key=lambda c: c.fill)[:n]

    # -- rendering ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": HANG_REPORT_SCHEMA,
            "kind": self.kind,
            "cycle": self.cycle,
            "reason": self.reason,
            "kernels": [k.to_dict() for k in self.kernels],
            "wait_for": [list(e) for e in self.wait_for],
            "wait_cycles": [list(c) for c in self.wait_cycles],
            "channels": [c.to_dict() for c in self.channels],
            "analysis": list(self.analysis),
            "run_id": self.run_id,
        }

    def render_text(self) -> str:
        header = f"{self.kind} at cycle {self.cycle}: {self.reason}"
        if self.run_id is not None:
            header += f" [run {self.run_id}]"
        lines = [header]
        live = [k for k in self.kernels if k.state != "done"]
        if live:
            lines.append("kernels:")
            w = max(len(k.kernel) for k in live)
            for k in live:
                where = ""
                if k.channel is not None:
                    where = (f" on {k.channel!r} (wants {k.wants}, "
                             f"available {k.available}"
                             + (f", since cycle {k.since}"
                                if k.since is not None else "") + ")")
                lines.append(
                    f"  {k.kernel:>{w}}  {k.state}{where}  "
                    f"[active={k.active_cycles} stalled={k.stall_cycles}]")
        if self.wait_for:
            lines.append("wait-for graph:")
            for a, b, ch in self.wait_for:
                lines.append(f"  {a} -> {b}  (via {ch!r})")
        for cyc in self.wait_cycles:
            lines.append("circular wait: " + " -> ".join(cyc + cyc[:1]))
        if self.channels:
            full = self.fullest_channels()
            empty = [c for c in self.emptiest_channels()
                     if c not in full]
            lines.append("channel pressure:")
            for c in full:
                lines.append(
                    f"  fullest  {c.channel:20s} {c.occupancy}/{c.depth} "
                    f"(+{c.in_flight} in flight)")
            for c in empty:
                lines.append(
                    f"  emptiest {c.channel:20s} {c.occupancy}/{c.depth} "
                    f"(+{c.in_flight} in flight)")
        if self.analysis:
            lines.append("static analysis verdict:")
            for d in self.analysis:
                lines.append(
                    f"  {d['code']} [{d['severity']}] {d['message']}")
        return "\n".join(lines)


class HangError(ReproError):
    """Base of the watchdog trips: the run cannot (or will not) finish.

    Attributes
    ----------
    cycle:
        The simulated cycle at which the hang was declared.
    blocked:
        Mapping of kernel name to a human-readable description of the op
        it is blocked on (historical shape, kept for compatibility).
    report:
        The structured :class:`HangReport` (None only when a raiser could
        not build forensics, e.g. in a unit test constructing the error
        directly).
    """

    def __init__(self, cycle: int, blocked: Dict[str, str],
                 report: Optional[HangReport] = None,
                 message: Optional[str] = None):
        self.cycle = cycle
        self.blocked = blocked
        self.report = report
        if message is None:
            detail = "; ".join(f"{k}: {v}" for k, v in blocked.items())
            message = f"hang at cycle {cycle}: {detail}"
        super().__init__(message)


class DeadlockError(HangError):
    """Raised when the composition can make no further progress.

    This is precisely the "stalls forever" condition of invalid module
    compositions in Sec. V of the FBLAS paper.
    """

    def __init__(self, cycle: int, blocked: Dict[str, str],
                 report: Optional[HangReport] = None):
        detail = "; ".join(f"{k}: {v}" for k, v in blocked.items())
        super().__init__(cycle, blocked, report,
                         f"deadlock at cycle {cycle}: {detail}")


class LivelockError(HangError, SimulationError):
    """Raised when the watchdog gives up on a run that *is* doing work.

    Two triggers, distinguished by ``report.kind`` (and ``self.trigger``):

    ``"livelock"``
        No channel element moved and no kernel finished for the whole
        progress window, while kernels kept executing cycles — the design
        spins without ever completing.
    ``"timeout"``
        The cycle budget (``max_cycles``) elapsed.  The message keeps the
        historical ``"exceeded ... cycles"`` wording, and the class also
        derives from :class:`SimulationError` (the type this condition
        used to raise), so existing catchers keep working.
    """

    def __init__(self, cycle: int, blocked: Dict[str, str],
                 report: Optional[HangReport] = None,
                 trigger: str = "livelock", budget: int = 0):
        self.trigger = trigger
        if trigger == "timeout":
            message = (f"simulation exceeded {budget} cycles without "
                       f"finishing (watchdog at cycle {cycle})")
        else:
            message = (f"livelock at cycle {cycle}: no channel progress "
                       f"for {budget} cycles; "
                       + "; ".join(f"{k}: {v}" for k, v in blocked.items()))
        super().__init__(cycle, blocked, report, message)
