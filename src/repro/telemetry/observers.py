"""The engine observer that feeds the telemetry session.

:class:`RunObserver` bridges the engine event protocol
(:mod:`repro.fpga.observers`) into the telemetry data model: the stall
profile (who stalls on which channel, in which direction), the
per-channel occupancy histograms and the per-kernel, per-bank series of
the :class:`~repro.telemetry.metrics.MetricsRegistry`, and the kernel
:class:`~repro.telemetry.spans.Slice` intervals on the session clock
(the leaf rows of the exported Perfetto timeline).  One is attached per
engine run by
:meth:`~repro.telemetry.runtime.TelemetrySession.engine_run` and
detached afterwards, so an engine with no active telemetry session never
sees it (the zero-cost-when-unused contract).  It defines ``on_window``,
so a watched certified run keeps its supersteps.

It implements the :class:`~repro.fpga.observers.EngineObserver` protocol
structurally rather than by inheritance, and the profiler is imported
lazily: :mod:`repro.telemetry` must stay importable without touching
:mod:`repro.fpga` (the engine imports :mod:`repro.telemetry.runtime` at
module scope, and a module-level import back into ``fpga`` would be a
cycle).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .spans import Slice

__all__ = ["RunObserver", "STALL_CAUSES"]

#: Map from the :class:`~repro.fpga.kernel.BlockedState` kind to the
#: dimensioning vocabulary of Sec. IV-B: a kernel blocked *popping* is
#: starved by its producers (they, or DRAM, are the bottleneck); blocked
#: *pushing* it is backpressured by its consumers.
STALL_CAUSES = {"pop": "upstream-starved", "push": "downstream-backpressured"}


class RunObserver:
    """Record one engine run into a telemetry session.

    All series carry a ``run`` label so several engine runs in one
    session (a multi-component plan, a host program issuing many calls)
    stay distinguishable while counters still sum to session totals.

    The run is folded once.  During the run the observer only tallies.
    Every kernel state, for one stepped cycle or for all the cycles of
    an ``on_quiet`` jump or an ``on_window`` record, charges a stall to
    the profiler and opens a slice where the state changes, so the
    slices are bounded by state *transitions*, not cycles
    (:data:`MAX_SLICES` caps pathological runs and sets
    :attr:`truncated`).  Each channel's
    occupancy samples go into a plain ``{occupancy: cycles}`` dict.
    :meth:`on_run_end` writes every series of the run, each once;
    :meth:`close`, which the session calls whether or not the run
    raised, writes what a raising run tallied and closes the open slices.
    """

    wants_kernel_states = True

    #: Upper bound on recorded slices per engine run.
    MAX_SLICES = 250_000

    def __init__(self, registry: MetricsRegistry, sink: List[Slice],
                 offset: int = 0, run: int = 0) -> None:
        from ..fpga.observers import StallChainProfiler, quiet_window
        self._quiet = quiet_window
        self.registry = registry
        self.sink = sink
        self.offset = offset
        self.run = run
        self.truncated = False
        prof = self.profiler = StallChainProfiler()
        # Bound here, the scheduler calls them without a forwarding frame.
        self.on_channel_op = prof.on_channel_op
        self._charge = prof._charge
        self.last_report: Optional[Any] = None
        self._kernels: List[Any] = []
        #: ``(name, channel, {occupancy: cycles})`` per engine channel.
        self._occ: List[Tuple[str, Any, Dict[int, int]]] = []
        #: Whether any cycle was sampled since the last fold (a run that
        #: executed none writes no occupancy family).
        self._sampled = False
        self._open: Dict[str, list] = {}      # kernel -> [state, start]
        self._count = 0

    # -- protocol ------------------------------------------------------------
    def on_run_start(self, engine: Any) -> None:
        self.profiler.on_run_start(engine)
        self._kernels = list(engine.kernels.values())
        self._occ = [(name, ch, {}) for name, ch in engine.channels.items()]

    def on_cycle(self, t: int) -> None:
        self._sampled = True
        for _name, ch, tally in self._occ:
            occ = ch.occupancy
            tally[occ] = tally.get(occ, 0) + 1

    def on_kernel_state(self, t: int, kernel: Any, state: str) -> None:
        b = kernel.blocked
        if state == "s" and b is not None:
            self._charge(kernel, b.channel, b.kind, 1)
        self._state(kernel.name, state, t)

    def _state(self, name: str, state: str, t: int) -> None:
        """Kernel ``name`` is in ``state`` from cycle ``t`` on."""
        cur = self._open.get(name)
        if cur is None:
            self._open[name] = [state, t]
        elif cur[0] != state:
            self._emit(name, cur[0], cur[1], t)
            cur[0], cur[1] = state, t

    def on_quiet(self, start: int, cycles: int) -> None:
        self.on_window(start, cycles, self._quiet(self._kernels, start))

    def on_window(self, start: int, cycles: int, window: Any) -> None:
        self.profiler.on_window(start, cycles, window)  # stalls and ops
        # One state per kernel for the whole window, by its own proof.
        for k, state in window.states:
            self._state(k.name, state, start)
        # A channel's runs, or its occupancy throughout.
        self._sampled = True
        runs_of = window.occupancy
        for _name, ch, tally in self._occ:
            for occ, span in runs_of.get(ch) or ((ch.occupancy, cycles),):
                tally[occ] = tally.get(occ, 0) + span

    def _emit(self, name: str, state: str, start: int, end: int) -> None:
        if end <= start:
            return
        if self._count >= self.MAX_SLICES:
            self.truncated = True
            return
        self._count += 1
        self.sink.append(Slice(self.run, name, state, self.offset + start,
                               self.offset + end))

    # -- the fold ------------------------------------------------------------
    def fold_occupancy(self) -> None:
        """Write the tallied occupancy samples (idempotent)."""
        if not self._sampled:
            return
        self._sampled = False
        hist = self.registry.histogram(
            "channel.occupancy", "per-cycle FIFO occupancy samples")
        run = self.run
        for name, _ch, tally in self._occ:
            if tally:
                hist.fold((("channel", name), ("run", run)), tally.items())
                tally.clear()

    def close(self, t: int) -> None:
        """End the run at engine cycle ``t`` and let go of the engine (the
        session keeps the profiler, not the channels and generators)."""
        self.fold_occupancy()
        for name, (state, start) in self._open.items():
            self._emit(name, state, start, t)
        self._open.clear()
        self._kernels, self._occ = [], []
        self.profiler._engine = None

    def on_run_end(self, report: Any) -> None:
        self.last_report = report
        self.fold_occupancy()
        reg, run = self.registry, self.run
        by_run = ("run", run)
        reg.counter("sim.cycles", "simulated cycles per engine run").add(
            (by_run,), report.cycles)
        util = reg.gauge("kernel.utilization",
                         "fraction of live cycles a kernel did work")
        ii = reg.gauge("kernel.ii",
                       "initiation interval: declared (static) vs achieved "
                       "(live cycles per work cycle)")
        active = reg.counter("kernel.active_cycles",
                             "cycles a kernel performed work")
        stalled = reg.counter("kernel.stall_cycles",
                              "cycles a kernel was blocked on a channel")
        for name, k in report.kernels.items():
            s = k.stats
            live = s.active_cycles + s.stall_cycles
            key = (("kernel", name), by_run)
            active.add(key, s.active_cycles)
            stalled.add(key, s.stall_cycles)
            util.put(key, s.active_cycles / live if live else 0.0)
            ii.put((("kernel", name), ("kind", "declared"), by_run),
                   float(getattr(k, "ii", 1)))
            ii.put((("kernel", name), ("kind", "achieved"), by_run),
                   live / s.active_cycles if s.active_cycles else 0.0)
        cause = reg.counter(
            "kernel.stall_cause_cycles",
            "stalled cycles attributed to a channel and direction")
        for kname, per_chan in self.profiler.stalls.items():
            for (chan, kind), cycles in per_chan.items():
                cause.add((("cause", STALL_CAUSES[kind]), ("channel", chan),
                           ("kernel", kname), by_run), cycles)
        pushes = reg.counter("channel.pushes", "elements pushed")
        pops = reg.counter("channel.pops", "elements popped")
        push_stall = reg.counter("channel.push_stall_cycles",
                                 "producer cycles lost to a full FIFO")
        pop_stall = reg.counter("channel.pop_stall_cycles",
                                "consumer cycles lost to an empty FIFO")
        max_occ = reg.gauge("channel.max_occupancy",
                            "highwater FIFO occupancy")
        for name, ch in report.channels.items():
            st = ch.stats
            key = (("channel", name), by_run)
            pushes.add(key, st.pushes)
            pops.add(key, st.pops)
            push_stall.add(key, st.stalled_push_cycles)
            pop_stall.add(key, st.stalled_pop_cycles)
            max_occ.put(key, st.max_occupancy)
        if report.bank_stats:
            bbytes = reg.counter("dram.bank.bytes",
                                 "bytes a DRAM bank moved during the run")
            busy = reg.counter("dram.bank.busy_cycles",
                               "cycles a bank granted at least one byte")
            denied = reg.counter("dram.bank.denied_cycles",
                                 "requests finding a bank budget exhausted")
            for bank, bs in enumerate(report.bank_stats):
                bbytes.add((("bank", bank), ("dir", "read"), by_run),
                           bs.bytes_read)
                bbytes.add((("bank", bank), ("dir", "write"), by_run),
                           bs.bytes_written)
                key = (("bank", bank), by_run)
                busy.add(key, bs.busy_cycles)
                denied.add(key, bs.denied_cycles)
