"""Engine observers that feed the telemetry session.

Two observers bridge the PR-2 engine event protocol
(:mod:`repro.fpga.observers`) into the telemetry data model:

:class:`MetricsObserver`
    Fills a :class:`~repro.telemetry.metrics.MetricsRegistry` with the
    attribution quantities the paper's evaluation reasons about:
    per-kernel achieved vs declared initiation interval, utilization,
    stall-cause breakdown (upstream-starved vs downstream-backpressured,
    reusing :class:`~repro.fpga.observers.StallChainProfiler`
    attribution), per-channel occupancy histograms, and per-DRAM-bank
    busy-cycles/bytes from the run's
    :attr:`~repro.fpga.engine.SimReport.bank_stats`.

:class:`SliceRecorder`
    Coalesces the per-cycle kernel states into
    :class:`~repro.telemetry.spans.Slice` intervals on the session
    clock — the leaf rows of the exported Perfetto timeline.

Both are attached per engine run by
:meth:`~repro.telemetry.runtime.TelemetrySession.engine_run` and detach
afterwards, so an engine with no active telemetry session never sees
them (the zero-cost-when-unused contract).

Both define ``on_window`` (a certified superstep folds into the
histograms, stall charges and slices arithmetically, like an
``on_quiet`` jump), so a watched certified run keeps its windows.

Both implement the :class:`~repro.fpga.observers.EngineObserver`
protocol structurally rather than by inheritance, and the profiler is
imported lazily: :mod:`repro.telemetry` must stay importable without
touching :mod:`repro.fpga` (the engine imports
:mod:`repro.telemetry.runtime` at module scope, and a module-level
import back into ``fpga`` would be a cycle).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .spans import Slice

__all__ = ["MetricsObserver", "SliceRecorder", "STALL_CAUSES"]

#: Map from the :class:`~repro.fpga.kernel.BlockedState` kind to the
#: dimensioning vocabulary of Sec. IV-B: a kernel blocked *popping* is
#: starved by its producers (they, or DRAM, are the bottleneck); blocked
#: *pushing* it is backpressured by its consumers.
STALL_CAUSES = {"pop": "upstream-starved", "push": "downstream-backpressured"}


class MetricsObserver:
    """Record one engine run into a shared metrics registry.

    All series carry a ``run`` label so several engine runs in one
    session (a multi-component plan, a host program issuing many calls)
    stay distinguishable while counters still sum to session totals.
    """

    wants_kernel_states = True       # drives the stall-cause profiler

    def __init__(self, registry: MetricsRegistry, run: int = 0,
                 occupancy: bool = True) -> None:
        from ..fpga.observers import StallChainProfiler
        self.registry = registry
        self.run = run
        self.occupancy = occupancy
        self.profiler = StallChainProfiler()
        self.last_report: Optional[Any] = None
        self._engine: Optional[Any] = None

    # -- protocol forwarding -------------------------------------------------
    def on_run_start(self, engine: Any) -> None:
        self._engine = engine
        self.profiler.on_run_start(engine)

    def on_cycle(self, t: int) -> None:
        if self.occupancy:
            hist = self.registry.histogram(
                "channel.occupancy", "per-cycle FIFO occupancy samples")
            run = self.run
            for name, ch in self._engine.channels.items():
                hist.observe(ch.occupancy, run=run, channel=name)

    def on_kernel_state(self, t: int, kernel: Any, state: str) -> None:
        self.profiler.on_kernel_state(t, kernel, state)

    def on_channel_op(self, t: int, kernel: Any, channel: Any, kind: str,
                      count: int) -> None:
        self.profiler.on_channel_op(t, kernel, channel, kind, count)

    def on_quiet(self, start: int, cycles: int) -> None:
        self.profiler.on_quiet(start, cycles)
        if self.occupancy:
            hist = self.registry.histogram(
                "channel.occupancy", "per-cycle FIFO occupancy samples")
            run = self.run
            for name, ch in self._engine.channels.items():
                hist.observe(ch.occupancy, count=cycles, run=run,
                             channel=name)

    def on_window(self, start: int, cycles: int, window: Any) -> None:
        self.profiler.on_window(start, cycles, window)
        if self.occupancy:
            hist = self.registry.histogram(
                "channel.occupancy", "per-cycle FIFO occupancy samples")
            run = self.run
            for name, ch in self._engine.channels.items():
                for occ, span in window.occupancy.get(
                        ch, ((ch.occupancy, cycles),)):
                    hist.observe(occ, count=span, run=run, channel=name)

    # -- aggregation ---------------------------------------------------------
    def on_run_end(self, report: Any) -> None:
        self.last_report = report
        reg, run = self.registry, self.run
        reg.counter("sim.cycles", "simulated cycles per engine run").inc(
            report.cycles, run=run)
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
            active.inc(s.active_cycles, run=run, kernel=name)
            stalled.inc(s.stall_cycles, run=run, kernel=name)
            util.set(s.active_cycles / live if live else 0.0,
                     run=run, kernel=name)
            ii.set(float(getattr(k, "ii", 1)), run=run, kernel=name,
                   kind="declared")
            ii.set(live / s.active_cycles if s.active_cycles else 0.0,
                   run=run, kernel=name, kind="achieved")
        cause = reg.counter(
            "kernel.stall_cause_cycles",
            "stalled cycles attributed to a channel and direction")
        for kname, per_chan in self.profiler.stalls.items():
            for (chan, kind), cycles in per_chan.items():
                cause.inc(cycles, run=run, kernel=kname, channel=chan,
                          cause=STALL_CAUSES[kind])
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
            pushes.inc(st.pushes, run=run, channel=name)
            pops.inc(st.pops, run=run, channel=name)
            push_stall.inc(st.stalled_push_cycles, run=run, channel=name)
            pop_stall.inc(st.stalled_pop_cycles, run=run, channel=name)
            max_occ.set(st.max_occupancy, run=run, channel=name)
        if report.bank_stats:
            bbytes = reg.counter("dram.bank.bytes",
                                 "bytes a DRAM bank moved during the run")
            busy = reg.counter("dram.bank.busy_cycles",
                               "cycles a bank granted at least one byte")
            denied = reg.counter("dram.bank.denied_cycles",
                                 "requests finding a bank budget exhausted")
            for bank, bs in enumerate(report.bank_stats):
                bbytes.inc(bs.bytes_read, run=run, bank=bank, dir="read")
                bbytes.inc(bs.bytes_written, run=run, bank=bank, dir="write")
                busy.inc(bs.busy_cycles, run=run, bank=bank)
                denied.inc(bs.denied_cycles, run=run, bank=bank)


class SliceRecorder:
    """Coalesce per-kernel per-cycle states into timeline slices.

    A slice opens when a kernel's state changes and closes at the next
    change (or at run end), so the recorded volume is bounded by state
    *transitions*, not cycles; :data:`MAX_SLICES` caps pathological
    cases (the trace is then marked ``truncated``).
    """

    wants_kernel_states = True

    #: Upper bound on recorded slices per engine run.
    MAX_SLICES = 250_000

    def __init__(self, sink: List[Slice], offset: int = 0,
                 run: int = 0) -> None:
        self.sink = sink
        self.offset = offset
        self.run = run
        self.truncated = False
        self._engine: Optional[Any] = None
        self._open: Dict[str, list] = {}      # kernel -> [state, start]
        self._count = 0
        self._final_t: Optional[int] = None

    def on_run_start(self, engine: Any) -> None:
        self._engine = engine

    def on_cycle(self, t: int) -> None:
        pass

    def on_channel_op(self, t: int, kernel: Any, channel: Any, kind: str,
                      count: int) -> None:
        pass

    def _transition(self, name: str, state: str, t: int) -> None:
        cur = self._open.get(name)
        if cur is None:
            self._open[name] = [state, t]
            return
        if cur[0] == state:
            return
        self._emit(name, cur[0], cur[1], t)
        cur[0], cur[1] = state, t

    def _emit(self, name: str, state: str, start: int, end: int) -> None:
        if end <= start:
            return
        if self._count >= self.MAX_SLICES:
            self.truncated = True
            return
        self._count += 1
        self.sink.append(Slice(run=self.run, kernel=name, state=state,
                               start=self.offset + start,
                               end=self.offset + end))

    def on_kernel_state(self, t: int, kernel: Any, state: str) -> None:
        self._transition(kernel.name, state, t)

    def on_quiet(self, start: int, cycles: int) -> None:
        # States are provably constant over the window; synthesize the
        # same per-kernel verdict the TraceObserver uses.
        for k in self._engine.kernels.values():
            state = "-" if k.done else ("z" if k.sleep_until > start else "s")
            self._transition(k.name, state, start)

    def on_window(self, start: int, cycles: int, window: Any) -> None:
        # One state per kernel for the whole window, by its own proof.
        for k, state in window.states:
            self._transition(k.name, state, start)

    def finalize(self, t: int) -> None:
        """Close every open interval at engine cycle ``t`` (idempotent)."""
        if self._final_t is not None:
            return
        self._final_t = t
        for name, (state, start) in self._open.items():
            self._emit(name, state, start, t)
        self._open.clear()

    def on_run_end(self, report: Any) -> None:
        self.finalize(report.cycles)
