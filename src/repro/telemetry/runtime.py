"""The telemetry session: activation, the cycle clock, engine hookup.

One :class:`TelemetrySession` observes a whole host program.  It owns

* a :class:`~repro.telemetry.metrics.MetricsRegistry` all engine runs
  aggregate into,
* a :class:`~repro.telemetry.spans.SpanRecorder` on the session's
  *global cycle clock* — each engine run maps its local cycles onto a
  monotonically increasing cursor (run ``i+1`` starts where run ``i``
  ended), so host spans, composition spans and kernel slices share one
  coherent timeline,
* the per-run :class:`~repro.fpga.engine.SimReport` summaries
  (``session.runs``, in :meth:`SimReport.to_dict` schema) and the
  kernel :class:`~repro.telemetry.spans.Slice` list,
* the correlated :class:`~repro.telemetry.ledger.RunLedger`: every
  engine run (and, through the instrumented host API and executor,
  every request above it) mints a ``run_id`` and appends a
  :class:`~repro.telemetry.ledger.RunRecord` on completion.  The same
  id is stamped into the run's span (hence the Chrome trace), its
  SimReport summary, and any :class:`HangReport` /
  :class:`RecoveryOutcome` the run produces.

Activation is a context manager::

    from repro import telemetry

    with telemetry.session() as tel:
        axpydot_streaming(ctx, w, v, u, 0.7)
    print(tel.report())
    telemetry.write_chrome_trace(tel, "trace.json")

While a session is active, :meth:`Engine.run` (via a single
``active()`` check — the entire cost when telemetry is off) attaches one
:class:`~repro.telemetry.observers.RunObserver` for the duration of the
run and opens an ``engine.run`` span; the instrumented layers
(:mod:`repro.host.api`, :mod:`repro.streaming.executor`, the
:mod:`repro.apps` entry points) open their spans through the
module-level :func:`span` helper, which degrades to a shared no-op
context manager when no session is active.  Watching does not change
how a run is simulated: a watched certified run takes the same windows,
and a warm one the same compiled hit, as an unwatched one; the hit
shows the observer what the design's first watched run recorded.
The simulator is single-threaded; so is the session.

**Ledger-lite mode.**  ``session(metrics=False, kernel_slices=False,
occupancy=False, ledger_path=...)`` attaches *no observer at all*: the
per-run cost is O(kernels) record assembly after the run.  The three
keywords are one switch: a session records everything or only the
ledger.  ``bench/`` times this configuration as
``telemetry.ledger_lite_ms`` (a full session is
``telemetry.observed_over_plain``), and ``tests/test_window_tiers.py``
holds it to the plain run's report and to windows that keep replaying.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Iterator, List, Optional, Tuple

from . import ledger as _ledger
from .ledger import RunLedger
from .metrics import MetricsRegistry
from .observers import RunObserver
from .spans import Slice, SpanRecorder

__all__ = ["TelemetrySession", "active", "session", "span"]

_NULL = nullcontext()
_ACTIVE: Optional["TelemetrySession"] = None

def active() -> Optional["TelemetrySession"]:
    """The currently active session, or None.

    This is the only telemetry call on the no-telemetry hot path: the
    engine, host API and executor gate all instrumentation behind it.
    """
    return _ACTIVE


def span(name: str, cat: str = "host",
         **args: object) -> ContextManager[Any]:
    """Open a span on the active session; no-op context when inactive."""
    s = _ACTIVE
    if s is None:
        return _NULL
    return s.spans.span(name, cat, **args)


@contextmanager
def session(**kwargs: object) -> Iterator["TelemetrySession"]:
    """Activate a fresh :class:`TelemetrySession` for the with-block."""
    global _ACTIVE
    prev = _ACTIVE
    s = TelemetrySession(**kwargs)  # type: ignore[arg-type]
    _ACTIVE = s
    try:
        yield s
    finally:
        _ACTIVE = prev


class TelemetrySession:
    """Aggregates metrics, spans, slices, run summaries and the ledger.

    Parameters
    ----------
    metrics, kernel_slices, occupancy:
        One switch: all true (the default) attaches a
        :class:`RunObserver` (metrics, kernel slices, occupancy
        histograms) to every run; all false is *ledger-lite*, which
        still records one :class:`RunRecord` and one run summary per
        run.  A mixed setting raises
        :class:`~repro.fpga.errors.SessionConfigError` (a ``ValueError``).
    ledger_path:
        Optional JSONL sink path for the run ledger (size-rotated; see
        :class:`repro.telemetry.ledger.JsonlSink`).
    ledger_capacity:
        In-memory ring capacity of the ledger.
    """

    def __init__(self, kernel_slices: bool = True, occupancy: bool = True,
                 metrics: bool = True, ledger_path: Optional[str] = None,
                 ledger_capacity: int = _ledger.DEFAULT_CAPACITY) -> None:
        if not bool(metrics) == bool(kernel_slices) == bool(occupancy):
            # Imported lazily: repro.fpga imports this module.
            from ..fpga.errors import SessionConfigError
            raise SessionConfigError(
                "metrics, kernel_slices and occupancy are one switch: "
                "set all three or none, got "
                f"metrics={metrics!r}, kernel_slices={kernel_slices!r}, "
                f"occupancy={occupancy!r}")
        self.registry = MetricsRegistry()
        self.clock = 0
        self.spans = SpanRecorder(lambda: self.clock)
        self.slices: List[Slice] = []
        self.runs: List[dict] = []
        #: Point events (Chrome-trace ``"i"`` phase): injected faults,
        #: retries, demotions.  Each entry: name/cat/ts/run/args.
        self.instants: List[dict] = []
        #: Whether each run gets a :class:`RunObserver` (not ledger-lite).
        self.metrics = bool(metrics)
        #: The correlated run ledger (ring + optional JSONL sink).
        self.ledger = RunLedger(capacity=ledger_capacity, path=ledger_path)
        self._run_seq = 0
        self._run_offset = 0
        self._profilers: List[Tuple[int, object]] = []

    def span(self, name: str, cat: str = "host",
             **args: object) -> ContextManager[Any]:
        return self.spans.span(name, cat, **args)

    def instant(self, name: str, cycle: Optional[int] = None,
                cat: str = "fault", **args: object) -> None:
        """Record a point event on the session timeline.

        With ``cycle`` (engine-local), the event lands inside the current
        engine run at that cycle (tagged with the run index, so the
        Chrome exporter places it on that run's process row); without, it
        lands on the host row at the current session clock.  The ambient
        run id (if any) is stamped into the event args so trace markers
        join against ledger rows.
        """
        if cycle is not None and self._run_seq:
            run: Optional[int] = self._run_seq - 1
            ts = self._run_offset + cycle
        else:
            run = None
            ts = self.clock
        args_d = dict(args)
        rid = _ledger.current_run_id()
        if rid is not None:
            args_d.setdefault("run_id", rid)
        self.instants.append({"name": name, "cat": cat, "ts": ts,
                              "run": run, "args": args_d})

    # -- engine hookup -------------------------------------------------------
    def _counter_total(self, name: str) -> float:
        m = self.registry.get(name)
        total = getattr(m, "total", None)
        return total() if callable(total) else 0.0

    @contextmanager
    def engine_run(self, engine: Any) -> Iterator["TelemetrySession"]:
        """Instrument one :meth:`Engine.run` (called by the engine).

        Attaches the run's :class:`RunObserver` (unless the session is
        ledger-lite), opens the ``engine.run`` span and the run's ledger
        record (:func:`~repro.telemetry.ledger.run_scope`: the
        correlation id, the outcome, the wall time), and — crucially —
        advances the session clock by the cycles the run executed, even
        when the run raises (a deadlocked run still shows its partial
        timeline, ending at the deadlock cycle).  The record is appended
        on success or failure, with the certificate-cache delta, the
        certified predicted band, the bulk superstep counters and the
        fault counter delta filled in.
        """
        idx = self._run_seq
        self._run_seq += 1
        t0 = engine.now
        offset = self.clock - t0
        self._run_offset = offset
        with _ledger.run_scope(self.ledger, "engine.run",
                               label=f"engine.run[{idx}]",
                               engine_mode=engine.mode) as rec:
            mem = getattr(engine, "memory", None)
            if mem is not None:
                rec.device_label = getattr(mem, "device_label", None)
                summary = getattr(mem, "placement_summary", None)
                if callable(summary):
                    rec.memory = summary()
            sp = self.spans.open(f"engine.run[{idx}]", cat="engine", run=idx,
                                 run_id=rec.run_id, mode=engine.mode,
                                 kernels=len(engine.kernels),
                                 channels=len(engine.channels))
            cache = getattr(engine, "_schedule_cache", None)
            hits0 = getattr(cache, "hits", None)
            misses0 = getattr(cache, "misses", None)
            faults0 = self._counter_total("faults_injected")
            obs: Optional[RunObserver] = None
            if self.metrics:
                obs = RunObserver(self.registry, self.slices, offset=offset,
                                  run=idx)
                engine.add_observer(obs)
            ok = False
            try:
                yield self
                ok = True
            except BaseException as exc:
                sp.args.setdefault("error", type(exc).__name__)
                raise
            finally:
                end_t = engine.now
                if obs is not None:
                    engine._observers.remove(obs)
                    obs.close(end_t)
                    if obs.truncated:
                        sp.args["slices_truncated"] = True
                    # Kept for report(), which reads the stall tables.
                    self._profilers.append((idx, obs.profiler))
                self.clock = offset + end_t
                self.spans.close(sp, cycles=end_t - t0)
                if ok:
                    # Ledger-lite: no observer saw the run end; the
                    # engine's report builder is O(kernels).
                    report_dict = (obs.last_report if obs is not None
                                   else engine._build_report()).to_dict()
                    report_dict["run"] = idx
                    report_dict["offset"] = offset + t0
                    report_dict["run_id"] = rec.run_id
                    self.runs.append(report_dict)
                    rec.stall_cycles = report_dict["total_stall_cycles"]
                    rec.kernel_steps = report_dict["kernel_steps"]
                rec.cycles = end_t - t0
                schedule = getattr(engine, "schedule", None)
                if schedule is not None:
                    band = getattr(schedule, "predicted_cycles", None)
                    if band is not None:
                        rec.predicted_cycles = (int(band[0]), int(band[1]))
                    # The key the certificate lookup already computed.
                    rec.plan_key = getattr(schedule, "plan_key", None)
                if hits0 is not None:
                    rec.schedule_cache = {"hits": cache.hits - hits0,
                                          "misses": cache.misses - misses0}
                rec.faults_injected = int(
                    self._counter_total("faults_injected") - faults0)
                rec.bulk = engine.bulk_stats()
                rec.fallback_reason = engine._bulk_fallback

    # -- reporting -----------------------------------------------------------
    def report(self, top: int = 8) -> str:
        """Human-readable bottleneck report across all observed runs."""
        lines = ["telemetry report:"]
        if not self.runs:
            lines.append("  (no engine runs observed)")
        for d in self.runs:
            lines.append(
                f"  engine run {d['run']}: {d['cycles']} cycles, "
                f"kernel_steps={d['kernel_steps']}, "
                f"stall_cycles={d['total_stall_cycles']}")
            ranked = sorted(d["kernels"].items(),
                            key=lambda kv: -kv[1]["stall_cycles"])
            for name, ks in ranked[:top]:
                live = ks["active_cycles"] + ks["stall_cycles"]
                util = ks["active_cycles"] / live if live else 0.0
                lines.append(
                    f"    kernel {name:20s} util={util:6.1%} "
                    f"active={ks['active_cycles']} "
                    f"stalled={ks['stall_cycles']}")
            banks = [b for b in d.get("bank_stats", ())
                     if b["bytes_read"] or b["bytes_written"]
                     or b["denied_cycles"]]
            for b in banks:
                lines.append(
                    f"    dram bank {b['bank']}: "
                    f"read={b['bytes_read']}B write={b['bytes_written']}B "
                    f"busy={b['busy_cycles']}cy denied={b['denied_cycles']}")
        for idx, prof in self._profilers:
            if prof.stalls:
                lines.append(f"  run {idx} " + prof.report().replace(
                    "\n", "\n  "))
        return "\n".join(lines)

    def total_cycles(self) -> int:
        return sum(d["cycles"] for d in self.runs)
