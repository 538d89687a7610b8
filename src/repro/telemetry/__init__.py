"""repro.telemetry — cross-layer observability for the simulator.

Six pillars, layered on the PR-2 engine observer protocol:

* :mod:`~repro.telemetry.metrics` — labelled counters / gauges /
  histograms in a :class:`MetricsRegistry`;
* :mod:`~repro.telemetry.spans` — hierarchical spans on a session-wide
  cycle clock, with per-kernel work/stall slices;
* :mod:`~repro.telemetry.chrome_trace` — Chrome/Perfetto
  ``trace_event`` export of a whole session;
* :mod:`~repro.telemetry.ledger` — the correlated run ledger: one
  ``run_id`` per request (host call → executor → engine run), one
  :class:`RunRecord` per completion, a bounded ring plus a
  size-rotated JSONL sink, and :class:`LedgerQuery` /
  :func:`fleet_report` on top;
* :mod:`~repro.telemetry.prometheus` — text-exposition (0.0.4) export
  of the metrics registry for scrapers;
* :mod:`~repro.telemetry.drift` — measured-vs-model comparison of the
  Sec. V applications (imported lazily: it pulls in :mod:`repro.apps`).

Typical use::

    from repro import telemetry

    with telemetry.session() as tel:
        axpydot_streaming(ctx, w, v, u, 0.75)
    print(tel.report())
    telemetry.write_chrome_trace(tel, "trace.json")

or from the shell::

    python -m repro.telemetry axpydot --trace t.json --metrics m.json --report

Everything is zero-cost when no session is active: the only hook on the
hot path is :func:`repro.telemetry.runtime.active`, one module-global
read.  ``drift`` and ``cli`` are deliberately *not* imported here so
that the engine's import of :mod:`~repro.telemetry.runtime` never drags
the application layer in.
"""

from .chrome_trace import (CHROME_TRACE_SCHEMA, to_chrome_trace,
                           trace_events, write_chrome_trace)
from .ledger import (RUN_RECORD_SCHEMA, LedgerQuery, RunLedger, RunRecord,
                     correlate, current_run_id, fleet_report, mint_run_id,
                     read_ledger)
from .metrics import (METRICS_SCHEMA, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .observers import STALL_CAUSES, RunObserver
from .prometheus import (PROMETHEUS_CONTENT_TYPE, to_prometheus,
                         write_prometheus)
from .runtime import TelemetrySession, active, session, span
from .spans import Slice, Span, SpanRecorder

__all__ = [
    "CHROME_TRACE_SCHEMA", "METRICS_SCHEMA", "PROMETHEUS_CONTENT_TYPE",
    "RUN_RECORD_SCHEMA", "STALL_CAUSES",
    "Counter", "Gauge", "Histogram", "LedgerQuery", "MetricsRegistry",
    "RunLedger", "RunObserver", "RunRecord", "Slice", "Span", "SpanRecorder", "TelemetrySession",
    "active", "correlate", "current_run_id", "fleet_report",
    "mint_run_id", "read_ledger", "session", "span",
    "to_chrome_trace", "to_prometheus", "trace_events",
    "write_chrome_trace", "write_prometheus",
]
