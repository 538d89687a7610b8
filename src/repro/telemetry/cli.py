"""``python -m repro.telemetry`` — run an app with full observability.

Runs one of the four Sec. V compositions (or the drift sweep) under a
telemetry session and emits any combination of:

* ``--trace out.json`` — Chrome/Perfetto ``trace_event`` timeline,
* ``--metrics out.json`` — metrics registry + per-run SimReport
  summaries + the app result, one JSON document,
* ``--ledger out.jsonl`` — the correlated run ledger (one
  ``repro.runrecord/1`` row per request),
* ``--prometheus out.prom`` — the metrics registry in Prometheus text
  exposition format,
* ``--report`` — text bottleneck report plus the model-vs-measured
  drift table for all four applications.

The ``report`` subcommand reads a previously written ledger JSONL and
renders the fleet-style table (per-plan runs, cache hit rates, cycle
percentiles, band-regression flags, slowest requests, fault/recovery
summary); ``--drift-threshold`` sets the relative band overshoot that
flags a regression, the same knob the drift sweep uses.

Examples::

    python -m repro.telemetry axpydot --trace /tmp/t.json \\
        --metrics /tmp/m.json --report
    python -m repro.telemetry atax --n 128 --tile 8 --trace atax.json
    python -m repro.telemetry atax --ledger ledger.jsonl --prometheus m.prom
    python -m repro.telemetry report ledger.jsonl --drift-threshold 0.1
    python -m repro.telemetry drift
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from ..fpga.engine import ENGINE_MODES
from ..fpga.errors import ReproError
from ..host.context import FblasContext
from . import runtime
from .chrome_trace import write_chrome_trace
from .drift import DEFAULT_THRESHOLD, drift_report

__all__ = ["main", "TELEMETRY_SCHEMA"]

#: Schema tag of the ``--metrics`` JSON document.
TELEMETRY_SCHEMA = "repro.telemetry/1"


def _build_parser() -> argparse.ArgumentParser:
    from ..apps import APPS
    from ..apps.catalogue import positive_int
    p = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Run a streaming composition with telemetry attached.")
    p.add_argument("app", choices=(*APPS, "drift", "report"),
                   help="composition to run, 'drift' for the "
                        "model-vs-measured sweep, or 'report' to render "
                        "a run-ledger JSONL as a fleet table")
    p.add_argument("path", nargs="?", default=None,
                   help="ledger JSONL path (required by 'report', "
                        "meaningless otherwise)")
    p.add_argument("--n", type=positive_int, default=None,
                   help="problem size (vector length / matrix side)")
    p.add_argument("--width", type=positive_int, default=None,
                   help="vectorization width of the modules")
    p.add_argument("--tile", type=positive_int, default=8,
                   help="tile size for the level-2 compositions")
    p.add_argument("--engine-mode", choices=ENGINE_MODES,
                   default="event", dest="mode",
                   help="engine scheduler: dense reference schedule, "
                        "event wake lists, certified static-schedule "
                        "replay, or bulk (replays when the design "
                        "certifies, steps like event when it does not; "
                        "default: event)")
    p.add_argument("--seed", type=int, default=7, help="input data seed")
    p.add_argument("--trace", metavar="PATH",
                   help="write Chrome trace_event JSON here")
    p.add_argument("--metrics", metavar="PATH",
                   help="write metrics + run summaries JSON here")
    p.add_argument("--ledger", metavar="PATH",
                   help="write the correlated run ledger (JSONL, one "
                        "repro.runrecord/1 row per request) here")
    p.add_argument("--prometheus", metavar="PATH",
                   help="write the metrics registry in Prometheus text "
                        "exposition format here")
    p.add_argument("--report", action="store_true",
                   help="print the bottleneck report and the drift table")
    p.add_argument("--drift-threshold", type=float,
                   default=DEFAULT_THRESHOLD,
                   help="relative error above which drift is flagged")
    return p


def _report_command(path: Optional[str], threshold: float) -> int:
    """The ``report`` subcommand: ledger JSONL -> fleet table."""
    from .ledger import LedgerQuery, fleet_report, read_ledger
    if not path:
        print("report requires a ledger JSONL path "
              "(python -m repro.telemetry report ledger.jsonl)",
              file=sys.stderr)
        return 2
    try:
        records = read_ledger(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read ledger {path}: {exc}", file=sys.stderr)
        return 2
    print(fleet_report(records, threshold=threshold))
    return 1 if LedgerQuery(records).regressions(threshold) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.app == "report":
        return _report_command(args.path, args.drift_threshold)
    if args.path is not None:
        print(f"positional path {args.path!r} only applies to 'report'",
              file=sys.stderr)
        return 2
    try:
        for flag in ("trace", "metrics", "ledger", "prometheus"):
            if getattr(args, flag):
                # Opened before anything is simulated (appending, so a
                # failed run truncates nothing), written after.
                open(getattr(args, flag), "a").close()
        return _run(args)
    except ReproError as exc:
        # A typed failure is one line, never a traceback: e.g. certified
        # mode refuses the width-16 AXPYDOT (FB402) before cycle 0.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    """Run one app, or the drift sweep, under the parsed options."""
    if args.app == "drift":
        rep = drift_report(threshold=args.drift_threshold, mode=args.mode)
        print(rep.table())
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as fh:
                json.dump(rep.to_dict(), fh, indent=1)
                fh.write("\n")
            print(f"drift JSON written to {args.metrics}")
        return 1 if rep.flagged() else 0

    from ..apps import APPS
    spec = APPS[args.app]
    arrays = spec.draw(np.random.default_rng(args.seed), args.n or spec.n)
    with runtime.session(ledger_path=args.ledger) as tel:
        result = spec.run(FblasContext(), arrays,
                          width=args.width or spec.width, tile=args.tile,
                          mode=args.mode)
    print(f"{args.app}: {result.cycles} cycles, "
          f"{result.io_elements} I/O elements, "
          f"{result.seconds * 1e6:.1f} us modeled "
          f"({len(tel.runs)} engine run{'s' if len(tel.runs) != 1 else ''})")

    if args.trace:
        doc = write_chrome_trace(tel, args.trace)
        print(f"trace written to {args.trace} "
              f"({len(doc['traceEvents'])} events)")
    if args.metrics:
        payload = {
            "schema": TELEMETRY_SCHEMA,
            "app": args.app,
            "mode": args.mode,
            "result": result.to_dict(),
            "runs": tel.runs,
            "metrics": tel.registry.to_dict(),
        }
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"metrics written to {args.metrics}")
    if args.ledger:
        print(f"ledger written to {args.ledger} "
              f"({len(tel.ledger)} records)")
    if args.prometheus:
        from .prometheus import write_prometheus
        write_prometheus(tel.registry, args.prometheus)
        print(f"prometheus metrics written to {args.prometheus}")
    if args.report:
        print()
        print(tel.report())
        print()
        rep = drift_report(threshold=args.drift_threshold, mode=args.mode)
        print(rep.table())
    return 0


if __name__ == "__main__":                         # pragma: no cover
    sys.exit(main())
