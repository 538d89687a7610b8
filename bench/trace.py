"""Outside-in tracing: spans around the program's layer boundaries.

The program is not edited.  For the traced pass only, the public entry
points listed in :data:`BOUNDARIES` are wrapped from here so that each
call opens a span ``{name, layer, start, end, parent, request_id}``;
the wrappers come off again when the pass ends.  Spans stay in memory
and are written as a Chrome ``trace_event`` file at exit.  A layer's
self time is its spans' duration minus the part their children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from .workloads import Call


def _engine_run_note(args: tuple, report) -> dict:
    note = {"cycles": report.cycles, "kernel_steps": report.kernel_steps}
    note.update(args[0].bulk_stats() or {})
    return note


#: (layer, span name, module, attribute path[, note]) — the calls into
#: each layer that a request crosses.  Module-level functions are
#: patched in the namespace their caller looks them up in.
BOUNDARIES = [
    ("host", "copy_to_device", "repro.host.context",
     "FblasContext.copy_to_device"),
    ("host", "copy_from_device", "repro.host.context",
     "FblasContext.copy_from_device"),
    ("fpga", "memory.bind", "repro.fpga.memory", "DramModel.bind"),
    ("fpga", "memory.allocate", "repro.fpga.memory", "DramModel.allocate"),
    ("fpga", "engine.build", "repro.fpga.engine", "Engine.__init__"),
    ("fpga", "engine.build", "repro.fpga.engine", "Engine.channel"),
    ("fpga", "engine.build", "repro.fpga.engine", "Engine.add_kernel"),
    ("fpga", "engine.run", "repro.fpga.engine", "Engine.run",
     _engine_run_note),
    ("analysis", "ensure_certified", "repro.analysis.schedule",
     "ensure_certified"),
    ("analysis", "certify", "repro.analysis.schedule", "certify"),
    ("plan", "as_plan", "repro.analysis.schedule", "as_plan"),
    ("plan", "plan_key", "repro.plan.ir", "PlanIR.plan_key"),
    ("telemetry", "ledger.append", "repro.telemetry.ledger",
     "RunLedger.append"),
    ("service", "submit", "repro.service.service",
     "SimulationService.submit"),
    ("service", "run_batch", "repro.service.service", "run_batch"),
    ("faults", "run_with_recovery", "repro.service.service",
     "run_with_recovery"),
]


class Tracer:
    """In-memory span recorder with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.request_id: Optional[int] = None
        #: The request's open top-level call: parent of spans that start
        #: on another thread (the service worker) on its behalf.
        self.root: Optional[dict] = None

    def open(self, name: str, layer: str,
             top_level: bool = False) -> Optional[dict]:
        """Start a span under the innermost open one of this thread (or,
        on a thread with none, under the request's top-level call).
        Outside any timed call nothing is recorded: ``prepare`` steps and
        the program's idle threads are not part of the request."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        if parent is None and not top_level:
            stack.append(None)
            return None
        span = {"id": next(self._ids), "name": name, "layer": layer,
                "parent": parent["id"] if parent else None,
                "request_id": self.request_id,
                "tid": threading.get_ident(), "args": {},
                "start": time.perf_counter(), "end": None}
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Optional[dict]) -> None:
        if span is not None:
            span["end"] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def around(self, call: Call) -> Iterator[None]:
        """``run_request`` hook: one top-level span per timed call."""
        span = self.open(call.name, call.layer, top_level=True)
        self.root = span
        try:
            yield
        finally:
            self.root = None
            self.close(span)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, name: str,
              note: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
                if note is not None and span is not None:
                    span["args"].update(note(args, out))
                return out
            finally:
                self.close(span)
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the ``with`` block."""
        undo = []
        try:
            for layer, name, module, path, *note in BOUNDARIES:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = owner.__dict__[attr]
                if isinstance(original, functools.cached_property):
                    patched = functools.cached_property(self._wrap(
                        original.func, layer, name, None))
                    patched.__set_name__(owner, attr)
                else:
                    patched = self._wrap(original, layer, name,
                                         note[0] if note else None)
                setattr(owner, attr, patched)
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reading the spans -------------------------------------------------
    def finished(self) -> List[dict]:
        """Spans that have ended (a program thread may still be inside
        its last call when the pass stops)."""
        return [s for s in self.spans if s["end"] is not None]

    def self_times(self) -> Dict[int, float]:
        """Seconds of each span not covered by its child spans."""
        spans = self.finished()
        own = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write_chrome(self, path) -> None:
        spans = self.finished()
        t0 = min((s["start"] for s in spans), default=0.0)
        events = [{
            "name": s["name"], "cat": s["layer"], "ph": "X", "pid": 1,
            "tid": s["tid"], "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"id": s["id"], "parent": s["parent"],
                     "request_id": s["request_id"], **s["args"]},
        } for s in spans]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
