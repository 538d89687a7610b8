"""Hierarchical spans on the simulated-cycle timebase.

A *span* is a named interval — a host routine call, a streaming
composition, one component of a plan, one engine run — on the telemetry
session's global cycle clock (see :mod:`repro.telemetry.runtime`: each
engine run maps its local cycles onto a session-wide monotonically
increasing cursor, so spans from different engines never overlap and a
whole host program renders as one coherent timeline).

Spans nest through a recorder-owned stack: whatever is open when a new
span starts becomes its parent.  The ``host/api.py`` routine wrappers
open root spans, ``streaming/executor.py`` compositions and
``fpga/engine.py`` runs nest under them, and kernel work/stall intervals
(recorded separately as :class:`Slice` by the
:class:`~repro.telemetry.observers.RunObserver`) become the leaf
slices.  :mod:`repro.telemetry.chrome_trace` renders both to Chrome
``trace_event`` JSON loadable in ``ui.perfetto.dev``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, NamedTuple, Optional

__all__ = ["Slice", "Span", "SpanRecorder"]


@dataclass
class Span:
    """One named interval on the session cycle clock.

    ``name`` stays mutable while the span is open: the host layer opens
    a generic ``host.call`` span before it knows which routine the thunk
    will record, then renames it from the :class:`CallRecord` it
    produced.
    """

    name: str
    cat: str
    start: int
    end: Optional[int] = None
    depth: int = 0
    args: dict = field(default_factory=dict)


class Slice(NamedTuple):
    """A coalesced per-kernel state interval within one engine run.

    ``state`` uses the engine's one-character vocabulary (``#`` working,
    ``s`` stalled, ``z`` sleeping, ``-`` done); ``start``/``end`` are on
    the session clock, ``run`` indexes the engine run the slice belongs
    to.  A named tuple, not a frozen dataclass: a watched run records
    one per state transition, and the tuple is built several times
    faster.
    """

    run: int
    kernel: str
    state: str
    start: int
    end: int


class SpanRecorder:
    """Records spans against a caller-supplied cycle clock.

    ``clock`` is a zero-argument callable returning the current session
    cycle; the recorder never advances it (engine runs do, through the
    session).  Spans are kept in open order, which is also start order —
    exactly what the trace exporter needs.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def open(self, name: str, cat: str = "host", **args: object) -> Span:
        span = Span(name=name, cat=cat, start=self._clock(),
                    depth=len(self._stack), args=args)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, **args: object) -> Span:
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already closed")
        while self._stack and self._stack[-1] is not span:
            # Defensive: close any dangling children first.
            self._stack.pop().end = self._clock()
        if self._stack:
            self._stack.pop()
        span.end = self._clock()
        span.args.update(args)
        return span

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, cat: str = "host",
             **args: object) -> Iterator[Span]:
        s = self.open(name, cat, **args)
        try:
            yield s
        except BaseException as exc:
            s.args.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.close(s)
