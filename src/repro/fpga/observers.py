"""Pluggable engine observers: tracing and profiling as a protocol.

Tracing used to live inline in the engine's cycle loop behind ``if
self.trace`` branches.  Every scheduler (dense, event, window) now
publishes a small event protocol instead, and anything that wants to watch
a run — the classic timeline/occupancy trace, a stall-chain profiler, a
JSONL event dump, ad-hoc debugging hooks — subscribes as an observer.
The protocol is three hooks:

``on_run_start(engine)`` / ``on_run_end(report)``
    Bracket the run.  ``on_run_end`` fires only on successful completion
    (a deadlocked or truncated run raises out of ``Engine.run``).

``on_window(start, cycles, window)``
    Cycles ``start .. start+cycles-1`` of the run, described by one
    :class:`Window`.  The windows of a run cover
    its cycles in order, each exactly once, and every scheduler
    delivers every cycle this way:

    * an *executed* cycle (dense, event, and the cycles a window
      scheduler steps) is a one-cycle window, delivered after the
      kernels stepped: their states, the ops in step order, and every
      channel's occupancy as sampled after the cycle's maturations and
      before any kernel stepped;
    * a *jump* (event core only: the scheduler proved the cycles cannot
      change any state — every live kernel blocked or sleeping, no
      maturation due — and skipped them) is a window marked ``quiet``
      (:func:`quiet_window`), delivered before
      the jump, while every kernel keeps its state and every channel
      its occupancy;
    * a *superstep* of the window scheduler (``mode="certified"``, and
      ``mode="bulk"`` when the design certifies; :mod:`repro.fpga.bulk`)
      is one window per stretch of constant state, split where a kernel
      finishes inside it (at its last iteration and at the cycle its
      return takes), delivered after the superstep executed.  That is
      exact because of what the superstep's own proof holds constant:
      its kernels all work in every cycle of a record (state ``#``, the
      same pops and pushes each time); nothing wakes, blocks or finishes
      outside it, so every other kernel keeps the state it has at
      ``start``; a channel outside is untouched and holds its
      occupancy; and a superstep channel's occupancy is a closed form of
      its storage at ``start``.

    A *warm* watched run (:mod:`repro.fpga.bulk`, "Compiled hits")
    executes no cycle: it shows its observers the windows its design's
    first watched run recorded, and the live engine holds the run's
    final state.  So an observer reads states, stalls and occupancy from
    the window, never from a kernel or a channel.

Each observer folds a window once, whatever its length: every cycle of
a window repeats its states, ops and stalls, and only occupancy moves
(run-length encoded).
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

#: Cap on per-kernel timeline samples and per-channel occupancy samples
#: kept by :class:`TraceObserver` (timelines and occupancy sums truncate
#: at the same cycle so the two views of a long run agree).
MAX_TRACE_CYCLES = 100_000


class Window(NamedTuple):
    """Cycles of a run as a scheduler shows them to its observers
    (``on_window``).

    ``states``
        One character per kernel of the engine, in registration order:
        ``#`` worked, ``s`` stalled, ``z`` sleeping, ``-`` done — the
        kernel's state in *each* cycle of the window.
    ``ops``
        The ``(kernel, channel, kind, count)`` channel operations every
        cycle of the window repeats, in step order.
    ``occupancy``
        ``{channel: [(occupancy, cycles), ...]}``: a channel's visible
        elements in each cycle, sampled after the cycle's maturations,
        run-length encoded in time order (the runs' ``cycles`` add up to
        the window's).  A channel absent here holds ``channel.occupancy``
        throughout.
    ``blocked``
        ``{kernel: (channel, kind)}`` for the stalled kernels (state
        ``s``): what ``kernel.blocked`` said in each cycle.
    ``quiet``
        True for a jump: cycles no kernel executed.
    """

    states: str
    ops: list
    occupancy: dict
    blocked: dict
    quiet: bool = False


def quiet_window(kernels, start: int) -> Window:
    """The :class:`Window` of a jump from ``start``: each of ``kernels``
    keeps its state and stall, each channel its occupancy."""
    states = "".join(["-" if k.done else "z" if k.sleep_until > start
                      else "s" for k in kernels])
    return Window(states, [], {}, stalled(kernels, states), True)


def stalled(kernels, states: str) -> dict:
    """``Window.blocked`` of ``kernels`` in ``states`` (one each)."""
    blocked = {}
    if "s" in states:
        for k, state in zip(kernels, states):
            b = k.blocked
            if state == "s" and b is not None:
                blocked[k] = (b.channel, b.kind)
    return blocked


class EngineObserver:
    """Base observer: every hook is a no-op; subclass what you need."""

    def on_run_start(self, engine) -> None:
        pass

    def on_window(self, start: int, cycles: int, window) -> None:
        pass

    def on_run_end(self, report) -> None:
        pass


class TraceObserver(EngineObserver):
    """The classic ``trace=True`` recording: timelines + occupancy sums.

    Produces exactly the per-kernel state strings and per-channel summed
    occupancies the dense engine used to record inline, in either engine
    mode.  Both are capped at :data:`MAX_TRACE_CYCLES` samples.
    """

    def __init__(self):
        self.occupancy_sums: Dict[str, int] = {}
        self.timelines: Dict[str, List[str]] = {}
        self._engine = None

    def on_run_start(self, engine) -> None:
        self._engine = engine

    def on_window(self, start: int, cycles: int, window) -> None:
        n = min(start + cycles, MAX_TRACE_CYCLES) - start
        if n <= 0:
            return
        sums = self.occupancy_sums
        runs_of = window.occupancy
        for name, ch in self._engine.channels.items():
            total, left = 0, n          # the first n samples of the runs
            for occ, span in runs_of.get(ch) or ((ch.occupancy, n),):
                total += occ * min(span, left)
                left -= span
                if left <= 0:
                    break
            sums[name] = sums.get(name, 0) + total
        timelines = self.timelines
        for name, state in zip(self._engine.kernels, window.states):
            line = timelines.get(name)
            if line is None:
                line = timelines[name] = []
            line.extend(state * n)


class StallChainProfiler(EngineObserver):
    """Aggregates who stalls on what and derives backpressure chains.

    For every stalled cycle it records which channel (and direction) the
    kernel was blocked on (``Window.blocked``, from the typed
    :class:`~repro.fpga.kernel.BlockedState`).  Channel endpoints are
    learned from port annotations and from observed ops, so
    :meth:`chain` can walk a stall to its root cause: a kernel blocked
    popping channel ``c`` points at ``c``'s producer; blocked pushing, at
    its consumer.  The walk stops at the first kernel that is not itself
    dominated by stalls — the actual bottleneck.
    """

    def __init__(self):
        #: kernel name -> {(channel name, "pop"|"push"): stalled cycles}
        self.stalls: Dict[str, Dict[Tuple[str, str], int]] = {}
        self.producers: Dict[str, Set[str]] = {}
        self.consumers: Dict[str, Set[str]] = {}
        self._engine = None

    def on_run_start(self, engine) -> None:
        self._engine = engine
        for k in engine.kernels.values():
            for ch in k.read_channels:
                self.consumers.setdefault(ch.name, set()).add(k.name)
            for port in k.write_ports:
                self.producers.setdefault(port.channel.name, set()).add(k.name)

    def on_window(self, start: int, cycles: int, window) -> None:
        stalls = self.stalls
        for k, (ch, kind) in window.blocked.items():
            d = stalls.get(k.name)
            if d is None:
                d = stalls[k.name] = {}
            key = (ch.name, kind)
            d[key] = d.get(key, 0) + cycles
        producers, consumers = self.producers, self.consumers
        for k, ch, kind, _count in window.ops:
            side = producers if kind == "push" else consumers
            names = side.get(ch.name)
            if names is None:
                side[ch.name] = {k.name}
            else:
                names.add(k.name)

    # -- analysis ----------------------------------------------------------
    def dominant_stall(self, kernel: str) -> Optional[Tuple[str, str, int]]:
        """(channel, kind, cycles) the kernel stalled on most, or None."""
        d = self.stalls.get(kernel)
        if not d:
            return None
        (ch, kind), cycles = max(d.items(), key=lambda kv: kv[1])
        return ch, kind, cycles

    def chain(self, kernel: str) -> List[str]:
        """Follow dominant stalls from ``kernel`` to the root bottleneck."""
        path = [kernel]
        seen = {kernel}
        while True:
            dom = self.dominant_stall(path[-1])
            if dom is None:
                return path
            ch, kind, _cycles = dom
            peers = (self.producers if kind == "pop"
                     else self.consumers).get(ch, set()) - seen
            if not peers:
                return path
            nxt = max(peers,
                      key=lambda n: sum(self.stalls.get(n, {}).values()))
            path.append(nxt)
            seen.add(nxt)

    def report(self) -> str:
        """Human-readable stall summary with the derived chains."""
        lines = ["stall chains:"]
        for name in sorted(self.stalls,
                           key=lambda n: -sum(self.stalls[n].values())):
            total = sum(self.stalls[name].values())
            dom = self.dominant_stall(name)
            lines.append(
                f"  {name}: {total} stalled cycles, mostly "
                f"{dom[1]} on {dom[0]!r} ({dom[2]})")
            chain = self.chain(name)
            if len(chain) > 1:
                lines.append("    chain: " + " <- ".join(chain))
        if len(lines) == 1:
            lines.append("  (no stalls recorded)")
        return "\n".join(lines)


class WindowRecorder(EngineObserver):
    """Records what a window-scheduled run shows its observers, as plain
    values: the observation of :mod:`repro.fpga.bulk` ("Compiled hits")."""

    def __init__(self, channels):
        self.channels, self.windows = channels, []

    def on_window(self, start: int, cycles: int, window) -> None:
        runs = window.occupancy         # a channel outside holds its own
        self.windows.append((
            start, cycles, window.states,
            tuple([(k.index, ch.name, kind, n)
                   for k, ch, kind, n in window.ops]),
            tuple([(ch.name, tuple(runs[ch]) if ch in runs
                    else ((ch.occupancy, cycles),))
                   for ch in self.channels]),
            tuple([(k.index, ch.name, kind)
                   for k, (ch, kind) in window.blocked.items()]),
            window.quiet))

    def observation(self) -> tuple:
        """``(start, cycles, states, ops, occupancy, blocked, quiet)`` per
        window: ops ``(kernel index, channel name, kind, count)``, every
        channel's ``(name, runs)``, the stalled kernels' ``(kernel index,
        channel name, kind)``.  Neighbours that differ only in occupancy
        merge: every cycle of a window repeats the rest."""
        out = []
        for window in self.windows:
            if out and out[-1][2:4] == window[2:4] and (
                    out[-1][5:] == window[5:]):
                t, m, states, ops, before, blocked, quiet = out.pop()
                window = (t, m + window[1], states, ops, tuple([
                    (name, _join(a, b)) for (name, a), (_name, b)
                    in zip(before, window[4])]), blocked, quiet)
            out.append(window)
        return tuple(out)


def _join(a, b):
    """Two run-length tuples, one after the other, as one."""
    if a[-1][0] == b[0][0]:
        return (*a[:-1], (a[-1][0], a[-1][1] + b[0][1]), *b[1:])
    return (*a, *b)


#: Schema tag written in every :class:`JsonlEventDump` header record.
JSONL_EVENTS_SCHEMA = "repro.engine-events/1"


class JsonlEventDump(EngineObserver):
    """Streams run events as JSON lines for offline analysis.

    ``target`` is a path (opened on the first run, closed by
    :meth:`close`) or a file-like object (never closed — the caller owns
    it; it is still flushed).  Kernel states are de-duplicated: a line is
    written only when a kernel's state changes, so the dump stays compact
    even for long runs.

    The first record of every run is a header carrying ``schema`` (see
    :data:`JSONL_EVENTS_SCHEMA`) so consumers can detect format drift.
    Flush/close are deterministic: every run end flushes, and the dump is
    a context manager, so even a run that raises mid-simulation leaves a
    complete file behind::

        with JsonlEventDump("events.jsonl") as dump:
            eng.add_observer(dump)
            eng.run()
    """

    def __init__(self, target):
        self._target = target
        self._f = None
        self._own = False
        self._last: Dict[str, str] = {}
        self._kernels: List[str] = []

    def _write(self, obj) -> None:
        self._f.write(json.dumps(obj) + "\n")

    def on_run_start(self, engine) -> None:
        if self._f is None:
            if hasattr(self._target, "write"):
                self._f = self._target
            else:
                self._f = open(self._target, "w")
                self._own = True
        self._last = {}
        self._kernels = list(engine.kernels)
        self._write({"ev": "start", "schema": JSONL_EVENTS_SCHEMA,
                     "kernels": self._kernels,
                     "channels": list(engine.channels)})

    def on_window(self, start: int, cycles: int, window) -> None:
        if window.quiet:
            self._write({"ev": "quiet", "t": start, "cycles": cycles})
            return
        # As the event core writes them: each cycle's ops, and the kernel
        # states (constant over the window) after the first cycle's ops.
        ops = [(k.name, ch.name, kind, count)
               for k, ch, kind, count in window.ops]
        for t in range(start, start + cycles):
            for kernel, channel, kind, count in ops:
                self._write({"ev": "op", "t": t, "kernel": kernel,
                             "channel": channel, "kind": kind,
                             "count": count})
            if t == start:
                last = self._last
                for name, state in zip(self._kernels, window.states):
                    if last.get(name) != state:
                        last[name] = state
                        self._write({"ev": "kernel", "t": t,
                                     "kernel": name, "state": state})

    def on_run_end(self, report) -> None:
        self._write({"ev": "end", "cycles": report.cycles})
        self._f.flush()

    def close(self) -> None:
        """Flush and (for path targets) close the file.  Idempotent."""
        if self._f is None:
            return
        self._f.flush()
        if self._own:
            self._f.close()
        self._f = None
        self._own = False

    def __enter__(self) -> "JsonlEventDump":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
