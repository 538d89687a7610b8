"""Pluggable engine observers: tracing and profiling as a protocol.

Tracing used to live inline in the engine's cycle loop behind ``if
self.trace`` branches.  Every scheduler (dense, event, window) now
publishes a small event protocol instead, and anything that wants to watch
a run — the classic timeline/occupancy trace, a stall-chain profiler, a
JSONL event dump, ad-hoc debugging hooks — subscribes as an observer:

``on_run_start(engine)`` / ``on_run_end(report)``
    Bracket the run.  ``on_run_end`` fires only on successful completion
    (a deadlocked or truncated run raises out of ``Engine.run``).

``on_cycle(t)``
    An executed cycle, fired after channel maturation and before kernels
    step — channel occupancies are exactly what the dense schedule samples.

``on_kernel_state(t, kernel, state)``
    Per executed cycle, per kernel, the same one-character state the
    dense trace recorded: ``#`` worked, ``s`` stalled, ``z`` sleeping,
    ``-`` done.  Only emitted when the observer sets
    ``wants_kernel_states`` (the schedulers otherwise skip the sweep).

``on_channel_op(t, kernel, channel, kind, count)``
    A successful ``pop``/``push`` of ``count`` elements.

``on_quiet(start, cycles)``
    Event core only: the scheduler proved cycles ``start ..
    start+cycles-1`` cannot change any state (every live kernel blocked
    or sleeping, no maturation due) and skipped them.  Kernel states and
    channel occupancies are constant over the window, so observers can
    synthesize the dense per-cycle record exactly — that is how
    ``TraceObserver`` keeps byte-identical timelines across modes.

``on_window(start, cycles, window)``
    Window scheduler only (``mode="certified"``, and ``mode="bulk"``
    when the design certifies), and **opt-in**: the scheduler replayed
    cycles ``start .. start+cycles-1`` (:mod:`repro.fpga.bulk`) and
    describes them with one :class:`Window` instead of ``cycles`` rounds
    of the three per-cycle hooks — one record per stretch of constant
    state: a superstep, split where a kernel finishes inside it (at its
    last iteration and at the cycle its return takes).  That is exact
    because of what the superstep's own proof holds constant: its
    kernels all work in every cycle of a record (state ``#``, the same
    pops and pushes each time); nothing wakes, blocks or finishes
    outside it, so every other kernel keeps the state it has at
    ``start``; a channel outside is untouched and holds its occupancy;
    and a superstep channel's occupancy is a closed form of its storage
    at ``start``.  The hook is called after the superstep executed.

    The engine takes windows only when *every* attached observer
    defines ``on_window`` — it looks for the method, there is no flag.
    :class:`TraceObserver` and :class:`StallChainProfiler` (and the
    telemetry session's :class:`~repro.telemetry.RunObserver`) define it
    and fold a window into their totals arithmetically, as they do for
    ``on_quiet``.
    :class:`EngineObserver` deliberately does not: a subclass that
    overrides ``on_cycle`` expecting every cycle (``JsonlEventDump``
    writes a line per op) keeps exact per-cycle stepping, at stepping
    speed, without having to know the hook exists — the whole run goes
    to the event scheduler and its ledger record's ``fallback_reason``
    names the observer.  That holds for direct ``EngineObserver``
    subclasses only: a subclass of ``TraceObserver`` or
    ``StallChainProfiler`` inherits ``on_window``, so if it overrides a
    per-cycle hook it must override ``on_window`` as well, or that hook
    sees the stepped cycles only.

    A *warm* watched run (:mod:`repro.fpga.bulk`, "Compiled hits")
    executes no cycle: every record, stepped cycles and quiet jumps
    included, arrives as a window carrying every channel's occupancy and
    ``blocked``, and the live engine holds the run's final state, so an
    observer reads stalls and occupancy from the window, never from a
    kernel or a channel.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

#: Cap on per-kernel timeline samples and per-channel occupancy samples
#: kept by :class:`TraceObserver` (timelines and occupancy sums truncate
#: at the same cycle so the two views of a long run agree).
MAX_TRACE_CYCLES = 100_000


class Window(NamedTuple):
    """One stretch of a replayed superstep, as its observers see it
    (``on_window``).

    ``states``
        ``(kernel, state)`` for every kernel of the engine in
        registration order — the one-character state ``on_kernel_state``
        would have reported in *each* cycle of the window.
    ``ops``
        The ``(kernel, channel, kind, count)`` channel operations every
        cycle of the window repeats, in step order.
    ``occupancy``
        ``{channel: [(occupancy, cycles), ...]}`` for the channels the
        window moves data through: the occupancy ``on_cycle`` would
        have sampled in each cycle, run-length encoded in time order
        (the runs' ``cycles`` add up to the window's).  Every other
        channel holds ``channel.occupancy`` throughout.
    ``blocked``
        ``{kernel: (channel, kind)}`` for the stalled kernels (state
        ``s``): what ``kernel.blocked`` would have said in each cycle.
    """

    states: list
    ops: list
    occupancy: dict
    blocked: dict


def quiet_window(kernels, start: int) -> Window:
    """The :class:`Window` of an ``on_quiet`` jump from ``start``: each
    of ``kernels`` keeps its state and stall, each channel its occupancy."""
    states, blocked = [], {}
    for k in kernels:
        state = "-" if k.done else "z" if k.sleep_until > start else "s"
        states.append((k, state))
        if state == "s" and k.blocked is not None:
            blocked[k] = (k.blocked.channel, k.blocked.kind)
    return Window(states, [], {}, blocked)


class EngineObserver:
    """Base observer: every hook is a no-op; subclass what you need.

    There is no ``on_window`` here on purpose — see the module
    docstring: defining it is how an observer tells the engine it can
    account for a whole window at once.
    """

    #: Set True to receive per-cycle per-kernel ``on_kernel_state`` calls.
    #: The event core only performs the full kernel sweep when some
    #: attached observer asks for it.
    wants_kernel_states = False

    def on_run_start(self, engine) -> None:
        pass

    def on_cycle(self, t: int) -> None:
        pass

    def on_kernel_state(self, t: int, kernel, state: str) -> None:
        pass

    def on_channel_op(self, t: int, kernel, channel, kind: str,
                      count: int) -> None:
        pass

    def on_quiet(self, start: int, cycles: int) -> None:
        pass

    def on_run_end(self, report) -> None:
        pass


class TraceObserver(EngineObserver):
    """The classic ``trace=True`` recording: timelines + occupancy sums.

    Produces exactly the per-kernel state strings and per-channel summed
    occupancies the dense engine used to record inline, in either engine
    mode.  Both are capped at :data:`MAX_TRACE_CYCLES` samples.
    """

    wants_kernel_states = True

    def __init__(self):
        self.occupancy_sums: Dict[str, int] = {}
        self.timelines: Dict[str, List[str]] = {}
        self._engine = None

    def on_run_start(self, engine) -> None:
        self._engine = engine

    def on_cycle(self, t: int) -> None:
        if t >= MAX_TRACE_CYCLES:
            return
        sums = self.occupancy_sums
        for name, ch in self._engine.channels.items():
            sums[name] = sums.get(name, 0) + ch.occupancy

    def on_kernel_state(self, t: int, kernel, state: str) -> None:
        if t < MAX_TRACE_CYCLES:
            self.timelines.setdefault(kernel.name, []).append(state)

    def on_quiet(self, start: int, cycles: int) -> None:
        self._fold(start, cycles, quiet_window(
            self._engine.kernels.values(), start))

    def on_window(self, start: int, cycles: int, window: Window) -> None:
        self._fold(start, cycles, window)

    def _fold(self, start: int, cycles: int, window: Window) -> None:
        n = min(start + cycles, MAX_TRACE_CYCLES) - start
        if n <= 0:
            return
        sums = self.occupancy_sums
        for name, ch in self._engine.channels.items():
            total, left = 0, n          # the first n samples of the runs
            for occ, span in (window.occupancy.get(ch)
                              or ((ch.occupancy, n),)):
                total += occ * min(span, left)
                left -= span
                if left <= 0:
                    break
            sums[name] = sums.get(name, 0) + total
        for k, state in window.states:
            self.timelines.setdefault(k.name, []).extend(state * n)


class StallChainProfiler(EngineObserver):
    """Aggregates who stalls on what and derives backpressure chains.

    For every stalled cycle it records which channel (and direction) the
    kernel was blocked on, using the typed
    :class:`~repro.fpga.kernel.BlockedState`.  Channel endpoints are
    learned from port annotations and from observed ops, so
    :meth:`chain` can walk a stall to its root cause: a kernel blocked
    popping channel ``c`` points at ``c``'s producer; blocked pushing, at
    its consumer.  The walk stops at the first kernel that is not itself
    dominated by stalls — the actual bottleneck.
    """

    wants_kernel_states = True

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

    def _charge(self, kernel, channel, kind: str, cycles: int) -> None:
        key = (channel.name, kind)
        d = self.stalls.setdefault(kernel.name, {})
        d[key] = d.get(key, 0) + cycles

    def on_kernel_state(self, t: int, kernel, state: str) -> None:
        b = kernel.blocked
        if state == "s" and b is not None:
            self._charge(kernel, b.channel, b.kind, 1)

    def on_quiet(self, start: int, cycles: int) -> None:
        for k, (ch, kind) in quiet_window(self._engine.kernels.values(),
                                          start).blocked.items():
            self._charge(k, ch, kind, cycles)

    def on_channel_op(self, t: int, kernel, channel, kind: str,
                      count: int) -> None:
        side = self.producers if kind == "push" else self.consumers
        names = side.get(channel.name)
        if names is None:
            side[channel.name] = {kernel.name}
        else:
            names.add(kernel.name)

    def on_window(self, start: int, cycles: int, window: Window) -> None:
        for k, (ch, kind) in window.blocked.items():
            self._charge(k, ch, kind, cycles)
        for k, ch, kind, count in window.ops:
            self.on_channel_op(start, k, ch, kind, count)

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
    values: the observation of :mod:`repro.fpga.bulk` ("Compiled hits"),
    one window per ``on_window`` record, stepped cycle or quiet jump."""

    wants_kernel_states = True

    def __init__(self, kernels, channels):
        self.kernels, self.channels, self.windows = kernels, channels, []

    def on_cycle(self, t: int) -> None:
        self.windows.append([t, 1, "", [], self._occupancy({}, 1), []])

    def on_channel_op(self, t, kernel, channel, kind, count) -> None:
        self.windows[-1][3].append((kernel.index, channel.name, kind, count))

    def on_kernel_state(self, t, kernel, state) -> None:
        window = self.windows[-1]
        window[2] += state
        b = kernel.blocked
        if state == "s" and b is not None:
            window[5].append((kernel.index, b.channel.name, b.kind))

    def on_quiet(self, start: int, cycles: int) -> None:
        self.on_window(start, cycles, quiet_window(self.kernels, start))

    def on_window(self, start: int, cycles: int, window: Window) -> None:
        # Called after the superstep, which left channels outside alone.
        self.windows.append([
            start, cycles, "".join([s for _k, s in window.states]),
            [(k.index, ch.name, kind, n) for k, ch, kind, n in window.ops],
            self._occupancy(window.occupancy, cycles),
            [(k.index, ch.name, kind)
             for k, (ch, kind) in window.blocked.items()]])

    def _occupancy(self, runs, cycles):
        """Every channel's runs: from ``runs``, or its occupancy now."""
        return tuple([(ch.name, tuple(runs[ch]) if ch in runs
                       else ((ch.occupancy, cycles),))
                      for ch in self.channels])

    def observation(self) -> tuple:
        """``(start, cycles, states, ops, occupancy, blocked)`` per window:
        one state character per kernel, ops ``(kernel index, channel
        name, kind, count)``, every channel's ``(name, runs)``, the stalled
        kernels' ``(kernel index, channel name, kind)``.  Neighbours that
        differ only in occupancy merge: every cycle of a window repeats
        its ops."""
        out = []
        for t, n, states, ops, occupancy, blocked in self.windows:
            ops, blocked = tuple(ops), tuple(blocked)
            if out and out[-1][2:4] == (states, ops) and out[-1][5] == blocked:
                t, m, _states, _ops, before, _blocked = out.pop()
                n, occupancy = m + n, tuple([
                    (name, _join(a, b))
                    for (name, a), (_name, b) in zip(before, occupancy)])
            out.append((t, n, states, ops, occupancy, blocked))
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

    wants_kernel_states = True

    def __init__(self, target):
        self._target = target
        self._f = None
        self._own = False
        self._last: Dict[str, str] = {}

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
        self._write({"ev": "start", "schema": JSONL_EVENTS_SCHEMA,
                     "kernels": list(engine.kernels),
                     "channels": list(engine.channels)})

    def on_kernel_state(self, t: int, kernel, state: str) -> None:
        if self._last.get(kernel.name) != state:
            self._last[kernel.name] = state
            self._write({"ev": "kernel", "t": t,
                         "kernel": kernel.name, "state": state})

    def on_channel_op(self, t: int, kernel, channel, kind: str,
                      count: int) -> None:
        self._write({"ev": "op", "t": t, "kernel": kernel.name,
                     "channel": channel.name, "kind": kind, "count": count})

    def on_quiet(self, start: int, cycles: int) -> None:
        self._write({"ev": "quiet", "t": start, "cycles": cycles})

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
