"""Bounded FIFO channels — the on-chip communication primitive.

HLS tools expose typed, bounded, single-producer/single-consumer queues
(Intel OpenCL *channels*, Xilinx *streams*).  FBLAS modules communicate
exclusively through them.  This module models a channel at cycle
granularity:

* bounded capacity (``depth``) — a full channel back-pressures its producer;
* *staged* writes — a value pushed at cycle ``t`` by a pipeline with latency
  ``L`` becomes visible to the consumer at cycle ``t + L``, which is how the
  simulator reproduces pipeline latency without simulating every register.
  In-flight values live in the producer's pipeline registers, not in the
  FIFO, so a push of ``k`` values with latency ``L`` is granted ``k * L``
  slots of *headroom* beyond the FIFO depth (a W-lane pipeline of depth L
  physically holds up to W*L results).  Matured values enter the FIFO only
  while it has space; the overflow waits staged, stalling the pipeline —
  the backpressure behaviour of a full HLS channel;
* occupancy statistics used by the MDAG analysis and tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ChannelError

__all__ = ["Channel", "ChannelError", "ChannelStats", "DEFAULT_CHANNEL_DEPTH"]

#: Default FIFO capacity used everywhere a depth is not given explicitly —
#: the engine's :meth:`~repro.fpga.engine.Engine.channel`, MDAG edges, and
#: the HLS-style helper kernels all share this single constant.
DEFAULT_CHANNEL_DEPTH = 64


@dataclass
class ChannelStats:
    """Lifetime counters for a channel, for I/O accounting and tests."""

    pushes: int = 0
    pops: int = 0
    max_occupancy: int = 0
    stalled_push_cycles: int = 0
    stalled_pop_cycles: int = 0


class Channel:
    """A bounded FIFO with latency staging.

    Parameters
    ----------
    name:
        Identifier used in reports and deadlock diagnostics.
    depth:
        Maximum number of elements the FIFO holds.  Staged (in-flight)
        elements count against the capacity, as they occupy skid-buffer
        space in a real design.
    """

    def __init__(self, name: str, depth: int = DEFAULT_CHANNEL_DEPTH):
        if depth < 1:
            raise ValueError(f"channel {name!r}: depth must be >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._fifo: deque = deque()
        # Staged (in-flight) values in arrival order, one
        # ``(ready_cycle, values)`` entry per push — a burst, not an
        # element — then the block runs (below); ``_nstaged`` counts the
        # elements of both.
        self._staged: deque = deque()
        self._nstaged = 0
        self.stats = ChannelStats()
        # Event sink (the running scheduler) bound for the duration of a
        # run; None outside one, making every hook a no-op.
        self.events = None
        # Kernels blocked on this channel, registered by the scheduler:
        # pop waiters wake when data matures into the FIFO (on_data), push
        # waiters when a pop frees space (on_space).  Maturation moves
        # values from staging into the FIFO without changing their sum, so
        # it can never unblock a push.
        self._pop_waiters: list = []
        self._push_waiters: list = []
        # Cycle of the currently scheduled maturation event, for dedup.
        self._mature_at = None
        # Block runs staged by push_block (a replay window), behind the
        # staged bursts in stream order: entries [first_ready, lanes,
        # values, consumed_offset].  They outlive the window that pushed
        # them; a burst staged while any is left joins them as a
        # one-group run, so stream order holds.  Always empty in the
        # event and dense tiers.
        self._runs: list = []
        # Fault-injection hook (repro.faults.FaultInjector) intercepting
        # pushes; None outside an injected run, making push() fault-free.
        self.fault_hook = None

    def bind_events(self, sink) -> None:
        """Attach an event sink receiving on_staged/on_space/on_data.

        The sink must provide ``on_staged(channel, ready_cycle)`` (a push
        staged new values), ``on_space(channel)`` (a pop freed FIFO space)
        and ``on_data(channel)`` (maturation made values visible).  Pass
        ``None`` to detach.
        """
        self.events = sink

    # -- capacity ---------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Elements currently visible to the consumer."""
        return len(self._fifo)

    @property
    def in_flight(self) -> int:
        """Elements pushed but not yet visible (pipeline latency)."""
        return self._nstaged

    def space(self, headroom: int = 0) -> int:
        """Free slots a producer may still push into.

        ``headroom`` is the extra capacity contributed by the producer's
        own pipeline registers (latency x lanes for the push at hand).
        """
        return self.depth + headroom - len(self._fifo) - self._nstaged

    def can_push(self, count: int = 1, headroom: int = 0) -> bool:
        return self.space(headroom) >= count

    def can_pop(self, count: int = 1) -> bool:
        return len(self._fifo) >= count

    # -- data movement ----------------------------------------------------
    def push(self, values, ready_cycle: int, headroom: int = 0) -> None:
        """Stage ``values`` to become visible at ``ready_cycle``."""
        if self.fault_hook is not None:
            n0 = len(values)
            values = self.fault_hook.on_push(self, values)
            # A duplicated element may not fit the space the producer
            # proved before pushing; grant it skid-buffer headroom so the
            # fault perturbs the data stream, not the flow control.
            headroom += max(0, len(values) - n0)
        if not self.can_push(len(values), headroom):
            raise ChannelError(
                f"push of {len(values)} to full channel {self.name!r} "
                f"(occupancy={self.occupancy}, in_flight={self.in_flight}, "
                f"depth={self.depth})"
            )
        if self.stage(values, ready_cycle) and self.events is not None:
            self.events.on_staged(self, ready_cycle)

    def stage(self, values, ready_cycle: int) -> int:
        """Stage ``values`` as one burst without a capacity check; return
        how many there were.  For a caller that has just proven the room
        itself (the op interpreter, when no fault hook is attached); fires
        no event."""
        n = len(values)
        if n:
            if type(values) is not tuple:
                values = tuple(values)     # the caller may reuse its list
            if self._runs:
                self._runs.append([ready_cycle, n, values, 0])
            else:
                self._staged.append((ready_cycle, values))
            self._nstaged += n
            self.stats.pushes += n
        return n

    def pop(self, count: int = 1) -> list:
        """Remove and return ``count`` visible elements."""
        fifo = self._fifo
        if len(fifo) < count:
            raise ChannelError(
                f"pop of {count} from channel {self.name!r} with only "
                f"{self.occupancy} visible elements"
            )
        if count == 1:
            out = [fifo.popleft()]
        else:
            # Bulk drain: one islice copy instead of count popleft round
            # trips when the pop empties the FIFO.
            out = list(islice(fifo, count))
            if count == len(fifo):
                fifo.clear()
            else:
                for _ in range(count):
                    fifo.popleft()
        self.stats.pops += count
        if self.events is not None:
            self.events.on_space(self)
        return out

    def peek(self):
        """Return the head element without removing it."""
        if not self._fifo:
            raise ChannelError(f"peek on empty channel {self.name!r}")
        return self._fifo[0]

    # -- block transfers (replay windows) -----------------------------------
    #
    # A replay window moves values as ndarray *runs* instead of per-push
    # staged bursts, and no capacity checks or events fire: the scheduler
    # has already proven (``repro.fpga.bulk._walk``) that every pop of
    # the window finds matured data and every push finds room.  Runs
    # count as staged (``in_flight``, ``space``), mature like staged
    # bursts, and stay runs after the window: :meth:`end_window` only
    # moves what is due into the FIFO, so nothing is ever re-boxed per
    # burst.

    def push_block(self, values, lanes: int, first_ready: int) -> None:
        """Stage ``K * lanes`` values pushed over K consecutive cycles.

        Group ``j`` of ``lanes`` values becomes visible at
        ``first_ready + j`` — the same ready ramp K individual pushes at
        cycles ``t .. t+K-1`` with a fixed latency would have produced.
        """
        arr = values if isinstance(values, np.ndarray) else np.asarray(values)
        self._runs.append([first_ready, lanes, arr, 0])
        self._nstaged += len(arr)
        self.stats.pushes += len(arr)

    def block_cuts(self, lanes: int, iterations: int, cuts: set) -> None:
        """Add to ``cuts`` the iteration indices at which a consumer
        popping ``lanes`` per iteration enters or leaves a block run of
        more than one group.

        The stream is stored in pieces — the boxed FIFO/staged tokens,
        then each run.  A consumer that replays its window in sub-blocks
        split at these indices (``block(k1)`` then ``block(k2)`` is
        ``block(k1 + k2)`` by the pattern contract) receives every such
        run as a *view*; what is concatenated is the boxed head, the
        one-group runs a stepped cycle left, and the single
        iteration that straddles a boundary.
        """
        total = iterations * lanes
        runs = self._runs
        left = [len(run[2]) - run[3] for run in runs]
        edge = len(self._fifo) + self._nstaged - sum(left)
        big = False
        for run, n in zip(runs, left):
            was, big = big, n > run[1]
            if edge >= total:
                break
            if edge and (was or big):
                cuts.add(edge // lanes)
                if edge % lanes:
                    cuts.add(edge // lanes + 1)
            edge += n
        if big and edge < total:
            cuts.add(edge // lanes)
            if edge % lanes:
                cuts.add(edge // lanes + 1)

    def pop_block(self, count: int, dtype=None) -> np.ndarray:
        """Drain ``count`` elements, in arrival order, as one ndarray.

        Sources are consumed in stream order: visible FIFO first, then
        staged values, then block runs.  Legality (the window delivers
        exactly these elements to the consumer, in this order) is the
        scheduler's proof obligation, not checked here.  A request
        served by a single run is returned as a view of it.
        """
        need = count
        boxed = []
        fifo = self._fifo
        if fifo and need:
            take = min(need, len(fifo))
            boxed.extend(islice(fifo, take))
            rest = list(islice(fifo, take, None)) if take < len(fifo) else ()
            fifo.clear()
            fifo.extend(rest)
            need -= take
        if self._staged and need:
            need -= self._unstage(need, boxed.extend, runs=False)
        parts = []
        if boxed:
            parts.append(np.asarray(boxed, dtype=dtype))
        runs = self._runs
        while need:
            if not runs:
                raise ChannelError(
                    f"pop_block of {count} from channel {self.name!r} "
                    f"exceeds the window's supply by {need}")
            run = runs[0]
            arr, off = run[2], run[3]
            take = min(need, len(arr) - off)
            piece = arr[off:off + take]
            # A burst staged behind the runs is still a tuple.
            parts.append(np.asarray(piece, dtype=dtype)
                         if type(piece) is tuple else piece)
            run[3] = off + take
            self._nstaged -= take
            need -= take
            if run[3] == len(arr):
                runs.pop(0)
        self.stats.pops += count
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return out.astype(dtype, copy=False) if dtype is not None else out

    def end_window(self, cycle: int, popped: int = 0) -> None:
        """Mature what a replay window left due.

        Values due by ``cycle`` (the window's last executed cycle) enter
        the FIFO as maturation would have — in ready order, capped at
        ``depth`` — and the rest stay staged (runs stay runs), so the
        channel leaves the window indistinguishable from one stepped
        cycle by cycle.  ``popped`` is what the consumer took in that
        last cycle: its pop ran *after* the cycle's maturation, so a
        backlog the full FIFO held back stays staged until the next
        cycle instead of refilling the slots the pop just freed.
        """
        fifo = self._fifo
        self._unstage(self.depth - popped - len(fifo), fifo.extend, cycle)
        # What is left is a tail of a window's block: keep a copy of it,
        # whole groups from the first unread one, so it neither pins the
        # block nor reads a buffer a later store overwrites.
        for run in self._runs:
            first, lanes, arr, off = run
            if type(arr) is not tuple:
                g = off // lanes
                run[:] = first + g, lanes, arr[g * lanes:].copy(), off % lanes

    def head_ready(self):
        """Ready cycle of the oldest staged element (None if none)."""
        if self._staged:
            return self._staged[0][0]
        if self._runs:
            first, lanes, _arr, off = self._runs[0]
            return first + off // lanes
        return None

    def _unstage(self, limit: int, sink, cycle=None, runs=True) -> int:
        """Hand up to ``limit`` staged elements, oldest first, to ``sink``
        (a list or deque ``extend``); with ``cycle``, only those ready by
        then — head of line, as maturation goes: a burst not yet ready
        holds back every burst behind it.  ``runs=False`` stops at the
        block runs.  Returns how many moved."""
        staged = self._staged
        moved = 0
        while staged and moved < limit:
            ready, vals = staged[0]
            if cycle is not None and ready > cycle:
                break
            n = len(vals)
            if moved + n <= limit:
                staged.popleft()
                sink(vals)
                moved += n
            else:
                n = limit - moved
                sink(vals[:n])
                staged[0] = (ready, vals[n:])
                moved = limit
        if runs and self._runs and not staged:
            runs = self._runs
            while runs and moved < limit:
                run = runs[0]
                first, lanes, arr, off = run
                end = len(arr)
                due = end if cycle is None else min(
                    end, (cycle - first + 1) * lanes)
                take = min(due - off, limit - moved)
                if take <= 0:
                    break
                sink(arr[off:off + take])
                run[3] = off + take
                moved += take
                if off + take < end:
                    break
                runs.pop(0)
        self._nstaged -= moved
        return moved

    # -- simulation hooks ---------------------------------------------------
    def mature(self, cycle: int) -> int:
        """Move due staged values into the FIFO, as far as space allows.

        Called by the engine at the start of every cycle.  Returns the
        number of values that became visible.  Values whose ready time has
        passed but that find the FIFO full stay staged (the producer's
        pipeline is stalled by backpressure) and enter on a later cycle.
        """
        fifo = self._fifo
        moved = (self._unstage(self.depth - len(fifo), fifo.extend, cycle)
                 if self._staged or self._runs else 0)
        occ = len(fifo)
        if occ > self.stats.max_occupancy:
            self.stats.max_occupancy = occ
        if moved and self.events is not None:
            self.events.on_data(self)
        return moved

    def can_mature_later(self) -> bool:
        """True if a staged value could still enter the FIFO unaided.

        Used by deadlock detection: staged values destined for a full FIFO
        cannot make progress unless some kernel pops first.
        """
        return (bool(self._staged or self._runs)
                and len(self._fifo) < self.depth)

    @property
    def drained(self) -> bool:
        """True when no data remains visible or in flight."""
        return not (self._fifo or self._staged or self._runs)

    def __len__(self) -> int:
        return len(self._fifo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name!r}, depth={self.depth}, "
            f"occ={self.occupancy}, in_flight={self.in_flight})"
        )
