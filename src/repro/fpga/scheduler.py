"""The op interpreter and the schedulers that drive it.

:meth:`WakeListScheduler._step` is the one definition of what a kernel
does in a cycle: it resumes the generator and performs its ``Pop`` /
``Push`` / ``Clock`` ops against the channels' capacity rules until the
kernel ends its cycle or blocks.  Schedulers differ only in which
kernels they step on which cycles.  :class:`DenseScheduler`
(``mode="dense"``) steps every kernel every cycle.
:class:`WakeListScheduler` (``mode="event"``) only touches kernels that
can act:

* a kernel that ends its cycle with ``Clock()`` is queued for the next
  cycle; ``Clock(n)`` parks it on the event heap until ``t + n``;
* a kernel blocked on ``Pop`` registers as a *pop waiter* on the
  channel and is woken when maturation makes data visible
  (``on_data``); blocked on ``Push`` it registers as a *push waiter*
  and is woken when a pop frees space (``on_space``).  Maturation moves
  values from staging into the FIFO without changing their sum, so only
  pops can unblock a push — the waiter lists encode exactly the state
  transitions that can matter;
* staged values become heap events at their ready cycle (``on_staged``),
  deduplicated per channel; a pop under an overdue backlog re-arms the
  maturation event for the next cycle.

When no kernel is queued for the current cycle, ``now`` jumps straight
to the earliest heap event — the cycle count, per-kernel stall charges,
channel statistics and :class:`~repro.fpga.errors.DeadlockError`
semantics stay identical to the dense schedule (the differential tests
in ``tests/test_engine_differential.py`` compare the schedules), only
wall-clock time shrinks.  Deadlock detection becomes simpler here: an
executed cycle that makes no progress with nothing on the heap — or an
empty wake list with live kernels — *is* the deadlock; there is no need
to re-poll every kernel to discover that nothing can run.

Stall accounting is lazy.  The dense schedule charges a blocked kernel
one stall per cycle by re-stepping it; this scheduler charges the backlog
``wake - since - 1`` when the kernel wakes (the retry itself charges
the wake cycle if it fails again) and ``deadlock_cycle - since`` when a
deadlock is declared, where ``since`` is the last charged cycle kept in
the kernel's typed :class:`~repro.fpga.kernel.BlockedState`.

Within an executed cycle the dense step order is preserved: kernels
step in registration order, and a kernel woken mid-cycle by a
lower-index kernel's pop joins *this* cycle only if its own index is
still ahead of the stepping cursor — otherwise it waits for the next
cycle, exactly when the dense schedule would have retried it.

:class:`~repro.fpga.bulk.WindowScheduler` (``"certified"`` /
``"bulk"``) subclasses this scheduler and replays whole windows of a
certified design as arithmetic supersteps; the wake lists step the
cycles between its windows, and the whole of a ``"bulk"`` run that has
no certificate.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import attrgetter
from typing import List, Optional

from .channel import Channel
from .errors import MAX_OPS_PER_CYCLE, SimulationError
from .kernel import BlockedState, Clock, Kernel, Pop, Push
from .observers import Window, quiet_window, stalled

_KIDX = attrgetter("index")

_MATURE = 0
_WAKE = 1


class WakeListScheduler:
    """Drives one :class:`~repro.fpga.engine.Engine` run in event mode."""

    def __init__(self, engine, max_cycles: Optional[int]):
        self.engine = engine
        self.max_cycles = max_cycles
        self.kernels: List[Kernel] = list(engine.kernels.values())
        self.channels: List[Channel] = list(engine.channels.values())
        self.now = 0
        self._heap: list = []            # (cycle, seq, tag, Channel|Kernel)
        self._seq = 0
        self._current: List[Kernel] = []  # kernels stepping this cycle
        self._next: List[Kernel] = []     # kernels queued for now + 1
        self._step_idx = -1               # index of the kernel stepping now
        self._progressed = False
        self._live = 0
        self._stepped = 0                 # cycles executed, not jumped
        self._observers = list(engine._observers)
        # The executed cycle's ops, in step order (None: unwatched).
        self._ops: Optional[list] = [] if self._observers else None

    # -- channel event sink (bound via Channel.bind_events) -----------------
    def on_staged(self, ch: Channel, ready_cycle: int) -> None:
        t = ready_cycle if ready_cycle > self.now else self.now + 1
        self._schedule_mature(ch, t)

    def on_space(self, ch: Channel) -> None:
        for k in ch._push_waiters:
            self._wake(k)
        if ch._staged or ch._runs:
            # head_ready(), without the call on the event tier's path
            nm = ch._staged[0][0] if ch._staged else ch.head_ready()
            self._schedule_mature(ch, nm if nm > self.now else self.now + 1)

    def on_data(self, ch: Channel) -> None:
        for k in ch._pop_waiters:
            self._wake(k)

    def _schedule_mature(self, ch: Channel, t: int) -> None:
        at = ch._mature_at
        if at is None or t < at:
            ch._mature_at = t
            self._seq += 1
            heapq.heappush(self._heap, (t, self._seq, _MATURE, ch))

    def _wake(self, k: Kernel) -> None:
        if k.done or k._queued_for is not None:
            return
        if k._last_stepped != self.now and k.index > self._step_idx:
            k._queued_for = self.now
            insort(self._current, k, key=_KIDX)
        else:
            k._queued_for = self.now + 1
            self._next.append(k)

    # -- run ----------------------------------------------------------------
    def run(self):
        eng = self.engine
        observers = self._observers
        if self.max_cycles is None:
            self.max_cycles = eng.cycle_budget()
        if eng._watch_window is None:
            eng._watch_window = eng.livelock_budget()
        self.now = eng.now
        for i, k in enumerate(self.kernels):
            k._queued_for = self.now if not k.done else None
            k._last_stepped = -1
            k._last_progress = False
        self._current = [k for k in self.kernels if not k.done]
        self._live = len(self._current)
        for ch in self.channels:
            ch.bind_events(self)
            ch._mature_at = None
            ch._pop_waiters.clear()
            ch._push_waiters.clear()
            if ch._staged or ch._runs:
                nm = ch.head_ready()
                self._schedule_mature(ch, nm if nm > self.now else self.now)
        w = eng._watch_window
        try:
            for o in observers:
                o.on_run_start(eng)
            while True:
                if self._live == 0:
                    eng.now = self.now
                    report = eng._build_report()
                    for o in observers:
                        o.on_run_end(report)
                    return report
                if self.now >= self.max_cycles:
                    self._raise_hang("timeout", self.now,
                                     budget=self.max_cycles)
                if not self._current:
                    t_next = self._next_event_time()
                    if t_next is None:
                        self._deadlock_idle()
                    elif t_next > self.now:
                        # Dense would grind through these cycles finding
                        # nothing runnable; skip straight to the event —
                        # unless the livelock deadline falls inside the
                        # jump, in which case dense would have tripped
                        # there.
                        trip = max(eng._last_op_cycle + w, self.now)
                        if w and t_next > trip:
                            self._check_livelock(trip)
                        target = min(t_next, self.max_cycles)
                        if observers:
                            window = quiet_window(self.kernels, self.now)
                            for o in observers:
                                o.on_window(self.now, target - self.now,
                                            window)
                        self.now = target
                        if target >= self.max_cycles:
                            continue     # hits the max_cycles check above
                # The watchdog, before anything of this cycle executes.
                if w and self.now >= eng._last_op_cycle + w:
                    self._check_livelock(self.now)
                self._run_cycle()
        finally:
            eng.now = self.now
            eng._bulk_stepped = self._stepped    # read by bulk_stats()
            for ch in self.channels:
                ch.bind_events(None)

    def _next_event_time(self) -> Optional[int]:
        """Earliest *viable* event, or None (= the dense deadlock verdict).

        Only called when no kernel is queued, so channel state is frozen
        until the next event: a maturation aimed at a full FIFO cannot
        move anything (``can_mature_later`` is False in dense terms) and
        must not count as reachable work — only a pop could free space,
        and pops need a runnable kernel.  Kernel wakes are always viable.
        """
        heap = self._heap
        # Prune stale entries off the top so the heap cannot grow
        # unboundedly with superseded events.
        while heap:
            t, _seq, tag, obj = heap[0]
            if tag == _MATURE:
                if obj._mature_at == t:
                    break
            elif obj._queued_for == t and not obj.done:
                break
            heapq.heappop(heap)
        best = None
        for t, _seq, tag, obj in heap:
            if best is not None and t >= best:
                continue
            if tag == _MATURE:
                if obj._mature_at != t or len(obj._fifo) >= obj.depth:
                    continue
            elif obj._queued_for != t or obj.done:
                continue
            best = t
        return best

    def _check_livelock(self, t: int) -> None:
        """Raise the livelock hang at ``t``, a cycle :meth:`run` found at
        or past the watchdog deadline, unless a live kernel sleeps
        through it (a busy spinner never sets ``sleep_until``)."""
        for k in self.kernels:
            if not k.done and k.sleep_until >= t:
                return
        self.now = t
        self._raise_hang("livelock", t, budget=self.engine._watch_window)

    def _run_cycle(self) -> None:
        t = self.now
        eng = self.engine
        self._stepped += 1
        heap = self._heap
        self._progressed = False
        self._step_idx = -1
        # Phase 0: due events — maturations wake pop waiters into this
        # cycle; expired Clock(n) sleeps rejoin the step list.
        while heap and heap[0][0] <= t:
            _t0, _seq, tag, obj = heapq.heappop(heap)
            if tag == _MATURE:
                if obj._mature_at != _t0:
                    continue             # superseded by an earlier event
                obj._mature_at = None
                if obj.mature(t):        # fires on_data -> _wake
                    self._progressed = True
                    eng._last_op_cycle = t
                if (obj._staged or obj._runs) and len(obj._fifo) < obj.depth:
                    nm = (obj._staged[0][0] if obj._staged
                          else obj.head_ready())
                    self._schedule_mature(obj, nm if nm > t else t + 1)
            else:
                if obj._queued_for == _t0 and not obj.done:
                    insort(self._current, obj, key=_KIDX)
        occupancy = self._sample() if self._observers else None
        if self.engine.memory is not None:
            self.engine.memory.begin_cycle(t)
        # Phase 1: step queued kernels in registration order.  Kernels
        # woken mid-cycle land in _current past the cursor (their index
        # exceeds the stepping kernel's) or in _next.
        cur = self._current
        i = 0
        while i < len(cur):
            k = cur[i]
            i += 1
            self._step_idx = k.index
            k._queued_for = None
            k._last_stepped = t
            b = k.blocked
            if b is not None:
                # Lazily charge the cycles dense would have spent
                # re-stepping this blocked kernel (the retry below
                # charges cycle t itself if it fails again).
                lag = t - b.since - 1
                if lag > 0:
                    k.stats.stall_cycles += lag
                    if b.kind == "pop":
                        b.channel.stats.stalled_pop_cycles += lag
                    else:
                        b.channel.stats.stalled_push_cycles += lag
                    b.since = t - 1
            progressed = self._step(k, t)
            k._last_progress = progressed
            if progressed:
                self._progressed = True
        self._step_idx = -1
        # Phase 2: the cycle's window (exactly the dense per-cycle record).
        if occupancy is not None:
            self._show_cycle(t, occupancy, "".join([
                ("#" if k._last_progress else "s") if k._last_stepped == t
                else "-" if k.done else "z" if k.sleep_until > t else "s"
                for k in self.kernels]))
        # Phase 3: deadlock detection, same condition as the dense schedule.
        if not self._progressed and self._live:
            sleepers = any(not k.done and k.sleep_until > t
                           for k in self.kernels)
            if not sleepers and not any(ch.can_mature_later()
                                        for ch in self.channels):
                self._raise_deadlock(t)
        # Phase 4: next cycle's step list.
        nxt = self._next
        nxt.sort(key=_KIDX)
        self._current, self._next = nxt, cur
        cur.clear()
        self.now = self.engine.now = t + 1

    def _deadlock_idle(self) -> None:
        """Empty wake list with live kernels: dense would execute one more
        cycle in which every remaining kernel fails its retry."""
        t = self.now
        if self._observers:
            self._show_cycle(t, self._sample(), "".join([
                "-" if k.done else "s" for k in self.kernels]))
        self._raise_deadlock(t)

    def _sample(self) -> dict:
        """Every channel's occupancy in the cycle about to step (after its
        maturations), as one-cycle runs; starts the cycle's op list."""
        self._ops = []
        return {ch: ((len(ch._fifo), 1),) for ch in self.channels}

    def _show_cycle(self, t: int, occupancy: dict, states: str) -> None:
        """Show the observers executed cycle ``t`` as a one-cycle
        :class:`Window` of the kernels' ``states`` after the sweep."""
        window = Window(states, self._ops, occupancy,
                        stalled(self.kernels, states))
        for o in self._observers:
            o.on_window(t, 1, window)

    def _charge_stalls(self, t: int) -> None:
        """Bring lazy stall charges up to date through cycle ``t``
        (inclusive) — dense re-steps every blocked kernel every cycle,
        so its counters are always current; this settles the difference
        before a report is built."""
        for k in self.kernels:
            if k.done:
                continue
            b = k.blocked
            if b is not None:
                lag = t - b.since
                if lag > 0:
                    k.stats.stall_cycles += lag
                    if b.kind == "pop":
                        b.channel.stats.stalled_pop_cycles += lag
                    else:
                        b.channel.stats.stalled_push_cycles += lag
                    b.since = t

    def _raise_deadlock(self, t: int) -> None:
        # The deadlock cycle itself is charged: dense executed every
        # kernel's failing retry at cycle t.
        self._charge_stalls(t)
        self.engine.now = t
        raise self.engine._make_hang("deadlock", t)

    def _raise_hang(self, kind: str, t: int, budget: int = 0) -> None:
        """Raise a livelock/timeout hang at cycle ``t``.

        Unlike a deadlock, cycle ``t`` itself was *not* executed (every
        schedule checks its watchdog before stepping anything), so
        stalls are settled only through ``t - 1`` — exactly what dense
        charged.
        """
        self._charge_stalls(t - 1)
        self.engine.now = t
        raise self.engine._make_hang(kind, t, budget=budget)

    def _unblock(self, k: Kernel) -> None:
        b = k.blocked
        k.blocked = None
        waiters = (b.channel._pop_waiters if b.kind == "pop"
                   else b.channel._push_waiters)
        try:
            waiters.remove(k)
        except ValueError:              # pragma: no cover - defensive
            pass

    def _step(self, k: Kernel, t: int) -> bool:
        """Resume ``k`` for cycle ``t`` and interpret its ops until it
        ends the cycle or blocks; return True if it progressed.  The
        only op interpreter: every schedule steps kernels through it."""
        stats = k.stats
        if stats.start_cycle is None:
            stats.start_cycle = t
        log = self._ops
        progressed = False
        ops = 0
        b = k.blocked
        op = b.op if b is not None else None
        while True:
            if ops > MAX_OPS_PER_CYCLE:
                raise SimulationError(
                    f"kernel {k.name!r} performed more than "
                    f"{MAX_OPS_PER_CYCLE} ops in one cycle; missing Clock()?"
                )
            if op is None:
                try:
                    op = k._send(k._resume_value)
                except StopIteration:
                    k.done = True
                    stats.finish_cycle = t
                    self._live -= 1
                    self.engine._last_op_cycle = t
                    return True
                k._resume_value = None

            kind = type(op)
            if kind is Pop:
                ch = op.channel
                n = op.count
                if n > ch.depth:
                    raise SimulationError(
                        f"kernel {k.name!r} pops {n} per cycle from "
                        f"channel {ch.name!r} of depth "
                        f"{ch.depth}; a channel must be at least "
                        "as deep as its consumer's width")
                if len(ch._fifo) >= n:
                    vals = ch.pop(n)          # fires on_space
                    k._resume_value = vals[0] if n == 1 else vals
                    self.engine._last_op_cycle = t
                    if k.blocked is not None:
                        self._unblock(k)
                    if log is not None:
                        log.append((k, ch, "pop", n))
                    progressed = True
                    ops += 1
                    op = None
                    continue
                if k.blocked is None:
                    k.blocked = BlockedState(op, ch, "pop", t)
                    ch._pop_waiters.append(k)
                else:
                    k.blocked.since = t
                stats.stall_cycles += 1
                ch.stats.stalled_pop_cycles += 1
                return progressed
            if kind is Push:
                ch = op.channel
                values = op.values
                n = len(values)
                lat = op.latency if op.latency is not None else k.latency
                # The one capacity check: the producer's pipeline holds
                # lat * n values beyond the FIFO depth.
                headroom = lat * n
                if ch.depth + headroom - len(ch._fifo) - ch._nstaged >= n:
                    if ch.fault_hook is not None:
                        ch.push(values, t + lat, headroom)   # fires on_staged
                    elif ch.stage(values, t + lat):
                        # on_staged's clamp: a latency-0 push is seen
                        # no earlier than the next cycle.
                        self._schedule_mature(ch, t + lat if lat > 0
                                              else t + 1)
                    self.engine._last_op_cycle = t
                    if k.blocked is not None:
                        self._unblock(k)
                    if log is not None:
                        log.append((k, ch, "push", n))
                    progressed = True
                    ops += 1
                    op = None
                    continue
                if k.blocked is None:
                    k.blocked = BlockedState(op, ch, "push", t)
                    ch._push_waiters.append(k)
                else:
                    k.blocked.since = t
                stats.stall_cycles += 1
                ch.stats.stalled_push_cycles += 1
                return progressed
            if kind is Clock:
                stats.active_cycles += 1
                cycles = op.cycles
                if cycles > 1:
                    k.sleep_until = t + cycles
                    k._queued_for = t + cycles
                    self._seq += 1
                    heapq.heappush(self._heap,
                                   (t + cycles, self._seq, _WAKE, k))
                else:
                    k._queued_for = t + 1
                    self._next.append(k)
                return True
            raise SimulationError(
                f"kernel {k.name!r} yielded unknown op {op!r}"
            )


class DenseScheduler(WakeListScheduler):
    """The reference schedule (``Engine(mode="dense")``): every live,
    awake kernel steps every cycle, and its state is reported right
    after.  No jumps (``_current`` keeps its initial list, so
    :meth:`run` never looks for an idle stretch), no lazy stall charges,
    and no wakes (``_queued_for`` never returns to None)."""

    def _run_cycle(self) -> None:
        t = self.now
        eng = self.engine
        self._stepped += 1
        # What _step queues for the wake lists; nothing here reads it.
        self._next.clear()
        self._heap.clear()
        progressed = False
        for ch in self.channels:
            if ch.mature(t):
                progressed = True
                eng._last_op_cycle = t
        occupancy = self._sample() if self._observers else None
        if eng.memory is not None:
            eng.memory.begin_cycle(t)
        sleepers = False
        states = []
        for k in self.kernels:
            if k.done:
                state = "-"
            elif k.sleep_until > t:
                sleepers = True
                state = "z"
            elif self._step(k, t):
                progressed = True
                state = "#"
            else:
                state = "s"
            states.append(state)
        if occupancy is not None:
            self._show_cycle(t, occupancy, "".join(states))
        if not (progressed or sleepers) and self._live and not any(
                ch.can_mature_later() for ch in self.channels):
            self._raise_deadlock(t)
        self.now = eng.now = t + 1
