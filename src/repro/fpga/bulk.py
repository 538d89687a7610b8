"""The window scheduler (``Engine(mode="certified")`` / ``mode="bulk"``).

The event core already skips provably idle cycles, but a pipeline at
full throughput has none: every kernel executes every cycle, so event
mode degenerates to the dense schedule (``fpga.run_event_ms`` ~=
``fpga.run_dense_ms`` in ``bench/``).  :class:`WindowScheduler` adds
the missing fast path: when the next K cycles are *known* — every
queued kernel repeats its pattern's iteration, every channel keeps up —
they are executed as one arithmetic superstep instead of K generator
resumes per kernel.

What a window is
----------------
A superstep must be byte-identical to K event cycles.  Its kernels are
the ones queued for this cycle, each with an executable
:class:`~repro.fpga.pattern.StaticPattern` *phase* (``ii == 1``, at
least :data:`~WindowScheduler.MIN_WINDOW` iterations ``ready()``, not
blocked, no fault pending on its outputs); its channels are the ports of
those phases.  Each window channel has a known net rate per cycle:

* ``+lanes`` — only the producer is in the window (*fill*: the consumer
  is blocked on a ``Pop``, asleep, or in the window but busy with another
  phase, e.g. a GEMV loading x while A queues up);
* ``0`` — both endpoints are in the window (the steady state);
* ``-lanes`` — only the consumer is (*drain*: the producer has finished
  or moved on, the staged values are a ready ramp to be consumed).

:func:`_flow_bound` decides, from a channel's storage alone, for how
many cycles its pops find matured data and its pushes find room; K is
that, clamped further to

1. the smallest ``ready()`` and ``max_cycles``;
2. the earliest viable foreign heap event (a sleeper's wake, a
   maturation on a channel outside the window) and the next injected
   memory fault, which must land on an executed cycle;
3. the first maturation that would wake a kernel waiting outside the
   window (nothing may change the runnable set mid-window), and any
   push waiter at all;
4. each channel's supply (the staged ramp runs out) and its
   ``depth + latency * lanes`` staging headroom (the FIFO fills up).

The replay walks the window kernels in topological producer → consumer
order (DRAM stores last), moves ``K * lanes`` values per port through
the channels' block-run transfers (:meth:`Channel.push_block` /
:meth:`Channel.pop_block` — ndarray views, not per-element tuples), lets
each phase's vectorized ``block()`` advance the kernel's shared loop
state, and adds ``K`` to the activity/traffic/bank counters.  No stall
is charged (no op in a window ever fails), ``max_occupancy`` takes the
peak the per-cycle maturations would have recorded
(:func:`_flow_peak`), and :meth:`Channel.end_window` restores exact
per-element storage.

Why a window can be trusted
---------------------------
The engine only constructs this scheduler for a design that holds a
:class:`repro.analysis.schedule.StaticSchedule` certificate: every
kernel carries an executable ii = 1 pattern, the SDF balance equations
are consistent (one producer, one consumer, equal lanes per channel),
token totals conserve, channel depths meet the inferred minima and the
steady DRAM demand fits every bank's budget.  Every kernel's next
``ready()`` cycles are therefore known, and how long the current state
sustains them is *decidable per channel* from its storage alone,
without running a cycle — for the steady state, the pipeline fill, the
drain and each block load/store phase of a tiled module alike.  Every
window the analysis finds is taken; nothing is probed at run time.
Without a certificate ``"certified"`` raises the FB4xx diagnostics
before cycle 0 and ``"bulk"`` runs the plain event scheduler
(:meth:`repro.fpga.engine.Engine._window_tier`).

The cycle that wakes or blocks a kernel at a phase change and ragged
tails execute on the inherited event scheduler unchanged, which keeps
all verdicts (including :class:`~repro.fpga.errors.DeadlockError`)
byte-identical across the schedules.

Observers that define ``on_window`` (:mod:`repro.fpga.observers`) get
each window as a single record — its kernels work every cycle,
everything outside it is frozen by the clamps above, and each channel's
per-cycle occupancy follows from the storage data :func:`_flow_bound`
reads (:func:`_flow_occupancy`); one observer without the hook makes
the engine step the whole run on the event scheduler instead.
"""

from __future__ import annotations

import numpy as np

from .memory import stripe_split
from .observers import Window
from .scheduler import _KIDX, _MATURE, WakeListScheduler

__all__ = ["WindowScheduler"]


def _flow_bound(ch, t, w, eff, push, pop, consumer_first, limit):
    """How long one channel sustains a window.

    The window's producer pushes ``w`` per cycle at latency ``eff``
    (``push``) and/or its consumer pops ``w`` per cycle (``pop``); the
    channel's net rate is therefore ``+w``, ``0`` or ``-w``.  Starting
    from the storage at cycle ``t`` — ``occ`` visible elements, then the
    staged ones with their ready offsets — every element of the stream
    has a known cycle at which it matures and, when the consumer is
    active, a known cycle at which it is popped (element ``g`` in
    arrival order leaves in cycle ``g // w``).  The window is exact
    while

    * every popped element has matured by the cycle that pops it
      (existing staged elements by their offsets; elements pushed
      inside the window arrive ``eff`` cycles after their push, so they
      are in time iff the channel already holds ``eff * w``; with no
      producer the supply simply runs out);
    * every push finds room under the ``depth + eff * w`` staging
      headroom (a constant test at net 0, a budget at net ``+w``);
    * no maturation hands data to a kernel outside the window (a
      foreign pop waiter), and nothing frees space for a foreign push
      waiter.

    Returns ``(cycles, offs)``: the number of cycles (at most
    ``limit``) the three conditions hold, and the maturation cycle of
    every staged element relative to ``t`` (for :func:`_flow_peak`;
    ``None`` when nothing is staged).
    """
    if ch._push_waiters or eff < 1 or (pop and ch._pop_waiters):
        return 0, None
    occ = len(ch._fifo)
    staged = ch._staged
    total = occ + ch._nstaged
    K = limit
    if push:
        room = ch.depth + eff * w - total
        if not pop:
            if room < K * w:
                K = room // w
        elif room + (w if consumer_first else 0) < w:
            return 0, None
    elif total < K * w:
        K = total // w              # no producer: the supply runs out
    if pop and push and total < eff * w and total < K * w:
        K = total // w              # this window's pushes arrive late
    if ch._pop_waiters and occ < ch.depth:
        # First maturation wakes the waiter: that cycle is stepped.
        K = min(K, staged[0][0] - t if staged else eff)
    if K < 1 or not staged:
        return K, None
    # A staged element matures at its ready offset (its burst's), no
    # earlier than its predecessor (head-of-line order) nor than this
    # cycle.
    offs = np.repeat([r for r, _v in staged], [len(v) for _r, v in staged])
    offs -= t
    np.maximum.accumulate(offs, out=offs)
    np.maximum(offs, 0, out=offs)
    if pop:
        late = (offs > np.arange(occ, total) // w).nonzero()[0]
        if late.size:
            K = min(K, (occ + int(late[0])) // w)
    return K, offs


def _flow_peak(ch, w, eff, push, pop, offs, K):
    """Highest post-maturation FIFO occupancy over a ``K``-cycle window
    (what the event core's per-cycle maturations would have recorded in
    ``max_occupancy``); arguments as in :func:`_flow_bound`."""
    occ = len(ch._fifo)
    pushed = w if push else 0
    if not pop:
        # Nothing leaves: the last cycle's occupancy is the peak.
        due = (int(offs.searchsorted(K - 1, side="right"))
               if offs is not None else 0)
        return min(ch.depth, occ + due + pushed * max(0, K - eff))
    if offs is None:
        return occ
    # Occupancy only rises when a staged group matures; evaluate it
    # right after each one that does so inside the window.
    live = int(offs.searchsorted(K - 1, side="right"))
    if not live:
        return occ
    at = offs[:live]
    level = np.arange(occ + 1, occ + live + 1) - at * w
    if push:
        level += w * np.maximum(at - eff + 1, 0)
    return min(ch.depth, max(occ, int(np.maximum.reduce(level))))


def _flow_occupancy(ch, t, w, eff, push, pop, K):
    """Post-maturation FIFO occupancy of each of a window's ``K`` cycles
    — the samples the event core's ``on_cycle`` would have taken —
    run-length encoded in time order as ``[(occupancy, cycles), ...]``;
    ``t`` is the window's first cycle, the rest as in :func:`_flow_bound`.

    By cycle ``j`` the channel has been offered its ``occ`` visible
    elements, the staged ones whose offset is at most ``j`` and the
    window's own pushes of cycles ``0 .. j - eff``; the consumer has
    taken ``w * j``.  Maturation admits what is due only up to
    ``depth`` and the overflow waits its turn, so the FIFO holds the
    smaller of that balance and ``depth``.

    That balance is linear between breakpoints — a staged burst
    maturing, the first push arriving — with slope ``-w``, ``0`` or
    ``+w``, so each segment is emitted whole: one run where it is flat
    or capped at ``depth``, one run per cycle where it moves.  The cost
    is one step per staged burst plus one per run emitted; a steady
    window with a short staged tail is a single run.
    """
    depth = ch.depth
    # Elements due by each distinct maturation offset, head-of-line
    # ordered (a burst matures no earlier than its predecessor).
    due_at = {}
    due = off = 0
    for ready, values in ch._staged:
        if ready - t > off:
            off = ready - t
        due += len(values)
        due_at[off] = due
    marks = set(due_at)
    if push:
        marks.add(eff - 1)              # the first push arrives at eff
    marks = sorted([m for m in marks if 0 < m < K])
    marks.append(K)
    runs = []
    due = due_at.get(0, 0)
    occ = len(ch._fifo)
    j = 0
    for end in marks:
        rate = (w if push and j >= eff - 1 else 0) - (w if pop else 0)
        level = (occ + due - (w * j if pop else 0)
                 + (w * (j - eff + 1) if push and j >= eff - 1 else 0))
        n = end - j
        if rate == 0:
            _emit(runs, min(level, depth), n)
        elif rate > 0:
            below = min(n, max(0, -(-(depth - level) // rate)))
            for i in range(below):
                _emit(runs, level + i * rate, 1)
            if n > below:
                _emit(runs, depth, n - below)
        else:
            above = min(n, max(0, (level - depth) // -rate + 1))
            if above:
                _emit(runs, depth, above)
            for i in range(above, n):
                _emit(runs, level + i * rate, 1)
        j = end
        due = due_at.get(j, due)
    return runs


def _emit(runs, occupancy, cycles):
    """Append ``cycles`` samples of ``occupancy`` to a run-length list."""
    if runs and runs[-1][0] == occupancy:
        runs[-1] = (occupancy, runs[-1][1] + cycles)
    else:
        runs.append((occupancy, cycles))


class WindowScheduler(WakeListScheduler):
    """Event scheduler plus certificate-driven superstep replay.

    A window :meth:`_window_plan` finds executes immediately
    (:meth:`_execute_window`); otherwise the inherited scheduler
    event-steps exactly one cycle and the next cycle tries again.
    ``engine._bulk_windows`` / ``_bulk_cycles`` count the supersteps and
    the cycles they fast-forwarded (:meth:`Engine.bulk_stats`).
    """

    #: Smallest window worth replaying arithmetically.
    MIN_WINDOW = 4

    def _run_cycle(self) -> None:
        ready = self._precheck()
        plan = self._window_plan(*ready) if ready is not None else None
        if plan is None:
            return super()._run_cycle()
        t = self.now
        # The record describes the state the window starts from.
        window = self._describe_window(*plan) if self._observers else None
        self._execute_window(*plan)
        for o in self._observers:
            o.on_window(t, plan[0], window)

    def _precheck(self):
        """``(phases, iterations)`` — the current phase pattern of every
        kernel queued for this cycle and the fewest iterations any of
        them has ``ready()`` — or ``None`` when some kernel cannot take
        part in a window."""
        cur = self._current
        if not cur:
            return None
        inj = self.engine._injector
        # Replay assumes full DRAM grants; an active throttle window
        # invalidates that, so its cycles are always event-stepped.
        if inj is not None and inj.throttle_active(self.now):
            return None
        phases = []
        fewest = self.max_cycles - self.now
        for k in cur:
            p = k.pattern
            if p is not None:
                p = p.phase()
            if p is None or p.ii != 1 or k.blocked is not None:
                return None
            iterations = p.ready()
            if iterations < self.MIN_WINDOW:
                return None
            if iterations < fewest:
                fewest = iterations
            if inj is not None:
                # A pending channel fault would be bypassed by the
                # window's block transfers; event-step until it fires.
                for ch, _w, _lat in p.writes:
                    if inj.pending(ch):
                        return None
            phases.append(p)
        return phases, fewest

    def _window_plan(self, phases, K):
        """Bound and order one superstep from the current state.

        ``phases`` are the current phase patterns of ``self._current``
        and ``K`` the iterations they all have ready, already capped at
        ``max_cycles`` (:meth:`_precheck`).  Returns ``(K, order,
        ports)`` — the window length, the ``(kernel, phase)`` pairs in
        topological producer -> consumer order, and per window channel
        ``[producer, consumer, lanes, latency, staged offsets, FIFO
        peak]`` with ``None`` for an endpoint that is not in the window
        (and for the peak, which whoever executes the window fills in)
        — or ``None`` when no window of at least :data:`MIN_WINDOW`
        cycles is provable (the clamps are the module docstring's).
        """
        t1 = self.now
        kernels = self._current          # sorted by index, all patterned
        # Port map {channel: [producer, consumer, lanes, latency, ...]}.
        # The certificate (FB400) proves every channel has one producer,
        # one consumer and the same lanes on both sides.
        ports = {}
        for k, p in zip(kernels, phases):
            for ch, w in p.reads:
                if ch in ports:
                    ports[ch][1] = k
                else:
                    ports[ch] = [None, k, w, 1, None, None]
            for ch, w, lat in p.writes:
                eff = lat if lat is not None else k.latency
                if ch in ports:
                    ports[ch][0], ports[ch][3] = k, eff
                else:
                    ports[ch] = [k, None, w, eff, None, None]
        # Topological producer -> consumer order (Kahn, index-ordered).
        indeg = {k: 0 for k in kernels}
        adj = {k: [] for k in kernels}
        for pk, ck, *_flow in ports.values():
            if pk is not None and ck is not None:
                adj[pk].append(ck)
                indeg[ck] += 1
        frontier = [k for k in kernels if indeg[k] == 0]
        ranked = []
        while frontier:
            k = frontier.pop(0)
            ranked.append(k)
            grew = False
            for nk in adj[k]:
                indeg[nk] -= 1
                if indeg[nk] == 0:
                    frontier.append(nk)
                    grew = True
            if grew:
                frontier.sort(key=_KIDX)
        if len(ranked) != len(kernels):
            return None                  # cyclic pattern graph
        # Clamp to the earliest viable foreign event: nothing may fire
        # inside the window except the window's own maturations.
        for tev, _seq, tag, obj in self._heap:
            if tev >= t1 + K:
                continue
            if tag == _MATURE:
                if obj._mature_at == tev and obj not in ports:
                    K = tev - t1
            elif obj._queued_for == tev and not obj.done:
                K = tev - t1
        # Clamp away from injected memory faults: the fault cycle itself
        # must be an *executed* cycle (begin_cycle applies due faults),
        # exactly as the other schedules see it.
        inj = self.engine._injector
        if inj is not None:
            nxt = inj.next_memory_event(t1)
            if nxt is not None and nxt < t1 + K:
                K = nxt - t1
        for ch, port in ports.items():
            if K < self.MIN_WINDOW:
                return None
            pk, ck, w, eff = port[:4]
            K, port[4] = _flow_bound(
                ch, t1, w, eff, pk is not None, ck is not None,
                pk is not None and ck is not None and ck.index < pk.index,
                K)
        if K < self.MIN_WINDOW:
            return None
        # A channel outside the window is never touched by it, which is
        # only event-faithful while it cannot mature on its own: either
        # nothing can enter its FIFO, or its maturation is a heap event
        # the clamp above has already put beyond the window.
        for ch in self.channels:
            if (ch not in ports and ch._staged and ch._mature_at is None
                    and len(ch._fifo) < ch.depth):
                return None
        phase_of = dict(zip(kernels, phases))
        return K, [(k, phase_of[k]) for k in ranked], ports

    def _execute_window(self, K, order, ports) -> None:
        """Execute one K-cycle superstep (no bail-outs)."""
        t1 = self.now
        last = t1 + K - 1
        for ch, port in ports.items():
            if port[5] is None:     # not already read off the series
                pk, ck, w, eff, offs, _ = port
                port[5] = _flow_peak(ch, w, eff, pk is not None,
                                     ck is not None, offs, K)
        # DRAM stores run last: a linear read kernel hands out *views*
        # of its buffer, and every kernel that consumes one this window
        # must do so before a store can overwrite the bytes under it.
        stores = [kp for kp in order if _is_store(kp[1])]
        for k, p in order:
            if (k, p) not in stores:
                self._replay_kernel(k, p, K, t1)
        if len(stores) > 1:
            # One store may be fed a view of another's target (an
            # in-place SWAP): take every store's input, detached from
            # whatever it is a view of, before any store runs.
            held = [[a if a.base is None else a.copy()
                     for a in (ch.pop_block(K * w, p.dtype)
                               for ch, w in p.reads)]
                    for _k, p in stores]
            for (_k, p), ins in zip(stores, held):
                p.block(K, ins)
        else:
            for k, p in stores:
                self._replay_kernel(k, p, K, t1)
        touched_banks = set()
        for k, p in order:
            if k.stats.start_cycle is None:
                k.stats.start_cycle = t1
            k.stats.active_cycles += K
            k._queued_for = t1 + K
            k._last_stepped = last
            k._last_progress = True
            for d in p.dram:
                burst = d.elements * d.buf.itemsize
                for bank, nbytes in (((d.buf.bank, burst),)
                                     if d.buf.bank is not None
                                     else _stripe_split(d, burst)):
                    bs = d.mem.bank_stats[bank]
                    if d.kind == "write":
                        bs.bytes_written += K * nbytes
                    else:
                        bs.bytes_read += K * nbytes
                    # A bank is busy once per cycle no matter how many
                    # kernels hit it — mirror DramModel._busy_mark.
                    touched_banks.add((id(d.mem), d.mem, bank))
        for _mid, mem, bank in touched_banks:
            mem.bank_stats[bank].busy_cycles += K
        for ch, (_pk, ck, w, _eff, _offs, peak) in ports.items():
            ch.end_window(last, w if ck is not None else 0)
            # The event core's phase-0 maturations would have recorded
            # the in-cycle FIFO peaks; no real cycle ran here.
            if peak > ch.stats.max_occupancy:
                ch.stats.max_occupancy = peak
            ch._mature_at = None
            if ch._staged and len(ch._fifo) < ch.depth:
                nm = ch._staged[0][0]
                self._schedule_mature(ch, nm if nm > t1 + K else t1 + K)
        self.now = self.engine.now = t1 + K
        # Every window cycle moved data; the watchdog deadline advances
        # exactly as K event-stepped cycles would have advanced it.
        self.engine._last_op_cycle = last
        self.engine._bulk_windows += 1
        self.engine._bulk_cycles += K

    @staticmethod
    def _replay_kernel(k, p, K, t1) -> None:
        """Run ``K`` iterations of phase ``p`` as block transfers, split
        where an input stream changes storage so every run moves as a
        view (``block(k1)`` then ``block(k2)`` is ``block(k1 + k2)``)."""
        cuts = {K}
        for ch, w in p.reads:
            ch.block_cuts(w, K, cuts)
        done = 0
        for cut in sorted(cuts):
            n = cut - done
            if n <= 0:
                continue
            ins = [ch.pop_block(n * w, p.dtype) for ch, w in p.reads]
            outs = p.block(n, ins)
            for (ch, w, lat), arr in zip(p.writes, outs):
                eff = lat if lat is not None else k.latency
                ch.push_block(arr, w, t1 + done + eff)
            done = cut

    def _describe_window(self, K, order, ports) -> Window:
        """What ``K`` stepped cycles would have shown an observer."""
        t = self.now
        phase_of = dict(order)
        states = [(k, "#" if k in phase_of else "-" if k.done
                   else "z" if k.sleep_until > t else "s")
                  for k in self.kernels]
        ops = []
        for k in self._current:          # step order: by kernel index
            p = phase_of[k]
            ops += [(k, ch, "pop", w) for ch, w in p.reads]
            ops += [(k, ch, "push", w) for ch, w, _lat in p.writes]
        occupancy = {}
        for ch, port in ports.items():
            pk, ck, w, eff = port[:4]
            runs = occupancy[ch] = _flow_occupancy(
                ch, t, w, eff, pk is not None, ck is not None, K)
            # The series is already capped at depth; its maximum is the
            # peak _execute_window would otherwise ask _flow_peak for.
            port[5] = max(occ for occ, _n in runs)
        return Window(states, ops, occupancy)


def _stripe_split(d, nbytes):
    """``(channel, bytes)`` a full burst of ``d`` moves on each member of
    its striped buffer: the event tier's split at full budgets, as FB402
    keeps all other traffic off those channels."""
    f = d.mem.stride_penalty if d.kind == "gather" else 1.0
    return [(c, int(take // f)) for c, take in stripe_split(
        d.buf.placement.channels if d.buf.placement else (), int(nbytes * f),
        [d.mem.bytes_per_cycle] * d.mem.num_banks)]


def _is_store(p) -> bool:
    """True for the phase pattern of a pure DRAM-store sink."""
    if p.writes:
        return False
    for d in p.dram:
        if d.kind == "write":
            return True
    return False
