"""The window scheduler (``Engine(mode="certified")`` / ``mode="bulk"``).

A pipeline at full throughput has no idle cycle for the event core to
skip, so :class:`WindowScheduler` replays the cycles whose work is
*known* — kernels repeating their pattern's iteration — arithmetically.

What a window is
----------------
A *superstep* of K >= :data:`~WindowScheduler.MIN_WINDOW` cycles,
byte-identical to K event cycles.  Its kernels are the ones queued at
its first cycle, each with an executable
:class:`~repro.fpga.pattern.StaticPattern` *phase* (``ii == 1``, not
blocked, no fault pending on its outputs); each runs ``min(ready(),
K)`` iterations, and one whose pattern
:meth:`~repro.fpga.pattern.SteadyLoop.ends` may run fewer and
*leave*, finishing the cycle after its last iteration as the event
core's resume would have.  Its channels are those phases' ports, and
each one's net rate (``+lanes`` fill, ``0`` steady, ``-lanes`` drain)
is piecewise constant: it changes only where a staged burst matures,
the first push arrives or an endpoint leaves.

:func:`_walk` follows each channel's balance over those breakpoints to
find for how long its pops find data and its pushes room.  K is that,
clamped to

1. the fewest iterations of a kernel that does not end, and
   ``max_cycles``;
2. the earliest viable foreign heap event (a sleeper's wake, a
   maturation on a channel outside) and the next injected memory
   fault, which must land on an executed cycle;
3. the first maturation that would wake a pop waiter outside the
   superstep, and any push waiter at all: nothing outside may change
   the runnable set mid-window;
4. each channel's supply (the staged ramp runs out) and its ``depth +
   latency * lanes`` staging headroom.

Every other cycle — a kernel waking or blocking at a phase change, a
reduction's result push, a ragged tail — is the inherited event
scheduler's own, which keeps every verdict (deadlocks included)
byte-identical across the schedules.

The replay runs one ``block()`` per kernel in producer -> consumer
order (DRAM stores last) over ndarray block runs
(:meth:`Channel.push_block` / :meth:`Channel.pop_block`), books the
iterations, traffic and the peak occupancy the maturations would have
recorded, and :meth:`Channel.end_window` matures what is due; the rest
stays staged as runs, which the event core matures like bursts.

Why a window can be trusted
---------------------------
The scheduler only runs a design holding a
:class:`repro.analysis.schedule.StaticSchedule` certificate (executable
ii = 1 patterns, one producer and one consumer of equal lanes per
channel, conserved totals, depths at the inferred minima, DRAM demand
within budget): every kernel's next ``ready()`` cycles are known and
how long the state sustains them is decidable per channel from its
storage alone.  Without a certificate ``"certified"`` raises the FB4xx
diagnostics before cycle 0 and ``"bulk"`` runs the event scheduler.

Observers (:mod:`repro.fpga.observers`) get one window per stretch of
constant state of a superstep (split where a kernel leaves), as they get
one per stepped cycle and per jump.

Compiled hits
-------------
A certified design has ii = 1 patterns, full grants and no
data-dependent control, so how it runs is the same on every run of the
design (Chi et al.: timing is separate from function, so work it out
once).  Its first complete run plans and compiles its *hit* from
:meth:`_progress` read around each superstep: per stretch (a superstep
or a run of steps, merged unless a DRAM store moved and another kernel
moves next) each moving kernel's progress, the elements its bodies ran,
producers first and stores last; then the run's counters, bank deltas
and DRAM state.  Every later run takes the hit inside
:meth:`Engine.run`: :func:`_play` runs the live loops' bodies on their
stepped burst grid, handing bursts on as arrays, and the counters are
applied; no event core, planner, walk or channel runs.

What a run shows its observers is as fixed as its timing.  The first
watched run of a design plans and records its *observation*
(:class:`~repro.fpga.observers.WindowRecorder`): every window it showed
its observers, as plain values, kernels by index and channels by name.
A later watched run takes the hit and shows its observers the
observation, one ``on_window`` per window.  A kernel short of its
recorded progress, or a window naming a kernel or channel the design
lacks, raises :class:`SimulationError`.

The certificate keeps both (:attr:`StaticSchedule.scripts`, under the
schedule cache's LRU bound) as ``(hit, observation)`` under the
kernels' timing signatures (:mod:`repro.fpga.pattern`, "Timing
signature"), from runs that can be repeated exactly: from cycle 0 on
empty channels, at the default ``max_cycles``, with a schedule cache,
no fault plan and every kernel's timing declared.  A hit longer than
:data:`~WindowScheduler.MAX_RECORD_LEN` stretches, or with a kernel
that runs no body, is marked ``(None, None)`` and the design plans; a
longer observation is marked ``()`` and its watched runs plan.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationError
from .memory import stripe_split
from .observers import Window, WindowRecorder, quiet_window
from .scheduler import _KIDX, _MATURE, WakeListScheduler

__all__ = ["WindowScheduler"]

#: ``offs`` of a channel with nothing staged.
_NONE = np.zeros(0, dtype=np.int64)


def _walk(ch, t, port, K, offs=None, series=False):
    """Walk channel ``ch`` through a superstep of at most ``K`` cycles
    from cycle ``t``; ``port`` is its row of
    :meth:`WindowScheduler._window_plan`.

    The producer pushes ``w`` a cycle in the first ``n_p`` cycles at
    latency ``eff``, the consumer pops ``w`` in the first ``n_c`` (0:
    outside the superstep).  After cycle ``j``'s maturations the FIFO
    holds ``min(depth, B(j))``, with ``B(j) = occ + due(j) + w * clip(j
    - eff + 1, 0, n_p) - w * min(j, n_c)`` (``due``: staged elements
    matured by then, head of line), linear between breakpoints.  The
    superstep is exact while every pop finds its lanes, every push the
    op interpreter's ``depth + eff * w`` room, and no waiter wakes.

    Returns ``(cycles, offs)``: how long that holds, and the staged
    elements' maturation offsets.  Given ``offs`` back, returns the
    highest FIFO sample over ``K`` cycles or, with ``series``, the
    run-length encoded samples ``[(occupancy, cycles), ...]`` and that
    peak.
    """
    pk, ck, w, eff, n_p, n_c = port[:6]
    depth = ch.depth
    occ = len(ch._fifo)
    if offs is not None:
        return _samples(depth, occ, w, eff, n_p, n_c, K,
                        offs if len(offs) else None, series)
    if ch._push_waiters or eff < 1 or (n_c and ch._pop_waiters):
        return 0, None
    total = occ + ch._nstaged
    if n_p:
        # Push j fits iff total + w*j - w*min(j + cf, n_c) <= cap (cf:
        # the consumer steps first in a cycle); the left side never falls.
        cf = ck is not None and ck.index < pk.index
        cap = depth + (eff - 1) * w
        if total - w * min(cf, n_c) > cap:
            return 0, None
        full = max(n_c + (cap - total) // w + 1, n_c - cf + 1)
        if full < n_p and full < K:
            K = full
    if n_c:
        supply = total + w * n_p
        if supply < n_c * w and supply // w < K:
            K = supply // w                     # the supply runs out
        if n_p and total < eff * w and total // w < K:
            K = total // w                      # its own pushes are late
    elif ch._pop_waiters and occ < depth:
        # The first maturation wakes the waiter: that cycle is stepped.
        K = min(K, ch.head_ready() - t if total > occ else eff)
    if total == occ:
        return K, _NONE
    offs = _offsets(ch, t)
    pops = min(total, n_c * w) - occ
    if pops > 0:
        late = (offs[:pops] > np.arange(occ, occ + pops) // w).nonzero()[0]
        if late.size:
            K = min(K, (occ + int(late[0])) // w)
    return K, offs


def _offsets(ch, t):
    """The cycles after ``t`` by which ``ch``'s staged elements have
    matured, head of line first (:data:`_NONE` when nothing is staged):
    a staged element matures no earlier than the one before it."""
    if not ch._nstaged:
        return _NONE
    parts = []
    if ch._staged:
        parts.append(np.repeat([r for r, _v in ch._staged],
                               [len(v) for _r, v in ch._staged]))
    for first, lanes, arr, off in ch._runs:
        parts.append(first + np.arange(off, len(arr)) // lanes)
    offs = parts[0] if len(parts) == 1 else np.concatenate(parts)
    offs -= t
    np.maximum.accumulate(offs, out=offs)
    np.maximum(offs, 0, out=offs)
    return offs


def _samples(depth, occ, w, eff, n_p, n_c, K, offs, series):
    """The FIFO samples ``min(depth, B(j))``, ``j < K``, of
    :func:`_walk`, piece by piece between breakpoints (``B`` is linear
    in each): their maximum or, with ``series``, also the samples
    run-length encoded — one run per piece where flat or capped, one run
    per cycle where they move."""
    due_at = {}                         # offset -> elements due by then
    if offs is not None:
        for i, off in enumerate(offs.tolist(), 1):
            due_at[off] = i
    cuts = sorted({m for m in (*due_at, eff - 1, eff - 1 + n_p, n_c)
                   if 0 < m < K})
    cuts.append(K)
    runs, peak = [], 0
    due = due_at[0] if 0 in due_at else 0
    j = 0
    for end in cuts:
        rate = ((w if eff - 1 <= j < eff - 1 + n_p else 0)
                - (w if j < n_c else 0))
        a = j - eff + 1
        level = occ + due + w * ((0 if a < 0 else n_p if a > n_p else a)
                                 - (j if j < n_c else n_c))
        n = end - j
        top = level + rate * (n - 1) if rate > 0 else level
        top = depth if top > depth else top
        peak = top if top > peak else peak
        if not series:
            pass
        elif rate == 0:
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
        due = due_at[j] if j in due_at else due
    return (runs, peak) if series else peak


def _ports(entries, K):
    """Per channel the ``[producer, consumer, lanes, latency, pushes,
    pops, offs, peak]`` row of a ``K``-cycle superstep over ``(kernel,
    phase, iterations, ...)`` entries (``None`` / 0 for an endpoint
    outside; ``offs`` and ``peak`` left for the walk)."""
    # The certificate (FB400) proves every channel has one producer,
    # one consumer and the same lanes on both sides.
    ports = {}
    for k, p, n, *_leaves in entries:
        n = n if n < K else K
        for ch, w in p.reads:
            if ch in ports:
                ports[ch][1], ports[ch][5] = k, n
            else:
                ports[ch] = [None, k, w, 1, 0, n, None, None]
        for ch, w, lat in p.writes:
            eff = lat if lat is not None else k.latency
            if ch in ports:
                ports[ch][0], ports[ch][3], ports[ch][4] = k, eff, n
            else:
                ports[ch] = [k, None, w, eff, n, 0, None, None]
    return ports


def _emit(runs, occupancy, cycles):
    """Append ``cycles`` samples of ``occupancy`` to a run-length list."""
    if runs and runs[-1][0] == occupancy:
        runs[-1] = (occupancy, runs[-1][1] + cycles)
    else:
        runs.append((occupancy, cycles))


def _slice_runs(runs, a, b):
    """Samples ``a .. b-1`` of a run-length list, run-length encoded."""
    out, pos = [], 0
    for occ, n in runs:
        lo, hi = max(pos, a), min(pos + n, b)
        if lo < hi:
            out.append((occ, hi - lo))
        pos += n
    return out


class WindowScheduler(WakeListScheduler):
    """Event scheduler plus certificate-driven superstep replay.

    A superstep :meth:`_window_plan` proves executes at once
    (:meth:`_execute_window`); otherwise the inherited scheduler steps
    exactly one cycle and the next cycle tries again.
    ``engine._bulk_windows`` / ``_bulk_cycles`` count the supersteps and
    the cycles they replayed (:meth:`Engine.bulk_stats`).
    """

    #: Smallest superstep worth replaying arithmetically.
    MIN_WINDOW = 4
    #: Records one certificate keeps (one per timing signature), and the
    #: most stretches a hit, or windows an observation, may hold: memory
    #: guards, not tuning.  The benchmark workloads keep one record per
    #: certificate; the tiled GEMV / GEMV^T collision keeps four.
    MAX_RECORDS = 8
    MAX_RECORD_LEN = 4096

    #: The progress rows a recording run reads around each superstep
    #: (``None``: not recording); see "Compiled hits" above.
    _trace = None

    def run_warm(self, records):
        """:meth:`run`, taking this design's compiled hit from ``records``
        or recording it there (see "Compiled hits").  The engine calls
        this for runs without fault plan or explicit ``max_cycles``; one
        that does not start at cycle 0 on empty channels, or has a
        kernel without a timing signature, plans."""
        fresh = not self.engine.now
        for ch in self.channels:
            if ch._fifo or ch._nstaged:
                fresh = False
        key = tuple([k.pattern.timing for k in self.kernels])
        if not fresh or None in key:
            return self.run()
        watched = self._observers
        hit, seen = records.get(key, (False, None))     # False: no record
        if hit and (seen or not watched):
            if watched:
                self._show(seen)
            return self._hit(hit)
        if hit is None or seen == () or (
                hit is False and len(records) >= self.MAX_RECORDS):
            return self.run()           # marked, or no room to record
        if watched:                     # seen is None: record it too
            seen = WindowRecorder(self.channels)
            watched.append(seen)
        trace = self._trace = [[0] * len(self.kernels)]
        report = self.run()
        trace.append(self._progress())
        hit = self._compile(trace, report)
        if seen is None:
            records.setdefault(key, (hit, None))
        else:
            seen = seen.observation()
            records[key] = (hit, seen if len(seen) <= self.MAX_RECORD_LEN
                            else ())
        return report

    def _progress(self):
        """Each kernel's progress: the elements its bodies have run (a
        phased pattern's ``done`` counts its finished phases)."""
        return [k.pattern.done + (k.pattern._phase is not None and getattr(
            k.pattern._phase(), "done", 0)) for k in self.kernels]

    def _compile(self, trace, report):
        """The hit ``(stretches, final)`` from a run's :meth:`_progress`
        around each superstep and at the end, and its report (``None``: a
        kernel runs no body, or the hit is too long to keep)."""
        eng, kernels = self.engine, self.kernels
        if 0 in trace[-1]:
            return None
        # Producers (a reduction's result too) first, DRAM stores last.
        feeds, store = {}, []
        for k in kernels:
            p = k.pattern
            for port in p.writes:
                feeds[port[0]] = k.index
            if getattr(p, "result", None) is not None:
                feeds[p.result[0]] = k.index
            store.append(_is_store(p))
        depth = [0] * len(kernels)
        for _k in kernels:
            for k in kernels:
                for ch, _w in k.pattern.reads:
                    if depth[feeds[ch]] >= depth[k.index]:
                        depth[k.index] = depth[feeds[ch]] + 1
        order = sorted(range(len(kernels)),
                       key=[(s, d) for s, d in zip(store, depth)].__getitem__)
        stretches, goals, stored, was = [], {}, False, trace[0]
        for now in trace:
            row = [(i, now[i]) for i in order if now[i] != was[i]]
            was = now
            if stored and row and not store[row[0][0]]:
                stretches.append(goals)     # a store moved: a new stretch
                goals, stored = {}, False
            if row:
                goals.update(row)
                stored = stored or store[row[-1][0]]
        stretches.append(goals)
        if len(stretches) > self.MAX_RECORD_LEN:
            return None
        mem, stores = eng.memory, [i for i in order if store[i]]
        return tuple([tuple([(i, g[i]) for i in order if i in g])
                      for g in stretches]), (
            trace[-1], tuple(stores) if len(stores) > 1 else (),
            [dict(vars(k.stats)) for k in kernels],
            [(ch.name, dict(vars(ch.stats))) for ch in self.channels],
            [(b.bytes_read, b.bytes_written, b.denied_cycles, b.busy_cycles,
              b.ecc_events) for b in report.bank_stats],
            mem and (mem._cycle, tuple(mem._busy_mark), tuple(mem._budget),
                     mem._pool_budget),
            (eng.now, eng._bulk_windows, eng._bulk_cycles, eng._bulk_stepped,
             eng._last_op_cycle))

    def _show(self, seen):
        """Show a watched warm run's observers its design's recorded
        observation ``seen``, one ``on_window`` per window (see
        "Compiled hits")."""
        eng, kernels, observers = self.engine, self.kernels, self._observers
        chans, windows = eng.channels, []
        nk, nc = len(kernels), len(chans)
        try:
            for t, n, states, ops, occupancy, blocked, quiet in seen:
                if len(states) != nk or len(occupancy) != nc:
                    raise KeyError
                windows.append((t, n, Window(
                    states,
                    [(kernels[i], chans[c], kind, m) for i, c, kind, m in ops],
                    {chans[c]: runs for c, runs in occupancy},
                    {kernels[i]: (chans[c], kind) for i, c, kind in blocked}
                    if blocked else {}, quiet)))
        except (IndexError, KeyError):
            raise SimulationError(
                "the recorded observation does not name this design's "
                "kernels and channels") from None
        for o in observers:
            o.on_run_start(eng)
        for t, n, window in windows:
            for o in observers:
                o.on_window(t, n, window)

    def _hit(self, hit):
        """Run the design's compiled hit (see "Compiled hits")."""
        eng, kernels = self.engine, self.kernels
        q = {ch: [] for ch in self.channels}
        moved = [0] * len(kernels)
        stretches, (totals, stores, stats, named, banks, mem, ends) = hit
        try:
            for stretch in stretches:
                views = stores          # stores that may read each other's
                for i, goal in stretch:  # target: detach their inputs
                    if i in views:
                        views = ()
                        for runs in q.values():
                            runs[:] = [a if getattr(a, "base", None) is None
                                       else a.copy() for a in runs]
                    moved[i] = _play(kernels[i].pattern, moved[i], goal, q)
                    if moved[i] != goal:
                        raise IndexError
        except IndexError:              # a body found its inputs short
            moved = None
        if moved != totals or any(q.values()):
            raise SimulationError("the compiled hit cannot run its kernels "
                                  "to their recorded progress")
        for k, row in zip(kernels, stats):
            vars(k.stats).update(row)
            k.done = True
        for name, row in named:
            vars(eng.channels[name].stats).update(row)
        if mem:
            dram = eng.memory
            for b, (r, w, d, u, e) in zip(dram.bank_stats, banks):
                b.bytes_read += r
                b.bytes_written += w
                b.denied_cycles += d
                b.busy_cycles += u
                b.ecc_events += e
            (dram._cycle, dram._busy_mark[:], dram._budget[:],
             dram._pool_budget) = mem
        (eng.now, eng._bulk_windows, eng._bulk_cycles, eng._bulk_stepped,
         eng._last_op_cycle) = ends
        report = eng._build_report()
        for o in self._observers:       # shown the observation
            o.on_run_end(report)
        return report

    def _run_cycle(self) -> None:
        entries = self._survey()
        plan = self._window_plan(entries) if entries else None
        if plan is None:
            return super()._run_cycle()
        # The records describe the state the superstep starts from.
        records = self._describe_window(*plan) if self._observers else ()
        trace = self._trace
        if trace is not None:
            trace.append(self._progress())
        self._execute_window(*plan)
        if trace is not None:
            trace.append(self._progress())
        for start, cycles, window in records:
            for o in self._observers:
                o.on_window(start, cycles, window)

    def _survey(self):
        """``[(kernel, phase, ready iterations)]`` for the kernels queued
        this cycle, or ``None`` when one rules a superstep out."""
        cur = self._current
        if not cur:
            return None
        inj = self.engine._injector
        # Replay assumes full DRAM grants: a throttled cycle steps.
        if inj is not None and inj.throttle_active(self.now):
            return None
        entries = []
        for k in cur:
            p = k.pattern
            if p is not None:
                p = p.phase()
            if p is None or p.ii != 1 or k.blocked is not None:
                return None
            n = p.ready()
            if n < self.MIN_WINDOW and not p.ends():
                return None             # it bounds any superstep below it
            if inj is not None and any(inj.pending(ch)
                                       for ch, _w, _lat in p.writes):
                return None             # a pending fault must fire
            entries.append((k, p, n))
        return entries

    def _window_plan(self, entries):
        """Bound and order one superstep from :meth:`_survey`'s entries.

        Returns ``(K, order, ports)``: the length; ``(kernel, phase,
        iterations, leaves)`` in topological producer -> consumer order;
        per channel ``[producer, consumer, lanes, latency, pushes, pops,
        offs, peak]`` (``None`` / 0 for an endpoint outside).  ``None``
        when no superstep of :data:`MIN_WINDOW` cycles is provable.
        """
        t1 = self.now
        # The walks' cheapest refusals first: nothing to pop, a push
        # waiter to free, a pop waiter outside fed within MIN_WINDOW.
        for k, p, n in entries:
            for ch, w in p.reads if n else ():
                if ch._push_waiters or not ch._nstaged and len(ch._fifo) < w:
                    return None
            for ch, _w, lat in p.writes:
                if ch._pop_waiters and len(ch._fifo) < ch.depth and (
                        ch.head_ready() - t1 if ch._nstaged else
                        k.latency if lat is None else lat) < self.MIN_WINDOW:
                    return None
        # The fewest iterations bound the superstep, unless that kernel
        # ends after them: then it leaves inside and the next bounds.
        K = self.max_cycles - t1
        ends = set()
        while True:
            low = None
            for e in entries:
                if e[0] not in ends and (low is None or e[2] < low[2]):
                    low = e
            if low is None:             # every kernel leaves inside
                K = min(K, max(e[2] for e in entries) + 1)
                break
            if low[2] >= K:
                break
            if not low[1].ends():
                K = low[2]
                break
            ends.add(low[0])
        if K < self.MIN_WINDOW:
            return None
        ports = _ports(entries, K)
        # Nothing may fire inside but the superstep's own maturations.
        for tev, _seq, tag, obj in self._heap:
            if tev >= t1 + K:
                continue
            if tag == _MATURE:
                if obj._mature_at == tev and obj not in ports:
                    K = tev - t1
            elif obj._queued_for == tev and not obj.done:
                K = tev - t1
        # An injected memory fault must land on an executed cycle
        # (begin_cycle applies it), as on the other schedules.
        inj = self.engine._injector
        nxt = inj.next_memory_event(t1) if inj is not None else None
        if nxt is not None and nxt < t1 + K:
            K = nxt - t1
        for ch, port in ports.items():
            if K < self.MIN_WINDOW:
                return None
            K, port[6] = _walk(ch, t1, port, K)
        if K < self.MIN_WINDOW:
            return None
        # A channel outside is untouched, which is only faithful while
        # it cannot mature on its own inside (the heap clamp above).
        for ch in self.channels:
            if (ch not in ports and (ch._staged or ch._runs)
                    and ch._mature_at is None and len(ch._fifo) < ch.depth):
                return None
        # Topological order (Kahn, index-ordered frontier).
        row = {e[0]: e for e in entries}
        indeg = dict.fromkeys(row, 0)
        for pk, ck, *_flow in ports.values():
            if pk is not None and ck is not None:
                indeg[ck] += 1
        frontier = [k for k in row if indeg[k] == 0]
        order = []
        while frontier:
            k = frontier.pop(0)
            _k, p, n = row[k]
            order.append((k, p, min(n, K), n < K and k in ends))
            grew = False
            for ch, _w, _lat in p.writes:
                ck = ports[ch][1]
                if ck is not None:
                    indeg[ck] -= 1
                    if indeg[ck] == 0:
                        frontier.append(ck)
                        grew = True
            if grew:
                frontier.sort(key=_KIDX)
        return (K, order, ports) if len(order) == len(entries) else None

    def _execute_window(self, K, order, ports) -> None:
        """Execute one K-cycle superstep (no bail-outs)."""
        t1 = self.now
        last = t1 + K - 1
        for ch, port in ports.items():
            if port[7] is None:         # not already read off the series
                port[7] = _walk(ch, t1, port, K, port[6])
        # DRAM stores run last: a read kernel's block is a *view* of its
        # buffer, to be used before a store can overwrite it.
        stores = [e for e in order if _is_store(e[1])]
        for e in order:
            if e not in stores:
                self._replay_kernel(*e, t1)
        if len(stores) == 1:
            self._replay_kernel(*stores[0], t1)
        elif stores:
            # One store may be fed a view of another's target (an
            # in-place SWAP): detach every store's input first.
            held = [[a if a.base is None else a.copy()
                     for a in (ch.pop_block(n * w, p.dtype)
                               for ch, w in p.reads)] if n else []
                    for _k, p, n, _leaves in stores]
            for (k, p, n, leaves), ins in zip(stores, held):
                if n:
                    p.block(n, ins)
                if leaves:
                    _finish(k)
        busy = {}
        for k, p, n, leaves in order:
            stats = k.stats
            if stats.start_cycle is None:
                stats.start_cycle = t1
            stats.active_cycles += n
            if leaves:
                # Resumed to its return the cycle after its last
                # iteration, as the event core's step would have.
                stats.finish_cycle = k._last_stepped = t1 + n
                k.done = True
                k._queued_for = None
                self._live -= 1
            else:
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
                        bs.bytes_written += n * nbytes
                    else:
                        bs.bytes_read += n * nbytes
                    # A bank is busy once per cycle however many kernels
                    # hit it (DramModel._busy_mark); all start at t1.
                    if busy.get(id(bs), (0,))[0] < n:
                        busy[id(bs)] = n, bs
        for n, bs in busy.values():
            bs.busy_cycles += n
        if any(e[3] for e in order):
            self._current = [k for k in self._current if not k.done]
        for ch, port in ports.items():
            ch.end_window(last, port[2] if port[5] >= K else 0)
            # The peak the event core's maturations would have recorded.
            if port[7] > ch.stats.max_occupancy:
                ch.stats.max_occupancy = port[7]
            ch._mature_at = None
            if ch._nstaged and len(ch._fifo) < ch.depth:
                nm = ch.head_ready()
                self._schedule_mature(ch, nm if nm > t1 + K else t1 + K)
        self.engine._bulk_windows += 1
        self.engine._bulk_cycles += K
        self.now = self.engine.now = t1 + K
        self.engine._last_op_cycle = last   # the watchdog, as if stepped

    @staticmethod
    def _replay_kernel(k, p, K, leaves, t1) -> None:
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
            for (ch, w, lat), arr in zip(p.writes, p.block(n, ins)):
                eff = lat if lat is not None else k.latency
                ch.push_block(arr, w, t1 + done + eff)
            done = cut
        if leaves:
            _finish(k)

    def _describe_window(self, K, order, ports):
        """What ``K`` stepped cycles would have shown an observer: one
        ``(start, cycles, Window)`` per stretch of constant state."""
        t = self.now
        active = {k: (p, n, leaves) for k, p, n, leaves in order}
        series = {}
        for ch, port in ports.items():
            series[ch], port[7] = _walk(ch, t, port, K, port[6], True)
        cuts = {K}
        for _p, n, leaves in active.values():
            if leaves:
                cuts.update((n, n + 1))
        # A kernel outside keeps its state and stall, as over a jump.
        outside, records, a = quiet_window(self.kernels, t), [], 0
        for b in sorted(c for c in cuts if 0 < c <= K):
            states, ops = [], []
            for k, state in zip(self.kernels, outside.states):
                if k in active:
                    p, n, leaves = active[k]
                    state = "-" if leaves and a > n else "#"
                states.append(state)
            for k in self._current:      # step order: by kernel index
                p, n, _leaves = active[k]
                if a < n:
                    ops += [(k, ch, "pop", w) for ch, w in p.reads]
                    ops += [(k, ch, "push", w) for ch, w, _lat in p.writes]
            records.append((t + a, b - a, Window("".join(states), ops, series
                if b - a == K else {ch: _slice_runs(runs, a, b)
                                    for ch, runs in series.items()},
                outside.blocked)))
            a = b
        return records


def _play(pat, moved, goal, q):
    """Run ``pat``'s bodies from ``moved`` to ``goal`` elements (``q``
    queues its channels' runs; a call ends where one does, a ragged burst
    runs alone, then ``on_end`` and a result); return where it stopped."""
    while moved < goal:
        p = pat.phase()
        if p is None or p.done == p.total:
            break
        base = p.done
        c = min(p._stop(base), base + goal - moved) - base
        lanes = p.width if c >= p.width else c
        c -= c % lanes
        for ch, _w in p.reads:
            if len(q[ch][0]) < c:
                c = len(q[ch][0]) // lanes * lanes or lanes
        outs = p.body([_take(q[ch], c, p.dtype) for ch, _w in p.reads],
                      base, c, lanes)
        for (ch, _w, _lat), arr in zip(p.writes, outs):
            q[ch].append(arr)
        p.done = base = base + c
        moved += c
        if base == p.total and p.on_end is not None:
            p.on_end()
        if base == p.total and p.result is not None:
            q[p.result[0]].append(tuple(p.result[1]()))
    return moved


def _take(runs, n, dtype):
    """Pop ``n`` queued values as ``dtype``: a view if one run has them."""
    a = runs[0]
    if len(a) > n:
        runs[0], a = a[n:], a[:n]
    elif len(a) == n:
        del runs[0]
    else:                               # a burst that straddles runs
        del runs[0]
        a = np.concatenate((a, _take(runs, n - len(a), None)))
    return a if dtype is None else np.asarray(a, dtype)


def _finish(k) -> None:
    """Resume a kernel whose pattern ``ends``: it must return."""
    try:
        k._send(None)
    except StopIteration:
        return
    raise SimulationError(f"kernel {k.name!r} outlived its pattern's end")


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
    return not p.writes and any(d.kind == "write" for d in p.dram)
