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

Observers with ``on_window`` (:mod:`repro.fpga.observers`) get one
record per stretch of constant state (a superstep, split where a kernel
leaves); an observer without the hook makes the engine step the whole
run.

Recorded scripts
----------------
A certified design has ii = 1 patterns, full grants and no
data-dependent control, so the sequence of decisions above — step this
cycle, or run this superstep — is the same on every run of the design
(Chi et al.: timing is separate from function, so work it out once).
The first complete run records it: per :meth:`_run_cycle` the cycle
``now`` of a step or ``(now, K, order, peaks)`` of a superstep, kernels
by index (the ``plan_key`` fixes their registration order), channels by
name with the peak the walk found.  It is kept in the certificate
(:attr:`StaticSchedule.scripts`, under the schedule cache's LRU bound)
under the kernels' timing signatures (:mod:`repro.fpga.pattern`,
"Timing signature"): the ``plan_key`` does not fix the cycles.  A
replay takes the next entry each cycle: a step is the event core's, a
superstep is rebuilt on the live kernels' phases with the recorded
peaks, described to the observers and executed — no survey, plan or
walk.  A recorded ``now`` that is not the run's, a kernel not queued or
short of its iterations, or a channel set the kernels do not touch
raises :class:`SimulationError`; a replay never falls back to planning.
Only a run that can be repeated exactly records or replays: from cycle
0 on empty channels, at the default ``max_cycles``, with a schedule
cache, no fault plan and every kernel's timing declared (observers
take no part); scripts stay bounded (:data:`~WindowScheduler.MAX_SCRIPTS`
per certificate, :data:`~WindowScheduler.MAX_SCRIPT_ENTRIES` entries
each; a longer run is marked and plans).

Compiled hits
-------------
A design's first replay also compiles its hit, kept with the script:
per stretch (a superstep or a run of steps, merged unless a DRAM store
moved and another kernel moves next) each moving kernel's progress —
the elements its bodies ran — producers first, stores last; then the
run's counters, bank deltas and DRAM state, as plain values.  A later
unwatched run takes the hit inside :meth:`Engine.run`: :func:`_play`
runs the live loops' bodies on their stepped burst grid, handing bursts
on as arrays, and the counters are applied — no event core, planner,
walk or channel.  A kernel short of its recorded progress raises
:class:`SimulationError`.  The replay now serves only watched runs.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationError
from .memory import stripe_split
from .observers import Window
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
    #: Scripts one certificate keeps (one per timing signature), and the
    #: most entries a script may hold: memory guards, not tuning.  The
    #: benchmark workloads keep one script per certificate and at most
    #: 22 entries; the tiled GEMV / GEMV^T collision keeps four.
    MAX_SCRIPTS = 8
    MAX_SCRIPT_ENTRIES = 4096

    #: The script a run replays and the entries it records (``None``:
    #: plan, and record nothing); see "Recorded scripts" above.
    _script = _record = _trace = None
    _cut = False

    def run_scripted(self, scripts):
        """:meth:`run`, recording this design's script into ``scripts``,
        replaying it, or taking its compiled hit.  The engine calls this
        for runs without fault plan or explicit ``max_cycles``; one that
        does not start at cycle 0 on empty channels, or has a kernel
        without a timing signature, plans."""
        fresh = not self.engine.now
        for ch in self.channels:
            if ch._fifo or ch._nstaged:
                fresh = False
        key = tuple([k.pattern.timing for k in self.kernels])
        if not fresh or None in key:
            return self.run()
        script = scripts.get(key)
        if script is None:
            if len(scripts) >= self.MAX_SCRIPTS:
                return self.run()
            record = self._record = []
            report = self.run()
            scripts.setdefault(key, tuple(record) if len(record)
                               <= self.MAX_SCRIPT_ENTRIES else ())
            return report
        if not script:                  # () marks a design too long to keep
            return self.run()
        if script.__class__ is list:    # [script, compiled hit] or [script]
            if script[1:] and not self._observers:
                return self._hit(*script[1:])
            script = script[0]
        else:
            self._trace = []
        self._script, self._at = script, 0
        report = self.run()
        if self._at != len(script):
            raise SimulationError(
                f"the run ended at cycle {self.now} with "
                f"{len(script) - self._at} recorded script entries left")
        if self._trace is not None:
            self._trace.append(self._progress())
            scripts[key] = self._compile(script, self._trace)
        return report

    def _progress(self):
        """Each kernel's progress: the elements its bodies have run (a
        phased pattern's ``done`` counts its finished phases)."""
        return [k.pattern.done + (k.pattern._phase is not None and getattr(
            k.pattern.phase(), "done", 0)) for k in self.kernels]

    def _compile(self, script, trace):
        """``[script, *hit]`` from a replay's :meth:`_progress` around each
        superstep and at the end (``[script]``: a kernel runs no body)."""
        eng, kernels = self.engine, self.kernels
        if 0 in trace[-1]:
            return [script]
        # Producers (a reduction's result too) first, DRAM stores last.
        feeds = {port[0]: k.index for k in kernels for port in (
            *k.pattern.writes, getattr(k.pattern, "result", None) or "-")}
        deps = [[feeds[ch] for ch, _w in k.pattern.reads] for k in kernels]
        depth = [0] * len(kernels)
        for _k in kernels:
            for i, d in enumerate(deps):
                for j in d:
                    if depth[j] >= depth[i]:
                        depth[i] = depth[j] + 1
        store = [_is_store(k.pattern) for k in kernels]
        order = sorted(range(len(kernels)), key=lambda i: (store[i], depth[i]))
        stretches, goals, stored, was = [], {}, False, [0] * len(kernels)
        for now in trace:
            row = [(i, now[i]) for i in order if now[i] != was[i]]
            was = now
            if stored and row and not store[row[0][0]]:
                stretches.append(goals)     # a store moved: a new stretch
                goals, stored = {}, False
            goals.update(row)
            stored = stored or row != [] and store[row[-1][0]]
        mem = eng.memory
        return [script, tuple(
            tuple((i, g[i]) for i in order if i in g)
            for g in (*stretches, goals)), (
            trace[-1], tuple(order[-sum(store):]) if sum(store) > 1 else (),
            [vars(k.stats).copy() for k in kernels],
            [(ch.name, vars(ch.stats).copy()) for ch in self.channels],
            [tuple(vars(b).values()) for b in eng._bank_delta()],
            mem and (mem._cycle, tuple(mem._busy_mark), tuple(mem._budget),
                     mem._pool_budget),
            (eng.now, eng._bulk_windows, eng._bulk_cycles, eng._bulk_stepped,
             eng._last_op_cycle))]

    def _hit(self, stretches, final):
        """Run the design's compiled hit (see "Compiled hits")."""
        eng, kernels = self.engine, self.kernels
        q = {ch: [] for ch in self.channels}
        moved = [0] * len(kernels)
        totals, stores, stats, chans, banks, mem, ends = final
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
        for name, row in chans:
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
        return eng._build_report()

    def _run_cycle(self) -> None:
        t = self.now
        if self._script is not None:
            plan = self._replay(t)
        else:
            entries = self._survey()
            plan = self._window_plan(entries) if entries else None
        record = self._record
        if plan is None:
            if record is not None:
                record.append(t)
            return super()._run_cycle()
        # The records describe the state the superstep starts from.
        records = self._describe_window(*plan) if self._observers else ()
        self._execute_window(*plan)
        if record is not None:
            record.append(self._script_entry(t, *plan))
        for start, cycles, window in records:
            for o in self._observers:
                o.on_window(start, cycles, window)

    @staticmethod
    def _script_entry(t, K, order, ports):
        """The superstep just executed from cycle ``t``, as plain values:
        ``(t, K, order, peaks)`` with the order as ``(kernel index,
        iterations, leaves)`` and per channel ``(channel name, walked
        peak)``.  The ``plan_key`` fixes the kernels' registration order
        and the channels' names, not the order they were created in."""
        return (t, K,
                tuple([(k.index, n, leaves) for k, _p, n, leaves in order]),
                tuple([(ch.name, port[7]) for ch, port in ports.items()]))

    def _replay(self, t):
        """The recorded decision for cycle ``t``: ``None`` to step it (an
        entry that is just the cycle), or the recorded superstep rebuilt
        on the live kernels and channels as :meth:`_window_plan`'s ``(K,
        order, ports)``.  The rows come from the live phases, only the
        peaks from the script; a superstep the live state does not
        sustain raises."""
        try:
            entry = self._script[self._at]
        except IndexError:
            raise SimulationError(
                f"the recorded superstep script ended before cycle {t}"
            ) from None
        self._at += 1
        window = entry.__class__ is not int
        if self._trace is not None and (window or self._cut):
            self._trace.append(self._progress())    # a stretch ends
        self._cut = window
        t0 = entry[0] if window else entry
        if t0 != t:
            raise SimulationError(
                f"the recorded superstep script is at cycle {t0}, the run "
                f"at cycle {t}")
        if not window:
            return None
        _t, K, steps, peaks = entry
        kernels, cur = self.kernels, self._current
        order = []
        for i, n, leaves in steps:
            k = kernels[i]
            p = k.pattern.phase() if k in cur else None
            if (p is None or p.ready() < n
                    or leaves and (p.ready() != n or not p.ends())):
                raise SimulationError(
                    f"the recorded superstep at cycle {t} runs kernel "
                    f"{k.name!r} {n} iterations it cannot run")
            order.append((k, p, n, leaves))
        live, ports = _ports(order, K), {}
        chans = self.engine.channels
        for name, peak in peaks:
            ch = chans[name] if name in chans else None
            if ch not in live:
                break
            live[ch][7] = peak
            ports[ch] = live[ch]
        if len(order) != len(cur) or len(ports) != len(live):
            raise SimulationError(
                f"the recorded superstep at cycle {t} does not match the "
                f"kernels and channels queued then")
        return K, order, ports

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
            offs = port[6]
            if offs is None:            # a replayed row: never walked
                offs = _offsets(ch, t)
            series[ch], port[7] = _walk(ch, t, port, K, offs, True)
        cuts = {K}
        for _p, n, leaves in active.values():
            if leaves:
                cuts.update((n, n + 1))
        records, a = [], 0
        for b in sorted(c for c in cuts if 0 < c <= K):
            states, ops = [], []
            for k in self.kernels:
                if k in active:
                    p, n, leaves = active[k]
                    state = "-" if leaves and a > n else "#"
                else:
                    state = ("-" if k.done else "z" if k.sleep_until > t
                             else "s")
                states.append((k, state))
            for k in self._current:      # step order: by kernel index
                p, n, _leaves = active[k]
                if a < n:
                    ops += [(k, ch, "pop", w) for ch, w in p.reads]
                    ops += [(k, ch, "push", w) for ch, w, _lat in p.writes]
            records.append((t + a, b - a, Window(states, ops, series
                if b - a == K else {ch: _slice_runs(runs, a, b)
                                    for ch, runs in series.items()})))
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
