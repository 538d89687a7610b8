"""Static per-cycle op patterns — the contract behind window replay.

A kernel generator describes *behaviour*; a :class:`StaticPattern`
describes the **shape** of that behaviour in steady state: which
channels the kernel pops and pushes every initiation, how many lanes
per port, at what initiation interval and write latency.  The rate
analyzer certifies a design from its patterns, and the window scheduler
(:mod:`repro.fpga.bulk`) then uses them to replay many cycles
arithmetically instead of resuming the generator once per cycle.

The contract a pattern-carrying kernel honours:

* while ``ready() > 0`` the generator is suspended at an iteration
  boundary (its steady-loop ``Clock``) and its *next* ``ready()``
  iterations each perform exactly one ``Pop`` per read port (``lanes``
  values), one ``Push`` per write port (``lanes`` values, the declared
  latency) — in declaration order — followed by ``Clock(ii)``;
* ``block(k, ins)`` advances the kernel's state by ``k`` full
  iterations, consuming ``k * lanes`` input values per read port (the
  ``ins`` arrays) and returning one ndarray of ``k * lanes`` output
  values per write port, **bit-identical** to what ``k`` stepped
  iterations would have produced;
* after ``block(k, ...)``, resuming the generator continues from
  iteration boundary ``+k``.

Steady kernels: one body
------------------------
A kernel that is one counted, W-wide loop — the source, sink, forward
and duplicate helpers of :mod:`repro.fpga.util`, every Level-1 map and
reduction including the batched DOT and AXPY, each loop of the tiled
Level-2 modules (block loads, matrix tiles, result stores) and the DRAM
interface kernels of :mod:`repro.fpga.memory` — is a
:class:`SteadyLoop` (built with :func:`steady_kernel`).  It is declared
by its access pattern (read and write ports, width, ``ii``, count, an
optional segment) and one block body ``body(ins, base, n, lanes)``; the
driver owns the cursor, ``ready()``, ``ends()`` and the totals.  A
stepped iteration pops one burst per read port, calls the body on it
and pushes what it returns; a replayed window calls the same body on
``k`` bursts.  The two therefore agree by construction, and the
contract above holds without a second, scalar copy of the kernel.

An interface kernel's stepped burst is what the DRAM bank grants: the
read asks through the loop's ``lanes`` hook, the write steps its loop
by its own staging rule through the same body.

Kernels that keep a hand-written generator, and why:

* the kernels whose loop is not statically regular (merge, routers,
  column tiles, double buffering, solves): :meth:`StaticPattern.declare`
  documents their ports for analysis, but the pattern is not
  executable, so a design containing one is refused (FB404) and
  event-stepped;
* one-shot kernels with no steady loop (``scalar_sink``, ROTG,
  ROTMG).

Phase patterns
--------------
A tiled module is not one steady loop but a *sequence* of them — load a
y block, load an x block, stream a tile of A, store the results — each
regular on its own ports.  Such a kernel carries one
:class:`StaticPattern` per phase plus an outer pattern built with
:meth:`StaticPattern.phased`:

* the outer pattern's ``reads``/``writes``/totals/``defer`` are the
  **union** over all phases — what the kernel does over a whole run,
  which is what the FB40x rate analyzer and the plan IR consume — and
  its ``done`` the elements of the phases that have ended;
* :meth:`StaticPattern.phase` returns the pattern of the phase the
  kernel is in *now* (``None`` once the last has run): its ports are
  the only channels the next ``ready()`` iterations touch, and its
  ``block`` is what replays them.  A single-phase pattern is its own
  phase;
* the contract above holds per phase, with one addition: the kernel
  moves its cursor to the next phase **before** the ``Clock`` that ends
  a phase's last iteration (and ``block`` does the same when it
  consumes the last iteration), so at every cycle boundary ``phase()``
  already describes the next iteration and a phase change costs no
  event-stepped cycle (a :class:`SteadyLoop` phase does this through
  its ``on_end``).

Schedulers therefore always ask ``kernel.pattern.phase()`` for ports,
``ready()`` and ``block()``; only static analysis reads the outer
union.

Ending
------
A :class:`SteadyLoop` also says how its kernel ends: its ``ends()`` is
true, at an iteration boundary, when the generator *returns* —
performs no further op — once the current phase's ``ready()``
iterations are done.  The window scheduler lets such a kernel finish
inside a window: after its last ``block()`` it resumes the generator
once, which must raise ``StopIteration`` (a :class:`SimulationError`
otherwise), and books the kernel done at the cycle after its last
iteration, exactly when the event core's resume would have.  A kernel
without ``ends`` (a reduction with its result push still to come, a
phased module whose next phase is not yet known) keeps its last
iteration as a window edge.

Timing signature
----------------
A certified design's supersteps do not depend on the values it
carries, but they are not a function of its ``plan_key`` alone: the key
holds ports, lanes and totals, not *where* a kernel's bursts stop.  A
source of 63 elements replayed 16 times and one of 1 008 elements have
the same key and run 258 vs 254 cycles.  So each executable pattern
declares ``timing``, a small hashable value naming what else decides
its ``ready()``: a :class:`SteadyLoop` its ``segment``, a tiled
Level-2 module its name and tile geometry, the DRAM interface kernels
their ``repeat`` and whether their order is the identity.  The window
scheduler keys a recorded superstep script and its compiled hit (which
runs :class:`SteadyLoop` bodies alone, so only loops and kernels phased
into them declare one) on the certificate plus the kernels' signatures
(:mod:`repro.fpga.bulk`); a pattern that declares none plans every run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import check_stream_geometry
from .kernel import Clock, PatternedGenerator, Pop, Push

__all__ = ["DramTraffic", "PatternedGenerator", "StaticPattern",
           "SteadyLoop", "steady_kernel"]


class DramTraffic:
    """Per-iteration DRAM traffic of a patterned memory kernel.

    ``kind`` is ``"read"``, ``"gather"`` (a read paying the stride
    penalty) or ``"write"``; ``elements`` is the number of buffer elements
    moved per iteration (always a full burst in steady state — a short
    grant sets the kernel's :attr:`SteadyLoop.held`, which drives
    ``ready()`` to 0 until a stepped burst is granted in full); ``order``
    is the kernel's flat index array, ``None`` for the identity.
    """

    __slots__ = ("mem", "buf", "elements", "kind", "order")

    def __init__(self, mem, buf, elements: int, kind: str):
        if kind not in ("read", "gather", "write"):
            raise ValueError(
                f"kind must be 'read', 'gather' or 'write', got {kind!r}")
        self.mem = mem
        self.buf = buf
        self.elements = elements
        self.kind = kind
        self.order = None


class StaticPattern:
    """Steady-state port/rate signature of a kernel generator.

    Parameters
    ----------
    reads:
        ``(channel, lanes)`` pairs popped once per iteration, in op order.
    writes:
        ``(channel, lanes, latency)`` triples pushed once per iteration,
        in op order; ``latency=None`` means the kernel's default latency
        (resolved by the engine when the kernel is registered).
    ii:
        Initiation interval of the steady loop (the ``Clock(ii)`` that
        ends each iteration).  Windows are only replayed at
        ``ii == 1``.
    dtype:
        Element dtype the kernel casts popped values to (``None`` keeps
        the channel values' native dtype).
    ready:
        Zero-argument callable returning how many full steady iterations
        the kernel can still execute from its current shared state (a
        phased kernel's outer pattern; a :class:`SteadyLoop` answers
        itself).  ``None`` (or :meth:`declare`) pins it to 0: ports are
        declared but the fast path never engages.
    dram:
        Optional sequence of :class:`DramTraffic` descriptors for memory
        kernels, so bank counters can be advanced arithmetically.
    read_totals / write_totals:
        Optional tuples aligned with ``reads`` / ``writes`` giving the
        *total number of elements* the kernel consumes/produces on each
        port over a whole run (``None`` entries mean unknown).  The SDF
        rate analyzer (:mod:`repro.analysis.rate_passes`) uses these for
        the token-conservation check (FB401); they are metadata only and
        never affect execution.
    defer:
        Elements the kernel must consume on its *first* read port before
        its first push — the reordering window the FB403 minimal-depth
        inference sums along reconvergent paths.  Mirrors the ``defer=``
        argument of ``Engine.add_kernel`` but travels with the pattern,
        so fully patterned designs need no per-call annotations.
    timing:
        Hashable *timing signature*: what, besides the design's
        ``plan_key``, decides when the kernel's iterations are ready —
        see "Timing signature" in the module docstring.  ``None`` (the
        default) declares none, and a run containing such a kernel
        plans every window afresh.
    """

    __slots__ = ("reads", "writes", "ii", "dtype", "dram",
                 "read_totals", "write_totals", "defer", "executable",
                 "timing", "done", "_ready", "_phase")

    def __init__(self, reads: Sequence[Tuple] = (),
                 writes: Sequence[Tuple] = (), ii: int = 1,
                 dtype=None, ready: Optional[Callable[[], int]] = None,
                 dram: Sequence[DramTraffic] = (),
                 read_totals: Optional[Sequence[Optional[int]]] = None,
                 write_totals: Optional[Sequence[Optional[int]]] = None,
                 defer: int = 0, timing=None):
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.ii = ii
        self.dtype = dtype
        self.dram = tuple(dram)
        self.read_totals = (tuple(read_totals) if read_totals is not None
                            else (None,) * len(self.reads))
        self.write_totals = (tuple(write_totals) if write_totals is not None
                             else (None,) * len(self.writes))
        if len(self.read_totals) != len(self.reads):
            raise ValueError("read_totals must align with reads")
        if len(self.write_totals) != len(self.writes):
            raise ValueError("write_totals must align with writes")
        self.defer = defer
        #: False for a declare-only pattern (no ``ready=``).
        self.executable = ready is not None
        self.timing = timing
        self._ready = ready
        self._phase, self.done = None, 0

    @classmethod
    def phased(cls, current: Callable[[], Optional["StaticPattern"]],
               **union) -> "StaticPattern":
        """Outer pattern of a multi-phase kernel (see the module
        docstring): ``current()`` returns the active phase's pattern or
        ``None``; ``union`` carries the whole-run ports, totals, dtype
        and ``defer`` for static analysis."""
        def ready():
            ph = current()
            return ph.ready() if ph is not None else 0

        pat = cls(ready=ready, **union)
        pat._phase = current
        return pat

    @classmethod
    def declare(cls, reads: Sequence[Tuple] = (),
                writes: Sequence[Tuple] = (),
                ii: int = 1,
                read_totals: Optional[Sequence[Optional[int]]] = None,
                write_totals: Optional[Sequence[Optional[int]]] = None,
                defer: int = 0) -> "StaticPattern":
        """Ports-only pattern: documents the steady rates, never engages
        the fast path (``ready()`` is constantly 0)."""
        return cls(reads=reads, writes=writes, ii=ii,
                   read_totals=read_totals, write_totals=write_totals,
                   defer=defer)

    def phase(self) -> Optional["StaticPattern"]:
        """Pattern of the kernel's current phase (``self`` unless the
        kernel is multi-phase; ``None`` once its last phase has run)."""
        return self if self._phase is None else self._phase()

    def ready(self) -> int:
        """Full steady iterations executable from the current state."""
        if self._ready is None:
            return 0
        return self._ready()

    def describe(self) -> str:
        rd = ", ".join(f"{ch.name}x{w}" for ch, w in self.reads)
        wr = ", ".join(f"{ch.name}x{w}" for ch, w, _lat in self.writes)
        kind = "static" if self.executable else "declared"
        return (f"<StaticPattern {kind} ii={self.ii} "
                f"reads=[{rd}] writes=[{wr}]>")


class SteadyLoop(StaticPattern):
    """One counted steady loop, declared by its block body (see "Steady
    kernels: one body" above): an executable pattern that also steps.

    ``count`` elements stream in ``width``-wide iterations ending in
    ``Clock(ii)``; a ragged tail is one narrower burst.  With a
    ``segment`` bursts also stop at every ``segment``-th element (a
    batched kernel's problems, a replayed source's passes), unless
    ``width`` divides it and the loop has no ``lanes`` hook: then bursts
    never straddle one, and ``ready()`` spans segments.
    ``body(ins, base, n, lanes)`` computes stream elements ``base`` to
    ``base + n`` in bursts of ``lanes`` from ``n`` values per read port
    (cast to ``dtype`` when there is one) and returns ``n`` values per
    write port.  ``result=(channel, values)`` is a reduction's epilogue:
    each of ``values()`` pushed alone, one per cycle.  ``on_end`` runs
    as the last iteration is consumed, before its ``Clock``: a tiled
    module's phase hands over with it, and is rearmed by :meth:`start`.

    ``lanes(base, c)`` (a DRAM read's bank) returns ``(m, held)``
    before each stepped iteration: it moves ``m`` of its ``c`` lanes (0:
    an idle cycle), and while ``held`` (also set by a kernel that steps
    the loop itself) ``ready()`` is 0 and ``ends()`` false.  A hooked
    loop keeps its segments, as a short grant leaves it off its burst
    grid, and starts each one with a stepped iteration.
    """

    __slots__ = ("body", "width", "segment", "result", "on_end", "total",
                 "lanes", "held")

    def __init__(self, kernel: str, body: Callable, reads: Sequence = (),
                 writes: Sequence = (), count: Optional[int] = None,
                 width: int = 1, ii: int = 1, dtype=None,
                 latency: Optional[int] = None,
                 segment: Optional[int] = None, result=None,
                 on_end: Optional[Callable[[], None]] = None,
                 lanes: Optional[Callable[[int, int],
                                          Tuple[int, bool]]] = None):
        check_stream_geometry(kernel, width, count=count or 0, ii=ii)
        reads = [(ch, width) for ch in reads]
        writes = [(ch, width, latency) for ch in writes]
        StaticPattern.__init__(
            self, reads, writes, ii, dtype,
            read_totals=None if count is None else (count,) * len(reads),
            write_totals=None if count is None else (count,) * len(writes))
        self.executable = True
        self.body = body
        self.width = width
        self.segment = (segment if segment and (segment % width or lanes)
                        else None)
        self.timing = ("steady", self.segment)
        self.result = result
        self.on_end = on_end
        self.total = count
        self.done = 0
        self.lanes = lanes
        self.held = False

    def start(self, count: int) -> "SteadyLoop":
        """Rearm the loop for ``count`` more elements."""
        self.total = count
        self.done = 0
        return self

    def _stop(self, done: int) -> int:
        """Where the burst or window starting at ``done`` must stop."""
        seg = self.segment
        if seg is None:
            return self.total
        end = (done // seg + 1) * seg
        return end if end < self.total else self.total

    def ready(self) -> int:
        """Full-width iterations before the next stop."""
        if self.held:
            return 0
        done, seg = self.done, self.segment
        if seg is None:
            return (self.total - done) // self.width
        if self.lanes is not None and not done % seg and 0 < done < self.total:
            return 0                    # a segment starts stepped
        return (self._stop(done) - done) // self.width

    def ends(self) -> bool:
        """True when the ``ready()`` iterations finish the kernel: never
        before a reduction's result or a phase's hand-over."""
        done, seg = self.done, self.segment
        if (self.held or self.result is not None or self.on_end is not None
                or self.lanes is not None and seg is not None
                and not done % seg and 0 < done < self.total):
            return False
        return (self._stop(done) == self.total
                and (self.total - done) % self.width == 0)

    def block(self, k: int, ins: List) -> Sequence:
        """Replay ``k`` full-width iterations."""
        base = self.done
        n = k * self.width
        outs = self.body(ins, base, n, self.width)
        self.done = base + n
        if self.done == self.total and self.on_end is not None:
            self.on_end()
        return outs

    def run(self):
        """The stepped loop (then the reduction's result, if any).  Ops
        are values, so a full-width iteration yields the same ``Pop`` and
        ``Clock`` objects every time."""
        body, width, dtype = self.body, self.width, self.dtype
        writes, lanes = self.writes, self.lanes
        full = [Pop(ch, width) for ch, _lanes in self.reads]
        clock = Clock(self.ii)
        ins = list(full)
        while self.done < self.total:
            base = self.done
            c = (self.total if self.segment is None
                 else self._stop(base)) - base
            if lanes is not None:
                c, self.held = lanes(base, c if c < width else width)
                if not c:
                    yield clock
                    continue
            if c >= width:
                c, pops = width, full
            else:
                pops = [Pop(op.channel, c) for op in full]
            for i, op in enumerate(pops):
                vals = yield op
                vals = (vals,) if c == 1 else tuple(vals)
                ins[i] = vals if dtype is None else np.asarray(vals, dtype)
            outs = body(ins, base, c, c)
            self.done = base + c        # what the body has run
            if writes:
                for (ch, _lanes, latency), vals in zip(writes, outs):
                    yield Push(ch, tuple(vals), latency)
            if self.done == self.total and self.on_end is not None:
                self.on_end()
            yield clock
        if self.result is not None:
            ch, values = self.result
            for value in values():
                yield Push(ch, (value,), None)
                yield Clock()


def steady_kernel(kernel: str, body: Callable, reads: Sequence = (),
                  writes: Sequence = (), **loop) -> PatternedGenerator:
    """A kernel that is one :class:`SteadyLoop` (keywords as there)."""
    loop = SteadyLoop(kernel, body, reads, writes, **loop)
    return PatternedGenerator(loop.run(), loop)
