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
reduction including the batched DOT and AXPY, and the block loads and
stores of the tiled Level-2 modules — is a :class:`SteadyLoop` (built
with :func:`steady_kernel`).  It is declared by its access pattern
(read and write ports, width, ``ii``, count, an optional segment) and
one block body ``body(ins, base, n, lanes)``; the driver owns the
cursor, ``ready()``, ``ends()`` and the totals.  A stepped iteration
pops one burst per read port, calls the body on it and pushes what it
returns; a replayed window calls the same body on ``k`` bursts.  The
two therefore agree by construction, and the contract above holds
without a second, scalar copy of the kernel.

Kernels that keep a hand-written generator, and why:

* the grant-driven interface kernels (:func:`~repro.fpga.memory.read_kernel`,
  :func:`~repro.fpga.memory.write_kernel`): each cycle moves what the
  DRAM bank grants, so a stepped burst may be short, and they carry
  their own ``block``;
* the tiled Level-2 matrix phases (the ``_Stream`` phases of GEMV,
  GEMV^T and GER): their scalar loop is the stepped path, because
  stepping them through their block body measured about three times
  slower per iteration on the event tier;
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
  which is what the FB40x rate analyzer and the plan IR consume;
* :meth:`StaticPattern.phase` returns the pattern of the phase the
  kernel is in *now* (``None`` between phases, or for an unstarted
  generator): its ports are the only channels the next ``ready()``
  iterations touch, and its ``block`` is what replays them.  A
  single-phase pattern is its own phase;
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
A pattern may also say how its kernel ends (``ends=``): a callable
that is true, at an iteration boundary, when the generator *returns* —
performs no further op — once the current phase's ``ready()``
iterations are done.  The window scheduler lets such a kernel finish
inside a window: after its last ``block()`` it resumes the generator
once, which must raise ``StopIteration`` (a :class:`SimulationError`
otherwise), and books the kernel done at the cycle after its last
iteration, exactly when the event core's resume would have.  A kernel
without ``ends`` (a reduction with its result push still to come, a
phased module whose next phase is not yet known) keeps its last
iteration as a window edge.
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
    moved per iteration (always a full burst in steady state — a
    partially granted burst leaves residue in the kernel's pending list,
    which drives ``ready()`` to 0 and forces fallback); ``order`` is the
    kernel's flat index array, ``None`` for the identity.
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
        the kernel can still execute from its current shared state.
        ``None`` (or :meth:`declare`) pins it to 0: ports are declared
        but the fast path never engages.
    block:
        ``block(k, ins) -> [out_arrays]`` — the vectorized interpreter
        for ``k`` iterations (see the module docstring contract).
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
    ends:
        Optional zero-argument callable: true when the generator returns
        right after the current ``ready()`` iterations (see "Ending" in
        the module docstring).
    """

    __slots__ = ("reads", "writes", "ii", "dtype", "dram",
                 "read_totals", "write_totals", "defer", "executable",
                 "_ready", "_block", "_phase", "_ends")

    def __init__(self, reads: Sequence[Tuple] = (),
                 writes: Sequence[Tuple] = (), ii: int = 1,
                 dtype=None, ready: Optional[Callable[[], int]] = None,
                 block: Optional[Callable] = None,
                 dram: Sequence[DramTraffic] = (),
                 read_totals: Optional[Sequence[Optional[int]]] = None,
                 write_totals: Optional[Sequence[Optional[int]]] = None,
                 defer: int = 0, ends: Optional[Callable[[], bool]] = None):
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
        #: False for a declare-only pattern (no ``ready=``/``block=``).
        self.executable = ready is not None
        self._ready = ready
        self._block = block
        self._phase = None
        self._ends = ends

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

        pat = cls(ready=ready, block=lambda k, ins: current().block(k, ins),
                  **union)
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
        kernel is multi-phase; ``None`` between phases)."""
        return self if self._phase is None else self._phase()

    def ready(self) -> int:
        """Full steady iterations executable from the current state."""
        if self._ready is None:
            return 0
        return self._ready()

    def ends(self) -> bool:
        """True when the generator returns after the ``ready()``
        iterations executable now (False unless declared)."""
        return self._ends is not None and self._ends()

    def block(self, k: int, ins: List) -> List:
        """Advance ``k`` iterations; return one output array per write."""
        if self._block is None:       # pragma: no cover - guarded by ready()
            raise RuntimeError("declare-only pattern has no block executor")
        return self._block(k, ins)

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
    ``width`` divides it: then ``ready()`` spans segments.
    ``body(ins, base, n, lanes)`` computes stream elements ``base`` to
    ``base + n`` in bursts of ``lanes`` from ``n`` values per read port
    (cast to ``dtype`` when there is one) and returns ``n`` values per
    write port.  ``result=(channel, values)`` is a reduction's epilogue:
    each of ``values()`` pushed alone, one per cycle.  ``on_end`` runs
    as the last iteration is consumed, before its ``Clock``: a tiled
    module's load or store phase hands over with it, and is rearmed by
    resetting ``total`` and ``done``.
    """

    __slots__ = ("body", "width", "segment", "result", "on_end", "total",
                 "done")

    def __init__(self, kernel: str, body: Callable, reads: Sequence = (),
                 writes: Sequence = (), count: Optional[int] = None,
                 width: int = 1, ii: int = 1, dtype=None,
                 latency: Optional[int] = None,
                 segment: Optional[int] = None, result=None,
                 on_end: Optional[Callable[[], None]] = None):
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
        self.segment = segment if segment and segment % width else None
        self.result = result
        self.on_end = on_end
        self.total = count
        self.done = 0

    @property
    def pattern(self) -> "SteadyLoop":
        """The loop is its own (phase) pattern."""
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
        if self.segment is None:
            return (self.total - self.done) // self.width
        return (self._stop(self.done) - self.done) // self.width

    def ends(self) -> bool:
        """True when the ``ready()`` iterations finish the kernel: never
        before a reduction's result or a phase's hand-over."""
        return (self.result is None and self.on_end is None
                and self._stop(self.done) == self.total
                and (self.total - self.done) % self.width == 0)

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
        writes = self.writes
        full = [Pop(ch, width) for ch, _lanes in self.reads]
        clock = Clock(self.ii)
        ins = list(full)
        while self.done < self.total:
            base = self.done
            c = (self.total if self.segment is None
                 else self._stop(base)) - base
            if c >= width:
                c, pops = width, full
            else:
                pops = [Pop(op.channel, c) for op in full]
            for i, op in enumerate(pops):
                vals = yield op
                vals = (vals,) if c == 1 else tuple(vals)
                ins[i] = vals if dtype is None else np.asarray(vals, dtype)
            outs = body(ins, base, c, c)
            if writes:
                for (ch, _lanes, latency), vals in zip(writes, outs):
                    yield Push(ch, tuple(vals), latency)
            self.done = base + c
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
