"""Static per-cycle op patterns — the contract behind window replay.

A kernel generator describes *behaviour*; a :class:`StaticPattern`
describes the **shape** of that behaviour in steady state: which
channels the kernel pops and pushes every initiation, how many lanes
per port, at what initiation interval and write latency.  The rate
analyzer certifies a design from its patterns, and the window scheduler
(:mod:`repro.fpga.bulk`) then uses them to replay many cycles
arithmetically instead of resuming the generator once per cycle.

The contract a pattern-carrying generator must honour:

* while ``ready() > 0`` the generator is suspended at an iteration
  boundary (its steady-loop ``Clock``) and its *next* ``ready()``
  iterations each perform exactly one ``Pop`` per read port (``lanes``
  values), one ``Push`` per write port (``lanes`` values, the declared
  latency) — in declaration order — followed by ``Clock(ii)``;
* ``block(k, ins)`` advances the kernel's shared state by ``k`` full
  iterations, consuming ``k * lanes`` input values per read port (the
  ``ins`` arrays) and returning one ndarray of ``k * lanes`` output
  values per write port, **bit-identical** to what ``k`` scalar
  iterations would have produced;
* after ``block(k, ...)``, resuming the generator continues from
  iteration boundary ``+k`` — i.e. the generator reads its loop state
  from the same shared cursor ``block`` mutates.

Kernels whose steady loop is not statically regular (the reordering
routers, the column-tiled GEMV) use :meth:`StaticPattern.declare`: the
ports are still documented for analysis/telemetry, but the pattern is
not :attr:`~StaticPattern.executable`, so a design containing one is
never certified (FB404) and runs on the event scheduler.

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
  event-stepped cycle.

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

__all__ = ["DramTraffic", "PatternedGenerator", "StaticPattern"]


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
                 "read_totals", "write_totals", "defer",
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

    @property
    def executable(self) -> bool:
        """False for a declare-only pattern (no ``ready=``/``block=``)."""
        return self._ready is not None

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


class PatternedGenerator:
    """A generator plus its :class:`StaticPattern`.

    Generators cannot carry attributes, so module builders wrap the
    generator object in this proxy; the engine looks for a ``pattern``
    attribute on the kernel body (``getattr(body, "pattern", None)``).
    The full generator protocol is implemented so ``yield from`` over a
    patterned generator delegates transparently (PEP 380) — e.g.
    ``syr_kernel`` delegating to ``ger_kernel``.
    """

    __slots__ = ("_gen", "pattern")

    def __init__(self, gen, pattern: StaticPattern):
        self._gen = gen
        self.pattern = pattern

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._gen)

    def send(self, value):
        return self._gen.send(value)

    def throw(self, *exc_info):
        return self._gen.throw(*exc_info)

    def close(self):
        return self._gen.close()

    def __repr__(self):              # pragma: no cover - debugging aid
        return f"PatternedGenerator({self._gen!r}, {self.pattern.describe()})"
