"""Kernel protocol for the cycle-stepped simulator.

A *kernel* (the simulator's unit of hardware: an FBLAS module, a memory
interface module, a feeder/drainer of the systolic array...) is written as a
Python generator that yields *ops*:

``Pop(ch, count)``
    Wait until ``count`` elements are visible on ``ch``, then receive them
    (the generator's ``send`` value is the list of popped elements).  Within
    one cycle a kernel may pop from several channels — this models the W
    operands an unrolled inner loop consumes per clock.

``Push(ch, values, latency=None)``
    Wait until ``ch`` has space, then stage ``values`` to become visible
    ``latency`` cycles later (defaults to the kernel's pipeline latency).

``Clock(n=1)``
    End the current cycle (advance the kernel's clock by ``n``).  Everything
    a kernel does between two ``Clock`` yields happens "in the same clock
    cycle"; a kernel with initiation interval 1 therefore pops its W
    operands, pushes its W results, and yields ``Clock()`` once per loop
    iteration.

The engine (see :mod:`repro.fpga.engine`) resumes each kernel every cycle
until it blocks or ends its cycle.  A blocked op is retried on subsequent
cycles; the blocking cycles are counted as stalls, which is how the
simulator exposes backpressure and the deadlocks of invalid compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple

from .channel import Channel
from .pattern import PatternedGenerator


@dataclass(frozen=True)
class WritePort:
    """Static description of one kernel output port (for pre-flight).

    ``lanes`` is the number of elements one ``Push`` carries (the
    vectorization width of that port); ``latency`` the pipeline latency of
    those pushes (``None``: the kernel's default latency).  Both feed the
    analyzer's channel-capacity model: a push of ``lanes`` values with
    latency ``L`` is granted ``lanes * L`` slots of staging headroom beyond
    the FIFO depth.
    """

    channel: Channel
    lanes: int = 1
    latency: Optional[int] = None


def _normalize_writes(writes) -> Tuple[WritePort, ...]:
    """Accept Channel, (Channel, lanes) or (Channel, lanes, latency)."""
    out = []
    for w in writes:
        if isinstance(w, WritePort):
            out.append(w)
        elif isinstance(w, Channel):
            out.append(WritePort(w))
        else:
            out.append(WritePort(*w))
    return tuple(out)


# The three ops are slotted value objects rather than frozen dataclasses:
# a kernel yields one or more per simulated cycle, and a frozen
# dataclass pays an ``object.__setattr__`` per field on construction.
# They compare and hash by value and repr like the dataclasses did; the
# op interpreter dispatches on their exact type (``type(op) is Pop``).

class _Op:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


class Pop(_Op):
    """Receive ``count`` elements from ``channel`` (blocking)."""

    __slots__ = ("channel", "count")

    def __init__(self, channel: Channel, count: int = 1):
        self.channel = channel
        self.count = count


class Push(_Op):
    """Send ``values`` on ``channel`` (blocking while full).

    ``latency`` overrides the kernel's pipeline latency for this push;
    interface modules use latency 1 (they are simple address generators),
    compute modules use their circuit depth.
    """

    __slots__ = ("channel", "values", "latency")

    def __init__(self, channel: Channel, values: tuple,
                 latency: Optional[int] = None):
        self.channel = channel
        self.values = values
        self.latency = latency

    @staticmethod
    def of(channel: Channel, values, latency: Optional[int] = None) -> "Push":
        if isinstance(values, (list, tuple)):
            return Push(channel, tuple(values), latency)
        return Push(channel, (values,), latency)


class Clock(_Op):
    """End the current simulated cycle (advance by ``cycles``)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int = 1):
        self.cycles = cycles


KernelBody = Generator  # yields Pop/Push/Clock, receives pop results


@dataclass
class BlockedState:
    """Typed record of the op a kernel is currently blocked on.

    Set and cleared by the op interpreter (``WakeListScheduler._step``)
    and read by deadlock diagnostics, the analysis passes and the
    stall-chain profiler.

    ``since`` is the last cycle for which a stall has already been
    charged to the kernel and channel counters.  The dense schedule
    retries a blocked kernel every cycle, so ``since`` tracks the
    current cycle; the wake lists charge lazily (``wake_cycle - since -
    1`` on wake, ``deadlock_cycle - since`` at deadlock) without
    touching blocked kernels every cycle.
    """

    op: object
    channel: Channel
    kind: str                 # "pop" | "push"
    since: int


@dataclass
class KernelStats:
    """Per-kernel activity counters filled in by the engine."""

    active_cycles: int = 0
    stall_cycles: int = 0
    start_cycle: Optional[int] = None
    finish_cycle: Optional[int] = None


class Kernel:
    """A named kernel instance bound to a generator body.

    Parameters
    ----------
    name:
        Diagnostic name (unique within an engine).
    body:
        The generator implementing the kernel.
    latency:
        Default pipeline latency, in cycles, applied to ``Push`` ops that do
        not specify one.  This is the *circuit depth* of Sec. IV of the
        paper: results of the inner-loop circuit emerge this many cycles
        after their operands enter.
    reads / writes:
        Optional *static port annotations* for the pre-flight analyzer
        (:mod:`repro.analysis`): the channels this kernel pops from, and the
        channels it pushes to (each a :class:`WritePort`, a bare channel,
        or a ``(channel, lanes[, latency])`` tuple).  A kernel with no
        annotations is simulated exactly the same but is invisible to the
        static kernel-graph passes.
    defer:
        Reordering window: the number of input elements this kernel must
        consume before it performs its first push (0 for plain streaming
        kernels; ``N * T_N`` for a row-tiled GEMV).  Drives the
        channel-depth sufficiency prover (diagnostic FB003).
    ii:
        Declared initiation interval — the cycles between consecutive
        inputs the module was *designed* for (1 for every
        pipeline-transformed FBLAS module, Sec. IV).  Purely an
        annotation: telemetry compares it against the achieved interval
        (live cycles per work cycle) to expose under-pipelined kernels.
    """

    def __init__(self, name: str, body: KernelBody, latency: int = 1,
                 reads: Sequence[Channel] = (), writes: Sequence = (),
                 defer: int = 0, ii: int = 1, pattern=None):
        if latency < 1:
            raise ValueError(f"kernel {name!r}: latency must be >= 1")
        if defer < 0:
            raise ValueError(f"kernel {name!r}: defer must be >= 0")
        if ii < 1:
            raise ValueError(f"kernel {name!r}: ii must be >= 1")
        self.name = name
        self._bind(body)
        self.latency = latency
        self.ii = ii
        self.reads: Tuple[Channel, ...] = tuple(reads)
        self.writes: Tuple[WritePort, ...] = _normalize_writes(writes)
        self.defer = defer
        # Optional StaticPattern (repro.fpga.pattern): the steady-state
        # op signature the window scheduler replays arithmetically.  Set by
        # Engine.add_kernel from the body's ``pattern`` attribute; None
        # means the kernel is always event-stepped.
        self.pattern = pattern
        self.stats = KernelStats()
        self.done = False
        # Typed blocked-state (None while runnable); see BlockedState.
        self.blocked: Optional[BlockedState] = None
        # Cycles remaining on an explicit Clock(n>1) wait.
        self.sleep_until: int = -1
        # Value delivered at the next generator resume (a completed Pop).
        self._resume_value = None
        # Position in the engine's kernel list; fixes the deterministic
        # step order every scheduler shares.  Set by Engine.add_kernel.
        self.index: int = -1
        # Event-scheduler bookkeeping: the cycle this kernel is queued to
        # run at (None while blocked/idle), the last cycle it was stepped,
        # and whether that step made progress (for trace parity).
        self._queued_for: Optional[int] = None
        self._last_stepped: int = -1
        self._last_progress: bool = False

    def wrap_body(self, wrapper) -> None:
        """Replace the body with ``wrapper(body)`` (fault injection).

        Must be called before the kernel is first stepped.  The wrapped
        generator no longer matches the kernel's declared steady-state
        pattern — an injected freeze or crash breaks the ii=1 cadence the
        window scheduler would replay — so the pattern is cleared: no
        certificate (FB404), exact event stepping.
        """
        self._bind(wrapper(self.body))
        self.pattern = None

    def _bind(self, body) -> None:
        """Install ``body`` and the callable the op interpreter resumes
        it with: a plain :class:`PatternedGenerator` only forwards ``send``,
        so its inner generator is resumed directly."""
        self.body = body
        self._send = (body._gen.send if type(body) is PatternedGenerator
                      else body.send)

    @property
    def annotated(self) -> bool:
        """True when the kernel declared its ports for static analysis."""
        return bool(self.reads or self.writes)

    # -- typed port accessors (consumed by repro.analysis) -------------------
    @property
    def read_channels(self) -> Tuple[Channel, ...]:
        """Channels this kernel declared it pops from."""
        return self.reads

    @property
    def write_ports(self) -> Tuple[WritePort, ...]:
        """Typed output ports this kernel declared it pushes to."""
        return self.writes

    def describe_block(self) -> str:
        """Human-readable description of the blocking op (for deadlocks)."""
        b = self.blocked
        if b is None:
            return "not yet started"
        op = b.op
        if b.kind == "pop":
            return (
                f"pop({op.count}) from {b.channel.name!r} "
                f"(occupancy={b.channel.occupancy})"
            )
        return (
            f"push({len(op.values)}) to {b.channel.name!r} "
            f"(space={b.channel.space()}/{b.channel.depth})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else (
            f"blocked on {self.blocked.op}" if self.blocked else "runnable"
        )
        return f"Kernel({self.name!r}, {state})"
