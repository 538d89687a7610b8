"""Off-chip memory model: channels, placement, bandwidth, I/O accounting.

The model generalizes from the paper's DDR4 boards — 2 (Arria) or 4
(Stratix) modules — to *N pseudo-channels* so the same machinery covers
HBM-class parts (the U280 catalog entry exposes 32 pseudo-channels).
Vocabulary: a *channel* is the unit of independent bandwidth; on the
paper's DDR boards one DDR bank is one channel, so ``bank`` and
``channel`` are interchangeable here and the legacy ``bank`` spelling is
kept throughout the API.  A :class:`Placement` says which channels a
buffer's traffic is allowed to draw from:

* ``Placement.single(c)`` — the buffer lives in one channel (the manual
  allocation the Stratix BSP forces; two kernels touching the same
  channel contend for its bandwidth, the effect behind the paper's
  Sec. VI-C AXPYDOT speedup going from 3x to 4x);
* ``Placement.striped(channels)`` — the buffer's traffic spreads over an
  explicit set of K channels, drawing from each member's budget;
* ``Placement.channel_range(start, stop)`` — striped over the contiguous
  block ``[start, stop)``, the shape HBM placement tools emit.

The model stays deliberately simple and countable:

* each channel grants at most ``bytes_per_cycle`` bytes per simulated
  cycle; striped buffers draw from their member channels' budgets;
* a buffer allocated with neither a bank nor a placement is round-robin
  placed (or pooled across all channels when ``interleaving`` is on);
* every element moved is counted, giving the *number of memory I/O
  operations* the paper's Sec. V analysis reasons about.

Interface kernels (:func:`read_kernel`, :func:`write_kernel`) bridge DRAM
and channels: they are the circles of the paper's MDAG figures.  Each is
one :class:`~repro.fpga.pattern.SteadyLoop` whose body is the buffer
access, a slice or a gather / scatter through the order's index array:
the same body moves a stepped burst, as much of it as the bank grants,
and a replayed window of full bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import StreamOrderError, check_stream_geometry
from .kernel import Clock, Pop
from .pattern import DramTraffic, PatternedGenerator, SteadyLoop


@dataclass(frozen=True)
class Placement:
    """Which memory channels a DRAM buffer may draw bandwidth from.

    ``kind`` is one of ``"single"``, ``"striped"`` or ``"range"``;
    ``channels`` is the ordered tuple of member channel indices.  Use the
    constructors rather than the raw dataclass so the invariants hold.
    """

    kind: str
    channels: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("single", "striped", "range"):
            raise ValueError(f"unknown placement kind {self.kind!r}")
        if not self.channels:
            raise ValueError("placement needs at least one channel")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("placement channels must be distinct")
        if any(c < 0 for c in self.channels):
            raise ValueError("placement channels must be non-negative")
        if self.kind == "single" and len(self.channels) != 1:
            raise ValueError("single placement takes exactly one channel")

    @classmethod
    def single(cls, channel: int) -> "Placement":
        """The buffer lives entirely in one channel."""
        return cls("single", (int(channel),))

    @classmethod
    def striped(cls, channels: Iterable[int]) -> "Placement":
        """The buffer's traffic spreads over an explicit channel set."""
        return cls("striped", tuple(int(c) for c in channels))

    @classmethod
    def channel_range(cls, start: int, stop: int) -> "Placement":
        """Striped over the contiguous channel block ``[start, stop)``."""
        if stop <= start:
            raise ValueError("empty channel range")
        return cls("range", tuple(range(int(start), int(stop))))

    def describe(self) -> str:
        """Compact human label (``ch3``, ``striped[0,2]``, ``range[0:4]``)."""
        if self.kind == "single":
            return f"ch{self.channels[0]}"
        if self.kind == "range":
            return f"range[{self.channels[0]}:{self.channels[-1] + 1}]"
        return "striped[" + ",".join(str(c) for c in self.channels) + "]"


def stripe_split(channels, need: int, budget):
    """``(channel, bytes)`` a striped request for ``need`` bytes draws:
    each member channel in order gives what is left of ``budget[c]``."""
    for c in channels:
        take = min(need, budget[c])
        if take > 0:
            need -= take
            yield c, take


@dataclass
class BankStats:
    bytes_read: int = 0
    bytes_written: int = 0
    denied_cycles: int = 0
    #: Cycles in which this bank granted at least one byte.
    busy_cycles: int = 0
    #: ECC events recorded against this bank (injected by repro.faults).
    ecc_events: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


class DramBuffer:
    """A named allocation in device DRAM.

    ``data`` is the backing numpy array (the "device memory").  ``bank`` is
    the channel index for single-channel buffers, or ``None`` when the
    buffer is interleaved (pooled) or striped over several channels; the
    full story lives in ``placement`` (``None`` means pooled/interleaved).
    """

    def __init__(self, name: str, data: np.ndarray, bank: Optional[int],
                 placement: Optional[Placement] = None):
        if placement is None and bank is not None:
            placement = Placement.single(bank)
        if placement is not None and placement.kind == "single":
            bank = placement.channels[0]
        self.name = name
        self.data = data
        self.bank = bank
        self.placement = placement
        self.elements_read = 0
        self.elements_written = 0

    @property
    def itemsize(self) -> int:
        return self.data.itemsize

    @property
    def num_elements(self) -> int:
        return self.data.size


class DramModel:
    """N-channel DRAM/HBM with per-channel per-cycle bandwidth budgets.

    Parameters
    ----------
    num_banks:
        Number of memory channels on the board (DDR modules on the
        paper's boards, pseudo-channels on HBM parts).
    bytes_per_cycle:
        Peak bytes one channel can move per FPGA clock cycle (channel
        bandwidth divided by design frequency).
    interleaving:
        When True, buffers allocated without an explicit bank or
        placement are striped across all channels and draw from the
        pooled budget.
    """

    def __init__(self, num_banks: int = 4, bytes_per_cycle: int = 64,
                 interleaving: bool = False, stride_penalty: float = 2.0,
                 device: Optional[str] = None):
        if num_banks < 1:
            raise ValueError("need at least one DRAM bank")
        if bytes_per_cycle < 1:
            raise ValueError("bytes_per_cycle must be positive")
        if stride_penalty < 1.0:
            raise ValueError("stride_penalty must be >= 1")
        self.num_banks = num_banks
        self.bytes_per_cycle = bytes_per_cycle
        self.interleaving = interleaving
        #: Device-catalog identity of the board this DRAM belongs to.
        #: Participates in the structural ``plan_key`` so a schedule
        #: certified against one device is never replayed on another.
        self.device_label = (device if device is not None
                             else f"generic-dram-{num_banks}"
                                  f"x{bytes_per_cycle}")
        #: Budget multiplier charged for non-contiguous accesses: strided
        #: bursts waste DRAM row activations, so a gather of k elements
        #: costs ``stride_penalty * k`` elements of budget (the effect
        #: behind the paper's note that striped accesses inferred as
        #: unaligned cost the HyperFlex optimization).
        self.stride_penalty = stride_penalty
        self.buffers: Dict[str, DramBuffer] = {}
        # placement_summary() of the current layout; bind and release
        # drop it.
        self._summary: Optional[dict] = None
        self.bank_stats = [BankStats() for _ in range(num_banks)]
        self._budget = [0] * num_banks
        self._pool_budget = 0
        self._next_bank = 0
        self._cycle = 0
        # Last cycle each bank was charged a busy cycle (so several
        # grants in one cycle count once).
        self._busy_mark = [-1] * num_banks
        # Per-channel raw grants of the most recent _grant call, so the
        # read/write wrappers can attribute useful bytes per channel.
        self._last_grants: List[Tuple[int, int]] = []
        # Fault-injection hook (repro.faults.FaultInjector); when set,
        # begin_cycle lets it flip DRAM bits, raise ECC events and cap
        # bank budgets for the cycle.  None outside an injected run.
        self.fault_hook = None
        self.begin_cycle(0)

    # -- allocation ---------------------------------------------------------
    def allocate(self, name: str, shape, dtype=np.float32,
                 bank: Optional[int] = None,
                 placement: Optional[Placement] = None) -> DramBuffer:
        """Allocate a zero-initialised buffer."""
        return self.bind(name, np.zeros(shape, dtype=dtype), bank,
                         placement=placement)

    def bind(self, name: str, data: np.ndarray,
             bank: Optional[int] = None,
             placement: Optional[Placement] = None) -> DramBuffer:
        """Place an existing array in DRAM (copying host data to device).

        ``placement`` pins the buffer to an explicit channel set;
        ``bank=k`` is shorthand for ``Placement.single(k)``.  With
        neither, the buffer is round-robin placed (or pooled when
        ``interleaving`` is on).
        """
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        if placement is not None:
            if bank is not None and placement != Placement.single(bank):
                raise ValueError(
                    f"buffer {name!r}: bank={bank} contradicts placement "
                    f"{placement.describe()}")
            for c in placement.channels:
                if not (0 <= c < self.num_banks):
                    raise ValueError(
                        f"placement channel {c} out of range "
                        f"[0,{self.num_banks})")
        elif bank is not None:
            if not (0 <= bank < self.num_banks):
                raise ValueError(
                    f"bank {bank} out of range [0,{self.num_banks})")
        elif not self.interleaving:
            # Round-robin placement, mirroring manual allocation on the
            # Stratix board where interleaving is disabled.
            bank = self._next_bank
            self._next_bank = (self._next_bank + 1) % self.num_banks
        buf = DramBuffer(name, np.array(data, copy=True), bank, placement)
        self.buffers[name] = buf
        self._summary = None
        return buf

    def release(self, name: str) -> None:
        """Drop a bound buffer, freeing its name for rebinding.

        Long-lived device contexts that churn through per-request
        buffers (e.g. service workers) must release them: checkpoints
        snapshot *every* bound buffer, so leaking one per request makes
        checkpoint capture grow without bound.  Releasing an unknown
        name raises ``KeyError``; kernels holding views of a released
        buffer keep their (now unbound) storage alive.
        """
        del self.buffers[name]
        self._summary = None

    # -- per-cycle bandwidth ------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Reset bandwidth budgets; called by the engine each clock edge."""
        if cycle < self._cycle:
            # A new engine run restarted the clock; the busy marks refer
            # to the previous run's cycle numbers.
            for b in range(self.num_banks):
                self._busy_mark[b] = -1
        self._cycle = cycle
        for b in range(self.num_banks):
            self._budget[b] = self.bytes_per_cycle
        self._pool_budget = self.num_banks * self.bytes_per_cycle
        if self.fault_hook is not None:
            self.fault_hook.on_memory_cycle(self, cycle)

    def _grant(self, buf: DramBuffer, nbytes: int) -> int:
        self._last_grants = []
        pl = buf.placement
        if pl is not None and len(pl.channels) > 1:
            # Striped/range placement: draw from each member channel's
            # remaining budget in order until the request is met.
            granted = 0
            for c, take in stripe_split(pl.channels, nbytes, self._budget):
                self._budget[c] -= take
                self._pool_budget = max(0, self._pool_budget - take)
                if self._busy_mark[c] != self._cycle:
                    self._busy_mark[c] = self._cycle
                    self.bank_stats[c].busy_cycles += 1
                self._last_grants.append((c, take))
                granted += take
            if granted == 0 and nbytes > 0:
                for c in pl.channels:
                    self.bank_stats[c].denied_cycles += 1
        elif buf.bank is None:
            granted = min(nbytes, self._pool_budget)
            self._pool_budget -= granted
        else:
            granted = min(nbytes, self._budget[buf.bank])
            self._budget[buf.bank] -= granted
            # Interleaved traffic shares the same physical pins.
            self._pool_budget = max(0, self._pool_budget - granted)
            if granted == 0:
                self.bank_stats[buf.bank].denied_cycles += 1
            else:
                self._last_grants.append((buf.bank, granted))
                if self._busy_mark[buf.bank] != self._cycle:
                    self._busy_mark[buf.bank] = self._cycle
                    self.bank_stats[buf.bank].busy_cycles += 1
        return granted

    def request_read(self, buf: DramBuffer, nbytes: int,
                     contiguous: bool = True) -> int:
        """Grant up to ``nbytes`` of read budget this cycle.

        Non-contiguous (gather) accesses are charged ``stride_penalty``x
        budget per useful byte, halving the effective bandwidth at the
        default penalty.
        """
        factor = 1.0 if contiguous else self.stride_penalty
        granted = int(self._grant(buf, int(nbytes * factor)) // factor)
        for c, raw in self._last_grants:
            self.bank_stats[c].bytes_read += int(raw // factor)
        return granted

    def request_write(self, buf: DramBuffer, nbytes: int) -> int:
        """Grant up to ``nbytes`` of write budget (a store is never
        charged the stride penalty)."""
        granted = self._grant(buf, nbytes)
        for c, raw in self._last_grants:
            self.bank_stats[c].bytes_written += raw
        return granted

    # -- accounting ---------------------------------------------------------
    def placement_summary(self) -> dict:
        """Compact description of where every buffer lives.

        The run ledger stamps this on each :class:`RunRecord` so fleet
        reports can split results by device and memory layout.  It is
        built once per layout — :meth:`bind` and :meth:`release` drop
        it — and shared by every run on that layout: read it, never
        mutate it.
        """
        if self._summary is not None:
            return self._summary
        by_kind: Dict[str, int] = {}
        placements: Dict[str, str] = {}
        for name, buf in self.buffers.items():
            kind = ("interleaved" if buf.placement is None
                    else buf.placement.kind)
            by_kind[kind] = by_kind.get(kind, 0) + 1
            placements[name] = ("interleaved" if buf.placement is None
                                else buf.placement.describe())
        self._summary = {
            "device": self.device_label,
            "channels": self.num_banks,
            "buffers": len(self.buffers),
            "by_kind": by_kind,
            "placements": placements,
        }
        return self._summary

    @property
    def total_elements_moved(self) -> int:
        """Total memory I/O operations (element reads + writes) so far."""
        return sum(b.elements_read + b.elements_written
                   for b in self.buffers.values())


# ---------------------------------------------------------------------------
# Interface kernels (the MDAG "circle" nodes)
# ---------------------------------------------------------------------------

def _index_array(order, buf: DramBuffer, count: Optional[int] = None):
    """``order`` as an int index array checked against ``buf`` (and a
    write's ``count``), or ``None`` for the identity: no order, or a
    unit-stride range from 0 over the whole buffer (read) or ``count``
    (write), as the host's stride plumbing emits for ``inc == 1``."""
    n = buf.num_elements if count is None else count
    if order is None or (isinstance(order, range) and order == range(n)):
        if n > buf.num_elements:
            raise StreamOrderError(
                f"write of {n} elements overruns buffer {buf.name!r} of "
                f"{buf.num_elements} elements")
        return None
    idx = (np.asarray(order) if hasattr(order, "__len__")
           else np.fromiter(order, dtype=np.intp))
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise StreamOrderError(
            f"order for buffer {buf.name!r} must be a flat sequence of "
            f"integer indices")
    if count is not None and len(idx) != count:
        raise StreamOrderError(
            f"order for buffer {buf.name!r} holds {len(idx)} indices; "
            f"the kernel stores {count} elements")
    bad = idx[(idx < 0) | (idx >= buf.num_elements)]
    if bad.size:
        raise StreamOrderError(
            f"order index {int(bad[0])} is outside buffer {buf.name!r} "
            f"of {buf.num_elements} elements")
    return idx.astype(np.intp, copy=False)


def read_kernel(mem: DramModel, buf: DramBuffer, ch, width: int = 1,
                order: Optional[Iterable[int]] = None, repeat: int = 1):
    """Stream ``buf`` into ``ch``, ``width`` elements per cycle at most.

    ``order`` is an iterable of flat indices defining the streaming order
    (e.g. a tiled schedule from :mod:`repro.streaming.tiling`; default
    linear); ``repeat`` replays it that many times (Sec. III-B).  The
    kernel is one :class:`~repro.fpga.pattern.SteadyLoop` over the
    ``n * repeat`` elements, each pass a segment: its ``lanes`` hook
    asks the bank for the next burst (a gather burst pays the stride
    penalty) and its body pushes ``flat[lo:lo + m]`` or
    ``flat[idx[lo:lo + m]]``, a stepped burst as granted or a replayed
    window.  An order whose aligned bursts cross a stride break declares
    ``"gather"`` traffic.  Bad geometry raises
    :class:`~repro.fpga.errors.StreamOrderError` here.
    """
    check_stream_geometry("read_kernel", width, repeat=repeat)
    idx = _index_array(order, buf)
    itemsize = buf.itemsize
    flat = buf.data.reshape(-1)
    n, kind = buf.num_elements, "read"
    if idx is not None:
        n = len(idx)
        # br[j]: stride breaks among idx[0 .. j], so the burst idx[a:b] is
        # contiguous iff br[b - 1] == br[a].  An int32 memoryview indexes
        # to plain ints at 4 bytes per element (a list costs 8, plus an
        # int object per count above 256).
        br = np.cumsum(np.diff(idx, prepend=idx[:1] - 1) != 1,
                       dtype=np.int32)
        breaks = memoryview(br)
        if (br[width - 1::width] != br[:n - width + 1:width]).any():
            kind = "gather"

    def grant(base, c):
        lo = base % n
        got = mem.request_read(
            buf, c * itemsize,
            contiguous=idx is None or breaks[lo + c - 1] == breaks[lo]
        ) // itemsize
        # After a short grant the next cycles are not statically full;
        # an ordered burst off the grid is not one ``kind`` classed.
        return got, got < c or (idx is not None and (lo + got) % width != 0)

    def body(_ins, base, m, _lanes):
        buf.elements_read += m
        lo = base % n
        return [flat[lo:lo + m] if idx is None else flat[idx[lo:lo + m]]]

    # Each pass is a segment, started with a stepped burst, so a window
    # never runs through a pass end (ROADMAP item 20).
    loop = SteadyLoop("read_kernel", body, writes=(ch,), count=n * repeat,
                      width=width, latency=1,
                      segment=n if repeat > 1 else None, lanes=grant)
    traffic = DramTraffic(mem, buf, width, kind)
    traffic.order = idx
    loop.dram = (traffic,)
    loop.timing = ("read", repeat, idx is None)
    return PatternedGenerator(loop.run(), loop)


def write_kernel(mem: DramModel, buf: DramBuffer, ch, count: int,
                 width: int = 1, order: Optional[Iterable[int]] = None):
    """Drain ``count`` elements from ``ch`` into ``buf``.

    ``order`` gives the flat destination index of each received element
    (default: linear), exactly ``count`` of them.  The kernel is a
    :class:`~repro.fpga.pattern.SteadyLoop` whose body is the one store
    (a slice or a scatter); a window replays it over ``k`` bursts.
    Stepped, each cycle tops a staging register up with what the
    channel has delivered (up to ``width`` elements), stores what the
    bank grants through the same body and carries the rest, so partial
    grants and a slower producer do not halve the write rate; a carry
    holds the loop (``ready()`` is 0).  As for :func:`read_kernel`,
    every order is patterned (a store pays no stride penalty), and bad
    geometry raises :class:`~repro.fpga.errors.StreamOrderError` here.
    """
    check_stream_geometry("write_kernel", width, count=count)
    idx = _index_array(order, buf, count)
    itemsize = buf.itemsize
    flat = buf.data.reshape(-1)

    def body(ins, base, m, _lanes):
        # When ``ins[0]`` is a view of this same buffer (an in-place map
        # fed by the linear read kernel) numpy buffers overlapping
        # operands, and a window is a pure elementwise map of elements
        # at or ahead of ``base``, so the result is the same.  A
        # scatter's in-place twin is a gather, hence never a view.
        flat[slice(base, base + m) if idx is None
             else idx[base:base + m]] = ins[0][:m]
        buf.elements_written += m
        return ()

    loop = SteadyLoop("write_kernel", body, (ch,), count=count, width=width)
    traffic = DramTraffic(mem, buf, width, "write")
    traffic.order = idx
    loop.dram = (traffic,)
    loop.timing = ("write", idx is None)

    def stage():
        reg = []                        # popped, not yet stored
        clock = Clock()
        while loop.done < count:
            size = len(reg)
            left = count - loop.done - size
            if left and size < width:
                # Top up with what is visible; block for one element
                # when empty (avoids busy-spin).
                avail = min(ch.occupancy, width - size, left)
                if avail == 0 and not size:
                    avail = 1
                if avail == 1:
                    reg.append((yield Pop(ch, 1)))
                elif avail:
                    reg.extend((yield Pop(ch, avail)))
            size = len(reg)
            got = mem.request_write(buf, size * itemsize) // itemsize
            if got:
                body((reg,), loop.done, got, got)
                loop.done += got
                del reg[:got]
            loop.held = got < size      # a carry: no window until stored
            yield clock

    return PatternedGenerator(stage(), loop)
