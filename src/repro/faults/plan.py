"""Deterministic fault plans: what goes wrong, where, and exactly when.

A :class:`FaultPlan` is a *pure value*: three tuples of frozen fault
records, ordered deterministically.  :meth:`FaultPlan.generate` derives a
plan from a seed with a private :class:`random.Random` instance — no
global RNG is touched, so the same seed and target lists always produce
the same plan, and a plan serializes losslessly through
:meth:`to_dict` / :meth:`from_dict` (schema ``repro.faultplan/1``).

Fault coordinates are chosen to be *engine-mode independent*:

* channel faults key on the **cumulative push index** of a named channel
  (the n-th element ever pushed), which is identical across the dense
  and event cores and the window scheduler;
* kernel faults key on the kernel's **work-cycle index** (its n-th
  ``Clock`` yield), again identical across cores;
* memory faults key on the simulated **cycle**, and are applied as
  "latest by cycle t" so the event core's sparse execution observes the
  same effects as the dense schedule's exhaustive one.

The window scheduler falls back to exact event stepping whenever a
fault could fire inside a candidate window (see :mod:`repro.fpga.bulk`),
which is what keeps every engine mode byte-identical under the same
plan.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CHANNEL_FAULT_KINDS", "ChannelFault", "FAULT_PLAN_SCHEMA", "FaultPlan",
    "KERNEL_FAULT_KINDS", "KernelFault", "MEMORY_FAULT_KINDS", "MemoryFault",
    "flip_bits",
]

#: Schema tag of :meth:`FaultPlan.to_dict` documents.
FAULT_PLAN_SCHEMA = "repro.faultplan/1"

CHANNEL_FAULT_KINDS = ("corrupt", "drop", "dup")
KERNEL_FAULT_KINDS = ("freeze", "crash")
MEMORY_FAULT_KINDS = ("bitflip", "ecc", "ecc_fatal", "throttle")

#: Fault kinds that cannot prevent an otherwise-valid run from
#: completing with the same element counts (used by the differential
#: tests: drop/dup change stream lengths, crash/ecc_fatal abort runs).
COMPLETION_SAFE_KINDS = ("corrupt", "freeze", "bitflip", "ecc", "throttle")


def flip_bits(value, bit: int):
    """Flip one bit of a numeric value, preserving its type.

    Integers flip the bit directly; floats flip a bit of their IEEE-754
    representation (float32 values use the 32-bit pattern, everything
    else the 64-bit one).  This is the SEU model: a single upset in a
    register or a DRAM word.
    """
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, (int, np.integer)):
        return type(value)(int(value) ^ (1 << (bit % 64)))
    if isinstance(value, np.float32):
        raw = np.float32(value).view(np.uint32)
        return np.uint32(int(raw) ^ (1 << (bit % 32))).view(np.float32)
    if isinstance(value, np.floating):
        raw = np.float64(value).view(np.uint64)
        return type(value)(
            np.uint64(int(raw) ^ (1 << (bit % 64))).view(np.float64))
    if isinstance(value, float):
        (raw,) = struct.unpack("<Q", struct.pack("<d", value))
        return struct.unpack("<d", struct.pack("<Q",
                                               raw ^ (1 << (bit % 64))))[0]
    # Non-numeric payloads (tests push sentinels): negate-by-identity.
    return value


@dataclass(frozen=True)
class ChannelFault:
    """Disturb the ``index``-th element ever pushed on ``channel``.

    ``corrupt`` flips bit ``bit`` of the element; ``drop`` removes it
    from the stream; ``dup`` pushes it twice.
    """

    channel: str
    index: int
    kind: str
    bit: int = 0

    def __post_init__(self):
        if self.kind not in CHANNEL_FAULT_KINDS:
            raise ValueError(f"unknown channel fault kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("channel fault index must be >= 0")


@dataclass(frozen=True)
class KernelFault:
    """Disturb ``kernel`` at its ``at_cycle``-th work cycle.

    ``freeze`` stalls the kernel's pipeline for ``cycles`` extra cycles
    (its ``Clock`` is stretched); ``crash`` raises
    :class:`~repro.fpga.errors.KernelCrashError` out of the kernel body —
    the transient-fault trigger the host recovery policies respond to.
    """

    kernel: str
    at_cycle: int
    kind: str
    cycles: int = 0

    def __post_init__(self):
        if self.kind not in KERNEL_FAULT_KINDS:
            raise ValueError(f"unknown kernel fault kind {self.kind!r}")
        if self.kind == "freeze" and self.cycles < 1:
            raise ValueError("freeze fault needs cycles >= 1")
        if self.at_cycle < 0:
            raise ValueError("kernel fault at_cycle must be >= 0")


@dataclass(frozen=True)
class MemoryFault:
    """Disturb the DRAM model at simulated ``cycle``.

    ``bitflip`` flips bit ``bit`` of element ``index`` of buffer
    ``buffer`` (an SEU in a DRAM word); ``ecc`` records a *corrected* ECC
    event against the buffer's bank (counter only); ``ecc_fatal`` raises
    :class:`~repro.fpga.errors.EccError` (uncorrectable); ``throttle``
    caps the bank's per-cycle byte budget at ``factor`` of nominal for
    ``cycles`` cycles (a thermally throttled or contended bank).
    """

    kind: str
    cycle: int
    buffer: str = ""
    index: int = 0
    bit: int = 0
    bank: int = 0
    cycles: int = 0
    factor: float = 0.0

    def __post_init__(self):
        if self.kind not in MEMORY_FAULT_KINDS:
            raise ValueError(f"unknown memory fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("memory fault cycle must be >= 0")
        if self.kind == "throttle":
            if self.cycles < 1:
                raise ValueError("throttle fault needs cycles >= 1")
            if not 0.0 <= self.factor < 1.0:
                raise ValueError("throttle factor must be in [0, 1)")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic disturbance schedule for one run scope."""

    seed: int = 0
    channel_faults: Tuple[ChannelFault, ...] = ()
    kernel_faults: Tuple[KernelFault, ...] = ()
    memory_faults: Tuple[MemoryFault, ...] = field(default=())

    def __len__(self) -> int:
        return (len(self.channel_faults) + len(self.kernel_faults)
                + len(self.memory_faults))

    def __bool__(self) -> bool:
        return len(self) > 0

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultPlan":
        return cls(seed=seed)

    # -- generation --------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, *,
                 channels: Sequence[str] = (),
                 kernels: Sequence[str] = (),
                 buffers: Sequence[str] = (),
                 banks: int = 1,
                 n_faults: int = 3,
                 element_horizon: int = 512,
                 cycle_horizon: int = 2048,
                 kinds: Optional[Sequence[str]] = None) -> "FaultPlan":
        """Derive a plan from ``seed`` — a pure function of its arguments.

        ``kinds`` restricts the fault vocabulary (default: every kind
        whose target list is non-empty).  ``element_horizon`` bounds
        channel push indices, ``cycle_horizon`` memory-fault cycles and
        kernel work cycles.
        """
        rng = random.Random(seed)
        allowed = list(kinds) if kinds is not None else (
            list(CHANNEL_FAULT_KINDS) + list(KERNEL_FAULT_KINDS)
            + list(MEMORY_FAULT_KINDS))
        menu = []
        for k in allowed:
            if k in CHANNEL_FAULT_KINDS and channels:
                menu.append(k)
            elif k in KERNEL_FAULT_KINDS and kernels:
                menu.append(k)
            elif k == "throttle":
                menu.append(k)
            elif k in MEMORY_FAULT_KINDS and buffers:
                menu.append(k)
        ch_faults, k_faults, m_faults = [], [], []
        seen = set()
        for _ in range(n_faults):
            if not menu:
                break
            kind = rng.choice(menu)
            if kind in CHANNEL_FAULT_KINDS:
                f = ChannelFault(
                    channel=rng.choice(list(channels)),
                    index=rng.randrange(element_horizon),
                    kind=kind,
                    bit=rng.randrange(64))
                bucket = ch_faults
            elif kind in KERNEL_FAULT_KINDS:
                f = KernelFault(
                    kernel=rng.choice(list(kernels)),
                    at_cycle=rng.randrange(cycle_horizon),
                    kind=kind,
                    cycles=rng.randrange(4, 64) if kind == "freeze" else 0)
                bucket = k_faults
            elif kind == "throttle":
                f = MemoryFault(
                    kind=kind, cycle=rng.randrange(cycle_horizon),
                    bank=rng.randrange(max(1, banks)),
                    cycles=rng.randrange(16, 128),
                    factor=rng.choice((0.0, 0.25, 0.5)))
                bucket = m_faults
            else:
                f = MemoryFault(
                    kind=kind, cycle=rng.randrange(cycle_horizon),
                    buffer=rng.choice(list(buffers)),
                    index=rng.randrange(element_horizon),
                    bit=rng.randrange(64))
                bucket = m_faults
            if f in seen:
                continue
            seen.add(f)
            bucket.append(f)
        key = lambda f: tuple(  # noqa: E731 - stable deterministic order
            (v if v is not None else "") for v in vars(f).values())
        return cls(seed=seed,
                   channel_faults=tuple(sorted(ch_faults, key=key)),
                   kernel_faults=tuple(sorted(k_faults, key=key)),
                   memory_faults=tuple(sorted(m_faults, key=key)))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "channel_faults": [vars(f).copy() for f in self.channel_faults],
            "kernel_faults": [vars(f).copy() for f in self.kernel_faults],
            "memory_faults": [vars(f).copy() for f in self.memory_faults],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            seed=d.get("seed", 0),
            channel_faults=tuple(ChannelFault(**f)
                                 for f in d.get("channel_faults", ())),
            kernel_faults=tuple(KernelFault(**f)
                                for f in d.get("kernel_faults", ())),
            memory_faults=tuple(MemoryFault(**f)
                                for f in d.get("memory_faults", ())),
        )

    def describe(self) -> str:
        lines = [f"fault plan (seed {self.seed}, {len(self)} faults):"]
        for f in self.channel_faults:
            lines.append(f"  channel {f.channel!r} element {f.index}: "
                         f"{f.kind}" + (f" bit {f.bit}"
                                        if f.kind == "corrupt" else ""))
        for f in self.kernel_faults:
            what = (f"freeze {f.cycles} cycles" if f.kind == "freeze"
                    else "crash")
            lines.append(f"  kernel {f.kernel!r} work cycle {f.at_cycle}: "
                         f"{what}")
        for f in self.memory_faults:
            if f.kind == "throttle":
                lines.append(
                    f"  bank {f.bank} cycles [{f.cycle}, "
                    f"{f.cycle + f.cycles}): throttle to "
                    f"{f.factor:.0%} bandwidth")
            else:
                lines.append(
                    f"  buffer {f.buffer!r} element {f.index} at cycle "
                    f"{f.cycle}: {f.kind}"
                    + (f" bit {f.bit}" if f.kind == "bitflip" else ""))
        return "\n".join(lines)
