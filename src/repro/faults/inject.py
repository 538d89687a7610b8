"""The fault injector: arms a plan's faults on one engine for one run.

:class:`FaultInjector` is created by :meth:`Engine._run` (from the
engine's ``fault_plan`` or the ambient :func:`repro.faults.inject`
context) and attached for the duration of the run.  It implements the
three hook surfaces the fpga layer exposes:

* ``Channel.fault_hook.on_push``: corrupt / drop / duplicate the n-th
  element ever pushed on a named channel (the injector keeps its own
  per-channel cursor, advanced by the *original* element count, so the
  coordinate is identical across engine tiers and unaffected by earlier
  drops/dups);
* ``Kernel`` body wrapping: freeze (stretch a ``Clock``) or crash
  (raise :class:`~repro.fpga.errors.KernelCrashError`) at the kernel's
  n-th work cycle;
* ``DramModel.fault_hook.on_memory_cycle``: at each *executed* cycle,
  apply every due one-shot memory fault (bit flips in buffer words, ECC
  events — fatal ones raise :class:`~repro.fpga.errors.EccError`) and
  cap throttled banks' budgets.  "Apply everything due" at executed
  cycles gives dense/event parity for free: grants only ever happen on
  executed cycles, and every schedule executes exactly the cycles on
  which a kernel could act.

Window replay stays exact by construction: faulted kernels lose their
pattern (``wrap_body`` — which refuses the certificate, so ``"bulk"``
steps the run and ``"certified"`` raises), pending channel faults veto
the superstep precheck, and replay windows are clamped so every
memory-fault cycle is an executed cycle (see :mod:`repro.fpga.bulk`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..fpga.errors import EccError, KernelCrashError
from ..fpga.kernel import Clock
from ..telemetry.runtime import active as _telemetry_active
from .metrics import FAULTS_INJECTED, count
from .plan import FaultPlan, flip_bits
from .runtime import InjectionContext

__all__ = ["FaultInjector"]


class FaultInjector:
    """Arms one :class:`FaultPlan` on one engine run."""

    def __init__(self, plan: FaultPlan, engine,
                 ctx: Optional[InjectionContext] = None):
        self.plan = plan
        self.engine = engine
        # Without an ambient context the ledger is private to this run:
        # every one-shot fault fires (at most) once in it.
        self.ctx = ctx if ctx is not None else InjectionContext(plan)
        consumed = self.ctx.consumed
        # Per-channel fault queues (by cumulative push index) and the
        # push-index cursors, for channels this engine actually owns.
        self._chan_queues: Dict[str, List] = {}
        self._cursor: Dict[str, int] = {}
        for f in plan.channel_faults:
            if f not in consumed and f.channel in engine.channels:
                self._chan_queues.setdefault(f.channel, []).append(f)
        for q in self._chan_queues.values():
            q.sort(key=lambda f: f.index)
        # Per-kernel fault lists (by work-cycle index).
        self._kernel_faults: Dict[str, List] = {}
        for f in plan.kernel_faults:
            if f not in consumed and f.kernel in engine.kernels:
                self._kernel_faults.setdefault(f.kernel, []).append(f)
        # One-shot memory events (applied in cycle order at executed
        # cycles) and throttle windows (never ledgered — they are
        # windows in simulated time, re-applied on every run).
        self._mem_queue: List = []
        self._throttles: List = []
        if engine.memory is not None:
            for f in plan.memory_faults:
                if f.kind == "throttle":
                    self._throttles.append(f)
                elif f not in consumed:
                    self._mem_queue.append(f)
            self._mem_queue.sort(key=lambda f: f.cycle)

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> None:
        eng = self.engine
        for name in self._chan_queues:
            ch = eng.channels[name]
            ch.fault_hook = self
            self._cursor[name] = 0
        for name, faults in self._kernel_faults.items():
            k = eng.kernels[name]
            if not k.done:
                k.wrap_body(lambda body, _n=name, _f=faults:
                            self._faulted_body(_n, body, _f))
        if (self._mem_queue or self._throttles) and eng.memory is not None:
            eng.memory.fault_hook = self

    def detach(self) -> None:
        eng = self.engine
        for name in self._chan_queues:
            ch = eng.channels.get(name)
            if ch is not None and ch.fault_hook is self:
                ch.fault_hook = None
        if eng.memory is not None and eng.memory.fault_hook is self:
            eng.memory.fault_hook = None

    def _note(self, fault, cycle: Optional[int], **extra) -> None:
        self.ctx.record(fault, cycle, **extra)
        count(FAULTS_INJECTED, kind=fault.kind)
        tel = _telemetry_active()
        if tel is not None:
            tel.instant(f"fault:{fault.kind}", cycle=cycle, **extra)

    # -- channel faults (Channel.push hook) ---------------------------------
    def on_push(self, ch, values):
        """Disturb ``values`` per the channel's due faults; return the
        (possibly re-sized) element sequence to stage."""
        q = self._chan_queues.get(ch.name)
        base = self._cursor[ch.name]
        n = len(values)
        self._cursor[ch.name] = base + n
        if not q or q[0].index >= base + n:
            return values
        out = list(values)
        hits = [f for f in q if base <= f.index < base + n]
        # Apply highest index first so a drop/dup cannot shift the
        # position of a lower-indexed hit within the same push.
        for f in sorted(hits, key=lambda f: -f.index):
            q.remove(f)
            j = f.index - base
            cyc = self.engine.now
            if j >= len(out):
                # A drop at the same index already removed the element
                # this fault targeted; there is nothing left to disturb.
                self._note(f, cyc, channel=ch.name, index=f.index,
                           voided=True)
                continue
            if f.kind == "corrupt":
                out[j] = flip_bits(out[j], f.bit)
            elif f.kind == "drop":
                del out[j]
            else:                       # dup
                out.insert(j, out[j])
            self._note(f, cyc, channel=ch.name, index=f.index)
        return out

    def pending(self, ch) -> bool:
        """True while unfired faults remain for ``ch`` — the window
        scheduler must event-step this channel until they have all
        fired."""
        return bool(self._chan_queues.get(ch.name))

    # -- kernel faults (body wrapper) ---------------------------------------
    def _faulted_body(self, kname: str, body, faults):
        queue = sorted(faults, key=lambda f: f.at_cycle)
        inj = self

        def gen():
            work = 0                    # completed work cycles
            send_val = None
            while True:
                try:
                    op = body.send(send_val)
                except StopIteration:
                    return
                if isinstance(op, Clock):
                    extra = 0
                    while queue and queue[0].at_cycle < work + op.cycles:
                        f = queue.pop(0)
                        cyc = inj.engine.now
                        if f.kind == "crash":
                            inj._note(f, cyc, kernel=kname,
                                      work_cycle=f.at_cycle)
                            raise KernelCrashError(kname, f.at_cycle)
                        extra += f.cycles
                        inj._note(f, cyc, kernel=kname,
                                  work_cycle=f.at_cycle, frozen=f.cycles)
                    work += op.cycles
                    if extra:
                        send_val = yield Clock(op.cycles + extra)
                    else:
                        send_val = yield op
                else:
                    send_val = yield op

        return gen()

    # -- memory faults (DramModel.begin_cycle hook) -------------------------
    def on_memory_cycle(self, mem, cycle: int) -> None:
        queue = self._mem_queue
        while queue and queue[0].cycle <= cycle:
            f = queue.pop(0)
            buf = mem.buffers.get(f.buffer)
            if buf is None:
                continue                # target absent in this design
            bank = buf.bank
            if f.kind == "bitflip":
                flat = buf.data.reshape(-1)
                idx = f.index % buf.num_elements
                flat[idx] = flip_bits(flat[idx], f.bit)
                self._note(f, cycle, buffer=f.buffer, index=idx)
            else:                       # ecc / ecc_fatal
                if bank is not None:
                    mem.bank_stats[bank].ecc_events += 1
                self._note(f, cycle, buffer=f.buffer, bank=bank)
                if f.kind == "ecc_fatal":
                    raise EccError(f.buffer, bank, cycle)
        for f in self._throttles:
            if f.cycle <= cycle < f.cycle + f.cycles:
                cap = int(mem.bytes_per_cycle * f.factor)
                bank = f.bank % mem.num_banks
                cut = mem._budget[bank] - cap
                if cut > 0:
                    mem._budget[bank] = cap
                    mem._pool_budget = max(0, mem._pool_budget - cut)
                if f not in self.ctx.consumed:
                    # Log the window once per context (not per cycle);
                    # it still caps budgets on every cycle of every run.
                    self._note(f, cycle, bank=bank, cycles=f.cycles,
                               factor=f.factor)

    def throttle_active(self, cycle: int) -> bool:
        return any(f.cycle <= cycle < f.cycle + f.cycles
                   for f in self._throttles)

    def next_memory_event(self, after: int) -> Optional[int]:
        """Earliest memory-fault boundary the window scheduler must
        execute as a real cycle: the next unapplied one-shot event
        (which may already be due), or a throttle window edge at/after
        ``after``.

        Edges are inclusive of ``after`` itself: a throttle beginning
        exactly at the window start would otherwise slip inside it and
        be fast-forwarded at full bandwidth."""
        best = self._mem_queue[0].cycle if self._mem_queue else None
        for f in self._throttles:
            for edge in (f.cycle, f.cycle + f.cycles):
                if edge >= after and (best is None or edge < best):
                    best = edge
        return best
