"""Host-level recovery policies: retry, checkpoint/restart, demotion.

The recovery ladder, mirroring what a resilient FPGA host runtime does:

1. **Bounded retry with exponential backoff** on
   :class:`~repro.fpga.errors.TransientFaultError` (injected kernel
   crashes, uncorrectable ECC): the fault was transient — the one-shot
   ledger of the ambient :class:`~repro.faults.runtime.InjectionContext`
   guarantees it does not replay — so re-running the computation from
   the last quiescent state succeeds.
2. **Checkpoint/restart**: a :class:`MemoryCheckpoint` captured at a
   quiescent point (before the run, or between plan components in the
   streaming executor) restores device buffers and I/O counters before
   each retry, so a bit flipped or half-written after the checkpoint
   cannot leak into the re-run.
3. **Graceful degradation** on :class:`~repro.fpga.errors.SimulationError`
   (a livelock/timeout watchdog trip): demote the engine tier
   ``certified | bulk -> event -> dense`` and try again — the dense reference core is the last resort
   that trades all performance for maximal simplicity.

:class:`~repro.fpga.errors.DeadlockError` is deliberately **not**
recovered: a deadlock is a deterministic property of the composition
(Sec. V), so it propagates immediately with its
:class:`~repro.fpga.errors.HangReport` attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..fpga.errors import (DeadlineExceeded, DeadlockError, SimulationError,
                           TransientFaultError)
from ..telemetry.ledger import current_run_id
from .metrics import DEMOTIONS, RETRIES, count
from .runtime import active as _faults_active

__all__ = ["DEMOTION", "MemoryCheckpoint", "RecoveryOutcome", "RetryPolicy",
           "run_with_recovery"]

#: The degradation ladder: which tier a failing mode falls back to.
DEMOTION = {"certified": "event", "bulk": "event", "event": "dense"}


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the recovery ladder."""

    #: Retries after transient faults (shared budget across the ladder).
    max_retries: int = 2
    #: First backoff delay, in seconds (recorded always, slept only
    #: when ``sleep`` is True — simulations should not wall-clock wait).
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    sleep: bool = False
    #: Demote the engine tier on SimulationError (watchdog/fast-path).
    demote: bool = True


@dataclass
class RecoveryOutcome:
    """What the recovery ladder did to produce (or fail) a result."""

    result: object = None
    #: The engine mode that finally succeeded (or last tried).
    mode: str = "event"
    retries: int = 0
    demotions: int = 0
    #: Chronological action log: dicts with ``action`` ("retry" |
    #: "demote"), the triggering error type, and backoff/mode details.
    actions: List[Dict] = field(default_factory=list)
    #: Correlation id of the request the ladder ran under (the ambient
    #: :func:`repro.telemetry.ledger.current_run_id` when recovery
    #: started), joining this outcome against its run-ledger record.
    run_id: Optional[str] = None

    @property
    def recovered(self) -> bool:
        """True when the run needed (and survived) recovery actions."""
        return bool(self.actions)

    def to_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "retries": self.retries,
            "demotions": self.demotions,
            "recovered": self.recovered,
            "actions": list(self.actions),
        }
        # Correlated only under a telemetry session; uncorrelated
        # outcomes keep their pre-ledger shape.
        if self.run_id is not None:
            doc["run_id"] = self.run_id
        return doc


class MemoryCheckpoint:
    """Snapshot of a :class:`~repro.fpga.memory.DramModel` at a quiescent
    point, restorable before a retry.

    Captures buffer contents and per-buffer I/O counters *in place*
    (restore writes into the existing arrays, so kernels and patterns
    holding views keep aliasing the same storage) plus the bank traffic
    counters, so a restored-and-rerun attempt produces the same
    statistics a clean first run would have.
    """

    def __init__(self, mem):
        self.mem = mem
        self._data = {name: buf.data.copy()
                      for name, buf in mem.buffers.items()}
        self._io = {name: (buf.elements_read, buf.elements_written)
                    for name, buf in mem.buffers.items()}
        self._banks = [(b.bytes_read, b.bytes_written, b.denied_cycles,
                        b.busy_cycles, b.ecc_events)
                       for b in mem.bank_stats]

    @classmethod
    def capture(cls, mem) -> Optional["MemoryCheckpoint"]:
        return cls(mem) if mem is not None else None

    def restore(self) -> None:
        mem = self.mem
        for name, saved in self._data.items():
            buf = mem.buffers.get(name)
            if buf is not None:
                buf.data[...] = saved
        for name, (r, w) in self._io.items():
            buf = mem.buffers.get(name)
            if buf is not None:
                buf.elements_read = r
                buf.elements_written = w
        for b, (r, w, d, u, e) in zip(mem.bank_stats, self._banks):
            b.bytes_read, b.bytes_written = r, w
            b.denied_cycles, b.busy_cycles, b.ecc_events = d, u, e


def run_with_recovery(attempt: Callable[[str], object],
                      policy: Optional[RetryPolicy] = None,
                      mode: str = "event",
                      restore: Optional[Callable[[], None]] = None,
                      deadline_s: Optional[float] = None,
                      clock: Callable[[], float] = time.monotonic,
                      ) -> RecoveryOutcome:
    """Drive ``attempt(mode)`` through the recovery ladder.

    ``attempt`` must rebuild its design from scratch on every call (the
    host API and executor rebuild kernels per invocation, so generators
    are never resumed twice).  ``restore`` — typically a
    :meth:`MemoryCheckpoint.restore` — is invoked before every re-run.
    Unrecoverable errors (deadlocks, exhausted retry budget, dense-tier
    failures) propagate to the caller.

    ``deadline_s`` bounds the **total wall-clock time across retries**:
    before the first attempt and before every re-attempt the elapsed
    time (per ``clock``, injectable for tests) is checked against the
    deadline, and an expired budget raises
    :class:`~repro.fpga.errors.DeadlineExceeded` — chained to the error
    that triggered the re-attempt, so forensics keep the root cause.  A
    completed attempt is never discarded: the deadline stops *further
    recovery work*, it does not throw away a result that arrived late.
    The ledger classifies the outcome as ``"deadline"``, distinct from
    ``"deadlock"`` (a deterministic design property) — one is a policy
    budget, the other a proof.
    """
    policy = policy or RetryPolicy()
    out = RecoveryOutcome(mode=mode, run_id=current_run_id())
    budget = policy.max_retries
    delay = policy.backoff_base
    ctx = _faults_active()
    t0 = clock()

    def check_deadline(cause: Optional[BaseException]) -> None:
        if deadline_s is None:
            return
        elapsed = clock() - t0
        if elapsed >= deadline_s:
            out.actions.append({
                "action": "deadline", "mode": out.mode,
                "deadline_s": deadline_s, "elapsed_s": elapsed,
                "error": type(cause).__name__ if cause else None,
            })
            raise DeadlineExceeded(
                f"recovery deadline of {deadline_s:g}s exhausted after "
                f"{elapsed:.3f}s ({out.retries} retries, "
                f"{out.demotions} demotions)",
                deadline_s=deadline_s, elapsed_s=elapsed) from cause

    check_deadline(None)
    while True:
        try:
            out.result = attempt(out.mode)
            return out
        except DeadlockError:
            raise                       # deterministic; never retried
        except TransientFaultError as exc:
            if budget <= 0:
                raise
            check_deadline(exc)
            budget -= 1
            out.retries += 1
            out.actions.append({
                "action": "retry", "mode": out.mode,
                "error": type(exc).__name__, "backoff_s": delay,
            })
            count(RETRIES, error=type(exc).__name__)
            if ctx is not None:
                ctx.retries += 1
            if policy.sleep:            # pragma: no cover - wall clock
                time.sleep(delay)
            delay *= policy.backoff_factor
            if restore is not None:
                restore()
        except SimulationError as exc:
            nxt = DEMOTION.get(out.mode)
            if not policy.demote or nxt is None:
                raise
            check_deadline(exc)
            out.demotions += 1
            out.actions.append({
                "action": "demote", "from": out.mode, "to": nxt,
                "error": type(exc).__name__,
            })
            count(DEMOTIONS, to=nxt)
            if ctx is not None:
                ctx.demotions += 1
            out.mode = nxt
            if restore is not None:
                restore()
