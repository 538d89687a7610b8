"""The correlated run ledger: one record per request, one id per trail.

Every instrumented request — a host-API call, an
:func:`~repro.streaming.executor.execute_plan` invocation, an
:meth:`~repro.fpga.engine.Engine.run` — mints a **run id** (a
correlation id) and appends a structured :class:`RunRecord` (schema
``repro.runrecord/1``) on completion.  The id threads through every
artifact the request produces: the span (and therefore the Chrome
trace), the per-run SimReport summary, the
:class:`~repro.fpga.errors.HangReport` a hung run raises, the
:class:`~repro.faults.recovery.RecoveryOutcome` the recovery ladder
records, and fault-campaign rows — so "what happened to request X?"
is one join instead of archaeology across disconnected files.

Correlation is a plain stack (:func:`correlate` pushes,
:func:`current_run_id` peeks): the simulator is single-threaded, so the
innermost open request is always the ambient parent.  Records form a
tree through :attr:`RunRecord.parent_id` — ``host.call`` →
``execute_plan`` → ``engine.run``.

Storage is a bounded in-memory ring (:class:`RunLedger`) plus an
optional size-rotated JSONL sink, so long-lived sessions neither grow
without bound nor lose the durable trail.  :class:`LedgerQuery` slices
and aggregates records (p50/p95/max, cache hit rates, per-plan
grouping) and detects **band regressions**: certified runs carry the
:class:`~repro.analysis.StaticSchedule` predicted cycle band, and a
measured run exceeding its band's upper bound by more than the drift
threshold is flagged.  :func:`fleet_report` renders the fleet-style
text table the ``python -m repro.telemetry report`` CLI prints.

This module is deliberately **stdlib-only** (no :mod:`repro.fpga`
import): the engine imports :mod:`repro.telemetry.runtime` at module
scope, so the ledger classifies failure outcomes by exception class
*name* walked over the MRO instead of importing the error types.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

__all__ = [
    "RUN_RECORD_SCHEMA", "JsonlSink", "LedgerQuery", "RunLedger",
    "RunRecord", "classify_outcome", "correlate", "current_run_id",
    "fleet_report", "mint_run_id", "read_ledger", "run_scope",
]

#: Schema tag of every serialized :class:`RunRecord`.
RUN_RECORD_SCHEMA = "repro.runrecord/1"

#: Default ring-buffer capacity of a :class:`RunLedger`.
DEFAULT_CAPACITY = 4096

#: Default JSONL sink size before rotation (bytes).
DEFAULT_MAX_BYTES = 8_000_000

# -- correlation ids ---------------------------------------------------------

_SESSION_PREFIX = uuid.uuid4().hex[:8]
_SEQ = itertools.count(1)


class _RunIdStack(threading.local):
    """Per-thread correlation stack.

    The stack used to be a plain module list, which was correct while
    the simulator was strictly single-caller.  The service layer
    (:mod:`repro.service`) runs one request per *worker thread*, and a
    shared stack would interleave unrelated trails — thread-locality
    keeps "the innermost open request" a per-trail fact while leaving
    single-threaded behaviour byte-identical.
    """

    def __init__(self) -> None:
        self.items: List[str] = []

    def append(self, run_id: str) -> None:
        self.items.append(run_id)

    def pop(self) -> str:
        return self.items.pop()

    def peek(self) -> Optional[str]:
        return self.items[-1] if self.items else None


_STACK = _RunIdStack()


def mint_run_id() -> str:
    """A fresh correlation id: process-unique prefix + monotonic counter.

    ``itertools.count`` is handed out under the GIL atomically, so ids
    stay unique across concurrent service workers.
    """
    return f"r-{_SESSION_PREFIX}-{next(_SEQ):06d}"


def current_run_id() -> Optional[str]:
    """The innermost open request's run id, or None outside any scope.

    This is what forensics artifacts (:class:`HangReport`,
    :class:`RecoveryOutcome`, campaign rows) stamp so they join against
    the ledger row of the request that produced them.  Per-thread: a
    service worker's trail never leaks into another worker's records.
    """
    return _STACK.peek()


@contextmanager
def correlate(run_id: str) -> Iterator[str]:
    """Make ``run_id`` the ambient parent for the with-block."""
    _STACK.append(run_id)
    try:
        yield run_id
    finally:
        _STACK.pop()


# -- outcome classification --------------------------------------------------

#: Exception class *name* (checked over the MRO) -> outcome label.  Name
#: matching keeps this module free of :mod:`repro.fpga` imports — the
#: engine imports telemetry at module scope, not the other way around.
_OUTCOME_BY_TYPE: Dict[str, str] = {
    "DeadlockError": "deadlock",
    "LivelockError": "livelock",
    "TransientFaultError": "transient_fault",
    "FaultError": "fault",
    "AnalysisError": "rejected",
    # Service-layer outcomes: an expired wall-clock budget is a policy
    # decision (distinct from the deterministic "deadlock" proof), and a
    # full admission queue sheds load instead of buffering unboundedly.
    "DeadlineExceeded": "deadline",
    "ServiceOverload": "overload",
}


def classify_outcome(exc: BaseException) -> str:
    """Map an exception to a stable outcome label by MRO class names."""
    for klass in type(exc).__mro__:
        out = _OUTCOME_BY_TYPE.get(klass.__name__)
        if out is not None:
            return out
    return "error"


# -- the record --------------------------------------------------------------

@dataclass
class RunRecord:
    """One completed (or failed) request, in joinable form.

    Mutable on purpose: the instrumentation opens the record when the
    request starts and fills fields in as the layers below report back
    (cache deltas, the certified band, recovery actions), then the
    ledger freezes it into the ring/sink on completion.
    """

    run_id: str
    #: ``"host.call"`` | ``"execute_plan"`` | ``"engine.run"`` |
    #: ``"campaign.trial"`` — which layer minted the record.
    kind: str
    #: Enclosing request's run id (None for roots).
    parent_id: Optional[str] = None
    #: Routine / app / span label, e.g. ``"dot"`` or ``"app.atax"``.
    label: Optional[str] = None
    #: Multi-tenant attribution: which client/session submitted the
    #: request (service-layer requests always carry one; single-caller
    #: requests leave it None).
    tenant: Optional[str] = None
    engine_mode: Optional[str] = None
    #: Device catalog label the run's memory model was built from
    #: (e.g. ``"u280"``), when the engine had a DRAM model attached.
    device_label: Optional[str] = None
    #: :meth:`repro.fpga.memory.DramModel.placement_summary` snapshot —
    #: channel count and per-buffer placements at run time.
    memory: Optional[Dict[str, Any]] = None
    cycles: int = 0
    stall_cycles: int = 0
    kernel_steps: int = 0
    wall_seconds: float = 0.0
    #: Structural :func:`repro.plan.plan_key` of the executed plan.
    plan_key: Optional[str] = None
    #: Hex digest of the executor's structural MDAG fingerprint.
    mdag_fingerprint: Optional[str] = None
    #: Compiled-plan cache delta for this request: ``{"hits", "misses"}``.
    plan_cache: Optional[Dict[str, int]] = None
    #: Certificate (StaticSchedule) cache delta: ``{"hits", "misses"}``.
    schedule_cache: Optional[Dict[str, int]] = None
    #: Certified predicted cycle band ``(lo, hi)`` when one applied.
    predicted_cycles: Optional[Tuple[int, int]] = None
    #: Whether measured ``cycles`` landed inside the predicted band.
    in_band: Optional[bool] = None
    #: Superstep counters (windows / bulk_cycles / stepped_cycles) of a
    #: ``"bulk"`` or ``"certified"`` run (rows written before the
    #: speculative tier was deleted also carry probes / cooldowns).
    bulk: Optional[Dict[str, int]] = None
    #: Why a ``"bulk"`` / ``"certified"`` run stepped every cycle
    #: instead of replaying windows: the first FB40x code that refused
    #: the certificate and the object it names (``"FB404:<kernel>"``,
    #: ``"FB402:bank0"``; ``"bulk"`` only — ``"certified"`` raises;
    #: observers never make a run step).  None when nothing did (or the
    #: mode has no windows to fall back from; rows written before
    #: observers took windows may carry ``"observer:<ClassName>"``).
    fallback_reason: Optional[str] = None
    faults_injected: int = 0
    retries: int = 0
    demotions: int = 0
    #: :meth:`RecoveryOutcome.to_dict` of the recovery ladder, when one ran.
    recovery: Optional[Dict[str, Any]] = None
    #: ``"ok"`` or a failure label from :func:`classify_outcome`.
    outcome: str = "ok"
    #: Exception class name on failure.
    error: Optional[str] = None
    #: Free-form extras (app result digests, trial seeds, ...).
    extra: Dict[str, Any] = field(default_factory=dict)

    def band_check(self) -> None:
        """Derive :attr:`in_band` from the band and measured cycles."""
        if self.predicted_cycles is not None and self.cycles:
            lo, hi = self.predicted_cycles
            self.in_band = bool(lo <= self.cycles <= hi)

    def band_excess(self) -> Optional[float]:
        """Relative overshoot past the band's upper bound (None if n/a).

        0.0 means at-or-under the bound; 0.3 means 30% slower than the
        certified schedule promised — the regression signal
        :meth:`LedgerQuery.regressions` thresholds.
        """
        if self.predicted_cycles is None or not self.cycles:
            return None
        hi = self.predicted_cycles[1]
        if hi <= 0:
            return None
        return max(0.0, (self.cycles - hi) / hi)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RUN_RECORD_SCHEMA,
            "run_id": self.run_id,
            "kind": self.kind,
            "parent_id": self.parent_id,
            "label": self.label,
            "tenant": self.tenant,
            "engine_mode": self.engine_mode,
            "device_label": self.device_label,
            "memory": dict(self.memory) if self.memory is not None else None,
            "cycles": self.cycles,
            "stall_cycles": self.stall_cycles,
            "kernel_steps": self.kernel_steps,
            "wall_seconds": self.wall_seconds,
            "plan_key": self.plan_key,
            "mdag_fingerprint": self.mdag_fingerprint,
            "plan_cache": (dict(self.plan_cache)
                           if self.plan_cache is not None else None),
            "schedule_cache": (dict(self.schedule_cache)
                               if self.schedule_cache is not None else None),
            "predicted_cycles": (list(self.predicted_cycles)
                                 if self.predicted_cycles is not None
                                 else None),
            "in_band": self.in_band,
            "bulk": dict(self.bulk) if self.bulk is not None else None,
            "fallback_reason": self.fallback_reason,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "demotions": self.demotions,
            "recovery": (dict(self.recovery)
                         if self.recovery is not None else None),
            "outcome": self.outcome,
            "error": self.error,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        A document of the wrong shape — not an object, a field that
        should be an object or a ``[lo, hi]`` band and is not, a count
        that is not a number — raises :class:`ValueError` naming the
        field (a missing ``run_id`` / ``kind`` raises :class:`KeyError`).
        """
        if not isinstance(d, dict):
            raise ValueError(
                f"a ledger row is a JSON object, not {type(d).__name__}")
        schema = d.get("schema", RUN_RECORD_SCHEMA)
        if schema != RUN_RECORD_SCHEMA:
            raise ValueError(
                f"not a {RUN_RECORD_SCHEMA} document: schema={schema!r}")
        pc = d.get("predicted_cycles")
        if pc and not (isinstance(pc, list) and len(pc) == 2):
            raise ValueError(
                f"predicted_cycles must be [lo, hi], not {pc!r}")
        return cls(
            run_id=d["run_id"],
            kind=d["kind"],
            parent_id=d.get("parent_id"),
            label=d.get("label"),
            tenant=d.get("tenant"),
            engine_mode=d.get("engine_mode"),
            device_label=d.get("device_label"),
            memory=_object_field(d, "memory"),
            cycles=_number_field(d, "cycles", int),
            stall_cycles=_number_field(d, "stall_cycles", int),
            kernel_steps=_number_field(d, "kernel_steps", int),
            wall_seconds=_number_field(d, "wall_seconds", float),
            plan_key=d.get("plan_key"),
            mdag_fingerprint=d.get("mdag_fingerprint"),
            plan_cache=_object_field(d, "plan_cache"),
            schedule_cache=_object_field(d, "schedule_cache"),
            predicted_cycles=((_number(pc[0], "predicted_cycles", int),
                               _number(pc[1], "predicted_cycles", int))
                              if pc else None),
            in_band=d.get("in_band"),
            bulk=_object_field(d, "bulk"),
            fallback_reason=d.get("fallback_reason"),
            faults_injected=_number_field(d, "faults_injected", int),
            retries=_number_field(d, "retries", int),
            demotions=_number_field(d, "demotions", int),
            recovery=_object_field(d, "recovery"),
            outcome=d.get("outcome", "ok"),
            error=d.get("error"),
            extra=_object_field(d, "extra") or {},
        )


def _object_field(d: Dict[str, Any],
                  name: str) -> Optional[Dict[str, Any]]:
    """A copy of the JSON object ``d[name]``, or None when absent/null."""
    value = d.get(name)
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {value!r}")
    return dict(value)


def _number(value: Any, name: str, kind: type) -> Any:
    """``kind(value)`` for the field ``name``, or a ValueError naming it."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be a number, not {value!r}") from None


def _number_field(d: Dict[str, Any], name: str, kind: type) -> Any:
    return _number(d.get(name, 0), name, kind)


# -- storage -----------------------------------------------------------------

class JsonlSink:
    """Append-only JSONL file with single-generation size rotation.

    When an append would push the file past ``max_bytes``, the current
    file is renamed to ``<path>.1`` (replacing any previous generation)
    and a fresh file is started — the durable trail is bounded at about
    ``2 * max_bytes`` on disk.  Writes open/append/close per record:
    ledger appends are per *request*, not per cycle, so durability wins
    over handle caching.

    Safe under concurrent writers: a per-append lock serializes the
    size check, the (atomic, :func:`os.replace`) rotation and the
    append itself, so service workers sharing one ledger file never
    produce interleaved/torn lines, lose a record into a just-rotated
    generation, or double-rotate.  Each line is also written in a
    single ``fh.write`` call, so even a foreign writer appending to the
    same file cannot split a record.
    """

    def __init__(self, path: str,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.rotations = 0
        self._lock = threading.Lock()
        self._size = (os.path.getsize(self.path)
                      if os.path.exists(self.path) else 0)

    def write(self, record: RunRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._size and self._size + len(data) > self.max_bytes:
                os.replace(self.path, self.path + ".1")
                self.rotations += 1
                self._size = 0
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
            self._size += len(data)


def read_ledger(path: str) -> List[RunRecord]:
    """Parse a JSONL ledger file back into records (blank lines skipped)."""
    records: List[RunRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(RunRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad ledger row: {exc}") from exc
    return records


class RunLedger:
    """Bounded in-memory ring of records plus the optional JSONL sink.

    Appends are serialized by an internal lock so concurrent service
    workers can share one ledger: the ring append, the running count
    and the sink write stay coherent, and ``deque(maxlen=...)``
    eviction never races a concurrent snapshot (readers copy the ring
    under the same lock).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 path: Optional[str] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._ring: Deque[RunRecord] = deque(maxlen=capacity)
        self._lock = threading.RLock()
        self.sink = JsonlSink(path, max_bytes) if path else None
        #: Total records ever appended (ring evictions included).
        self.appended = 0

    def append(self, record: RunRecord) -> RunRecord:
        record.band_check()
        with self._lock:
            self._ring.append(record)
            self.appended += 1
        if self.sink is not None:
            self.sink.write(record)
        return record

    def records(self) -> List[RunRecord]:
        with self._lock:
            return list(self._ring)

    def children(self, run_id: str) -> List[RunRecord]:
        """Records whose parent is ``run_id`` (direct children only)."""
        with self._lock:
            return [r for r in self._ring if r.parent_id == run_id]

    def find(self, run_id: str) -> Optional[RunRecord]:
        with self._lock:
            for r in self._ring:
                if r.run_id == run_id:
                    return r
        return None

    def query(self) -> "LedgerQuery":
        return LedgerQuery(self.records())

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[RunRecord]:
        # Iterate a snapshot: a deque raises RuntimeError when mutated
        # mid-iteration, and service workers append concurrently.
        return iter(self.records())

    def merge_children_into(self, rec: RunRecord) -> None:
        """Roll child records' facts up into a parent record.

        Stalls, kernel steps and fault counts sum over direct children;
        the certified band sums component bands (only when *every*
        cycle-bearing child carries one, so a partial band never
        masquerades as a whole-request promise); the ``plan_key`` is
        inherited when the keyed children all ran one structure, so a
        request groups with the plan it executed.
        """
        kids = self.children(rec.run_id)
        if not kids:
            return
        if rec.plan_key is None:
            keys = {k.plan_key for k in kids if k.plan_key is not None}
            if len(keys) == 1:
                rec.plan_key = keys.pop()
        if rec.stall_cycles == 0:
            rec.stall_cycles = sum(k.stall_cycles for k in kids)
        if rec.kernel_steps == 0:
            rec.kernel_steps = sum(k.kernel_steps for k in kids)
        if rec.faults_injected == 0:
            rec.faults_injected = sum(k.faults_injected for k in kids)
        if rec.predicted_cycles is None:
            # Only successful children promise cycles (a crashed attempt
            # that was retried contributes neither band nor a basis for
            # judging the request against one).
            ok = [k for k in kids if k.outcome == "ok"]
            banded = [k for k in ok if k.predicted_cycles is not None]
            cycled = [k for k in ok if k.cycles]
            bands = [k.predicted_cycles for k in banded
                     if k.predicted_cycles is not None]
            if bands and len(bands) == len(cycled):
                rec.predicted_cycles = (sum(b[0] for b in bands),
                                        sum(b[1] for b in bands))
        rec.band_check()


# -- querying ----------------------------------------------------------------

def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))       # ceil(n*q/100)
    return ordered[int(rank) - 1]


class LedgerQuery:
    """Chainable filter/aggregate view over a set of records."""

    def __init__(self, records: Iterable[RunRecord]) -> None:
        self._records = list(records)

    @property
    def records(self) -> List[RunRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def filter(self, kind: Optional[str] = None,
               label: Optional[str] = None,
               tenant: Optional[str] = None,
               plan_key: Optional[str] = None,
               engine_mode: Optional[str] = None,
               outcome: Optional[str] = None,
               predicate: Optional[Callable[[RunRecord], bool]] = None,
               ) -> "LedgerQuery":
        out = self._records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if label is not None:
            out = [r for r in out if r.label == label]
        if tenant is not None:
            out = [r for r in out if r.tenant == tenant]
        if plan_key is not None:
            out = [r for r in out if r.plan_key == plan_key]
        if engine_mode is not None:
            out = [r for r in out if r.engine_mode == engine_mode]
        if outcome is not None:
            out = [r for r in out if r.outcome == outcome]
        if predicate is not None:
            out = [r for r in out if predicate(r)]
        return LedgerQuery(out)

    def aggregate(self, attr: str = "cycles") -> Dict[str, float]:
        """count/mean/p50/p95/max of a numeric record attribute."""
        values = sorted(float(getattr(r, attr)) for r in self._records)
        if not values:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "max": 0.0}
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": _percentile(values, 50),
            "p95": _percentile(values, 95),
            "max": values[-1],
        }

    def hit_rate(self, which: str = "plan_cache") -> Optional[float]:
        """Aggregate cache hit rate (None when no lookups were recorded)."""
        hits = misses = 0
        for r in self._records:
            delta = getattr(r, which)
            if delta:
                hits += delta.get("hits", 0)
                misses += delta.get("misses", 0)
        total = hits + misses
        return hits / total if total else None

    def by_plan(self) -> Dict[str, "LedgerQuery"]:
        """Group records by plan_key ("-" buckets the keyless ones)."""
        groups: Dict[str, List[RunRecord]] = {}
        for r in self._records:
            groups.setdefault(r.plan_key or "-", []).append(r)
        return {k: LedgerQuery(v) for k, v in sorted(groups.items())}

    def by_device(self) -> Dict[str, "LedgerQuery"]:
        """Group records by device_label ("-" buckets the unlabeled).

        The device split of :meth:`by_plan`: percentile and
        band-regression comparisons only make sense within one memory
        model, so the fleet report renders its table per device when
        more than one appears in the set.
        """
        groups: Dict[str, List[RunRecord]] = {}
        for r in self._records:
            groups.setdefault(r.device_label or "-", []).append(r)
        return {k: LedgerQuery(v) for k, v in sorted(groups.items())}

    def by_tenant(self) -> Dict[str, "LedgerQuery"]:
        """Group records by tenant ("-" buckets the unattributed)."""
        groups: Dict[str, List[RunRecord]] = {}
        for r in self._records:
            groups.setdefault(r.tenant or "-", []).append(r)
        return {k: LedgerQuery(v) for k, v in sorted(groups.items())}

    def tenant_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant service-quality facts for the fleet report.

        For each tenant: request count, p50/p95 wall milliseconds,
        rejection rate (admission refusals over submissions), deadline
        and overload counts, and recovery activity (retries/demotions)
        — the numbers a per-tenant SLO dashboard would plot.
        """
        out: Dict[str, Dict[str, float]] = {}
        for tenant, group in self.by_tenant().items():
            n = len(group)
            walls = group.aggregate("wall_seconds")
            outcomes = group.outcomes()
            out[tenant] = {
                "requests": n,
                "ok": outcomes.get("ok", 0),
                "rejected": outcomes.get("rejected", 0),
                "rejection_rate": outcomes.get("rejected", 0) / n if n else 0,
                "deadline": outcomes.get("deadline", 0),
                "overload": outcomes.get("overload", 0),
                "p50_ms": walls["p50"] * 1e3,
                "p95_ms": walls["p95"] * 1e3,
                "retries": sum(r.retries for r in group.records),
                "demotions": sum(r.demotions for r in group.records),
            }
        return out

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self._records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def regressions(self, threshold: float = 0.25,
                    ) -> List[Tuple[RunRecord, float]]:
        """Runs whose measured cycles exceed their certified band's
        upper bound by more than ``threshold`` (relative), worst first."""
        out = []
        for r in self._records:
            excess = r.band_excess()
            if excess is not None and excess > threshold:
                out.append((r, excess))
        out.sort(key=lambda pair: -pair[1])
        return out

    def slowest(self, n: int = 5) -> List[RunRecord]:
        return sorted(self._records, key=lambda r: -r.cycles)[:n]


# -- the request scope -------------------------------------------------------

@contextmanager
def run_scope(ledger: Optional[RunLedger], kind: str,
              label: Optional[str] = None,
              tenant: Optional[str] = None,
              engine_mode: Optional[str] = None) -> Iterator[RunRecord]:
    """Open one ledger record around a request.

    Mints the run id, makes it the ambient parent (so nested scopes and
    forensics artifacts correlate), times the wall clock, classifies a
    raised exception into :attr:`RunRecord.outcome`, and appends the
    record — **also on failure** — when the block exits.
    """
    rec = RunRecord(run_id=mint_run_id(), kind=kind,
                    parent_id=current_run_id(), label=label,
                    tenant=tenant, engine_mode=engine_mode)
    t0 = time.perf_counter()
    appended = ledger.appended if ledger is not None else 0
    _STACK.append(rec.run_id)
    try:
        yield rec
    except BaseException as exc:
        rec.outcome = classify_outcome(exc)
        rec.error = type(exc).__name__
        raise
    finally:
        _STACK.pop()
        rec.wall_seconds = time.perf_counter() - t0
        if ledger is not None:
            # A child is appended inside the scope: with none appended
            # (an engine run), the ring is not scanned for one.
            if ledger.appended != appended:
                ledger.merge_children_into(rec)
            ledger.append(rec)


# -- fleet report ------------------------------------------------------------

def _fmt_rate(rate: Optional[float]) -> str:
    return "-" if rate is None else f"{rate:.0%}"


def fleet_report(records: Iterable[RunRecord],
                 threshold: float = 0.25, top: int = 5) -> str:
    """Render the fleet-style text table of a set of ledger records.

    Per plan_key: request counts, cache hit rates, cycle percentiles and
    the band-regression flag; then the slowest requests and the
    fault/recovery summary.  This is what
    ``python -m repro.telemetry report ledger.jsonl`` prints.
    """
    q = LedgerQuery(records)
    lines = [f"run ledger: {len(q)} records"]
    if not len(q):
        return "\n".join(lines + ["  (empty)"])
    by_kind: Dict[str, int] = {}
    for r in q.records:
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    lines[0] += (" (" + ", ".join(f"{k}: {n}"
                                  for k, n in sorted(by_kind.items())) + ")")

    # Percentiles and band comparisons are only meaningful within one
    # memory model, so the per-plan table splits by device when the set
    # spans more than one.
    by_device = q.by_device()
    for dev, dq in by_device.items():
        lines.append("")
        if len(by_device) > 1:
            lines.append(f"  device {dev}: {len(dq)} records")
        lines.append(f"  {'plan_key':14s} {'runs':>5s} {'plan$':>6s} "
                     f"{'cert$':>6s} {'p50 cy':>10s} {'p95 cy':>10s} "
                     f"{'max cy':>10s} {'band':>6s}")
        for key, group in dq.by_plan().items():
            agg = group.aggregate("cycles")
            regs = group.regressions(threshold)
            if regs:
                band = f"+{max(e for _r, e in regs):.0%}!"
            elif any(r.in_band for r in group.records):
                band = "ok"
            else:
                band = "-"
            shown = key[:12] + ".." if len(key) > 14 else key
            lines.append(
                f"  {shown:14s} {int(agg['count']):>5d} "
                f"{_fmt_rate(group.hit_rate('plan_cache')):>6s} "
                f"{_fmt_rate(group.hit_rate('schedule_cache')):>6s} "
                f"{agg['p50']:>10.0f} {agg['p95']:>10.0f} "
                f"{agg['max']:>10.0f} {band:>6s}")

    # Per-tenant service quality, when any record carries attribution.
    if any(r.tenant for r in q.records):
        lines.append("")
        lines.append(
            f"  {'tenant':12s} {'reqs':>5s} {'ok':>5s} {'rej%':>6s} "
            f"{'ddl':>4s} {'ovl':>4s} {'p50 ms':>8s} {'p95 ms':>8s} "
            f"{'retry':>6s} {'demote':>6s}")
        for tenant, row in q.tenant_summary().items():
            lines.append(
                f"  {tenant:12s} {int(row['requests']):>5d} "
                f"{int(row['ok']):>5d} {row['rejection_rate']:>6.0%} "
                f"{int(row['deadline']):>4d} {int(row['overload']):>4d} "
                f"{row['p50_ms']:>8.2f} {row['p95_ms']:>8.2f} "
                f"{int(row['retries']):>6d} {int(row['demotions']):>6d}")

    slow = q.slowest(top)
    if slow:
        lines.append("")
        lines.append(f"  slowest {len(slow)} requests:")
        for r in slow:
            lines.append(
                f"    {r.run_id}  {r.kind:12s} "
                f"{(r.label or '-'):16s} {r.cycles:>10d} cy  "
                f"{r.wall_seconds * 1e3:8.2f} ms  {r.outcome}")

    # Runs a windowed tier had to step, grouped by what kept them off.
    stepped: Dict[str, int] = {}
    for r in q.records:
        if r.fallback_reason:
            stepped[r.fallback_reason] = stepped.get(r.fallback_reason, 0) + 1
    if stepped:
        lines.append("")
        lines.append("  stepped instead of replayed: " + ", ".join(
            f"{why} x{n}" for why, n in sorted(stepped.items())))

    # Count fault/recovery totals over the set's *roots* only (records
    # whose parent is absent from the set): parents roll child counts
    # up, so summing every row would double-count.
    ids = {r.run_id for r in q.records}
    roots = [r for r in q.records
             if r.parent_id is None or r.parent_id not in ids]
    faults = sum(r.faults_injected for r in roots)
    retries = sum(r.retries for r in roots)
    demotions = sum(r.demotions for r in roots)
    lines.append("")
    lines.append(
        f"  faults injected: {faults}   retries: {retries}   "
        f"demotions: {demotions}   outcomes: "
        + ", ".join(f"{k}={n}" for k, n in q.outcomes().items()))
    n_reg = len(q.regressions(threshold))
    lines.append(
        f"  {n_reg} band regression{'s' if n_reg != 1 else ''} "
        f"(threshold {threshold:.0%})")
    return "\n".join(lines)
