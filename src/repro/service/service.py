"""The multi-tenant simulation service.

One :class:`SimulationService` multiplexes many concurrent tenants onto
a supervised pool of engine workers:

* **Admission control** runs at submit time: :class:`~.jobs.EngineJob`
  designs go through the FBxxx pre-flight
  (:func:`repro.analysis.analyze_engine`) and provably-broken
  compositions are rejected *synchronously* with the full diagnostic
  list attached (ledger outcome ``"rejected"``) — they never reach a
  worker.  Malformed :class:`~.jobs.RoutineJob` requests are rejected
  with a synthesized FB500 diagnostic.
* **Bounded queue**: when the admission queue is full the service sheds
  load with a typed :class:`~.errors.ServiceOverload` (ledger outcome
  ``"overload"``) instead of buffering unboundedly.
* **Deadlines**: a per-request (or service-default) deadline covers
  queue wait plus execution; requests that expire while queued resolve
  with :class:`~repro.fpga.errors.DeadlineExceeded` without consuming a
  worker, and the same budget bounds the recovery ladder's retries
  (ledger outcome ``"deadline"`` — distinct from ``"deadlock"``, which
  is a deterministic design property).  Hung simulations are bounded by
  the engine's own livelock watchdog, whose
  :class:`~repro.fpga.errors.HangError` feeds the demotion ladder.
* **Supervision**: every run executes under
  :func:`repro.faults.run_with_recovery` (retry/backoff on transient
  faults -> checkpoint-fresh rebuild -> tier demotion certified | bulk
  -> event -> dense); a worker thread killed by a poison job is
  detected by the supervisor and respawned, and queued requests survive
  (the queue is shared, not per-worker).
* **Graceful degradation is per-plan**: when recovery demotes a run,
  the *plan label* is demoted in the tier map — subsequent requests for
  that plan start at the demoted tier while every other plan stays on
  the fast tier.  :meth:`SimulationService.reset_demotions` clears it.
* **Shared compiled-plan cache**: all workers share one
  :class:`~repro.plan.PlanCache` pair (plans keyed on the structural
  MDAG fingerprint, certificates on ``plan_key``), so a plan compiled
  for one tenant is a cache hit for every other — fused batches
  included: ``plan_key`` names buffers by role, so each burst's fresh
  ``batch{uid}.*`` buffers replay one certificate.  Both caches are
  LRU-bounded (:attr:`~repro.plan.PlanCache.MAX_ENTRIES`).
* **Batched fusion**: compatible queued jobs (same
  :meth:`~.jobs.RoutineJob.batch_key`) fuse into one batched engine run
  on the service's engine mode, with bit-identical per-job results
  (Table V).

Every request is one :class:`~repro.telemetry.ledger.RunRecord` of kind
``"service.request"`` carrying the ``run_id`` and ``tenant``; engine
runs and host calls the workers spawn are parented under that id via
:func:`~repro.telemetry.ledger.correlate`, so spans, forensics and the
JSONL ledger all join.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..analysis import analyze_engine
from ..faults.recovery import RetryPolicy, run_with_recovery
from ..fpga.device import STRATIX10, FpgaDevice
from ..fpga.engine import Engine, check_engine_mode
from ..fpga.errors import DeadlineExceeded
from ..host.api import Fblas
from ..host.context import FblasContext
from ..plan import PlanCache
from ..telemetry.ledger import (RunLedger, RunRecord, classify_outcome,
                                correlate, mint_run_id)
from ..telemetry.runtime import active as _telemetry_active
from .batch import run_batch
from .errors import (AdmissionRejected, ServiceClosed, ServiceOverload,
                     invalid_request)
from .jobs import AppJob, EngineJob, PlanJob, RoutineJob

__all__ = ["SimulationService", "Ticket"]

Job = Union[RoutineJob, EngineJob, PlanJob, AppJob]

_JOB_SEQ = itertools.count()


class Ticket:
    """Handle for one admitted request; resolves exactly once."""

    def __init__(self, run_id: str, tenant: str, label: str):
        self.run_id = run_id
        self.tenant = tenant
        self.label = label
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: Any) -> bool:
        if self._event.is_set():
            return False
        self._value = value
        self._event.set()
        return True

    def _reject(self, exc: BaseException) -> bool:
        if self._event.is_set():
            return False
        self._error = exc
        self._event.set()
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the outcome; raises the request's typed error."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.run_id} not resolved within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class _Item:
    """One queued admitted request."""

    ticket: Ticket
    job: Job
    rec: RunRecord
    t_submit: float
    deadline_abs: Optional[float] = None

    def remaining(self, now: float) -> Optional[float]:
        if self.deadline_abs is None:
            return None
        return self.deadline_abs - now


@dataclass
class _Stats:
    submitted: int = 0
    completed: int = 0
    ok: int = 0
    rejected: int = 0
    overload: int = 0
    deadline: int = 0
    failed: int = 0
    batched_runs: int = 0
    fused_jobs: int = 0
    worker_restarts: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def bump(self, **deltas: int) -> None:
        with self.lock:
            for k, v in deltas.items():
                setattr(self, k, getattr(self, k) + v)

    def snapshot(self) -> Dict[str, int]:
        with self.lock:
            return {k: getattr(self, k) for k in
                    ("submitted", "completed", "ok", "rejected", "overload",
                     "deadline", "failed", "batched_runs", "fused_jobs",
                     "worker_restarts")}


class SimulationService:
    """Session-multiplexing front end over a supervised worker pool."""

    def __init__(self, workers: int = 4, max_queue: int = 64,
                 default_deadline_s: Optional[float] = None,
                 engine_mode: str = "bulk",
                 retry_policy: Optional[RetryPolicy] = None,
                 admission: bool = True, max_batch: int = 16,
                 width: Optional[int] = None,
                 device: FpgaDevice = STRATIX10,
                 ledger: Optional[RunLedger] = None,
                 ledger_path: Optional[str] = None,
                 supervise_interval_s: float = 0.05):
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_queue < 1:
            raise ValueError("queue bound must be positive")
        tel = _telemetry_active()
        #: The run ledger every request's record lands in.  Defaults to
        #: the ambient telemetry session's ledger (so service records
        #: and the engine-run records workers spawn share one ledger),
        #: else a service-owned ring with an optional JSONL sink.
        self.ledger: RunLedger = ledger if ledger is not None else (
            tel.ledger if tel is not None
            else RunLedger(path=ledger_path))
        self.engine_mode = check_engine_mode(engine_mode)
        self.retry_policy = retry_policy or RetryPolicy()
        self.admission = admission
        self.max_batch = max(1, max_batch)
        self.default_deadline_s = default_deadline_s
        self.width = width
        self.device = device
        #: Service-shared caches: compiled plans (``PlanJob`` ->
        #: ``execute_plan``) and certification verdicts, which every
        #: worker's :class:`~repro.host.api.Fblas` instance mounts too.
        self.plan_cache = PlanCache(name="service.plan")
        self.schedule_cache = PlanCache(name="service.schedule")
        #: Per-plan degradation map: ``plan_label -> demoted tier``.
        self._tier: Dict[str, str] = {}
        self._tier_lock = threading.Lock()
        self._queue: "queue.Queue[_Item]" = queue.Queue(maxsize=max_queue)
        self._stats = _Stats()
        self._closed = threading.Event()
        self._workers: List[threading.Thread] = []
        self._workers_lock = threading.Lock()
        self._num_workers = workers
        self._supervise_interval_s = supervise_interval_s
        for i in range(workers):
            self._workers.append(self._spawn(i))
        self._supervisor = threading.Thread(
            target=self._supervise, name="svc-supervisor", daemon=True)
        self._supervisor.start()

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work; optionally drain the queue first."""
        if drain and not self._closed.is_set():
            t_end = time.monotonic() + timeout
            while not self._queue.empty() and time.monotonic() < t_end:
                time.sleep(0.01)
        self._closed.set()
        for w in list(self._workers):
            w.join(timeout=timeout)

    # -- submission ----------------------------------------------------------
    def submit(self, job: Job, tenant: str = "anon",
               deadline_s: Optional[float] = None) -> Ticket:
        """Admit one request; returns a :class:`Ticket`.

        Raises :class:`~.errors.AdmissionRejected` (provably-broken or
        malformed request — never queued), :class:`~.errors.
        ServiceOverload` (queue full) or :class:`~.errors.ServiceClosed`.
        Both rejection paths still append a ledger record, so shed and
        rejected load shows up in per-tenant reports.
        """
        if self._closed.is_set():
            raise ServiceClosed("service is closed to new submissions")
        rec = RunRecord(run_id=mint_run_id(), kind="service.request",
                        label=job.label, tenant=tenant,
                        engine_mode=self.engine_mode)
        t0 = time.monotonic()
        self._stats.bump(submitted=1)
        try:
            self._admit(job)
        except AdmissionRejected as exc:
            rec.outcome = classify_outcome(exc)
            rec.error = type(exc).__name__
            rec.wall_seconds = time.monotonic() - t0
            rec.extra["diagnostics"] = [d.code for d in exc.diagnostics]
            self.ledger.append(rec)
            self._stats.bump(rejected=1, completed=1)
            raise
        deadline = (deadline_s if deadline_s is not None
                    else self.default_deadline_s)
        ticket = Ticket(rec.run_id, tenant, job.label)
        item = _Item(ticket=ticket, job=job, rec=rec, t_submit=t0,
                     deadline_abs=(t0 + deadline) if deadline else None)
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            rec.outcome = "overload"
            rec.error = "ServiceOverload"
            rec.wall_seconds = time.monotonic() - t0
            self.ledger.append(rec)
            self._stats.bump(overload=1, completed=1)
            raise ServiceOverload(
                f"admission queue full ({self._queue.maxsize} pending)",
                queue_depth=self._queue.maxsize) from None
        return ticket

    def call(self, job: Job, tenant: str = "anon",
             deadline_s: Optional[float] = None,
             timeout: Optional[float] = None) -> Any:
        """Submit and block for the result (single-caller convenience)."""
        return self.submit(job, tenant, deadline_s).result(timeout)

    def _admit(self, job: Job) -> None:
        """Pre-flight gate; raises :class:`AdmissionRejected`."""
        if not self.admission:
            return
        if isinstance(job, RoutineJob):
            msg = job.validate()
            if msg is not None:
                raise invalid_request(msg, obj=job.label)
            return
        if isinstance(job, EngineJob):
            # Build the design once on a throwaway context purely for
            # the static FBxxx analysis — no cycle is ever simulated.
            ctx = FblasContext(device=self.device)
            eng = Engine(memory=ctx.mem)
            job.build(eng, ctx)
            result = analyze_engine(eng)
            if result.errors:
                raise AdmissionRejected(result)
            return
        if isinstance(job, PlanJob):
            from ..analysis import analyze_mdag
            ctx = FblasContext(device=self.device)
            mdag, _ = job.build(ctx)
            result = analyze_mdag(mdag, windows=job.windows)
            if result.errors:
                raise AdmissionRejected(result)

    # -- degradation ---------------------------------------------------------
    def tier_for(self, plan_label: str) -> str:
        with self._tier_lock:
            return self._tier.get(plan_label, self.engine_mode)

    def _record_demotion(self, plan_label: str, tier: str) -> None:
        with self._tier_lock:
            self._tier[plan_label] = tier

    def demotions(self) -> Dict[str, str]:
        """Current per-plan tier overrides (plan label -> tier)."""
        with self._tier_lock:
            return dict(self._tier)

    def reset_demotions(self) -> None:
        """Forgive every per-plan demotion (e.g. after a fault storm)."""
        with self._tier_lock:
            self._tier.clear()

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = self._stats.snapshot()
        out["queue_depth"] = self._queue.qsize()
        out["workers"] = sum(w.is_alive() for w in self._workers)
        out["plan_cache"] = self.plan_cache.stats()
        out["schedule_cache"] = self.schedule_cache.stats()
        out["demoted_plans"] = self.demotions()
        return out

    # -- worker pool ---------------------------------------------------------
    def _spawn(self, wid: int) -> threading.Thread:
        t = threading.Thread(target=self._worker_loop, args=(wid,),
                             name=f"svc-worker-{wid}", daemon=True)
        t.start()
        return t

    def _supervise(self) -> None:
        """Restart crashed/hung-out worker threads; queued work survives."""
        while not self._closed.is_set():
            time.sleep(self._supervise_interval_s)
            with self._workers_lock:
                for i, w in enumerate(self._workers):
                    if not w.is_alive() and not self._closed.is_set():
                        self._workers[i] = self._spawn(i)
                        self._stats.bump(worker_restarts=1)
                        tel = _telemetry_active()
                        if tel is not None:
                            tel.instant("service.worker_restart",
                                        cat="service", worker=i)

    def _worker_fblas(self) -> Fblas:
        kwargs: Dict[str, Any] = {}
        if self.width is not None:
            kwargs["width"] = self.width
        return Fblas(device=self.device, engine_mode=self.engine_mode,
                     schedule_cache=self.schedule_cache, **kwargs)

    def _worker_loop(self, wid: int) -> None:
        fb = self._worker_fblas()
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            batch = [item]
            key = (item.job.batch_key()
                   if isinstance(item.job, RoutineJob) else None)
            leftovers: List[_Item] = []
            if key is not None and self.max_batch > 1:
                # Fuse only on backlog: drain whatever is immediately
                # available, never wait for companions to arrive.
                while len(batch) + len(leftovers) < self.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if (isinstance(nxt.job, RoutineJob)
                            and nxt.job.batch_key() == key):
                        batch.append(nxt)
                    else:
                        leftovers.append(nxt)
            pending = list(leftovers)
            try:
                if len(batch) > 1:
                    self._run_fused(fb, batch)
                else:
                    self._run_one(fb, item)
                while pending:
                    self._run_one(fb, pending.pop(0))
            finally:
                for _ in range(len(batch) + len(leftovers)):
                    self._queue.task_done()
                # A poison job killed this worker mid-drain: hand the
                # not-yet-run leftovers back to the pool so no admitted
                # request is ever lost.
                for nxt in pending:
                    try:
                        self._queue.put_nowait(nxt)
                    except queue.Full:
                        self._finish(nxt, error=ServiceOverload(
                            "request displaced during worker recovery",
                            queue_depth=self._queue.maxsize))

    # -- execution -----------------------------------------------------------
    def _expire_in_queue(self, item: _Item, now: float) -> bool:
        """Resolve a request whose deadline expired while queued."""
        remaining = item.remaining(now)
        if remaining is None or remaining > 0:
            return False
        exc = DeadlineExceeded(
            f"deadline expired after {now - item.t_submit:.3f}s in the "
            f"admission queue", deadline_s=item.deadline_abs - item.t_submit,
            elapsed_s=now - item.t_submit)
        self._finish(item, error=exc, stage="queue")
        return True

    def _finish(self, item: _Item, result: Any = None,
                error: Optional[BaseException] = None,
                outcome=None, stage: str = "run") -> None:
        """Resolve the ticket and freeze the ledger record, exactly once."""
        rec = item.rec
        rec.wall_seconds = time.monotonic() - item.t_submit
        rec.extra.setdefault("stage", stage)
        if outcome is not None:
            rec.engine_mode = outcome.mode
            rec.retries = outcome.retries
            rec.demotions = outcome.demotions
            if outcome.actions:
                rec.recovery = outcome.to_dict()
        if error is None:
            rec.outcome = "ok"
            resolved = item.ticket._resolve(result)
            self._stats.bump(ok=1, completed=1)
        else:
            rec.outcome = classify_outcome(error)
            rec.error = type(error).__name__
            resolved = item.ticket._reject(error)
            self._stats.bump(completed=1, **{
                "deadline" if rec.outcome == "deadline" else "failed": 1})
        if resolved:
            self.ledger.append(rec)

    def _run_one(self, fb: Fblas, item: _Item) -> None:
        now = time.monotonic()
        if self._expire_in_queue(item, now):
            return
        job = item.job
        mode0 = self.tier_for(job.plan_label)
        pc0 = self.plan_cache.stats()
        try:
            with correlate(item.rec.run_id):
                out = run_with_recovery(
                    lambda mode: self._attempt(fb, job, mode),
                    policy=self.retry_policy, mode=mode0,
                    deadline_s=item.remaining(now))
        except BaseException as exc:
            self._finish(item, error=exc)
            if not isinstance(exc, Exception):
                raise           # poison job: kill this worker; the
                                # supervisor respawns it and the queue
                                # keeps every other request.
            return
        if out.mode != mode0:
            self._record_demotion(job.plan_label, out.mode)
        pc1 = self.plan_cache.stats()
        item.rec.plan_cache = {"hits": pc1["hits"] - pc0["hits"],
                               "misses": pc1["misses"] - pc0["misses"]}
        self._finish(item, result=out.result, outcome=out)

    def _run_fused(self, fb: Fblas, batch: List[_Item]) -> None:
        """One batched engine run resolving every fused ticket."""
        now = time.monotonic()
        live = [it for it in batch if not self._expire_in_queue(it, now)]
        if not live:
            return
        if len(live) == 1:
            self._run_one(fb, live[0])
            return
        jobs = [it.job for it in live]
        plan_label = f"batch.{jobs[0].plan_label}"
        mode0 = self.tier_for(plan_label)
        deadlines = [r for it in live
                     if (r := it.remaining(now)) is not None]
        lead = live[0]
        try:
            with correlate(lead.rec.run_id):
                out = run_with_recovery(
                    lambda mode: run_batch(
                        fb.context, jobs, mode,
                        width=fb.width, channel_depth=fb.channel_depth,
                        schedule_cache=self.schedule_cache),
                    policy=self.retry_policy, mode=mode0,
                    deadline_s=min(deadlines) if deadlines else None)
        except BaseException as exc:
            for it in live:
                self._finish(it, error=exc)
            if not isinstance(exc, Exception):
                raise
            return
        if out.mode != mode0:
            self._record_demotion(plan_label, out.mode)
        self._stats.bump(batched_runs=1, fused_jobs=len(live))
        for it, res in zip(live, out.result):
            it.rec.extra["batched"] = len(live)
            it.rec.extra["batch_lead"] = lead.rec.run_id
            self._finish(it, result=res, outcome=out)

    def _attempt(self, fb: Fblas, job: Job, mode: str) -> Any:
        """One execution attempt; rebuilt from scratch, so retry-safe."""
        if isinstance(job, RoutineJob):
            return self._attempt_routine(fb, job, mode)
        if isinstance(job, EngineJob):
            ctx = FblasContext(device=self.device)
            eng = Engine(memory=ctx.mem, mode=mode,
                         schedule_cache=self.schedule_cache)
            finish = job.build(eng, ctx)
            eng.run()
            return finish() if callable(finish) else None
        if isinstance(job, PlanJob):
            from ..streaming import execute_plan
            ctx = FblasContext(device=self.device)
            mdag, finish = job.build(ctx)
            execute_plan(mdag, ctx.mem, windows=job.windows,
                         buffer_budget=job.buffer_budget, mode=mode,
                         plan_cache=self.plan_cache,
                         schedule_cache=self.schedule_cache)
            return finish() if callable(finish) else None
        if isinstance(job, AppJob):
            return job.run(mode)
        raise TypeError(f"unknown job kind {type(job).__name__}")

    def _attempt_routine(self, fb: Fblas, job: RoutineJob, mode: str) -> Any:
        saved = fb.engine_mode
        fb.engine_mode = mode
        uid = next(_JOB_SEQ)
        bound: List[str] = []
        mem = fb.context.mem
        try:
            dev_args = []
            for i, a in enumerate(job.args):
                if isinstance(a, np.ndarray):
                    buf = fb.copy_to_device(a, name=f"svc{uid}.a{i}")
                    bound.append(buf.name)
                    dev_args.append(buf)
                else:
                    dev_args.append(a)
            return getattr(fb, job.routine)(*dev_args, **job.kwargs)
        finally:
            fb.engine_mode = saved
            for name in bound:
                if name in mem.buffers:
                    mem.release(name)
            # The worker's context outlives the job; its call log must not.
            fb.context.reset_records()
