"""Concurrent service soak driver: ``python -m repro.service``.

Spawns N tenant threads hammering one :class:`SimulationService` with a
deterministic job mix (batchable dots/axpys from a shared payload pool,
plus malformed requests that must be rejected), optionally under a
seeded ambient fault plan.  Verifies the service's hard guarantees:

* **zero lost requests** — every admitted ticket resolves exactly once;
* **all outcomes classified** — every ledger record carries a known
  outcome label;
* **correct bytes** — completed results are bit-identical to a stock
  single-caller :class:`~repro.host.api.Fblas` run of the same payload.

Exits non-zero when any guarantee is violated, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults import FaultPlan, inject
from ..fpga.engine import ENGINE_MODES
from ..host.api import Fblas
from ..telemetry.ledger import LedgerQuery
from .errors import AdmissionRejected, ServiceOverload
from .jobs import RoutineJob
from .service import SimulationService, Ticket

#: Outcome labels the gate accepts as "classified".
KNOWN_OUTCOMES = ("ok", "rejected", "overload", "deadline", "deadlock",
                  "livelock", "transient_fault", "fault")


def build_payload_pool(seed: int, n: int, pool: int,
                       ) -> List[Tuple[str, tuple]]:
    """Distinct job payloads tenants draw from (so references are few)."""
    rng = np.random.default_rng(seed)
    out: List[Tuple[str, tuple]] = []
    for i in range(pool):
        x = rng.standard_normal(n).astype(np.float32)
        y = rng.standard_normal(n).astype(np.float32)
        if i % 2 == 0:
            out.append(("dot", (x, y)))
        else:
            out.append(("axpy", (float(rng.standard_normal()), x, y)))
    return out


def reference_results(pool: List[Tuple[str, tuple]], width: Optional[int],
                      ) -> List[np.ndarray]:
    """Stock single-caller results, one per payload (the oracle)."""
    refs = []
    for routine, args in pool:
        fb = Fblas(**({"width": width} if width else {}))
        dev = [fb.copy_to_device(a) if isinstance(a, np.ndarray) else a
               for a in args]
        refs.append(getattr(fb, routine)(*dev))
    return refs


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="concurrent multi-tenant service soak")
    ap.add_argument("--tenants", type=int, default=8)
    ap.add_argument("--requests", type=int, default=12,
                    help="requests per tenant")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--queue", type=int, default=256,
                    help="admission queue bound")
    ap.add_argument("--n", type=int, default=256, help="vector length")
    ap.add_argument("--width", type=int, default=16)
    ap.add_argument("--pool", type=int, default=6,
                    help="distinct payloads shared by all tenants")
    ap.add_argument("--deadline", type=float, default=None,
                    help="per-request deadline in seconds")
    ap.add_argument("--engine-mode", default="bulk", choices=ENGINE_MODES)
    ap.add_argument("--faults-seed", type=int, default=None,
                    help="arm a generated ambient fault plan")
    ap.add_argument("--faults", type=int, default=6,
                    help="faults in the generated plan")
    ap.add_argument("--invalid-every", type=int, default=7,
                    help="1 malformed request per this many (0 = none)")
    ap.add_argument("--ledger", default=None,
                    help="JSONL run-ledger sink path")
    ap.add_argument("--report", default=None,
                    help="write the JSON report here (default stdout)")
    ap.add_argument("--json", action="store_true",
                    help="print the JSON report to stdout")
    args = ap.parse_args(argv)

    pool = build_payload_pool(202608, args.n, args.pool)
    refs = reference_results(pool, args.width)

    svc = SimulationService(
        workers=args.workers, max_queue=args.queue,
        default_deadline_s=args.deadline, engine_mode=args.engine_mode,
        width=args.width, ledger_path=args.ledger)

    plan = None
    if args.faults_seed is not None:
        # Detectable-and-recoverable vocabulary only: crashes and
        # freezes surface as typed errors the recovery ladder handles.
        # Silent single-bit corruption (corrupt/bitflip) is out of scope
        # for a service that has no reference to diff against — that
        # regime belongs to ``python -m repro.faults campaign``.
        plan = FaultPlan.generate(
            args.faults_seed,
            kernels=("dot", "axpy", "batched_dot", "batched_axpy"),
            channels=("in0", "in1", "bx", "by"),
            kinds=("crash", "freeze"),
            n_faults=args.faults, element_horizon=args.n,
            cycle_horizon=max(8, args.n // args.width))

    tickets: List[Tuple[Ticket, int]] = []
    tickets_lock = threading.Lock()
    sync_rejected = [0]
    overloads = [0]

    def tenant_loop(tid: int) -> None:
        rng = np.random.default_rng(1000 + tid)
        for k in range(args.requests):
            if args.invalid_every and (tid * args.requests + k) \
                    % args.invalid_every == args.invalid_every - 1:
                try:
                    svc.submit(RoutineJob("no_such_routine"),
                               tenant=f"tenant-{tid}")
                except AdmissionRejected:
                    with tickets_lock:
                        sync_rejected[0] += 1
                continue
            idx = int(rng.integers(len(pool)))
            routine, payload = pool[idx]
            try:
                t = svc.submit(RoutineJob(routine, payload),
                               tenant=f"tenant-{tid}",
                               deadline_s=args.deadline)
            except ServiceOverload:
                with tickets_lock:
                    overloads[0] += 1
                continue
            with tickets_lock:
                tickets.append((t, idx))

    t0 = time.perf_counter()

    def drive() -> None:
        threads = [threading.Thread(target=tenant_loop, args=(tid,))
                   for tid in range(args.tenants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    if plan is not None:
        with inject(plan) as fctx:
            drive()
            fired = len(fctx.fired)
    else:
        drive()
        fired = 0

    lost = 0
    mismatches = 0
    outcome_hist: Dict[str, int] = {}
    for ticket, idx in tickets:
        try:
            value = ticket.result(timeout=120.0)
        except TimeoutError:
            lost += 1
            continue
        except Exception as exc:
            outcome_hist[type(exc).__name__] = \
                outcome_hist.get(type(exc).__name__, 0) + 1
            continue
        expected = refs[idx]
        same = (np.array_equal(np.asarray(value), np.asarray(expected))
                if isinstance(expected, np.ndarray)
                else np.float64(value) == np.float64(expected))
        if not same:
            mismatches += 1
    wall = time.perf_counter() - t0
    svc.close()

    q = LedgerQuery(svc.ledger.records()).filter(kind="service.request")
    unclassified = [r.run_id for r in q.records
                    if r.outcome not in KNOWN_OUTCOMES]
    report = {
        "schema": "repro.service.soak/1",
        "tenants": args.tenants,
        "requests_per_tenant": args.requests,
        "workers": args.workers,
        "engine_mode": args.engine_mode,
        "submitted": svc.stats()["submitted"],
        "admitted": len(tickets),
        "sync_rejected": sync_rejected[0],
        "overloads": overloads[0],
        "lost": lost,
        "mismatches": mismatches,
        "unclassified": unclassified,
        "faults_armed": len(plan) if plan is not None else 0,
        "faults_fired": fired,
        "wall_seconds": wall,
        "sustained_req_s": (len(tickets) / wall) if wall > 0 else 0.0,
        "outcomes": q.outcomes() if hasattr(q, "outcomes") else {},
        "per_tenant": q.tenant_summary(),
        "service_stats": svc.stats(),
    }
    text = json.dumps(report, indent=2, default=str)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if args.json or not args.report:
        print(text)

    ok = (lost == 0 and mismatches == 0 and not unclassified)
    if not ok:
        print(f"SOAK FAILED: lost={lost} mismatches={mismatches} "
              f"unclassified={len(unclassified)}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":                      # pragma: no cover
    sys.exit(main())
