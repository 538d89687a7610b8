"""Seeded fault campaigns over the Sec. V applications.

A campaign sweeps deterministically generated :class:`FaultPlan`\\ s over
the four paper applications (AXPYDOT, BICG, ATAX, GEMVER) and classifies
every trial:

========================  ==================================================
outcome                   meaning
========================  ==================================================
``clean``                 no fault of the plan actually fired
``masked``                faults fired, result still bit-correct, no
                          recovery action was needed
``recovered``             the recovery ladder (retry / demotion) ran and
                          the final result is correct
``hang``                  the watchdog or deadlock detector tripped; the
                          error carries a structured
                          :class:`~repro.fpga.errors.HangReport`
``crash_unrecovered``     a transient fault escaped the retry budget (or
                          recovery was disabled)
``silent_corruption``     the run completed but the result is wrong — the
                          outcome resilience work exists to make *loud*
========================  ==================================================

Every trial rebuilds its application from scratch (fresh
:class:`~repro.host.context.FblasContext`, fresh buffers) per attempt, so
retries and demotions replay the computation exactly; the shared
:class:`~repro.faults.runtime.InjectionContext` ledger guarantees a
one-shot fault never fires twice within a trial.

The acceptance bar for the whole subsystem: **zero unexplained hangs** —
every non-clean trial must end either in a structured hang report or a
recorded recovery, never a bare timeout.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..fpga.errors import HangError, TransientFaultError
from ..host.context import FblasContext
from ..telemetry.ledger import correlate, mint_run_id
from .plan import FaultPlan
from .recovery import RetryPolicy, run_with_recovery
from .runtime import inject

__all__ = ["CAMPAIGN_SCHEMA", "OUTCOMES", "fault_targets", "run_campaign",
           "run_trial"]

#: Schema tag of :func:`run_campaign` documents.
CAMPAIGN_SCHEMA = "repro.faultcampaign/1"

OUTCOMES = ("clean", "masked", "recovered", "hang", "crash_unrecovered",
            "silent_corruption")


#: Tile and vectorization width of every campaign run.
_TILE = _WIDTH = 4


def fault_targets(app: str, size: int) -> Tuple[Tuple[str, ...], ...]:
    """``(channels, kernels, buffers)`` a plan may hit in ``app``, read
    off one clean ledger-lite run at ``size``: channels and kernels in
    registration order, buffers in binding order — the placements the
    engine runs' ledger records saw, since the app releases its own
    buffers when it returns."""
    from ..apps import APPS
    from ..telemetry import runtime
    spec = APPS[app]
    ctx = FblasContext()
    with runtime.session(kernel_slices=False, occupancy=False,
                         metrics=False) as tel:
        spec.run(ctx, spec.draw(np.random.default_rng(0), size),
                 width=_WIDTH, tile=_TILE)
    channels = dict.fromkeys(c for r in tel.runs for c in r["channels"])
    kernels = dict.fromkeys(k for r in tel.runs for k in r["kernels"])
    buffers = dict.fromkeys(b for r in tel.ledger.records()
                            if r.kind == "engine.run"
                            for b in r.memory["placements"])
    return tuple(channels), tuple(kernels), tuple(buffers)


def _matches(value, ref, rtol: float = 1e-3, atol: float = 1e-4) -> bool:
    if isinstance(ref, tuple):
        return all(_matches(v, r, rtol, atol) for v, r in zip(value, ref))
    return bool(np.allclose(np.asarray(value), np.asarray(ref),
                            rtol=rtol, atol=atol))


def run_trial(app: str, seed: int, targets: Tuple[Tuple[str, ...], ...],
              size: int = 8, recover: bool = True, mode: str = "event",
              n_faults: int = 0) -> dict:
    """Run one seeded fault trial of ``app`` and classify the outcome;
    ``targets`` is its :func:`fault_targets` at ``size``."""
    from ..apps import APPS
    spec = APPS[app]
    channels, kernels, buffers = targets
    plan = FaultPlan.generate(
        seed, channels=channels, kernels=kernels, buffers=buffers, banks=4,
        n_faults=n_faults or (1 + seed % 3),
        element_horizon=max(16, size * size), cycle_horizon=64 * size)
    # One correlation id per trial: the hang reports and recovery
    # outcomes produced inside carry the same id as this row, so
    # campaign JSON joins against any concurrently recorded ledger.
    run_id = mint_run_id()
    record: dict = {
        "app": app,
        "seed": seed,
        "mode": mode,
        "run_id": run_id,
        "planned_faults": len(plan),
        "plan": plan.to_dict(),
    }
    arrays = spec.draw(np.random.default_rng(seed), size)
    ref = spec.reference(*arrays, *spec.scalars)

    def attempt(m: str):
        return spec.run(FblasContext(), arrays, width=_WIDTH, tile=_TILE,
                        mode=m).value

    with correlate(run_id), inject(plan) as ctx:
        outcome = None
        try:
            if recover:
                out = run_with_recovery(attempt, policy=RetryPolicy(),
                                        mode=mode)
                value = out.result
                record["recovery"] = out.to_dict()
                recovered = out.recovered
            else:
                value = attempt(mode)
                recovered = False
        except HangError as exc:
            outcome = "hang"
            record["error"] = type(exc).__name__
            record["explained"] = exc.report is not None
            record["hang"] = {
                "cycle": exc.cycle,
                "blocked": sorted(exc.blocked),
                "report": (exc.report.to_dict()
                           if exc.report is not None else None),
            }
        except TransientFaultError as exc:
            outcome = "crash_unrecovered"
            record["error"] = type(exc).__name__
            record["explained"] = True
        else:
            if not _matches(value, ref):
                outcome = "silent_corruption"
            elif recovered:
                outcome = "recovered"
            elif ctx.faults_injected:
                outcome = "masked"
            else:
                outcome = "clean"
            record["explained"] = True
        record["outcome"] = outcome
        record["counters"] = ctx.counters()
        record["fired"] = list(ctx.fired)
    return record


def run_campaign(seed: int = 7, apps: Optional[Sequence[str]] = None,
                 budget: int = 20, size: int = 8, recover: bool = True,
                 mode: str = "event") -> dict:
    """Sweep ``budget`` seeded trials round-robin over ``apps``.

    ``apps`` defaults to every catalogue app in sorted order.  Trial
    ``i`` uses seed ``seed * 1000 + i``, so campaigns are exactly
    reproducible and disjoint seeds explore disjoint plans.  Returns the
    full JSON-able campaign document (schema ``repro.faultcampaign/1``).
    """
    from ..apps import APPS
    apps = tuple(sorted(APPS) if apps is None else apps)
    unknown = [a for a in apps if a not in APPS]
    if unknown or not apps:
        raise ValueError(
            f"apps must name some of {sorted(APPS)}, got {list(apps)}")
    targets = {a: fault_targets(a, size) for a in apps}
    trials = []
    for i in range(budget):
        app = apps[i % len(apps)]
        trials.append(run_trial(app, seed * 1000 + i, targets[app],
                                size=size, recover=recover, mode=mode))
    summary: Dict[str, int] = {o: 0 for o in OUTCOMES}
    per_app: Dict[str, Dict[str, int]] = {
        a: {o: 0 for o in OUTCOMES} for a in apps}
    counters = {"faults_injected": 0, "retries": 0, "demotions": 0}
    unexplained = 0
    for t in trials:
        summary[t["outcome"]] += 1
        per_app[t["app"]][t["outcome"]] += 1
        for k in counters:
            counters[k] += t["counters"][k]
        if not t.get("explained", False):
            unexplained += 1
    return {
        "schema": CAMPAIGN_SCHEMA,
        "seed": seed,
        "apps": list(apps),
        "budget": budget,
        "size": size,
        "recover": recover,
        "mode": mode,
        "summary": summary,
        "per_app": per_app,
        "counters": counters,
        "unexplained_hangs": unexplained,
        "trials": trials,
    }


def _to_plain(obj):
    """Recursively convert numpy scalars so json.dumps accepts the doc."""
    if isinstance(obj, dict):
        return {k: _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def render_summary(doc: dict) -> str:
    """Human-readable campaign summary (the CLI's stdout)."""
    lines = [
        f"fault campaign: seed {doc['seed']}, {doc['budget']} trials over "
        f"{', '.join(doc['apps'])} "
        f"(recovery {'on' if doc['recover'] else 'off'})",
        "",
        f"{'app':<10}" + "".join(f"{o:>18}" for o in OUTCOMES),
    ]
    for app, row in doc["per_app"].items():
        lines.append(f"{app:<10}"
                     + "".join(f"{row[o]:>18}" for o in OUTCOMES))
    lines.append(f"{'total':<10}"
                 + "".join(f"{doc['summary'][o]:>18}" for o in OUTCOMES))
    c = doc["counters"]
    lines.append("")
    lines.append(f"faults injected: {c['faults_injected']}   "
                 f"retries: {c['retries']}   demotions: {c['demotions']}")
    lines.append(f"unexplained hangs: {doc['unexplained_hangs']}")
    return "\n".join(lines)
