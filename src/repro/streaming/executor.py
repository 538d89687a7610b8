"""Execute an MDAG composition plan on the simulator.

:mod:`repro.streaming.scheduler` decides *how* to run a composition
(channel depths, sequential components, DRAM round trips); this module
actually runs it.  The caller attaches *bindings* to the MDAG's nodes —

* a compute node binds a kernel factory taking ``(inputs, outputs)``
  channel dicts keyed by port name, plus a pipeline latency;
* a read interface binds a DRAM buffer (with optional streaming order and
  replay) feeding its out-edges;
* a write interface binds a destination buffer draining its in-edge —

and :func:`execute_plan` builds one engine per plan component, wiring
on-chip edges as FIFO channels at the planned depths, fanning shared
interface reads out through duplicate kernels, materializing cut edges
through scratch DRAM buffers, and running the components in order.

This is the machinery that turns the paper's "derive valid FBLAS
compositions" future work into an end-to-end flow: MDAG in, results and a
cycle/I-O report out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..fpga.engine import Engine, SimReport
from ..fpga.errors import ReproError
from ..fpga.memory import DramBuffer, DramModel, read_kernel, write_kernel
from ..fpga.util import duplicate_kernel
from ..plan import (
    PlanCache,
    PlanIR,
    composition_from_plan,
    mdag_fingerprint,
    plan_from_composition,
    plan_from_mdag,
)
from ..telemetry.ledger import run_scope as _ledger_scope
from ..telemetry.runtime import active as _telemetry_active
from ..telemetry.runtime import span as _telemetry_span
from .mdag import MDAG, MDAGError
from .scheduler import CompositionPlan


class ExecutionError(ReproError):
    """Raised when an MDAG is not fully bound or bindings are malformed."""


@dataclass
class ComputeBinding:
    """Kernel factory for a compute node.

    ``factory(inputs, outputs)`` receives dicts of channels keyed by the
    port names used in :meth:`BoundMDAG.connect`.  ``defer`` is the
    kernel's reordering window for pre-flight analysis: the elements it
    consumes before its first output (the ATAX GEMV's row of tiles).
    """

    factory: Callable[[Dict, Dict], object]
    latency: int = 1
    defer: int = 0


@dataclass
class ReadBinding:
    """DRAM source for a read-interface node (one signature, any fanout)."""

    buffer: DramBuffer
    width: int = 1
    order: Optional[Iterable[int]] = None   # a sequence, read per kernel
    repeat: int = 1


@dataclass
class WriteBinding:
    """DRAM sink for a write-interface node (single in-edge)."""

    buffer: DramBuffer
    count: int
    width: int = 1
    order: Optional[Iterable[int]] = None


class BoundMDAG(MDAG):
    """An MDAG whose edges carry port names and whose nodes carry bindings."""

    def __init__(self):
        super().__init__()
        self.bindings: Dict[str, object] = {}

    def bind(self, node: str, binding) -> None:
        if node not in self.graph:
            raise MDAGError(f"unknown node {node!r}")
        kind = self.kind(node)
        if kind == "compute" and not isinstance(binding, ComputeBinding):
            raise ExecutionError(
                f"{node!r} is a compute node; bind a ComputeBinding")
        if kind == "interface" and not isinstance(
                binding, (ReadBinding, WriteBinding)):
            raise ExecutionError(
                f"{node!r} is an interface; bind a Read/WriteBinding")
        self.bindings[node] = binding

    def connect(self, src: str, dst: str, produces, consumes,
                depth: int = 64, src_port: str = "out",
                dst_port: str = "in") -> None:
        super().connect(src, dst, produces, consumes, depth)
        self.graph.edges[src, dst]["src_port"] = src_port
        self.graph.edges[src, dst]["dst_port"] = dst_port


@dataclass
class ExecutionResult:
    """Outcome of running a plan."""

    plan: CompositionPlan
    reports: List[SimReport]
    io_elements: int
    #: Per-component recovery outcomes (dicts) when ``execute_plan`` ran
    #: with a recovery policy; None otherwise.
    recovery: Optional[List[dict]] = None
    #: The compiled :class:`~repro.plan.PlanIR` the run executed from
    #: (None only when the caller handed in a raw ``CompositionPlan``).
    plan_ir: Optional[PlanIR] = None

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.reports)

    @property
    def recovered(self) -> bool:
        return bool(self.recovery) and any(r["recovered"]
                                           for r in self.recovery)


def execute_plan(mdag: BoundMDAG, mem: DramModel,
                 plan=None,
                 windows=None, buffer_budget: int = 0,
                 mode: str = "event", recovery=None,
                 schedule_cache: Optional[dict] = None,
                 plan_cache: Optional[dict] = None,
                 preflight: Optional[bool] = None) -> ExecutionResult:
    """Plan (unless given) and run a bound MDAG on ``mem``.

    ``plan`` may be a pre-compiled :class:`~repro.plan.PlanIR` (or a
    legacy :class:`CompositionPlan`); by default the MDAG is compiled
    through :func:`repro.plan.compile_plan` so every execution consumes
    the typed IR.  ``plan_cache`` (any mapping, e.g.
    :class:`repro.plan.PlanCache`) memoizes compiled plans on a
    structural MDAG fingerprint: a hit skips MDAG validation,
    scheduling, and pattern derivation entirely and replays the
    recorded decisions.

    ``mode`` selects the engine core (``"event"`` wake-list scheduler,
    the ``"dense"`` reference loop, ``"certified"``, which requires the
    FB4xx rate analysis to certify each component up front and then
    replays its windows as supersteps, or ``"bulk"`` — the same replay
    for components that certify, event stepping for those that do not)
    for every component run.  ``schedule_cache`` optionally shares
    certification verdicts (:class:`~repro.analysis.StaticSchedule`
    artifacts and refusals) across components and plans (keyed
    structurally); certified and bulk runs default to a per-plan cache.

    ``recovery`` (None, True, or a :class:`repro.faults.RetryPolicy`)
    runs every component under the recovery ladder: device memory is
    checkpointed at the component boundary (a quiescent point — no
    channels are live between components), transient faults retry the
    component from that checkpoint, and a watchdog trip demotes the
    engine tier for the re-attempt.  Outcomes are recorded per component
    in :attr:`ExecutionResult.recovery`.

    ``preflight`` is passed to every component's
    :meth:`~repro.fpga.engine.Engine.run`: with it, a component the
    static analyzer proves invalid raises
    :class:`~repro.analysis.AnalysisError` before cycle 0.

    Under a telemetry session, each invocation is one ledger request:
    an ``execute_plan`` :class:`~repro.telemetry.ledger.RunRecord` is
    appended carrying the ``plan_key``, the structural MDAG fingerprint
    digest, the plan-cache hit/miss for this request, and the
    per-component recovery roll-up; every component's engine run
    becomes a child record under the same correlation id.
    """
    tel = _telemetry_active()
    if tel is None:
        return _execute_plan(mdag, mem, plan, windows, buffer_budget,
                             mode, recovery, schedule_cache, plan_cache,
                             preflight, None)
    cur = tel.spans.current()
    with _ledger_scope(tel.ledger, "execute_plan", engine_mode=mode,
                       label=cur.name if cur is not None else None) as lrec:
        return _execute_plan(mdag, mem, plan, windows, buffer_budget,
                             mode, recovery, schedule_cache, plan_cache,
                             preflight, lrec)


def _execute_plan(mdag: BoundMDAG, mem: DramModel, plan, windows,
                  buffer_budget: int, mode: str, recovery,
                  schedule_cache: Optional[dict],
                  plan_cache: Optional[dict],
                  preflight: Optional[bool],
                  lrec) -> ExecutionResult:
    """The :func:`execute_plan` body, with an optional ledger record to
    fill (``lrec`` is None exactly when no telemetry session is active)."""
    if plan is None:
        plan_ir = _compiled(mdag, mem, windows, buffer_budget, plan_cache,
                            lrec)
        plan = composition_from_plan(plan_ir, mdag)
    elif isinstance(plan, PlanIR):
        plan_ir = plan
        plan = composition_from_plan(plan_ir, mdag)
    else:
        # Legacy CompositionPlan handed in directly: record it in the
        # IR anyway so the result still carries the typed artifact.
        plan_ir = plan_from_composition(
            mdag, plan, device=getattr(mem, "device_label", None))
    _check_bound(mdag)
    io_before = mem.total_elements_moved
    cut = set(plan.materialized_edges)

    # Scratch DRAM buffers for materialized compute->compute edges.
    scratch: Dict[Tuple[str, str], DramBuffer] = {}
    for u, v in cut:
        if mdag.kind(u) == "compute":
            total = mdag.graph.edges[u, v]["produces"].total
            # float64 scratch holds either precision's values exactly;
            # consumers re-cast to their own dtype.
            scratch[(u, v)] = mem.allocate(
                f"_mat_{u}_{v}_{len(scratch)}", total, dtype=np.float64)

    if lrec is not None and plan_ir is not None:
        lrec.plan_key = plan_ir.plan_key

    if recovery is True:
        from ..faults.recovery import RetryPolicy
        recovery = RetryPolicy()
    if schedule_cache is None and mode in ("certified", "bulk"):
        # A counting, named cache so per-plan certificate reuse shows up
        # in the metrics registry and the run ledger.
        schedule_cache = PlanCache(name="executor.schedule")

    reports: List[SimReport] = []
    recovery_log: Optional[List[dict]] = [] if recovery is not None else None
    with _telemetry_span("streaming.composition", cat="streaming",
                         components=len(plan.components),
                         materialized=len(cut)):
        for comp_idx, component in enumerate(plan.components):
            def run(m: str, _c=component, _i=comp_idx) -> None:
                with _telemetry_span(f"streaming.component[{_i}]",
                                     cat="streaming", component=_i,
                                     nodes=sorted(_c)):
                    reports.append(_build_component(
                        mdag, mem, plan, cut, scratch, _c, m,
                        schedule_cache).run(preflight=preflight))
            if recovery is None:
                run(mode)
                continue
            from ..faults.recovery import (MemoryCheckpoint,
                                           run_with_recovery)
            ckpt = MemoryCheckpoint.capture(mem)
            out = run_with_recovery(run, policy=recovery, mode=mode,
                                    restore=ckpt.restore)
            recovery_log.append(out.to_dict())

    if lrec is not None:
        lrec.cycles = sum(r.cycles for r in reports)
        if recovery_log:
            lrec.retries = sum(r["retries"] for r in recovery_log)
            lrec.demotions = sum(r["demotions"] for r in recovery_log)
            lrec.recovery = {"components": list(recovery_log)}
    return ExecutionResult(plan=plan, reports=reports,
                           io_elements=mem.total_elements_moved - io_before,
                           recovery=recovery_log, plan_ir=plan_ir)


def _compiled(mdag: BoundMDAG, mem: DramModel, windows,
              buffer_budget: int, plan_cache: Optional[dict],
              lrec) -> PlanIR:
    """Compile ``mdag``, or take its plan from ``plan_cache``."""
    # The structural fingerprint doubles as the plan-cache key and the
    # ledger correlation fact, so compute it when either wants it.
    key = (mdag_fingerprint(mdag, windows, buffer_budget)
           if plan_cache is not None or lrec is not None else None)
    if lrec is not None:
        lrec.mdag_fingerprint = hashlib.sha256(
            repr(key).encode("utf-8")).hexdigest()[:16]
    plan_ir = plan_cache.get(key) if plan_cache is not None else None
    if lrec is not None and plan_cache is not None:
        lrec.plan_cache = ({"hits": 1, "misses": 0} if plan_ir is not None
                           else {"hits": 0, "misses": 1})
    if plan_ir is None:
        plan_ir = plan_from_mdag(
            mdag, windows=windows, buffer_budget=buffer_budget,
            device=getattr(mem, "device_label", None))
        if plan_cache is not None:
            plan_cache[key] = plan_ir
    return plan_ir


def build_engine(mdag: BoundMDAG, mem: DramModel, mode: str = "event",
                 schedule_cache: Optional[dict] = None) -> Engine:
    """Plan ``mdag`` and build, without running, the engine of its one
    component — the design a pre-flight analyzer or an observer inspects.

    Raises :class:`ExecutionError` when the plan needs several
    components (run those with :func:`execute_plan`).
    """
    _check_bound(mdag)
    plan = composition_from_plan(_compiled(mdag, mem, None, 0, None, None),
                                 mdag)
    if plan.num_components != 1:
        raise ExecutionError(
            f"the plan has {plan.num_components} components; "
            "build_engine builds a single-component plan")
    return _build_component(mdag, mem, plan, set(), {}, plan.components[0],
                            mode, schedule_cache)


def _build_component(mdag: BoundMDAG, mem: DramModel,
                     plan: CompositionPlan, cut,
                     scratch: Dict[Tuple[str, str], DramBuffer], component,
                     mode: str,
                     schedule_cache: Optional[dict] = None) -> Engine:
    """Wire the engine for one plan component.

    Every kernel declares its ports (and a compute node its binding's
    ``defer``), so pre-flight analysis covers the whole design.  An
    interface node's kernel takes the node's name; on-chip edges are
    channels named ``<src>__<dst>``.
    """
    eng = Engine(memory=mem, mode=mode, schedule_cache=schedule_cache)
    in_chans: Dict[str, Dict[str, object]] = {n: {} for n in component}
    out_chans: Dict[str, Dict[str, object]] = {n: {} for n in component}
    # interface fanout bookkeeping: read node -> list of its channels
    read_fanout: Dict[str, List] = {}

    for u, v, data in mdag.graph.edges(data=True):
        produces = data["produces"]
        if (u, v) in cut:
            # Producer side: drain into DRAM in the producer's component
            # (compute producers only; interface producers simply re-read
            # in the consumer's component).
            if mdag.kind(u) == "compute" and u in component:
                ch = eng.channel(f"cut_{u}_{v}",
                                 max(64, 2 * _width_of(mdag, u)))
                out_chans[u][data["src_port"]] = ch
                eng.add_kernel(f"write_{u}_{v}", write_kernel(
                    mem, scratch[(u, v)], ch, produces.total,
                    _width_of(mdag, u)), reads=(ch,))
            # Consumer side: read back in the consumer's component.
            if v in component:
                width = _width_of(mdag, v)
                ch = eng.channel(f"mat_{u}_{v}", max(64, 2 * width))
                in_chans[v][data["dst_port"]] = ch
                if mdag.kind(u) == "compute":
                    repeat = max(1, data["consumes"].total // produces.total)
                    body = read_kernel(mem, scratch[(u, v)], ch, width,
                                       repeat=repeat)
                else:
                    b = mdag.bindings[u]
                    width = b.width
                    body = read_kernel(mem, b.buffer, ch, width,
                                       order=b.order, repeat=b.repeat)
                eng.add_kernel(f"read_{u}_{v}", body,
                               writes=[(ch, width, 1)])
            continue
        if u not in component and v not in component:
            continue
        if u not in component or v not in component:  # pragma: no cover
            raise ExecutionError(
                f"on-chip edge {u!r}->{v!r} spans components; "
                "plan is inconsistent")
        depth = plan.channel_depths.get((u, v), data["depth"])
        ch = eng.channel(f"{u}__{v}", depth)
        if mdag.kind(u) == "interface":
            read_fanout.setdefault(u, []).append((ch, produces))
        else:
            out_chans[u][data["src_port"]] = ch
        in_chans[v][data["dst_port"]] = ch

    # Instantiate node kernels in MDAG insertion order (``component`` is
    # a set, and the engine steps kernels in registration order).
    for node in (n for n in mdag.graph.nodes if n in component):
        binding = mdag.bindings.get(node)
        if isinstance(binding, ComputeBinding):
            ins, outs = in_chans[node], out_chans[node]
            lanes = _lanes(mdag, node)
            eng.add_kernel(node, binding.factory(ins, outs),
                           latency=binding.latency,
                           reads=tuple(ins.values()),
                           writes=[(c, lanes) for c in outs.values()],
                           defer=binding.defer)
        elif isinstance(binding, ReadBinding):
            chans = read_fanout.get(node, [])
            if not chans:
                continue          # all of its edges were materialized
            width = binding.width
            feed = (chans[0][0] if len(chans) == 1 else
                    eng.channel(f"{node}__fan", 8 * width))
            eng.add_kernel(node, read_kernel(
                mem, binding.buffer, feed, width, order=binding.order,
                repeat=binding.repeat), writes=[(feed, width, 1)])
            if len(chans) > 1:
                fans = [c for c, _s in chans]
                eng.add_kernel(f"fan_{node}", duplicate_kernel(
                    feed, fans, chans[0][1].total, width),
                    reads=(feed,), writes=[(c, width, 1) for c in fans])
        elif isinstance(binding, WriteBinding):
            chans = list(in_chans[node].values())
            if not chans:
                continue
            if len(chans) != 1:
                raise ExecutionError(
                    f"write interface {node!r} must have one in-edge")
            eng.add_kernel(node, write_kernel(
                mem, binding.buffer, chans[0], binding.count,
                binding.width, order=binding.order), reads=(chans[0],))
    return eng


def _width_of(mdag: BoundMDAG, node: str) -> int:
    binding = mdag.bindings.get(node)
    return getattr(binding, "width", 1) or 1


def _lanes(mdag: BoundMDAG, node: str) -> int:
    """Push width a compute node declares: the widest interface binding
    next to it (its bindings carry no width of their own)."""
    g = mdag.graph
    return max((_width_of(mdag, n) for n in (*g.predecessors(node),
                                              *g.successors(node))
                if mdag.kind(n) == "interface"), default=1)


def _check_bound(mdag: BoundMDAG) -> None:
    missing = [n for n in mdag.graph.nodes if n not in mdag.bindings]
    if missing:
        raise ExecutionError(f"unbound nodes: {sorted(missing)}")
