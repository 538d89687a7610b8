"""Compile live objects into the plan IR, and back.

``compile_plan`` is the single entry point: hand it an
:class:`~repro.fpga.engine.Engine`, an
:class:`~repro.streaming.mdag.MDAG` (bound or not), or an existing
:class:`~repro.plan.ir.PlanIR`, and get the typed plan back.  MDAG
compilation runs :func:`repro.streaming.scheduler.plan_composition`
exactly once and records its decisions (components, materialized/sized
edges, final depths) in the IR; :func:`composition_from_plan` rebuilds
the scheduler's :class:`~repro.streaming.scheduler.CompositionPlan`
from the IR without re-planning — this is what makes the executor's
plan cache skip MDAG validation and scheduling entirely on a hit.

Imports of :mod:`repro.streaming` stay inside functions: the streaming
package itself imports :mod:`repro.plan`.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, NamedTuple, Optional, Set,
                    Tuple, Union)

import numpy as np

from .ir import (
    PlanChannel,
    PlanEdge,
    PlanIR,
    PlanKernel,
    PlanMemory,
    PlanPlacement,
    PlanPort,
    PlanPrediction,
    PlanTraffic,
    Row,
    structure_key,
)

__all__ = [
    "EngineRows", "as_plan", "compile_plan", "composition_from_plan",
    "engine_rows", "mdag_fingerprint", "plan_from_composition",
    "plan_from_engine", "plan_from_mdag", "plan_from_rows",
    "plan_identity",
]


def compile_plan(subject: Any, *, windows: Optional[Dict] = None,
                 buffer_budget: int = 0,
                 device: Optional[str] = None) -> PlanIR:
    """Compile ``subject`` (Engine | MDAG | PlanIR) into a :class:`PlanIR`.

    An engine compiles to the kernel/channel/pattern view the analyzer
    and certifier consume (so do its already-extracted
    :class:`EngineRows`); an MDAG is scheduled once (``windows`` and
    ``buffer_budget`` forwarded to the planner) and compiles to the
    edge/component view the executor and codegen consume.  A PlanIR
    passes through unchanged.
    """
    if isinstance(subject, PlanIR):
        return subject
    if isinstance(subject, EngineRows):
        return plan_from_rows(subject)
    if _is_engine(subject):
        return plan_from_engine(subject)
    if hasattr(subject, "graph") and hasattr(subject, "kind"):
        return plan_from_mdag(subject, windows=windows,
                              buffer_budget=buffer_budget, device=device)
    raise TypeError(
        f"cannot compile a plan from {type(subject).__name__}; expected "
        "an Engine, an MDAG, or a PlanIR")


def as_plan(subject: Any) -> PlanIR:
    """Coerce ``subject`` to a :class:`PlanIR` (no planner options)."""
    return compile_plan(subject)


# ---------------------------------------------------------------------------
# Engine -> PlanIR
# ---------------------------------------------------------------------------

def _is_engine(subject: Any) -> bool:
    # PlanIR and EngineRows carry the same two attribute names.
    return (not isinstance(subject, (PlanIR, EngineRows))
            and hasattr(subject, "kernels") and hasattr(subject, "channels"))


def _memory_label(mem: Any) -> str:
    label = getattr(mem, "device_label", None)
    if label:
        return str(label)
    return (f"generic-dram-{getattr(mem, 'num_banks', 0)}"
            f"x{getattr(mem, 'bytes_per_cycle', 0)}")


class EngineRows(NamedTuple):
    """What one pass over a live engine extracts, as plain :data:`Row`
    tuples: enough to key the design (:attr:`plan_key`) and to build its
    :class:`PlanIR` (:func:`plan_from_rows`), without touching the
    engine again."""

    subject: str
    device: Optional[str]
    kernels: Tuple[Row, ...]
    channels: Tuple[Row, ...]
    memory: Optional[Row]
    placements: Tuple[Row, ...]

    @property
    def plan_key(self) -> str:
        """The ``plan_key`` of the :class:`PlanIR` these rows build."""
        return structure_key(self.device, self.kernels, self.channels,
                             self.memory, self.placements)


def _stripe(buf: Any) -> Tuple[int, ...]:
    """Member channels of a striped/range buffer (else empty: ``bank``
    is authoritative)."""
    placement = buf.placement
    if placement is not None and len(placement.channels) > 1:
        return tuple(placement.channels)
    return ()


def _overtakes(load: Any, total: int, store: Any) -> bool:
    """True unless the read ``load`` (``total`` elements) walks the order
    ``store`` writes their buffer in once, no index twice: a window
    gathers its reads before it stores its writes."""
    a, b = load.order, store.order
    if a is None and b is None:
        return total != load.buf.num_elements
    a = np.arange(load.buf.num_elements) if a is None else a
    b = np.arange(len(a)) if b is None else b
    return (total != len(a) or not np.array_equal(a, b)
            or np.unique(a).size < a.size)


def engine_rows(engine: Any) -> EngineRows:
    """The single extraction pass: kernels, patterns, channels, DRAM."""
    kernels: List[Row] = []
    depths: Dict[str, int] = {
        name: ch.depth for name, ch in engine.channels.items()}
    buffers: Dict[str, Any] = {}
    stores: Dict[Any, List[Any]] = {}
    mem = engine.memory

    for k in engine.kernels.values():
        p = k.pattern
        reads: Tuple[Row, ...] = ()
        writes: Tuple[Row, ...] = ()
        dram: Tuple[Row, ...] = ()
        if p is not None:
            reads = tuple(
                (ch.name, w, None, total)
                for (ch, w), total in zip(p.reads, p.read_totals))
            writes = tuple(
                (ch.name, w, lat, total)
                for (ch, w, lat), total in zip(p.writes, p.write_totals))
            dram = tuple(
                (d.buf.name, d.buf.bank, d.elements if d.kind != "gather"
                 else -(-int(d.elements * d.buf.itemsize  # the budget drawn
                             * d.mem.stride_penalty) // d.buf.itemsize),
                 d.buf.itemsize, d.kind, _stripe(d.buf))
                for d in p.dram)
            for d in p.dram:
                buffers[d.buf.name] = d.buf
                if mem is None:
                    mem = d.mem
                if d.kind == "write":
                    stores.setdefault(d.buf, []).append(d)
            for ch, _w in p.reads:
                depths.setdefault(ch.name, ch.depth)
            for ch, _w, _lat in p.writes:
                depths.setdefault(ch.name, ch.depth)
        for port in k.write_ports:
            depths.setdefault(port.channel.name, port.channel.depth)
        for ch in k.read_channels:
            depths.setdefault(ch.name, ch.depth)
        kernels.append((
            k.name, k.latency, k.ii, k.defer, k.annotated,
            p is not None,
            p is not None and p._ready is not None,
            p.ii if p is not None else 1,
            getattr(p, "defer", 0) if p is not None else 0,
            reads, writes,
            tuple(ch.name for ch in k.read_channels),
            tuple((port.channel.name, port.lanes, port.latency, None)
                  for port in k.write_ports),
            dram))

    if stores:      # a read its design stores over is not executable
        for i, k in enumerate(engine.kernels.values()):
            p = k.pattern
            if p is not None and any(
                    _overtakes(d, p.write_totals[0], s) for d in p.dram
                    if d.kind != "write" for s in stores.get(d.buf, ())):
                kernels[i] = kernels[i][:6] + (False,) + kernels[i][7:]

    memory = None
    device = None
    if mem is not None:
        device = _memory_label(mem)
        memory = (device, mem.num_banks, mem.bytes_per_cycle,
                  mem.interleaving)

    placements = tuple(
        (name, buf.bank, buf.num_elements, buf.itemsize,
         buf.placement.kind if buf.placement is not None else "interleaved",
         _stripe(buf))
        for name, buf in sorted(buffers.items()))

    return EngineRows(
        subject=f"engine({len(engine.kernels)} kernels)",
        device=device,
        kernels=tuple(kernels),
        channels=tuple(depths.items()),
        memory=memory,
        placements=placements)


def _ports(rows: Iterable[Row]) -> Tuple[PlanPort, ...]:
    return tuple(PlanPort(*r) for r in rows)


def plan_from_rows(rows: EngineRows) -> PlanIR:
    """Build the typed plan from an engine's extracted rows."""
    kernels = tuple(
        PlanKernel(*scalars, _ports(reads), _ports(writes), annotated_reads,
                   _ports(annotated_writes),
                   tuple(PlanTraffic(*t) for t in dram))
        for (*scalars, reads, writes, annotated_reads, annotated_writes,
             dram) in rows.kernels)
    return PlanIR(
        subject=rows.subject,
        device=rows.device,
        kernels=kernels,
        channels=tuple(PlanChannel(*c) for c in rows.channels),
        memory=PlanMemory(*rows.memory) if rows.memory else None,
        placements=tuple(PlanPlacement(*p) for p in rows.placements))


def plan_from_engine(engine: Any) -> PlanIR:
    """The analyzer/certifier view: kernels, patterns, channels, DRAM."""
    return plan_from_rows(engine_rows(engine))


def plan_identity(subject: Any) -> Tuple[str, Union[PlanIR, EngineRows]]:
    """``(plan_key, compiled)`` of anything :func:`compile_plan` takes.

    A live engine is keyed straight from its extracted rows and
    ``compiled`` is those :class:`EngineRows` — no :class:`PlanIR` is
    built until someone compiles them, which a certificate-cache hit
    never does.  Anything else compiles to its ``PlanIR`` first.  The
    key is the same either way (both go through
    :func:`~repro.plan.ir.structure_key`).
    """
    if _is_engine(subject):
        rows = engine_rows(subject)
        return rows.plan_key, rows
    plan = compile_plan(subject)
    return plan.plan_key, plan


# ---------------------------------------------------------------------------
# MDAG -> PlanIR (plans once, records the decisions)
# ---------------------------------------------------------------------------

def plan_from_mdag(mdag: Any, *, windows: Optional[Dict] = None,
                   buffer_budget: int = 0,
                   device: Optional[str] = None) -> PlanIR:
    """Validate + schedule the MDAG once; record the plan in the IR."""
    from ..streaming.scheduler import plan_composition
    comp = plan_composition(mdag, windows=windows,
                            buffer_budget=buffer_budget)
    return plan_from_composition(mdag, comp, device=device)


def plan_from_composition(mdag: Any, comp: Any,
                          device: Optional[str] = None) -> PlanIR:
    """Record an already-computed ``CompositionPlan`` in the IR."""
    cut = set(comp.materialized_edges)
    sized = set(comp.sized_edges)
    edges: List[PlanEdge] = []
    channels: List[PlanChannel] = []
    for u, v, data in mdag.graph.edges(data=True):
        produces = data["produces"]
        consumes = data["consumes"]
        depth = comp.channel_depths.get((u, v), data["depth"])
        materialized = (u, v) in cut
        edges.append(PlanEdge(
            src=u, dst=v,
            src_kind=mdag.kind(u), dst_kind=mdag.kind(v),
            src_port=data.get("src_port", "out"),
            dst_port=data.get("dst_port", "in"),
            produces_total=produces.total,
            produces_order=tuple(produces.order),
            consumes_total=consumes.total,
            consumes_order=tuple(consumes.order),
            depth=depth,
            materialized=materialized,
            sized=(u, v) in sized))
        if not materialized:
            channels.append(PlanChannel(name=f"{u}__{v}", depth=depth))
    return PlanIR(
        subject=f"mdag({mdag.graph.number_of_nodes()} nodes)",
        device=device,
        channels=tuple(channels),
        edges=tuple(edges),
        components=tuple(tuple(sorted(c)) for c in comp.components),
        predictions=PlanPrediction(
            io_elements=comp.io_operations(),
            sequential_io_elements=comp.sequential_io_operations()))


def composition_from_plan(plan: PlanIR, mdag: Any) -> Any:
    """Rebuild the scheduler's ``CompositionPlan`` from the IR.

    This is the cache-hit path: no MDAG validation, no ``analyze()``,
    no remedy loop — the recorded decisions are replayed verbatim.
    """
    from ..streaming.scheduler import CompositionPlan
    components: List[Set[str]] = [set(c) for c in plan.components]
    materialized = sorted((e.src, e.dst) for e in plan.edges
                          if e.materialized)
    depths = {(e.src, e.dst): e.depth for e in plan.edges
              if not e.materialized}
    sized = [(e.src, e.dst) for e in plan.edges if e.sized]
    return CompositionPlan(mdag=mdag, components=components,
                           materialized_edges=materialized,
                           channel_depths=depths, sized_edges=sized)


def mdag_fingerprint(mdag: Any, windows: Optional[Dict] = None,
                     buffer_budget: int = 0) -> Tuple[Any, ...]:
    """Structural pre-compile key for an MDAG + planner options.

    Bindings (buffers, factories) are deliberately excluded: the plan
    only depends on graph structure, signatures and depths, so repeat
    requests over new problem instances of the same shape hit the
    cache.
    """
    nodes = tuple(sorted(
        (n, mdag.kind(n)) for n in mdag.graph.nodes))
    edges = tuple(sorted(
        (u, v, data["depth"],
         data.get("src_port", "out"), data.get("dst_port", "in"),
         data["produces"].total, tuple(data["produces"].order),
         data["consumes"].total, tuple(data["consumes"].order))
        for u, v, data in mdag.graph.edges(data=True)))
    window_items = tuple(sorted((windows or {}).items()))
    return (nodes, edges, window_items, buffer_budget)
