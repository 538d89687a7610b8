"""The typed plan IR (``repro.plan/1``).

A :class:`PlanIR` is the single compiled artifact every downstream
subsystem consumes: kernels x ports x channels x StaticPatterns x DRAM
placements x declared rates, plus (for MDAG compositions) the planned
edges, component partition, and closed-form predictions.  It is

* **typed** — frozen dataclasses with full annotations (the mypy
  ``--strict`` CI job covers this package);
* **versioned** — :data:`PLAN_SCHEMA` rides in every serialized dump,
  next to the existing ``repro.analysis/1`` / ``repro.schedule/1``
  schemas;
* **structural** — :attr:`PlanIR.plan_key` is a SHA-256 over the
  plan's shape (including the device-catalog identity of its memory,
  with DRAM buffers identified by *role*, not name — see
  :func:`structure_key`), so two compilations of the same composition
  share certificates and caches while a plan certified on one device
  can never be replayed on another;
* **lossless** — ``from_dict(to_dict(p))`` reconstructs a structurally
  equal plan with the same ``plan_key`` (property-tested).

Compilation lives in :mod:`repro.plan.compile`; the consumers
(:mod:`repro.analysis`, :mod:`repro.streaming.executor`,
:mod:`repro.codegen`, :mod:`repro.telemetry.drift`) are thin passes
over this one artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from numbers import Integral
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

# No cycle: nothing repro.fpga imports at module scope imports repro.plan.
from ..fpga.errors import ReproError

__all__ = [
    "PLAN_SCHEMA", "PlanChannel", "PlanEdge", "PlanError", "PlanIR",
    "PlanKernel", "PlanMemory", "PlanPlacement", "PlanPort",
    "PlanPrediction", "PlanTraffic", "Row", "structure_key",
]

#: One plan record as a plain tuple in its dataclass's field order
#: (``PlanPort(*row)`` rebuilds the record).  Kernel rows nest their
#: port and traffic rows the same way.
Row = Tuple[Any, ...]

#: Schema tag for serialized plans, alongside ``repro.analysis/1``,
#: ``repro.schedule/1``, ``repro.simreport/1`` and ``repro.drift/1``.
PLAN_SCHEMA = "repro.plan/1"


class PlanError(ReproError, ValueError):
    """A document :meth:`PlanIR.from_dict` cannot rebuild a plan from: an
    unsupported schema, a missing key, or a value of the wrong type."""


@dataclass(frozen=True)
class PlanPort:
    """One kernel port: a named channel at a lane width.

    ``latency`` is the push latency for write ports (``None`` = the
    kernel default); ``total`` is the declared whole-run element total
    (``None`` = unknown), the number the FB401 token-conservation check
    ranges over.
    """

    channel: str
    lanes: int = 1
    latency: Optional[int] = None
    total: Optional[int] = None


@dataclass(frozen=True)
class PlanTraffic:
    """Steady-state DRAM traffic of one kernel on one buffer.

    ``channels`` lists the member channels of a striped/range placement
    (the demand spreads over them); empty means the traffic hits the
    single ``bank`` (or the pooled budget when ``bank`` is ``None``).
    ``kind`` is ``"read"``, ``"write"`` or ``"gather"`` (a read with
    bursts across stride breaks, whose ``elements`` is the budget it
    draws at the memory's stride penalty, not the elements it moves).
    """

    buffer: str
    bank: Optional[int]
    elements: int
    itemsize: int
    kind: str                    # "read" | "gather" | "write"
    channels: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PlanKernel:
    """One kernel: identity, pipeline shape, pattern ports, annotations.

    ``reads``/``writes`` are the :class:`~repro.fpga.pattern.
    StaticPattern` ports (the executable contract); ``annotated_reads``/
    ``annotated_writes`` are the ``add_kernel(reads=..., writes=...)``
    lint annotations.  ``executable`` distinguishes a pattern with a
    ``ready``/``block`` fast path from a declare-only one, or from a
    read of a buffer its design stores in another order.
    """

    name: str
    latency: int = 1
    ii: int = 1
    defer: int = 0
    annotated: bool = False
    patterned: bool = False
    executable: bool = False
    pattern_ii: int = 1
    pattern_defer: int = 0
    reads: Tuple[PlanPort, ...] = ()
    writes: Tuple[PlanPort, ...] = ()
    annotated_reads: Tuple[str, ...] = ()
    annotated_writes: Tuple[PlanPort, ...] = ()
    dram: Tuple[PlanTraffic, ...] = ()


@dataclass(frozen=True)
class PlanChannel:
    """One on-chip FIFO channel at its configured depth."""

    name: str
    depth: int


@dataclass(frozen=True)
class PlanMemory:
    """The DRAM the plan executes against, with its catalog identity.

    ``device`` is the device-catalog label (e.g. ``"Stratix 10 GX
    2800"``); it participates in :attr:`PlanIR.plan_key`, so schedules
    certified against one board are never replayed on another.
    """

    device: str
    num_banks: int = 4
    bytes_per_cycle: int = 64
    interleaving: bool = False


@dataclass(frozen=True)
class PlanPlacement:
    """One DRAM buffer placement referenced by the plan's traffic.

    ``kind`` is the :class:`~repro.fpga.memory.Placement` vocabulary
    (``"single"`` / ``"striped"`` / ``"range"``, plus ``"interleaved"``
    for pooled buffers) and ``channels`` its member channels (empty for
    single/interleaved, where ``bank`` is authoritative).  Both
    participate in :attr:`PlanIR.plan_key`, so two layouts of the same
    kernels are distinct plans and certificates never cross placements.
    """

    buffer: str
    bank: Optional[int]
    elements: int
    itemsize: int
    kind: str = "single"
    channels: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PlanEdge:
    """One MDAG edge with its planned fate.

    ``materialized`` edges round-trip through scratch DRAM between
    sequential components; ``sized`` edges had their FIFO deepened by
    the planner's remedy (a); ``depth`` is the final planned depth.
    """

    src: str
    dst: str
    src_kind: str                # "interface" | "compute"
    dst_kind: str
    src_port: str = "out"
    dst_port: str = "in"
    produces_total: int = 0
    produces_order: Tuple[Any, ...] = ()
    consumes_total: int = 0
    consumes_order: Tuple[Any, ...] = ()
    depth: int = 64
    materialized: bool = False
    sized: bool = False


@dataclass(frozen=True)
class PlanPrediction:
    """Closed-form model predictions attached to the plan.

    ``cycles_lo``/``cycles_hi`` bracket the modeled completion cycles;
    ``io_elements`` is the modeled off-chip element count for the
    planned (streaming) composition and ``sequential_io_elements`` the
    every-call-round-trips baseline it is measured against.  The drift
    reporter compares measured runs to these numbers.
    """

    cycles_lo: Optional[int] = None
    cycles_hi: Optional[int] = None
    io_elements: Optional[int] = None
    sequential_io_elements: Optional[int] = None


def _freeze(value: Any) -> Any:
    """Nested lists -> tuples: a JSON round trip of a ``PlanEdge``
    stream-order descriptor must hash like the original."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


#: Runtime checks for the scalar field annotations of the plan records.
_SCALARS: Dict[str, Tuple[type, ...]] = {
    "str": (str,), "int": (Integral,), "bool": (bool,),
    "Optional[str]": (str, type(None)),
    "Optional[int]": (Integral, type(None)),
}


def _check_types(record: Any) -> None:
    """Raise :class:`PlanError` on a scalar field of ``record``, or of
    any record nested in it, that does not hold its annotated type."""
    for f in fields(record):
        value = getattr(record, f.name)
        want = _SCALARS.get(str(f.type))
        if want is not None and not isinstance(value, want):
            raise PlanError(f"{type(record).__name__}.{f.name} must be "
                            f"{f.type}, got {value!r}")
        for item in value if isinstance(value, tuple) else (value,):
            if is_dataclass(item):
                _check_types(item)


def _row_of(cls: type) -> Callable[[Any], Row]:
    """Getter for a flat record's :data:`Row` (inverse of ``cls(*row)``)."""
    return attrgetter(*(f.name for f in fields(cls)))


_PORT_ROW = _row_of(PlanPort)
_TRAFFIC_ROW = _row_of(PlanTraffic)
_CHANNEL_ROW = _row_of(PlanChannel)
_MEMORY_ROW = _row_of(PlanMemory)
_PLACEMENT_ROW = _row_of(PlanPlacement)
_EDGE_ROW = _row_of(PlanEdge)


def _kernel_row(k: PlanKernel) -> Row:
    return (k.name, k.latency, k.ii, k.defer, k.annotated, k.patterned,
            k.executable, k.pattern_ii, k.pattern_defer,
            tuple(map(_PORT_ROW, k.reads)), tuple(map(_PORT_ROW, k.writes)),
            k.annotated_reads, tuple(map(_PORT_ROW, k.annotated_writes)),
            tuple(map(_TRAFFIC_ROW, k.dram)))


def structure_key(device: Optional[str], kernels: Iterable[Row],
                  channels: Iterable[Row], memory: Optional[Row],
                  placements: Iterable[Row], edges: Iterable[Row] = (),
                  components: Tuple[Tuple[str, ...], ...] = ()) -> str:
    """SHA-256 of a plan's canonical structure, from plain rows.

    The one definition of plan identity: :attr:`PlanIR.plan_key` feeds
    it the rows of its dataclasses, :func:`repro.plan.plan_identity`
    the rows it extracted from a live engine, and the two agree.

    Everything a cached :class:`~repro.analysis.schedule.StaticSchedule`
    refers to is in the key — kernel and channel names, lanes,
    latencies, totals, depths, banks, placement kind and channels,
    itemsize, device identity — except DRAM buffer *names*: a buffer is
    identified by its role, the ordinal of its first appearance in
    kernel traffic order.  Aliasing therefore stays structure (in-place
    ``x, y -> y`` and out-of-place ``x, y -> z`` differ) while the same
    design bound to freshly named buffers is the same plan.  Channels
    and placements are order-insensitive; a placement no kernel touches
    has no role and is keyed by its layout alone.
    """
    roles: Dict[str, int] = {}
    keyed = []
    for row in kernels:
        dram = row[-1]
        if dram:
            row = row[:-1] + (tuple(
                (roles.setdefault(t[0], len(roles)),) + t[1:]
                for t in dram),)
        keyed.append(row)
    structure = (
        PLAN_SCHEMA, device, tuple(keyed), tuple(sorted(channels)), memory,
        # key=repr: a None bank (or role) must sort stably next to
        # integers instead of raising on the comparison.
        tuple(sorted(((roles.get(p[0]),) + p[1:] for p in placements),
                     key=repr)),
        tuple(edges), components)
    return hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PlanIR:
    """The compiled plan: one artifact, five consumers.

    ``subject`` is a human label (excluded from :attr:`plan_key`);
    ``device`` names the device-catalog entry the plan was compiled
    against (``None`` when no memory is attached).  ``kernels`` are in
    registration order; ``channels`` carry every FIFO the kernels or
    patterns reference.  For MDAG compositions, ``edges`` and
    ``components`` carry the scheduler's decisions so an engine can be
    built without re-planning.
    """

    subject: str = "plan"
    device: Optional[str] = None
    kernels: Tuple[PlanKernel, ...] = ()
    channels: Tuple[PlanChannel, ...] = ()
    memory: Optional[PlanMemory] = None
    placements: Tuple[PlanPlacement, ...] = ()
    edges: Tuple[PlanEdge, ...] = ()
    components: Tuple[Tuple[str, ...], ...] = ()
    predictions: PlanPrediction = field(default_factory=PlanPrediction)
    schema: str = PLAN_SCHEMA

    # -- derived views ----------------------------------------------------

    @cached_property
    def kernel_map(self) -> Dict[str, PlanKernel]:
        return {k.name: k for k in self.kernels}

    @cached_property
    def channel_depths(self) -> Dict[str, int]:
        return {c.name: c.depth for c in self.channels}

    def depth_of(self, channel: str, default: int = 0) -> int:
        return self.channel_depths.get(channel, default)

    @cached_property
    def plan_key(self) -> str:
        """Structural SHA-256 fingerprint (see :func:`structure_key`).

        Covers kernels (shape, patterns, rates), channels, memory +
        device identity, placements, edges and components — but not the
        ``subject`` label, attached predictions or DRAM buffer names,
        which are labels and derived annotations rather than structure.
        """
        return structure_key(
            self.device,
            map(_kernel_row, self.kernels),
            map(_CHANNEL_ROW, self.channels),
            _MEMORY_ROW(self.memory) if self.memory else None,
            map(_PLACEMENT_ROW, self.placements),
            (_freeze(_EDGE_ROW(e)) for e in self.edges),
            self.components)

    def with_predictions(self, cycles_lo: Optional[int] = None,
                         cycles_hi: Optional[int] = None,
                         io_elements: Optional[int] = None,
                         sequential_io_elements: Optional[int] = None,
                         ) -> "PlanIR":
        """A copy with model predictions attached (same ``plan_key``)."""
        merged = PlanPrediction(
            cycles_lo=(cycles_lo if cycles_lo is not None
                       else self.predictions.cycles_lo),
            cycles_hi=(cycles_hi if cycles_hi is not None
                       else self.predictions.cycles_hi),
            io_elements=(io_elements if io_elements is not None
                         else self.predictions.io_elements),
            sequential_io_elements=(
                sequential_io_elements if sequential_io_elements is not None
                else self.predictions.sequential_io_elements))
        return replace(self, predictions=merged)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-ready dump, schema first."""
        d = asdict(self)
        return {"schema": d.pop("schema"), **d}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanIR":
        """Inverse of :meth:`to_dict` (tolerates JSON round-trips).

        Raises :class:`PlanError` on a foreign schema, a missing key or
        a value of the wrong type, never a bare ``KeyError`` /
        ``TypeError``.
        """
        try:
            plan = cls._from_dict(data)
        except PlanError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed {PLAN_SCHEMA} document: "
                            f"{type(exc).__name__}: {exc}") from exc
        _check_types(plan)
        return plan

    @classmethod
    def _from_dict(cls, data: Mapping[str, Any]) -> "PlanIR":
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise PlanError(
                f"unsupported plan schema {schema!r} (expected "
                f"{PLAN_SCHEMA!r})")

        def port(p: Mapping[str, Any]) -> PlanPort:
            return PlanPort(channel=p["channel"], lanes=p["lanes"],
                            latency=p["latency"], total=p["total"])

        def kernel(k: Mapping[str, Any]) -> PlanKernel:
            return PlanKernel(
                name=k["name"], latency=k["latency"], ii=k["ii"],
                defer=k["defer"], annotated=k["annotated"],
                patterned=k["patterned"], executable=k["executable"],
                pattern_ii=k["pattern_ii"],
                pattern_defer=k["pattern_defer"],
                reads=tuple(port(p) for p in k["reads"]),
                writes=tuple(port(p) for p in k["writes"]),
                annotated_reads=tuple(k["annotated_reads"]),
                annotated_writes=tuple(port(p)
                                       for p in k["annotated_writes"]),
                dram=tuple(traffic(t) for t in k["dram"]))

        def traffic(t: Mapping[str, Any]) -> PlanTraffic:
            t = dict(t)
            t["channels"] = tuple(t.get("channels", ()))
            return PlanTraffic(**t)

        def placement(p: Mapping[str, Any]) -> PlanPlacement:
            p = dict(p)
            p["channels"] = tuple(p.get("channels", ()))
            return PlanPlacement(**p)

        def edge(e: Mapping[str, Any]) -> PlanEdge:
            e = dict(e)
            e["produces_order"] = tuple(e["produces_order"])
            e["consumes_order"] = tuple(e["consumes_order"])
            return PlanEdge(**e)

        memory = data.get("memory")
        predictions = data.get("predictions") or {}
        return cls(
            subject=data.get("subject", "plan"),
            device=data.get("device"),
            kernels=tuple(kernel(k) for k in data.get("kernels", ())),
            channels=tuple(PlanChannel(**c)
                           for c in data.get("channels", ())),
            memory=PlanMemory(**memory) if memory else None,
            placements=tuple(placement(p)
                             for p in data.get("placements", ())),
            edges=tuple(edge(e) for e in data.get("edges", ())),
            components=tuple(tuple(c)
                             for c in data.get("components", ())),
            predictions=PlanPrediction(**predictions),
            schema=schema)
