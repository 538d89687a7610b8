"""Module DAG (MDAG) construction and validity analysis (Sec. V).

A computation is a DAG whose vertices are hardware modules — *interface*
modules (off-chip memory access, drawn as circles in the paper) and
*compute* modules (FBLAS routines, rectangles) — and whose edges are FIFO
channels.  The analysis answers, statically, the paper's validity
questions:

* every edge must move the same number of elements in the same order on
  both ends (checked against :class:`StreamSignature` pairs);
* a *multitree* MDAG (at most one path between any pair of vertices) with
  valid edges is always valid;
* if two vertices are joined by two or more vertex-disjoint paths, the
  composition can stall forever unless some channel is sized to buffer the
  producer's full reordering window (the ATAX case) — such pairs are
  reported along with the edges that need explicit sizing.

The checks themselves live in :mod:`repro.analysis` as analyzer passes
with stable diagnostic codes; :meth:`MDAG.validate` is a thin adapter
that re-expresses those diagnostics as the classic
:class:`ValidationReport`.  The *dynamic* counterpart of this analysis is
the simulator's :class:`~repro.fpga.engine.DeadlockError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..fpga.channel import DEFAULT_CHANNEL_DEPTH
from ..fpga.errors import ReproError
from .interface import StreamSignature

__all__ = [
    "DEFAULT_CHANNEL_DEPTH", "EdgeIssue", "MDAG", "MDAGError",
    "ValidationReport",
]

#: Analyzer code -> the legacy EdgeIssue ``kind`` vocabulary.
_CODE_TO_KIND = {
    "FB001": "signature",
    "FB002": "buffering",
    "FB003": "buffering",
    "FB004": "cycle",
    "FB005": "replay",
}


class MDAGError(ReproError, ValueError):
    """Raised on malformed MDAG construction.

    Part of the :class:`~repro.fpga.errors.ReproError` hierarchy; keeps
    ``ValueError`` as a base for backwards compatibility with callers
    that predate the consolidation.
    """


@dataclass
class EdgeIssue:
    """One validity problem found by :meth:`MDAG.validate`."""

    kind: str            # "signature", "replay", "cycle", "buffering"
    detail: str
    edge: Optional[Tuple[str, str]] = None
    #: Stable diagnostic code (see :data:`repro.analysis.CODES`).
    code: str = ""


@dataclass
class ValidationReport:
    """Outcome of the static MDAG analysis."""

    valid: bool
    is_multitree: bool
    issues: List[EdgeIssue] = field(default_factory=list)
    #: Vertex pairs joined by >= 2 vertex-disjoint paths; these make the
    #: MDAG a non-multitree and require explicit channel sizing.
    reconvergent_pairs: List[Tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.valid


class MDAG:
    """A module DAG under construction."""

    def __init__(self):
        self.graph = nx.DiGraph()

    # -- construction -------------------------------------------------------
    def add_interface(self, name: str) -> str:
        """Add an interface module (off-chip memory reader/writer)."""
        return self._add(name, "interface")

    def add_module(self, name: str) -> str:
        """Add a compute module (an FBLAS routine instance)."""
        return self._add(name, "compute")

    def _add(self, name: str, kind: str) -> str:
        if name in self.graph:
            raise MDAGError(f"duplicate module name {name!r}")
        self.graph.add_node(name, kind=kind)
        return name

    def connect(self, src: str, dst: str, produces: StreamSignature,
                consumes: StreamSignature,
                depth: int = DEFAULT_CHANNEL_DEPTH) -> None:
        """Add a FIFO edge carrying ``produces`` into ``consumes``."""
        for node in (src, dst):
            if node not in self.graph:
                raise MDAGError(f"unknown module {node!r}")
        if self.graph.has_edge(src, dst):
            raise MDAGError(f"duplicate edge {src!r} -> {dst!r}")
        self.graph.add_edge(src, dst, produces=produces, consumes=consumes,
                            depth=depth)

    def kind(self, name: str) -> str:
        return self.graph.nodes[name]["kind"]

    # -- analysis -------------------------------------------------------------
    def _multipath_pairs(self) -> List[Tuple[str, str]]:
        """Vertex pairs with more than one (not necessarily disjoint) path."""
        from ..analysis.graphs import multipath_pairs
        return multipath_pairs(self.graph)

    def reconvergent_pairs(self) -> List[Tuple[str, str]]:
        """Pairs joined by >= 2 internally vertex-disjoint paths.

        These are the pairs the paper singles out (Sec. V-B): data fans out
        at the first vertex and rejoins at the second, so one branch can
        only progress if the other's data is buffered in a channel.
        """
        from ..analysis.graphs import reconvergent_pairs
        return reconvergent_pairs(self.graph)

    def analyze(self, windows: Optional[Dict[Tuple[str, str], int]] = None):
        """Run the full pass-based analyzer; returns an
        :class:`repro.analysis.AnalysisResult` with FBxxx diagnostics.

        ``windows`` maps edges to reordering windows (elements); with them
        the reconvergence check proves depth sufficiency (FB008) or the
        deadlock (FB003) instead of merely flagging the pair (FB002).
        """
        from ..analysis import analyze_mdag
        return analyze_mdag(self, windows=windows)

    def validate(self,
                 windows: Optional[Dict[Tuple[str, str], int]] = None,
                 ) -> ValidationReport:
        """Run the static analysis; adapter over :meth:`analyze`.

        Without ``windows`` every reconvergent pair renders the MDAG
        invalid (the paper's dynamic-problem-size verdict); with them, a
        pair whose channel holds the full window is accepted.
        """
        result = self.analyze(windows=windows)
        issues = [
            EdgeIssue(_CODE_TO_KIND[d.code], d.message, d.edge, code=d.code)
            for d in result.diagnostics if d.code in _CODE_TO_KIND
            and d.severity >= d.severity.WARNING
        ]
        reconv = (self.reconvergent_pairs()
                  if nx.is_directed_acyclic_graph(self.graph) else [])
        multitree = not self._multipath_pairs()
        valid = result.ok and not any(
            i.kind == "buffering" for i in issues)
        return ValidationReport(valid=valid, is_multitree=multitree,
                                issues=issues, reconvergent_pairs=reconv)

    def required_depth(self, u: str, v: str, window: int) -> None:
        """Record that edge (u, v) needs at least ``window`` slots.

        Raising the stored depth turns a reconvergent composition into a
        valid one *for the given problem size* — exactly remedy (a) of
        Sec. V-B.  The simulator builders read this attribute.
        """
        if not self.graph.has_edge(u, v):
            raise MDAGError(f"no edge {u!r} -> {v!r}")
        if window < 1:
            raise MDAGError("window must be positive")
        data = self.graph.edges[u, v]
        data["depth"] = max(data["depth"], window)

    def depth(self, u: str, v: str) -> int:
        return self.graph.edges[u, v]["depth"]

    # -- reporting -------------------------------------------------------------
    def io_operations(self) -> int:
        """Total off-chip elements moved.

        A read interface that fans the *same* stream out to several
        consumers reads DRAM once (the BICG trick); distinct signatures
        from one interface cost one read each.  Writes count per edge.
        """
        total = 0
        for node, nd in self.graph.nodes(data=True):
            if nd["kind"] != "interface":
                continue
            distinct = {self.graph.edges[node, v]["produces"]
                        for v in self.graph.successors(node)}
            total += sum(sig.total for sig in distinct)
            for u in self.graph.predecessors(node):
                total += self.graph.edges[u, node]["consumes"].total
        return total

    def describe(self) -> str:
        lines = ["MDAG:"]
        for n, d in self.graph.nodes(data=True):
            lines.append(f"  [{d['kind']:9s}] {n}")
        for u, v, d in self.graph.edges(data=True):
            lines.append(f"  {u} -> {v} ({d['produces'].total} elems, "
                         f"depth {d['depth']})")
        return "\n".join(lines)
