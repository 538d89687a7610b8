"""SDF rate analysis over a plan's ``StaticPattern`` ports (FB4xx).

A design whose kernels all carry executable
:class:`~repro.fpga.pattern.StaticPattern`\\ s is a synchronous-dataflow
graph with access patterns (SDF-AP): each kernel fires at initiation
interval ``ii`` moving ``lanes`` elements per port per firing.  These
passes treat it as such and prove, before cycle 0, everything the bulk
tier currently discovers by probing at runtime:

* **FB404** — certifiability: a kernel without an executable pattern (or
  with ``ii != 1``) has no static firing rule, so no whole-program
  schedule exists;
* **FB400** — rate consistency: the balance equations
  ``q_p * lanes_p = q_c * lanes_c`` must admit a repetition vector, and
  on a single-clock ``ii=1`` fabric that vector must be *uniform*
  (every kernel fires every cycle) — mismatched lanes on a channel make
  the pipeline structurally non-periodic;
* **FB401** — token conservation: declared per-port element totals must
  agree across each channel, otherwise one side starves (or is left
  holding undeliverable elements) after the common prefix drains;
* **FB402** — bandwidth feasibility: the steady-state DRAM demand
  implied by the patterns' :class:`~repro.fpga.pattern.DramTraffic`
  descriptors must fit each bank's per-cycle budget (and the pooled
  budget), since a certified superstep assumes every burst is granted in
  full — exactly the Table II arithmetic of the resource lint, applied
  per bank;
* **FB403** — minimal deadlock-free depths: for reconvergent pattern
  paths, the non-deferring branch must buffer the sibling branch's
  reordering window (the sum of its kernels' pattern ``defer``).  This
  tightens the two-sided FB002/FB003 prover to an exact bound: the
  inferred minimum *is* the paper's reconvergence depth (``N * T_N`` for
  ATAX), with no unproven staging-margin band.

Only channels whose producer *and* consumer both name them in pattern
ports participate in FB400/FB401 — a single-sided edge (e.g. a
reduction's event-stepped epilogue push) is dynamic by construction and
is left to the runtime checks.

Every helper and pass here consumes the typed
:class:`~repro.plan.PlanIR` — live engines are accepted for
convenience and coerced through :func:`repro.plan.as_plan` at the
boundary, so the passes themselves never introspect kernel generators
or channel objects.

The passes live in their own ``"rates"`` registry;
:func:`repro.analysis.analyze_rates` runs them, and
:func:`repro.analysis.schedule.certify` compiles a
:class:`~repro.analysis.schedule.StaticSchedule` when they all pass.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..plan import PlanIR, as_plan
from .diagnostics import Diagnostic, Severity
from .graphs import disjoint_paths, reconvergent_pairs
from .passes import register


# ---------------------------------------------------------------------------
# Shared structure extraction (PlanIR views)
# ---------------------------------------------------------------------------

def pattern_ports(subject) -> Tuple[Dict[str, List[Tuple[str, int,
                                                         Optional[int]]]],
                                    Dict[str, List[Tuple[str, int,
                                                         Optional[int]]]]]:
    """Port maps from pattern declarations (not ``add_kernel`` lint
    annotations — patterns are the executable contract).

    Returns ``(producers, consumers)``; each maps a channel name to a
    list of ``(kernel, lanes, total_elements_or_None)`` tuples (write
    latency is resolved separately where needed).
    """
    plan = as_plan(subject)
    producers: Dict[str, List[Tuple[str, int, Optional[int]]]] = {}
    consumers: Dict[str, List[Tuple[str, int, Optional[int]]]] = {}
    for k in plan.kernels:
        if not k.patterned:
            continue
        for port in k.reads:
            consumers.setdefault(port.channel, []).append(
                (k.name, port.lanes, port.total))
        for port in k.writes:
            producers.setdefault(port.channel, []).append(
                (k.name, port.lanes, port.total))
    return producers, consumers


def both_sided_edges(subject) -> Dict[str, Tuple[str, int, Optional[int],
                                                 str, int, Optional[int]]]:
    """Channels with exactly one pattern producer and one pattern
    consumer — the SDF edges the balance equations range over.  Keyed
    by channel name; values are ``(producer, p_lanes, p_total,
    consumer, c_lanes, c_total)``."""
    producers, consumers = pattern_ports(subject)
    edges = {}
    for ch, ps in producers.items():
        cs = consumers.get(ch)
        if cs is None or len(ps) != 1 or len(cs) != 1:
            continue
        (pk, pw, ptot), (ck, cw, ctot) = ps[0], cs[0]
        edges[ch] = (pk, pw, ptot, ck, cw, ctot)
    return edges


def solve_balance(subject):
    """Solve the SDF balance equations over the both-sided edges.

    Returns ``(q, conflicts)``: the repetition vector as
    ``{kernel_name: Fraction}`` (normalized so the smallest rate is 1)
    and the list of conflicting channels ``(ch, pk, ck, expected,
    got)``.  Kernels not touched by any both-sided edge get rate 1.
    """
    plan = as_plan(subject)
    edges = both_sided_edges(plan)
    q: Dict[str, Fraction] = {}
    conflicts = []
    for ch, (pk, pw, _pt, ck, cw, _ct) in edges.items():
        qp = q.get(pk)
        qc = q.get(ck)
        if qp is None and qc is None:
            q[pk] = Fraction(1)
            q[ck] = Fraction(pw, cw)
        elif qc is None:
            q[ck] = qp * Fraction(pw, cw)
        elif qp is None:
            q[pk] = qc * Fraction(cw, pw)
        else:
            if qp * pw != qc * cw:
                conflicts.append((ch, pk, ck, qp * Fraction(pw, cw), qc))
    for k in plan.kernels:
        q.setdefault(k.name, Fraction(1))
    lo = min(q.values(), default=Fraction(1))
    if lo > 0:
        q = {name: v / lo for name, v in q.items()}
    return q, conflicts


def bank_demand(subject) -> Dict[Optional[int], int]:
    """Steady-state DRAM demand in bytes/cycle from pattern traffic.

    Returns ``{channel: bytes_per_cycle}``; ``channel`` is ``None`` for
    interleaved buffers (drawing from the pooled budget).  Traffic on a
    striped/range placement spreads evenly over its member channels
    (rounded up per channel — the conservative direction for a
    feasibility lint).  Every memory kernel declares its traffic, a
    gather at the budget its stride penalty draws.  Budgets come from
    the plan's :class:`~repro.plan.PlanMemory`.
    """
    plan = as_plan(subject)
    demand: Dict[Optional[int], int] = {}
    for k in plan.kernels:
        for t in k.dram:
            nbytes = t.elements * t.itemsize
            if t.channels:
                share = -(-nbytes // len(t.channels))
                for c in t.channels:
                    demand[c] = demand.get(c, 0) + share
            else:
                demand[t.bank] = demand.get(t.bank, 0) + nbytes
    return demand


def _pattern_kernel_graph(plan: PlanIR) -> nx.DiGraph:
    """Kernel graph over pattern ports, supplemented by ``add_kernel``
    annotations.

    An *executable* pattern declares only its steady-window ports (e.g.
    the row-tiles GEMV patterns just the matrix stream), so the full
    wiring needed by the FB403 reconvergence analysis comes from the
    union of pattern ports and per-call read/write annotations.
    Parallel channels aggregate as in the FB00x prover (``depth_lo`` =
    min depth, ``channels`` = names).
    """
    g = nx.DiGraph()
    g.add_nodes_from(k.name for k in plan.kernels
                     if k.patterned or k.annotated)

    def add(pk_name, ck_name, ch_name, lanes):
        depth = plan.depth_of(ch_name)
        if g.has_edge(pk_name, ck_name):
            data = g.edges[pk_name, ck_name]
            if ch_name in data["channels"]:
                return
            data["depth_lo"] = min(data["depth_lo"], depth)
            data["lanes"] = max(data["lanes"], lanes)
            data["channels"].append(ch_name)
        else:
            g.add_edge(pk_name, ck_name, depth_lo=depth, lanes=lanes,
                       channels=[ch_name])

    for ch, (pk, pw, _pt, ck, _cw, _ct) in both_sided_edges(plan).items():
        add(pk, ck, ch, pw)
    writers: Dict[str, List[Tuple[str, str, int]]] = {}
    readers: Dict[str, List[str]] = {}
    for k in plan.kernels:
        for port in k.annotated_writes:
            writers.setdefault(port.channel, []).append(
                (k.name, port.channel, port.lanes))
        for ch in k.annotated_reads:
            readers.setdefault(ch, []).append(k.name)
    for name, ws in writers.items():
        rs = readers.get(name, ())
        if len(ws) != 1 or len(rs) != 1:
            continue
        (pk_name, ch_name, lanes), = ws
        add(pk_name, rs[0], ch_name, lanes)
    return g


def min_depth_requirements(subject):
    """Inferred minimal deadlock-free depth per reconvergent branch.

    Returns a list of ``(pair, branch_nodes, channels, capacity,
    required)`` tuples, one per branch of every reconvergent pattern
    pair whose sibling branch defers output (``required > 0``).
    """
    plan = as_plan(subject)
    g = _pattern_kernel_graph(plan)
    if not nx.is_directed_acyclic_graph(g):
        return []                        # FB004 territory
    kernels = plan.kernel_map
    out = []
    for a, b in reconvergent_pairs(g):
        paths = disjoint_paths(g, a, b)
        stats = []
        for p in paths:
            pedges = list(zip(p[:-1], p[1:]))
            defer = 0
            for name in p[1:-1]:
                k = kernels[name]
                # A pattern declares only its steady-window ports, so the
                # add_kernel annotation may know the larger window.
                defer += max(k.pattern_defer, k.defer)
            stats.append({
                "nodes": p,
                "defer": defer,
                "capacity": sum(g.edges[e]["depth_lo"] for e in pedges),
                "channels": [c for e in pedges
                             for c in g.edges[e]["channels"]],
            })
        if all(s["defer"] == 0 for s in stats):
            continue
        for i, s in enumerate(stats):
            required = max(t["defer"] for j, t in enumerate(stats)
                           if j != i)
            if required > 0:
                out.append(((a, b), s["nodes"], s["channels"],
                            s["capacity"], required))
    return out


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@register("rates", "certifiable")
def check_certifiable(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB404: every kernel needs an executable ii=1 StaticPattern."""
    for k in plan.kernels:
        if not k.patterned:
            yield Diagnostic(
                "FB404", Severity.ERROR,
                f"kernel {k.name!r} carries no StaticPattern; its firing "
                "behaviour is dynamic and cannot be scheduled statically",
                obj=k.name,
                fix="wrap the generator in PatternedGenerator with an "
                    "executable StaticPattern")
        # A declare-only pattern carries no DRAM traffic: a memory kernel
        # is non-executable only by engine_rows' store-order guard.
        elif not k.executable and k.dram:
            yield Diagnostic(
                "FB404", Severity.ERROR,
                f"kernel {k.name!r} reads buffer {k.dram[0].buffer!r} out of "
                "the order the design stores it in, or twice; a window "
                "would gather bytes the stepped run overwrites first",
                obj=f"{k.name}@{k.dram[0].buffer}")
        elif not k.executable:
            yield Diagnostic(
                "FB404", Severity.ERROR,
                f"kernel {k.name!r} has a declare-only pattern (ports "
                "documented, no block executor); the fast path can never "
                "engage for it", obj=k.name,
                fix="declare the loop as a repro.fpga.pattern.SteadyLoop")
        elif k.pattern_ii != 1:
            yield Diagnostic(
                "FB404", Severity.ERROR,
                f"kernel {k.name!r} initiates every {k.pattern_ii} cycles; "
                "whole-program windows require ii == 1", obj=k.name)


@register("rates", "rates")
def check_rates(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB400: balance equations must yield a uniform repetition vector."""
    edges = both_sided_edges(plan)
    producers, consumers = pattern_ports(plan)
    for ch, ps in producers.items():
        if len(ps) > 1:
            yield Diagnostic(
                "FB400", Severity.ERROR,
                f"channel {ch!r} has {len(ps)} pattern producers; "
                "SDF edges are single-producer", obj=ch)
    for ch, cs in consumers.items():
        if len(cs) > 1:
            yield Diagnostic(
                "FB400", Severity.ERROR,
                f"channel {ch!r} has {len(cs)} pattern consumers; "
                "SDF edges are single-consumer", obj=ch)
    q, conflicts = solve_balance(plan)
    for ch, pk, ck, expected, got in conflicts:
        yield Diagnostic(
            "FB400", Severity.ERROR,
            f"channel {ch!r}: balance equations are inconsistent — "
            f"propagation forces rate {expected} on {ck!r} but its "
            f"other edges force {got}; no repetition vector exists",
            edge=(pk, ck), obj=ch)
    if not conflicts:
        for ch, (pk, pw, _pt, ck, cw, _ct) in edges.items():
            if pw != cw:
                yield Diagnostic(
                    "FB400", Severity.ERROR,
                    f"channel {ch!r}: producer {pk!r} pushes "
                    f"{pw} lanes/cycle but consumer {ck!r} pops "
                    f"{cw}; the repetition vector "
                    f"({ck}: {q[ck]} firings per {pk} "
                    "firing) is not uniform, so no single-clock ii=1 "
                    "steady state exists",
                    edge=(pk, ck), obj=ch,
                    fix=f"match the lanes (width) on {ch!r}")


@register("rates", "tokens")
def check_tokens(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB401: per-channel element totals must conserve."""
    for ch, (pk, _pw, ptot, ck, _cw, ctot) in both_sided_edges(
            plan).items():
        if ptot is None or ctot is None or ptot == ctot:
            continue
        if ptot < ctot:
            yield Diagnostic(
                "FB401", Severity.ERROR,
                f"channel {ch!r}: consumer {ck!r} expects "
                f"{ctot} elements but producer {pk!r} emits only "
                f"{ptot}; the consumer starves after the common prefix",
                edge=(pk, ck), obj=ch)
        else:
            yield Diagnostic(
                "FB401", Severity.ERROR,
                f"channel {ch!r}: producer {pk!r} emits {ptot} "
                f"elements but consumer {ck!r} accepts only {ctot}; "
                f"the surplus {ptot - ctot} accumulate until the channel "
                "back-pressures the producer forever",
                edge=(pk, ck), obj=ch)


@register("rates", "bandwidth")
def check_bandwidth(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB402: steady DRAM demand must fit every bank budget in full."""
    demand = bank_demand(plan)
    mem = plan.memory
    if mem is None:
        return
    total = 0
    for bank, nbytes in sorted(
            demand.items(),
            key=lambda kv: -1 if kv[0] is None else kv[0]):
        total += nbytes
        if bank is None:
            continue
        if nbytes > mem.bytes_per_cycle:
            yield Diagnostic(
                "FB402", Severity.ERROR,
                f"DRAM bank {bank} must move {nbytes} B/cycle at steady "
                f"state but grants at most {mem.bytes_per_cycle}; "
                "certified windows assume full grants, so this design "
                "cannot be statically scheduled",
                obj=f"bank{bank}",
                fix="spread the buffers over more banks or reduce the "
                    "vectorization width")
    traffic = [t for k in plan.kernels for t in k.dram]
    users = Counter(c for t in traffic for c in t.channels or (t.bank,))
    for t in traffic:
        shared = [c for c in t.channels if users[c] > 1]
        if shared:
            yield Diagnostic(
                "FB402", Severity.ERROR,
                f"striped buffer {t.buffer!r} shares channel {shared[0]} "
                "with other traffic: how its bursts split over its "
                "channels would depend on the order kernels step",
                obj=f"bank{shared[0]}")
    budget = mem.num_banks * mem.bytes_per_cycle
    if total > budget:
        yield Diagnostic(
            "FB402", Severity.ERROR,
            f"aggregate DRAM demand {total} B/cycle exceeds the "
            f"pooled budget {budget} ({mem.num_banks} banks x "
            f"{mem.bytes_per_cycle} B)", obj="dram")


@register("rates", "min-depths")
def check_min_depths(plan: PlanIR, ctx) -> Iterable[Diagnostic]:
    """FB403: exact minimal deadlock-free depths on reconvergent pairs."""
    for (a, b), nodes, chans, capacity, required in \
            min_depth_requirements(plan):
        if capacity >= required:
            continue
        name = chans[0] if chans else "?"
        yield Diagnostic(
            "FB403", Severity.ERROR,
            f"reconvergent kernels {a!r} -> {b!r}: branch "
            f"{' -> '.join(nodes)} buffers {capacity} elements but the "
            f"sibling branch defers {required} before its first output; "
            f"the minimal deadlock-free branch depth is {required}",
            edge=(a, b),
            fix=f"raise channel {name!r} depth by >= "
                f"{required - capacity} (minimal deadlock-free depth "
                f"{required})")
