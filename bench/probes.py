"""Per-layer probes: floor-time each layer's public functions directly.

Unlike the traced pass these do not depend on the workload being run:
every probe uses a fixed design (mostly the small certified DOT that
``small_repeat_certified`` repeats), so the same number means the same
thing in every traced run.  All values are floors over a few samples.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional

from repro import telemetry
from repro.analysis import certify, ensure_certified
from repro.blas import level1
from repro.fpga.engine import Engine
from repro.fpga.memory import DramModel, read_kernel
from repro.fpga.resources import level1_latency
from repro.fpga.util import sink_kernel
from repro.host import Fblas, FblasContext
from repro.plan import PlanCache, as_plan, compile_plan
from repro.service import RoutineJob
from repro.service.batch import run_batch
from repro.streaming import (BoundMDAG, ComputeBinding, ReadBinding,
                             WriteBinding, execute_plan, scalar_stream,
                             vector_stream)
from repro.telemetry.ledger import RunLedger, RunRecord

from .worker import run_request
from .workloads import (WORKLOADS, F32, ServiceBurst, SmallRepeatCertified,
                        StreamCertified, Workload)


def floor_ms(fn: Callable, samples: int,
             prepare: Optional[Callable] = None) -> float:
    """Minimum wall time of ``fn`` in ms; ``prepare`` runs untimed before
    each sample and its result is passed to ``fn``."""
    best = float("inf")
    clock = time.perf_counter
    for _ in range(samples):
        arg = prepare() if prepare is not None else None
        t0 = clock()
        fn(arg) if prepare is not None else fn()
        best = min(best, clock() - t0)
    return best * 1e3


def dot_engine(ctx: FblasContext, x, y, mode: str, width: int,
               cache: Optional[PlanCache] = None) -> Engine:
    """The design ``Fblas.dot`` builds, from the layers' public parts."""
    n = x.num_elements
    eng = Engine(memory=ctx.mem, mode=mode, schedule_cache=cache)
    chans = []
    for i, buf in enumerate((x, y)):
        ch = eng.channel(f"in{i}", 256)
        eng.add_kernel(f"read{i}", read_kernel(ctx.mem, buf, ch, width,
                                               order=range(n)))
        chans.append(ch)
    res = eng.channel("res", 4)
    eng.add_kernel("dot", level1.dot_kernel(n, *chans, res, width, F32),
                   latency=level1_latency("map_reduce", width, "single"))
    eng.add_kernel("sink", sink_kernel(res, 1, 1, []))
    return eng


def bound_axpydot(mem: DramModel, w, v, u, alpha: float, width: int
                  ) -> BoundMDAG:
    """AXPYDOT (Fig. 6) as the bound MDAG the executor takes."""
    n = w.size
    g = BoundMDAG()
    for node in ("read_w", "read_v", "read_u", "write_beta"):
        g.add_interface(node)
    g.add_module("axpy")
    g.add_module("dot")
    sig = vector_stream(n)
    g.connect("read_w", "axpy", sig, sig, dst_port="w")
    g.connect("read_v", "axpy", sig, sig, dst_port="v")
    g.connect("axpy", "dot", sig, sig, src_port="z", dst_port="z")
    g.connect("read_u", "dot", sig, sig, dst_port="u")
    g.connect("dot", "write_beta", scalar_stream(), scalar_stream(),
              src_port="res", dst_port="res")
    g.bind("read_w", ReadBinding(mem.bind("w", w), width))
    g.bind("read_v", ReadBinding(mem.bind("v", v), width))
    g.bind("read_u", ReadBinding(mem.bind("u", u), width))
    g.bind("axpy", ComputeBinding(
        lambda ins, outs: level1.axpy_kernel(
            n, -alpha, ins["v"], ins["w"], outs["z"], width),
        latency=level1_latency("map", width)))
    g.bind("dot", ComputeBinding(
        lambda ins, outs: level1.dot_kernel(
            n, ins["z"], ins["u"], outs["res"], width),
        latency=level1_latency("map_reduce", width)))
    g.bind("write_beta", WriteBinding(mem.allocate("beta", 1), 1))
    return g


def call_floors(w: Workload, budget_s: float) -> List[float]:
    """Per-call floors (ms) of a set-up workload over one short block: at
    least 3 requests, then until the budget or 64 requests."""
    rows: List[List[float]] = []
    with w.block_scope():
        run_request(w.script)           # first request in a fresh scope
        t_end = time.perf_counter() + budget_s
        while len(rows) < 3 or (len(rows) < 64
                                and time.perf_counter() < t_end):
            rows.append(run_request(w.script)[0])
    return [min(column) * 1e3 for column in zip(*rows)]


class Probe(NamedTuple):
    name: str
    fn: Callable
    samples: int                        # per round
    prepare: Optional[Callable] = None


#: Every probe is sampled once per round and keeps its minimum, so each
#: one's samples span the whole pass: the machine has slow spells of a
#: second or more that would otherwise swallow a probe whole.
ROUNDS = 4


def layer_probes(seed: int, quick: bool, running: Workload,
                 running_floors: List[float]) -> Dict[str, float]:
    """Every workload-independent per-layer metric.

    The running workload's per-call floors come from its timed rounds,
    which beat a short sample; the other four workloads are sampled here.
    """
    k = 1 if quick else 4               # sample-count scale
    small = SmallRepeatCertified(seed)
    stream = StreamCertified(seed)
    burst = ServiceBurst(seed)
    app = WORKLOADS["apps_event"](seed)
    width = small.width
    warm = PlanCache(name="bench.probe")
    plans = PlanCache(name="bench.probe.plan")
    cycles: Dict[str, int] = {}

    ctx = FblasContext()
    x, y = (ctx.copy_to_device(a) for a in (small.x, small.y))
    fb = Fblas(context=ctx, width=width, engine_mode="certified")
    guarded = Fblas(context=ctx, width=width, engine_mode="certified",
                    resilience=True)
    sctx = FblasContext()
    sx = sctx.copy_to_device(stream.dot_x, bank=0)
    sy = sctx.copy_to_device(stream.dot_y, bank=1)
    dctx = FblasContext()
    direct = Fblas(context=dctx, width=burst.width, engine_mode="certified")
    dx, dy = (dctx.copy_to_device(a) for a in burst.pairs[0])
    jobs = [RoutineJob("dot", pair) for pair in burst.pairs]
    svc = burst.service()

    def build(mode: str = "certified") -> Engine:
        return dot_engine(ctx, x, y, mode, width, warm)

    def run(eng: Engine) -> None:
        cycles[eng.mode] = eng.run().cycles

    def bind_axpydot() -> tuple:
        mem = DramModel(num_banks=4)
        return bound_axpydot(mem, *app.wvu, app.alpha, app.w_vec), mem

    ensure_certified(build(), warm)
    execute_plan(*bind_axpydot(), plan_cache=plans)
    probes = [
        # fpga / plan / analysis on the small DOT design
        Probe("fpga.build_ms", build, 6 * k),
        Probe("plan.compile_ms", compile_plan, 6 * k, build),
        Probe("plan.key_ms", lambda plan: plan.plan_key, 6 * k,
              lambda: as_plan(build())),
        Probe("analysis.ensure_hit_ms",
              lambda eng: ensure_certified(eng, warm), 6 * k, build),
        Probe("analysis.certify_ms", certify, k,
              lambda: as_plan(build())),
        Probe("fpga.run_event_ms", run, 1, lambda: build("event")),
        Probe("fpga.run_dense_ms", run, 1, lambda: build("dense")),
        Probe("fpga.run_bulk_ms", run, 6 * k, lambda: build("bulk")),
        Probe("fpga.run_certified_ms", run, 6 * k, build),
        # the streaming-size DOT and the function-only cost of the stream
        Probe("fpga.run_certified_stream_ms", lambda eng: eng.run(), 1,
              lambda: dot_engine(sctx, sx, sy, "certified", stream.width,
                                 warm)),
        Probe("blas.reference_ms", stream.reference, 1),
        # streaming executor, empty and warm compiled-plan cache
        Probe("streaming.execute_miss_ms",
              lambda gm: execute_plan(*gm, plan_cache=PlanCache()), 1,
              bind_axpydot),
        Probe("streaming.execute_hit_ms",
              lambda gm: execute_plan(*gm, plan_cache=plans), 1,
              bind_axpydot),
        # telemetry: one ledger row (the ledger-lite request is below)
        Probe("telemetry.ledger_append_ms", RunLedger().append, 60 * k,
              lambda: RunRecord(run_id="probe", kind="engine.run")),
        # the same request plain, and under the recovery ladder
        Probe("plain", lambda: fb.dot(x, y), 12 * k),
        Probe("guarded", lambda: guarded.dot(x, y), 12 * k),
        # service: fusion called directly, one-at-a-time calls, and the
        # same-tier single-caller base for the burst
        Probe("service.fuse16_ms",
              lambda: run_batch(ctx, jobs, "certified", width=burst.width,
                                schedule_cache=warm), 3 * k),
        Probe("service.call_ms", lambda: svc.call(jobs[0]), 6 * k),
        Probe("direct", lambda: direct.dot(dx, dy), 12 * k),
    ]
    others = {name: cls(seed, quick=True)
              for name, cls in WORKLOADS.items() if name != running.name}
    floors: Dict[str, List[float]] = {}
    out = {probe.name: float("inf") for probe in probes}
    lite = float("inf")
    try:
        for w in others.values():
            w.setup()
        for _ in range(ROUNDS):
            for probe in probes:
                out[probe.name] = min(out[probe.name], floor_ms(
                    probe.fn, probe.samples, probe.prepare))
            with telemetry.session(metrics=False, kernel_slices=False,
                                   occupancy=False):
                lite = min(lite, floor_ms(lambda: fb.dot(x, y), 6 * k))
            ctx.reset_records()
            for name, w in others.items():
                sample = call_floors(w, 0.03 * k)
                floors[name] = [min(pair) for pair in zip(
                    floors.get(name, sample), sample)]
        fused = (running if isinstance(running, ServiceBurst)
                 else others["service_burst"]).fused_share()
    finally:
        svc.close()
        for w in others.values():
            w.close()
    floors[running.name] = running_floors

    plain, guarded_ms, direct_ms = (out.pop(name)
                                    for name in ("plain", "guarded", "direct"))
    for mode in ("event", "certified"):
        out[f"fpga.cycles_per_s_{mode}"] = (
            cycles[mode] / (out[f"fpga.run_{mode}_ms"] / 1e3))
    out["telemetry.ledger_lite_ms"] = lite
    out["faults.resilience_over_plain"] = guarded_ms / plain
    (out["host.dot_stream_ms"], out["host.axpy_stream_ms"],
     out["host.gemv_stream_ms"]) = floors["stream_certified"]
    (out["apps.axpydot_ms"], out["apps.atax_ms"], out["apps.bicg_ms"],
     out["apps.gemver_ms"]) = floors["apps_event"]
    submit, drain = floors["service_burst"]
    out["service.submit_ms"] = submit / burst.jobs
    out["service.drain_ms"] = drain / burst.jobs
    out["service.fused_share"] = fused
    out["service.over_direct"] = (submit + drain) / burst.jobs / direct_ms
    out["telemetry.observed_over_plain"] = (
        sum(floors["small_repeat_observed"])
        / sum(floors["small_repeat_certified"]))
    return out


def marshal_ms(w: Workload, samples: int) -> float:
    """``copy_to_device`` of one request's operands onto a fresh board."""
    arrays = w.operands()

    def copy(ctx: FblasContext) -> None:
        for a in arrays:
            ctx.copy_to_device(a)

    return floor_ms(copy, samples, FblasContext)
