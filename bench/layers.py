"""The traced pass: every per-layer metric of one workload's run.

Runs in the worker after the timed rounds, so nothing here can touch an
end-to-end timing.  Three sources, all outside the program:

1. spans around the layer boundaries of the workload's own requests
   (:mod:`bench.trace`) -> ``trace.*`` and the ``fpga`` work counts;
2. cProfile attribution by package (:mod:`bench.attribution`)
   -> ``<layer>.self_ms`` and ``<layer>.calls_per_req``;
3. direct floor-timings of each layer's public functions on fixed
   designs (:mod:`bench.probes`) -> everything else.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from .attribution import profile_requests
from .probes import layer_probes, marshal_ms
from .trace import Tracer
from .worker import Session, run_request

#: Packages whose profile attribution is reported.
SELF_MS = ("host", "plan", "analysis", "fpga", "blas", "streaming", "apps",
           "telemetry", "service", "faults")
CALLS_PER_REQ = ("host", "plan")
#: Layers whose span self time is reported (``trace.<layer>_ms``).
SPAN_LAYERS = ("host", "plan", "analysis", "fpga", "apps", "telemetry",
               "service", "faults")


def traced_requests(session: Session, budget_s: float,
                    out_dir: str) -> Dict[str, float]:
    """Replay requests with the boundary spans on; write the trace file.

    Traced and plain requests alternate in chunks, so that the overhead
    compares two floors from the same stretch of machine time.
    """
    w = session.w
    tracer = Tracer()
    rows, plain = [], []
    chunk = min(w.block, 8)
    t_end = time.perf_counter() + budget_s
    while not rows or (len(rows) < 512 and time.perf_counter() < t_end):
        with w.block_scope():
            plain += [run_request(w.script)[0] for _ in range(chunk)]
            with tracer.installed():
                for _ in range(chunk):
                    tracer.request_id = len(rows)
                    rows.append(run_request(w.script, tracer.around)[0])
    requests = len(rows)
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_chrome(os.path.join(out_dir, f"trace-{w.name}.json"))

    own = tracer.self_times()
    layer_self = {layer: [0.0] * requests for layer in SPAN_LAYERS}
    top_self = [0.0] * requests
    steps = [0] * requests
    cycles = bulk_cycles = probes = windows = 0
    for s in tracer.finished():
        rid = s["request_id"]
        layer_self[s["layer"]][rid] += own[s["id"]]
        if s["parent"] is None:
            top_self[rid] += own[s["id"]]
        if s["name"] == "engine.run":
            steps[rid] += s["args"]["kernel_steps"]
            cycles += s["args"]["cycles"]
            bulk_cycles += s["args"].get("bulk_cycles", 0)
            probes += s["args"].get("probes", 0)
            windows += s["args"].get("windows", 0)

    untraced_ms = sum(min(column) for column in zip(*plain)) * 1e3
    traced_ms = sum(min(column) for column in zip(*rows)) * 1e3
    out = {f"trace.{layer}_ms": min(layer_self[layer]) * 1e3 / w.jobs
           for layer in SPAN_LAYERS}
    out.update({
        "trace.overhead_pct": 100 * (traced_ms - untraced_ms) / untraced_ms,
        # Share of the request spent inside some boundary below the
        # top-level calls: what the spans explain.
        "trace.coverage_pct": 100 * (1 - min(top_self) * 1e3 / traced_ms),
        "fpga.kernel_steps_per_req": min(steps) / w.jobs,
        "fpga.ff_cycle_share": bulk_cycles / cycles,
        "fpga.probes_per_window": probes / windows if windows else 0.0,
    })
    return out


def per_layer(session: Session, seed: int, quick: bool,
              out_dir: str) -> Dict[str, float]:
    w = session.w
    # First: the probes read counters the later passes reset.
    out = layer_probes(seed, quick, w, session.floors_ms())
    out["host.copy_to_device_ms"] = marshal_ms(w, 3)
    budget_s = 0.5 if quick else 2.0
    out.update(traced_requests(session, budget_s, out_dir))
    profile = profile_requests(w, budget_s)
    # cProfile inflates a call-dense request several times over; scale
    # the attribution back so the layers sum to the untraced floor.
    scale = (sum(session.floors_ms()) / w.jobs
             / sum(ms for ms, _ in profile.values()))
    for layer in SELF_MS:
        out[f"{layer}.self_ms"] = scale * profile.get(layer, (0.0, 0.0))[0]
    for layer in CALLS_PER_REQ:
        out[f"{layer}.calls_per_req"] = profile.get(layer, (0.0, 0.0))[1]
    return out
