"""Engine throughput: dense loop vs event wake-list core vs bulk tier.

Runs the Fig. 11 streaming compositions (AXPYDOT, BICG, GEMVER) under
both engine cores and records wall-clock, simulated cycles, and
kernel-steps/sec into ``BENCH_engine.json`` so the perf trajectory is
tracked across PRs.  Two regimes per the Sec. III-A pipelining story:

* **transformed** (ii=1): FBLAS' iteration-space transposition gives
  every module an initiation interval of 1, so *some* kernel works every
  cycle.  The event core can skip re-stepping blocked kernels (about
  half the dense core's generator resumptions in BICG) but there are no
  idle cycles to jump over; wall-clock parity is the honest outcome and
  the simulation cost is dominated by the kernel bodies themselves.

* **untransformed** (ii=latency): without the transformation the
  reduction's loop-carried dependence forces the DOT module to an
  initiation interval equal to its pipeline latency (132 cycles in
  double precision).  The composition then spends >95% of its cycles
  with every kernel blocked or sleeping — exactly the windows the
  wake-list scheduler advances over in one step.  This is where the
  event core pays off: the same cycle-exact simulation, an order of
  magnitude less wall-clock, which is what lets the cycle-accurate
  sweep reach larger N before falling back to the analytic model.

* **bulk** (PR 4; certificate-or-step since PR 23): ``mode="bulk"``
  looks the design's static-schedule certificate up and, when it
  exists, replays whole windows arithmetically — vectorized kernel
  blocks, ndarray channel runs, counters advanced in one step.  It pays
  off exactly where the event core cannot: ii=1 pipelines where every
  kernel is busy every cycle.  Whether a design certifies is
  bandwidth-limited: at width 16 an f32 burst is 64 B/cycle against
  the model's 53 B/cycle bank budget, so the analyzer refuses it
  (FB402) and the run is stepped on the event core (parity, no win).
  At width 8 the burst fits, the design certifies, and >90% of the run
  is fast-forwarded — the ``axpydot_w8`` rows.  The tiled BICG / GEMVER
  rows read A in tile order through an unpatterned kernel (FB404), so
  their ``bulk`` column *is* the event core, found by a kernel scan.

``kernel_steps`` counts each kernel's live cycles (active + stalled) —
a mode-independent measure of simulated work (asserted identical across
cores), so steps/sec compares the cores directly.  Results land in
``BENCH_engine.json`` (all cores) and ``BENCH_bulk.json`` (the bulk
tier's rows, consumed by the CI bench-smoke gate).
"""

import json
import os
import time

import numpy as np

from repro.apps import axpydot_streaming, bicg_streaming, gemver_streaming
from repro.blas import level1
from repro.fpga.engine import Engine
from repro.fpga.memory import read_kernel
from repro.fpga.resources import level1_latency
from repro.fpga.util import sink_kernel
from repro.host import FblasContext

from bench_common import print_table

SEED = 99
#: Double-precision map_reduce pipeline depth (Table III): the initiation
#: interval of the *untransformed* accumulation loop.
II_UNTRANSFORMED = level1_latency("map_reduce", 8, "double")

BENCH_PATH = os.environ.get("BENCH_ENGINE_JSON", "BENCH_engine.json")
BULK_PATH = os.environ.get("BENCH_BULK_JSON", "BENCH_bulk.json")


def f32(rng, *shape):
    return np.asarray(rng.normal(size=shape if len(shape) > 1 else shape[0]),
                      dtype=np.float32)


# ---------------------------------------------------------------------------
# One builder per composition; each returns (run_thunk, engine_getter) so
# the harness can pull kernel stats after the run.
# ---------------------------------------------------------------------------

def run_axpydot(n, mode, width=16):
    rng = np.random.default_rng(SEED)
    w, v, u = f32(rng, n), f32(rng, n), f32(rng, n)
    ctx = FblasContext()
    res = axpydot_streaming(ctx, ctx.copy_to_device(w),
                            ctx.copy_to_device(v), ctx.copy_to_device(u),
                            0.7, width=width, mode=mode)
    return res.cycles, res.kernel_steps


def run_axpydot_w8(n, mode):
    """AXPYDOT at width 8: the burst fits the per-bank byte budget, the
    memory kernels stay residue-free, and the bulk tier engages."""
    return run_axpydot(n, mode, width=8)


def run_bicg(n, mode, tile=16, width=8):
    rng = np.random.default_rng(SEED)
    a, p, r = f32(rng, n, n), f32(rng, n), f32(rng, n)
    ctx = FblasContext()
    res = bicg_streaming(ctx, ctx.copy_to_device(a), ctx.copy_to_device(p),
                         ctx.copy_to_device(r), tile=tile, width=width,
                         mode=mode)
    return res.cycles, res.kernel_steps


def run_gemver(n, mode, tile=8, width=8):
    rng = np.random.default_rng(SEED)
    arrays = [f32(rng, n, n)] + [f32(rng, n) for _ in range(6)]
    ctx = FblasContext()
    res = gemver_streaming(ctx, *[ctx.copy_to_device(x) for x in arrays],
                           1.1, 0.9, tile=tile, width=width, mode=mode)
    return res.cycles, res.kernel_steps


def run_axpydot_untransformed(n, mode, width=8, ii=II_UNTRANSFORMED):
    """Fig. 6 AXPYDOT with the un-transformed double-precision reduction:
    DOT at ii=latency (Sec. III-A ablation), the latency-bound regime."""
    rng = np.random.default_rng(SEED)
    w, v, u = (np.asarray(rng.normal(size=n), dtype=np.float64)
               for _ in range(3))
    ctx = FblasContext()
    dw, dv, du = (ctx.copy_to_device(x) for x in (w, v, u))
    eng = Engine(memory=ctx.mem, mode=mode)
    cw = eng.channel("w", 4 * width)
    cv = eng.channel("v", 4 * width)
    cu = eng.channel("u", 4 * width)
    cz = eng.channel("z", 4 * width)
    cres = eng.channel("beta", 4)
    eng.add_kernel("read_w", read_kernel(ctx.mem, dw, cw, width))
    eng.add_kernel("read_v", read_kernel(ctx.mem, dv, cv, width))
    eng.add_kernel("read_u", read_kernel(ctx.mem, du, cu, width))
    eng.add_kernel("axpy", level1.axpy_kernel(
        n, -0.7, cv, cw, cz, width, np.float64),
        latency=level1_latency("map", width, "double"))
    eng.add_kernel("dot", level1.dot_kernel(
        n, cz, cu, cres, width, np.float64, ii=ii),
        latency=level1_latency("map_reduce", width, "double"))
    out = []
    eng.add_kernel("sink", sink_kernel(cres, 1, 1, out))
    rep = eng.run(max_cycles=5_000_000)
    return rep.cycles, rep.kernel_steps


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def measure(name, runner, size, regime):
    entry = {"bench": name, "size": size, "regime": regime}
    checks = {}
    for m in ("dense", "event", "bulk"):
        t0 = time.perf_counter()
        cycles, steps = runner(size, m)
        wall = time.perf_counter() - t0
        checks[m] = (cycles, steps)
        entry[f"{m}_seconds"] = round(wall, 4)
        entry[f"{m}_steps_per_sec"] = round(steps / wall)
        entry["cycles"] = cycles
        entry["kernel_steps"] = steps
    assert checks["dense"] == checks["event"] == checks["bulk"], (
        f"{name}@{size}: modes diverged: {checks}")
    entry["speedup"] = round(entry["dense_seconds"]
                             / max(entry["event_seconds"], 1e-9), 2)
    entry["bulk_speedup"] = round(entry["event_seconds"]
                                  / max(entry["bulk_seconds"], 1e-9), 2)
    return entry


def collect():
    entries = []
    for name, runner, sizes, regime in [
        ("axpydot", run_axpydot, (2048, 8192, 32768), "ii=1"),
        ("axpydot_w8", run_axpydot_w8, (2048, 8192, 32768), "ii=1"),
        ("bicg", run_bicg, (32, 64, 128), "ii=1"),
        ("gemver", run_gemver, (16, 32, 64), "ii=1"),
        ("axpydot_untransformed", run_axpydot_untransformed,
         (2048, 8192, 32768), f"ii={II_UNTRANSFORMED}"),
    ]:
        for size in sizes:
            entries.append(measure(name, runner, size, regime))
    return entries


ENTRIES = collect()


def _largest(name):
    return max((e for e in ENTRIES if e["bench"] == name),
               key=lambda e: e["size"])


def test_regenerate_and_dump():
    print_table(
        "Engine throughput: dense vs event vs bulk (Fig. 11 compositions)",
        ["bench", "size", "regime", "cycles", "dense s", "event s",
         "bulk s", "speedup", "bulk x", "bulk steps/s"],
        [(e["bench"], e["size"], e["regime"], e["cycles"],
          e["dense_seconds"], e["event_seconds"], e["bulk_seconds"],
          f"{e['speedup']:.2f}", f"{e['bulk_speedup']:.2f}",
          e["bulk_steps_per_sec"]) for e in ENTRIES])
    payload = {
        "benchmark": "engine_throughput",
        "unit_note": "kernel_steps = mode-independent simulated work; "
                     "speedup = dense_seconds / event_seconds; "
                     "bulk_speedup = event_seconds / bulk_seconds",
        "entries": ENTRIES,
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    bulk_payload = {
        "benchmark": "bulk_throughput",
        "unit_note": "bulk_speedup = event_seconds / bulk_seconds; "
                     "bulk = certificate-or-step: windows are replayed "
                     "on the rows that certify (axpydot_w8: DRAM bursts "
                     "fit the per-bank byte budget), every other row is "
                     "stepped on the event core",
        "entries": [
            {k: e[k] for k in ("bench", "size", "regime", "cycles",
                               "kernel_steps", "event_seconds",
                               "bulk_seconds", "event_steps_per_sec",
                               "bulk_steps_per_sec", "bulk_speedup")}
            for e in ENTRIES
        ],
    }
    with open(BULK_PATH, "w") as f:
        json.dump(bulk_payload, f, indent=2)
        f.write("\n")


def test_modes_agree_on_cycles():
    """The differential guarantee holds in every benchmarked config (the
    measure() harness asserts it; this records the property explicitly)."""
    for e in ENTRIES:
        assert e["cycles"] > 0


def test_event_core_competitive_at_ii1():
    """Steady-state (ii=1) pipelines keep some kernel busy every cycle, so
    there is nothing to jump over; the event core must stay within 2x of
    the dense loop (it skips blocked kernels but pays event bookkeeping)."""
    for name in ("axpydot", "bicg", "gemver"):
        e = _largest(name)
        assert e["speedup"] > 0.5, e


def test_event_core_wins_latency_bound_regime():
    """The untransformed reduction (ii=132) leaves >95% of cycles with
    every kernel waiting; the wake-list scheduler jumps those windows.
    Locally this measures ~9x; assert a CI-safe floor."""
    e = _largest("axpydot_untransformed")
    assert e["speedup"] >= 3.0, e


def test_latency_bound_speedup_is_size_stable():
    """The win is a property of the regime, not of a lucky size."""
    series = [e["speedup"] for e in ENTRIES
              if e["bench"] == "axpydot_untransformed"]
    assert all(s >= 3.0 for s in series), series


def test_bulk_not_slower_than_event_on_ii1():
    """The CI gate: on every ii=1 row ``"bulk"`` must cost no more than
    the event core it falls back to (0.8x noise floor) — a refusal is a
    kernel scan or one analysis — and it must never diverge (measure()
    already asserted exact parity)."""
    for e in ENTRIES:
        if e["regime"] == "ii=1":
            assert e["bulk_speedup"] >= 0.8, e


def test_bulk_fast_forwards_steady_axpydot():
    """Where the design certifies (width 8, bursts within the bank
    budget) the win must be an order of magnitude.  Locally this
    measures ~10x at n=32768; assert a CI-safe floor."""
    e = max((e for e in ENTRIES if e["bench"] == "axpydot_w8"),
            key=lambda e: e["size"])
    assert e["size"] == 32768
    assert e["bulk_speedup"] >= 5.0, e
