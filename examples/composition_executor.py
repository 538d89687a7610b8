#!/usr/bin/env python
"""From MDAG to execution: the automated composition flow.

The paper leaves "deriving valid FBLAS compositions" for a general MDAG
as future work; this reproduction implements the full flow:

1. describe the computation as a module DAG with stream signatures and
   per-node bindings (kernel factories, DRAM buffers);
2. let the planner prove it valid — or repair it by sizing channels
   within an on-chip buffer budget, or splitting it into sequential
   components communicating through DRAM;
3. execute the plan on the cycle-level simulator and compare the costs.

The demo runs ATAX (y = A^T A x, the paper's canonical *invalid*
composition) both ways and shows the I/O difference the remedies imply.

Run:  python examples/composition_executor.py
"""

import numpy as np

from repro.blas import level2
from repro.fpga.memory import DramModel
from repro.fpga.resources import level1_latency
from repro.models.iomodel import atax_min_channel_depth
from repro.streaming import (
    BoundMDAG,
    ComputeBinding,
    ReadBinding,
    WriteBinding,
    execute_plan,
    matrix_stream,
    plan_composition,
    row_tiles,
    vector_stream,
)

M = N = 32
TILE = 8
WIDTH = 4


def build(mem):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(M, N)).astype(np.float32)
    x = rng.normal(size=N).astype(np.float32)
    sched = row_tiles(M, N, TILE, TILE)

    g = BoundMDAG()
    g.add_interface("read_A")
    g.add_interface("read_x")
    g.add_interface("read_z1")
    g.add_interface("read_z2")
    g.add_module("gemv")
    g.add_module("gemvT")
    g.add_interface("write_y")
    asig = matrix_stream(sched)
    g.connect("read_A", "gemv", asig, asig, dst_port="A")
    g.connect("read_A", "gemvT", asig, asig, dst_port="A")
    xsig = vector_stream(N, replay=M // TILE)
    g.connect("read_x", "gemv", xsig, xsig, dst_port="x")
    g.connect("read_z1", "gemv", vector_stream(M), vector_stream(M),
              dst_port="y")
    g.connect("gemv", "gemvT", vector_stream(M), vector_stream(M),
              src_port="out", dst_port="x")
    g.connect("read_z2", "gemvT", vector_stream(N), vector_stream(N),
              dst_port="y")
    g.connect("gemvT", "write_y", vector_stream(N), vector_stream(N),
              src_port="out", dst_port="y")

    y = mem.allocate("y_out", N)
    g.bind("read_A", ReadBinding(mem.bind("A", a), WIDTH,
                                 order=sched.indices()))
    g.bind("read_x", ReadBinding(mem.bind("x", x), WIDTH,
                                 repeat=M // TILE))
    g.bind("read_z1", ReadBinding(
        mem.bind("z1", np.zeros(M, dtype=np.float32)), WIDTH))
    g.bind("read_z2", ReadBinding(
        mem.bind("z2", np.zeros(N, dtype=np.float32)), WIDTH))
    lat = level1_latency("map_reduce", WIDTH)
    g.bind("gemv", ComputeBinding(
        lambda ins, outs: level2.gemv_row_tiles(
            M, N, 1.0, 0.0, ins["A"], ins["x"], ins["y"], outs["out"],
            TILE, TILE, WIDTH), latency=lat))
    g.bind("gemvT", ComputeBinding(
        lambda ins, outs: level2.gemv_transposed_row_tiles(
            M, N, 1.0, 0.0, ins["A"], ins["x"], ins["y"], outs["out"],
            TILE, TILE, WIDTH), latency=lat))
    g.bind("write_y", WriteBinding(y, N, WIDTH))
    return g, a, x, y


def main():
    print("ATAX as a module DAG (Fig. 8) — static analysis first:")
    mem = DramModel(num_banks=4)
    g, a, x, y = build(mem)
    report = g.validate()
    print(f"  valid={report.valid}, "
          f"reconvergent pairs={report.reconvergent_pairs}")

    print("\nPlan A — no buffer budget: split into sequential components")
    plan = plan_composition(g)
    print("  " + plan.describe().replace("\n", "\n  "))
    result = execute_plan(g, mem, plan=plan)
    err = np.max(np.abs(np.asarray(y.data) - a.T @ (a @ x)))
    print(f"  executed: {result.cycles} cycles over "
          f"{len(result.reports)} engine runs, {result.io_elements} I/O "
          f"elements, max |err| = {err:.2e}")

    print("\nPlan B — on-chip budget available: size the channel instead")
    window = atax_min_channel_depth(N, TILE) + 8 * WIDTH
    mem2 = DramModel(num_banks=4)
    g2, a, x, y2 = build(mem2)
    plan2 = plan_composition(g2, windows={("read_A", "gemvT"): window},
                             buffer_budget=4 * window)
    print("  " + plan2.describe().replace("\n", "\n  "))
    result2 = execute_plan(g2, mem2, plan=plan2)
    err2 = np.max(np.abs(np.asarray(y2.data) - a.T @ (a @ x)))
    print(f"  executed: {result2.cycles} cycles in one engine run, "
          f"{result2.io_elements} I/O elements, max |err| = {err2:.2e}")

    print(f"\nchannel sizing saves "
          f"{result.io_elements - result2.io_elements} off-chip element "
          f"transfers (one full re-read of A) at the price of "
          f"{window} FIFO slots on chip — the Sec. V-B trade-off, "
          "machine-derived.")


if __name__ == "__main__":
    main()
