#!/usr/bin/env python
"""From MDAG to execution: the automated composition flow.

The paper leaves "deriving valid FBLAS compositions" for a general MDAG
as future work; this reproduction implements the full flow:

1. describe the computation as a module DAG with stream signatures and
   per-node bindings (kernel factories, DRAM buffers) — here ATAX's, as
   the app catalogue's binder builds it for ``atax_streaming``;
2. let the planner prove it valid — or repair it by sizing channels
   within an on-chip buffer budget, or splitting it into sequential
   components communicating through DRAM;
3. execute the plan on the cycle-level simulator and compare the costs.

The demo runs ATAX (y = A^T A x, the paper's canonical *invalid*
composition) both ways and shows the I/O difference the remedies imply.

Run:  python examples/composition_executor.py
"""

import numpy as np

from repro.apps import APPS
from repro.host import FblasContext
from repro.streaming import execute_plan, plan_composition

M = N = 32
TILE = 8
WIDTH = 4


def build():
    """ATAX's MDAG (Fig. 8) as the app catalogue binds it on a fresh
    device: its graph, the A edge's window, a reader of y, and memory."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(M, N)).astype(np.float32)
    x = rng.normal(size=N).astype(np.float32)
    ctx = FblasContext()
    ((g, options),), y = APPS["atax"].bind(
        ctx, ctx.copy_to_device(a), ctx.copy_to_device(x), tile=TILE,
        width=WIDTH)
    return g, options["windows"], y, ctx.mem, a, x


def main():
    print("ATAX as a module DAG (Fig. 8) — static analysis first:")
    g, windows, y, mem, a, x = build()
    report = g.validate()
    print(f"  valid={report.valid}, "
          f"reconvergent pairs={report.reconvergent_pairs}")

    print("\nPlan A — no buffer budget: split into sequential components")
    plan = plan_composition(g)
    print("  " + plan.describe().replace("\n", "\n  "))
    result = execute_plan(g, mem, plan=plan)
    err = np.max(np.abs(y() - a.T @ (a @ x)))
    print(f"  executed: {result.cycles} cycles over "
          f"{len(result.reports)} engine runs, {result.io_elements} I/O "
          f"elements, max |err| = {err:.2e}")

    print("\nPlan B — on-chip budget available: size the channel instead")
    g2, windows, y2, mem2, a, x = build()
    window = windows[("read_A", "gemvT")]
    plan2 = plan_composition(g2, windows=windows, buffer_budget=4 * window)
    print("  " + plan2.describe().replace("\n", "\n  "))
    result2 = execute_plan(g2, mem2, plan=plan2)
    err2 = np.max(np.abs(y2() - a.T @ (a @ x)))
    print(f"  executed: {result2.cycles} cycles in one engine run, "
          f"{result2.io_elements} I/O elements, max |err| = {err2:.2e}")

    print(f"\nchannel sizing saves "
          f"{result.io_elements - result2.io_elements} off-chip element "
          f"transfers (one full re-read of A) at the price of "
          f"{window} FIFO slots on chip — the Sec. V-B trade-off, "
          "machine-derived.")


if __name__ == "__main__":
    main()
