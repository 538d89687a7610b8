"""Ablation: DRAM interleaving and bank placement (Sec. VI-A/VI-C).

The paper's Stratix BSP disables automatic memory interleaving, so buffer
placement matters: the host-layer AXPYDOT pays a same-bank read+write
round trip on z, which is what pushes the streaming speedup from the
ideal 3x toward the measured 4x.  This ablation runs the host-layer
version under three placements and the streaming version once.
"""

import numpy as np
import pytest

from repro.apps import axpydot_host, axpydot_streaming
from repro.host import Fblas, FblasContext

from bench_common import print_table

N = 16384
RNG = np.random.default_rng(33)
W = RNG.normal(size=N).astype(np.float32)
V = RNG.normal(size=N).astype(np.float32)
U = RNG.normal(size=N).astype(np.float32)
ALPHA = 0.7


def host_run(interleaving):
    fb = Fblas(width=16, interleaving=interleaving)
    bufs = [fb.copy_to_device(a) for a in (W, V, U)]
    return axpydot_host(fb, *bufs, ALPHA)


def host_run_worst_case():
    """Everything — including z — crammed into one bank."""
    from repro.apps import AppResult
    fb = Fblas(width=16)
    w, v, u = (fb.copy_to_device(a, bank=0) for a in (W, V, U))
    z = fb.allocate(N, dtype=np.float32, bank=0)
    io_before = fb.context.mem.total_elements_moved
    fb.copy(w, z)
    fb.axpy(-ALPHA, v, z)
    beta = fb.dot(z, u)
    cycles = sum(r.cycles for r in fb.records)
    return AppResult(beta, cycles,
                     fb.context.mem.total_elements_moved - io_before,
                     sum(r.seconds for r in fb.records))


def stream_run():
    ctx = FblasContext()
    bufs = [ctx.copy_to_device(a) for a in (W, V, U)]
    return axpydot_streaming(ctx, *bufs, ALPHA, width=16)


RESULTS = {
    "host, one bank (worst)": host_run_worst_case(),
    "host, banked (BSP default)": host_run(False),
    "host, interleaved": host_run(True),
    "streaming, banked": stream_run(),
}


def test_interleaving_ablation():
    rows = [(name, r.cycles, r.io_elements,
             f"{RESULTS['host, banked (BSP default)'].cycles / r.cycles:.2f}")
            for name, r in RESULTS.items()]
    print_table(
        f"Ablation: AXPYDOT (N={N}) under DRAM placements",
        ["configuration", "cycles", "I/O elems", "vs banked host"], rows)
    ref = axpydot_streaming  # silence lint on unused import path
    # All configurations compute the same value.
    vals = [float(r.value) for r in RESULTS.values()]
    assert max(vals) - min(vals) < 1e-2


def test_bank_contention_ordering():
    """worst (all one bank) > banked > interleaved > streaming."""
    worst = RESULTS["host, one bank (worst)"].cycles
    banked = RESULTS["host, banked (BSP default)"].cycles
    inter = RESULTS["host, interleaved"].cycles
    stream = RESULTS["streaming, banked"].cycles
    assert worst > banked > inter
    assert stream < inter


def test_interleaving_recovers_the_ideal_3x():
    """With interleaving the host layer loses only the pipeline chaining:
    streaming speedup falls back toward the ideal 3x (Sec. V-A)."""
    inter = RESULTS["host, interleaved"].cycles
    stream = RESULTS["streaming, banked"].cycles
    speedup = inter / stream
    assert 2.0 < speedup < 3.6


def test_banked_speedup_exceeds_interleaved():
    """The BSP's missing interleaving is worth ~an extra 1x of speedup —
    the 3 -> 4 jump of Sec. VI-C."""
    banked = RESULTS["host, banked (BSP default)"].cycles
    inter = RESULTS["host, interleaved"].cycles
    stream = RESULTS["streaming, banked"].cycles
    assert banked / stream > inter / stream + 0.4


def test_bench_banked_host(benchmark):
    benchmark.pedantic(host_run, args=(False,), rounds=3, iterations=1)
