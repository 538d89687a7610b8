"""Fig. 10 (middle): GEMV throughput vs vectorization width.

Same methodology as the DOT sweep: on-chip data generators feed the tiled
GEMV module (tiles by rows).  The paper's square 1024x1024 tile is
simulated cycle-accurately for real, on the certified tier (loads, the
whole tile and the result store replay as windows, so a million-element
tile costs milliseconds); only the step from one tile to the paper's
matrix sizes uses the II=1 pipeline model.  A 128x128 run on the event
tier pins the certified cycle counts to the stepping core's.

Shape assertions: near-linear scaling with W, >= 80% of expected
performance, double precision reaching only half the widths.
"""

import numpy as np
import pytest

from repro.blas import level2
from repro.fpga import Engine, sink_kernel, source_kernel
from repro.fpga.device import ARRIA10, STRATIX10, FrequencyModel
from repro.fpga.resources import level1_latency
from repro.models import expected_performance

from bench_common import print_table

N_SIM = 1024                  # simulated matrix = the paper's tile
N_CHECK = 128                 # size cross-checked against the event tier
N_PAPER = 4096                # extrapolation target (paper: up to 64K)
WIDTHS_SP = (16, 32, 64, 128)
WIDTHS_DP = (16, 32, 64)


def simulate_gemv(width, dtype, n_sim=N_SIM, mode="certified"):
    n = m = tn = tm = n_sim   # one square tile
    a = np.ones(n * m, dtype=dtype)
    x = np.ones(m, dtype=dtype)
    y = np.zeros(n, dtype=dtype)
    precision = "single" if dtype == np.float32 else "double"
    eng = Engine(mode=mode)
    ca = eng.channel("A", 4 * width)
    cx = eng.channel("x", 4 * width)
    cy = eng.channel("y", 4 * width)
    co = eng.channel("o", 4 * width)
    eng.add_kernel("sa", source_kernel(ca, a, width))
    eng.add_kernel("sx", source_kernel(cx, x, width, repeat=n // tn))
    eng.add_kernel("sy", source_kernel(cy, y, width))
    eng.add_kernel("gemv", level2.gemv_row_tiles(
        n, m, 1.0, 0.0, ca, cx, cy, co, tn, tm, width, dtype),
        latency=level1_latency("map_reduce", width, precision))
    eng.add_kernel("sink", sink_kernel(co, n, width))
    return eng.run().cycles


def collect():
    rows = []
    results = {}
    for dev in (ARRIA10, STRATIX10):
        fm = FrequencyModel(dev)
        for precision, dtype, widths in (
                ("single", np.float32, WIDTHS_SP),
                ("double", np.float64, WIDTHS_DP)):
            f = fm.estimate("level2", precision)
            for w in widths:
                sim_cycles = simulate_gemv(w, dtype)
                # II=1 on the A stream: extrapolate the N*M/W term.
                paper_cycles = sim_cycles + (
                    N_PAPER * N_PAPER - N_SIM * N_SIM) // w
                gops = (2 * N_PAPER * N_PAPER
                        / (paper_cycles / f) / 1e9)
                expected = expected_performance(w, f) / 1e9
                results[(dev.name, precision, w)] = (gops, expected)
                rows.append((dev.name.split()[0], precision, w, sim_cycles,
                             f"{gops:.1f}", f"{expected:.1f}",
                             f"{gops / expected:.0%}"))
    return rows, results


ROWS, RESULTS = collect()


def test_fig10_gemv_regeneration():
    print_table(
        f"Fig. 10 (middle): GEMV GOp/s vs width ({N_SIM}x{N_SIM} tile "
        f"simulated, extrapolated to {N_PAPER}x{N_PAPER})",
        ["device", "prec", "W", "sim cycles", "GOp/s", "expected", "eff"],
        ROWS)
    for key, (gops, expected) in RESULTS.items():
        assert gops >= 0.8 * expected, key
        assert gops <= 1.05 * expected, key


def test_certified_cycles_equal_the_event_tier():
    for dtype, widths in ((np.float32, WIDTHS_SP), (np.float64, WIDTHS_DP)):
        for w in widths:
            assert (simulate_gemv(w, dtype, N_CHECK)
                    == simulate_gemv(w, dtype, N_CHECK, mode="event")), w


def test_width_scaling():
    for dev in (ARRIA10, STRATIX10):
        series = [RESULTS[(dev.name, "single", w)][0] for w in WIDTHS_SP]
        for lo, hi in zip(series, series[1:]):
            assert 1.6 < hi / lo < 2.2


def test_double_precision_close_to_single_per_lane():
    """The paper: 'running frequencies differ slightly between designs
    with the same vectorization width, but different precision' — per-lane
    throughput is comparable, total widths differ."""
    s = RESULTS[(STRATIX10.name, "single", 64)][0]
    d = RESULTS[(STRATIX10.name, "double", 64)][0]
    assert 0.7 < d / s <= 1.0


def test_bench_gemv_simulation(benchmark):
    benchmark.pedantic(simulate_gemv, args=(32, np.float32),
                       rounds=3, iterations=1)
