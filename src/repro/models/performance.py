"""Cycle, throughput, and circuit-dimensioning models (Sec. IV).

The central identity is the pipeline execution model::

    C = L + I * M

cycles for a pipeline of latency ``L``, initiation interval ``I`` and ``M``
inputs.  All FBLAS modules are built with pipeline-enabling transformations
so that I = 1, giving ``C = CD + M`` with ``CD`` the circuit depth.

The *optimal vectorization width* balances a module's service rate against
the rate data arrives from memory: a module narrower than the arrival rate
is a bottleneck (upstream backpressure); a wider one wastes resources.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from .workdepth import circuit, routine_class

#: Flops one hardened DSP can start per cycle on the evaluated devices
#: ("the DSPs of this FPGA are able to start one addition and one
#: multiplication per clock cycle").
FLOPS_PER_DSP_CYCLE = 2


def pipeline_cycles(latency: int, initiation_interval: int,
                    iterations: int) -> int:
    """C = L + I*M — cycles to push ``iterations`` inputs through."""
    if latency < 0 or initiation_interval < 1 or iterations < 0:
        raise ValueError("invalid pipeline parameters")
    return latency + initiation_interval * iterations


def level1_cycles(routine: str, n: int, width: int) -> int:
    """Cycles for a Level-1 module on N elements at width W.

    SCAL: C = LM + N/W.  DOT: C = log2(W)*LA + LM + N/W (Sec. IV-A).
    """
    cd = circuit(routine_class(routine), width).depth
    return pipeline_cycles(cd, 1, math.ceil(n / width))


def gemv_cycles(n: int, m: int, width: int, latency: int | None = None) -> int:
    """Cycles for a streamed GEMV: one tile element bundle per cycle."""
    cd = latency if latency is not None else circuit("map_reduce", width).depth
    return pipeline_cycles(cd, 1, math.ceil(n * m / width))


def sharded_gemv_cycles(n: int, m: int, tile_n: int, width: int,
                        lanes: int, bytes_per_cycle: float,
                        itemsize: int = 4, latency: int | None = None,
                        channels: int | None = None) -> int:
    """Bandwidth-aware cycles for the sharded row-tiles GEMV.

    Each lane streams its share of row tiles from its own channel at
    :func:`~repro.models.iomodel.lane_read_rate` elements per cycle (the
    channel budget throttles widths the memory cannot feed); the design
    finishes with its slowest lane — ``ceil(T/lanes)`` row tiles when
    the tile count T doesn't divide evenly.  ``channels`` defaults to
    one per lane; with fewer, lanes share channel budgets.
    """
    from .iomodel import lane_read_rate

    if n % tile_n:
        raise ValueError(f"n={n} not divisible into {tile_n}-row tiles")
    tiles = n // tile_n
    if not (1 <= lanes <= tiles):
        raise ValueError(f"lanes={lanes} must be in [1, {tiles}]")
    if channels is None:
        channels = lanes
    per_lane_bpc = bytes_per_cycle * min(channels, lanes) / lanes
    rate = lane_read_rate(width, per_lane_bpc, itemsize)
    worst_lane_elems = math.ceil(tiles / lanes) * tile_n * m
    cd = latency if latency is not None else circuit("map_reduce",
                                                     width).depth
    return cd + math.ceil(worst_lane_elems / rate)


def sharded_gemv_speedup(n: int, m: int, tile_n: int, width: int,
                         lanes: int, bytes_per_cycle: float,
                         itemsize: int = 4) -> float:
    """Model speedup of ``lanes``-lane sharded GEMV over single-lane.

    Near-linear on bandwidth-bound sizes (``width * itemsize`` well
    above ``bytes_per_cycle``); saturates at the compute limit once the
    aggregate channel bandwidth covers ``lanes * width`` elements/cycle.
    """
    one = sharded_gemv_cycles(n, m, tile_n, width, 1, bytes_per_cycle,
                              itemsize)
    many = sharded_gemv_cycles(n, m, tile_n, width, lanes, bytes_per_cycle,
                               itemsize)
    return one / many


def gemm_systolic_cycles(n: int, m: int, k: int, pr: int, pc: int,
                         tile_r: int, tile_c: int,
                         drain_latency: int = 0) -> int:
    """Cycles for the systolic GEMM of Sec. III-C.

    Each PE accumulates on the same C element every TR*TC/(PR*PC) cycles;
    a TR x TC tile takes K * TR*TC/(PR*PC) cycles, and there are
    ceil(N/TR)*ceil(M/TC) tiles.  The wavefront skew (PR+PC) and the drain
    add a per-tile constant.
    """
    if tile_r % pr or tile_c % pc:
        raise ValueError("memory tile must be a multiple of the compute grid")
    elems_per_pe = (tile_r // pr) * (tile_c // pc)
    tiles = math.ceil(n / tile_r) * math.ceil(m / tile_c)
    per_tile = k * elems_per_pe + (pr + pc) + drain_latency
    return tiles * per_tile


def expected_performance(dsps: int, frequency: float,
                         flops_per_dsp_cycle: int = FLOPS_PER_DSP_CYCLE) -> float:
    """Peak flop/s if every DSP starts an operation each cycle (Sec. VI-B).

    The paper uses this as the horizontal "expected performance" bars of
    Fig. 10 and to gauge module efficiency.
    """
    if dsps < 0 or frequency <= 0:
        raise ValueError("invalid dsps/frequency")
    return dsps * frequency * flops_per_dsp_cycle


def optimal_width(bandwidth: float, frequency: float, elem_size: int,
                  operands_per_cycle_per_lane: int = 2) -> int:
    """Optimal vectorization width W = ceil(B / (k*S*F)) (Sec. IV-B).

    ``bandwidth`` in bytes/s, ``frequency`` in Hz, ``elem_size`` in bytes.
    ``operands_per_cycle_per_lane`` is the number of stream operands one
    lane consumes per cycle (2 for DOT: one of x, one of y; 1 for SCAL).
    """
    if min(bandwidth, frequency) <= 0 or elem_size < 1:
        raise ValueError("invalid bandwidth/frequency/elem_size")
    return max(1, math.ceil(
        bandwidth / (operands_per_cycle_per_lane * elem_size * frequency)))


def optimal_width_tiled_gemv(bandwidth: float, frequency: float,
                             elem_size: int, tile_n: int, tile_m: int) -> int:
    """Optimal width of a tiled GEMV fed at ``bandwidth`` (Sec. IV-B).

    With tiles T_N x T_M the module needs W elements of A plus only
    W/(T_N*T_M) elements of x per cycle:
    W = ceil(B*T_N*T_M / (F*S*(1 + T_N*T_M))), which approaches B/(F*S)
    — double the non-tiled value — for large tiles.
    """
    if tile_n < 1 or tile_m < 1:
        raise ValueError("tile sizes must be >= 1")
    t = tile_n * tile_m
    return max(1, math.ceil(bandwidth * t / (frequency * elem_size * (1 + t))))


def certified_cycle_band(latencies: Sequence[int], iis: Sequence[int],
                         iterations: Sequence[Optional[int]],
                         lanes: Sequence[int]) -> Tuple[int, int]:
    """Predicted ``(lo, hi)`` cycle band for a certified whole program.

    A single-clock composition of ii=1 pipelines finishes no earlier than
    its longest member's steady phase (``lo = max M``, from C = L + I*M
    with the fills overlapped), and no later than that plus every
    member's fill/drain and epilogue slack — each kernel can add at most
    its pipeline depth, one initiation and a sub-``lanes`` ragged tail
    beyond the overlapped steady state.  The band is deliberately
    two-sided and conservative: the cross-check asserts the measured
    cycle count of every certified run falls inside it.
    """
    ms = [m for m in iterations if m is not None]
    lo = max(ms, default=0)
    hi = lo + sum(pipeline_cycles(lt, ii, 0) + ii + w + 4
                  for lt, ii, w in zip(latencies, iis, lanes)) + 16
    return lo, hi


def routine_flops(routine: str, n: int, m: int = 0, k: int = 0) -> int:
    """Floating point operations performed by a routine invocation."""
    key = routine.lower()
    table = {
        "scal": n, "copy": 0, "swap": 0, "axpy": 2 * n, "dot": 2 * n,
        "sdsdot": 2 * n + 1, "nrm2": 2 * n + 1, "asum": 2 * n - 1,
        "iamax": n, "rot": 6 * n, "rotm": 6 * n,
        "gemv": 2 * n * m + 3 * n, "ger": 2 * n * m + n,
        "syr": 2 * n * n, "syr2": 4 * n * n, "trsv": n * n,
        "gemm": 2 * n * m * k + 2 * n * m, "syrk": n * n * k,
        "syr2k": 2 * n * n * k, "trsm": n * n * m,
    }
    if key not in table:
        raise ValueError(f"unknown routine {routine!r}")
    return table[key]
