"""Space/time trade-off models of Sec. IV and the I/O analyses of Sec. V."""

from . import cpu, dse, iomodel
from .performance import (
    FLOPS_PER_DSP_CYCLE,
    expected_performance,
    gemm_systolic_cycles,
    gemv_cycles,
    level1_cycles,
    optimal_width,
    optimal_width_tiled_gemv,
    pipeline_cycles,
    routine_flops,
    sharded_gemv_cycles,
    sharded_gemv_speedup,
)
from .workdepth import (
    LA,
    LM,
    MAP_REDUCE_ROUTINES,
    MAP_ROUTINES,
    WorkDepth,
    circuit,
    circuit_for,
    dot_app,
    gemv_app,
    routine_class,
    scal_app,
)

__all__ = [
    "FLOPS_PER_DSP_CYCLE", "LA", "LM", "MAP_REDUCE_ROUTINES", "MAP_ROUTINES",
    "WorkDepth", "circuit", "circuit_for", "cpu", "dse", "dot_app",
    "expected_performance", "gemm_systolic_cycles", "gemv_app", "gemv_cycles",
    "iomodel",
    "level1_cycles", "optimal_width", "optimal_width_tiled_gemv",
    "pipeline_cycles", "routine_class", "routine_flops", "scal_app",
    "sharded_gemv_cycles", "sharded_gemv_speedup",
]
