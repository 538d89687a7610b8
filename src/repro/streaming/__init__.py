"""Streaming module framework: tiling schedules, signatures, MDAG analysis."""

from .interface import StreamSignature, matrix_stream, scalar_stream, vector_stream
from .mdag import (
    DEFAULT_CHANNEL_DEPTH,
    EdgeIssue,
    MDAG,
    MDAGError,
    ValidationReport,
)
from .executor import (
    BoundMDAG,
    ComputeBinding,
    ExecutionError,
    ExecutionResult,
    ReadBinding,
    WriteBinding,
    build_engine,
    execute_plan,
)
from .scheduler import CompositionPlan, PlanningError, plan_composition
from .tiling import (
    ElementOrder,
    MatrixSchedule,
    TileOrder,
    VectorSchedule,
    col_tiles,
    row_tiles,
)

__all__ = [
    "BoundMDAG", "CompositionPlan", "ComputeBinding",
    "DEFAULT_CHANNEL_DEPTH", "EdgeIssue", "ElementOrder", "ExecutionError",
    "ExecutionResult", "MDAG", "MDAGError", "MatrixSchedule",
    "PlanningError", "ReadBinding", "StreamSignature", "TileOrder",
    "ValidationReport", "VectorSchedule", "WriteBinding", "build_engine",
    "col_tiles",
    "execute_plan", "matrix_stream", "plan_composition", "row_tiles",
    "scalar_stream", "vector_stream",
]
