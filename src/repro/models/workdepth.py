"""Work and depth models (Sec. IV-A of the paper).

The cost of an algorithm is captured by its *application work* AW (total
operations) and *application depth* AD (longest shortest input-output
path).  The circuit implementing a module's inner loop is likewise
characterised by *circuit work* CW (operations instantiated in hardware,
proportional to resources) and *circuit depth* CD (pipeline latency).

FBLAS inner loops are either *map* computations (SCAL, AXPY, GER, SYR:
independent per-element operations) or *map-reduce* computations (DOT,
GEMV, TRSV, GEMM: intermediate results are accumulated through an adder
tree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Latency of an addition on the target FPGAs (cycles).
LA = 6
#: Latency of a multiplication on the target FPGAs (cycles).
LM = 6


@dataclass(frozen=True)
class WorkDepth:
    """A (work, depth) pair; depth is in cycles."""

    work: int
    depth: int


# Routine taxonomy: which inner-loop class each routine belongs to
# (Sec. IV-A: SCAL/AXPY/GER/SYR are maps; DOT/GEMV/TRSV/GEMM map-reduce).
MAP_ROUTINES = frozenset({
    "scal", "copy", "axpy", "swap", "rot", "rotm", "ger", "syr", "syr2",
})
MAP_REDUCE_ROUTINES = frozenset({
    "dot", "sdsdot", "nrm2", "asum", "iamax", "gemv", "trsv",
    "gemm", "syrk", "syr2k", "trsm",
})


def routine_class(name: str) -> str:
    """Return ``"map"`` or ``"map_reduce"`` for a BLAS routine name."""
    key = name.lower()
    if key in MAP_ROUTINES:
        return "map"
    if key in MAP_REDUCE_ROUTINES:
        return "map_reduce"
    if key in {"rotg", "rotmg"}:
        return "map"  # scalar routines: tiny constant-work circuits
    raise ValueError(f"unknown routine {name!r}")


# ---------------------------------------------------------------------------
# Application work/depth
# ---------------------------------------------------------------------------

def scal_app(n: int) -> WorkDepth:
    """SCAL: N independent multiplications (AW=N, AD=LM)."""
    return WorkDepth(work=n, depth=LM)


def dot_app(n: int) -> WorkDepth:
    """DOT as a binary tree: AW=2N-1, AD=log2(N)*LA + LM."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return WorkDepth(work=2 * n - 1,
                     depth=int(math.ceil(math.log2(max(n, 2))) * LA + LM))


def gemv_app(n: int, m: int) -> WorkDepth:
    """GEMV: N independent M-element dot products plus the axpby update."""
    per_row = dot_app(m)
    return WorkDepth(work=n * (per_row.work + 2) + n,
                     depth=per_row.depth + LM + LA)


# ---------------------------------------------------------------------------
# Circuit work/depth of the inner-loop circuit at vectorization width W
# ---------------------------------------------------------------------------

def circuit(routine_class_name: str, width: int,
            la: int = LA, lm: int = LM) -> WorkDepth:
    """Circuit work/depth of an inner loop unrolled ``width`` times.

    Map circuits replicate ``width`` independent operators: CW = W,
    CD = LM.  Map-reduce circuits add a log-depth reduction tree:
    CW = 2W, CD = log2(W)*LA + LM (Sec. IV-A, Fig. 4 and 5).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if routine_class_name == "map":
        return WorkDepth(work=width, depth=lm)
    if routine_class_name == "map_reduce":
        depth = int(math.ceil(math.log2(width)) * la + lm) if width > 1 else lm
        return WorkDepth(work=2 * width, depth=depth)
    raise ValueError(f"unknown routine class {routine_class_name!r}")


def circuit_for(routine: str, width: int) -> WorkDepth:
    """Circuit work/depth for a named routine at width ``width``."""
    return circuit(routine_class(routine), width)
