"""Routine registry: the 22 routines FBLAS offers (Sec. VI).

Each entry records the BLAS level, the inner-loop class (map vs
map-reduce, Sec. IV-A), the streaming ports, and which parameters are
functional (change routine semantics) vs non-functional (vectorization
width, tile sizes) — the distinction the code generator's routine
specification file draws (Sec. II-C).  It also declares, once, what the
classical-BLAS host call takes (:attr:`RoutineInfo.operands`): the host
API's argument checks, its prefixed aliases and the service's admission
all read that declaration instead of keeping their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class RoutineInfo:
    """Static description of one library routine."""

    name: str
    level: int
    inner_class: str                 # "map" or "map_reduce"
    inputs: Tuple[str, ...]          # streaming input ports
    outputs: Tuple[str, ...]         # streaming output ports
    scalars: Tuple[str, ...] = ()    # scalar parameters
    functional: Tuple[str, ...] = ()  # functional parameters (semantics)
    supports_tiling: bool = False
    #: The host call's leading positional arguments, in classical-BLAS
    #: order, as ``(name, rank)``: rank 0 is a host scalar (``param`` of
    #: ROTM included), 1 a vector (a buffer of any shape, streamed flat),
    #: 2 a matrix (exactly 2-D).  Array operands are device buffers
    #: sharing one dtype.
    operands: Tuple[Tuple[str, int], ...] = ()

    def static_pattern(self, channels: Dict[str, object], width: int = 1,
                       ii: int = 1):
        """Derive a declare-only :class:`~repro.fpga.pattern.StaticPattern`.

        ``channels`` maps this routine's streaming port names to channel
        objects; every port must be bound.  The result documents the
        steady port rates (``width`` lanes per port at initiation
        interval ``ii``) for analysis and the bulk engine, without an
        executable fast path — module builders that *can* prove a
        vectorizable steady loop attach their own executable pattern
        instead (see :mod:`repro.blas.level1`).
        """
        from ..fpga.pattern import StaticPattern
        missing = [p for p in self.inputs + self.outputs
                   if p not in channels]
        if missing:
            raise KeyError(
                f"routine {self.name!r}: unbound streaming ports "
                f"{missing} (expected {self.inputs + self.outputs})")
        return StaticPattern.declare(
            reads=tuple((channels[p], width) for p in self.inputs),
            writes=tuple((channels[p], width, None) for p in self.outputs),
            ii=ii)


REGISTRY: Dict[str, RoutineInfo] = {}


def _register(info: RoutineInfo) -> None:
    REGISTRY[info.name] = info


# -- Level 1 ---------------------------------------------------------------
_register(RoutineInfo("rotg", 1, "map", ("ab",), ("out",),
                      operands=(("a", 0), ("b", 0))))
_register(RoutineInfo("rotmg", 1, "map", ("in",), ("out",),
                      operands=(("d1", 0), ("d2", 0), ("x1", 0), ("y1", 0))))
_register(RoutineInfo("rot", 1, "map", ("x", "y"), ("out_x", "out_y"),
                      scalars=("c", "s"),
                      operands=(("x", 1), ("y", 1), ("c", 0), ("s", 0))))
_register(RoutineInfo("rotm", 1, "map", ("x", "y"), ("out_x", "out_y"),
                      scalars=("param",),
                      operands=(("x", 1), ("y", 1), ("param", 0))))
_register(RoutineInfo("swap", 1, "map", ("x", "y"), ("out_x", "out_y"),
                      operands=(("x", 1), ("y", 1))))
_register(RoutineInfo("scal", 1, "map", ("x",), ("out",), scalars=("alpha",),
                      operands=(("alpha", 0), ("x", 1))))
_register(RoutineInfo("copy", 1, "map", ("x",), ("out",),
                      operands=(("x", 1), ("y", 1))))
_register(RoutineInfo("axpy", 1, "map", ("x", "y"), ("out",),
                      scalars=("alpha",),
                      operands=(("alpha", 0), ("x", 1), ("y", 1))))
_register(RoutineInfo("dot", 1, "map_reduce", ("x", "y"), ("res",),
                      operands=(("x", 1), ("y", 1))))
_register(RoutineInfo("sdsdot", 1, "map_reduce", ("x", "y"), ("res",),
                      scalars=("sb",),
                      operands=(("sb", 0), ("x", 1), ("y", 1))))
_register(RoutineInfo("nrm2", 1, "map_reduce", ("x",), ("res",),
                      operands=(("x", 1),)))
_register(RoutineInfo("asum", 1, "map_reduce", ("x",), ("res",),
                      operands=(("x", 1),)))
_register(RoutineInfo("iamax", 1, "map_reduce", ("x",), ("res",),
                      operands=(("x", 1),)))

# -- Level 2 ---------------------------------------------------------------
_register(RoutineInfo("gemv", 2, "map_reduce", ("A", "x", "y"), ("out",),
                      scalars=("alpha", "beta"),
                      functional=("trans", "tiles"), supports_tiling=True,
                      operands=(("alpha", 0), ("a", 2), ("x", 1),
                                ("beta", 0), ("y", 1))))
_register(RoutineInfo("trsv", 2, "map_reduce", ("A", "b"), ("out",),
                      functional=("lower", "unit_diag"),
                      supports_tiling=False,
                      operands=(("a", 2), ("b", 1))))
_register(RoutineInfo("ger", 2, "map", ("A", "x", "y"), ("out",),
                      scalars=("alpha",), functional=("tiles",),
                      supports_tiling=True,
                      operands=(("alpha", 0), ("x", 1), ("y", 1), ("a", 2))))
_register(RoutineInfo("syr", 2, "map", ("A", "x_row", "x_col"), ("out",),
                      scalars=("alpha",), functional=("tiles",),
                      supports_tiling=True,
                      operands=(("alpha", 0), ("x", 1), ("a", 2))))
_register(RoutineInfo("syr2", 2, "map",
                      ("A", "x_row", "y_col", "y_row", "x_col"), ("out",),
                      scalars=("alpha",), functional=("tiles",),
                      supports_tiling=True,
                      operands=(("alpha", 0), ("x", 1), ("y", 1), ("a", 2))))

# -- Level 3 ---------------------------------------------------------------
_register(RoutineInfo("gemm", 3, "map_reduce", ("A", "B", "C"), ("out",),
                      scalars=("alpha", "beta"),
                      functional=("trans_a", "trans_b", "tiles"),
                      supports_tiling=True,
                      operands=(("alpha", 0), ("a", 2), ("b", 2),
                                ("beta", 0), ("c", 2))))
_register(RoutineInfo("syrk", 3, "map_reduce", ("A", "At", "C"), ("out",),
                      scalars=("alpha", "beta"), functional=("trans", "tiles"),
                      supports_tiling=True,
                      operands=(("alpha", 0), ("a", 2), ("beta", 0),
                                ("c", 2))))
_register(RoutineInfo("syr2k", 3, "map_reduce",
                      ("A", "Bt", "B", "At", "C"), ("out",),
                      scalars=("alpha", "beta"), functional=("trans", "tiles"),
                      supports_tiling=True,
                      operands=(("alpha", 0), ("a", 2), ("b", 2),
                                ("beta", 0), ("c", 2))))
_register(RoutineInfo("trsm", 3, "map_reduce", ("A", "B"), ("out",),
                      scalars=("alpha",),
                      functional=("side", "lower", "unit_diag"),
                      supports_tiling=False,
                      operands=(("alpha", 0), ("a", 2), ("b", 2))))


def info(name: str) -> RoutineInfo:
    """Look up a routine (case-insensitive, accepts s/d prefixes)."""
    key = name.lower()
    if key not in REGISTRY and key[:1] in ("s", "d") and key[1:] in REGISTRY:
        key = key[1:]
    if key not in REGISTRY:
        raise KeyError(f"unknown routine {name!r}")
    return REGISTRY[key]


def all_routines() -> Tuple[str, ...]:
    return tuple(REGISTRY)


assert len(REGISTRY) == 22, "FBLAS offers exactly 22 routines"
