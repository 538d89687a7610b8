"""The Sec. V application catalogue: :data:`APPS`, the one app list.

The fault campaign, the drift sweep, ``python -m repro.telemetry`` and
``python -m repro.analysis --app`` iterate it and keep only what is
theirs (trial classification, closed-form models, rate passes).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

from ..host.context import FblasContext
from ..streaming import MDAG
from .atax import atax_mdag, atax_reference, atax_streaming
from .axpydot import (AppResult, axpydot_mdag, axpydot_reference,
                      axpydot_streaming)
from .bicg import bicg_mdag, bicg_reference, bicg_streaming
from .gemver import (gemver_component1_mdag, gemver_reference,
                     gemver_streaming)


@dataclass(frozen=True)
class AppSpec:
    """One Sec. V application, as every consumer of the catalogue sees it."""

    name: str
    #: ``(name, rank)`` of each array operand, in call order: rank 2 is
    #: an ``n x n`` matrix, rank 1 a length-``n`` vector.
    operands: Tuple[Tuple[str, int], ...]
    #: The scalars after the arrays, in call order.
    scalars: Tuple[float, ...]
    streaming: Callable[..., AppResult]
    #: ``reference(*arrays, *scalars)``: the ground truth.
    reference: Callable[..., Any]
    #: The MDAG ``python -m repro.analysis --app`` analyzes.
    mdag: Callable[[], MDAG]
    #: ``python -m repro.telemetry``'s default problem size and width.
    n: int
    width: int

    def draw(self, rng: np.random.Generator,
             n: int) -> Tuple[np.ndarray, ...]:
        """Standard-normal float32 operands of size ``n``, in call order."""
        return tuple(rng.standard_normal((n,) * rank).astype(np.float32)
                     for _name, rank in self.operands)

    def run(self, ctx: FblasContext, arrays: Sequence[np.ndarray],
            width: int, tile: int, mode: str = "event") -> AppResult:
        """Bind ``arrays`` on ``ctx`` by operand name (a free variant when
        taken), in argument order, and run the streaming composition;
        ``tile`` only reaches the ones that stream a matrix."""
        bufs = [ctx.copy_to_device(a, name=ctx.free_name(name))
                for (name, _rank), a in zip(self.operands, arrays)]
        sizes = {"width": width}
        if any(rank == 2 for _name, rank in self.operands):
            sizes["tile"] = tile
        return self.streaming(ctx, *bufs, *self.scalars, mode=mode,
                              **sizes)


#: The four applications, in the paper's order (Sec. V).
APPS: Dict[str, AppSpec] = {spec.name: spec for spec in (
    AppSpec("axpydot", (("w", 1), ("v", 1), ("u", 1)), (1.5,),
            axpydot_streaming, axpydot_reference,
            partial(axpydot_mdag, 1024), n=4096, width=16),
    AppSpec("bicg", (("A", 2), ("p", 1), ("r", 1)), (),
            bicg_streaming, bicg_reference,
            partial(bicg_mdag, 64, 64, 8, 8), n=64, width=8),
    AppSpec("atax", (("A", 2), ("x", 1)), (),
            atax_streaming, atax_reference,
            partial(atax_mdag, 64, 64, 8, 8), n=64, width=8),
    AppSpec("gemver", (("A", 2), ("u1", 1), ("v1", 1), ("u2", 1),
                       ("v2", 1), ("y", 1), ("z", 1)), (1.25, 0.75),
            gemver_streaming, gemver_reference,
            partial(gemver_component1_mdag, 64, 8), n=32, width=8),
)}


def positive_int(text: str) -> int:
    """Argparse type of the app CLIs' size flags: an int >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)
