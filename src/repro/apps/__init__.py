"""Composed applications of Sec. V: AXPYDOT, BICG, ATAX, GEMVER.

:data:`APPS` lists them once, in the paper's order (Sec. V); each
:class:`AppSpec` is what the fault campaign, the drift sweep and both
app CLIs see of an app.
"""

from functools import partial
from typing import Dict

from .atax import (atax_broken, atax_host, atax_mdag, atax_reference,
                   atax_streaming)
from .axpydot import (axpydot_host, axpydot_mdag, axpydot_reference,
                      axpydot_streaming)
from .bicg import bicg_host, bicg_mdag, bicg_reference, bicg_streaming
from .catalogue import AppResult, AppSpec
from .gemver import (gemver_component1_mdag, gemver_full_streaming_mdag,
                     gemver_host, gemver_reference, gemver_streaming)

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

__all__ = [
    "APPS", "AppSpec",
    "AppResult", "atax_broken", "atax_host", "atax_mdag", "atax_reference",
    "atax_streaming", "axpydot_host", "axpydot_mdag", "axpydot_reference",
    "axpydot_streaming", "bicg_host", "bicg_mdag", "bicg_reference",
    "bicg_streaming", "gemver_component1_mdag", "gemver_full_streaming_mdag",
    "gemver_host", "gemver_reference", "gemver_streaming",
]
