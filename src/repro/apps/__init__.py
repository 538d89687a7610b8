"""Composed applications of Sec. V: AXPYDOT, BICG, ATAX, GEMVER."""

from .axpydot import (
    AppResult,
    axpydot_host,
    axpydot_mdag,
    axpydot_reference,
    axpydot_streaming,
)
from .atax import (
    atax_broken,
    atax_host,
    atax_mdag,
    atax_reference,
    atax_streaming,
)
from .bicg import bicg_host, bicg_mdag, bicg_reference, bicg_streaming
from .catalogue import APPS, AppSpec
from .gemver import (
    gemver_component1_mdag,
    gemver_full_streaming_mdag,
    gemver_host,
    gemver_reference,
    gemver_streaming,
)

__all__ = [
    "APPS", "AppSpec",
    "AppResult", "atax_broken", "atax_host", "atax_mdag", "atax_reference",
    "atax_streaming", "axpydot_host", "axpydot_mdag", "axpydot_reference",
    "axpydot_streaming", "bicg_host", "bicg_mdag", "bicg_reference",
    "bicg_streaming", "gemver_component1_mdag", "gemver_full_streaming_mdag",
    "gemver_host", "gemver_reference", "gemver_streaming",
]
