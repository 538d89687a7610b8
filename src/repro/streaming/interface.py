"""Stream signatures: what a module port produces or consumes.

An edge between modules A and B is *valid* (Sec. V) iff

1. the number of elements produced equals the number consumed, and
2. the production order equals the consumption order.

A signature captures both: a total element count and a hashable order
descriptor (built from the tiling schedules of :mod:`repro.streaming.tiling`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .tiling import MatrixSchedule, VectorSchedule


@dataclass(frozen=True)
class StreamSignature:
    """Signature of one streaming port."""

    total: int
    order: Tuple

    def mismatch_reason(self, other: "StreamSignature") -> Optional[str]:
        """Explain why the edge would be invalid, or None if valid."""
        if self.total != other.total:
            return (f"element count mismatch: produces {self.total}, "
                    f"consumes {other.total}")
        if self.order != other.order:
            return f"order mismatch: {self.order} vs {other.order}"
        return None


def matrix_stream(schedule: MatrixSchedule, replay: int = 1) -> StreamSignature:
    """Signature of a matrix streamed in ``schedule`` order."""
    if replay < 1:
        raise ValueError("replay must be >= 1")
    return StreamSignature(total=schedule.num_elements * replay,
                           order=schedule.descriptor() + (replay,))


def vector_stream(n: int, block: int = 0, replay: int = 1) -> StreamSignature:
    """Signature of an n-element vector streamed in blocks, replayed."""
    sched = VectorSchedule(n, block, replay)
    return StreamSignature(total=sched.total_elements,
                           order=sched.descriptor())


def scalar_stream() -> StreamSignature:
    """Signature of a single scalar result (e.g. DOT output)."""
    return StreamSignature(total=1, order=("scalar",))
