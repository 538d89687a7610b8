"""The host API's argument checks: one typed boundary for every routine.

What a call's operands *are* — names, vector/matrix rank, one common
dtype — is declared once, on :class:`repro.blas.routines.RoutineInfo`;
the functions here hold a call to that declaration before anything is
built.  Every rejection is a :class:`~repro.fpga.errors.ReproError` that
is also the builtin callers already catch (``TypeError`` for what an
operand *is*, ``ValueError`` for its rank, shape, length or stride), and
none of them is retried or demoted by the recovery ladder.
"""

from __future__ import annotations

from ..blas.routines import REGISTRY
from ..fpga.errors import ReproError
from ..fpga.memory import DramBuffer


class HostArgumentError(ReproError, TypeError):
    """An operand of a host call is not a device buffer, or not of the
    precision the call works in."""


class HostValueError(ReproError, ValueError):
    """The operands of a host call do not fit together: wrong rank,
    shape, length or stride, or an unknown ``scheme``/``impl``."""


#: Array operands of every host call, in signature order, as
#: ``(name, rank)``: a vector (rank 1) is a buffer of any shape streamed
#: flat, the way BLAS copies a matrix as n*m elements; higher ranks are
#: exact.  The batched tiny-matrix calls of Table V are host conveniences
#: over GEMM/TRSM, not registry routines.
ARRAYS = {name: tuple(op for op in info.operands if op[1])
          for name, info in REGISTRY.items()}
ARRAYS["batched_gemm"] = (("a_batch", 3), ("b_batch", 3), ("c_batch", 3))
ARRAYS["batched_trsm"] = (("a_batch", 3), ("b_batch", 3))


def device_operands(routine, *values):
    """Hold ``values`` to the routine's declared array operands.

    FBLAS routines work on device buffers (results land in device
    memory), so a raw ``ndarray`` is a caller error; name the argument
    instead of failing deep inside the stride plumbing.  Returns the one
    dtype the operands share.
    """
    dtype = None
    for (name, rank), buf in zip(ARRAYS[routine], values):
        if not isinstance(buf, DramBuffer):
            raise HostArgumentError(
                f"{routine}: argument {name!r} must be a device "
                f"buffer (see Fblas.copy_to_device), got "
                f"{type(buf).__name__}")
        data = buf.data
        if (rank > 1 and data.ndim != rank) or not data.size:
            raise HostValueError(
                f"{routine}: argument {name!r} ({buf.name!r}) of shape "
                f"{data.shape} is empty or not {rank}-D")
        if dtype is None:
            dtype = data.dtype
        elif data.dtype != dtype:
            raise HostArgumentError(
                f"{routine}: mixed precision: {name!r} ({buf.name!r}) is "
                f"{data.dtype}, the operands before it {dtype}")
    return dtype


def strided_length(buf, inc, n) -> int:
    """Validate stride/length; derive n from the buffer if omitted."""
    if inc < 1:
        raise HostValueError(f"stride must be >= 1, got {inc}")
    size = buf.data.size
    if n is None:
        n = 1 + (size - 1) // inc
    if n < 1 or 1 + (n - 1) * inc > size:
        raise HostValueError(
            f"{n} elements with stride {inc} exceed buffer "
            f"{buf.name!r} ({size} elements)")
    return n


def strided_pair(x, y, incx=1, incy=1, n=None) -> int:
    """Common n for a two-vector call (whole vectors by default)."""
    nx = strided_length(x, incx, n)
    ny = strided_length(y, incy, n)
    if nx != ny:        # only when both were derived from the buffers
        raise HostValueError(
            f"vector length mismatch under strides: {nx} vs {ny}")
    return nx
