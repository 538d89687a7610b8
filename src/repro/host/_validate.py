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

from numbers import Integral, Real

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


def positive_int(what, value) -> int:
    """``value`` as an int >= 1; a bool, a float or a string is a
    :class:`HostArgumentError` and an int below 1 a
    :class:`HostValueError`, both naming ``what``."""
    if value.__class__ is not int and (
            value.__class__ is bool or not isinstance(value, Integral)):
        raise HostArgumentError(
            f"{what} must be an int, got {type(value).__name__} {value!r}")
    if value < 1:
        raise HostValueError(f"{what} must be >= 1, got {value}")
    return int(value)


def real_scalar(what, value) -> None:
    """Hold ``value`` to a real number — an int, a float or a numpy real
    scalar; a bool, a complex, a string, None or an array is a
    :class:`HostArgumentError` naming ``what``.  Callers test
    ``value.__class__ is not float`` first, so a plain float costs no
    call."""
    if value.__class__ is bool or not isinstance(value, Real):
        raise HostArgumentError(
            f"{what} must be a real number, got {type(value).__name__}")


def rotm_param(param) -> None:
    """Hold a ROTM ``param`` to five reals (flag, h11, h21, h12, h22)
    with a flag of -2, -1, 0 or 1: a wrong length or flag is a
    :class:`HostValueError`, an entry that is not real a
    :class:`HostArgumentError`."""
    if not hasattr(param, "__len__"):
        raise HostArgumentError(
            f"param must be a sequence of 5 reals, got "
            f"{type(param).__name__}")
    if len(param) != 5:
        raise HostValueError(
            f"param must hold 5 values (flag, h11, h21, h12, h22), got "
            f"{len(param)}")
    for i, value in enumerate(param):
        real_scalar(f"param[{i}]", value)
    if param[0] not in (-2.0, -1.0, 0.0, 1.0):
        raise HostValueError(
            f"param[0], the flag, must be -2, -1, 0 or 1, got {param[0]}")


def strided_length(buf, inc, n) -> int:
    """Validate stride/length; derive n from the buffer if omitted."""
    if inc.__class__ is not int or inc < 1:
        inc = positive_int("stride", inc)
    size = buf.data.size
    if n is None:
        n = 1 + (size - 1) // inc
    elif n.__class__ is not int or n < 1:
        n = positive_int("n", n)
    if 1 + (n - 1) * inc > size:
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
