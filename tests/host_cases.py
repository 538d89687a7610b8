"""Every registry routine as a host call beside its ``blas/reference.py``.

Shared by the model/simulate parity matrix and the boundary fuzz.  The
operands are small integers (and the scalars dyadic), so every product
and partial sum is exact in float32 *whatever the summation order*: the
streamed result, the closed-form ``model`` result and numpy's reference
must then agree byte for byte, which is what "equal to the reference in
the documented summation order" comes down to without a second
implementation of each kernel's adder tree.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.blas import reference
from repro.blas.routines import REGISTRY

N, SIDE = 16, 8
ALPHA, BETA = 2.0, 0.5
PARAM = [-1.0, 0.5, -0.25, 0.75, 1.5]
DTYPES = {"float32": np.float32, "float64": np.float64}


def exact(rng, shape, dtype):
    """Small integers: exact under any order of multiply-accumulate."""
    return rng.integers(-3, 4, size=shape).astype(dtype)


def unit_lower(rng, shape, dtype):
    """Unit lower-triangular, so a solve stays in the integers."""
    return (np.tril(rng.integers(-1, 2, size=shape), -1)
            + np.eye(shape[0])).astype(dtype)


def strided(x, inc, n):
    """BLAS's (n, x, incx) view of a flat vector; ValueError if it is not
    one."""
    if inc < 1:
        raise ValueError(f"stride {inc}")
    if n is None:
        n = 1 + (x.size - 1) // inc
    if n < 1 or 1 + (n - 1) * inc > x.size:
        raise ValueError(f"{n} elements at stride {inc} of {x.size}")
    return x[::inc][:n]


def pair(x, y, n=None, incx=1, incy=1):
    xs, ys = strided(x, incx, n), strided(y, incy, n)
    if xs.size != ys.size:
        raise ValueError("length mismatch")
    return xs, ys


def scattered(base, inc, values):
    """``base`` with ``values`` stored at stride ``inc``."""
    out = base.copy()
    out[::inc][:values.size] = values
    return out


class Case(NamedTuple):
    """One routine: the shapes of its array operands (declaration order),
    the host call, and what the reference says it returns and leaves in
    each updated operand (``{operand index: contents}``; vectors arrive
    and leave flat).  ``returns`` names the operand whose refreshed
    contents the call hands back, if any."""

    shapes: Tuple[tuple, ...]
    call: Callable
    want: Callable
    returns: Optional[int] = None
    makers: Dict[int, Callable] = {}


V, M = (N,), (SIDE, SIDE)
S = (SIDE,)


def _scal(x, n=None, incx=1):
    return None, {0: scattered(x, incx, reference.scal(
        ALPHA, strided(x, incx, n)))}


def _copy(x, y, n=None, incx=1, incy=1):
    xs, _ys = pair(x, y, n, incx, incy)
    return None, {1: scattered(y, incy, reference.copy(xs))}


def _axpy(x, y, n=None, incx=1, incy=1):
    xs, ys = pair(x, y, n, incx, incy)
    return None, {1: scattered(y, incy, reference.axpy(ALPHA, xs, ys))}


def _both(fn):
    def want(x, y):
        rx, ry = fn(x, y)
        return None, {0: rx, 1: ry}
    return want


CASES = {
    # The two scalar routines take their precision as ``dtype=``.
    "rotg": Case((), lambda fb, **kw: fb.rotg(3.0, 4.0, **kw),
                 lambda **kw: (reference.rotg(3.0, 4.0, **kw), {})),
    "rotmg": Case((), lambda fb, **kw: fb.rotmg(1.5, 0.5, 2.0, -1.0, **kw),
                  lambda **kw: (reference.rotmg(1.5, 0.5, 2.0, -1.0, **kw),
                                {})),
    "rot": Case((V, V), lambda fb, x, y: fb.rot(x, y, 0.5, -0.5),
                _both(lambda x, y: reference.rot(x, y, 0.5, -0.5))),
    "rotm": Case((V, V), lambda fb, x, y: fb.rotm(x, y, PARAM),
                 _both(lambda x, y: reference.rotm(x, y, PARAM))),
    "swap": Case((V, V), lambda fb, x, y: fb.swap(x, y),
                 _both(reference.swap)),
    "scal": Case((V,), lambda fb, x, **kw: fb.scal(ALPHA, x, **kw), _scal,
                 returns=0),
    "copy": Case((V, V), lambda fb, x, y, **kw: fb.copy(x, y, **kw), _copy,
                 returns=1),
    "axpy": Case((V, V), lambda fb, x, y, **kw: fb.axpy(ALPHA, x, y, **kw),
                 _axpy, returns=1),
    "dot": Case((V, V), lambda fb, x, y, **kw: fb.dot(x, y, **kw),
                lambda x, y, **kw: (reference.dot(*pair(x, y, **kw)), {})),
    "sdsdot": Case((V, V), lambda fb, x, y: fb.sdsdot(0.5, x, y),
                   lambda x, y: (reference.sdsdot(0.5, x, y), {})),
    "nrm2": Case((V,), lambda fb, x: fb.nrm2(x),
                 lambda x: (reference.nrm2(x), {})),
    "asum": Case((V,), lambda fb, x: fb.asum(x),
                 lambda x: (reference.asum(x), {})),
    "iamax": Case((V,), lambda fb, x: fb.iamax(x),
                  lambda x: (reference.iamax(x), {})),
    "gemv": Case((M, S, S),
                 lambda fb, a, x, y: fb.gemv(ALPHA, a, x, BETA, y),
                 lambda a, x, y: (None, {2: reference.gemv(ALPHA, a, x, BETA,
                                                           y)}),
                 returns=2),
    "trsv": Case((M, S), lambda fb, a, b: fb.trsv(a, b, unit_diag=True),
                 lambda a, b: (None, {1: reference.trsv(a, b,
                                                        unit_diag=True)}),
                 returns=1, makers={0: unit_lower}),
    "ger": Case((S, S, M), lambda fb, x, y, a: fb.ger(BETA, x, y, a),
                lambda x, y, a: (None, {2: reference.ger(BETA, x, y, a)}),
                returns=2),
    "syr": Case((S, M), lambda fb, x, a: fb.syr(BETA, x, a),
                lambda x, a: (None, {1: reference.syr(BETA, x, a)}),
                returns=1),
    "syr2": Case((S, S, M), lambda fb, x, y, a: fb.syr2(BETA, x, y, a),
                 lambda x, y, a: (None, {2: reference.syr2(BETA, x, y, a)}),
                 returns=2),
    "gemm": Case((M, M, M),
                 lambda fb, a, b, c, **kw: fb.gemm(ALPHA, a, b, BETA, c,
                                                   **kw),
                 lambda a, b, c, **kw: (None, {2: reference.gemm(
                     ALPHA, a, b, BETA, c)}),
                 returns=2),
    "syrk": Case((M, M), lambda fb, a, c: fb.syrk(ALPHA, a, BETA, c),
                 lambda a, c: (None, {1: reference.syrk(ALPHA, a, BETA, c)}),
                 returns=1),
    "syr2k": Case((M, M, M),
                  lambda fb, a, b, c: fb.syr2k(ALPHA, a, b, BETA, c),
                  lambda a, b, c: (None, {2: reference.syr2k(ALPHA, a, b,
                                                             BETA, c)}),
                  returns=2),
    "trsm": Case((M, M), lambda fb, a, b: fb.trsm(ALPHA, a, b,
                                                  unit_diag=True),
                 lambda a, b: (None, {1: reference.trsm(ALPHA, a, b,
                                                        unit_diag=True)}),
                 returns=1, makers={0: unit_lower}),
}


def ranks(routine):
    """Declared rank of each array operand, in declaration order."""
    return [rank for _name, rank in REGISTRY[routine].operands if rank]


def operands(routine, rng, dtype):
    """Exact host arrays for every array operand of ``routine``."""
    case = CASES[routine]
    return [case.makers.get(i, exact)(rng, shape, dtype)
            for i, shape in enumerate(case.shapes)]


def expectation(routine, arrays, **kwargs):
    """What the reference makes of a call on ``arrays``.

    Returns ``(value, finals)``: the value the host call must return and
    the contents every operand must end with.  The same array object
    twice models an aliased call: updates land in operand order.
    """
    case = CASES[routine]
    flat = [a.reshape(-1) if rank == 1 else a
            for a, rank in zip(arrays, ranks(routine))]
    value, updates = case.want(*flat, **kwargs)
    final = {id(a): a.copy() for a in arrays}
    for i in sorted(updates):
        final[id(arrays[i])][...] = np.asarray(updates[i]).reshape(
            arrays[i].shape)
    finals = [final[id(a)] for a in arrays]
    if case.returns is not None:
        value = finals[case.returns]
    return value, finals


def same_bytes(got, want) -> bool:
    """Byte equality of two returned values (scalars, arrays, tuples)."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(same_bytes(g, w) for g, w in zip(got, want)))
    if want is None or got is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()
