"""Reference (host CPU) implementations of all 22 FBLAS routines.

These are the semantics the streaming kernels must match, and they double
as the tuned-CPU baseline of the paper's Sec. VI-D comparison (numpy
delegates to the host BLAS the way the paper's baseline delegates to MKL).

All functions follow classic BLAS semantics and argument order.  Vectors
and matrices are numpy arrays; the input dtype selects single or double
precision.  Functions never mutate their inputs unless the BLAS routine
semantically updates an argument, in which case the updated array is
*returned* (Python style) rather than overwritten in place.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------

def rotg(a: float, b: float, dtype=np.float64) -> Tuple[float, float, float, float]:
    """Generate a Givens rotation: returns (r, z, c, s) per BLAS ROTG."""
    a = dtype(a)
    b = dtype(b)
    if b == 0:
        c, s, r, z = dtype(1), dtype(0), a, dtype(0)
        if a == 0:
            r = dtype(0)
        return r, z, c, s
    if a == 0:
        return b, dtype(1), dtype(0), dtype(1)
    sigma = np.sign(a) if abs(a) > abs(b) else np.sign(b)
    r = dtype(sigma * math.hypot(float(a), float(b)))
    c = dtype(a / r)
    s = dtype(b / r)
    z = s if abs(a) > abs(b) else (dtype(1) / c if c != 0 else dtype(1))
    return r, z, c, s


def rot(x: np.ndarray, y: np.ndarray, c: float, s: float
        ) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a plane rotation: (x, y) <- (c*x + s*y, c*y - s*x)."""
    x = np.asarray(x)
    y = np.asarray(y)
    _check_same(x, y)
    c = x.dtype.type(c)
    s = x.dtype.type(s)
    return c * x + s * y, c * y - s * x


def rotmg(d1: float, d2: float, x1: float, y1: float, dtype=np.float64
          ) -> Tuple[float, float, float, np.ndarray]:
    """Generate a modified Givens rotation (BLAS ROTMG).

    Returns (d1', d2', x1', param) where param[0] is the flag and
    param[1:5] are h11, h21, h12, h22 as in the BLAS convention.
    """
    d1, d2, x1, y1 = (float(d1), float(d2), float(x1), float(y1))
    gam, gamsq, rgamsq = 4096.0, 4096.0 ** 2, 1.0 / 4096.0 ** 2
    param = np.zeros(5, dtype=dtype)
    if d1 < 0:
        param[0] = -1
        return 0.0, 0.0, 0.0, param
    p2 = d2 * y1
    if p2 == 0:
        param[0] = -2
        return d1, d2, x1, param
    p1 = d1 * x1
    q2 = p2 * y1
    q1 = p1 * x1
    if abs(q1) > abs(q2):
        h21 = -y1 / x1
        h12 = p2 / p1
        u = 1.0 - h12 * h21
        if u <= 0:
            param[0] = -1
            return 0.0, 0.0, 0.0, param
        flag = 0.0
        d1, d2 = d1 / u, d2 / u
        x1 *= u
        h11 = h22 = 1.0
    else:
        if q2 < 0:
            param[0] = -1
            return 0.0, 0.0, 0.0, param
        flag = 1.0
        h11 = p1 / p2
        h22 = x1 / y1
        u = 1.0 + h11 * h22
        d1, d2 = d2 / u, d1 / u
        x1 = y1 * u
        h21 = -1.0
        h12 = 1.0
    # rescaling loop, as in the reference BLAS
    while d1 != 0 and (d1 <= rgamsq or d1 >= gamsq):
        flag = -1.0
        if d1 <= rgamsq:
            d1 *= gamsq
            x1 /= gam
            h11 /= gam
            h12 /= gam
        else:
            d1 /= gamsq
            x1 *= gam
            h11 *= gam
            h12 *= gam
    while d2 != 0 and (abs(d2) <= rgamsq or abs(d2) >= gamsq):
        flag = -1.0
        if abs(d2) <= rgamsq:
            d2 *= gamsq
            h21 /= gam
            h22 /= gam
        else:
            d2 /= gamsq
            h21 *= gam
            h22 *= gam
    param[0] = flag
    if flag == -1.0:
        param[1:5] = h11, h21, h12, h22
    elif flag == 0.0:
        param[2], param[3] = h21, h12
    else:
        param[1], param[4] = h11, h22
    return d1, d2, x1, param


def rotm(x: np.ndarray, y: np.ndarray, param: np.ndarray
         ) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a modified Givens rotation defined by ``param`` (BLAS ROTM)."""
    x = np.asarray(x)
    y = np.asarray(y)
    _check_same(x, y)
    flag = float(param[0])
    h11, h21, h12, h22 = (float(p) for p in param[1:5])
    if flag == -2.0:
        return x.copy(), y.copy()
    if flag == -1.0:
        pass
    elif flag == 0.0:
        h11, h22 = 1.0, 1.0
    elif flag == 1.0:
        h12, h21 = 1.0, -1.0
    else:
        raise ValueError(f"invalid rotm flag {flag}")
    t = x.dtype.type
    return t(h11) * x + t(h12) * y, t(h21) * x + t(h22) * y


def swap(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """SWAP: returns (y, x)."""
    _check_same(x, y)
    return np.array(y, copy=True), np.array(x, copy=True)


def scal(alpha: float, x: np.ndarray) -> np.ndarray:
    """SCAL: alpha * x."""
    x = np.asarray(x)
    return x.dtype.type(alpha) * x


def copy(x: np.ndarray) -> np.ndarray:
    """COPY: a fresh copy of x."""
    return np.array(x, copy=True)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """AXPY: alpha*x + y."""
    _check_same(x, y)
    return np.asarray(x).dtype.type(alpha) * x + y


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """DOT: x^T y."""
    _check_same(x, y)
    return np.asarray(x).dtype.type(np.dot(x, y))


def sdsdot(sb: float, x: np.ndarray, y: np.ndarray) -> np.float32:
    """SDSDOT: sb + x^T y accumulated in double, returned in single."""
    _check_same(x, y)
    acc = np.dot(np.asarray(x, dtype=np.float64), np.asarray(y, np.float64))
    return np.float32(sb + acc)


def nrm2(x: np.ndarray) -> float:
    """NRM2: the Euclidean norm of x."""
    x = np.asarray(x)
    return x.dtype.type(np.sqrt(np.dot(x.astype(np.float64),
                                       x.astype(np.float64))))


def asum(x: np.ndarray) -> float:
    """ASUM: sum of absolute values."""
    x = np.asarray(x)
    return x.dtype.type(np.sum(np.abs(x)))


def iamax(x: np.ndarray) -> int:
    """IAMAX: index of the first element with maximal absolute value.

    The listing keeps the first strictly greater magnitude, so a NaN
    never wins: the first index of the largest non-NaN magnitude, 0 when
    every element is NaN."""
    mags = np.abs(np.asarray(x).reshape(-1))
    if mags.size == 0:
        raise ValueError("iamax of empty vector")
    top = np.fmax.reduce(mags)
    return 0 if np.isnan(top) else int(np.argmax(mags == top))


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------

def gemv(alpha: float, a: np.ndarray, x: np.ndarray, beta: float,
         y: np.ndarray, trans: bool = False) -> np.ndarray:
    """GEMV: alpha*op(A)*x + beta*y, op(A) = A or A^T."""
    a = np.asarray(a)
    op = a.T if trans else a
    if op.shape[1] != len(x) or op.shape[0] != len(y):
        raise ValueError(
            f"gemv shape mismatch: op(A) {op.shape}, x {len(x)}, y {len(y)}")
    t = a.dtype.type
    return t(alpha) * (op @ x) + t(beta) * y


def ger(alpha: float, x: np.ndarray, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """GER: A + alpha * x y^T."""
    a = np.asarray(a)
    if a.shape != (len(x), len(y)):
        raise ValueError(f"ger shape mismatch: A {a.shape} vs ({len(x)},{len(y)})")
    return a + a.dtype.type(alpha) * np.outer(x, y)


def syr(alpha: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """SYR: A + alpha * x x^T (generic dense storage)."""
    a = np.asarray(a)
    if a.shape != (len(x), len(x)):
        raise ValueError(f"syr shape mismatch: A {a.shape} vs n={len(x)}")
    return a + a.dtype.type(alpha) * np.outer(x, x)


def syr2(alpha: float, x: np.ndarray, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """SYR2: A + alpha * (x y^T + y x^T)."""
    a = np.asarray(a)
    if a.shape != (len(x), len(y)) or len(x) != len(y):
        raise ValueError("syr2 shape mismatch")
    t = a.dtype.type
    return a + t(alpha) * (np.outer(x, y) + np.outer(y, x))


def trsv(a: np.ndarray, b: np.ndarray, lower: bool = True,
         trans: bool = False, unit_diag: bool = False) -> np.ndarray:
    """TRSV: solve op(A) x = b for triangular A."""
    a = np.asarray(a)
    n = len(b)
    if a.shape != (n, n):
        raise ValueError(f"trsv shape mismatch: A {a.shape}, b {n}")
    op = a.T if trans else a
    low = lower != trans
    x = np.array(b, dtype=a.dtype, copy=True)
    order = range(n) if low else range(n - 1, -1, -1)
    for i in order:
        js = range(i) if low else range(i + 1, n)
        acc = x.dtype.type(0)
        for j in js:
            acc += op[i, j] * x[j]
        x[i] = x[i] - acc
        if not unit_diag:
            x[i] = x[i] / op[i, i]
    return x


# ---------------------------------------------------------------------------
# Level 3
# ---------------------------------------------------------------------------

def gemm(alpha: float, a: np.ndarray, b: np.ndarray, beta: float,
         c: np.ndarray, trans_a: bool = False, trans_b: bool = False
         ) -> np.ndarray:
    """GEMM: alpha*op(A)op(B) + beta*C."""
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    opa = a.T if trans_a else a
    opb = b.T if trans_b else b
    if opa.shape[1] != opb.shape[0] or c.shape != (opa.shape[0], opb.shape[1]):
        raise ValueError(
            f"gemm shape mismatch: op(A) {opa.shape}, op(B) {opb.shape}, "
            f"C {c.shape}")
    t = a.dtype.type
    return t(alpha) * (opa @ opb) + t(beta) * c


def syrk(alpha: float, a: np.ndarray, beta: float, c: np.ndarray,
         trans: bool = False) -> np.ndarray:
    """SYRK: alpha*A A^T + beta*C (or alpha*A^T A with trans)."""
    a = np.asarray(a)
    op = a.T if trans else a
    if c.shape != (op.shape[0], op.shape[0]):
        raise ValueError("syrk shape mismatch")
    t = a.dtype.type
    return t(alpha) * (op @ op.T) + t(beta) * np.asarray(c)


def syr2k(alpha: float, a: np.ndarray, b: np.ndarray, beta: float,
          c: np.ndarray, trans: bool = False) -> np.ndarray:
    """SYR2K: alpha*(A B^T + B A^T) + beta*C."""
    a = np.asarray(a)
    b = np.asarray(b)
    opa, opb = (a.T, b.T) if trans else (a, b)
    if c.shape != (opa.shape[0], opa.shape[0]):
        raise ValueError("syr2k shape mismatch")
    t = a.dtype.type
    return t(alpha) * (opa @ opb.T + opb @ opa.T) + t(beta) * np.asarray(c)


def trsm(alpha: float, a: np.ndarray, b: np.ndarray, side: str = "left",
         lower: bool = True, trans: bool = False,
         unit_diag: bool = False) -> np.ndarray:
    """TRSM: solve op(A) X = alpha*B (left) or X op(A) = alpha*B (right)."""
    a = np.asarray(a)
    b = np.asarray(b)
    t = a.dtype.type
    rhs = t(alpha) * b
    if side == "left":
        x = np.empty_like(rhs)
        for j in range(rhs.shape[1]):
            x[:, j] = trsv(a, rhs[:, j], lower=lower, trans=trans,
                           unit_diag=unit_diag)
        return x
    if side == "right":
        # X op(A) = alpha*B  <=>  op(A)^T X^T = alpha*B^T
        xt = np.empty_like(rhs.T)
        for j in range(rhs.shape[0]):
            xt[:, j] = trsv(a, rhs.T[:, j], lower=lower, trans=not trans,
                            unit_diag=unit_diag)
        return xt.T
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _check_same(x, y) -> None:
    if len(x) != len(y):
        raise ValueError(f"vector length mismatch: {len(x)} vs {len(y)}")
