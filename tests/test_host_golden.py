"""Golden contract of the host API: what a call returns, records and builds.

``tests/data/host_golden.json`` pins, for every host routine x {float32,
float64} x {``mode="model"``, ``simulate`` on the event tier, ``simulate``
on the certified tier} at small sizes, everything a caller or a cache can
see of one call:

* sha256 of the returned value and of every device buffer afterwards
  (plus each buffer's read/write element counters);
* the :class:`~repro.host.CallRecord` as a tuple;
* a digest of ``SimReport.to_dict()`` — *unsorted*, so kernel and channel
  names, their creation order, depths and latencies are part of it;
* the engine's structural ``plan_key`` (what certificates are cached
  under), or for a design the certified tier refuses, its FB4xx codes.

The file was recorded from the commit *before* the host layer became one
design runner; a refactor of ``repro.host`` must reproduce it byte for
byte.  The only rows re-recorded since are the intended fixes (CHANGES.md,
PR 19): ``ger`` / ``syr`` / ``syr2`` in model mode (a ``NameError``
before) and the ``sdsdot`` simulate rows (flops 2n -> 2n+1, the
``routine_flops`` table value model mode already recorded).

Regenerate with ``PYTHONPATH=src python tests/test_host_golden.py --write
[path]`` — and say in CHANGES.md which rows moved and why.
"""

import hashlib
import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import AnalysisError
from repro.host import Fblas
from repro.plan import plan_identity

GOLDEN = Path(__file__).parent / "data" / "host_golden.json"

N, SIDE, WIDTH, TILE = 64, 16, 4, 8
BATCH, SIZE = 5, 4

CONFIGS = {
    "model": {"mode": "model"},
    "event": {"engine_mode": "event"},
    "certified": {"engine_mode": "certified"},
}
DTYPES = {"float32": np.float32, "float64": np.float64}


class _Recording(Fblas):
    """Keeps the engine each call builds and the report of its run."""

    engine = report = None

    def _engine(self):
        eng = self.engine = super()._engine()
        run = eng.run

        def capture(*args, **kwargs):
            self.report = run(*args, **kwargs)
            return self.report

        eng.run = capture
        return eng


def _vector(rng, dtype):
    return rng.standard_normal(N).astype(dtype)


def _short(rng, dtype):
    return rng.standard_normal(SIDE).astype(dtype)


def _matrix(rng, dtype):
    return rng.standard_normal((SIDE, SIDE)).astype(dtype)


def _lower(rng, dtype):
    return np.tril(_matrix(rng, dtype)) + SIDE * np.eye(SIDE, dtype=dtype)


def _upper(rng, dtype):
    return np.triu(_matrix(rng, dtype)) + SIDE * np.eye(SIDE, dtype=dtype)


def _batch(rng, dtype):
    return rng.standard_normal((BATCH, SIZE, SIZE)).astype(dtype)


def _lower_batch(rng, dtype):
    return (np.tril(_batch(rng, dtype))
            + SIZE * np.eye(SIZE, dtype=dtype)).astype(dtype)


_PARAM = [-1.0, 0.5, -0.25, 0.75, 1.5]

#: name -> (operand makers, call[, Fblas overrides]).  One row per
#: streaming design the host can build (and the calls that build none).
CASES = {
    "scal": ((_vector,), lambda fb, x: fb.scal(1.5, x)),
    "scal_inc2": ((_vector,), lambda fb, x: fb.scal(1.5, x, incx=2)),
    "copy": ((_vector, _vector), lambda fb, x, y: fb.copy(x, y)),
    "copy_inc2": ((_vector, _vector),
                  lambda fb, x, y: fb.copy(x, y, incx=2, incy=2)),
    "axpy": ((_vector, _vector), lambda fb, x, y: fb.axpy(0.75, x, y)),
    "axpy_inc2": ((_vector, _vector),
                  lambda fb, x, y: fb.axpy(0.75, x, y, incx=2, incy=2)),
    "swap": ((_vector, _vector), lambda fb, x, y: fb.swap(x, y)),
    "rot": ((_vector, _vector), lambda fb, x, y: fb.rot(x, y, 0.6, 0.8)),
    "rotm": ((_vector, _vector), lambda fb, x, y: fb.rotm(x, y, _PARAM)),
    "dot": ((_vector, _vector), lambda fb, x, y: fb.dot(x, y)),
    "dot_inc2": ((_vector, _vector),
                 lambda fb, x, y: fb.dot(x, y, incx=2, incy=2)),
    "sdsdot": ((_vector, _vector), lambda fb, x, y: fb.sdsdot(0.5, x, y)),
    "nrm2": ((_vector,), lambda fb, x: fb.nrm2(x)),
    "asum": ((_vector,), lambda fb, x: fb.asum(x)),
    "iamax": ((_vector,), lambda fb, x: fb.iamax(x)),
    "rotg": ((), lambda fb: fb.rotg(3.0, 4.0)),
    "rotmg": ((), lambda fb: fb.rotmg(1.5, 0.5, 2.0, -1.0)),
    "gemv_rows": ((_matrix, _short, _short),
                  lambda fb, a, x, y: fb.gemv(1.5, a, x, 0.5, y)),
    "gemv_trans": ((_matrix, _short, _short),
                   lambda fb, a, x, y: fb.gemv(1.5, a, x, 0.5, y,
                                               trans=True)),
    # One tile spans the matrix: the shape the certified tier replays.
    "gemv_one_tile": ((_matrix, _short, _short),
                      lambda fb, a, x, y: fb.gemv(1.5, a, x, 0.5, y),
                      {"tile": SIDE}),
    "gemv_trans_one_tile": ((_matrix, _short, _short),
                            lambda fb, a, x, y: fb.gemv(1.5, a, x, 0.5, y,
                                                        trans=True),
                            {"tile": SIDE}),
    "gemv_cols": ((_matrix, _short, _short),
                  lambda fb, a, x, y: fb.gemv(1.5, a, x, 0.5, y,
                                              scheme="cols")),
    "ger": ((_short, _short, _matrix),
            lambda fb, x, y, a: fb.ger(0.5, x, y, a)),
    "ger_one_tile": ((_short, _short, _matrix),
                     lambda fb, x, y, a: fb.ger(0.5, x, y, a),
                     {"tile": SIDE}),
    "syr": ((_short, _matrix), lambda fb, x, a: fb.syr(0.5, x, a)),
    "syr2": ((_short, _short, _matrix),
             lambda fb, x, y, a: fb.syr2(0.5, x, y, a)),
    "trsv_lower": ((_lower, _short), lambda fb, a, b: fb.trsv(a, b)),
    "trsv_upper": ((_upper, _short),
                   lambda fb, a, b: fb.trsv(a, b, lower=False)),
    "gemm_systolic": ((_matrix, _matrix, _matrix),
                      lambda fb, a, b, c: fb.gemm(1.5, a, b, 0.5, c)),
    "gemm_tiled": ((_matrix, _matrix, _matrix),
                   lambda fb, a, b, c: fb.gemm(1.5, a, b, 0.5, c,
                                               impl="tiled")),
    "syrk": ((_matrix, _matrix), lambda fb, a, c: fb.syrk(1.5, a, 0.5, c)),
    "syr2k": ((_matrix, _matrix, _matrix),
              lambda fb, a, b, c: fb.syr2k(1.5, a, b, 0.5, c)),
    "trsm": ((_lower, _matrix), lambda fb, a, b: fb.trsm(1.5, a, b)),
    "batched_gemm": ((_batch, _batch, _batch),
                     lambda fb, a, b, c: fb.batched_gemm(SIZE, a, b, c,
                                                         1.5, 0.5)),
    "batched_trsm": ((_lower_batch, _batch),
                     lambda fb, a, b: fb.batched_trsm(SIZE, a, b, 1.5)),
}

ROWS = [f"{case}/{dtype}/{config}"
        for case in CASES for dtype in DTYPES for config in CONFIGS]


def _digest(value):
    """Type-, shape- and byte-exact digest of a returned value."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return [_digest(v) for v in value]
    arr = np.asarray(value)
    h = hashlib.sha256(arr.tobytes()).hexdigest()
    return f"{type(value).__name__}:{arr.dtype.str}:{list(arr.shape)}:{h}"


def run_row(row):
    """Drive one row on a fresh library instance; return what it shows."""
    case, dtype, config = row.split("/")
    makers, call, *overrides = CASES[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    fb = _Recording(**{"width": WIDTH, "tile": TILE, **CONFIGS[config],
                       **(overrides[0] if overrides else {})})
    bufs = [fb.copy_to_device(make(rng, DTYPES[dtype])) for make in makers]
    out = {}
    try:
        out["result"] = _digest(call(fb, *bufs))
    except AnalysisError as exc:
        out["refused"] = sorted({d.code for d in exc.diagnostics})
    except Exception as exc:                    # recorded, then compared
        out["error"] = type(exc).__name__
    out["buffers"] = [_digest(b.data) for b in bufs]
    out["traffic"] = [[b.elements_read, b.elements_written] for b in bufs]
    if fb.records:
        r = fb.records[-1]
        out["record"] = [r.routine, r.precision, r.cycles, r.frequency,
                         r.io_elements, r.flops, r.mode, r.power_watts]
    out["calls"] = len(fb.records)
    if fb.report is not None:
        out["report"] = hashlib.sha256(
            json.dumps(fb.report.to_dict()).encode()).hexdigest()
        out["plan_key"] = plan_identity(fb.engine)[0]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_row_is_recorded(golden):
    assert sorted(golden) == sorted(ROWS)


@pytest.mark.parametrize("row", ROWS)
def test_row_matches_recording(golden, row):
    assert run_row(row) == golden[row]


def test_no_row_errors(golden):
    """Every design either runs or is refused with a typed FB4xx list."""
    assert not [row for row, seen in golden.items() if "error" in seen]


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write [path]")
    target = Path(sys.argv[2]) if len(sys.argv) > 2 else GOLDEN
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({row: run_row(row) for row in ROWS},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ROWS)} rows to {target}")
