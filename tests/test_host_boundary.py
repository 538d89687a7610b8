"""The host API's typed boundary, and the service admission that shares it.

Every refusal is a :class:`~repro.fpga.errors.ReproError` that is also
the builtin callers already catch, it happens before any engine exists,
and ``RoutineJob.validate`` refuses at ``submit`` what the host would
refuse on a worker.  Each case here failed at the commit before the host
layer became one design runner.
"""

import sys

import numpy as np
import pytest

from repro.fpga.errors import ReproError
from repro.host import Fblas, HostArgumentError, HostValueError
from repro.service import AdmissionRejected, RoutineJob, SimulationService


class _NoEngine(Fblas):
    """Fails the test if a refused call gets as far as building one."""

    def _engine(self):
        raise AssertionError("an engine was built for a refused call")


def _dev(fb, shape, dtype=np.float32):
    return fb.copy_to_device(np.ones(shape, dtype=dtype))


def _refused(call, error, builtin, mode):
    fb = _NoEngine(width=4, tile=4, mode=mode)
    with pytest.raises(error) as exc:
        call(fb)
    assert isinstance(exc.value, ReproError)
    assert isinstance(exc.value, builtin)
    assert not fb.records


MIXED = {
    "gemv": lambda fb: fb.gemv(1.0, _dev(fb, (4, 4)), _dev(fb, 4), 0.5,
                               _dev(fb, 4, np.float64)),
    "ger": lambda fb: fb.ger(1.0, _dev(fb, 4), _dev(fb, 4, np.float64),
                             _dev(fb, (4, 4))),
    "gemm": lambda fb: fb.gemm(1.0, _dev(fb, (4, 4)),
                               _dev(fb, (4, 4), np.float64), 0.5,
                               _dev(fb, (4, 4))),
    "trsm": lambda fb: fb.trsm(1.0, _dev(fb, (4, 4), np.float64),
                               _dev(fb, (4, 4))),
    "sdot by keyword": lambda fb: fb.sdot(_dev(fb, 4),
                                          y=_dev(fb, 4, np.float64)),
    "snrm2 by keyword": lambda fb: fb.snrm2(x=_dev(fb, 4, np.float64)),
}

MISSHAPEN = {
    "gemv 1-D A": lambda fb: fb.gemv(1.0, _dev(fb, 16), _dev(fb, 4), 0.5,
                                     _dev(fb, 4)),
    "gemm 1-D B": lambda fb: fb.gemm(1.0, _dev(fb, (4, 4)), _dev(fb, 16),
                                     0.5, _dev(fb, (4, 4))),
    "syrk 1-D C": lambda fb: fb.syrk(1.0, _dev(fb, (4, 4)), 0.5,
                                     _dev(fb, 16)),
    "trsm 1-D B": lambda fb: fb.trsm(1.0, _dev(fb, (4, 4)), _dev(fb, 4)),
    "trsv 3-D A": lambda fb: fb.trsv(_dev(fb, (2, 2, 4)), _dev(fb, 4)),
    "batched_gemm 1-D": lambda fb: fb.batched_gemm(
        2, _dev(fb, 12), _dev(fb, 12), _dev(fb, 12)),
    "batched_gemm size": lambda fb: fb.batched_gemm(
        3, *(_dev(fb, (3, 2, 2)) for _ in range(3))),
    "batched_trsm 2-D": lambda fb: fb.batched_trsm(
        2, _dev(fb, (6, 2)), _dev(fb, (6, 2))),
    "batched_trsm nbatch": lambda fb: fb.batched_trsm(
        2, _dev(fb, (3, 2, 2)), _dev(fb, (4, 2, 2))),
    "empty vector": lambda fb: fb.nrm2(_dev(fb, 0)),
    "gemv y is the replayed x": lambda fb: (
        lambda x: fb.gemv(1.0, _dev(fb, (4, 4)), x, 0.5, x))(_dev(fb, 4)),
    "tiled gemm C is A": lambda fb: (
        lambda a: fb.gemm(1.0, a, _dev(fb, (4, 4)), 0.5, a, impl="tiled"))(
            _dev(fb, (4, 4))),
    "syrk C is A": lambda fb: (
        lambda a: fb.syrk(1.0, a, 0.5, a))(_dev(fb, (4, 4))),
    "systolic grid": lambda fb: fb.gemm(1.0, _dev(fb, (6, 6)),
                                        _dev(fb, (6, 6)), 0.5,
                                        _dev(fb, (6, 6))),
}


@pytest.mark.parametrize("mode", ("simulate", "model"))
@pytest.mark.parametrize("case", MIXED)
def test_mixed_precision_is_a_typed_type_error(case, mode):
    """Level 1 always refused mixed operands; Level 2/3 computed with
    them (and recorded ``precision="single"`` for a double ``y``)."""
    _refused(MIXED[case], HostArgumentError, TypeError, mode)


@pytest.mark.parametrize("mode", ("simulate", "model"))
@pytest.mark.parametrize("case", MISSHAPEN)
def test_wrong_rank_or_shape_is_a_typed_value_error(case, mode):
    """Before: ``not enough values to unpack``, a ``DeadlockError`` at
    cycle 58 (``batched_gemm`` on 1-D buffers) or silently wrong bytes."""
    _refused(MISSHAPEN[case], HostValueError, ValueError, mode)


def test_non_float_arrays_and_bad_constructors_are_typed():
    with pytest.raises(HostArgumentError):
        Fblas().copy_to_device(np.arange(4))
    for bad in ({"mode": "quantum"}, {"systolic_rows": 0},
                {"default_width": 0}):
        with pytest.raises(HostValueError):
            Fblas(**bad)


def test_aliases_come_from_the_registry():
    fb = Fblas(width=4)
    x = _dev(fb, 8)
    assert fb.sasum(x) == 8.0 and fb.isamax(x) == 0
    for name in ("siamax", "ssdsdot", "dsdsdot", "sbatched_gemm", "xdot"):
        with pytest.raises(AttributeError):
            getattr(fb, name)


# -- service admission reads the same declaration ---------------------------

X32 = np.ones(8, dtype=np.float32)
MALFORMED = {
    "too few operands": RoutineJob("dot", (X32,)),
    "vector where a matrix belongs":
        RoutineJob("gemv", (1.0, X32, X32, 0.0, X32)),
    "mixed precision": RoutineJob("dot", (X32, X32.astype(np.float64))),
    "array where a scalar belongs": RoutineJob("axpy", (X32, X32, X32)),
    "scalar where an array belongs": RoutineJob("scal", (2.0, 3.0)),
    "array operand by keyword": RoutineJob("scal", (2.0,), {"x": X32}),
    "stray array": RoutineJob("dot", (X32, X32, X32)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_jobs_are_refused_by_validate(case):
    assert MALFORMED[case].validate() is not None


def test_well_formed_jobs_pass_validate():
    a = np.ones((8, 8), dtype=np.float32)
    for job in (RoutineJob("dot", (X32, X32)),
                RoutineJob("dot", (X32, X32), {"n": 4}),
                RoutineJob("axpy", (0.5, X32, X32)),
                RoutineJob("rot", (X32, X32), {"c": 0.6, "s": 0.8}),
                RoutineJob("gemv", (1.0, a, X32, 0.0, X32)),
                RoutineJob("rotg", (3.0, 4.0))):
        assert job.validate() is None, job


def test_malformed_jobs_never_reach_a_worker():
    with SimulationService(workers=1, engine_mode="event") as svc:
        for job in MALFORMED.values():
            with pytest.raises(AdmissionRejected) as exc:
                svc.submit(job, tenant="t0")
            assert [d.code for d in exc.value.diagnostics] == ["FB500"]
        assert svc.call(RoutineJob("dot", (X32, X32)), timeout=60) == 8.0
        outcomes = [r.outcome for r in svc.ledger.records()
                    if r.kind == "service.request"]
    assert outcomes == ["rejected"] * len(MALFORMED) + ["ok"]


def test_validate_stays_cheap():
    """Admission is on the per-job path of ``service_burst``: 9 profiled
    calls before it read the declaration, a budget of 12 after."""
    job = RoutineJob("dot", (X32, X32))
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        assert job.validate() is None
    finally:
        sys.setprofile(None)
    assert calls - 1 <= 12, calls               # (- the setprofile call)
