"""Model/simulate parity over the whole routine registry.

Parametrised over :data:`repro.blas.routines.REGISTRY`, so a 23rd routine
cannot be registered without a host row in ``host_cases.CASES``.  In both
execution modes every routine must hand back exactly the bytes of
``blas/reference.py`` (exact operands: see ``host_cases``) and account the
call identically: one :class:`~repro.host.CallRecord` with the same
routine, precision and flops.
"""

import numpy as np
import pytest

from repro.blas.routines import REGISTRY
from repro.host import Fblas
from repro.models.performance import routine_flops

from host_cases import (CASES, DTYPES, N, SIDE, expectation, operands,
                        same_bytes)


def _run(routine, dtype, **fblas):
    fb = Fblas(width=4, tile=4, **fblas)
    arrays = operands(routine, np.random.default_rng(19), DTYPES[dtype])
    kwargs = {} if arrays else {"dtype": DTYPES[dtype]}
    want, finals = expectation(routine, arrays, **kwargs)
    bufs = [fb.copy_to_device(a) for a in arrays]
    got = CASES[routine].call(fb, *bufs, **kwargs)
    assert same_bytes(got, want), (got, want)
    for buf, final in zip(bufs, finals):
        assert same_bytes(buf.data, final), buf.name
    assert len(fb.records) == 1
    return fb.records[0]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("routine", REGISTRY)
def test_both_modes_equal_the_reference_and_each_other(routine, dtype):
    sim = _run(routine, dtype)
    mod = _run(routine, dtype, mode="model")
    assert (sim.routine, sim.precision, sim.flops) \
        == (mod.routine, mod.precision, mod.flops)
    assert sim.routine == routine
    assert sim.precision == {"float32": "single", "float64": "double"}[dtype]
    assert mod.mode == "model"


@pytest.mark.parametrize("routine,dims", [
    ("sdsdot", (N,)), ("dot", (N,)), ("nrm2", (N,)), ("iamax", (N,)),
    ("gemv", (SIDE, SIDE)), ("ger", (SIDE, SIDE)), ("syr", (SIDE,)),
    ("syr2", (SIDE,)), ("trsv", (SIDE,)),
])
def test_flops_are_the_table_value(routine, dims):
    """``sdsdot`` recorded 2n simulated but 2n+1 modelled before the two
    modes shared one emitter."""
    for mode in ("simulate", "model"):
        assert _run(routine, "float32", mode=mode).flops \
            == routine_flops(routine, *dims)
