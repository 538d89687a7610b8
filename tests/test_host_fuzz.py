"""Boundary fuzz of the host API, run in a child process.

Every registry routine x {float32, float64, mixed precision} x {a
well-formed call, wrong rank, length/shape mismatch, stride 0 / -1, n=0,
n beyond the buffer, a raw ``ndarray`` operand, an output aliased to an
input} must either leave exactly the bytes ``blas/reference.py`` computes
or raise a :class:`~repro.fpga.errors.ReproError` subclass — never a bare
builtin, never an ``AttributeError`` from the plumbing.  Hypothesis varies
the execution mode, which operand is bent and the data.

The whole sweep runs the way the dace node tests (SNIPPETS.md) run their
FPGA programs: one ``multiprocessing.Process``, the verdict on a
``Queue``, a hard timeout — so a design that hangs is a failed test, not
a stuck CI job.
"""

import inspect
import multiprocessing
import queue as queue_module
import time
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.routines import REGISTRY
from repro.fpga.errors import ReproError
from repro.host import Fblas

from host_cases import CASES, DTYPES, expectation, operands, same_bytes

PRECISIONS = ("float32", "float64", "mixed")
MUTATIONS = ("none", "wrong_rank", "mismatch", "stride", "n_zero",
             "n_beyond", "raw_ndarray", "aliased")
TIMEOUT_S = 120


def bend(routine, arrays, mutation, which, rng):
    """Apply one mutation; returns ``(arrays, kwargs, raw)`` where ``raw``
    is the index of the operand handed over as a host array (or None).
    A mutation the routine has no room for leaves the call well formed."""
    kwargs, raw = {}, None
    params = inspect.signature(getattr(Fblas, routine)).parameters
    if not arrays:
        return arrays, kwargs, raw
    i = which % len(arrays)
    a = arrays[i]
    if mutation == "wrong_rank":
        arrays[i] = a.reshape(-1) if a.ndim > 1 else a.reshape(2, -1)
    elif mutation == "mismatch":
        arrays[i] = np.concatenate([a, a[:1]]) if a.ndim == 1 else a[:-1]
    elif mutation == "stride" and "incx" in params:
        kwargs["incx"] = int(rng.choice((0, -1)))
    elif mutation == "n_zero" and "n" in params:
        kwargs["n"] = 0
    elif mutation == "n_beyond" and "n" in params:
        kwargs["n"] = a.size + 1
    elif mutation == "raw_ndarray":
        raw = i
    elif mutation == "aliased":
        twins = [j for j, b in enumerate(arrays)
                 if j != i and b.shape == a.shape]
        if twins:
            arrays[twins[which % len(twins)]] = a
    return arrays, kwargs, raw


def drive(routine, precision, mutation, mode, which, seed):
    """One fuzzed call; returns ``"equal"`` or ``"rejected"``, raises
    AssertionError on anything else."""
    rng = np.random.default_rng(seed)
    dtype = DTYPES["float32" if precision == "mixed" else precision]
    arrays = operands(routine, rng, dtype)
    if precision == "mixed" and arrays:
        k = (which + 1) % len(arrays)
        arrays[k] = arrays[k].astype(np.float64)
    arrays, kwargs, raw = bend(routine, arrays, mutation, which, rng)
    if not arrays:
        kwargs["dtype"] = dtype
    try:
        want, finals = expectation(routine, arrays, **kwargs)
    except (ValueError, IndexError):
        want = finals = None                    # not a BLAS problem at all
    fb = Fblas(width=4, tile=4, mode=mode)
    device = {id(a): fb.copy_to_device(a)
              for i, a in enumerate(arrays) if i != raw}
    bufs = [a if i == raw else device[id(a)] for i, a in enumerate(arrays)]
    what = (routine, precision, mutation, mode, which, seed)
    try:
        got = CASES[routine].call(fb, *bufs, **kwargs)
    except ReproError:
        return "rejected"
    except Exception as exc:
        raise AssertionError(
            f"{what}: bare {type(exc).__name__}: {exc}") from exc
    assert raw is None, f"{what}: took a raw ndarray"
    assert finals is not None, f"{what}: ran what the reference refuses"
    assert same_bytes(got, want), f"{what}: returned {got!r}, not {want!r}"
    for buf, final in zip(bufs, finals):
        assert same_bytes(buf.data, final), f"{what}: {buf.name} differs"
    return "equal"


def sweep(outcomes):
    @settings(max_examples=6, derandomize=True, deadline=None,
              database=None)
    @given(st.sampled_from(("simulate", "model")), st.integers(0, 5),
           st.integers(0, 2 ** 16))
    def every_combination(mode, which, seed):
        for routine in REGISTRY:
            for precision in PRECISIONS:
                for mutation in MUTATIONS:
                    outcomes[mutation, drive(routine, precision, mutation,
                                             mode, which, seed)] += 1
    every_combination()


def _child(verdicts):
    outcomes = Counter()
    try:
        sweep(outcomes)
    except BaseException as exc:                # reported, then re-raised
        verdicts.put(("failed", f"{type(exc).__name__}: {exc}"))
        raise
    verdicts.put(("ok", dict(outcomes)))


def test_boundary_fuzz_in_a_child_process():
    ctx = multiprocessing.get_context("spawn")
    verdicts = ctx.Queue()
    child = ctx.Process(target=_child, args=(verdicts,), daemon=True)
    child.start()
    deadline = time.monotonic() + TIMEOUT_S
    verdict = None
    while verdict is None:
        try:
            verdict = verdicts.get(timeout=0.5)
        except queue_module.Empty:
            if not child.is_alive() and verdicts.empty():
                verdict = ("died", f"exit code {child.exitcode}")
            elif time.monotonic() > deadline:
                verdict = ("hung", f"no verdict in {TIMEOUT_S} s")
                child.kill()
    child.join(timeout=TIMEOUT_S)
    assert not child.is_alive()
    state, outcomes = verdict
    assert state == "ok", outcomes
    # Not vacuous: well-formed calls ran, and every bent call that has
    # to be refused was refused at least once.
    assert outcomes["none", "equal"] >= 2 * len(REGISTRY)
    for mutation in MUTATIONS[1:]:
        assert outcomes.get((mutation, "rejected"), 0) > 0, mutation
