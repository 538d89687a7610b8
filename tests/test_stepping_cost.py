"""Cost guards for the stepping core, counted rather than timed.

Python + C calls (``sys.setprofile`` "call" / "c_call" events; every
``len`` counts) for the places the stepping core is the cost: an
event-tier Sec. V application, the cycles a certified run cannot
replay, a warm certified run watched by a full telemetry session and
a warm unwatched one, both of which take the compiled hit.  Call creep
on the per-step path (an op that grows a field, a per-element walk over
staged values, a second capacity check) fails here before it fails the
benchmark's 2 % bound on ``host_calls_per_req``.  The bounds are the counts measured when the
ops, the per-push staging and the index-array interface kernels landed,
plus 5 %.
"""

import sys
from unittest import mock

import numpy as np

from repro import telemetry
from repro.apps import atax_streaming
from repro.fpga.bulk import WindowScheduler
from repro.fpga.scheduler import WakeListScheduler
from repro.host import Fblas, FblasContext

#: Calls of one warm event-tier ATAX (80 038 before).
ATAX_CALLS = 44_674
#: Calls inside the 6 stepped cycles of a certified dot's planning run
#: (585, then 341 for 7 stepped cycles, then 261 on its first replayed
#: run, before).
DOT_STEPPED_CALLS = 249
#: Calls of a warm certified dot inside a full telemetry session: its
#: compiled hit and recorded observation (2 226, then 1 662 while a
#: watched run planned its windows, then 1 553 while it replayed a
#: superstep script, before).
WATCHED_DOT_CALLS = 1_077
#: Calls of a warm unwatched certified dot, host call to result: its
#: compiled hit (779 while it replayed its script, then 429 while every
#: run worked out its cycle budgets).
CERTIFIED_DOT_CALLS = 399


def _count_calls(fn, inside=None):
    """Run ``fn()``; return its result and the calls it made — all of
    them, or only those made while a frame of code ``inside`` is live."""
    calls = 0
    depth = 0 if inside is not None else 1

    def hook(frame, event, arg):
        nonlocal calls, depth
        if inside is not None and frame.f_code is inside:
            if event == "call":
                depth += 1
            elif event == "return":
                depth -= 1
        if depth and event in ("call", "c_call"):
            calls += 1

    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


def test_event_tier_atax_call_count():
    """One event-tier ATAX at the benchmark's size (32 x 32, tile 8,
    width 4): 789 cycles, every one stepped."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((32, 32)).astype(np.float32)
    x = rng.standard_normal(32).astype(np.float32)

    def call():
        ctx = FblasContext()
        return atax_streaming(ctx, ctx.copy_to_device(a),
                              ctx.copy_to_device(x), tile=8, width=4)

    call()
    res, calls = _count_calls(call)
    assert res.cycles == 789
    assert calls <= 1.05 * ATAX_CALLS, calls


class _Capturing(Fblas):
    """Keeps the engine each call builds."""

    def _engine(self):
        self.engine = super()._engine()
        return self.engine


def test_certified_dot_stepped_cycles_call_count():
    """The cycles a certified 4096-element ``dot`` steps between its
    replayed window (pipeline start-up, the reduction's tail and result
    push, the sink) — counted inside the event core's ``_run_cycle``
    only, on the design's planning run (later runs take the compiled
    hit, which steps nothing)."""
    fb = _Capturing(width=8, engine_mode="certified")
    rng = np.random.default_rng(7)
    x, y = (fb.copy_to_device(rng.standard_normal(4096).astype(np.float32))
            for _ in range(2))
    _, calls = _count_calls(lambda: fb.dot(x, y),
                            inside=WakeListScheduler._run_cycle.__code__)
    assert fb.engine.bulk_stats()["stepped_cycles"] == 6
    assert calls <= 1.05 * DOT_STEPPED_CALLS, calls
    _, calls = _count_calls(lambda: fb.dot(x, y),
                            inside=WakeListScheduler._run_cycle.__code__)
    assert calls == 0
    assert fb.engine.bulk_stats()["stepped_cycles"] == 6


def test_certified_dot_call_count():
    """A warm unwatched certified 4096-element ``dot``, host call to
    result: the compiled hit runs the bodies and applies the recorded
    counters, with no event loop."""
    fb = _Capturing(width=8, engine_mode="certified")
    rng = np.random.default_rng(7)
    x, y = (fb.copy_to_device(rng.standard_normal(4096).astype(np.float32))
            for _ in range(2))
    want = fb.dot(x, y)
    fb.dot(x, y)
    got, calls = _count_calls(lambda: fb.dot(x, y))
    assert np.float32(got).tobytes() == np.float32(want).tobytes()
    assert calls <= 1.05 * CERTIFIED_DOT_CALLS, calls


def _refuse(*args):
    raise AssertionError("a watched warm run planned a window")


def test_watched_certified_dot_call_count():
    """A warm certified 4096-element ``dot`` inside a full session
    (metrics, kernel slices, occupancy): the whole request, host call to
    ledger record.  The session's first run of the design planned and
    recorded what its observer saw; this one takes the compiled hit and
    shows the observer that, so nothing is planned.  2 226 calls when
    every labelled series was written per label, per stepped cycle and
    per window; the observer now folds the run once."""
    fb = _Capturing(width=8, engine_mode="certified")
    rng = np.random.default_rng(7)
    x, y = (fb.copy_to_device(rng.standard_normal(4096).astype(np.float32))
            for _ in range(2))
    fb.dot(x, y)
    with telemetry.session() as tel:
        fb.dot(x, y)
        with mock.patch.multiple(WindowScheduler, _survey=_refuse,
                                 _window_plan=_refuse):
            _, calls = _count_calls(lambda: fb.dot(x, y))
    assert fb.engine.bulk_stats()["windows"] > 0
    assert tel.runs[-1]["kernel_steps"] == 2143
    assert calls <= 1.05 * WATCHED_DOT_CALLS, calls
