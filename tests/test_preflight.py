"""Engine pre-flight analysis: annotations, wiring checks, and the
ATAX acceptance scenario (AnalysisError before cycle 0 vs clean run)."""

import numpy as np
import pytest

from repro.analysis import AnalysisError, analyze_engine
from repro.apps import atax_broken, atax_reference, atax_streaming
from repro.fpga import DeadlockError, Engine
from repro.fpga.channel import DEFAULT_CHANNEL_DEPTH
from repro.fpga.kernel import Clock, Pop, Push, WritePort
from repro.host import Fblas, FblasContext
from repro.streaming import DEFAULT_CHANNEL_DEPTH as STREAMING_DEPTH


def test_default_channel_depth_single_source():
    # Satellite: one constant, shared by fpga.channel and streaming.mdag.
    assert STREAMING_DEPTH is DEFAULT_CHANNEL_DEPTH
    eng = Engine()
    assert eng.channel("c").depth == DEFAULT_CHANNEL_DEPTH


# ------------------------------------------------------------- annotations
def test_write_port_normalization():
    eng = Engine()
    c = eng.channel("c")
    k = eng.add_kernel("k", lambda: iter(()), writes=[(c, 4)])
    (port,) = k.writes
    assert isinstance(port, WritePort)
    assert port.channel is c and port.lanes == 4 and port.latency is None


def test_negative_defer_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.add_kernel("k", lambda: iter(()), defer=-1)


def test_unannotated_engine_only_gets_fb301_info():
    eng = Engine()
    c = eng.channel("c")
    eng.add_kernel("k", lambda: iter(()))
    del c
    result = analyze_engine(eng)
    assert result.ok
    assert [d.code for d in result.infos] == ["FB301"]


def test_readerless_and_writerless_channels_flagged():
    eng = Engine()
    orphan_r = eng.channel("orphan_r")
    orphan_w = eng.channel("orphan_w")
    eng.add_kernel("producer", lambda: iter(()), writes=[orphan_w])
    eng.add_kernel("consumer", lambda: iter(()), reads=(orphan_r,))
    result = analyze_engine(eng)
    codes = sorted(d.code for d in result.diagnostics)
    assert codes == ["FB006", "FB006"]
    # read-without-writer is the fatal direction
    assert len(result.errors) == 1


def test_kernel_cycle_is_fb004():
    eng = Engine()
    c1, c2 = eng.channel("c1"), eng.channel("c2")
    eng.add_kernel("a", lambda: iter(()), reads=(c2,), writes=[c1])
    eng.add_kernel("b", lambda: iter(()), reads=(c1,), writes=[c2])
    result = analyze_engine(eng)
    assert any(d.code == "FB004" for d in result.errors)


# --------------------------------------------------------------- run() hook
def _fanout_body(ca, cb, n):
    for i in range(n):
        yield Push(ca, (float(i),), 1)
        yield Push(cb, (float(i),), 1)
        yield Clock()


def _delay_body(ca, cd, n, defer):
    buf = []
    for _ in range(defer):
        buf.append((yield Pop(ca, 1)))
        yield Clock()
    for v in buf:
        yield Push(cd, (v,), 1)
        yield Clock()
    for _ in range(n - defer):
        v = yield Pop(ca, 1)
        yield Push(cd, (v,), 1)
        yield Clock()


def _join_body(cd, cb, co, n):
    total = 0.0
    for _ in range(n):
        total += (yield Pop(cd, 1))
        total += (yield Pop(cb, 1))
        yield Clock()
    yield Push(co, (total,), 1)
    yield Clock()


def _sink_body(co):
    yield Pop(co, 1)
    yield Clock()


def _diamond(depth_b=4, defer=64, n=256, preflight=False):
    """src fans out to a deferring branch and a direct edge to join.

    The direct channel must buffer the delay kernel's ``defer``-element
    reordering window; ``depth_b`` far below it is a proven deadlock.
    """
    eng = Engine(preflight=preflight)
    ca = eng.channel("ca", n)
    cb = eng.channel("cb", depth_b)
    cd = eng.channel("cd", 8)
    co = eng.channel("co", 4)
    eng.add_kernel("src", _fanout_body(ca, cb, n),
                   writes=[(ca, 1, 1), (cb, 1, 1)])
    eng.add_kernel("delay", _delay_body(ca, cd, n, defer),
                   reads=(ca,), writes=[(cd, 1, 1)], defer=defer)
    eng.add_kernel("join", _join_body(cd, cb, co, n),
                   reads=(cd, cb), writes=[(co, 1, 1)])
    eng.add_kernel("sink", _sink_body(co), reads=(co,))
    return eng


def test_preflight_rejects_before_cycle_zero():
    eng = _diamond(preflight=True)
    with pytest.raises(AnalysisError) as exc:
        eng.run()
    assert any(d.code == "FB003" for d in exc.value.diagnostics)
    assert eng.now == 0                      # nothing was simulated


def test_without_preflight_the_same_design_deadlocks():
    with pytest.raises(DeadlockError):
        _diamond(preflight=False).run(max_cycles=100_000)


def test_run_argument_overrides_constructor():
    eng = _diamond(preflight=False)
    with pytest.raises(AnalysisError):
        eng.run(preflight=True)


def test_sufficient_depth_passes_preflight_and_completes():
    eng = _diamond(depth_b=64, preflight=True)
    report = eng.run()
    assert report.cycles > 0


# ------------------------------------------------------ ATAX acceptance
@pytest.fixture
def atax_inputs():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(32, 32)).astype(np.float32)
    x = rng.normal(size=32).astype(np.float32)
    return a, x


def _device(ctx, a, x):
    return ctx.copy_to_device(a), ctx.copy_to_device(x)


def test_atax_undersized_preflight_raises_with_fix(atax_inputs):
    a, x = atax_inputs
    ctx = FblasContext()
    da, dx = _device(ctx, a, x)
    with pytest.raises(AnalysisError) as exc:
        atax_streaming(ctx, da, dx, tile=8, width=4, channel_depth=16,
                       preflight=True)
    (err,) = [d for d in exc.value.diagnostics if d.code == "FB003"]
    assert "'read_A__gemvT'" in err.fix


def test_atax_undersized_without_preflight_deadlocks(atax_inputs):
    a, x = atax_inputs
    ctx = FblasContext()
    da, dx = _device(ctx, a, x)
    with pytest.raises(DeadlockError):
        atax_streaming(ctx, da, dx, tile=8, width=4, channel_depth=16)


def test_atax_fixed_depth_passes_preflight_and_runs(atax_inputs):
    a, x = atax_inputs
    ctx = FblasContext()
    da, dx = _device(ctx, a, x)
    res = atax_streaming(ctx, da, dx, tile=8, width=4, preflight=True)
    np.testing.assert_allclose(res.value, atax_reference(a, x), rtol=1e-4)


def test_atax_broken_variant_is_annotation_clean(atax_inputs):
    a, x = atax_inputs
    ctx = FblasContext()
    da, dx = _device(ctx, a, x)
    res = atax_broken(ctx, da, dx, tile=8, width=4)
    np.testing.assert_allclose(res.value, atax_reference(a, x), rtol=1e-4)


# ---------------------------------------------------------------- host API
def test_fblas_preflight_plumbing():
    fb = Fblas(preflight=True)
    assert fb._engine().preflight is True
    x = fb.copy_to_device(np.arange(16, dtype=np.float32))
    y = fb.copy_to_device(np.ones(16, dtype=np.float32))
    # Host designs are unannotated: preflight must be a no-op, not a wall.
    assert fb.dot(x, y) == pytest.approx(float(np.arange(16).sum()))


def test_fblas_preflight_default_off():
    assert Fblas()._engine().preflight is False
