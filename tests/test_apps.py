"""Integration tests for the Sec. V composed applications."""

from functools import partial

import numpy as np
import pytest

from repro import telemetry
from repro.apps import (
    APPS,
    atax_broken,
    atax_host,
    atax_mdag,
    atax_reference,
    atax_streaming,
    axpydot_host,
    axpydot_mdag,
    axpydot_reference,
    axpydot_streaming,
    bicg_host,
    bicg_mdag,
    bicg_reference,
    bicg_streaming,
    gemver_component1_mdag,
    gemver_full_streaming_mdag,
    gemver_host,
    gemver_reference,
    gemver_streaming,
)
from repro.fpga import DeadlockError
from repro.host import Fblas, FblasContext
from repro.models import iomodel

RNG = np.random.default_rng(41)


def f32(a):
    return np.asarray(a, dtype=np.float32)


def _vec(n):
    return f32(RNG.normal(size=n))


def _mat(n, m):
    return f32(RNG.normal(size=(n, m)))


class TestAxpydot:
    N = 128
    ALPHA = 0.7

    def _host(self, w, v, u):
        fb = Fblas(width=8)
        bufs = [fb.copy_to_device(a) for a in (w, v, u)]
        return axpydot_host(fb, *bufs, self.ALPHA)

    def _stream(self, w, v, u):
        ctx = FblasContext()
        bufs = [ctx.copy_to_device(a) for a in (w, v, u)]
        return axpydot_streaming(ctx, *bufs, self.ALPHA, width=8)

    def test_both_match_reference(self):
        w, v, u = _vec(self.N), _vec(self.N), _vec(self.N)
        ref = axpydot_reference(w, v, u, self.ALPHA)
        host = self._host(w, v, u)
        stream = self._stream(w, v, u)
        assert host.value == pytest.approx(float(ref), rel=1e-4)
        assert stream.value == pytest.approx(float(ref), rel=1e-4)

    def test_streaming_io_is_3n_plus_1(self):
        w, v, u = _vec(self.N), _vec(self.N), _vec(self.N)
        stream = self._stream(w, v, u)
        assert stream.io_elements == 3 * self.N + 1

    def test_host_io_is_7n(self):
        w, v, u = _vec(self.N), _vec(self.N), _vec(self.N)
        host = self._host(w, v, u)
        assert host.io_elements == 7 * self.N

    def test_streaming_is_faster(self):
        n = 2048
        w, v, u = _vec(n), _vec(n), _vec(n)
        host = self._host(w, v, u)
        stream = self._stream(w, v, u)
        speedup = host.cycles / stream.cycles
        assert speedup > 2.0       # approaches 3-4 as N grows (Fig. 11)

    def test_mdag_is_valid_multitree(self):
        rep = axpydot_mdag(1024).validate()
        assert rep.valid and rep.is_multitree


class TestBicg:
    def test_matches_reference(self):
        n = m = 16
        a, p, r = _mat(n, m), _vec(m), _vec(n)
        qref, sref = bicg_reference(a, p, r)
        ctx = FblasContext()
        bufs = [ctx.copy_to_device(x) for x in (a, p, r)]
        res = bicg_streaming(ctx, *bufs, tile=4, width=4)
        np.testing.assert_allclose(res.value[0], qref, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(res.value[1], sref, rtol=1e-3, atol=1e-3)

    def test_streaming_halves_matrix_io(self):
        n = m = 32
        a, p, r = _mat(n, m), _vec(m), _vec(n)
        fb = Fblas(width=4, tile=8)
        hbufs = [fb.copy_to_device(x) for x in (a, p, r)]
        host = bicg_host(fb, *hbufs)
        ctx = FblasContext()
        sbufs = [ctx.copy_to_device(x) for x in (a, p, r)]
        stream = bicg_streaming(ctx, *sbufs, tile=8, width=4)
        # host reads A twice; streaming reads it once
        assert host.io_elements > stream.io_elements
        assert host.io_elements - stream.io_elements >= n * m

    def test_parallel_execution_reduces_cycles(self):
        n = m = 32
        a, p, r = _mat(n, m), _vec(m), _vec(n)
        fb = Fblas(width=4, tile=8)
        hbufs = [fb.copy_to_device(x) for x in (a, p, r)]
        host = bicg_host(fb, *hbufs)
        ctx = FblasContext()
        sbufs = [ctx.copy_to_device(x) for x in (a, p, r)]
        stream = bicg_streaming(ctx, *sbufs, tile=8, width=4)
        assert stream.cycles < host.cycles

    def test_mdag_is_valid(self):
        rep = bicg_mdag(32, 32, 8, 8).validate()
        assert rep.valid and rep.is_multitree


class TestAtax:
    M = N = 16

    def _arrays(self):
        return _mat(self.M, self.N), _vec(self.N)

    def test_streamed_with_sized_channel_matches_reference(self):
        a, x = self._arrays()
        ctx = FblasContext()
        res = atax_streaming(ctx, ctx.copy_to_device(a),
                             ctx.copy_to_device(x), tile=4, width=4)
        np.testing.assert_allclose(res.value, atax_reference(a, x),
                                   rtol=1e-3, atol=1e-3)

    def test_undersized_channel_deadlocks(self):
        """The Sec. V-B invalid composition stalls forever."""
        a, x = self._arrays()
        ctx = FblasContext()
        with pytest.raises(DeadlockError):
            atax_streaming(ctx, ctx.copy_to_device(a),
                           ctx.copy_to_device(x), tile=4, width=4,
                           channel_depth=16)

    def test_minimal_depth_bound_is_tight(self):
        """Just below the N*T_N bound deadlocks; at the bound it runs."""
        a, x = self._arrays()
        bound = iomodel.atax_min_channel_depth(self.N, 4)
        ctx = FblasContext()
        with pytest.raises(DeadlockError):
            atax_streaming(ctx, ctx.copy_to_device(a),
                           ctx.copy_to_device(x), tile=4, width=4,
                           channel_depth=bound // 2)
        ctx2 = FblasContext()
        res = atax_streaming(ctx2, ctx2.copy_to_device(a),
                             ctx2.copy_to_device(x), tile=4, width=4,
                             channel_depth=bound + 32)
        np.testing.assert_allclose(res.value, atax_reference(a, x),
                                   rtol=1e-3, atol=1e-3)

    def test_broken_composition_matches_reference(self):
        a, x = self._arrays()
        ctx = FblasContext()
        res = atax_broken(ctx, ctx.copy_to_device(a),
                          ctx.copy_to_device(x), tile=4, width=4)
        np.testing.assert_allclose(res.value, atax_reference(a, x),
                                   rtol=1e-3, atol=1e-3)
        assert res.kernel_steps > res.cycles     # several kernels live

    def test_broken_reads_a_twice(self):
        a, x = self._arrays()
        ctx1 = FblasContext()
        stream = atax_streaming(ctx1, ctx1.copy_to_device(a),
                                ctx1.copy_to_device(x), tile=4, width=4)
        ctx2 = FblasContext()
        broken = atax_broken(ctx2, ctx2.copy_to_device(a),
                             ctx2.copy_to_device(x), tile=4, width=4)
        assert broken.io_elements - stream.io_elements >= self.M * self.N - 8

    def test_broken_still_beats_host_layer(self):
        """Pipelining the two GEMVs still helps (Sec. V-B)."""
        a, x = _mat(32, 32), _vec(32)
        fb = Fblas(width=4, tile=8)
        host = atax_host(fb, fb.copy_to_device(a), fb.copy_to_device(x))
        ctx = FblasContext()
        broken = atax_broken(ctx, ctx.copy_to_device(a),
                             ctx.copy_to_device(x), tile=8, width=4)
        assert broken.cycles < host.cycles

    def test_mdag_statically_invalid(self):
        rep = atax_mdag(16, 16, 4, 4).validate()
        assert not rep.valid
        assert ("read_A", "gemvT") in rep.reconvergent_pairs or \
            ("read_A", "gemv2") in [tuple(p) for p in rep.reconvergent_pairs]


class TestGemver:
    N = 16
    ALPHA, BETA = 1.2, 0.8

    def _arrays(self):
        return (_mat(self.N, self.N),) + tuple(_vec(self.N)
                                               for _ in range(6))

    def test_host_and_streaming_match_reference(self):
        arrays = self._arrays()
        bref, xref, wref = gemver_reference(*arrays, self.ALPHA, self.BETA)
        fb = Fblas(width=4, tile=4)
        hbufs = [fb.copy_to_device(x) for x in arrays]
        host = gemver_host(fb, *hbufs, self.ALPHA, self.BETA)
        np.testing.assert_allclose(host.value[0], bref, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(host.value[2], wref, rtol=1e-2, atol=1e-2)
        ctx = FblasContext()
        sbufs = [ctx.copy_to_device(x) for x in arrays]
        stream = gemver_streaming(ctx, *sbufs, self.ALPHA, self.BETA,
                                  tile=4, width=4)
        np.testing.assert_allclose(stream.value[0], bref, rtol=1e-3,
                                   atol=1e-3)
        np.testing.assert_allclose(stream.value[1], xref, rtol=1e-2,
                                   atol=1e-2)
        np.testing.assert_allclose(stream.value[2], wref, rtol=1e-2,
                                   atol=1e-2)

    def test_streaming_reduces_io_toward_3n2(self):
        arrays = self._arrays()
        fb = Fblas(width=4, tile=4)
        host = gemver_host(fb, *[fb.copy_to_device(x) for x in arrays],
                           self.ALPHA, self.BETA)
        ctx = FblasContext()
        stream = gemver_streaming(
            ctx, *[ctx.copy_to_device(x) for x in arrays],
            self.ALPHA, self.BETA, tile=4, width=4)
        n2 = self.N * self.N
        assert host.io_elements > 7 * n2          # ~8N^2
        assert stream.io_elements < 5 * n2        # ~3N^2 + vector terms

    def test_streaming_cycle_advantage(self):
        arrays = self._arrays()
        fb = Fblas(width=4, tile=4)
        host = gemver_host(fb, *[fb.copy_to_device(x) for x in arrays],
                           self.ALPHA, self.BETA)
        ctx = FblasContext()
        stream = gemver_streaming(
            ctx, *[ctx.copy_to_device(x) for x in arrays],
            self.ALPHA, self.BETA, tile=4, width=4)
        assert stream.cycles < host.cycles

    def test_full_streaming_mdag_invalid(self):
        rep = gemver_full_streaming_mdag(64, 8).validate()
        assert not rep.valid
        assert rep.reconvergent_pairs       # B reconverges at the last GEMV

    def test_component1_mdag_valid(self):
        rep = gemver_component1_mdag(64, 8).validate()
        assert rep.valid and rep.is_multitree


class TestOneContextServesRepeatedCalls:
    """The apps bind buffers of their own (outputs, zero addends, the
    host variants' intermediates) and release them when they return, so
    a reused context holds only its caller's buffers between calls, and
    every call binds the documented names (fault plans and reports refer
    to them)."""

    N = 16

    HOST = {"atax_host": atax_host, "axpydot_host": axpydot_host,
            "bicg_host": bicg_host, "gemver_host": gemver_host}

    @pytest.mark.parametrize("app", sorted([*APPS, "atax_broken", *HOST]))
    def test_same_bytes_and_cycles_every_call(self, app):
        spec = APPS[app.split("_")[0]]
        kwargs = dict(width=4)
        if any(rank == 2 for _name, rank in spec.operands):
            kwargs["tile"] = 4
        ctx = FblasContext()
        if app in self.HOST:
            # Host variants take an Fblas on the same context; the
            # sizes go to its constructor.
            run = partial(self.HOST[app], Fblas(context=ctx, **kwargs))
            kwargs = {}
        else:
            run = partial(atax_broken if app == "atax_broken"
                          else spec.streaming, ctx)
        bufs = [ctx.copy_to_device(x) for x in spec.draw(RNG, self.N)]
        callers = list(ctx.mem.buffers)     # the caller's operands
        results, own = [], []
        for _ in range(3):
            with telemetry.session(metrics=False, kernel_slices=False,
                                   occupancy=False) as tel:
                res = run(*bufs, *spec.scalars, **kwargs)
            assert list(ctx.mem.buffers) == callers
            value = res.value if isinstance(res.value, tuple) else (res.value,)
            results.append((tuple(np.asarray(v).tobytes() for v in value),
                            res.cycles, res.io_elements))
            own.append({b for r in tel.ledger.records()
                        if r.kind == "engine.run"
                        for b in r.memory["placements"]} - set(callers))
        assert results[1:] == results[:1] * 2
        assert own[1:] == own[:1] * 2
        assert all("." not in name for name in own[0])

    def test_a_failed_call_releases_its_buffers_too(self):
        ctx = FblasContext()
        a, x = (ctx.copy_to_device(v) for v in APPS["atax"].draw(RNG, 16))
        before = len(ctx.mem.buffers)
        with pytest.raises(DeadlockError):
            atax_streaming(ctx, a, x, tile=4, width=4, channel_depth=16)
        assert len(ctx.mem.buffers) == before
