"""Host API tests: BLAS semantics, records, async, modes, dtype guards."""

import numpy as np
import pytest

from repro.blas import reference
from repro.fpga.device import ARRIA10, STRATIX10
from repro.fpga.errors import ReproError
from repro.host import (Fblas, FblasContext, Handle, HostArgumentError,
                        HostValueError)

RNG = np.random.default_rng(31)


def f32(a):
    return np.asarray(a, dtype=np.float32)


def f64(a):
    return np.asarray(a, dtype=np.float64)


@pytest.fixture
def fb():
    return Fblas(width=4, tile=8)


@pytest.fixture
def fb_model():
    return Fblas(mode="model", width=16)


class TestContext:
    def test_copy_roundtrip(self, fb):
        x = f32(RNG.normal(size=16))
        buf = fb.copy_to_device(x)
        np.testing.assert_array_equal(fb.copy_from_device(buf), x)

    def test_rejects_non_float(self, fb):
        with pytest.raises(TypeError):
            fb.copy_to_device(np.arange(4))

    def test_device_banks_match_catalog(self):
        ctx = FblasContext(device=ARRIA10)
        assert ctx.mem.num_banks == 2
        ctx = FblasContext(device=STRATIX10)
        assert ctx.mem.num_banks == 4

    def test_interleaving_flag(self):
        ctx = FblasContext(interleaving=True)
        assert ctx.copy_to_device(f32([1.0])).bank is None

    def test_last_record_requires_a_call(self):
        with pytest.raises(RuntimeError):
            FblasContext().last_record

    def test_invalid_defaults(self):
        with pytest.raises(ValueError):
            FblasContext(default_width=0)
        with pytest.raises(ValueError):
            Fblas(mode="quantum")


class TestConfigurationIsTyped:
    """Widths, tiles, depths, lengths and strides are ints >= 1 (a bool
    is not one), refused with a typed error naming them where they are
    given — not a bare ``ValueError`` from ``islice`` at the first call,
    a silent fallback to the default, or a message about something
    else."""

    @pytest.mark.parametrize("kwargs,error", [
        ({"width": 2.5}, HostArgumentError),
        ({"width": "8"}, HostArgumentError),
        ({"width": True}, HostArgumentError),
        ({"width": 0}, HostValueError),
        ({"tile": -4}, HostValueError),
        ({"channel_depth": 0}, HostValueError),
        ({"default_width": 2.5}, HostArgumentError),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else v.__name__)
    def test_constructor(self, kwargs, error):
        name = next(iter(kwargs))
        with pytest.raises(error, match=name):
            Fblas(**kwargs)

    @pytest.mark.parametrize("kwargs,error,name", [
        ({"n": 2.5}, HostArgumentError, "n"),
        ({"n": 0}, HostValueError, "n"),
        ({"incx": 1.5}, HostArgumentError, "stride"),
        ({"incy": False}, HostArgumentError, "stride"),
        ({"incx": 0}, HostValueError, "stride"),
    ], ids=lambda v: repr(v) if isinstance(v, dict) else getattr(
        v, "__name__", v))
    def test_call(self, kwargs, error, name):
        fb = Fblas(width=4)
        x = fb.copy_to_device(f32(np.arange(8)))
        with pytest.raises(error, match=f"^{name} must be"):
            fb.dot(x, x, **kwargs)

    def test_numpy_integers_are_ints(self):
        fb = Fblas(width=np.int64(4), tile=np.int32(8))
        x = fb.copy_to_device(f32(np.arange(8)))
        assert fb.width == 4 and type(fb.width) is int
        assert fb.dot(x, x, n=np.int64(4), incx=np.int32(2),
                      incy=np.int32(2)) == np.float32(0 + 4 + 16 + 36)


class TestScalarsAreTyped:
    """Scalar coefficients are real numbers: ``None`` does not turn into
    a NaN result, and a string, a complex, a bool or an array is refused
    with a typed error naming the argument, not a bare ``ValueError``
    from ``dtype(...)`` or a broadcast.  A malformed ROTM ``param`` is a
    :class:`HostValueError`."""

    @pytest.mark.parametrize("call,error,name", [
        (lambda fb, x, y, a: fb.scal(None, x), HostArgumentError, "alpha"),
        (lambda fb, x, y, a: fb.scal(1j, x), HostArgumentError, "alpha"),
        (lambda fb, x, y, a: fb.scal(True, x), HostArgumentError, "alpha"),
        (lambda fb, x, y, a: fb.scal(np.ones(3), x), HostArgumentError,
         "alpha"),
        (lambda fb, x, y, a: fb.gemv(None, a, x, 1.0, y), HostArgumentError,
         "alpha"),
        (lambda fb, x, y, a: fb.axpy("a", x, y), HostArgumentError, "alpha"),
        (lambda fb, x, y, a: fb.gemv(1.0, a, x, "b", y), HostArgumentError,
         "beta"),
        (lambda fb, x, y, a: fb.rot(x, y, "c", 0.5), HostArgumentError, "c"),
        (lambda fb, x, y, a: fb.sdsdot("s", x, y), HostArgumentError, "sb"),
        (lambda fb, x, y, a: fb.ger([1, 2], x, y, a), HostArgumentError,
         "alpha"),
        (lambda fb, x, y, a: fb.rotm(x, y, [1.0]), HostValueError,
         "param"),
        (lambda fb, x, y, a: fb.rotm(x, y, [3.0, 1, 1, 1, 1]),
         HostValueError, "param"),
        (lambda fb, x, y, a: fb.rotg(None, 1.0), HostArgumentError, "a"),
        (lambda fb, x, y, a: fb.rotg(True, 1.0), HostArgumentError, "a"),
        (lambda fb, x, y, a: fb.rotg("a", 1.0), HostArgumentError, "a"),
        (lambda fb, x, y, a: fb.rotg(1j, 1.0), HostArgumentError, "a"),
        (lambda fb, x, y, a: fb.rotmg(1.0, 1.0, "x", 1.0),
         HostArgumentError, "x1"),
    ], ids=["scal-None", "scal-complex", "scal-bool", "scal-array",
            "gemv-alpha-None", "axpy-str", "gemv-beta-str", "rot-str",
            "sdsdot-str", "ger-list", "rotm-short", "rotm-flag",
            "rotg-None", "rotg-bool", "rotg-str", "rotg-complex",
            "rotmg-str"])
    def test_refused_with_its_name(self, call, error, name):
        fb = Fblas(width=4)
        x, y = (fb.copy_to_device(f32(np.arange(8))) for _ in range(2))
        a = fb.copy_to_device(f32(np.ones((8, 8))))
        before = [b.data.copy() for b in (x, y, a)]
        with pytest.raises(error, match=f"^{name}"):
            call(fb, x, y, a)
        assert all(np.array_equal(b.data, d)
                   for b, d in zip((x, y, a), before))

    def test_real_numbers_pass(self):
        fb = Fblas(width=4)
        x = fb.copy_to_device(f32(np.arange(8)))
        for alpha in (2, 2.0, np.float32(2), np.float64(2), np.int64(2)):
            fb.scal(alpha, x)
        assert np.array_equal(x.data, f32(np.arange(8) * 32))
        fb.rotm(x, x, np.array([-2.0, 0, 0, 0, 0]))
        assert fb.rotg(3, np.float32(4)) == fb.rotg(3.0, 4.0)
        assert all(np.array_equal(p, q) for p, q in zip(
            fb.rotmg(np.int64(1), 1, 2.0, np.float64(1)),
            fb.rotmg(1.0, 1.0, 2.0, 1.0)))


class TestHostOperands:
    """A raw ndarray where a device buffer belongs is the first mistake
    a new user makes; it must raise a typed error naming the argument,
    not an AttributeError from the stride plumbing."""

    @pytest.mark.parametrize("call,arg", [
        (lambda fb, v, m: fb.dot(v, v), "x"),
        (lambda fb, v, m: fb.dot(fb.copy_to_device(v), v), "y"),
        (lambda fb, v, m: fb.axpy(2.0, v, fb.copy_to_device(v)), "x"),
        (lambda fb, v, m: fb.scal(2.0, v), "x"),
        (lambda fb, v, m: fb.gemv(1.0, m, v, 1.0, v), "a"),
        (lambda fb, v, m: fb.gemv(1.0, fb.copy_to_device(m), v, 1.0, y=v),
         "x"),
        (lambda fb, v, m: fb.sdot(v, v), "x"),
    ])
    def test_raw_ndarray_is_a_typed_error(self, call, arg):
        fb = Fblas(width=8)
        with pytest.raises(HostArgumentError, match=f"'{arg}'") as exc:
            call(fb, np.ones(4, np.float32), np.ones((4, 4), np.float32))
        assert isinstance(exc.value, ReproError)
        assert isinstance(exc.value, TypeError)
        assert not fb.records                   # nothing ran

    def test_device_buffers_still_work(self):
        fb = Fblas(width=8)
        x = fb.copy_to_device(np.arange(8, dtype=np.float32))
        assert fb.dot(x, y=x) == 140.0
        fb.rot(x, fb.copy_to_device(np.ones(8, np.float32)), 0.6, 0.8)


class TestLevel1Calls:
    def test_scal_updates_device_buffer(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=20)))
        x0 = np.array(x.data)
        out = fb.scal(2.0, x)
        np.testing.assert_allclose(out, 2.0 * x0, rtol=1e-6)
        np.testing.assert_allclose(x.data, 2.0 * x0, rtol=1e-6)

    def test_axpy(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=24)))
        y = fb.copy_to_device(f32(RNG.normal(size=24)))
        x0, y0 = np.array(x.data), np.array(y.data)
        out = fb.axpy(0.5, x, y)
        np.testing.assert_allclose(out, 0.5 * x0 + y0, rtol=1e-5)

    def test_dot(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=32)))
        y = fb.copy_to_device(f32(RNG.normal(size=32)))
        got = fb.dot(x, y)
        assert got == pytest.approx(float(np.dot(x.data, y.data)), rel=1e-4)

    def test_swap(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f32(RNG.normal(size=8)))
        x0, y0 = np.array(x.data), np.array(y.data)
        fb.swap(x, y)
        np.testing.assert_allclose(x.data, y0)
        np.testing.assert_allclose(y.data, x0)

    def test_rot(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=12)))
        y = fb.copy_to_device(f32(RNG.normal(size=12)))
        x0, y0 = np.array(x.data), np.array(y.data)
        c, s = float(np.cos(0.2)), float(np.sin(0.2))
        fb.rot(x, y, c, s)
        ex, ey = reference.rot(x0, y0, c, s)
        np.testing.assert_allclose(x.data, ex, rtol=1e-5)
        np.testing.assert_allclose(y.data, ey, rtol=1e-5)

    def test_reductions(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=40)))
        assert fb.nrm2(x) == pytest.approx(
            float(np.linalg.norm(x.data)), rel=1e-4)
        assert fb.asum(x) == pytest.approx(
            float(np.abs(x.data).sum()), rel=1e-4)
        assert fb.iamax(x) == int(np.argmax(np.abs(x.data)))

    def test_sdsdot(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=64)))
        y = fb.copy_to_device(f32(RNG.normal(size=64)))
        want = float(reference.sdsdot(2.0, x.data, y.data))
        assert fb.sdsdot(2.0, x, y) == pytest.approx(want, rel=1e-5)

    def test_rotg_rotmg(self, fb):
        r, z, c, s = fb.rotg(3.0, 4.0)
        assert c * 3.0 + s * 4.0 == pytest.approx(r)
        d1, d2, x1, param = fb.rotmg(1.0, 1.0, 1.0, 1.0)
        assert len(param) == 5

    def test_length_mismatch(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f32(RNG.normal(size=9)))
        with pytest.raises(ValueError):
            fb.dot(x, y)

    def test_mixed_precision_rejected(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f64(RNG.normal(size=8)))
        with pytest.raises(TypeError):
            fb.axpy(1.0, x, y)


class TestLevel2Calls:
    def test_gemv(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f32(RNG.normal(size=8)))
        y0 = np.array(y.data)
        out = fb.gemv(1.5, a, x, 0.5, y)
        np.testing.assert_allclose(
            out, 1.5 * (a.data @ x.data) + 0.5 * y0, rtol=1e-3, atol=1e-4)

    def test_gemv_transposed(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 12))))
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f32(RNG.normal(size=12)))
        y0 = np.array(y.data)
        out = fb.gemv(1.0, a, x, 1.0, y, trans=True)
        np.testing.assert_allclose(out, a.data.T @ x.data + y0,
                                   rtol=1e-3, atol=1e-4)

    def test_gemv_cols_scheme(self, fb):
        """The tiles-by-cols specialization (y replayed) — same result,
        different I/O complexity (Sec. III-B)."""
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 16))))
        x = fb.copy_to_device(f32(RNG.normal(size=16)))
        y = fb.copy_to_device(f32(RNG.normal(size=8)))
        y0 = np.array(y.data)
        out = fb.gemv(1.2, a, x, 0.4, y, scheme="cols")
        np.testing.assert_allclose(
            out, 1.2 * (a.data @ x.data) + 0.4 * y0, rtol=1e-3, atol=1e-4)

    def test_gemv_schemes_have_different_io(self, fb):
        """rows replays x; cols replays y — the recorded I/O matches the
        closed forms for each."""
        from repro.models import iomodel
        n, m = 16, 16
        a_host = f32(RNG.normal(size=(n, m)))
        for scheme, formula in (
                ("rows", lambda: iomodel.gemv_io_tiles_by_rows(n, m, 8)),
                ("cols", lambda: iomodel.gemv_io_tiles_by_cols(n, m, 8))):
            fb2 = Fblas(width=4, tile=8)
            a = fb2.copy_to_device(a_host)
            x = fb2.copy_to_device(f32(RNG.normal(size=m)))
            y = fb2.copy_to_device(f32(RNG.normal(size=n)))
            fb2.gemv(1.0, a, x, 0.0, y, scheme=scheme)
            assert fb2.records[-1].io_elements == formula(), scheme

    def test_gemv_bad_scheme(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f32(RNG.normal(size=8)))
        with pytest.raises(ValueError):
            fb.gemv(1.0, a, x, 0.0, y, scheme="diagonal")
        with pytest.raises(ValueError):
            fb.gemv(1.0, a, x, 0.0, y, scheme="cols", trans=True)

    def test_gemv_shape_check(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        x = fb.copy_to_device(f32(RNG.normal(size=9)))
        y = fb.copy_to_device(f32(RNG.normal(size=8)))
        with pytest.raises(ValueError):
            fb.gemv(1.0, a, x, 0.0, y)

    def test_ger(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        y = fb.copy_to_device(f32(RNG.normal(size=8)))
        a0 = np.array(a.data)
        out = fb.ger(0.9, x, y, a)
        np.testing.assert_allclose(
            out, a0 + 0.9 * np.outer(x.data, y.data), rtol=1e-4, atol=1e-5)

    def test_syr(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        a0 = np.array(a.data)
        out = fb.syr(1.1, x, a)
        np.testing.assert_allclose(
            out, a0 + 1.1 * np.outer(x.data, x.data), rtol=1e-4, atol=1e-5)

    def test_syr2(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        x = fb.copy_to_device(f32(RNG.normal(size=4)))
        y = fb.copy_to_device(f32(RNG.normal(size=4)))
        a0 = np.array(a.data)
        out = fb.syr2(0.5, x, y, a)
        want = a0 + 0.5 * (np.outer(x.data, y.data)
                           + np.outer(y.data, x.data))
        np.testing.assert_allclose(out, want, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("lower", [True, False])
    def test_trsv(self, fb, lower):
        n = 8
        raw = f32(RNG.normal(size=(n, n))) + n * np.eye(n, dtype=np.float32)
        t = np.tril(raw) if lower else np.triu(raw)
        a = fb.copy_to_device(t)
        b = fb.copy_to_device(f32(RNG.normal(size=n)))
        b0 = np.array(b.data)
        x = fb.trsv(a, b, lower=lower)
        np.testing.assert_allclose(t @ x, b0, rtol=1e-3, atol=1e-3)


class TestLevel3Calls:
    def test_gemm_systolic(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        b = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        c = fb.copy_to_device(f32(RNG.normal(size=(8, 8))))
        c0 = np.array(c.data)
        out = fb.gemm(1.2, a, b, 0.3, c)
        np.testing.assert_allclose(out, 1.2 * (a.data @ b.data) + 0.3 * c0,
                                   rtol=1e-3, atol=1e-3)

    def test_gemm_tiled_streaming(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        b = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        c = fb.copy_to_device(np.zeros((4, 4), dtype=np.float32))
        out = fb.gemm(1.0, a, b, 0.0, c, impl="tiled")
        np.testing.assert_allclose(out, a.data @ b.data,
                                   rtol=1e-3, atol=1e-3)

    def test_gemm_bad_impl(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        with pytest.raises(ValueError):
            fb.gemm(1.0, a, a, 0.0, a, impl="magic")

    def test_syrk(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        c = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        c0 = np.array(c.data)
        out = fb.syrk(1.0, a, 0.5, c)
        np.testing.assert_allclose(out, a.data @ np.array(a.data).T * 1.0
                                   + 0.5 * c0, rtol=1e-3, atol=1e-3)

    def test_syr2k_model_backed(self, fb):
        a = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        b = fb.copy_to_device(f32(RNG.normal(size=(4, 4))))
        c = fb.copy_to_device(np.zeros((4, 4), dtype=np.float32))
        out = fb.syr2k(1.0, a, b, 0.0, c)
        want = a.data @ np.array(b.data).T + b.data @ np.array(a.data).T
        np.testing.assert_allclose(out, want, rtol=1e-3, atol=1e-3)

    def test_trsm(self, fb):
        n, m = 4, 4
        raw = f32(RNG.normal(size=(n, n))) + n * np.eye(n, dtype=np.float32)
        t = np.tril(raw)
        a = fb.copy_to_device(t)
        b = fb.copy_to_device(f32(RNG.normal(size=(n, m))))
        b0 = np.array(b.data)
        x = fb.trsm(1.0, a, b)
        np.testing.assert_allclose(t @ x, b0, rtol=1e-3, atol=1e-3)

    def test_batched_gemm(self, fb):
        size, nb = 4, 5
        a = fb.copy_to_device(f32(RNG.normal(size=(nb, size, size))))
        b = fb.copy_to_device(f32(RNG.normal(size=(nb, size, size))))
        c = fb.copy_to_device(f32(RNG.normal(size=(nb, size, size))))
        a0 = np.array(a.data)
        b0 = np.array(b.data)
        c0 = np.array(c.data)
        out = fb.batched_gemm(size, a, b, c)
        for i in range(nb):
            np.testing.assert_allclose(out[i], a0[i] @ b0[i] + c0[i],
                                       rtol=1e-3, atol=1e-3)

    def test_batched_trsm(self, fb):
        size, nb = 4, 4
        mats = np.stack([np.tril(f32(RNG.normal(size=(size, size))))
                         + size * np.eye(size, dtype=np.float32)
                         for _ in range(nb)])
        a = fb.copy_to_device(mats)
        b = fb.copy_to_device(f32(RNG.normal(size=(nb, size, size))))
        b0 = np.array(b.data)
        out = fb.batched_trsm(size, a, b)
        for i in range(nb):
            np.testing.assert_allclose(mats[i] @ out[i], b0[i],
                                       rtol=1e-3, atol=1e-3)


class TestModes:
    def test_model_matches_simulate(self):
        """The two execution modes agree on results."""
        x_host = f32(RNG.normal(size=32))
        y_host = f32(RNG.normal(size=32))
        sim = Fblas(width=4)
        mod = Fblas(mode="model", width=4)
        xs, ys = sim.copy_to_device(x_host), sim.copy_to_device(y_host)
        xm, ym = mod.copy_to_device(x_host), mod.copy_to_device(y_host)
        assert sim.dot(xs, ys) == pytest.approx(mod.dot(xm, ym), rel=1e-5)

    def test_model_cycles_close_to_simulated_when_not_bandwidth_bound(self):
        """Below the optimal width the C = L + N/W model is exact."""
        x_host = f32(RNG.normal(size=4096))
        y_host = f32(RNG.normal(size=4096))
        sim = Fblas(width=8)           # within one bank's floats/cycle
        mod = Fblas(mode="model", width=8)
        sim.dot(sim.copy_to_device(x_host), sim.copy_to_device(y_host))
        mod.dot(mod.copy_to_device(x_host), mod.copy_to_device(y_host))
        c_sim = sim.records[-1].cycles
        c_mod = mod.records[-1].cycles
        assert abs(c_sim - c_mod) / c_mod < 0.15

    def test_overprovisioned_width_is_bandwidth_bound(self):
        """Past the optimal width W = B/(S*F) the simulator shows the
        module starving on DRAM (Sec. IV-B) — extra lanes buy nothing."""
        x_host = f32(RNG.normal(size=4096))
        y_host = f32(RNG.normal(size=4096))
        cycles = {}
        for w in (16, 32):
            fb2 = Fblas(width=w)
            fb2.dot(fb2.copy_to_device(x_host), fb2.copy_to_device(y_host))
            cycles[w] = fb2.records[-1].cycles
        # doubling an already-overprovisioned width changes almost nothing
        assert cycles[32] > 0.85 * cycles[16]

    def test_records_accumulate(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=8)))
        fb.scal(1.0, x)
        fb.nrm2(x)
        assert [r.routine for r in fb.records] == ["scal", "nrm2"]
        assert fb.context.last_record.routine == "nrm2"
        assert fb.context.total_seconds() > 0

    def test_record_fields(self, fb_model):
        x = fb_model.copy_to_device(f32(RNG.normal(size=1024)))
        fb_model.scal(3.0, x)
        rec = fb_model.records[-1]
        assert rec.mode == "model"
        assert rec.io_elements == 2048
        assert rec.flops == 1024
        assert rec.gflops > 0
        assert rec.power_watts > 50


class TestAsync:
    def test_handle_defers_execution(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=16)))
        y = fb.copy_to_device(f32(RNG.normal(size=16)))
        h = fb.dot(x, y, async_=True)
        assert isinstance(h, Handle)
        assert not h.done
        assert len(fb.records) == 0        # nothing executed yet
        got = h.wait()
        assert h.done
        assert got == pytest.approx(float(np.dot(x.data, y.data)), rel=1e-4)

    def test_finish_drains_queue(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=16)))
        h1 = fb.scal(2.0, x, async_=True)
        h2 = fb.nrm2(x, async_=True)
        fb.finish()
        assert h1.done and h2.done
        # scal ran before nrm2, so the norm saw the scaled vector
        assert [r.routine for r in fb.records] == ["scal", "nrm2"]


class TestPrefixedAliases:
    def test_sdot_ddot(self):
        fb = Fblas(width=4)
        xs = fb.copy_to_device(f32(RNG.normal(size=16)))
        ys = fb.copy_to_device(f32(RNG.normal(size=16)))
        xd = fb.copy_to_device(f64(RNG.normal(size=16)))
        yd = fb.copy_to_device(f64(RNG.normal(size=16)))
        assert fb.sdot(xs, ys) == pytest.approx(
            float(np.dot(xs.data, ys.data)), rel=1e-4)
        assert fb.ddot(xd, yd) == pytest.approx(
            float(np.dot(xd.data, yd.data)), rel=1e-10)

    def test_wrong_precision_raises(self, fb):
        xd = fb.copy_to_device(f64(RNG.normal(size=8)))
        with pytest.raises(TypeError):
            fb.snrm2(xd)

    def test_isamax(self, fb):
        x = fb.copy_to_device(f32(RNG.normal(size=16)))
        assert fb.isamax(x) == int(np.argmax(np.abs(x.data)))

    def test_unknown_attribute(self, fb):
        with pytest.raises(AttributeError):
            fb.sfft

    def test_all_22_routines_reachable(self, fb):
        """Every routine of Sec. VI is callable through the host API."""
        for name in ("scal", "copy", "axpy", "swap", "rot", "rotm", "dot",
                     "sdsdot", "nrm2", "asum", "iamax", "rotg", "rotmg",
                     "gemv", "ger", "syr", "syr2", "trsv", "gemm", "syrk",
                     "syr2k", "trsm"):
            assert callable(getattr(fb, name))


class TestFitTile:
    """``_fit_tile`` runs twice per Level-2 call, so it searches down
    from the tile limit instead of over every multiple up to ``n``; the
    answer is still the definition's."""

    @pytest.mark.parametrize("tile", (1, 7, 64, 256, 512))
    @pytest.mark.parametrize("grid", (1, 2, 4))
    def test_largest_fitting_divisor(self, tile, grid):
        fb = Fblas(width=4, tile=tile)
        limit = max(tile, grid)
        for n in range(1, 2049):
            if n % grid:
                with pytest.raises(HostValueError, match="compute grid"):
                    fb._fit_tile(n, multiple_of=grid)
                continue
            d = np.arange(grid, n + 1, grid)
            want = d[(n % d == 0) & (d <= limit)].max(initial=grid)
            assert fb._fit_tile(n, multiple_of=grid) == want, n
