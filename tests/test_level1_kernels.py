"""Streaming Level-1 kernels vs the numpy references, on the simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas import level1, reference
from repro.fpga import Engine
from repro.fpga.channel import Channel
from repro.fpga.errors import StreamOrderError
from repro.models import level1_cycles

from helpers import run_map_kernel, run_reduction_kernel

RNG = np.random.default_rng(7)


def vec(n, dtype=np.float32, scale=1.0):
    return (RNG.normal(size=n) * scale).astype(dtype)


class TestScal:
    @pytest.mark.parametrize("n,w", [(64, 1), (64, 4), (100, 8), (7, 16)])
    def test_matches_reference(self, n, w):
        x = vec(n)
        outs, _ = run_map_kernel(
            lambda cx, co: level1.scal_kernel(n, 2.5, cx, co, w),
            {"x": (list(x), w)}, {"out": n}, w)
        np.testing.assert_allclose(outs["out"], reference.scal(2.5, x),
                                   rtol=1e-6)

    def test_cycle_count_matches_model(self):
        """Measured cycles track C = CD + N/W (Sec. IV-A)."""
        n, w = 4096, 8
        x = vec(n)
        _, rep = run_map_kernel(
            lambda cx, co: level1.scal_kernel(n, 1.0, cx, co, w),
            {"x": (list(x), w)}, {"out": n}, w, latency=50)
        assert abs(rep.cycles - level1_cycles("scal", n, w) - 44) < 60

    def test_double_precision(self):
        x = vec(32, np.float64)
        outs, _ = run_map_kernel(
            lambda cx, co: level1.scal_kernel(32, -1.5, cx, co, 4,
                                              dtype=np.float64),
            {"x": (list(x), 4)}, {"out": 32}, 4)
        np.testing.assert_allclose(outs["out"], -1.5 * x, rtol=1e-14)


class TestCopyAxpy:
    def test_copy(self):
        x = vec(50)
        outs, _ = run_map_kernel(
            lambda cx, co: level1.copy_kernel(50, cx, co, 4),
            {"x": (list(x), 4)}, {"out": 50}, 4)
        np.testing.assert_allclose(outs["out"], x, rtol=1e-7)

    @pytest.mark.parametrize("w", [1, 4, 16])
    def test_axpy(self, w):
        x, y = vec(96), vec(96)
        outs, _ = run_map_kernel(
            lambda cx, cy, co: level1.axpy_kernel(96, 0.7, cx, cy, co, w),
            {"x": (list(x), w), "y": (list(y), w)}, {"out": 96}, w)
        np.testing.assert_allclose(outs["out"], reference.axpy(0.7, x, y),
                                   rtol=1e-5)


class TestSwapRot:
    def test_swap(self):
        x, y = vec(40), vec(40)
        outs, _ = run_map_kernel(
            lambda cx, cy, cox, coy: level1.swap_kernel(40, cx, cy, cox, coy, 4),
            {"x": (list(x), 4), "y": (list(y), 4)},
            {"ox": 40, "oy": 40}, 4)
        np.testing.assert_allclose(outs["ox"], y, rtol=1e-7)
        np.testing.assert_allclose(outs["oy"], x, rtol=1e-7)

    def test_rot(self):
        x, y = vec(64), vec(64)
        c, s = np.cos(0.4), np.sin(0.4)
        outs, _ = run_map_kernel(
            lambda cx, cy, cox, coy: level1.rot_kernel(
                64, c, s, cx, cy, cox, coy, 4),
            {"x": (list(x), 4), "y": (list(y), 4)}, {"ox": 64, "oy": 64}, 4)
        ex, ey = reference.rot(x, y, c, s)
        np.testing.assert_allclose(outs["ox"], ex, rtol=1e-5)
        np.testing.assert_allclose(outs["oy"], ey, rtol=1e-5)

    @pytest.mark.parametrize("flag", [-2.0, -1.0, 0.0, 1.0])
    def test_rotm(self, flag):
        x, y = vec(32), vec(32)
        if flag == -1.0:
            param = np.array([flag, 0.9, -0.2, 0.3, 1.1], dtype=np.float32)
        elif flag == 0.0:
            param = np.array([flag, 0, -0.2, 0.3, 0], dtype=np.float32)
        elif flag == 1.0:
            param = np.array([flag, 0.9, 0, 0, 1.1], dtype=np.float32)
        else:
            param = np.array([flag, 0, 0, 0, 0], dtype=np.float32)
        outs, _ = run_map_kernel(
            lambda cx, cy, cox, coy: level1.rotm_kernel(
                32, param, cx, cy, cox, coy, 4),
            {"x": (list(x), 4), "y": (list(y), 4)}, {"ox": 32, "oy": 32}, 4)
        ex, ey = reference.rotm(x, y, param)
        np.testing.assert_allclose(outs["ox"], ex, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(outs["oy"], ey, rtol=1e-5, atol=1e-6)

    def test_rotm_bad_flag(self):
        with pytest.raises(ValueError):
            list(level1.rotm_kernel(4, np.array([9.0, 0, 0, 0, 0]),
                                    None, None, None, None))


class TestReductions:
    @pytest.mark.parametrize("n,w", [(64, 1), (64, 8), (100, 16), (5, 4)])
    def test_dot(self, n, w):
        x, y = vec(n), vec(n)
        out, _ = run_reduction_kernel(
            lambda cx, cy, cr: level1.dot_kernel(n, cx, cy, cr, w),
            {"x": (list(x), w), "y": (list(y), w)})
        assert out[0] == pytest.approx(float(reference.dot(x, y)), rel=1e-4)

    def test_dot_cycles_match_model(self):
        n, w = 8192, 16
        x, y = vec(n), vec(n)
        _, rep = run_reduction_kernel(
            lambda cx, cy, cr: level1.dot_kernel(n, cx, cy, cr, w),
            {"x": (list(x), w), "y": (list(y), w)}, latency=93)
        model = level1_cycles("dot", n, w)
        assert abs(rep.cycles - model) / model < 0.25

    def test_sdsdot_accumulates_in_double(self):
        x = (RNG.normal(size=512) * 1e4).astype(np.float32)
        y = RNG.normal(size=512).astype(np.float32)
        out, _ = run_reduction_kernel(
            lambda cx, cy, cr: level1.sdsdot_kernel(512, 1.0, cx, cy, cr, 8),
            {"x": (list(x), 8), "y": (list(y), 8)})
        assert out[0] == pytest.approx(float(reference.sdsdot(1.0, x, y)),
                                       rel=1e-6)

    def test_nrm2(self):
        x = vec(128)
        out, _ = run_reduction_kernel(
            lambda cx, cr: level1.nrm2_kernel(128, cx, cr, 8),
            {"x": (list(x), 8)})
        assert out[0] == pytest.approx(float(reference.nrm2(x)), rel=1e-5)

    def test_asum(self):
        x = vec(128)
        out, _ = run_reduction_kernel(
            lambda cx, cr: level1.asum_kernel(128, cx, cr, 8),
            {"x": (list(x), 8)})
        assert out[0] == pytest.approx(float(reference.asum(x)), rel=1e-5)

    def test_iamax(self):
        x = vec(100)
        out, _ = run_reduction_kernel(
            lambda cx, cr: level1.iamax_kernel(100, cx, cr, 8),
            {"x": (list(x), 8)})
        assert out[0] == reference.iamax(x)

    def test_iamax_tie_takes_first(self):
        x = [1.0, -5.0, 5.0, 2.0]
        out, _ = run_reduction_kernel(
            lambda cx, cr: level1.iamax_kernel(4, cx, cr, 2),
            {"x": (x, 2)})
        assert out[0] == 1


class TestScalarRoutines:
    def test_rotg(self):
        out, _ = run_reduction_kernel(
            lambda ci, co: level1.rotg_kernel(ci, co, dtype=np.float64),
            {"ab": ([3.0, 4.0], 2)}, result_count=4)
        r, z, c, s = out
        assert c * 3.0 + s * 4.0 == pytest.approx(r, rel=1e-9)
        assert -s * 3.0 + c * 4.0 == pytest.approx(0.0, abs=1e-9)

    def test_rotmg(self):
        out, _ = run_reduction_kernel(
            lambda ci, co: level1.rotmg_kernel(ci, co, dtype=np.float64),
            {"in": ([1.5, 0.7, 2.0, 3.0], 4)}, result_count=8)
        d1, d2, x1, param = out[0], out[1], out[2], np.array(out[3:])
        rd1, rd2, rx1, rparam = reference.rotmg(1.5, 0.7, 2.0, 3.0)
        assert d1 == pytest.approx(rd1)
        np.testing.assert_allclose(param, rparam, atol=1e-9)


class TestTreeReduce:
    @settings(max_examples=50)
    @given(st.lists(st.floats(-1e3, 1e3), max_size=65))
    def test_matches_sum_in_double(self, values):
        got = level1._tree_reduce([np.float64(v) for v in values], np.float64)
        assert float(got) == pytest.approx(sum(values, 0.0), abs=1e-6)

    def test_empty(self):
        assert level1._tree_reduce([], np.float32) == 0


def _every_kernel(width, n=8, ii=1):
    """One builder per Level-1 loop kernel at ``width`` (and ``n``)."""
    c = [Channel(f"c{i}", 16) for i in range(4)]
    return {
        "scal": lambda: level1.scal_kernel(n, 2.0, c[0], c[1], width),
        "copy": lambda: level1.copy_kernel(n, c[0], c[1], width),
        "axpy": lambda: level1.axpy_kernel(n, 2.0, c[0], c[1], c[2], width),
        "swap": lambda: level1.swap_kernel(n, *c, width),
        "rot": lambda: level1.rot_kernel(n, .6, .8, *c, width),
        "rotm": lambda: level1.rotm_kernel(n, [-1.0, 1, 2, 3, 4], *c,
                                           width),
        "dot": lambda: level1.dot_kernel(n, c[0], c[1], c[2], width, ii=ii),
        "sdsdot": lambda: level1.sdsdot_kernel(n, 0.5, c[0], c[1], c[2],
                                               width),
        "nrm2": lambda: level1.nrm2_kernel(n, c[0], c[1], width),
        "asum": lambda: level1.asum_kernel(n, c[0], c[1], width),
        "iamax": lambda: level1.iamax_kernel(n, c[0], c[1], width),
        "batched_dot": lambda: level1.batched_dot_kernel(
            2, 4, c[0], c[1], c[2], width),
        "batched_axpy": lambda: level1.batched_axpy_kernel(
            2, 4, [1.0, 2.0], c[0], c[1], c[2], width),
    }


class TestGeometryIsCheckedWhenBuilt:
    """A width below 1 used to spin until the livelock watchdog tripped
    (``width=0``) or fail inside ``islice`` mid-run (``width=-2``), and
    ``ii=0`` failed at the first step; every loop kernel now refuses its
    geometry with a typed error when it is built."""

    @pytest.mark.parametrize("name", sorted(_every_kernel(1)))
    @pytest.mark.parametrize("width", (0, -2, 2.5))
    def test_width(self, name, width):
        with pytest.raises(StreamOrderError, match="width"):
            _every_kernel(width)[name]()

    @pytest.mark.parametrize("name", ("scal", "dot", "iamax"))
    def test_negative_length(self, name):
        with pytest.raises(StreamOrderError, match="count"):
            _every_kernel(4, n=-1)[name]()

    def test_initiation_interval(self):
        with pytest.raises(StreamOrderError, match="ii"):
            _every_kernel(4, ii=0)["dot"]()

    def test_dot_width_zero_does_not_spin(self):
        """The original report: a DOT at width 0 ran into the watchdog."""
        eng = Engine()
        cx, cy, cr = (eng.channel(name, 8) for name in "xyr")
        with pytest.raises(StreamOrderError):
            eng.add_kernel("dot", level1.dot_kernel(8, cx, cy, cr, width=0))


def test_iamax_skips_nan_on_every_tier():
    """The listing keeps the first strictly greater magnitude, so a NaN
    never wins.  The replayed window used to skip a whole window that
    held a NaN (index 0 here, where the event core said 300); stepped
    and replayed runs now share one body."""
    from repro.host import Fblas
    x = np.ones(512, np.float32)
    x[100] = np.nan
    x[300] = 9.0
    got = set()
    for mode in ("event", "certified"):
        fb = Fblas(width=4, engine_mode=mode)
        got.add(fb.iamax(fb.copy_to_device(x)))
    assert got == {300}
