"""Reference BLAS implementations validated against scipy's BLAS bindings."""

import numpy as np
import pytest
from scipy.linalg import blas as sblas

from repro.blas import reference as ref

RNG = np.random.default_rng(42)


def vec(n, dtype=np.float64):
    return RNG.normal(size=n).astype(dtype)


def mat(n, m, dtype=np.float64):
    return RNG.normal(size=(n, m)).astype(dtype)


class TestLevel1:
    def test_scal(self):
        x = vec(100)
        np.testing.assert_allclose(ref.scal(2.5, x), sblas.dscal(2.5, x.copy()))

    def test_axpy(self):
        x, y = vec(100), vec(100)
        np.testing.assert_allclose(ref.axpy(1.7, x, y),
                                   sblas.daxpy(x, y.copy(), a=1.7))

    def test_dot(self):
        x, y = vec(257), vec(257)
        assert ref.dot(x, y) == pytest.approx(sblas.ddot(x, y))

    def test_sdsdot_double_accumulation(self):
        x = (RNG.normal(size=1000) * 1e4).astype(np.float32)
        y = RNG.normal(size=1000).astype(np.float32)
        expected = np.float32(0.5 + np.dot(x.astype(np.float64),
                                           y.astype(np.float64)))
        assert ref.sdsdot(0.5, x, y) == pytest.approx(expected, rel=1e-6)

    def test_nrm2(self):
        x = vec(100)
        assert ref.nrm2(x) == pytest.approx(sblas.dnrm2(x))

    def test_asum(self):
        x = vec(100)
        assert ref.asum(x) == pytest.approx(sblas.dasum(x))

    def test_iamax(self):
        x = vec(100)
        assert ref.iamax(x) == sblas.idamax(x)

    def test_iamax_ties_take_first(self):
        assert ref.iamax(np.array([1.0, -3.0, 3.0])) == 1

    @pytest.mark.parametrize("nans,nine,want", [
        ((100,), 300, 300), ((0,), None, 1), ((0,), 300, 300),
        (range(512), None, 0)])
    def test_iamax_on_nan_agrees_with_every_tier(self, nans, nine, want):
        """A NaN never wins the listing's strictly-greater scan: the
        first index of the largest non-NaN magnitude, 0 when all are
        NaN — what the event and the certified tier return."""
        from repro.host import Fblas
        x = np.ones(512, np.float32)
        x[list(nans)] = np.nan
        if nine is not None:
            x[nine] = 9.0
        got = {ref.iamax(x)}
        for mode in ("event", "certified"):
            fb = Fblas(width=4, engine_mode=mode)
            got.add(fb.iamax(fb.copy_to_device(x.copy())))
        assert got == {want}

    def test_iamax_empty(self):
        with pytest.raises(ValueError):
            ref.iamax(np.array([]))

    def test_copy_and_swap(self):
        x, y = vec(10), vec(10)
        np.testing.assert_array_equal(ref.copy(x), x)
        sx, sy = ref.swap(x, y)
        np.testing.assert_array_equal(sx, y)
        np.testing.assert_array_equal(sy, x)

    def test_rot_matches_scipy(self):
        x, y = vec(50), vec(50)
        c, s = np.cos(0.3), np.sin(0.3)
        rx, ry = ref.rot(x, y, c, s)
        ex, ey = sblas.drot(x, y, c, s)
        np.testing.assert_allclose(rx, ex)
        np.testing.assert_allclose(ry, ey)

    def test_rotg_matches_scipy(self):
        for a, b in [(3.0, 4.0), (-2.0, 1.0), (0.0, 5.0), (5.0, 0.0)]:
            c_ref, s_ref = sblas.drotg(a, b)
            r, z, c, s = ref.rotg(a, b)
            assert c == pytest.approx(c_ref, abs=1e-12)
            assert s == pytest.approx(s_ref, abs=1e-12)
            # the rotation maps (a, b) onto (r, 0)
            assert c * a + s * b == pytest.approx(r, abs=1e-12)
            assert -s * a + c * b == pytest.approx(0, abs=1e-12)

    def test_rotmg_rotm_consistency(self):
        """rotm with rotmg's param annihilates the second component."""
        d1, d2, x1, y1 = 1.5, 0.7, 2.0, 3.0
        d1o, d2o, x1o, param = ref.rotmg(d1, d2, x1, y1)
        xs = np.array([x1 * np.sqrt(d1)])
        ys = np.array([y1 * np.sqrt(d2)])
        # apply in the scaled space used by the modified rotation
        hx, hy = ref.rotm(np.array([x1]), np.array([y1]), param)
        assert np.sqrt(max(d2o, 0.0)) * hy[0] == pytest.approx(0.0, abs=1e-9)

    def test_rotm_flags(self):
        x, y = vec(8), vec(8)
        ident = np.array([-2.0, 0, 0, 0, 0])
        rx, ry = ref.rotm(x, y, ident)
        np.testing.assert_array_equal(rx, x)
        np.testing.assert_array_equal(ry, y)
        with pytest.raises(ValueError):
            ref.rotm(x, y, np.array([7.0, 0, 0, 0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ref.dot(vec(3), vec(4))


class TestLevel2:
    def test_gemv(self):
        a, x, y = mat(7, 5), vec(5), vec(7)
        np.testing.assert_allclose(
            ref.gemv(1.3, a, x, 0.7, y),
            sblas.dgemv(1.3, a, x, beta=0.7, y=y.copy()), rtol=1e-12)

    def test_gemv_transposed(self):
        a, x, y = mat(7, 5), vec(7), vec(5)
        np.testing.assert_allclose(
            ref.gemv(1.0, a, x, 1.0, y, trans=True),
            sblas.dgemv(1.0, a, x, beta=1.0, y=y.copy(), trans=1), rtol=1e-12)

    def test_gemv_shape_check(self):
        with pytest.raises(ValueError):
            ref.gemv(1.0, mat(3, 4), vec(5), 0.0, vec(3))

    def test_ger(self):
        a, x, y = mat(6, 4), vec(6), vec(4)
        np.testing.assert_allclose(ref.ger(2.0, x, y, a),
                                   a + 2.0 * np.outer(x, y))

    def test_syr_symmetry(self):
        a = mat(5, 5)
        a = a + a.T
        out = ref.syr(1.5, vec(5), a)
        np.testing.assert_allclose(out, out.T)

    def test_syr2(self):
        a, x, y = mat(5, 5), vec(5), vec(5)
        np.testing.assert_allclose(
            ref.syr2(0.5, x, y, a),
            a + 0.5 * (np.outer(x, y) + np.outer(y, x)))

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("trans", [False, True])
    def test_trsv_solves(self, lower, trans):
        a = mat(6, 6) + 6 * np.eye(6)
        t = np.tril(a) if lower else np.triu(a)
        b = vec(6)
        x = ref.trsv(t, b, lower=lower, trans=trans)
        op = t.T if trans else t
        np.testing.assert_allclose(op @ x, b, rtol=1e-9)

    def test_trsv_unit_diag(self):
        a = np.tril(mat(5, 5), -1) + np.eye(5) * 99  # diag ignored
        b = vec(5)
        x = ref.trsv(a, b, lower=True, unit_diag=True)
        unit = np.tril(a, -1) + np.eye(5)
        np.testing.assert_allclose(unit @ x, b, rtol=1e-9)


class TestLevel3:
    def test_gemm(self):
        a, b, c = mat(4, 6), mat(6, 5), mat(4, 5)
        np.testing.assert_allclose(
            ref.gemm(1.1, a, b, 0.9, c),
            sblas.dgemm(1.1, a, b, beta=0.9, c=c.copy()), rtol=1e-12)

    @pytest.mark.parametrize("ta,tb", [(True, False), (False, True),
                                       (True, True)])
    def test_gemm_transposes(self, ta, tb):
        a = mat(6, 4) if ta else mat(4, 6)
        b = mat(5, 6) if tb else mat(6, 5)
        c = mat(4, 5)
        opa = a.T if ta else a
        opb = b.T if tb else b
        np.testing.assert_allclose(
            ref.gemm(1.0, a, b, 0.0, c, trans_a=ta, trans_b=tb),
            opa @ opb, rtol=1e-12)

    def test_syrk(self):
        a, c = mat(4, 7), mat(4, 4)
        np.testing.assert_allclose(ref.syrk(1.0, a, 0.5, c),
                                   a @ a.T + 0.5 * c, rtol=1e-12)

    def test_syr2k(self):
        a, b, c = mat(4, 7), mat(4, 7), mat(4, 4)
        np.testing.assert_allclose(
            ref.syr2k(2.0, a, b, 1.0, c),
            2.0 * (a @ b.T + b @ a.T) + c, rtol=1e-12)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_trsm(self, side, lower):
        n, m = 5, 3
        dim = n if side == "left" else m
        a = mat(dim, dim) + dim * np.eye(dim)
        t = np.tril(a) if lower else np.triu(a)
        b = mat(n, m)
        x = ref.trsm(2.0, t, b, side=side, lower=lower)
        if side == "left":
            np.testing.assert_allclose(t @ x, 2.0 * b, rtol=1e-9)
        else:
            np.testing.assert_allclose(x @ t, 2.0 * b, rtol=1e-9)

    def test_trsm_bad_side(self):
        with pytest.raises(ValueError):
            ref.trsm(1.0, mat(3, 3), mat(3, 3), side="middle")

    def test_gemm_shape_check(self):
        with pytest.raises(ValueError):
            ref.gemm(1.0, mat(3, 4), mat(5, 6), 0.0, mat(3, 6))


class TestPrecision:
    def test_single_precision_stays_single(self):
        x = vec(64, np.float32)
        y = vec(64, np.float32)
        assert ref.dot(x, y).dtype == np.float32
        assert ref.scal(2.0, x).dtype == np.float32

    def test_double_precision_stays_double(self):
        assert ref.nrm2(vec(64)).dtype == np.float64
