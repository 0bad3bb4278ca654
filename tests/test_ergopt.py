"""Critical values, Lax-Oleinik subactions, and the deviation function."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import ergopt
from ergotrans.dynamics import DOUBLING, MINUS_DOUBLING, apply_map, as_real, gauss_system
from ergotrans.ergopt import (
    ErgOptError,
    calibrated_subaction,
    critical_value,
    deviation_I,
    lax_oleinik_step,
)
from ergotrans.potentials import (
    GAUSS_LOG,
    QUAD_DIRAC,
    QUAD_PERIOD2,
    custom_potential,
    polynomial_potential,
)
from ergotrans.thermo import GridFunction, _Operator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A_ZERO = polynomial_potential(0, 0, 0, name="0")


class TestCriticalValue:
    def test_quad_dirac(self):
        cv = critical_value(MINUS_DOUBLING, QUAD_DIRAC, 4)
        assert cv.m == pytest.approx(-1.0 / 9.0, abs=1e-15)
        assert float(cv.orbit.points[0]) == pytest.approx(2 / 3)
        assert len(cv.tied) == 1

    def test_quad_period2_tie(self):
        cv = critical_value(MINUS_DOUBLING, QUAD_PERIOD2, 4)
        assert cv.m == pytest.approx(-1.0 / 36.0, abs=1e-15)
        tied_pts = sorted(float(o.points[0]) for o in cv.tied)
        assert tied_pts == [pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_gauss_golden(self):
        cv = critical_value(gauss_system(8), GAUSS_LOG, 4)
        assert cv.m == pytest.approx(2.0 * math.log(GOLDEN), abs=1e-12)

    def test_constant_shift_invariance(self):
        cv0 = critical_value(MINUS_DOUBLING, QUAD_DIRAC, 4)
        shifted = polynomial_potential(-1 + Fraction(1, 4), 2, -1)
        cv1 = critical_value(MINUS_DOUBLING, shifted, 4)
        assert cv1.m == pytest.approx(cv0.m + 0.25, abs=1e-13)
        assert [float(p) for p in cv1.orbit.points] == [float(p) for p in cv0.orbit.points]


class TestLaxOleinikStep:
    def test_zero_everything_is_fixed(self):
        V = GridFunction.constant(0.0, 128)
        out = lax_oleinik_step(MINUS_DOUBLING, A_ZERO, 0.0, V)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_additive_equivariance(self):
        k = 1.7
        V0 = GridFunction.constant(0.0, 256)
        Vk = GridFunction.constant(k, 256)
        m = -1.0 / 9.0
        out0 = lax_oleinik_step(MINUS_DOUBLING, QUAD_DIRAC, m, V0)
        outk = lax_oleinik_step(MINUS_DOUBLING, QUAD_DIRAC, m, Vk)
        np.testing.assert_allclose(outk.values, out0.values + k, atol=1e-12)

    def test_closed_form_is_fixed_point_analytically(self):
        V = lambda x: -x * x / 3 + 2 * x / 9
        A = QUAD_DIRAC
        m = -1.0 / 9.0
        for x in np.linspace(0.0, 1.0, 1001):
            z0, z1 = (1 - x) / 2, (2 - x) / 2
            step = max(V(z0) + float(A(z0)), V(z1) + float(A(z1))) - m
            assert abs(step - V(x)) < 1e-12

    def test_closed_form_is_fixed_point_on_grid(self):
        # grid version carries the O(h) clamped-edge read at cells whose
        # winning branch lands beyond the outermost center
        n = 1 << 16
        c = (np.arange(n) + 0.5) / n
        V = GridFunction(-c * c / 3 + 2 * c / 9)
        out = lax_oleinik_step(MINUS_DOUBLING, QUAD_DIRAC, -1.0 / 9.0, V)
        assert out.sup_diff(V) < 1e-5

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            V1 = GridFunction(rng.uniform(-1, 1, size=128))
            V2 = GridFunction(rng.uniform(-1, 1, size=128))
            T1 = lax_oleinik_step(MINUS_DOUBLING, QUAD_PERIOD2, -1 / 36, V1)
            T2 = lax_oleinik_step(MINUS_DOUBLING, QUAD_PERIOD2, -1 / 36, V2)
            assert T1.sup_diff(T2) <= V1.sup_diff(V2) + 1e-12

    @pytest.mark.parametrize("sys, A", [(MINUS_DOUBLING, QUAD_DIRAC),
                                        (gauss_system(30), GAUSS_LOG)])
    def test_prebuilt_operator_gives_same_values(self, sys, A):
        V = GridFunction(np.random.default_rng(5).uniform(-1, 0, size=1024))
        op = _Operator(sys, A, 1.0, 1024)
        fresh = lax_oleinik_step(sys, A, -0.3, V)
        reused = lax_oleinik_step(sys, A, -0.3, V, op=op)
        assert np.array_equal(fresh.values, reused.values)

    def test_operator_of_other_grid_rejected(self):
        V = GridFunction.constant(0.0, 1024)
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 1.0, 512)
        with pytest.raises(ErgOptError, match="grid"):
            lax_oleinik_step(MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, V, op=op)


class TestCalibratedSubaction:
    def test_quad_dirac_matches_closed_form(self):
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=1 << 18, max_period=4)
        c = res.V.centers
        t = -c * c / 3 + 2 * c / 9
        t -= t.max()
        assert float(np.max(np.abs(res.V.values - t))) < 1e-6
        assert res.calibrated

    def test_quad_period2_matches_max_of_two(self):
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_PERIOD2, n_grid=1 << 18, max_period=4)
        c = res.V.centers
        t = np.maximum(-c * c / 3 + c / 9, -c * c / 3 + 5 * c / 9 - 2 / 9)
        t -= t.max()
        assert float(np.max(np.abs(res.V.values - t))) < 1e-6

    def test_gauss_matches_kernel_section(self):
        res = calibrated_subaction(gauss_system(30), GAUSS_LOG, n_grid=4096,
                                   m=2.0 * math.log(GOLDEN))
        c = res.V.centers
        t = -2.0 * np.log(1.0 + c * GOLDEN)
        t -= t.max()
        sel = c >= 0.05
        assert float(np.max(np.abs(res.V.values[sel] - t[sel]))) < 1e-5

    def test_subaction_inequality_on_grid(self):
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=1 << 16, max_period=4)
        z = res.V.centers
        r = res.V(np.mod(-2 * z, 1.0)) - res.V.values - np.asarray(QUAD_DIRAC(z)) + res.m
        assert float(r.min()) >= -1e-8

    def test_nonconvergence_raises_with_change(self):
        # the boundary two-cycle of A = x^2 has cyclicity 2: the max-plus
        # iteration oscillates and must report non-convergence
        from ergotrans.ergopt import ErgOptError

        with pytest.raises(ErgOptError, match="change"):
            calibrated_subaction(MINUS_DOUBLING, polynomial_potential(0, 0, 1),
                                 n_grid=512, max_period=12, max_iter=500)

    def test_calibration_equality_per_cell(self):
        # with the exact m, one more max-plus step moves nothing: every cell
        # value is attained by some preimage
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_PERIOD2, n_grid=8192, max_period=4)
        after = lax_oleinik_step(MINUS_DOUBLING, QUAD_PERIOD2, res.m, res.V)
        assert after.sup_diff(res.V) < 1e-8

    def test_operator_built_once_per_solve(self, monkeypatch):
        built = []

        class CountingOperator(_Operator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(ergopt, "_Operator", CountingOperator)
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=512, max_period=4)
        assert res.calibrated
        assert len(built) == 1


def _plain_deviation(sys, A, V, m, x, n_terms, tol=ergopt.TOL_I, cap=ergopt.CAP_I,
                     early_exit=True):
    """Reference: every term evaluated afresh, no reuse."""
    z, total = x, 0.0
    for n in range(n_terms):
        zn = apply_map(sys, z)
        r = float(V(as_real(zn))) - float(V(as_real(z))) - float(A(z)) + m
        total += r
        if total > cap:
            return math.inf, True, n + 1
        if early_exit and abs(r) < tol:
            return total, True, n + 1
        z = zn
    return total, False, n_terms


def _closed_V_dirac(x):
    return -x * x / 3 + 2 * x / 9


A_GAUSS_SMOOTH = custom_potential(lambda x: -float(x) ** 2, "-x^2", holder_constant=2.0)


class TestDeviationReuse:
    @pytest.mark.parametrize("sys, A, V, m, x, kw", [
        # dyadic: ends on the fixed point 0, which is not maximizing
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(5, 128),
         dict(n_terms=3000, early_exit=False)),
        # 3 * 2^k: ends on a fixed point or the 2-cycle {1/3, 2/3}
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(1, 3 * 2 ** 5),
         dict(n_terms=3000, early_exit=False)),
        (MINUS_DOUBLING, QUAD_PERIOD2, lambda x: -x * x / 4, -1 / 36, Fraction(7, 3 * 2 ** 4),
         dict(n_terms=2000, early_exit=False)),
        (DOUBLING, QUAD_PERIOD2, lambda x: 0.1 * x, -1 / 36, Fraction(5, 3 * 2 ** 6),
         dict(n_terms=1500, early_exit=False)),
        # float start: a dyadic float, whose orbit reaches 0 after ~50 steps
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, 0.3,
         dict(n_terms=500, early_exit=False)),
        # cap hit: R(0) = 8/9 on the non-maximizing fixed point 0
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(0),
         dict(n_terms=500, cap=100.0)),
        # early exit: R(5/6) = 0 stops the sum at the third term
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(11, 3 * 2 ** 3),
         dict(n_terms=500)),
        # Gauss orbit of a rational ends on the fixed point 0
        (gauss_system(30), A_GAUSS_SMOOTH, lambda x: 0.5 * x, -0.2, Fraction(5, 13),
         dict(n_terms=300, early_exit=False)),
    ])
    def test_matches_plain_loop(self, sys, A, V, m, x, kw):
        d = deviation_I(sys, A, V, m, x, **kw)
        assert (d.value, d.converged, d.n_used) == _plain_deviation(sys, A, V, m, x, **kw)

    def test_potential_evaluated_once_per_distinct_point(self):
        seen = []

        def fn(x):
            seen.append(x)
            return QUAD_DIRAC(x)

        A = custom_potential(fn, "counting", holder_constant=2.0)
        d = deviation_I(MINUS_DOUBLING, A, _closed_V_dirac, -1 / 9, Fraction(5, 3 * 2 ** 6),
                        n_terms=3000, early_exit=False)
        assert d.n_used == 3000
        assert len(seen) == len(set(seen)) <= 10


class TestDeviation:
    def test_zero_on_maximizing_orbit(self):
        V = lambda x: -x * x / 3 + 2 * x / 9
        d = deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, Fraction(2, 3),
                        n_terms=500, early_exit=False)
        assert abs(d.value) < 1e-12

    def test_zero_potential_zero_everywhere(self):
        d = deviation_I(MINUS_DOUBLING, A_ZERO, lambda x: 0.0, 0.0, Fraction(3, 7),
                        n_terms=200, early_exit=False)
        assert d.value == 0.0

    def test_infinite_at_origin_for_quad_dirac(self):
        # R(0) = A(2/3) - A(0) = 8/9 summed forever; small cap makes it explicit
        V = lambda x: -x * x / 3 + 2 * x / 9
        d = deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, Fraction(0), n_terms=500,
                        cap=100.0)
        assert math.isinf(d.value)
        assert d.n_used <= 150

    def test_partial_sums_nondecreasing(self):
        V = lambda x: -x * x / 3 + 2 * x / 9
        x = Fraction(5, 128)
        vals = [deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, x, n_terms=n,
                            early_exit=False).value for n in (10, 50, 200)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_terms_nonnegative_along_orbit(self):
        V = lambda x: -x * x / 3 + 2 * x / 9
        z = Fraction(11, 64)
        for _ in range(100):
            zn = apply_map(MINUS_DOUBLING, z)
            r = V(float(zn)) - V(float(z)) - float(QUAD_DIRAC(z)) + (-1 / 9)
            assert r >= -1e-8
            z = zn
