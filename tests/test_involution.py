"""Cocycles, kernels, dual potentials, twist checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import involution
from ergotrans.dynamics import (
    DOUBLING,
    FULL_SHIFT2,
    MINUS_DOUBLING,
    DynamicsError,
    SymbolWord,
    backward_step,
    branch_point,
    gauss_system,
)
from ergotrans.involution import (
    InvolutionError,
    TwistMethod,
    cocycle_delta,
    cohomology_residual,
    dual_potential,
    example5_kernel,
    example6_kernel,
    fundamental_kernel,
    gauss_log_kernel,
    quadratic_kernel,
    twist_check,
    twist_stability_probe,
    w1,
    w2,
)
from ergotrans.potentials import (
    GAUSS_LOG,
    LINEAR,
    QUAD_DIRAC,
    QUAD_PERIOD2,
    custom_potential,
    polynomial_potential,
)

A_SQUARE = polynomial_potential(0, 0, 1)
A_ZERO = polynomial_potential(0, 0, 0, name="0")
W2K = quadratic_kernel(0, 0, 1)


def rand_fracs(rng, n, den=2048):
    return [Fraction(int(rng.integers(0, den)), den) for _ in range(n)]


class TestCocycle:
    def test_equal_points_vanish(self):
        rng = np.random.default_rng(1)
        for y in rand_fracs(rng, 10):
            x = Fraction(int(rng.integers(0, 64)), 64)
            d = cocycle_delta(MINUS_DOUBLING, A_SQUARE, x, x, y, 20)
            assert d.value == 0

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x, xp, y = rand_fracs(rng, 3)
            d1 = cocycle_delta(MINUS_DOUBLING, A_SQUARE, x, xp, y, 30)
            d2 = cocycle_delta(MINUS_DOUBLING, A_SQUARE, xp, x, y, 30)
            assert d1.value == -d2.value

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, xp, xpp, y = rand_fracs(rng, 4)
            d_ab = cocycle_delta(MINUS_DOUBLING, QUAD_DIRAC, x, xp, y, 30).value
            d_bc = cocycle_delta(MINUS_DOUBLING, QUAD_DIRAC, xp, xpp, y, 30).value
            d_ac = cocycle_delta(MINUS_DOUBLING, QUAD_DIRAC, x, xpp, y, 30).value
            assert abs(float(d_ab + d_bc - d_ac)) < 1e-9

    def test_matches_closed_kernel_difference(self):
        rng = np.random.default_rng(4)
        for depth in (40, 48):
            bound = 2.0 * 0.5 ** depth / 0.5
            for _ in range(50):
                x, xp, y = rand_fracs(rng, 3)
                d = cocycle_delta(MINUS_DOUBLING, A_SQUARE, x, xp, y, depth)
                closed = W2K(x, y) - W2K(xp, y)
                assert abs(float(d.value - closed)) < bound
                assert d.tail_bound == pytest.approx(bound)

    def test_converges_geometrically_on_the_shift(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = SymbolWord.from_symbols(rng.integers(0, 2, size=30))
            xp = SymbolWord.from_symbols(rng.integers(0, 2, size=30))
            y = SymbolWord.from_symbols(rng.integers(0, 2, size=30))
            d15 = cocycle_delta(FULL_SHIFT2, A_SQUARE, x, xp, y, 15).value
            d25 = cocycle_delta(FULL_SHIFT2, A_SQUARE, x, xp, y, 25).value
            assert abs(float(d25 - d15)) < 2.0 * 0.5 ** 15 / 0.5
            danti = cocycle_delta(FULL_SHIFT2, A_SQUARE, xp, x, y, 25).value
            assert abs(float(d25 + danti)) < 1e-12


def reference_cocycle(sysm, A, x, xp, y, depth):
    """The backward-orbit sum written out step by step in Fraction arithmetic."""
    a, b, c = A.coeffs
    total = 0
    for _ in range(depth):
        s = 0 if 2 * y < 1 else 1
        if sysm is MINUS_DOUBLING:
            y = (1 + s) - 2 * y
            x, xp = (1 + s - x) / 2, (1 + s - xp) / 2
        else:
            y = 2 * y - s
            x, xp = (x + s) / 2, (xp + s) / 2
        total = total + ((a + b * x + c * x * x) - (a + b * xp + c * xp * xp))
    return total


class TestExactAffineCocycle:
    POTENTIALS = [A_SQUARE, QUAD_DIRAC, QUAD_PERIOD2, LINEAR,
                  polynomial_potential(Fraction(2, 7), Fraction(-3, 5), Fraction(11, 13))]
    POINTS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 7),
              Fraction(1365, 4096), Fraction(123457, 1000003)]

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING], ids=["doubling", "minus"])
    @pytest.mark.parametrize("depth", [1, 2, 48])
    def test_equals_fraction_loop(self, sysm, depth):
        rng = np.random.default_rng(depth)
        for A in self.POTENTIALS:
            for _ in range(20):
                x, xp, y = (self.POINTS[int(i)] for i in rng.integers(0, len(self.POINTS), 3))
                got = cocycle_delta(sysm, A, x, xp, y, depth)
                want = reference_cocycle(sysm, A, x, xp, y, depth)
                assert type(got.value) is Fraction
                assert got.value == want
                assert got.tail_bound == A.holder_constant * 0.5 ** depth / 0.5

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING], ids=["doubling", "minus"])
    def test_points_outside_unit_interval_raise(self, sysm):
        inside, outside = Fraction(1, 3), Fraction(5, 4)
        for args in [(outside, inside, inside), (inside, outside, inside),
                     (inside, inside, outside), (inside, inside, Fraction(-1, 8))]:
            with pytest.raises(DynamicsError):
                cocycle_delta(sysm, QUAD_DIRAC, *args, 10)
        with pytest.raises(InvolutionError):
            cocycle_delta(sysm, QUAD_DIRAC, inside, inside, inside, 0)

    def test_exact_call_takes_no_branch_steps(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(involution, "branch_point", counted(involution.branch_point))
        monkeypatch.setattr(involution, "backward_step", counted(involution.backward_step))
        cocycle_delta(MINUS_DOUBLING, QUAD_PERIOD2, Fraction(1, 3), Fraction(2, 5),
                      Fraction(3, 7), 48)
        assert calls == []
        cocycle_delta(MINUS_DOUBLING, QUAD_PERIOD2, Fraction(1, 3), 0.4, Fraction(3, 7), 2)
        assert calls == ["backward_step", "branch_point", "branch_point"] * 2

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING], ids=["doubling", "minus"])
    def test_mixed_inputs_keep_the_float_loop(self, sysm):
        x, xp, y = Fraction(1, 3), 0.4, Fraction(3, 7)
        got = cocycle_delta(sysm, QUAD_DIRAC, x, xp, y, 48).value
        cur_x, cur_xp, cur_y, want = x, xp, y, 0
        for _ in range(48):
            s, cur_y = backward_step(sysm, cur_y)
            cur_x, cur_xp = branch_point(sysm, s, cur_x), branch_point(sysm, s, cur_xp)
            want = want + (QUAD_DIRAC(cur_x) - QUAD_DIRAC(cur_xp))
        assert type(got) is float
        assert got == want


class TestFundamentalKernel:
    def test_vanishes_at_base(self):
        W0 = fundamental_kernel(MINUS_DOUBLING, A_SQUARE, Fraction(1, 2), depth=30)
        for y in (0.1, 0.5, 0.9):
            assert W0(Fraction(1, 2), Fraction(y).limit_denominator(64)) == 0

    def test_zero_potential_gives_zero(self):
        W0 = fundamental_kernel(MINUS_DOUBLING, A_ZERO, 0.3, depth=20)
        assert W0(0.7, 0.2) == 0.0

    def test_difference_from_closed_kernel_depends_on_y_only(self):
        W0 = fundamental_kernel(MINUS_DOUBLING, A_SQUARE, Fraction(1, 2), depth=48)
        ys = [Fraction(k, 16) for k in range(1, 16)]
        xs = [Fraction(k, 8) for k in range(1, 8)]
        for y in ys:
            diffs = [float(W0(x, y)) - float(W2K(x, y)) for x in xs]
            assert max(diffs) - min(diffs) < 1e-8

    def test_two_fundamental_kernels_differ_by_y_function(self):
        Wa = fundamental_kernel(MINUS_DOUBLING, QUAD_PERIOD2, Fraction(1, 4), depth=48)
        Wb = fundamental_kernel(MINUS_DOUBLING, QUAD_PERIOD2, Fraction(3, 4), depth=48)
        xs = [Fraction(k, 8) for k in range(1, 8)]
        for y in (Fraction(1, 8), Fraction(5, 8)):
            diffs = [float(Wa(x, y)) - float(Wb(x, y)) for x in xs]
            assert max(diffs) - min(diffs) < 1e-8


class TestDualPotential:
    def test_square_dual_is_square(self):
        A_star = dual_potential(MINUS_DOUBLING, A_SQUARE, W2K)
        for y in (0.12, 0.48, 0.77):
            assert float(A_star(y)) == pytest.approx(y * y, abs=1e-12)

    def test_gauss_dual_is_self(self):
        A_star = dual_potential(gauss_system(30), GAUSS_LOG, gauss_log_kernel())
        for y in (0.2, 0.5, 0.9):
            assert float(A_star(y)) == pytest.approx(2.0 * math.log(y), abs=1e-12)

    def test_constants(self):
        c = -0.4
        A_c = polynomial_potential(c, 0, 0)
        Wc = quadratic_kernel(0, 0, 0, name="0")
        A_star = dual_potential(MINUS_DOUBLING, A_c, Wc)
        assert float(A_star(0.3)) == pytest.approx(c, abs=1e-14)

    def test_rejects_non_kernel(self):
        with pytest.raises(InvolutionError):
            dual_potential(MINUS_DOUBLING, QUAD_PERIOD2, example5_kernel())


class TestCohomologyResidual:
    CASES = [
        (MINUS_DOUBLING, LINEAR, quadratic_kernel(0, 1, 0)),
        (MINUS_DOUBLING, A_SQUARE, W2K),
        (MINUS_DOUBLING, QUAD_DIRAC, quadratic_kernel(0, 2, -1)),
        (MINUS_DOUBLING, QUAD_PERIOD2, quadratic_kernel(0, 1, -1)),
        (gauss_system(30), GAUSS_LOG, gauss_log_kernel()),
    ]

    @pytest.mark.parametrize("sysm,A,W", CASES)
    def test_involutive_pairs(self, sysm, A, W):
        assert cohomology_residual(sysm, A, W, A, probes=300, seed=3) < 1e-10

    def test_zero_case_exact(self):
        Wc = quadratic_kernel(0, 0, 0, name="0")
        assert cohomology_residual(MINUS_DOUBLING, A_ZERO, Wc, A_ZERO, probes=50) == 0.0

    def test_detects_broken_kernel(self):
        r = cohomology_residual(MINUS_DOUBLING, QUAD_PERIOD2, example5_kernel(),
                                QUAD_PERIOD2, probes=200, seed=0)
        assert r > 1e-2


class TestKernelLinearity:
    def test_combination_matches_pointwise(self):
        a, b, c = -0.25, 1.5, 2.0
        W = quadratic_kernel(a, b, c)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, y = rng.uniform(0, 1, size=2)
            assert float(W(x, y)) == pytest.approx(a + b * w1(x, y) + c * w2(x, y), abs=1e-14)


class TestTwist:
    def test_w2_mixed_partial(self):
        rep = twist_check(W2K, TwistMethod.MIXED_PARTIAL)
        assert rep.is_twist
        assert rep.mixed_partial_max == pytest.approx(-4.0 / 3.0, abs=1e-6)
        assert rep.mixed_partial_min == pytest.approx(-4.0 / 3.0, abs=1e-6)

    def test_w1_not_twist(self):
        rep = twist_check(quadratic_kernel(0, 1, 0), TwistMethod.MIXED_PARTIAL)
        assert not rep.is_twist
        assert rep.mixed_partial_max == pytest.approx(0.0, abs=1e-6)

    def test_example5_not_twist_positive_mixed(self):
        rep = twist_check(example5_kernel(), TwistMethod.MIXED_PARTIAL)
        assert not rep.is_twist
        assert rep.mixed_partial_max == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_example6_twist(self):
        rep = twist_check(example6_kernel(), TwistMethod.MIXED_PARTIAL)
        assert rep.is_twist

    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (0, 1, 0), (0, 1, -1), (1, -2, 3)])
    def test_methods_agree_on_quadratics(self, coeffs):
        W = quadratic_kernel(*coeffs)
        verdicts = {m: twist_check(W, m, n_grid=9).is_twist for m in TwistMethod}
        assert len(set(verdicts.values())) == 1

    def test_witness_ordering(self):
        rep = twist_check(example5_kernel(), TwistMethod.PAIRWISE_GRID, n_grid=7)
        a, b, ap, bp = rep.witness
        assert a < ap and b < bp

    @pytest.mark.parametrize("method", list(TwistMethod))
    @pytest.mark.parametrize("kernel", ["W2", "quadratic", "example5", "example6", "gauss",
                                        "series"])
    def test_report_equals_scalar_reference(self, kernel, method):
        W = {
            "W2": W2K,
            "quadratic": quadratic_kernel(1, -2, 3),
            "example5": example5_kernel(),
            "example6": example6_kernel(),
            "gauss": gauss_log_kernel(),
            "series": fundamental_kernel(MINUS_DOUBLING, A_SQUARE, Fraction(1, 2), depth=30),
        }[kernel]
        n_grid = 5 if kernel == "series" else 9
        assert twist_check(W, method, n_grid=n_grid) == scalar_twist_check(W, method, n_grid)


def scalar_twist_check(W, method, n_grid, h=1e-4, margin_tol=1e-9):
    """twist_check written with one scalar kernel call per value."""
    if method is TwistMethod.MIXED_PARTIAL:
        g = np.linspace(2 * h, 1 - 2 * h, n_grid)
        mp_max, mp_min = -math.inf, math.inf
        wx = wy = float(g[0])
        for xi in g:
            row = np.asarray([float(W(xi + h, yj + h)) - float(W(xi + h, yj - h))
                              - float(W(xi - h, yj + h)) + float(W(xi - h, yj - h))
                              for yj in g]) / (4 * h * h)
            jmax = int(np.argmax(row))
            if row[jmax] > mp_max:
                mp_max, wx, wy = float(row[jmax]), float(xi), float(g[jmax])
            mp_min = min(mp_min, float(np.min(row)))
        return involution.TwistReport(-mp_max > margin_tol, -mp_max,
                                      (wx - h, wy - h, wx + h, wy + h), method,
                                      mixed_partial_min=mp_min, mixed_partial_max=mp_max)
    g = np.linspace(0.0, 1.0, n_grid)
    best_gap, best_wit = math.inf, None
    for i in range(n_grid - 1):
        for ip in range(i + 1, n_grid):
            for j in range(n_grid - 1):
                for jp in range(j + 1, n_grid):
                    if method is TwistMethod.DELTA_MONOTONE and jp != j + 1:
                        continue
                    if method is TwistMethod.PAIRWISE_GRID:
                        gap = (float(W(g[ip], g[j])) + float(W(g[i], g[jp]))
                               - float(W(g[i], g[j])) - float(W(g[ip], g[jp])))
                    else:
                        gap = ((float(W(g[i], g[jp])) - float(W(g[ip], g[jp])))
                               - (float(W(g[i], g[j])) - float(W(g[ip], g[j]))))
                    if gap < best_gap:
                        best_gap = gap
                        best_wit = (float(g[i]), float(g[j]), float(g[ip]), float(g[jp]))
    return involution.TwistReport(best_gap > margin_tol, best_gap, best_wit, method)


class TestTwistStability:
    def test_zero_perturbation_always_twist(self):
        R0 = custom_potential(lambda x: 0.0 * x, "0", holder_constant=0.0)
        res = twist_stability_probe((0, 0, 1), R0, [0.5, 0.1, 0.01], depth=30, n_grid=5)
        assert res.largest_passing_eps == 0.5
        assert all(rep.is_twist for rep in res.reports.values())

    def test_cubic_perturbation_has_passing_eps(self):
        R = custom_potential(lambda x: x ** 3, "x^3", holder_constant=3.0)
        res = twist_stability_probe((0, 0, 1), R, [0.5, 0.1, 0.01], depth=30, n_grid=5)
        assert res.largest_passing_eps is not None

    def test_small_sine_perturbation_is_twist(self):
        R = custom_potential(lambda x: np.sin(2 * np.pi * x), "sin",
                             holder_constant=2 * math.pi)
        res = twist_stability_probe((0, 0, 1), R, [1e-3], depth=40, n_grid=5)
        rep = res.reports[1e-3]
        assert rep.is_twist and rep.margin > 0

    def test_requires_convex_quadratic(self):
        R0 = custom_potential(lambda x: 0.0 * x, "0", holder_constant=0.0)
        with pytest.raises(InvolutionError):
            twist_stability_probe((0, 0, -1), R0, [0.1])
