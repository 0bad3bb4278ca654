"""Cocycles, kernels, dual potentials, twist checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import involution
from ergotrans.dynamics import (
    DOUBLING,
    MINUS_DOUBLING,
    DynamicsError,
    SystemKind,
    backward_step,
    branch_point,
    gauss_system,
    inverse_branches,
    probe_floor,
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
    perturbed_potential,
    polynomial_potential,
)
from ergotrans.presets import GOLDEN_MEAN, PRESETS

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
        # 2x mod 1 on dyadic points is the full 2-shift on their binary words
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, xp, y = rand_fracs(rng, 3, den=2 ** 30)
            d15 = cocycle_delta(DOUBLING, A_SQUARE, x, xp, y, 15).value
            d25 = cocycle_delta(DOUBLING, A_SQUARE, x, xp, y, 25).value
            assert abs(float(d25 - d15)) < 2.0 * 0.5 ** 15 / 0.5
            danti = cocycle_delta(DOUBLING, A_SQUARE, xp, x, y, 25).value
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
        # the digit formula walks y alone: x and x' take no branch step
        calls = [(sysm, y) for sysm in (DOUBLING, MINUS_DOUBLING)
                 for y in (Fraction(3, 7), Fraction(0), Fraction(1), Fraction(5, 2**60))]
        want = [cocycle_delta(sysm, QUAD_PERIOD2, Fraction(1, 3), Fraction(2, 5), y, 48)
                for sysm, y in calls]
        for name in ("_branch", "_affine_branch", "branch_point", "backward_step"):
            monkeypatch.setattr(involution, name, lambda *a: pytest.fail("branch step"))
        for (sysm, y), w in zip(calls, want):
            got = cocycle_delta(sysm, QUAD_PERIOD2, Fraction(1, 3), Fraction(2, 5), y, 48)
            assert type(got.value) is Fraction and got == w

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING], ids=["doubling", "minus"])
    def test_mixed_inputs_match_the_float_loop(self, sysm):
        x, xp, y = Fraction(1, 3), 0.4, Fraction(3, 7)
        got = cocycle_delta(sysm, QUAD_DIRAC, x, xp, y, 48).value
        want = checked_loop(sysm, QUAD_DIRAC, x, xp, y, 48)
        assert type(got) is float and type(want) is float
        assert got == want

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING], ids=["doubling", "minus"])
    @pytest.mark.parametrize("depth", [1, 7, 48])
    def test_fraction_points_beside_a_float_y(self, sysm, depth):
        # the digits of a float y are the float walk's, and the sum is exact
        rng = np.random.default_rng(depth)
        ys = [0.0, 0.5, 1.0, 1 / 3, 0.1, 2.0 ** -60] + rng.uniform(0, 1, 10).tolist()
        for A in self.POTENTIALS:
            for y in ys:
                x, xp = (self.POINTS[int(i)] for i in rng.integers(0, len(self.POINTS), 2))
                got = cocycle_delta(sysm, A, x, xp, y, depth).value
                assert type(got) is Fraction
                assert got == reference_cocycle(sysm, A, x, xp, y, depth)


GAUSS_YS = [GOLDEN_MEAN, math.sqrt(2) - 1, (math.sqrt(13) - 3) / 2, math.sqrt(3) - 1]


class TestScalarWalk:
    """Scalar inputs off the digit formula take the walk and give what the
    checked scalar loop gives: the same value and the same type."""

    SIN = perturbed_potential(QUAD_DIRAC, custom_potential(np.sin, "sin", holder_constant=1.0), 0.3)

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        assert got == want or (got != got and want != want)

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING, gauss_system(30)],
                             ids=["doubling", "minus", "gauss"])
    @pytest.mark.parametrize("A", [QUAD_DIRAC, GAUSS_LOG, SIN], ids=lambda A: A.name)
    def test_float_inputs(self, sysm, A):
        rng = np.random.default_rng(8)
        gauss = sysm.kind is SystemKind.GAUSS
        for depth in (1, 6) if gauss else (1, 7, 48):
            for _ in range(10):
                x, xp = rng.uniform(0, 1, 2).tolist()
                # a quadratic surd's float keeps at least 6 Gauss digits within the cap
                y = float(rng.choice(GAUSS_YS)) if gauss else float(rng.uniform(0, 1))
                for args in ((x, xp, y), (x, xp, np.float64(y)), (np.float64(x), 0, y)):
                    got = cocycle_delta(sysm, A, *args, depth).value
                    self.assert_same(got, checked_loop(sysm, A, *args, depth))

    @pytest.mark.parametrize("y", [Fraction(55, 89), Fraction(70, 169), GOLDEN_MEAN,
                                   np.float64(math.sqrt(2) - 1)], ids=repr)
    def test_gauss_fraction_points_stay_exact(self, y):
        g = gauss_system(30)
        for A in (QUAD_DIRAC, QUAD_PERIOD2, A_SQUARE):
            for x, xp in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(0), Fraction(5, 7))):
                got = cocycle_delta(g, A, x, xp, y, 6).value
                assert type(got) is Fraction
                assert got == checked_loop(g, A, x, xp, y, 6)

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING, gauss_system(30)],
                             ids=["doubling", "minus", "gauss"])
    @pytest.mark.parametrize("A", [GAUSS_LOG, SIN], ids=lambda A: A.name)
    def test_fraction_points_under_an_a_without_coeffs(self, sysm, A):
        # A of the once-rounded float of each exact point, as A(Fraction) gives it
        depth = 6 if sysm.kind is SystemKind.GAUSS else 48
        for x, xp, y in ((Fraction(1, 3), Fraction(2, 5), Fraction(55, 89)),
                         (Fraction(1, 3), 0.4, GAUSS_YS[1]),
                         (Fraction(5, 9), Fraction(1, 3**30), GAUSS_YS[2])):
            got = cocycle_delta(sysm, A, x, xp, y, depth).value
            self.assert_same(got, checked_loop(sysm, A, x, xp, y, depth))
        ys = np.array(GAUSS_YS)
        got = cocycle_delta(sysm, A, Fraction(1, 3), Fraction(2, 5), ys, depth).value
        assert got.dtype == np.float64
        assert np.array_equal(got, [rounded_cocycle(sysm, A, Fraction(1, 3), Fraction(2, 5),
                                                    float(y), depth) for y in ys])

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING, gauss_system(30)],
                             ids=["doubling", "minus", "gauss"])
    @pytest.mark.parametrize("value", [0.25, 3], ids=["float", "int"])
    def test_scalar_valued_a_beside_an_array_y(self, sysm, value):
        # a scalar A(t) broadcasts over the points, as A of each point would
        A = custom_potential(lambda t: value, "const", holder_constant=1.0)
        ys = np.array(GAUSS_YS)
        for x, xp in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(1, 3), 0.4)):
            got = cocycle_delta(sysm, A, x, xp, ys, 6).value
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == ys.shape and not got.any()


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


def gauss_word_point(word):
    """The Fraction [0; k_1, ..., k_L] whose Gauss digits are the word."""
    y = Fraction(0)
    for k in reversed(word):
        y = 1 / (k + y)
    return y


class TestSeriesRate:
    """series_tail_bound's rate 1/2: n inverse branches shrink distances by
    at most 2^(1 - n) on every system."""

    def test_two_gauss_steps_shrink_by_a_quarter(self):
        a, b = np.meshgrid(np.arange(1, 31), np.arange(1, 31), indexing="ij")
        a, b = a[..., None], b[..., None]
        x = np.linspace(0.0, 1.0, 201)
        slope = 1 / (a * (b + x) + 1) ** 2
        assert slope.max() <= 0.25 and slope[0, 0, 0] == 0.25
        # the slope of tau_a(tau_b(x)) = (b + x) / (a (b + x) + 1), by central differences
        g, h = gauss_system(30), 1e-5
        xi = np.clip(x, h, 1 - h)

        def step2(t):
            return branch_point(g, a, branch_point(g, b, t))

        diff = (step2(xi + h) - step2(xi - h)) / (2 * h)
        assert np.allclose(diff, 1 / (a * (b + xi) + 1) ** 2, rtol=1e-6, atol=1e-9)

    def test_gauss_words_shrink_by_two_to_one_minus_n(self):
        g = gauss_system(30)
        rng = np.random.default_rng(32)
        for _ in range(100):
            x, xp = rand_fracs(rng, 2, den=10 ** 6)
            tx, txp = x, xp
            for n, k in enumerate(rng.integers(1, 31, size=int(rng.integers(1, 41))).tolist(), 1):
                tx, txp = branch_point(g, k, tx), branch_point(g, k, txp)
                assert abs(tx - txp) <= Fraction(2) ** (1 - n) * abs(x - xp)

    def test_gauss_log_kernel_within_its_tail_bound(self):
        g = gauss_system(30)
        W20 = fundamental_kernel(g, GAUSS_LOG, 0.5, depth=20)
        W40 = fundamental_kernel(g, GAUSS_LOG, 0.5, depth=40)
        assert W20.tail_bound == GAUSS_LOG.holder_constant * 2.0 ** -19
        assert fundamental_kernel(g, GAUSS_LOG, 0.5).tail_bound == 62 * 2.0 ** -47
        rng = np.random.default_rng(20)
        # y's first 44 Gauss digits are within the cap, so both walks stay in it
        ys = [gauss_word_point(rng.integers(1, 31, size=44).tolist()) for _ in range(12)]
        ys.append(gauss_word_point([1] * 44))
        for y in ys:
            for x in np.linspace(0.0, 1.0, 8).tolist():
                assert abs(W20(x, y) - W40(x, y)) <= W20.tail_bound


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

    def test_rejects_kernel_nan_on_the_probe_grid(self):
        # W1 is the kernel of A = x; NaN for y > 1/2 makes the spread NaN there
        W = involution.KernelSpec(lambda x, y: np.where(np.asarray(y) > 0.5, np.nan, w1(x, y)),
                                  "W1, NaN above 1/2")
        with pytest.raises(InvolutionError, match="x-dependence nan at y="):
            dual_potential(MINUS_DOUBLING, LINEAR, W)


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


def scalar_dual_value(sys, A, W, x, y):
    """A(tau_y x) + W(tau_y x, T* y) - W(x, y) from scalar calls."""
    s, ty = backward_step(sys, y)
    tx = branch_point(sys, s, x)
    return float(A(tx)) + float(W(tx, ty)) - float(W(x, y))


def checked_loop(sys, A, x, xp, y, depth):
    """The backward-orbit cocycle summed one checked scalar step at a time,
    in whatever arithmetic the inputs and A give."""
    total = 0
    for _ in range(depth):
        s, y = backward_step(sys, y)
        x, xp = branch_point(sys, s, x), branch_point(sys, s, xp)
        total = total + (A(x) - A(xp))
    return total


def scalar_cocycle(sys, A, x, xp, y, depth):
    """The checked scalar loop's sum as a float."""
    return float(checked_loop(sys, A, x, xp, y, depth))


def rounded_cocycle(sys, A, x, xp, y, depth):
    """The scalar cocycle with each value of A rounded to a float before it
    is subtracted and summed, exact points or not."""
    total = 0
    for _ in range(depth):
        s, y = backward_step(sys, y)
        x, xp = branch_point(sys, s, x), branch_point(sys, s, xp)
        total = total + (float(A(x)) - float(A(xp)))
    return total


class TestArrayPathsMatchScalarReferences:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_dual_potential(self, name):
        pre = PRESETS[name]
        A_star = dual_potential(pre.system, pre.potential, pre.kernel)
        lo = probe_floor(pre.system, 0.0)
        images = [p for _, p in inverse_branches(pre.system, np.linspace(0.1, 0.9, 5))]
        ys = np.concatenate([np.linspace(lo + 1e-3, 1.0 - 1e-3, 64)] + images)
        ys = ys[ys > lo]
        want = [0.5 * (scalar_dual_value(pre.system, pre.potential, pre.kernel, 0.17, float(y))
                       + scalar_dual_value(pre.system, pre.potential, pre.kernel, 0.58, float(y)))
                for y in ys]
        assert np.array_equal(A_star(ys), want)
        assert float(A_star(float(ys[3]))) == want[3]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_cohomology_residual(self, name, seed):
        pre = PRESETS[name]
        sysm, A, W = pre.system, pre.potential, pre.kernel
        A_star = dual_potential(sysm, A, W)
        rng = np.random.default_rng(seed)
        lo = probe_floor(sysm, 1e-9)
        want = 0.0
        for _ in range(200):
            x = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(lo, 1.0))
            want = max(want, abs(float(A_star(y)) - scalar_dual_value(sysm, A, W, x, y)))
        assert cohomology_residual(sysm, A, W, A_star, probes=200, seed=seed) == want

    @staticmethod
    def check_series_grid(pot, base, depth):
        A = {"x^2": A_SQUARE, "-(x-1)^2": QUAD_DIRAC,
             "x^2+cos": perturbed_potential(A_SQUARE, custom_potential(
                 lambda x: np.cos(2 * np.pi * x), "cos", holder_constant=2 * math.pi), 1.0)}[pot]
        rng = np.random.default_rng(11)
        xs = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0, 1, 6)])
        ys = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0], rng.uniform(0, 1, 6)])
        for sysm in (MINUS_DOUBLING, DOUBLING):
            W0 = fundamental_kernel(sysm, A, base, depth=depth)
            want = [[scalar_cocycle(sysm, A, float(x), base, float(y), depth) for y in ys]
                    for x in xs]
            assert np.array_equal(W0.grid(xs, ys), want)

    @pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), 0.5])
    @pytest.mark.parametrize("pot", ["x^2", "x^2+cos", "-(x-1)^2"])
    def test_series_grid(self, pot, base):
        self.check_series_grid(pot, base, 40)

    # at depth 48, Fraction(5, 2**12) walks numerators and denominators
    # beyond 2^53, and Fraction(1, 3**30) beyond int64 as well
    @pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(5, 2**12), Fraction(1, 3**30)])
    @pytest.mark.parametrize("pot", ["x^2", "x^2+cos", "-(x-1)^2"])
    def test_series_grid_at_depth_48(self, pot, base):
        self.check_series_grid(pot, base, 48)

    @pytest.mark.parametrize("sysm", [MINUS_DOUBLING, DOUBLING], ids=["minus", "doubling"])
    @pytest.mark.parametrize("A", [A_SQUARE, QUAD_PERIOD2, perturbed_potential(
        QUAD_DIRAC, custom_potential(np.sin, "sin", holder_constant=1.0), 0.3)],
        ids=lambda A: A.name)
    def test_fraction_x_beside_an_array_y(self, sysm, A):
        ys = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(4).uniform(0, 1, 8)])
        for x, xp in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 7), 0.5),
                      (Fraction(5, 9), Fraction(1, 3**30))):
            got = cocycle_delta(sysm, A, x, xp, ys, 48).value
            assert got.dtype == np.float64
            assert np.array_equal(got, [rounded_cocycle(sysm, A, x, xp, float(y), 48)
                                        for y in ys])

    def test_exact_base_beside_a_scalar_y_gives_floats(self):
        W0 = fundamental_kernel(MINUS_DOUBLING, A_SQUARE, Fraction(1, 2))
        got = W0(np.array([0.1, 0.3]), 0.4)
        assert got.dtype == np.float64
        assert got.tolist() == [scalar_cocycle(MINUS_DOUBLING, A_SQUARE, x, Fraction(1, 2),
                                               0.4, involution.SERIES_DEPTH) for x in (0.1, 0.3)]
        # Fraction x and x' with a scalar y stay exact
        assert type(W0(Fraction(1, 3), 0.4)) is Fraction

    @staticmethod
    def check_gauss_series_grid(A, base):
        g = gauss_system(30)
        ys = np.array([GOLDEN_MEAN, GOLDEN_MEAN ** 2, math.sqrt(2) - 1, (math.sqrt(13) - 3) / 2])
        xs = np.linspace(0.1, 0.9, 5)
        W0 = fundamental_kernel(g, A, base, depth=6)
        want = [[scalar_cocycle(g, A, float(x), base, float(y), 6) for y in ys]
                for x in xs]
        assert np.array_equal(W0.grid(xs, ys), want)

    def test_gauss_series_grid(self):
        self.check_gauss_series_grid(GAUSS_LOG, 0.5)

    @pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(3, 7)])
    @pytest.mark.parametrize("A", [GAUSS_LOG, A_SQUARE], ids=["2log(x)", "x^2"])
    def test_gauss_series_grid_exact_base(self, A, base):
        self.check_gauss_series_grid(A, base)

    def test_gauss_series_grid_beyond_branch_cap_raises(self):
        W0 = fundamental_kernel(gauss_system(30), GAUSS_LOG, 0.5, depth=6)
        with pytest.raises(DynamicsError):
            W0.grid(np.array([0.2, 0.4]), np.array([0.5 + 1e-9, 1.0 / 45]))
        with pytest.raises(DynamicsError):
            W0(0.2, 1.0 / 45)


class TestUncheckedAffineWalk:
    """On 2x and -2x the array cocycle checks y, x and x' once and then
    steps without range checks; its arrays must be the checked loop's."""

    @pytest.mark.parametrize("sysm", [MINUS_DOUBLING, DOUBLING], ids=["minus", "doubling"])
    @pytest.mark.parametrize("base", [0.5, 0.3, Fraction(1, 2), Fraction(2, 7)])
    @pytest.mark.parametrize("n", [5, 9])
    def test_grid_equals_the_checked_scalar_loop(self, sysm, base, n):
        g = np.linspace(0.0, 1.0, n)
        W0 = fundamental_kernel(sysm, A_SQUARE, base, depth=48)
        want = [[scalar_cocycle(sysm, A_SQUARE, float(x), base, float(y), 48) for y in g]
                for x in g]
        assert np.array_equal(W0.grid(g, g), want)

    @pytest.mark.parametrize("sysm", [MINUS_DOUBLING, DOUBLING], ids=["minus", "doubling"])
    def test_walk_takes_no_checked_step(self, sysm, monkeypatch):
        W0 = fundamental_kernel(sysm, A_SQUARE, Fraction(1, 2), depth=48)
        g = np.linspace(0.0, 1.0, 5)
        want = W0.grid(g, g)
        checks = []
        monkeypatch.setattr(involution, "_check_interval", lambda p: checks.append(p))
        for name in ("backward_step", "branch_point"):
            monkeypatch.setattr(involution, name, lambda *a: pytest.fail("checked step"))
        assert np.array_equal(W0.grid(g, g), want)
        assert len(checks) == 3  # y, x and x', once each

    @pytest.mark.parametrize("sysm", [MINUS_DOUBLING, DOUBLING], ids=["minus", "doubling"])
    def test_inputs_outside_unit_interval_raise(self, sysm):
        g = np.linspace(0.0, 1.0, 5)
        for base in (0.5, Fraction(1, 2)):
            W0 = fundamental_kernel(sysm, A_SQUARE, base, depth=48)
            for xs, ys in ((g + 1e-9, g), (g, g - 1e-9), (g, np.append(g, 1.5))):
                with pytest.raises(DynamicsError, match="outside"):
                    W0.grid(xs, ys)
        for base in (1.25, Fraction(-1, 8)):
            with pytest.raises(DynamicsError, match="outside"):
                fundamental_kernel(sysm, A_SQUARE, base, depth=48).grid(g, g)


def fraction_potential(coeffs, x):
    """a + b x + c x^2 taken in Fractions, one operation at a time."""
    a, b, c = (Fraction(v) for v in coeffs)
    return a + b * x + c * x * x


def fraction_kernel(coeffs, x, y):
    """a + b W1 + c W2 taken in Fractions, one operation at a time."""
    a, b, c = (Fraction(v) for v in coeffs)
    return a + b * w1(x, y) + c * w2(x, y)


class TestIntegerFractions:
    """Exact quadratic values are built as one Fraction from integers; each
    must equal the Fraction expression, with the same type."""

    COEFFS = [(0, 0, 1), (-1, 2, -1), (Fraction(-1, 4), 1, -1), (Fraction(2, 7), Fraction(-3, 5),
              Fraction(11, 13)), (0.1, -2.5, 1 / 3), (0, 0, 0), (7, 0, Fraction(-9, 10**12))]

    @staticmethod
    def random_fractions(rng, n):
        # negative, above 1, zero and one
        out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2)]
        for _ in range(n):
            den = int(rng.choice([1, 2, 3, 7, 4096, 10**9 + 7, 3**30]))
            out.append(Fraction(int(rng.integers(-3 * den, 3 * den + 1)), den))
        return out

    @pytest.mark.parametrize("coeffs", COEFFS, ids=str)
    def test_potential_equals_fraction_expression(self, coeffs):
        A = polynomial_potential(*coeffs)
        for x in self.random_fractions(np.random.default_rng(1), 60):
            got, want = A(x), fraction_potential(coeffs, x)
            assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("coeffs", COEFFS, ids=str)
    def test_ratio_equals_fraction_expression(self, coeffs):
        # the integer pair of A at N / D, on ints and elementwise on object
        # arrays, also on unreduced pairs
        A = polynomial_potential(*coeffs)
        xs = self.random_fractions(np.random.default_rng(4), 60)
        for x in xs:
            num, den = A._ratio(x.numerator, x.denominator)
            assert type(num) is int and type(den) is int
            assert Fraction(num, den) == fraction_potential(coeffs, x)
        N = np.array([3 * x.numerator for x in xs], dtype=object)
        D = np.array([3 * x.denominator for x in xs], dtype=object)
        num, den = A._ratio(N, D)
        assert num.dtype == den.dtype == object
        assert [Fraction(n, d) for n, d in zip(num, den)] == [fraction_potential(coeffs, x)
                                                             for x in xs]

    @pytest.mark.parametrize("coeffs", COEFFS, ids=str)
    def test_kernel_equals_fraction_expression(self, coeffs):
        W = quadratic_kernel(*coeffs)
        xs = self.random_fractions(np.random.default_rng(2), 20)
        for x in xs:
            for y in xs:
                got, want = W(x, y), fraction_kernel(coeffs, x, y)
                assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("sysm", [DOUBLING, MINUS_DOUBLING], ids=["doubling", "minus"])
    @pytest.mark.parametrize("coeffs", COEFFS, ids=str)
    def test_cocycle_equals_fraction_loop(self, sysm, coeffs):
        A = polynomial_potential(*coeffs)
        rng = np.random.default_rng(3)
        points = [p for p in self.random_fractions(rng, 30) if 0 <= p <= 1]
        for _ in range(20):
            x, xp, y = (points[int(i)] for i in rng.integers(0, len(points), 3))
            for depth in (1, 7, 48):
                got = cocycle_delta(sysm, A, x, xp, y, depth).value
                assert type(got) is Fraction
                assert got == reference_cocycle(sysm, A, x, xp, y, depth)


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

    @pytest.mark.parametrize("method", list(TwistMethod))
    @pytest.mark.parametrize("n_grid", [1, 0, -3])
    def test_grid_of_fewer_than_two_points_rejected(self, method, n_grid):
        # one point has no pair a < a': the flat W1 would pass with margin inf
        with pytest.raises(InvolutionError, match="n_grid >= 2"):
            twist_check(quadratic_kernel(0, 1, 0), method, n_grid=n_grid)

    @pytest.mark.parametrize("method", list(TwistMethod))
    def test_two_point_grid_judges_w1_flat(self, method):
        assert not twist_check(quadratic_kernel(0, 1, 0), method, n_grid=2).is_twist

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


def loop_twist_check(W, method, n_grid, margin_tol=1e-9):
    """PAIRWISE_GRID and DELTA_MONOTONE as a Python loop over grid pairs
    (i, i'), one array expression per pair."""
    g = np.linspace(0.0, 1.0, n_grid)
    Wg = W.grid(g, g)
    iu = np.triu_indices(n_grid, k=1)
    best_gap, best_wit = math.inf, (0.0, 0.0, 0.0, 0.0)
    for i in range(n_grid - 1):
        for ip in range(i + 1, n_grid):
            if method is TwistMethod.PAIRWISE_GRID:
                gap = Wg[ip][:, None] + Wg[i][None, :] - Wg[i][:, None] - Wg[ip][None, :]
                gaps = gap[iu]
                k = int(np.argmin(gaps))
                wit = (float(g[i]), float(g[iu[0][k]]), float(g[ip]), float(g[iu[1][k]]))
            else:
                gaps = np.diff(Wg[i] - Wg[ip])
                k = int(np.argmin(gaps))
                wit = (float(g[i]), float(g[k]), float(g[ip]), float(g[k + 1]))
            if gaps[k] < best_gap:
                best_gap, best_wit = float(gaps[k]), wit
    return involution.TwistReport(best_gap > margin_tol, best_gap, best_wit, method)


class TestTwistBroadcast:
    KERNELS = {
        "W2": W2K,
        "W1": quadratic_kernel(0, 1, 0),
        "example5": example5_kernel(),
        "example6": example6_kernel(),
        "series x^2": fundamental_kernel(MINUS_DOUBLING, A_SQUARE, Fraction(1, 2)),
    }

    @pytest.mark.parametrize("n_grid", [2, 5, 9, 21])
    @pytest.mark.parametrize("method", [TwistMethod.PAIRWISE_GRID, TwistMethod.DELTA_MONOTONE],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_report_equals_the_pair_loop(self, kernel, method, n_grid):
        W = self.KERNELS[kernel]
        got = twist_check(W, method, n_grid=n_grid)
        assert got == loop_twist_check(W, method, n_grid)
        assert type(got.margin) is float

    @pytest.mark.parametrize("method", [TwistMethod.PAIRWISE_GRID, TwistMethod.DELTA_MONOTONE],
                             ids=lambda m: m.value)
    def test_nan_pairs_are_skipped_as_the_loop_skips_them(self, method):
        def fn(x, y):
            v = np.asarray(w2(x, y), dtype=float)
            return np.where((np.asarray(x) == 0.5) & (np.asarray(y) > 0.6), np.nan, v)

        W = involution.KernelSpec(fn, "w2 with NaNs")
        got = twist_check(W, method, n_grid=9)
        assert got == loop_twist_check(W, method, 9)
        assert math.isfinite(got.margin)


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
    def test_zero_perturbation_always_twist(self, monkeypatch):
        monkeypatch.setattr(involution, "SERIES_DEPTH", 30)
        R0 = custom_potential(lambda x: 0.0 * x, "0", holder_constant=0.0)
        res = twist_stability_probe((0, 0, 1), R0, [0.5, 0.1, 0.01], n_grid=5)
        assert res.largest_passing_eps == 0.5
        assert all(rep.is_twist for rep in res.reports.values())

    def test_cubic_perturbation_has_passing_eps(self, monkeypatch):
        monkeypatch.setattr(involution, "SERIES_DEPTH", 30)
        R = custom_potential(lambda x: x ** 3, "x^3", holder_constant=3.0)
        res = twist_stability_probe((0, 0, 1), R, [0.5, 0.1, 0.01], n_grid=5)
        assert res.largest_passing_eps is not None

    def test_small_sine_perturbation_is_twist(self, monkeypatch):
        monkeypatch.setattr(involution, "SERIES_DEPTH", 40)
        R = custom_potential(lambda x: np.sin(2 * np.pi * x), "sin",
                             holder_constant=2 * math.pi)
        res = twist_stability_probe((0, 0, 1), R, [1e-3], n_grid=5)
        rep = res.reports[1e-3]
        assert rep.is_twist and rep.margin > 0

    def test_kernels_take_series_depth_at_call_time(self, monkeypatch):
        depths = []
        kernel = involution.fundamental_kernel

        def recording(*args, **kw):
            W = kernel(*args, **kw)
            depths.append(W.depth)
            return W

        monkeypatch.setattr(involution, "fundamental_kernel", recording)
        R0 = custom_potential(lambda x: 0.0 * x, "0", holder_constant=0.0)
        twist_stability_probe((0, 0, 1), R0, [0.1], n_grid=5)
        monkeypatch.setattr(involution, "SERIES_DEPTH", 30)
        twist_stability_probe((0, 0, 1), R0, [0.1], n_grid=5)
        assert depths == [48, 30]

    def test_requires_convex_quadratic(self):
        R0 = custom_potential(lambda x: 0.0 * x, "0", holder_constant=0.0)
        with pytest.raises(InvolutionError):
            twist_stability_probe((0, 0, -1), R0, [0.1])
