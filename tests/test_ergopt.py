"""Critical values, Lax-Oleinik subactions, and the deviation function."""

import gc
import hashlib
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import dynamics, ergopt
from ergotrans.dynamics import (DOUBLING, MINUS_DOUBLING, DynamicsError, apply_map, gauss_system,
                                periodic_orbits)
from ergotrans.ergopt import (
    ErgOptError,
    calibrated_subaction,
    critical_value,
    deviation_I,
    lax_oleinik_step,
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
from ergotrans.presets import get_preset
from ergotrans.thermo import _BLOCK, GridFunction, ThermoError, _Operator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A_ZERO = polynomial_potential(0, 0, 0, name="0")


def scalar_pass(sys, A, max_period):
    """Reference: (m, orbit, tied, n_orbits) scored one float at a time over periodic_orbits."""
    orbits = periodic_orbits(sys, max_period)
    scored = [o.with_average(float(sum(float(A(p)) for p in o.points) / o.period))
              for o in orbits]
    m = max(o.birkhoff_average for o in scored)
    tied = tuple(o for o in scored if m - o.birkhoff_average <= 1e-9)
    return m, tied[0], tied, len(orbits)


# potentials whose Gauss screen bound is checked point by point
GAUSS_SCREEN_POTENTIALS = [
    GAUSS_LOG,
    custom_potential(lambda x: np.cos(2 * np.pi * x), "cos(2 pi x)", 2 * np.pi),
    polynomial_potential(0, 0, -1, name="-x^2"),
    perturbed_potential(GAUSS_LOG, LINEAR, 0.3),
]


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

    # "flat" ties all 55 orbits through TIE_TOL, not through equal averages;
    # blocks of 7 candidate words split inside one first letter, blocks of
    # 50 span several
    @pytest.mark.parametrize("block", [dynamics.NECKLACE_BLOCK, 7, 50])
    @pytest.mark.parametrize("A", [GAUSS_LOG, perturbed_potential(GAUSS_LOG, LINEAR, 0.3),
                                   polynomial_potential(Fraction(1, 10), 0, 0, name="const"),
                                   polynomial_potential(0, Fraction(1, 10 ** 10), 0, name="flat")],
                             ids=["log", "perturbed", "constant", "flat"])
    def test_gauss_equals_scalar_pass(self, monkeypatch, A, block):
        monkeypatch.setattr(dynamics, "NECKLACE_BLOCK", block)
        sys = gauss_system(5)
        cv = critical_value(sys, A, 3)
        assert (cv.m, cv.orbit, cv.tied, cv.n_orbits) == scalar_pass(sys, A, 3)
        assert cv.n_orbits == 55
        if A.name in ("const", "flat"):
            assert len(cv.tied) == 55

    def test_gauss_period_two_maximizer_equals_scalar_pass(self):
        A = custom_potential(lambda x: np.cos(2 * np.pi * x), "cos(2 pi x)", 2 * np.pi)
        sys = gauss_system(30)
        cv = critical_value(sys, A, 4)
        assert cv.orbit.period == 2
        assert (cv.m, cv.orbit, cv.tied, cv.n_orbits) == scalar_pass(sys, A, 4)

    def test_gauss_builds_only_candidate_orbits(self, monkeypatch):
        built = []
        real = dynamics.PeriodicOrbit

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "PeriodicOrbit", counting)
        cv = critical_value(gauss_system(30), GAUSS_LOG, 4)
        assert cv.m == -0.9624236501192067
        assert cv.n_orbits == 211_730
        assert [o.points for o in cv.tied] == [(GOLDEN,)]
        assert 1 <= len(built) <= 4

    def test_gauss_golden_folds_few_rows(self, monkeypatch):
        folded = []
        fold = ergopt.gauss_rotation_points

        def counting(sys, digits):
            folded.append(len(digits))
            return fold(sys, digits)

        monkeypatch.setattr(ergopt, "gauss_rotation_points", counting)
        pre = get_preset("gauss-golden")
        cv = critical_value(pre.system, pre.potential, 4)
        assert cv.n_orbits == 211_730
        assert 1 <= sum(folded) <= 100

    @pytest.mark.parametrize("A", GAUSS_SCREEN_POTENTIALS, ids=lambda A: A.name)
    def test_cylinder_bound_covers_every_point_of_its_digit(self, A):
        sys = gauss_system(30)
        bound, scale = ergopt._cylinder_bound(sys, A)
        assert bound.shape == (30,) and scale >= 1.0
        for k in range(1, 31):
            x = np.linspace(1 / (k + 1), 1 / k, 10_001)  # endpoints included
            assert np.all(A(x) <= bound[k - 1])
        for p in range(1, 5):
            for words in dynamics._necklace_blocks(30, p):
                points = dynamics.gauss_rotation_points(sys, words + 1)
                assert np.all(A(points) <= bound[words])  # points[:, i] has digit words[:, i] + 1

    @pytest.mark.parametrize("cap", [30, 40, 100, 283])
    def test_cylinder_bound_covers_both_ends_on_every_cap(self, cap):
        # GAUSS_LOG's holder_constant 62 is Lipschitz on [1/31, 1] only; the
        # sampled ends carry the bound past it, where A rises by 2/x
        bound, _ = ergopt._cylinder_bound(gauss_system(cap), GAUSS_LOG)
        k = np.arange(1.0, cap + 1)
        assert np.all(GAUSS_LOG(1 / k) <= bound)
        assert np.all(GAUSS_LOG(1 / (k + 1)) <= bound)

    # the fixed points and the period-2 orbits set a low running maximum
    # before the maximizing orbit (1, 2, 3) is scored
    @pytest.mark.parametrize("block", [dynamics.NECKLACE_BLOCK, 7])
    def test_gauss_period_three_maximizer_equals_scalar_pass(self, monkeypatch, block):
        monkeypatch.setattr(dynamics, "NECKLACE_BLOCK", block)
        A = custom_potential(lambda x: np.sin(24 * np.pi * x), "sin(24 pi x)", 24 * np.pi)
        sys = gauss_system(8)
        cv = critical_value(sys, A, 4)
        assert cv.orbit.itinerary == (1, 2, 3)
        assert (cv.m, cv.orbit, cv.tied, cv.n_orbits) == scalar_pass(sys, A, 4)

    def test_nan_cylinder_rows_are_folded(self, monkeypatch):
        # A is NaN on digit 2's cylinder, so every row with a 2 has a NaN bound
        def log_nan_on_two(x):
            with np.errstate(divide="ignore"):
                return np.where((1 / 3 <= x) & (x <= 1 / 2), np.nan, 2.0 * np.log(x))

        A = custom_potential(log_nan_on_two, "2 log x, NaN on [1/3, 1/2]",
                             GAUSS_LOG.holder_constant)
        folded = set()
        fold = ergopt.gauss_rotation_points

        def recording(sys, digits):
            folded.update(map(tuple, digits.tolist()))
            return fold(sys, digits)

        monkeypatch.setattr(ergopt, "gauss_rotation_points", recording)
        sys = gauss_system(5)
        cv = critical_value(sys, A, 3)
        with_two = {o.itinerary for o in periodic_orbits(sys, 3) if 2 in o.itinerary}
        assert len(with_two) == 25 and with_two <= folded
        assert (cv.m, cv.orbit, cv.tied, cv.n_orbits) == scalar_pass(sys, A, 3)

    @pytest.mark.parametrize("sys, A", [
        # the fixed point 0 of -2x is the first orbit, and the only one below 0.1
        (MINUS_DOUBLING, custom_potential(
            lambda x: np.where(np.asarray(x) < 0.1, np.nan, QUAD_DIRAC.fn(x)),
            "-(x-1)^2, NaN below 0.1", 2.0)),
        # a NaN orbit after the first, on 2x
        (DOUBLING, custom_potential(
            lambda x: np.where(np.asarray(x) > 0.6, np.nan, QUAD_PERIOD2.fn(x)),
            "-(x-1/2)^2, NaN above 0.6", 2.0)),
        # digits 3 to 5 of gauss_system(5) lie below 1/3
        (gauss_system(5), custom_potential(
            lambda x: np.where(np.asarray(x) < 0.3, np.nan, 2.0 * np.log(x)),
            "2 log x, NaN below 0.3", GAUSS_LOG.holder_constant)),
    ], ids=["minus-doubling-first", "doubling", "gauss"])
    def test_nan_averages_are_skipped(self, sys, A):
        scored = [o.with_average(float(sum(float(A(p)) for p in o.points) / o.period))
                  for o in periodic_orbits(sys, 3)]
        finite = [o for o in scored if not math.isnan(o.birkhoff_average)]
        assert 0 < len(finite) < len(scored)
        m = max(o.birkhoff_average for o in finite)
        tied = tuple(o for o in finite if m - o.birkhoff_average <= ergopt.TIE_TOL)
        cv = critical_value(sys, A, 3)
        assert (cv.m, cv.orbit, cv.tied, cv.n_orbits) == (m, tied[0], tied, len(scored))

    @pytest.mark.parametrize("sys", [MINUS_DOUBLING, DOUBLING, gauss_system(5)],
                             ids=["minus-doubling", "doubling", "gauss"])
    def test_all_nan_averages_raise(self, sys):
        A = custom_potential(lambda x: np.full(np.shape(x), np.nan), "NaN", 1.0)
        with pytest.raises(ErgOptError, match="no periodic orbit with a non-NaN average"):
            critical_value(sys, A, 3)

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

    @pytest.mark.parametrize("sys, A, beta", [(MINUS_DOUBLING, LINEAR, 5.0),
                                              (MINUS_DOUBLING, LINEAR, 1.0),
                                              (DOUBLING, QUAD_DIRAC, 1.0),
                                              (MINUS_DOUBLING, QUAD_DIRAC, 5.0)])
    def test_operator_of_other_system_potential_or_beta_rejected(self, sys, A, beta):
        # such an op used to be applied silently: linear at beta 5 on
        # quad-dirac is off by about 5 on 64 cells
        V = GridFunction.constant(0.0, 64)
        op = _Operator(sys, A, beta, 64)
        with pytest.raises(ErgOptError, match="does not match"):
            lax_oleinik_step(MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, V, op=op)


class TestFusedStep:
    """lax_oleinik_step shifts, checks and takes the maximum inside the
    operator's blocks; with the renormalization after it, each step must be
    max_apply(V) - m, normalized_max_zero and sup_diff to the last bit."""

    SIZES = [2, 3, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 5]
    # not Gauss at 2^20: its 30 branches of weights and stencil would hold 730 MB
    CASES = ([pytest.param(DOUBLING, QUAD_DIRAC, n, id=f"doubling-{n}") for n in SIZES + [1 << 20]]
             + [pytest.param(MINUS_DOUBLING, QUAD_PERIOD2, n, id=f"minus-{n}")
                for n in SIZES + [1 << 20]]
             + [pytest.param(gauss_system(30), GAUSS_LOG, n, id=f"gauss-{n}") for n in SIZES])

    @pytest.mark.parametrize("sys, A, n", CASES)
    def test_step_and_renormalization_equal_the_plain_passes(self, sys, A, n):
        op = _Operator(sys, A, 1.0, n)
        V = GridFunction(np.random.default_rng(n).uniform(-2.0, 0.0, size=n))
        m = -0.37
        want = op.max_apply(V.values) - m
        step = lax_oleinik_step(sys, A, m, V, op=op, _out=np.empty(n))
        assert step.values.tobytes() == want.tobytes()
        assert op.top == np.max(want)
        ref = GridFunction(want).normalized_max_zero()
        scratch = np.empty(min(ergopt._RENORM_BLOCK, n))
        change = ergopt._renormalize_change(step.values, V.values, scratch, op.top)
        assert step.values.tobytes() == ref.values.tobytes()
        assert change == V.sup_diff(ref)

    def test_renormalization_takes_a_zero_maximum_from_np_max(self):
        # 0.0 and -0.0 tie: np.max's choice decides the sign of the shifted zeros
        un = np.tile([-0.0, -1.5, 0.0, -0.25], 3 * _BLOCK)
        u = np.linspace(-1.0, 0.0, un.size)
        want = un - np.max(un)
        for top in (0.0, -0.0):
            got = un.copy()
            ergopt._renormalize_change(got, u, np.empty(_BLOCK), top)
            assert got.tobytes() == want.tobytes()

    def test_renormalized_change_of_equal_zeros_is_plus_zero(self):
        un, u = np.zeros(2 * _BLOCK + 3), np.full(2 * _BLOCK + 3, -0.0)
        change = ergopt._renormalize_change(un, u, np.empty(_BLOCK), 0.0)
        assert change == 0.0 and math.copysign(1.0, change) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cell_in_a_late_block_raises(self, bad):
        # only both branch images (x/2 and (1 + x)/2) of the last cells are
        # bad, so the first blocks pass their checks and the last one raises
        n = 3 * _BLOCK + 5

        def late(x):
            x = np.asarray(x)
            return np.where((x > 1 - 1e-5) | ((x > 0.5 - 1e-5) & (x < 0.5)), bad, 0.0)

        A = custom_potential(late, "late", holder_constant=1.0)
        V = GridFunction.constant(0.0, n)
        with pytest.raises(ThermoError, match="finite"):
            lax_oleinik_step(DOUBLING, A, 0.0, V)

    def test_finite_step_skips_the_checked_constructor(self, monkeypatch):
        # the kernel proved the values finite; the step does not scan them again
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 1.0, 256)
        V = GridFunction.constant(0.0, 256)
        monkeypatch.setattr(GridFunction, "__post_init__", lambda self: pytest.fail("scanned"))
        out = lax_oleinik_step(MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, V, op=op)
        assert out.n_grid == 256 and np.isfinite(out.values).all()


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

    def test_nonconvergence_raises_with_change(self, monkeypatch):
        # the boundary two-cycle of A = x^2 has cyclicity 2: the max-plus
        # iteration oscillates and must report non-convergence
        from ergotrans.ergopt import ErgOptError

        monkeypatch.setattr(ergopt, "MAX_ITER_LO", 500)
        with pytest.raises(ErgOptError, match="after 500 steps; last change"):
            calibrated_subaction(MINUS_DOUBLING, polynomial_potential(0, 0, 1),
                                 n_grid=512, max_period=12)

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

    def test_operator_freed_on_return(self, monkeypatch):
        # with the cycle collector off, the operator (its logw arrays and
        # scratch rows) must go with the last reference to it, or a second
        # solve at a large grid would hold two
        built = []

        class RecordingOperator(_Operator):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        monkeypatch.setattr(ergopt, "_Operator", RecordingOperator)
        gc.disable()
        try:
            res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=1 << 16, max_period=4)
            alive = [ref() is not None for ref in built]
        finally:
            gc.enable()
        assert res.calibrated
        assert alive == [False]

    def test_iterations_count_loop_steps(self, monkeypatch):
        steps = []
        plain = ergopt.lax_oleinik_step

        def counting(*args, **kwargs):
            steps.append(1)
            return plain(*args, **kwargs)

        monkeypatch.setattr(ergopt, "lax_oleinik_step", counting)
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=512, max_period=4)
        # the last call is the calibration step after the loop
        assert res.iterations == len(steps) - 1
        assert res.iterations > 1

    def test_values_pinned_at_n_grid_2_16(self):
        # sha256 of V's little-endian float64 bytes, computed with the
        # unblocked grid operator that the blocked kernel replaced (the
        # quad-period2 one with the gather-only kernel that strided runs
        # replaced): the kernel must reproduce them to the last bit
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=1 << 16, max_period=4)
        digest = hashlib.sha256(res.V.values.astype("<f8").tobytes()).hexdigest()
        assert digest == "7ca239b745d4c42ac0e2bf1190874c3b0e6f836ce48d31af7e6e10b62c04273f"
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_PERIOD2, n_grid=1 << 16, max_period=4)
        digest = hashlib.sha256(res.V.values.astype("<f8").tobytes()).hexdigest()
        assert digest == "4dd8be714f5a839a70a08edc6096f5b7883aa29583dc67b46ef7cd40d50de64f"

    @pytest.mark.parametrize("n, digest", [
        (1 << 11, "6188ce7e53482964b86c0d424545778f6a60d557644ef5f888a42a8c800e140f"),
        (1 << 12, "9ccceb8ababca7ebbe180d8579834f9a6b9aafc1defab6aab90e0b58799873f0"),
        (1 << 13, "0d085c56049cde8e805b4773069f768d6fd1e77e873b647fa45ad47135e52a16"),
    ])
    def test_gauss_values_pinned(self, n, digest):
        # computed before the operator skipped any Gauss branch: the skip
        # must reproduce V to the last bit
        res = calibrated_subaction(gauss_system(30), GAUSS_LOG, n_grid=n,
                                   m=2.0 * math.log(GOLDEN))
        assert hashlib.sha256(res.V.values.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("sys, A, m, n", [
        (MINUS_DOUBLING, QUAD_DIRAC, None, 4096),
        (MINUS_DOUBLING, QUAD_PERIOD2, None, 2048),
        (gauss_system(30), GAUSS_LOG, 2.0 * math.log(GOLDEN), 1024),
    ])
    def test_equals_plain_loop(self, sys, A, m, n):
        # the loop as first written: a fresh checked GridFunction per step,
        # normalized_max_zero and sup_diff
        res = calibrated_subaction(sys, A, n_grid=n, m=m, max_period=4)
        m = critical_value(sys, A, 4).m if m is None else m
        op = _Operator(sys, A, 1.0, n)
        V = GridFunction.constant(0.0, n)
        for it in range(1, ergopt.MAX_ITER_LO + 1):
            Vn = lax_oleinik_step(sys, A, m, V, op=op).normalized_max_zero()
            change = V.sup_diff(Vn)
            V = Vn
            if change <= ergopt.TOL_LO:
                break
        final = lax_oleinik_step(sys, A, m, V, op=op).normalized_max_zero()
        assert np.array_equal(res.V.values, V.values)
        assert (res.iterations, res.residual, res.calibrated) == (it, change,
                                                                  V.sup_diff(final) <= 1e-8)

    @staticmethod
    def _nested(sys, A, n_grid):
        """The solve at DEFAULT_N_GRID, then one on each doubled grid up to
        n_grid started from the level before: (last result, refined levels'
        iteration counts)."""
        res = calibrated_subaction(sys, A, max_period=4)
        steps = []
        while res.V.n_grid < n_grid:
            res = calibrated_subaction(sys, A, n_grid=2 * res.V.n_grid, m=res.m, start=res.V)
            steps.append(res.iterations)
        return res, steps

    @pytest.mark.parametrize("A", [QUAD_DIRAC, QUAD_PERIOD2, LINEAR], ids=lambda A: A.name)
    def test_nested_solve_matches_cold_solve(self, A):
        # measured: 3 steps on every refined level, |dV| <= 3.1e-13
        res, steps = self._nested(MINUS_DOUBLING, A, 1 << 16)
        cold = calibrated_subaction(MINUS_DOUBLING, A, n_grid=1 << 16, max_period=4)
        assert res.m == cold.m and res.calibrated
        assert float(np.max(np.abs(res.V.values - cold.V.values))) <= ergopt.TOL_LO
        assert len(steps) == 4 and max(steps) <= 5

    def test_nested_solve_at_the_edge_cycle_is_slow(self):
        # quad-convex's maximum sits on the boundary cycle {0, 1}, where the
        # clamped read of the coarse V is poor: every level still takes about
        # as many steps as a cold solve (measured 25-27 against 27), which is
        # why calibrated_subaction does not nest by itself
        pre = get_preset("quad-convex")
        res, steps = self._nested(pre.system, pre.potential, 1 << 16)
        cold = calibrated_subaction(pre.system, pre.potential, n_grid=1 << 16, max_period=4)
        assert res.m == cold.m and res.calibrated
        assert float(np.max(np.abs(res.V.values - cold.V.values))) <= ergopt.TOL_LO
        assert min(steps) > 20

    def test_start_at_the_fixed_point_converges_at_once(self):
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=512, max_period=4)
        again = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=512, m=res.m,
                                     start=GridFunction(res.V.values - 5.0))
        assert again.iterations == 1 and again.calibrated
        assert float(np.max(np.abs(again.V.values - res.V.values))) <= ergopt.TOL_LO

    def test_start_must_be_a_grid_function(self):
        with pytest.raises(ErgOptError, match="start must be a GridFunction, not ndarray"):
            calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=64, m=-1 / 9,
                                 start=np.zeros(64))

    def test_renormalized_change_keeps_a_nan(self):
        # the change is a max over block peaks, which must not drop a NaN
        # the way Python's max(peak, nan) does
        n = 3 * _BLOCK + 5
        u = np.zeros(n)
        u[_BLOCK + 7] = np.nan
        un = np.linspace(-1.0, 0.5, n)
        assert math.isnan(ergopt._renormalize_change(un, u, np.empty(_BLOCK)))
        assert un.max() == 0.0

    @pytest.mark.parametrize("fn", [
        lambda x: np.where(np.asarray(x) > 0.25, np.nan, 0.0),
        lambda x: np.where(np.asarray(x) > 0.25, np.inf, 0.0),
        # -inf on both branch images of the cells below 1/2 only
        lambda x: np.where(np.asarray(x) > 0.25, -np.inf, 0.0),
        lambda x: np.full(np.shape(x), -np.inf),
    ], ids=["nan", "inf", "-inf-some-cells", "-inf-all-cells"])
    def test_nonfinite_step_raises_at_once(self, monkeypatch, fn):
        # ThermoError at the first step, not ErgOptError after MAX_ITER_LO
        monkeypatch.setattr(ergopt, "MAX_ITER_LO", 50)
        A = custom_potential(fn, "nonfinite", holder_constant=1.0)
        with pytest.raises(ThermoError, match="finite"):
            calibrated_subaction(MINUS_DOUBLING, A, n_grid=64, m=0.0)


def _rule_deviation(sys, A, V, m, x, n_terms, tol=ergopt.TOL_I, cap=ergopt.CAP_I,
                    early_exit=True):
    """Reference: deviation_I's rule, stated on the orbit as a list.

    Every term is evaluated afresh and added, capped and tested one at a
    time.  At the first point that repeats, after k preperiod points and
    a cycle of p, A's average over the cycle decides: +inf when it is
    below m by more than TIE_TOL (n_used k + p), ErgOptError when it is
    above m by more than TIE_TOL, and otherwise the sum of the k
    preperiod terms with n_used n_terms.
    """
    orbit, sums = [x], [0.0]  # sums[n]: terms 0 .. n - 1 added in order from 0.0
    for n in range(n_terms):
        z = orbit[n]
        if z in orbit[:n]:
            k = orbit.index(z)
            cycle = orbit[k:n]
            avg = float(sum(float(A(c)) for c in cycle) / len(cycle))
            if m - avg > ergopt.TIE_TOL:
                return math.inf, True, n
            if avg - m > ergopt.TIE_TOL:
                raise ErgOptError("m is below a cycle's average")
            return sums[k], True, n_terms
        zn = apply_map(sys, z)
        r = float(V(float(zn))) - float(V(float(z))) - float(A(z)) + m
        sums.append(sums[-1] + r)
        if sums[-1] > cap:
            return math.inf, True, n + 1
        if early_exit and abs(r) < tol:
            return sums[-1], True, n + 1
        orbit.append(zn)
    return sums[-1], False, n_terms


def _outcome(f, *args, **kw):
    """f's (value, converged, n_used), or ErgOptError when it raises one."""
    try:
        d = f(*args, **kw)
    except ErgOptError:
        return ErgOptError
    return d if isinstance(d, tuple) else (d.value, d.converged, d.n_used)


def _deviation(monkeypatch, *args, cap=None, **kw):
    """deviation_I with the reference's cap keyword set as ergopt.CAP_I."""
    if cap is not None:
        monkeypatch.setattr(ergopt, "CAP_I", cap)
    return deviation_I(*args, **kw)


def _closed_V_dirac(x):
    return -x * x / 3 + 2 * x / 9


A_GAUSS_SMOOTH = custom_potential(lambda x: -float(x) ** 2, "-x^2", holder_constant=2.0)
GRID_V = GridFunction(np.random.default_rng(27).uniform(-1.0, 0.0, size=257))


def _zero_V(x):
    return 0.0


def _orbit_size(sys, x):
    """preperiod + period of a rational x: the number of distinct points of its orbit."""
    seen = set()
    while x not in seen:
        seen.add(x)
        x = apply_map(sys, x)
    return len(seen)


def _sweep_cases(count=1000):
    """count rationals on 2x and -2x: dyadic denominators, 3 * 2^k, and odd
    q with long 2-orbits.  The i-th is walked under one combination of the
    system, V, early_exit and n_terms (1, 2, and one below, at and one past
    preperiod + period, and 2000); the 72 combinations cycle, each cycle
    over one kind of denominator, so every combination meets every kind."""
    rng = np.random.default_rng(27)
    dirac, period2 = get_preset("quad-dirac"), get_preset("quad-period2")
    setups = [(MINUS_DOUBLING, QUAD_DIRAC, dirac.closed_V, dirac.m_exact),
              # -1/36 is also the critical value of -(x-1/2)^2 under 2x
              (DOUBLING, QUAD_PERIOD2, period2.closed_V, -1 / 36)]
    denominators = ([2 ** k for k in range(1, 11)], [3 * 2 ** k for k in range(9)],
                    [97, 101, 107, 131, 139, 149, 163, 173])
    cases = []
    for i in range(count):
        sys, A, closed_V, m = setups[i % 2]
        V = (closed_V, GRID_V, _zero_V)[i // 2 % 3]
        early_exit = i // 6 % 2 == 0
        qs = denominators[i // 72 % 3]
        q = int(qs[rng.integers(len(qs))])
        x = Fraction(int(rng.integers(q + 1)), q)
        size = _orbit_size(sys, x)
        n_terms = (1, 2, max(1, size - 1), size, size + 1, 2000)[i // 12 % 6]
        cases.append((sys, A, V, m, x, dict(n_terms=n_terms, early_exit=early_exit)))
    return cases


GAUSS_POLY = polynomial_potential(0, 0, -1, name="-x^2")


def _without_coeffs(A):
    """A as a potential without coeffs: called on floats only."""
    return custom_potential(A, f"{A.name} without coeffs", A.holder_constant)


def _gauss_sweep_cases():
    """Fraction starts on gauss_system(30) and gauss_system(5): the probe
    grid (2i + 1)/128, every p/q with q <= 12 (0 and 1 among them).  Each
    is walked under GAUSS_LOG at the golden-mean m (a rational orbit ends
    on the fixed point 0, where 2 log 0 = -inf: +inf), and under -x^2 with
    and without coeffs at m = 0 (A(0) = 0 ties: the preperiod sum) and at
    m = -0.2 (ErgOptError); V, early_exit and n_terms cycle over the starts."""
    starts = [Fraction(2 * i + 1, 128) for i in range(64)]
    starts += sorted({Fraction(p, q) for q in range(1, 13) for p in range(q + 1)})
    setups = [(GAUSS_LOG, get_preset("gauss-golden").m_exact), (GAUSS_POLY, 0.0),
              (_without_coeffs(GAUSS_POLY), 0.0), (GAUSS_POLY, -0.2)]
    cases = []
    for i, x in enumerate(starts):
        V = (lambda z: 0.5 * z, GRID_V, _zero_V)[i % 3]
        kw = dict(n_terms=(1, 2, 5, 2000)[i // 3 % 4], early_exit=i // 12 % 2 == 0)
        for sys in (gauss_system(30), gauss_system(5)):
            cases += [(sys, A, V, m, x, kw) for A, m in setups]
    return cases


class TestDeviationReuse:
    @pytest.mark.parametrize("sys, A, V, m, x, kw", [
        # dyadic: ends on the fixed point 0, which is not maximizing
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(5, 128),
         dict(n_terms=3000, early_exit=False)),
        # 3 * 2^k: ends on the fixed point 1/3 or 2/3 of -2x (a 2-cycle of 2x)
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
        # Gauss orbit of a rational ends on the fixed point 0, where A(0) = 0 > m:
        # m is below a cycle's average, and deviation_I raises ErgOptError
        (gauss_system(30), A_GAUSS_SMOOTH, lambda x: 0.5 * x, -0.2, Fraction(5, 13),
         dict(n_terms=300, early_exit=False)),
        # a cap the walk does not reach: 7 preperiod terms, then R(0) = 8/9 forever
        (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(5, 128),
         dict(n_terms=500, cap=100.0, early_exit=False)),
        # 5/192 under 2x: 6 preperiod terms, then the maximizing 2-cycle
        # {1/3, 2/3}; n_terms before, at and just past the first repeat, and far past
        *[(DOUBLING, QUAD_PERIOD2, lambda x: 0.1 * x, -1 / 36, Fraction(5, 192),
           dict(n_terms=k, early_exit=False)) for k in (5, 7, 8, 9, 2001)],
        # 3/97 under -2x is purely periodic, of period 48
        *[(MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(3, 97),
           dict(n_terms=k, early_exit=False)) for k in (20, 48, 1000)],
        # a float Gauss orbit that does not repeat within n_terms
        (gauss_system(30), A_GAUSS_SMOOTH, lambda x: 0.5 * x, -0.2, 0.5772156649015329,
         dict(n_terms=300, early_exit=False)),
        # the integer walk of Fractions on 2x and -2x, against the Fraction reference
        *_sweep_cases(),
        # ... on Gauss, and on 2x and -2x under a potential without coeffs
        *_gauss_sweep_cases(),
        *[(sys, _without_coeffs(A), *rest) for sys, A, *rest in _sweep_cases(240)],
    ])
    def test_matches_plain_loop(self, monkeypatch, sys, A, V, m, x, kw):
        want = _outcome(_rule_deviation, sys, A, V, m, x, **kw)
        got = _outcome(_deviation, monkeypatch, sys, A, V, m, x, **kw)
        # bit for bit: the value's sign of zero, and a float, not a numpy scalar
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING, gauss_system(30)],
                             ids=["doubling", "minus-doubling", "gauss"])
    @pytest.mark.parametrize("A", [QUAD_DIRAC, GAUSS_LOG, _without_coeffs(QUAD_DIRAC)],
                             ids=["polynomial", "gauss-log", "no-coeffs"])
    def test_fraction_start_never_calls_apply_map(self, monkeypatch, sys, A):
        starts = [Fraction(5, 128), Fraction(3, 97), Fraction(5, 13), Fraction(0), Fraction(1)]
        args = [(sys, A, GRID_V, -1 / 9, x) for x in starts]
        kw = dict(n_terms=300, early_exit=False)
        want = [_outcome(_rule_deviation, *a, **kw) for a in args]

        def refuse(*args):
            raise AssertionError("apply_map called on a Fraction start")

        monkeypatch.setattr(ergopt, "apply_map", refuse)
        monkeypatch.setattr(dynamics, "apply_map", refuse)
        got = [_outcome(deviation_I, *a, **kw) for a in args]
        assert got == want and repr(got) == repr(want)

    def test_boundary_partial_sum(self):
        # 5/128 under -2x has 8 distinct points, and the 9th is a repeat of the
        # fixed point 0, which is not maximizing.  With n_terms 8 the walk
        # stops before the repeat: the 8-term partial sum, not converged.
        # With 9 the cycle rule gives +inf.
        args = (MINUS_DOUBLING, QUAD_DIRAC, _closed_V_dirac, -1 / 9, Fraction(5, 128))
        at = deviation_I(*args, n_terms=8, early_exit=False)
        assert (at.converged, at.n_used) == (False, 8)
        assert at.value == _rule_deviation(*args, n_terms=8, early_exit=False)[0] < math.inf
        past = deviation_I(*args, n_terms=9, early_exit=False)
        assert (past.value, past.converged, past.n_used) == (math.inf, True, 8)

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING, gauss_system(30)])
    @pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(-1, 3)])
    def test_fraction_outside_interval_raises(self, sys, x):
        for A in (QUAD_DIRAC, _without_coeffs(QUAD_DIRAC)):
            with pytest.raises(DynamicsError,
                               match=rf"point {re.escape(repr(x))} outside \[0, 1\]"):
                deviation_I(sys, A, _closed_V_dirac, -1 / 9, x)

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING, gauss_system(30)])
    @pytest.mark.parametrize("x", [1.5, -0.25])
    def test_float_outside_interval_raises(self, sys, x):
        # the walk steps before A reads the start: 2 log(-0.25) would warn first
        with pytest.raises(DynamicsError, match=rf"point {re.escape(repr(x))} outside \[0, 1\]"):
            deviation_I(sys, GAUSS_LOG, _closed_V_dirac, -1 / 9, x)

    @pytest.mark.parametrize("sys, A, x", [
        (gauss_system(30), polynomial_potential(0, 0, -1, name="-x^2"), Fraction(5, 13)),
        (gauss_system(30), A_GAUSS_SMOOTH, 0.5772156649015329),
        (MINUS_DOUBLING, QUAD_DIRAC, 0.3),
        (MINUS_DOUBLING, QUAD_DIRAC, 1),
        (MINUS_DOUBLING, custom_potential(QUAD_DIRAC, "no coeffs", 2.0), Fraction(3, 97)),
    ], ids=["gauss", "gauss-float", "float", "int", "no-coeffs"])
    def test_other_inputs_match_the_rule(self, sys, A, x):
        # a Gauss Fraction, a float, an int and an A without coeffs, against
        # the reference walk
        args = (sys, A, _closed_V_dirac, -1 / 9, x)
        for n_terms in (1, 7, 300):
            kw = dict(n_terms=n_terms, early_exit=False)
            got = _outcome(deviation_I, *args, **kw)
            want = _outcome(_rule_deviation, *args, **kw)
            assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("sys, A, m, x, kw", [
        # a Fraction: the integer walk
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, Fraction(3, 173), dict(n_terms=2000, early_exit=False)),
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, Fraction(3, 173), dict(n_terms=40, early_exit=False)),
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, Fraction(3, 173), dict(n_terms=9, early_exit=False)),
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, Fraction(5, 3 * 2 ** 6),
         dict(n_terms=3000, early_exit=False)),
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, Fraction(11, 3 * 2 ** 3), dict(n_terms=500)),
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, Fraction(0), dict(n_terms=500)),
        # a float or an int steps by apply_map
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, 0.3, dict(n_terms=500, early_exit=False)),
        (DOUBLING, QUAD_PERIOD2, -1 / 36, 0.7, dict(n_terms=500, early_exit=False)),
        (MINUS_DOUBLING, QUAD_DIRAC, -1 / 9, 1, dict(n_terms=500, early_exit=False)),
        # on Gauss, -x^2 and -x^2 without coeffs tie at the fixed point 0 with m = 0
        (gauss_system(30), polynomial_potential(0, 0, -1, name="-x^2"), 0.0, Fraction(5, 13),
         dict(n_terms=300, early_exit=False)),
        (gauss_system(30), A_GAUSS_SMOOTH, 0.0, 0.5772156649015329,
         dict(n_terms=300, early_exit=False)),
        (gauss_system(30), A_GAUSS_SMOOTH, 0.0, 0.5772156649015329, dict(n_terms=20)),
        (MINUS_DOUBLING, custom_potential(QUAD_DIRAC, "no coeffs", 2.0), -1 / 9, Fraction(3, 97),
         dict(n_terms=2000, early_exit=False)),
    ], ids=[*(f"x{i}-kw{i}" for i in range(6)), "float", "float-doubling", "int", "gauss",
            "gauss-float", "gauss-float-20", "no-coeffs"])
    def test_value_function_called_per_stretch(self, sys, A, m, x, kw):
        # whatever the start, V gets float64 arrays of the walked points in
        # order, each point once (only the repeat that ends the walk comes
        # again), in stretches of 8, 16, 32, ... points, and their lengths
        # sum to at most twice the points the reference reads V at, plus 8
        valued, lengths, reads = [], [], set()

        def V(z):
            assert isinstance(z, np.ndarray) and z.dtype == np.float64 and z.ndim == 1
            valued.extend(z.tolist())
            lengths.append(z.size)
            return _closed_V_dirac(z)

        def V_scalar(z):
            reads.add(z)
            return _closed_V_dirac(z)

        got = _outcome(deviation_I, sys, A, V, m, x, **kw)
        assert got == _outcome(_rule_deviation, sys, A, V_scalar, m, x, **kw)
        walk = [x]
        while len(walk) < len(valued):
            walk.append(apply_map(sys, walk[-1]))
        assert valued == [float(z) for z in walk]
        assert len(set(valued[:-1])) == len(valued) - 1
        assert lengths[:-1] == [8 << k for k in range(len(lengths) - 1)]
        assert len(reads) <= len(valued) <= 2 * len(reads) + 8

    @pytest.mark.parametrize("sys, A, m, x, cycle", [
        # the Gauss orbit of 5/13 ends on 0, and A(0) = 0 is above m = -0.2
        (gauss_system(30), A_GAUSS_SMOOTH, -0.2, Fraction(5, 13), "Fraction(0, 1)"),
        # 5/6 -> 1/3 under -2x, a fixed point with A(1/3) = -4/9 above m = -1/2
        (MINUS_DOUBLING, QUAD_DIRAC, -0.5, Fraction(5, 6), "Fraction(1, 3)"),
    ], ids=["gauss", "minus-doubling"])
    def test_m_below_a_cycle_average_raises(self, sys, A, m, x, cycle):
        with pytest.raises(ErgOptError, match=rf"cycle through {re.escape(cycle)} .*"
                                              "not the critical value"):
            deviation_I(sys, A, lambda x: 0.5 * x, m, x, n_terms=300, early_exit=False)

    def test_long_sum_is_the_preperiod_sum(self):
        # 10**6 terms cost 8 walked points: 6 preperiod terms, then the
        # maximizing 2-cycle {1/3, 2/3} of 2x
        args = (DOUBLING, QUAD_PERIOD2, lambda x: 0.1 * x, -1 / 36, Fraction(5, 192))
        d = deviation_I(*args, n_terms=10 ** 6, early_exit=False)
        assert d.converged and d.n_used == 10 ** 6
        assert d.value == _rule_deviation(*args, n_terms=6, early_exit=False)[0]

    def test_walk_stops_at_first_repeat(self):
        # 5/128 reaches the fixed point 0 after 7 steps: 8 distinct points
        # are evaluated, and 0 is not maximizing, so I is +inf at once
        seen = []

        def fn(x):
            seen.append(x)
            return QUAD_DIRAC(x)

        A = custom_potential(fn, "counting", holder_constant=2.0)
        d = deviation_I(MINUS_DOUBLING, A, _closed_V_dirac, -1 / 9, Fraction(5, 128),
                        n_terms=500, early_exit=False)
        assert len(seen) == 8
        assert (d.value, d.converged, d.n_used) == (math.inf, True, 8)

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

    @pytest.mark.parametrize("x, kw", [
        (Fraction(5, 128), dict(n_terms=500, cap=100.0, early_exit=False)),
        (Fraction(5, 3 * 2 ** 6), dict(n_terms=3000, early_exit=False)),
        (Fraction(11, 3 * 2 ** 3), dict(n_terms=500)),
        (Fraction(3, 97), dict(n_terms=20, early_exit=False)),
    ])
    def test_value_function_evaluated_once_per_point(self, monkeypatch, x, kw):
        # V(T z) of one step is V(z) of the next: A is read at each point
        # the walk steps from, and V at those points and the last one
        # walked, once each, on float64 arrays whose lengths sum to at most
        # twice the points the reference reads V at, plus 8
        walked, valued, reads = [], [], set()

        def fn(z):
            walked.append(z)
            return QUAD_DIRAC(z)

        def V(z):
            assert isinstance(z, np.ndarray) and z.dtype == np.float64
            valued.extend(z.tolist())
            return _closed_V_dirac(z)

        def V_scalar(z):
            reads.add(z)
            return _closed_V_dirac(z)

        A = custom_potential(fn, "counting", holder_constant=2.0)
        d = _deviation(monkeypatch, MINUS_DOUBLING, A, V, -1 / 9, x, **kw)
        assert (d.value, d.converged, d.n_used) == _rule_deviation(
            MINUS_DOUBLING, QUAD_DIRAC, V_scalar, -1 / 9, x, **kw)
        assert len(valued) == len(set(walked)) + 1 == len(walked) + 1
        assert valued[:-1] == walked
        assert len(reads) <= len(valued) <= 2 * len(reads) + 8


class TestExactDeviation:
    """I on quad-dirac with its closed-form V: the maximizing orbit is the
    fixed point 2/3 of -2x, and the fixed points 0 and 1/3 are not maximizing."""

    @staticmethod
    def I(x):
        pre = get_preset("quad-dirac")
        return deviation_I(pre.system, pre.potential, pre.closed_V, pre.m_exact, x,
                           n_terms=2000, early_exit=False)

    @pytest.mark.parametrize("x, exact", [(Fraction(1, 6), Fraction(5, 9)),
                                          (Fraction(5, 12), Fraction(7, 9))])
    def test_preperiod_values(self, x, exact):
        # 1/6 -> 2/3, and 5/12 -> 1/6 -> 2/3
        d = self.I(x)
        assert d.converged and d.n_used == 2000
        assert abs(d.value - float(exact)) <= math.ulp(float(exact))

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(5, 128)])
    def test_plus_infinity_off_the_maximizing_cycle(self, x):
        # 1/3 is fixed, and 5/128 reaches the fixed point 0 after 7 steps
        d = self.I(x)
        assert d.value == math.inf and d.converged

    def test_one_step_of_the_series(self):
        # I(x) = R(x) + I(T x) at the preperiod point 5/12, whose image is 1/6
        pre = get_preset("quad-dirac")
        x = Fraction(5, 12)
        tx = apply_map(pre.system, x)
        r = (float(pre.closed_V(float(tx))) - float(pre.closed_V(float(x)))
             - float(pre.potential(x)) + pre.m_exact)
        assert tx == Fraction(1, 6) and r > 0
        assert self.I(x).value == r + self.I(tx).value


class TestDeviation:
    def test_zero_on_maximizing_orbit(self):
        V = lambda x: -x * x / 3 + 2 * x / 9
        d = deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, Fraction(2, 3),
                        n_terms=500, early_exit=False)
        assert (d.value, d.converged, d.n_used) == (0.0, True, 500)

    def test_zero_potential_zero_everywhere(self):
        d = deviation_I(MINUS_DOUBLING, A_ZERO, lambda x: 0.0, 0.0, Fraction(3, 7),
                        n_terms=200, early_exit=False)
        assert d.value == 0.0

    def test_infinite_at_origin_for_quad_dirac(self):
        # R(0) = A(2/3) - A(0) = 8/9 on the fixed point 0: +inf at the first repeat
        V = lambda x: -x * x / 3 + 2 * x / 9
        d = deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, Fraction(0), n_terms=500)
        assert (d.value, d.converged, d.n_used) == (math.inf, True, 1)

    @pytest.mark.parametrize("x", [0.1234, Fraction(1, 6)])
    @pytest.mark.parametrize("n_terms", [2.5, 3.0, "3"])
    def test_non_int_n_terms_rejected(self, x, n_terms):
        # n_terms 2.5 used to return n_used = 2.5 on an orbit that never
        # repeats, and to fail inside numpy on one that does
        V = lambda x: -x * x / 3 + 2 * x / 9
        with pytest.raises(ErgOptError, match="n_terms must be an int"):
            deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, x, n_terms=n_terms,
                        early_exit=False)

    def test_partial_sums_nondecreasing(self):
        # 5/128 walks 7 preperiod terms to the fixed point 0: partial sums
        # before the repeat, +inf after it
        V = lambda x: -x * x / 3 + 2 * x / 9
        x = Fraction(5, 128)
        vals = [deviation_I(MINUS_DOUBLING, QUAD_DIRAC, V, -1 / 9, x, n_terms=n,
                            early_exit=False).value for n in (2, 4, 7, 10)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12 < vals[3] == math.inf

    def test_terms_nonnegative_along_orbit(self):
        V = lambda x: -x * x / 3 + 2 * x / 9
        z = Fraction(11, 64)
        for _ in range(100):
            zn = apply_map(MINUS_DOUBLING, z)
            r = V(float(zn)) - V(float(z)) - float(QUAD_DIRAC(z)) + (-1 / 9)
            assert r >= -1e-8
            z = zn
