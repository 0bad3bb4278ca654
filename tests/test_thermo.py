"""Transfer-operator eigendata and the finite-temperature estimates."""

import math

import numpy as np
import pytest

from ergotrans.dynamics import DOUBLING, MINUS_DOUBLING
from ergotrans.involution import quadratic_kernel, KernelForm, KernelSpec
from ergotrans.potentials import QUAD_DIRAC, QUAD_PERIOD2, polynomial_potential
from ergotrans.presets import get_preset
from ergotrans.thermo import (
    GridFunction,
    ThermoError,
    eigen_measure,
    eigenpair,
    gamma_estimate,
    ruelle_apply,
    v_beta,
)

A_ZERO = polynomial_potential(0, 0, 0, name="0")
A_SQUARE = polynomial_potential(0, 0, 1)


class TestRuelleApply:
    def test_zero_potential_counts_branches(self):
        f = GridFunction.constant(1.0, 256)
        out = ruelle_apply(DOUBLING, A_ZERO, 3.7, f)
        np.testing.assert_allclose(out.values, 2.0, rtol=1e-14)

    def test_constant_potential(self):
        beta, c = 2.5, 0.3
        f = GridFunction.constant(1.0, 256)
        out = ruelle_apply(MINUS_DOUBLING, polynomial_potential(c, 0, 0), beta, f)
        np.testing.assert_allclose(out.values, 2.0 * math.exp(beta * c), rtol=1e-13)

    def test_branch_formula_near_zero(self):
        # (L f)(x) = e^{A(tau0 x)} + e^{A(tau1 x)} for f = 1; at x -> 0 this is
        # e^{0.25} + e for A = x^2 under -2x mod 1
        f = GridFunction.constant(1.0, 4096)
        out = ruelle_apply(MINUS_DOUBLING, A_SQUARE, 1.0, f)
        assert abs(out.values[0] - (math.exp(0.25) + math.e)) < 1e-3

    def test_exact_formula_at_centers(self):
        f = GridFunction.constant(1.0, 512)
        out = ruelle_apply(MINUS_DOUBLING, A_SQUARE, 1.0, f)
        c = f.centers
        direct = np.exp(((1 - c) / 2) ** 2) + np.exp(((2 - c) / 2) ** 2)
        np.testing.assert_allclose(out.values, direct, rtol=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ThermoError):
            ruelle_apply(DOUBLING, A_ZERO, 1.0, GridFunction(np.array([1.0, -1.0, 1.0])))

    def test_positivity_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = GridFunction(rng.uniform(0.5, 1.5, size=128))
            g = GridFunction(f.values + rng.uniform(0.0, 1.0, size=128))
            Lf = ruelle_apply(MINUS_DOUBLING, QUAD_DIRAC, 2.0, f)
            Lg = ruelle_apply(MINUS_DOUBLING, QUAD_DIRAC, 2.0, g)
            assert np.all(Lf.values > 0)
            assert np.all(Lf.values <= Lg.values + 1e-12)


class TestEigenpair:
    def test_zero_potential(self):
        pair = eigenpair(DOUBLING, A_ZERO, 1.0, n_grid=256)
        assert abs(pair.eigenvalue - 2.0) < 1e-12
        np.testing.assert_allclose(pair.eigenfunction.values, 1.0, atol=1e-12)
        assert pair.residual < 1e-10

    def test_constant_shift(self):
        beta, c = 4.0, -0.2
        pair = eigenpair(MINUS_DOUBLING, polynomial_potential(c, 0, 0), beta, n_grid=256)
        assert abs(pair.eigenvalue - 2.0 * math.exp(beta * c)) < 1e-10

    def test_pressure_near_critical_value(self):
        pair = eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=2048)
        assert abs(pair.log_eigenvalue / 8.0 - (-1.0 / 9.0)) < 0.1

    def test_log_eigenvalue_convex_in_beta(self):
        betas = [2.0, 4.0, 6.0, 8.0, 10.0]
        logs = [eigenpair(MINUS_DOUBLING, QUAD_PERIOD2, b, n_grid=1024).log_eigenvalue
                for b in betas]
        for i in range(len(betas) - 2):
            mid = 0.5 * (logs[i] + logs[i + 2])
            assert logs[i + 1] <= mid + 1e-6

    def test_pressure_error_nonincreasing(self):
        m = -1.0 / 9.0
        errs = []
        for beta in (4.0, 8.0, 16.0, 32.0, 64.0):
            pair = eigenpair(MINUS_DOUBLING, QUAD_DIRAC, beta, n_grid=2048)
            errs.append(abs(pair.log_eigenvalue / beta - m))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-9

    def test_residual_below_default_tolerance(self):
        pair = eigenpair(MINUS_DOUBLING, QUAD_PERIOD2, 16.0, n_grid=1024)
        assert pair.residual < 1e-10

    def test_nonconvergence_raises_with_residual(self):
        # A = x^2 at large beta has a near-degenerate leading pair (the
        # boundary two-cycle), so plain power iteration never settles
        with pytest.raises(ThermoError, match="residual"):
            eigenpair(MINUS_DOUBLING, A_SQUARE, 32.0, n_grid=512, max_iter=2000)


class TestVBeta:
    def test_zero_potential_vanishes(self):
        vb = v_beta(DOUBLING, A_ZERO, 4.0, n_grid=256)
        np.testing.assert_allclose(vb.values, 0.0, atol=1e-12)

    def test_approaches_closed_form_subaction(self):
        closed = lambda x: -x * x / 3 + 2 * x / 9
        sups = []
        for beta in (8.0, 32.0):
            vb = v_beta(MINUS_DOUBLING, QUAD_DIRAC, beta, n_grid=1024)
            t = closed(vb.centers)
            t -= t.max()
            sups.append(float(np.max(np.abs(vb.values - t))))
        assert sups[1] < sups[0]

    def test_cross_module_consistency(self):
        # V_beta at beta = 16 sits near the converged max-plus subaction
        from ergotrans.ergopt import calibrated_subaction

        vb = v_beta(MINUS_DOUBLING, QUAD_DIRAC, 16.0, n_grid=1024)
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=1024, max_period=4)
        assert vb.sup_diff(res.V) < 0.15

    def test_square_potential_selects_boundary_cycle(self):
        # A = x^2 has A(1) > A(0): orbits of the mod-1 map shadowing the
        # boundary two-cycle {0, 1} push the pressure to 1/2, above the
        # fixed-point value A(2/3) = 4/9.  The operator sees the same
        # structure the periodic enumeration finds.
        pair = eigenpair(MINUS_DOUBLING, A_SQUARE, 16.0, n_grid=1024)
        assert pair.log_eigenvalue / 16.0 > 4.0 / 9.0 + 0.02
        assert pair.log_eigenvalue / 16.0 < 0.52


class TestGammaEstimate:
    def test_zero_kernel(self):
        W0 = KernelSpec(KernelForm.EXPLICIT, lambda x, y: 0.0 * (np.asarray(x) + np.asarray(y)), "0")
        g = gamma_estimate(MINUS_DOUBLING, A_ZERO, W0, 8.0, n_grid=128, A_star=A_ZERO)
        assert abs(g) < 1e-12

    def test_constant_kernel(self):
        k = -0.7
        Wk = KernelSpec(KernelForm.EXPLICIT, lambda x, y: k + 0.0 * (np.asarray(x) + np.asarray(y)), "k")
        g = gamma_estimate(MINUS_DOUBLING, A_ZERO, Wk, 8.0, n_grid=128, A_star=A_ZERO)
        assert abs(g - k) < 1e-12

    def test_quadratic_example_vs_support_identity(self):
        W = quadratic_kernel(0, 1, -1)
        g = gamma_estimate(MINUS_DOUBLING, QUAD_PERIOD2, W, 32.0, n_grid=512, A_star=QUAD_PERIOD2)
        assert abs(g - (-4.0 / 27.0)) < 0.1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [8.0, 64.0])
    def test_gauss_zero_mass_cells_do_not_warn(self, beta):
        # cells below 1/(branch_cap+1) get no mass; their log is -inf
        pre = get_preset("gauss-golden")
        nu = eigen_measure(pre.system, pre.potential, beta, n_grid=512)
        assert np.any(nu == 0.0)
        g = gamma_estimate(pre.system, pre.potential, pre.kernel, beta)
        assert abs(g - pre.gamma_exact) < 1e-3


def test_eigen_measure_is_probability():
    nu = eigen_measure(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=512)
    assert abs(float(nu.sum()) - 1.0) < 1e-12
    assert np.all(nu > 0)


def test_gridfunction_csv(tmp_path):
    g = GridFunction(np.array([1 / 3, 2 / 3, 0.125]))
    path = tmp_path / "g.csv"
    g.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cell_center,value"
    c, v = lines[1].split(",")
    assert float(c) == pytest.approx(1 / 6)
    assert float(v) == 1 / 3
