"""Transport plans, duality, monotonicity, graph property, Rochet potentials."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import transport as tr
from ergotrans.dynamics import (
    FULL_SHIFT2,
    MINUS_DOUBLING,
    ExtensionPoint,
    PeriodicOrbit,
    extension_forward,
    gauss_system,
    periodic_orbits,
)
from ergotrans.ergopt import critical_value, deviation_I
from ergotrans.involution import (
    KernelForm,
    example5_kernel,
    example6_kernel,
    fundamental_kernel,
    gauss_log_kernel,
    quadratic_kernel,
)
from ergotrans.potentials import QUAD_DIRAC, QUAD_PERIOD2, polynomial_potential
from ergotrans.presets import GOLDEN_MEAN, get_preset

THIRD, TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)


def vertex_optimum(C, wr, wc):
    """Exact optimum over every basic feasible coupling (small n x m)."""
    n, m = C.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    nb = n + m - 1
    rhs = np.concatenate([wr, wc[:-1]])  # the last column equation is redundant
    best = math.inf
    for basis in itertools.combinations(cells, nb):
        A = np.zeros((nb, nb))
        for k, (i, j) in enumerate(basis):
            A[i, k] = 1.0
            if j < m - 1:
                A[n + j, k] = 1.0
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:  # not a basis
            continue
        if np.max(np.abs(A @ sol - rhs)) > 1e-11 or np.min(sol) < -1e-11:
            continue
        best = min(best, sum(C[i, j] * max(v, 0.0) for (i, j), v in zip(basis, sol)))
    return best


def quad_period2_measures():
    cv = critical_value(MINUS_DOUBLING, QUAD_PERIOD2, 4)
    return tr.maximizing_extension_measure(MINUS_DOUBLING, cv.tied)


class TestNaturalExtension:
    def test_fixed_point_pairs_with_itself(self):
        orbit = next(o for o in periodic_orbits(MINUS_DOUBLING, 1)
                     if o.points[0] == TWO_THIRDS)
        ext = tr.natural_extension_measure(MINUS_DOUBLING, orbit)
        ((x, y), w), = ext.atoms
        assert (x, y) == (TWO_THIRDS, TWO_THIRDS) and float(w) == 1.0

    def test_shift_period2_pairs_with_reversed_word(self):
        orbit = next(o for o in periodic_orbits(FULL_SHIFT2, 2) if o.period == 2)
        ext = tr.natural_extension_measure(FULL_SHIFT2, orbit)
        for (x, y), _ in ext.atoms:
            # the past of (a0 a1)^inf is (a1 a0)^inf: embeddings 1/3 <-> 2/3
            assert abs(x.value() + y.value() - 1.0) < 1e-6
            assert abs(x.value() - y.value()) > 0.3

    def test_extension_orbit_is_forward_invariant(self):
        orbit = next(o for o in periodic_orbits(MINUS_DOUBLING, 3) if o.period == 3)
        ext = tr.natural_extension_measure(MINUS_DOUBLING, orbit)
        pairs = [xy for xy, _ in ext.atoms]
        for i, (x, y) in enumerate(pairs):
            nxt = extension_forward(MINUS_DOUBLING, ExtensionPoint(x, y))
            tx, ty = pairs[(i + 1) % len(pairs)]
            assert abs(float(nxt.x) - float(tx)) < 1e-12
            assert abs(float(nxt.y) - float(ty)) < 1e-12

    def test_gauss_period2_past_points(self):
        # itinerary (1, 2): sqrt3 - 1 -> (sqrt3 - 1)/2 -> sqrt3 - 1; each past
        # point carries the reversed digit word, i.e. the other orbit point
        r = math.sqrt(3) - 1
        orbit = PeriodicOrbit((r, r / 2), 2, (1, 2))
        ext = tr.natural_extension_measure(gauss_system(3), orbit)
        (xy0, w0), (xy1, w1) = ext.atoms
        assert xy0[1] == pytest.approx(r / 2, abs=1e-15)
        assert xy1[1] == pytest.approx(r, abs=1e-15)
        assert w0 == w1 == Fraction(1, 2)

    def test_tied_orbits_combine_to_diagonal_atoms(self):
        mu, mu_star, ext = quad_period2_measures()
        pairs = sorted((float(x), float(y)) for (x, y), _ in ext.atoms)
        assert pairs == [pytest.approx((1 / 3, 1 / 3)), pytest.approx((2 / 3, 2 / 3))]

    def test_diagonal_pairing_maximizes_kernel_sum(self):
        # brute force over both extreme couplings of the 2x2 instance
        W = example5_kernel()
        diag = float(W(1 / 3, 1 / 3) + W(2 / 3, 2 / 3))
        swap = float(W(1 / 3, 2 / 3) + W(2 / 3, 1 / 3))
        assert diag == pytest.approx(-17 / 27, abs=1e-14)
        assert swap == pytest.approx(-21 / 27, abs=1e-14)
        assert diag > swap


class TestGammaFromSupport:
    def test_trivial_zero(self):
        res = tr.gamma_from_support(lambda x, y: 0.0, lambda x: 0.0, lambda x: 0.0,
                                    [(0.25, 0.5)])
        assert res.gamma == 0.0

    def test_quad_dirac_value(self):
        pre = get_preset("quad-dirac")
        res = tr.gamma_from_support(pre.kernel, pre.closed_V, pre.closed_V,
                                    [(TWO_THIRDS, TWO_THIRDS)])
        assert res.gamma == pytest.approx(-16 / 27, abs=1e-14)

    def test_rejects_inconsistent_data(self):
        pre = get_preset("quad-period2")
        wrong_V = lambda x: 0.1 * np.asarray(x)
        with pytest.raises(tr.TransportError):
            tr.gamma_from_support(pre.kernel, wrong_V, wrong_V,
                                  [(THIRD, THIRD), (TWO_THIRDS, TWO_THIRDS)])


class TestSolveKantorovich:
    def test_dirac_pair(self):
        cost = tr.CostSpec(w=quadratic_kernel(0, 1, -1), gamma=0.4)
        plan = tr.solve_kantorovich(tr.AtomicMeasure.dirac(0.2),
                                    tr.AtomicMeasure.dirac(0.7), cost)
        assert plan.value == pytest.approx(cost.cost(0.2, 0.7))
        assert plan.coupling.shape == (1, 1) and plan.coupling[0, 0] == 1.0

    def test_example5_identity_beats_swap(self):
        mu, mu_star, _ = quad_period2_measures()
        cost = tr.CostSpec(w=example5_kernel(), gamma=0.0)
        plan = tr.solve_kantorovich(mu, mu_star, cost)
        assert plan.method == "permutation_enumeration"
        support = sorted((float(x), float(y)) for x, y in plan.support_pairs())
        assert support == [pytest.approx((1 / 3, 1 / 3)), pytest.approx((2 / 3, 2 / 3))]
        assert plan.value == pytest.approx(17 / 54, abs=1e-14)

    def test_gauss_single_atom_value(self):
        pre = get_preset("gauss-golden")
        b = GOLDEN_MEAN
        cost = tr.CostSpec(w=pre.kernel, gamma=0.0)
        plan = tr.solve_kantorovich(tr.AtomicMeasure.dirac(b), tr.AtomicMeasure.dirac(b), cost)
        assert plan.value == pytest.approx(2.0 * math.log(1.0 + b * b), abs=1e-14)

    def test_methods_agree_on_random_instances(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            xs = np.sort(rng.uniform(0, 1, size=n))
            ys = np.sort(rng.uniform(0, 1, size=m))
            wr = rng.uniform(0.1, 1.0, size=n)
            wr /= wr.sum()
            wc = rng.uniform(0.1, 1.0, size=m)
            wc /= wc.sum()
            mu = tr.AtomicMeasure(tuple(zip(map(float, xs), wr)))
            mu_star = tr.AtomicMeasure(tuple(zip(map(float, ys), wc)))
            a, bq, c = rng.uniform(-1, 1, size=3)
            cost = tr.CostSpec(w=quadratic_kernel(a, bq, c), gamma=float(rng.uniform(-1, 1)))
            plan = tr.solve_kantorovich(mu, mu_star, cost)
            assert plan.method == "highs"
            C = np.array([[cost.cost(x, y) for y in ys] for x in xs])
            assert abs(plan.value - vertex_optimum(C, wr, wc)) <= 1e-9

    def test_marginals_reproduced(self):
        mu, mu_star, _ = quad_period2_measures()
        cost = tr.CostSpec(w=example5_kernel(), gamma=0.0)
        plan = tr.solve_kantorovich(mu, mu_star, cost)
        np.testing.assert_allclose(plan.coupling.sum(axis=1), mu.weights, atol=1e-10)
        np.testing.assert_allclose(plan.coupling.sum(axis=0), mu_star.weights, atol=1e-10)

    def test_infinite_row_rejected(self):
        cost = tr.CostSpec(w=quadratic_kernel(0, 0, 1), gamma=0.0,
                           i_eval=lambda x: math.inf)
        with pytest.raises(tr.TransportError, match="cannot carry mass"):
            tr.solve_kantorovich(tr.AtomicMeasure.dirac(0.3),
                                 tr.AtomicMeasure.dirac(0.6), cost)

    def test_mass_mismatch_rejected(self):
        cost = tr.CostSpec(w=quadratic_kernel(0, 0, 1))
        bad = tr.AtomicMeasure.__new__(tr.AtomicMeasure)
        object.__setattr__(bad, "atoms", ((0.3, 0.6), (0.5, 0.3)))
        with pytest.raises(tr.TransportError):
            tr.solve_kantorovich(bad, tr.AtomicMeasure.dirac(0.5), cost)

    def test_variants_agree_when_deviation_vanishes_on_atoms(self):
        pre = get_preset("quad-period2")
        mu, mu_star, _ = quad_period2_measures()

        def I(x):
            return deviation_I(MINUS_DOUBLING, QUAD_PERIOD2, pre.closed_V,
                               pre.m_exact, x, n_terms=500, early_exit=False).value

        c_plain = tr.CostSpec(w=pre.kernel, gamma=0.0)
        c_dev = tr.CostSpec(w=pre.kernel, gamma=0.0, i_eval=I)
        p1 = tr.solve_kantorovich(mu, mu_star, c_plain)
        p2 = tr.solve_kantorovich(mu, mu_star, c_dev)
        np.testing.assert_allclose(p1.coupling, p2.coupling, atol=1e-12)


KERNELS_BY_FORM = {
    KernelForm.CLOSED_QUADRATIC: quadratic_kernel(0.5, -1, 2),
    KernelForm.GAUSS_LOG: gauss_log_kernel(),
    KernelForm.COCYCLE_SERIES: fundamental_kernel(
        MINUS_DOUBLING, polynomial_potential(0, 1, -1), Fraction(1, 2), depth=20),
    KernelForm.EXPLICIT: example5_kernel(),
}


class TestCostMatrix:
    @pytest.mark.parametrize("form", list(KernelForm))
    def test_equals_scalar_cost(self, form):
        W = KERNELS_BY_FORM[form]
        xs = [THIRD, Fraction(1, 7), TWO_THIRDS, 0.0, 0.3, 0.91, 1.0]
        ys = [Fraction(5, 8), 0.25, 1.0, THIRD]
        seen = []

        def I(x):
            seen.append(x)
            if x == Fraction(1, 7) or x == 0.3:
                return math.inf
            return x * x  # a Fraction on Fraction points

        plain = tr.CostSpec(w=W, gamma=0.25)
        dev = tr.CostSpec(w=W, gamma=0.25, i_eval=I)
        for cost in (plain, dev):
            C = cost.matrix(xs, ys)
            ref = np.array([[cost.cost(x, y) for y in ys] for x in xs])
            assert np.array_equal(C, ref)
        assert np.isinf(C[1]).all() and np.isinf(C[4]).all()
        assert np.isfinite(np.delete(C, [1, 4], axis=0)).all()
        seen.clear()
        dev.matrix(xs, ys)
        assert seen == xs and [type(x) for x in seen] == [type(x) for x in xs]


def scalar_permutation_solve(C, w):
    n = C.shape[0]
    best_val, best_perm = math.inf, None
    for perm in itertools.permutations(range(n)):
        val = sum(C[i, perm[i]] * w[i] for i in range(n))
        if val < best_val:
            best_val, best_perm = val, perm
    P = np.zeros_like(C)
    for i in range(n):
        P[i, best_perm[i]] = w[i]
    return P, float(best_val)


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_solve_equals_scalar_loop(n):
    rng = np.random.default_rng(n)
    w = np.full(n, 1.0 / n)
    for C in (rng.integers(0, 3, size=(n, n)).astype(float), rng.normal(size=(n, n))):
        P, val = tr._solve_permutations(C, w)
        P_ref, val_ref = scalar_permutation_solve(C, w)
        assert np.array_equal(P, P_ref) and val == val_ref


def scalar_cyclical(S, c, n_max):
    worst, wit_s, wit_p = -math.inf, None, None
    for k in range(2, min(n_max, len(S)) + 1):
        for subset in itertools.combinations(S, k):
            base = sum(c.cost(x, y) for x, y in subset)
            for perm in itertools.permutations(range(k)):
                if perm == tuple(range(k)):
                    continue
                slack = base - sum(c.cost(subset[p][0], subset[j][1])
                                   for j, p in enumerate(perm))
                if slack > worst:
                    worst, wit_s, wit_p = slack, subset, perm
    return worst, wit_s, wit_p


def scalar_rochet(S, c, base, z, chain):
    prev_x, prev_y = S[base]
    total = 0.0
    for xi, yi in chain:
        total += c.cost(xi, prev_y) - c.cost(prev_x, prev_y)
        prev_x, prev_y = xi, yi
    return total + (c.cost(float(z), prev_y) - c.cost(prev_x, prev_y))


class TestSupportMatrixChecks:
    S = [(Fraction(1, 5), Fraction(4, 5)), (THIRD, TWO_THIRDS), (0.45, 0.5),
         (TWO_THIRDS, THIRD), (0.9, 0.05)]

    def costs(self):
        pre = get_preset("quad-period2")

        @functools.lru_cache(maxsize=None, typed=True)
        def I(x):
            return deviation_I(MINUS_DOUBLING, QUAD_PERIOD2, pre.closed_V, pre.m_exact,
                               x, n_terms=50, early_exit=False).value

        return [tr.CostSpec(w=example5_kernel()), tr.CostSpec(w=pre.kernel, gamma=0.1, i_eval=I)]

    def test_cyclical_equals_scalar_loop(self):
        for cost in self.costs():
            for n_max in (2, 3, 5):
                rep = tr.cyclical_monotonicity_check(self.S, cost, n_max=n_max)
                worst, wit_s, wit_p = scalar_cyclical(self.S, cost, n_max)
                assert (rep.worst_slack, rep.witness_subset, rep.witness_permutation) == \
                    (worst, wit_s, wit_p)

    def test_rochet_equals_scalar_chains(self):
        for cost in self.costs():
            for z in (0.05, THIRD, 0.5, 0.95):
                brute = min(scalar_rochet(self.S, cost, 0, z, chain)
                            for n in range(4) for chain in itertools.product(self.S, repeat=n))
                assert tr.rochet_potential(self.S, cost, 0, z, tr.RochetMode.BRUTE_FORCE,
                                           chain_cap=3) == brute
                chain = [p for p in self.S[1:] if float(p[0]) < float(z)]
                assert tr.rochet_potential(self.S, cost, 0, z, tr.RochetMode.TWIST_ORDERED) \
                    == scalar_rochet(self.S, cost, 0, z, chain)


class TestConjugateTransform:
    def test_zero_kernel_gives_minus_min(self):
        xs = np.linspace(0, 1, 33)
        f = xs ** 2 - 0.3
        out = tr.conjugate_transform(f, quadratic_kernel(0, 0, 0), xs, np.array([0.1, 0.9]))
        np.testing.assert_allclose(out, -f.min(), atol=1e-14)

    def test_constant_shift_moves_transform(self):
        pre = get_preset("quad-dirac")
        xs = np.linspace(0, 1, 65)
        ys = np.linspace(0, 1, 17)
        f = np.asarray(pre.closed_V(xs))
        out0 = tr.conjugate_transform(f, pre.kernel, xs, ys)
        outk = tr.conjugate_transform(f + 0.25, pre.kernel, xs, ys)
        np.testing.assert_allclose(outk, out0 - 0.25, atol=1e-12)

    def test_transform_of_subaction_is_dual_subaction(self):
        # f# built from V and the kernel satisfies the subaction inequality
        # for the dual potential (equal to A here)
        pre = get_preset("quad-dirac")
        xs = np.linspace(0.0, 1.0, 4097)
        ys = np.linspace(0.0, 1.0, 257)
        fsharp = tr.conjugate_transform(pre.closed_V, pre.kernel, xs, ys)

        def fs(y):
            return float(np.interp(y, ys, fsharp))

        m = pre.m_exact
        for y in ys[1:-1:4]:
            ty = (1.0 - 2.0 * y) if y < 0.5 else (2.0 - 2.0 * y)
            resid = fs(ty) - fs(y) - float(pre.potential(y)) + m
            assert resid >= -1e-8


class TestDuality:
    def test_certificate_on_quad_dirac(self):
        pre = get_preset("quad-dirac")
        mu = tr.AtomicMeasure.dirac(TWO_THIRDS)
        gamma = tr.gamma_from_support(pre.kernel, pre.closed_V, pre.closed_V,
                                      [(TWO_THIRDS, TWO_THIRDS)]).gamma

        def I(x):
            return deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V, pre.m_exact,
                               x, n_terms=600, early_exit=False).value

        cost = tr.CostSpec(w=pre.kernel, gamma=gamma, i_eval=I)
        plan = tr.solve_kantorovich(mu, mu, cost)
        grid = [Fraction(2 * i + 1, 64) for i in range(32)]
        rep = tr.duality_certificate(pre.closed_V, pre.closed_V, cost, plan,
                                     grid, grid, mu, mu)
        assert rep.admissible and rep.slackness_ok
        assert rep.worst_atom_residual < 1e-12
        assert abs(rep.duality_gap) < 1e-12

    def test_gamma_shift_absorbed(self):
        pre = get_preset("quad-dirac")
        mu = tr.AtomicMeasure.dirac(TWO_THIRDS)
        gamma = -16.0 / 27.0
        k = 0.37
        grid = [Fraction(2 * i + 1, 64) for i in range(32)]

        def I(x):
            return deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V, pre.m_exact,
                               x, n_terms=600, early_exit=False).value

        reports = []
        for g in (gamma, gamma + k):
            cost = tr.CostSpec(w=pre.kernel, gamma=g, i_eval=I)
            plan = tr.solve_kantorovich(mu, mu, cost)
            reports.append(tr.duality_certificate(pre.closed_V, pre.closed_V, cost,
                                                  plan, grid, grid, mu, mu))
        assert reports[0].admissible and reports[1].admissible
        assert reports[1].constant_shift - reports[0].constant_shift == pytest.approx(k)
        assert abs(reports[1].duality_gap) < 1e-12


class TestDualPair:
    def test_cost_transform_is_admissible_and_tight_on_support(self):
        pre = get_preset("quad-dirac")

        def I(x):
            return deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V, pre.m_exact,
                               x, n_terms=600, early_exit=False).value

        cost = tr.CostSpec(w=pre.kernel, gamma=-16 / 27, i_eval=I)
        xs = [Fraction(k, 96) for k in range(1, 96)]  # includes the atom 2/3
        ys = xs

        def f(x):
            return -float(pre.closed_V(x))

        pair = tr.DualPair.from_cost_transform(f, cost, xs, ys)
        assert pair.worst_violation(cost) <= 1e-10
        k = ys.index(Fraction(2, 3))
        # f#(p*) recovers -V*(p*) at the support atom
        assert pair.f_sharp[k] == pytest.approx(0.0, abs=1e-10)


class TestCyclicalMonotonicity:
    def test_single_point_trivially_passes(self):
        cost = tr.CostSpec(w=example5_kernel())
        rep = tr.cyclical_monotonicity_check([(0.3, 0.4)], cost)
        assert rep.passes and rep.worst_slack == 0.0

    def test_swapped_support_fails_with_known_slack(self):
        cost = tr.CostSpec(w=example5_kernel())
        swapped = [(THIRD, TWO_THIRDS), (TWO_THIRDS, THIRD)]
        rep = tr.cyclical_monotonicity_check(swapped, cost, 5)
        assert not rep.passes
        assert rep.worst_slack == pytest.approx(4 / 27, abs=1e-14)

    def test_optimal_supports_pass(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            xs = np.sort(rng.uniform(0, 1, size=n))
            ys = np.sort(rng.uniform(0, 1, size=n))
            mu = tr.AtomicMeasure.uniform([float(v) for v in xs])
            nu = tr.AtomicMeasure.uniform([float(v) for v in ys])
            a, bq, c = rng.uniform(-1.5, 1.5, size=3)
            cost = tr.CostSpec(w=quadratic_kernel(a, bq, c))
            plan = tr.solve_kantorovich(mu, nu, cost)
            rep = tr.cyclical_monotonicity_check(plan.support_pairs(), cost, 5)
            assert rep.passes

    def test_n_max_guard(self):
        with pytest.raises(tr.TransportError):
            tr.cyclical_monotonicity_check([(0.1, 0.2)], tr.CostSpec(w=example5_kernel()),
                                           n_max=8)


class TestTwistOrder:
    def test_anti_monotone_passes(self):
        rep = tr.twist_order_check([(0.2, 0.8), (0.7, 0.1)])
        assert rep.passes

    def test_monotone_pair_fails(self):
        rep = tr.twist_order_check([(0.2, 0.1), (0.7, 0.8)])
        assert not rep.passes and rep.violations

    def test_twist_optimal_plan_is_anti_monotone(self):
        cost = tr.CostSpec(w=example6_kernel())
        mu = tr.AtomicMeasure.uniform([THIRD, TWO_THIRDS])
        plan = tr.solve_kantorovich(mu, mu, cost)
        assert tr.twist_order_check(plan.support_pairs()).passes
        support = sorted((float(x), float(y)) for x, y in plan.support_pairs())
        assert support == [pytest.approx((1 / 3, 2 / 3)), pytest.approx((2 / 3, 1 / 3))]


class TestGraphCheck:
    def test_identity_pairing_is_graph(self):
        mu, mu_star, _ = quad_period2_measures()
        plan = tr.solve_kantorovich(mu, mu_star, tr.CostSpec(w=example5_kernel()))
        rep = tr.graph_check(plan)
        assert rep.is_graph

    def test_double_fiber_flagged(self):
        plan = tr.TransportPlan(np.array([[0.5, 0.5]]), 0.0, (THIRD,),
                                (THIRD, TWO_THIRDS), "constructed")
        rep = tr.graph_check(plan)
        assert not rep.is_graph
        assert rep.bad_clusters[0][0] == pytest.approx(1 / 3)

    def test_twist_plan_graph_and_nonincreasing(self):
        cost = tr.CostSpec(w=example6_kernel())
        mu = tr.AtomicMeasure.uniform([THIRD, TWO_THIRDS])
        plan = tr.solve_kantorovich(mu, mu, cost)
        rep = tr.graph_check(plan)
        assert rep.is_graph and rep.monotone_nonincreasing


class TestRochet:
    def cost6(self):
        return tr.CostSpec(w=example6_kernel())

    def anti_support(self):
        return [(THIRD, TWO_THIRDS), (TWO_THIRDS, THIRD)]

    def test_zero_at_base(self):
        c = self.cost6()
        S = self.anti_support()
        for mode in tr.RochetMode:
            assert tr.rochet_potential(S, c, 0, THIRD, mode) == pytest.approx(0.0, abs=1e-14)

    def test_singleton_support(self):
        c = self.cost6()
        S = [(0.3, 0.6)]
        z = 0.85
        expect = c.cost(z, 0.6) - c.cost(0.3, 0.6)
        for mode in tr.RochetMode:
            assert tr.rochet_potential(S, c, 0, z, mode) == pytest.approx(expect, abs=1e-14)

    def test_modes_agree_under_twist(self):
        c = self.cost6()
        S = self.anti_support()
        for z in np.linspace(0.02, 0.98, 25):
            fb = tr.rochet_potential(S, c, 0, float(z), tr.RochetMode.BRUTE_FORCE, chain_cap=5)
            ft = tr.rochet_potential(S, c, 0, float(z), tr.RochetMode.TWIST_ORDERED)
            assert fb == pytest.approx(ft, abs=1e-9)

    def test_three_atom_twist_instance(self):
        # anti-monotone 3-point support under the twist cost
        c = self.cost6()
        S = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
        for z in np.linspace(0.02, 0.98, 20):
            fb = tr.rochet_potential(S, c, 0, float(z), tr.RochetMode.BRUTE_FORCE, chain_cap=4)
            ft = tr.rochet_potential(S, c, 0, float(z), tr.RochetMode.TWIST_ORDERED)
            assert fb == pytest.approx(ft, abs=1e-9)

    def test_twist_ordered_requires_leftmost_base(self):
        with pytest.raises(tr.TransportError):
            tr.rochet_potential(list(reversed(self.anti_support())), self.cost6(), 0,
                                0.5, tr.RochetMode.TWIST_ORDERED)


class TestBFunction:
    def test_all_zero_case(self):
        assert tr.b_function(0.3, 0.8, lambda x, y: 0.0, lambda x: 0.0,
                             lambda x: 0.0, 0.0) == 0.0

    def test_zero_on_support_atom(self):
        pre = get_preset("quad-dirac")
        b = tr.b_function(TWO_THIRDS, TWO_THIRDS, pre.kernel, pre.closed_V,
                          pre.closed_V, -16 / 27)
        assert abs(b) < 1e-14

    def test_positive_off_support(self):
        pre = get_preset("quad-dirac")

        def I(x):
            return deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V, pre.m_exact,
                               x, n_terms=400, early_exit=False).value

        # x = 1/6 maps onto the fixed point in one step: finite positive I
        b_finite = tr.b_function(Fraction(1, 6), Fraction(0), pre.kernel,
                                 pre.closed_V, pre.closed_V, -16 / 27, I)
        assert 0.0 < b_finite < math.inf
        # the origin is fixed with positive R: infinite deviation propagates
        def I_inf(x):
            return deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V, pre.m_exact,
                               x, n_terms=2000, cap=100.0, early_exit=False).value

        assert tr.b_function(Fraction(0), Fraction(0), pre.kernel, pre.closed_V,
                             pre.closed_V, -16 / 27, I_inf) == math.inf


def test_plan_json_export():
    mu, mu_star, _ = quad_period2_measures()
    plan = tr.solve_kantorovich(mu, mu_star, tr.CostSpec(w=example5_kernel()))
    d = plan.to_json_dict({"graph": tr.graph_check(plan).to_json_dict()})
    assert sorted(a["x"] for a in d["atoms"]) == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
    assert d["certificates"]["graph"]["is_graph"] is True
