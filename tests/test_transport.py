"""Transport plans, duality, monotonicity, graph property, Rochet potentials."""

import functools
import itertools
import math
import os
import re
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from ergotrans import transport as tr
from ergotrans.accept import _slack_probes, transport_instance
from ergotrans.dynamics import (
    DOUBLING,
    MINUS_DOUBLING,
    PeriodicOrbit,
    apply_map,
    branch_point,
    gauss_system,
    periodic_orbits,
    periodic_point,
    symbol_of,
)
from ergotrans.ergopt import critical_value, deviation_I
from ergotrans.involution import (
    KernelSpec,
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
        # 2x mod 1 is the full 2-shift read through binary expansions
        orbit = next(o for o in periodic_orbits(DOUBLING, 2) if o.period == 2)
        ext = tr.natural_extension_measure(DOUBLING, orbit)
        for (x, y), _ in ext.atoms:
            # the past of (a0 a1)^inf is (a1 a0)^inf: 1/3 <-> 2/3
            assert abs(float(x) + float(y) - 1.0) < 1e-6
            assert abs(float(x) - float(y)) > 0.3
        assert [xy for xy, _ in ext.atoms] == [(THIRD, TWO_THIRDS), (TWO_THIRDS, THIRD)]

    def test_extension_orbit_is_forward_invariant(self):
        orbit = next(o for o in periodic_orbits(MINUS_DOUBLING, 3) if o.period == 3)
        ext = tr.natural_extension_measure(MINUS_DOUBLING, orbit)
        pairs = [xy for xy, _ in ext.atoms]
        for i, (x, y) in enumerate(pairs):
            # the skew forward map (x, y) -> (T x, tau_x y)
            nx = apply_map(MINUS_DOUBLING, x)
            ny = branch_point(MINUS_DOUBLING, symbol_of(MINUS_DOUBLING, x), y)
            tx, ty = pairs[(i + 1) % len(pairs)]
            assert abs(float(nx) - float(tx)) < 1e-12
            assert abs(float(ny) - float(ty)) < 1e-12

    @pytest.mark.parametrize("sys, orbit", [
        (DOUBLING, PeriodicOrbit((Fraction(0),), 1, (2,))),  # past point 2
        (DOUBLING, PeriodicOrbit((Fraction(0),), 1, (-1,))),
        (gauss_system(3), PeriodicOrbit((0.5,), 1, (0,))),  # past point 1.0
        (gauss_system(3), PeriodicOrbit((0.25,), 1, (4,))),
        (gauss_system(3), PeriodicOrbit((0.7, 0.4), 2, (1,))),  # was a bare IndexError
        (MINUS_DOUBLING, PeriodicOrbit((THIRD,), 2, (0, 1))),
        (MINUS_DOUBLING, PeriodicOrbit((THIRD, TWO_THIRDS), 1, (0,))),
        (MINUS_DOUBLING, PeriodicOrbit((), 0, ())),
    ], ids=["doubling-digit-2", "doubling-digit-minus-1", "gauss-digit-0", "gauss-digit-4",
            "short-itinerary", "short-points", "long-points", "period-0"])
    def test_malformed_orbit_rejected(self, sys, orbit):
        with pytest.raises(tr.TransportError):
            tr.natural_extension_measure(sys, orbit)

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

    def test_gauss_periodic_points_are_pinned(self):
        sys = gauss_system(30)
        for digits, x in (((1,), 0.6180339887498949), ((1, 2), 0.7320508075688772),
                          ((2, 1), 0.3660254037844386)):
            y = periodic_point(sys, digits)
            assert y == x
            # the extension measure keeps the past point as a plain float
            rev, p = digits[::-1], len(digits)
            orbit = PeriodicOrbit(tuple(periodic_point(sys, rev[i:] + rev[:i]) for i in range(p)),
                                  p, rev)
            past = tr.natural_extension_measure(sys, orbit).atoms[0][0][1]
            assert type(past) is float and past == x

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

    def test_empty_support_rejected(self):
        # it used to warn twice (mean of an empty slice) and raise a bare ValueError
        with pytest.raises(tr.TransportError, match="at least one atom"):
            tr.gamma_from_support(lambda x, y: 0.0, lambda x: 0.0, lambda x: 0.0, [])


@pytest.mark.parametrize("atoms", [
    ((0.1, math.nan),), ((0.1, 0.5), (0.7, math.nan)), ((math.nan, 1.0),),
    ((math.inf, 1.0),), (((0.5, math.nan), 1.0),), (((-math.inf, 0.5), 1.0),),
], ids=["weight", "second-weight", "point", "inf-point", "pair-y", "pair-x"])
def test_atomic_measure_rejects_non_finite(atoms):
    # NaN passed both the sign and the sum test of the weights
    with pytest.raises(tr.TransportError, match="finite"):
        tr.AtomicMeasure(atoms)


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

    @staticmethod
    def two_by_two(entry, w_value):
        """mu = (1/2, 1/2) on 0.2, 0.7 and nu at 0.3, 0.6 with weights w_nu;
        the cost is -x y except C[entry] = -w_value."""
        xs, ys = (0.2, 0.7), (0.3, 0.6)

        def fn(x, y):
            x, y = np.asarray(x), np.asarray(y)
            hit = (x == xs[entry[0]]) & (y == ys[entry[1]])
            return np.where(hit, w_value, x * y)

        mu = tr.AtomicMeasure(((xs[0], 0.5), (xs[1], 0.5)))
        return mu, xs, ys, tr.CostSpec(w=KernelSpec(fn, "entry"))

    @pytest.mark.parametrize("w_value,sign", [(-math.inf, "+inf"), (math.inf, "-inf")])
    def test_highs_refuses_an_infinite_entry_every_coupling_uses(self, w_value, sign):
        # column 0 holds 1/4 and row 0 holds 1/2, so every coupling puts at
        # least 1/4 on C[0, 1]; priced at 1e12 it read 2.5e11 for +inf and -inf
        mu, _, ys, cost = self.two_by_two((0, 1), w_value)
        nu = tr.AtomicMeasure(((ys[0], 0.25), (ys[1], 0.75)))
        assert cost.matrix(mu.points, nu.points)[0, 1] == float(sign)
        with pytest.raises(tr.TransportError, match=rf"\(0, 1\).* {re.escape(sign)}"):
            tr.solve_kantorovich(mu, nu, cost)

    def test_highs_plan_that_avoids_a_plus_inf_entry(self):
        # row 0's mass 1/2 fits in column 1 (3/4), so C[0, 0] = +inf is avoided
        mu, xs, ys, cost = self.two_by_two((0, 0), -math.inf)
        nu = tr.AtomicMeasure(((ys[0], 0.25), (ys[1], 0.75)))
        plan = tr.solve_kantorovich(mu, nu, cost)
        assert plan.method == "highs"
        assert plan.coupling.tolist() == [[0.0, 0.5], [0.25, 0.25]]
        assert plan.value == -(0.5 * (xs[0] * ys[1]) + 0.25 * (xs[1] * ys[0])
                               + 0.25 * (xs[1] * ys[1]))

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
    "closed_quadratic": quadratic_kernel(0.5, -1, 2),
    "gauss_log": gauss_log_kernel(),
    "cocycle_series": fundamental_kernel(
        MINUS_DOUBLING, polynomial_potential(0, 1, -1), Fraction(1, 2), depth=20),
    "explicit": example5_kernel(),
}


class TestCostMatrix:
    @pytest.mark.parametrize("form", list(KERNELS_BY_FORM))
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

    def test_infinite_deviation_wins_over_an_infinite_kernel(self):
        # W = +inf makes gamma - W = -inf; an infinite I still gives +inf,
        # in the matrix and for one pair, without an invalid-value warning
        W = KernelSpec(lambda x, y: np.where(np.asarray(x) > 0.5, np.inf, x * y), "inf")
        cost = tr.CostSpec(w=W, i_eval=lambda x: math.inf if x > 0.8 else 1.0)
        xs, ys = [0.25, 0.75, 0.9], [0.5]
        assert cost.matrix(xs, ys).tolist() == [[-0.125 + 1.0], [-math.inf], [math.inf]]
        assert [cost.cost(x, 0.5) for x in xs] == [-0.125 + 1.0, -math.inf, math.inf]


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
    return total + (c.cost(z, prev_y) - c.cost(prev_x, prev_y))


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

    def test_cyclical_witness_is_the_two_cycle(self):
        # at n_max 3 the enumeration's witness was the permutation (2, 1, 0)
        # of three atoms, which fixes the middle one, with slack
        # 0.7000000000000002; at n_max 5, two disjoint 2-cycles with slack
        # 0.8481481481481479 in all.  The rounds report the one 2-cycle; from
        # 4 atoms on the worst chain runs it twice, with twice its slack
        cost = self.costs()[0]
        for n_max, worst in ((2, 0.7), (3, 0.7), (5, 1.4)):
            rep = tr.cyclical_monotonicity_check(self.S, cost, n_max=n_max)
            assert (rep.passes, rep.worst_slack, rep.witness_permutation) == \
                (False, worst, (1, 0))
            assert rep.witness_subset == (self.S[0], self.S[4])
        assert scalar_cyclical(self.S, cost, 3) == \
            (0.7000000000000002, (self.S[0], self.S[1], self.S[4]), (2, 1, 0))
        assert scalar_cyclical(self.S, cost, 5)[0] == 0.8481481481481479

    def test_rochet_equals_scalar_chains(self):
        # S's own costs are finite without I; the Fraction support's atoms
        # end on the maximizing 2-cycle {1/3, 2/3}, so its I-costs are finite too
        cost_w, cost_i = self.costs()
        S2 = [(Fraction(1, 12), Fraction(5, 6)), (Fraction(1, 6), Fraction(3, 4)),
              (THIRD, TWO_THIRDS), (Fraction(5, 12), Fraction(1, 2)), (TWO_THIRDS, THIRD)]
        for S, cost in ((self.S, cost_w), (S2, cost_w), (S2, cost_i)):
            for z in (0.05, THIRD, 0.5, 0.95):
                brute = min(scalar_rochet(S, cost, 0, z, chain)
                            for n in range(4) for chain in itertools.product(S, repeat=n))
                assert tr.rochet_potential(S, cost, 0, z, tr.RochetMode.BRUTE_FORCE,
                                           chain_cap=3) == brute
                chain = [p for p in S[1:] if float(p[0]) < float(z)]
                assert tr.rochet_potential(S, cost, 0, z, tr.RochetMode.TWIST_ORDERED) \
                    == scalar_rochet(S, cost, 0, z, chain)

    @pytest.mark.parametrize("mode", list(tr.RochetMode))
    def test_rochet_refuses_an_atom_of_infinite_own_cost(self, mode):
        # the base atom 1/5 lies on the 4-cycle {1/5, 3/5, 4/5, 2/5} of -2x,
        # which is not maximizing, so its I is +inf; the dyadic floats 0.45
        # and 0.9 would end on the fixed point 0 too, but after about 54
        # steps, past this I's 50 terms
        cost = self.costs()[1]
        assert [math.isinf(cost.cost(x, y)) for x, y in self.S] == \
            [True, False, False, False, False]
        with pytest.raises(tr.TransportError, match=r"atom \(0.2, 0.8\) has infinite own cost"):
            tr.rochet_potential(self.S, cost, 0, 0.5, mode)


class MatrixCost:
    """A cost given by its matrix on (support x's and z) x (support y's):
    C[i][j] is the cost of the i-th x and the j-th y of the support, and
    the last row that of every x outside the support, such as z.  Asked
    for the rows of some x's and the columns of some y's, it answers them,
    and `cost` answers one pair."""

    def __init__(self, C, S):
        self.C = C
        self.rows = {x: i for i, (x, _) in enumerate(S)}
        self.cols = {y: j for j, (_, y) in enumerate(S)}

    def matrix(self, xs, ys):
        rows = [self.rows.get(x, len(self.C) - 1) for x in xs]
        return self.C[np.ix_(rows, [self.cols[y] for y in ys])]

    def cost(self, x, y):
        return float(self.matrix([x], [y])[0, 0])


def enumerated_rochet(C, base, chain_cap):
    """Least chain value over every chain of length <= chain_cap, z in the last row."""
    n = len(C) - 1

    def value(chain):
        prev, total = base, 0.0
        for i in chain:
            total += C[i][prev] - C[prev][prev]
            prev = i
        return total + (C[n][prev] - C[prev][prev])

    return min(value(chain) for k in range(chain_cap + 1)
               for chain in itertools.product(range(n), repeat=k))


@pytest.mark.parametrize("kind", ["random", "wide", "tied", "split fiber"])
def test_rochet_recursion_equals_chain_enumeration(kind):
    rng = np.random.default_rng({"random": 1, "wide": 2, "tied": 3, "split fiber": 4}[kind])
    for n in range(2, 6):
        for chain_cap in range(6):
            for _ in range(3):
                if kind == "wide":  # magnitudes far apart, so every addition rounds
                    C = rng.normal(size=(n + 1, n)) * 10.0 ** rng.integers(-8, 9, size=(n + 1, n))
                elif kind == "tied":  # few distinct values, so many chains tie
                    C = rng.integers(-2, 3, size=(n + 1, n)) / 4
                else:
                    C = rng.normal(size=(n + 1, n))
                S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(n)]
                if kind == "split fiber":  # atoms 0 and 1 share x, so they share a row
                    S[1] = (S[0][0], S[1][1])
                    C[1] = C[0]
                base = int(rng.integers(n))
                got = tr.rochet_potential(S, MatrixCost(C, S), base, 0.05,
                                          tr.RochetMode.BRUTE_FORCE, chain_cap=chain_cap)
                assert got == enumerated_rochet(C.tolist(), base, chain_cap)


def test_rochet_chain_through_minus_inf():
    # c(x_1, y_0) = -inf, so the chain 0 -> 1 reaches -inf; chains that also
    # step through c(x_0, y_1) = +inf read -inf + inf, which is no chain
    inf = math.inf
    C = np.array([[0.0, inf, 1.0], [-inf, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
    S = [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]
    for chain_cap in (1, 2, 3):
        got = tr.rochet_potential(S, MatrixCost(C, S), 0, 0.05, tr.RochetMode.BRUTE_FORCE,
                                  chain_cap=chain_cap)
        assert got == -inf


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

    def test_unknown_variant_is_rejected(self):
        xs = np.linspace(0, 1, 5)
        for variant in ("kernel-max", "min", ""):
            with pytest.raises(tr.TransportError):
                tr.conjugate_transform(xs, quadratic_kernel(0, 0, 1), xs, xs, variant=variant)

    def test_cost_min_evaluates_the_deviation_at_the_points_as_given(self):
        seen = []

        def I(x):
            seen.append(x)
            return 0.0 if isinstance(x, Fraction) else math.inf

        cost = tr.CostSpec(w=quadratic_kernel(0, 1, -1), gamma=0.5, i_eval=I)
        xs = [Fraction(k, 7) for k in range(8)]
        ys = [Fraction(1, 3), Fraction(2, 3)]
        f = np.linspace(-0.2, 0.2, len(xs))
        out = tr.conjugate_transform(f, cost, xs, ys, variant="cost_min")
        assert seen == xs and all(type(x) is Fraction for x in seen)
        want = (-f[:, None] + cost.matrix(xs, ys)).min(axis=0)
        assert np.array_equal(out, want) and np.all(np.isfinite(out))

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
    @staticmethod
    def quad_dirac_I(x):
        pre = get_preset("quad-dirac")
        return deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V, pre.m_exact,
                           x, n_terms=600, early_exit=False).value

    def test_certificate_on_quad_dirac(self):
        pre = get_preset("quad-dirac")
        mu = tr.AtomicMeasure.dirac(TWO_THIRDS)
        gamma = tr.gamma_from_support(pre.kernel, pre.closed_V, pre.closed_V,
                                      [(TWO_THIRDS, TWO_THIRDS)]).gamma
        cost = tr.CostSpec(w=pre.kernel, gamma=gamma, i_eval=self.quad_dirac_I)
        plan = tr.solve_kantorovich(mu, mu, cost)
        probe_x, probe_y = _slack_probes(MINUS_DOUBLING, [(TWO_THIRDS, TWO_THIRDS)])
        rep = tr.duality_certificate(pre.closed_V, pre.closed_V, cost, plan,
                                     probe_x, probe_y, mu, mu)
        assert rep.admissible and rep.slackness_ok
        assert math.isfinite(rep.worst_violation)
        assert rep.worst_atom_residual < 1e-12
        assert abs(rep.duality_gap) < 1e-12

    def test_no_finite_probe_row_is_not_admissible(self):
        # dyadic probes end on the fixed point 0 of -2x, which is not
        # maximizing: every row costs +inf, and a certificate that checks
        # nothing does not pass
        pre = get_preset("quad-dirac")
        mu = tr.AtomicMeasure.dirac(TWO_THIRDS)
        cost = tr.CostSpec(w=pre.kernel, gamma=-16.0 / 27.0, i_eval=self.quad_dirac_I)
        plan = tr.solve_kantorovich(mu, mu, cost)
        grid = [Fraction(2 * i + 1, 64) for i in range(32)]
        assert np.isinf(cost.matrix(grid, grid)).all()
        rep = tr.duality_certificate(pre.closed_V, pre.closed_V, cost, plan,
                                     grid, grid, mu, mu)
        assert rep.worst_violation == -math.inf
        assert not rep.admissible
        assert rep.slackness_ok and abs(rep.duality_gap) < 1e-12

    def test_tolerance_read_at_call_time(self, monkeypatch):
        # the quad-period2 instance of `ergotrans transport` passes at
        # DUALITY_TOL on its probes; below its worst violation both checks fail
        pre, mu, mu_star, cost, atoms, plan = transport_instance("quad-period2")
        probe_x, probe_y = _slack_probes(pre.system, atoms)
        args = (pre.closed_V, pre.closed_V, cost, plan, probe_x, probe_y, mu, mu_star)
        rep = tr.duality_certificate(*args)
        assert rep.admissible and rep.slackness_ok
        assert math.isfinite(rep.worst_violation)
        monkeypatch.setattr(tr, "DUALITY_TOL", rep.worst_violation - 1.0)
        rep = tr.duality_certificate(*args)
        assert not rep.admissible and not rep.slackness_ok

    def test_gamma_shift_absorbed(self):
        pre = get_preset("quad-dirac")
        mu = tr.AtomicMeasure.dirac(TWO_THIRDS)
        gamma = -16.0 / 27.0
        k = 0.37
        probe_x, probe_y = _slack_probes(MINUS_DOUBLING, [(TWO_THIRDS, TWO_THIRDS)])
        reports = []
        for g in (gamma, gamma + k):
            cost = tr.CostSpec(w=pre.kernel, gamma=g, i_eval=self.quad_dirac_I)
            plan = tr.solve_kantorovich(mu, mu, cost)
            reports.append(tr.duality_certificate(pre.closed_V, pre.closed_V, cost,
                                                  plan, probe_x, probe_y, mu, mu))
        assert reports[0].admissible and reports[1].admissible
        assert reports[1].constant_shift - reports[0].constant_shift == pytest.approx(k)
        assert abs(reports[1].duality_gap) < 1e-12


class TestCostTransform:
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

        fv = np.array([f(float(x)) for x in xs])
        f_sharp = tr.conjugate_transform(fv, cost, xs, ys, variant="cost_min")
        # f(x) + f#(y) <= c(x, y) on the probe grids, rows of infinite deviation skipped
        assert tr._worst_violation(fv[:, None] + f_sharp[None, :], cost.matrix(xs, ys)) <= 1e-10
        k = ys.index(Fraction(2, 3))
        # f#(p*) recovers -V*(p*) at the support atom
        assert f_sharp[k] == pytest.approx(0.0, abs=1e-10)


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

    def test_eight_cycle_needs_n_max_eight(self):
        # C[i][i] = 0, C[i + 1 mod 8][i] = -1 and 10 elsewhere: the one negative
        # cycle of the exchange graph steps i -> i + 1 round all 8 atoms
        n = 8
        C = np.full((n + 1, n), 10.0)
        C[np.arange(n), np.arange(n)] = 0.0
        C[(np.arange(n) + 1) % n, np.arange(n)] = -1.0
        S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(n)]
        rep = tr.cyclical_monotonicity_check(S, MatrixCost(C, S), n_max=7)
        assert rep.passes and rep.worst_slack < 0
        for n_max in (8, 9, 100):
            rep = tr.cyclical_monotonicity_check(S, MatrixCost(C, S), n_max=n_max)
            assert (rep.passes, rep.worst_slack, rep.witness_subset) == (False, 8.0, tuple(S))
            assert rep.witness_permutation == (1, 2, 3, 4, 5, 6, 7, 0)

    def test_n_max_below_two_rejected(self):
        # n_max 2 finds the swapped pair's violation; below 2 no cycle is
        # checked, which used to report passes=True with slack 0.0
        cost = tr.CostSpec(w=example5_kernel())
        swapped = [(THIRD, TWO_THIRDS), (TWO_THIRDS, THIRD)]
        rep = tr.cyclical_monotonicity_check(swapped, cost, 2)
        assert not rep.passes and rep.worst_slack == pytest.approx(4 / 27, abs=1e-14)
        for n_max in (1, 0, -1):
            with pytest.raises(tr.TransportError, match="n_max"):
                tr.cyclical_monotonicity_check(swapped, cost, n_max)

    @pytest.mark.parametrize("n_max", [3.0, 2.5, "3"])
    def test_non_int_n_max_rejected(self, n_max):
        # a float n_max used to run as the int it equals
        cost = tr.CostSpec(w=example5_kernel())
        swapped = [(THIRD, TWO_THIRDS), (TWO_THIRDS, THIRD)]
        with pytest.raises(tr.TransportError, match="n_max must be an int"):
            tr.cyclical_monotonicity_check(swapped, cost, n_max=n_max)


class TestTwistOrder:
    def test_anti_monotone_passes(self):
        plan = tr.TransportPlan(np.diag([0.5, 0.5]), 0.0, (0.2, 0.7), (0.8, 0.1), "constructed")
        assert tr.graph_check(plan).monotone_nonincreasing

    def test_monotone_pair_fails(self):
        plan = tr.TransportPlan(np.diag([0.5, 0.5]), 0.0, (0.2, 0.7), (0.1, 0.8), "constructed")
        rep = tr.graph_check(plan)
        assert rep.is_graph and not rep.monotone_nonincreasing

    def test_twist_optimal_plan_is_anti_monotone(self):
        cost = tr.CostSpec(w=example6_kernel())
        mu = tr.AtomicMeasure.uniform([THIRD, TWO_THIRDS])
        plan = tr.solve_kantorovich(mu, mu, cost)
        assert tr.graph_check(plan).monotone_nonincreasing
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

    @pytest.mark.parametrize("mode", list(tr.RochetMode))
    @pytest.mark.parametrize("base", [-2, -1, 2, 5, 0.0, 1.5, True, "0"])
    def test_base_outside_the_support_rejected(self, mode, base):
        # a negative index would silently pick an atom from the end; a
        # float, a bool or a string is not an index at all
        with pytest.raises(tr.TransportError, match="atom index"):
            tr.rochet_potential(self.anti_support(), self.cost6(), base, 0.5, mode)

    @pytest.mark.parametrize("mode", list(tr.RochetMode))
    def test_numpy_integer_base_is_its_int(self, mode):
        want = tr.rochet_potential(self.anti_support(), self.cost6(), 0, 0.5, mode)
        got = tr.rochet_potential(self.anti_support(), self.cost6(), np.int64(0), 0.5, mode)
        assert got == want and isinstance(got, float)


class TestBFunction:
    def test_all_zero_case(self):
        assert tr.b_function(0.3, 0.8, lambda x, y: 0.0, lambda x: 0.0,
                             lambda x: 0.0, 0.0) == 0.0

    def test_zero_on_support_atom(self):
        pre = get_preset("quad-dirac")
        b = tr.b_function(TWO_THIRDS, TWO_THIRDS, pre.kernel, pre.closed_V,
                          pre.closed_V, -16 / 27)
        assert abs(b) < 1e-14

    def test_positive_off_support(self, monkeypatch):
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
                               x, n_terms=2000, early_exit=False).value

        monkeypatch.setattr("ergotrans.ergopt.CAP_I", 100.0)
        assert tr.b_function(Fraction(0), Fraction(0), pre.kernel, pre.closed_V,
                             pre.closed_V, -16 / 27, I_inf) == math.inf


# ---------------------------------------------------------------- assignment


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_near_uniform_marginals_take_the_lp(eps):
    # weights that are almost, not exactly, equal: a permutation cannot
    # carry them, so the instance goes to HiGHS
    mu = tr.AtomicMeasure(((0.25, 0.5 + eps), (0.75, 0.5 - eps)))
    mu_star = tr.AtomicMeasure.uniform([0.25, 0.75])
    plan = tr.solve_kantorovich(mu, mu_star, tr.CostSpec(w=example6_kernel()))
    assert plan.method == "highs"
    np.testing.assert_allclose(plan.coupling.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.coupling.sum(axis=0), mu_star.weights, rtol=0, atol=1e-12)


def uniform_instance(n, seed):
    rng = np.random.default_rng(seed)
    xs = [float(v) for v in rng.permutation(np.linspace(0.01, 0.99, n) + rng.uniform(0, 1e-3, n))]
    ys = [float(v) for v in rng.uniform(0, 1, n)]
    return tr.AtomicMeasure.uniform(xs), tr.AtomicMeasure.uniform(ys)


@pytest.mark.parametrize("n", [9, 16, 64])
@pytest.mark.parametrize("kname", ["W1", "ex5", "ex6"])
def test_assignment_matches_highs(n, kname):
    W = {"W1": quadratic_kernel(0, 1, 0), "ex5": example5_kernel(), "ex6": example6_kernel()}[kname]
    for seed in range(3):
        mu, mu_star = uniform_instance(n, seed)
        cost = tr.CostSpec(w=W, gamma=0.25)
        plan = tr.solve_kantorovich(mu, mu_star, cost)
        assert plan.method == "assignment"
        C = cost.matrix(mu.points, mu_star.points)
        _, ref_value = tr._solve_highs(C, mu.weights, mu_star.weights)
        assert abs(plan.value - ref_value) <= 1e-9
        P = plan.coupling
        np.testing.assert_allclose(P.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(P.sum(axis=0), mu_star.weights, rtol=0, atol=1e-12)
        if kname == "W1":  # mixed partial 0: every coupling is optimal
            continue
        # an exact permutation matrix carrying the row weights
        assert np.count_nonzero(P) == n
        assert np.all(np.count_nonzero(P, axis=0) == 1) and np.all(np.count_nonzero(P, axis=1) == 1)
        assert np.all(P[P != 0] == mu.weights[0])
        # the value is summed row by row from 0.0
        perm = np.argmax(P, axis=1)
        value = 0.0
        for i in range(n):
            value += C[i, perm[i]] * mu.weights[i]
        assert plan.value == value
        # strict twist: the support is the monotone rearrangement
        # (example 5: c has negative mixed partial, comonotone; example 6 anti-monotone)
        xs, ys = sorted(mu.points), sorted(mu_star.points)
        if kname == "ex6":
            ys = ys[::-1]
        assert sorted(plan.support_pairs()) == sorted(zip(xs, ys))


@pytest.mark.parametrize("n", range(1, 10))
def test_square_uniform_methods_by_size(n):
    mu, mu_star = uniform_instance(n, 5)
    plan = tr.solve_kantorovich(mu, mu_star, tr.CostSpec(w=example6_kernel()))
    assert plan.method == ("permutation_enumeration" if n <= 8 else "assignment")


def dense_marginal_matrix(n, m):
    """The equality matrix of an n x m plan as np.kron builds it."""
    return np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (3, 2), (5, 5), (7, 11), (11, 11)])
def test_marginal_matrix_is_the_sparse_kron(n, m):
    from scipy.sparse import issparse

    A = tr._marginal_matrix(n, m)
    assert issparse(A) and A.nnz == 2 * n * m
    assert np.array_equal(A.toarray(), dense_marginal_matrix(n, m))


def test_highs_on_sparse_matrix_equals_dense_build():
    # the LP with the sparse equality matrix gives the dense build's
    # coupling and value bit for bit, on instances up to 11 x 11 with
    # random and uniform weights, ties and a +inf cost priced at 1e12; a
    # solution that puts mass on the +inf entry is refused
    from scipy.optimize import linprog

    rng = np.random.default_rng(15)
    outcomes = []
    for t in range(40):
        n, m = (int(k) for k in rng.integers(1, 12, 2))
        C = rng.normal(size=(n, m))
        if t % 3 == 0:
            C = np.round(C, 1)
        if t % 5 == 0:
            C[rng.integers(n), rng.integers(m)] = np.inf
        wr = np.full(n, 1.0 / n) if t % 4 == 0 else rng.random(n)
        wc = rng.random(m)
        wr, wc = wr / wr.sum(), wc / wc.sum()
        ref = linprog(np.where(np.isinf(C), 1e12, C).ravel(), A_eq=dense_marginal_matrix(n, m),
                      b_eq=np.concatenate([wr, wc]), bounds=(0, None), method="highs")
        P_ref = ref.x.reshape(n, m)
        if np.any(np.isinf(C) & (P_ref > 0)):
            outcomes.append("refused")
            with pytest.raises(tr.TransportError, match=r"\+inf cost entry"):
                tr._solve_highs(C, wr, wc)
            continue
        outcomes.append("avoided" if np.isinf(C).any() else "finite")
        P, val = tr._solve_highs(C, wr, wc)
        assert np.array_equal(P, P_ref) and val == float(ref.fun)
    assert {"refused", "avoided", "finite"} <= set(outcomes)


def test_infinite_cost_square_uniform_takes_highs():
    # a kernel of -inf on a few pairs: c = +inf there, so no assignment solve
    def fn(x, y):
        return np.where(x + y > 1.6, -np.inf, x * y)

    mu, mu_star = uniform_instance(9, 1)
    plan = tr.solve_kantorovich(mu, mu_star, tr.CostSpec(w=KernelSpec(fn, "cut")))
    assert plan.method == "highs"


# ------------------------------------------------- chain-only Rochet potential


def full_matrix_twist_rochet(S, c, base, z):
    """TWIST_ORDERED as a walk over the full cost matrix, z in the last row."""
    pts = list(S)
    zv = float(z)
    C = c.matrix([x for x, _ in pts] + [zv], [y for _, y in pts]).tolist()
    ordered = sorted(range(len(pts)), key=lambda i: float(pts[i][0]))
    prev, total = base, 0.0
    for i in (i for i in ordered[1:] if float(pts[i][0]) < zv):
        total += C[i][prev] - C[prev][prev]
        prev = i
    return total + (C[-1][prev] - C[prev][prev])


def anti_monotone_support(rng, n):
    xs = np.sort(rng.uniform(0, 1, n))
    ys = np.sort(rng.uniform(0, 1, n))[::-1]
    pts = [(Fraction(x).limit_denominator(1 << 20) if k % 2 else float(x), float(y))
           for k, (x, y) in enumerate(zip(xs, ys))]
    return pts


def refuses_an_atom(S, cost):
    """Whether an atom of S has infinite own cost, which rochet_potential refuses."""
    return any(math.isinf(cost.cost(x, y)) for x, y in S)


class TestChainOnlyRochet:
    def costs(self):
        def I(x):
            # +inf on every atom right of 0.7, as for a non-maximizing cycle
            return math.inf if float(x) > 0.7 else float(x) ** 2

        return [tr.CostSpec(w=example6_kernel()),
                tr.CostSpec(w=quadratic_kernel(0.1, -0.7, 0.4), gamma=-0.3),
                tr.CostSpec(w=example5_kernel(), gamma=0.2, i_eval=I)]

    def test_equals_full_matrix_walk(self):
        rng = np.random.default_rng(41)
        for cost in self.costs():
            for n in range(1, 12):
                S = anti_monotone_support(rng, n)
                zs = [*rng.uniform(0, 1, 6), float(S[0][0]) / 2, 0.999, THIRD]
                if refuses_an_atom(S, cost):
                    with pytest.raises(tr.TransportError, match="infinite own cost"):
                        tr.rochet_potential(S, cost, 0, zs[0], tr.RochetMode.TWIST_ORDERED)
                    # the atoms of finite own cost, the leftmost first still
                    S = [(x, y) for x, y in S if math.isfinite(cost.cost(x, y))]
                for z in zs if S else ():
                    got = tr.rochet_potential(S, cost, 0, z, tr.RochetMode.TWIST_ORDERED)
                    assert got.hex() == full_matrix_twist_rochet(S, cost, 0, z).hex()

    def test_empty_chain(self):
        # z left of every atom but the base: only c(x0, y0) and c(z, y0) are
        # read; every atom is left of 0.7, where the third cost's I is finite
        for cost in self.costs():
            S = [(0.2, 0.9), (0.5, 0.5), (0.65, 0.1)]
            got = tr.rochet_potential(S, cost, 0, 0.3, tr.RochetMode.TWIST_ORDERED)
            assert got.hex() == (cost.cost(0.3, 0.9) - cost.cost(0.2, 0.9)).hex()
            assert got.hex() == full_matrix_twist_rochet(S, cost, 0, 0.3).hex()

    def test_infinite_atom_refused_infinite_z_row_propagates(self):
        cost = self.costs()[2]
        # an atom with I = +inf carries no mass in a plan, and a chain through
        # it would read inf - inf: both modes refuse the support
        S = [(0.2, 0.9), (0.5, 0.5), (0.8, 0.1)]
        for mode in tr.RochetMode:
            with pytest.raises(tr.TransportError, match=r"atom \(0.8, 0.1\) has infinite own"):
                tr.rochet_potential(S, cost, 0, 0.3, mode)
        # z itself has I = +inf: the potential is +inf, as in the full matrix
        S = [(0.2, 0.9), (0.5, 0.5), (0.65, 0.1)]
        got = tr.rochet_potential(S, cost, 0, 0.75, tr.RochetMode.TWIST_ORDERED)
        assert got == math.inf == full_matrix_twist_rochet(S, cost, 0, 0.75)

    def test_check_10_instance(self):
        from ergotrans.accept import Z_GRID, transport_instance

        _, _, _, cost, _, plan = transport_instance("quad-convex")
        S = sorted(plan.support_pairs(), key=lambda p: float(p[0]))
        for z in np.linspace(0.01, 0.99, Z_GRID):
            got = tr.rochet_potential(S, cost, 0, float(z), tr.RochetMode.TWIST_ORDERED)
            assert got.hex() == full_matrix_twist_rochet(S, cost, 0, float(z)).hex()

    def test_reads_no_scalar_kernel_call(self, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError("scalar kernel call")

        monkeypatch.setattr(type(example6_kernel()), "__call__", refuse)
        S = [(0.2, 0.9), (0.5, 0.5), (0.8, 0.1)]
        tr.rochet_potential(S, tr.CostSpec(w=example6_kernel()), 0, 0.9,
                            tr.RochetMode.TWIST_ORDERED)

    def test_aligned_costs_equal_matrix_entries(self):
        rng = np.random.default_rng(3)
        xs = [float(v) for v in rng.uniform(0, 1, 7)] + [THIRD]
        ys = [float(v) for v in rng.uniform(0, 1, 5)] + [TWO_THIRDS]
        for cost in self.costs() + [tr.CostSpec(w=gauss_log_kernel(), gamma=0.5)]:
            C = cost.matrix(xs, ys)
            ii, jj = np.meshgrid(np.arange(len(xs)), np.arange(len(ys)), indexing="ij")
            px, py = [xs[i] for i in ii.ravel()], [ys[j] for j in jj.ravel()]
            got = cost._costs(px, np.array([float(x) for x in px]), np.array([float(y) for y in py]))
            assert got.reshape(C.shape).tobytes() == C.tobytes()


# ------------------------------------------- Rochet table and input checks


def chain_walk_rochet(S, c, base, z):
    """TWIST_ORDERED as one chain walk per z: the atoms left of z, and the
    2k + 2 costs the chain reads from one aligned array."""
    pts = list(S)
    zv = float(z)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    xr = [float(x) for x in xs]
    ordered = sorted(range(len(pts)), key=xr.__getitem__)
    walk = [base] + [i for i in ordered[1:] if xr[i] < zv]
    k = len(walk) - 1
    xw = [xr[i] for i in walk]
    yw = [float(ys[i]) for i in walk]
    vals = c._costs([xs[i] for i in walk] + [xs[i] for i in walk[1:]] + [zv],
                    np.array(xw + xw[1:] + [zv]), np.array(yw + yw[:-1] + yw[-1:])).tolist()
    diag, step, z_cost = vals[:k + 1], vals[k + 1:2 * k + 1], vals[-1]
    total = 0.0
    for t in range(k):
        total += step[t] - diag[t]
    total += z_cost - diag[k]
    return float(total)


class TestRochetTable:
    SUPPORTS = {
        "float": [(0.12, 0.93), (0.3, 0.71), (0.45, 0.5), (0.61, 0.33), (0.86, 0.07)],
        "fraction": [(Fraction(1, 7), Fraction(6, 7)), (THIRD, TWO_THIRDS),
                     (Fraction(4, 7), Fraction(3, 7)), (TWO_THIRDS, THIRD)],
        "ties": [(0.2, 0.9), (0.5, 0.6), (0.5, 0.4), (0.5, 0.3), (0.8, 0.1), (0.8, 0.05)],
        "leftmost tie": [(0.2, 0.9), (0.2, 0.8), (0.6, 0.4)],
    }

    def costs(self):
        def I(x):
            # +inf on every atom right of 0.7, as for a non-maximizing cycle
            return math.inf if float(x) > 0.7 else float(x) ** 2

        return [tr.CostSpec(w=example6_kernel()),
                tr.CostSpec(w=quadratic_kernel(0.1, -0.7, 0.4), gamma=-0.3),
                tr.CostSpec(w=example5_kernel(), gamma=0.2, i_eval=I)]

    def zs(self, S):
        # every atom's x as given and as a float, and points between and outside
        return ([x for x, _ in S] + [float(x) for x, _ in S]
                + [0.0, 0.01, 0.25, THIRD, 0.5, 0.7, 0.99, 1.0])

    def check(self, S, cost, base=0):
        if refuses_an_atom(S, cost):
            with pytest.raises(tr.TransportError, match="infinite own cost"):
                tr.rochet_potential(S, cost, base, 0.5, tr.RochetMode.TWIST_ORDERED)
            return
        for z in self.zs(S):
            got = tr.rochet_potential(S, cost, base, z, tr.RochetMode.TWIST_ORDERED)
            assert got.hex() == chain_walk_rochet(S, cost, base, z).hex()

    def check_brute(self, S, cost, chain_cap=2):
        for z in self.zs(S):
            got = tr.rochet_potential(S, cost, 0, z, tr.RochetMode.BRUTE_FORCE, chain_cap=chain_cap)
            want = min(scalar_rochet(S, cost, 0, z, chain) for k in range(chain_cap + 1)
                       for chain in itertools.product(S, repeat=k))
            assert got.hex() == want.hex()

    @staticmethod
    def count_costs(monkeypatch):
        """Record the number of x's of every CostSpec.matrix and _costs call."""
        calls = {"matrix": [], "_costs": []}
        for name, sizes in calls.items():
            def counted(self, xs, *rest, _f=getattr(tr.CostSpec, name), _sizes=sizes):
                _sizes.append(len(xs))
                return _f(self, xs, *rest)

            monkeypatch.setattr(tr.CostSpec, name, counted)
        return calls

    @pytest.mark.parametrize("name", sorted(SUPPORTS))
    def test_equals_chain_walk(self, name):
        for cost in self.costs():
            self.check(self.SUPPORTS[name], cost)

    def test_infinite_atom_refused_infinite_z_gives_inf(self):
        cost = self.costs()[2]
        S = self.SUPPORTS["float"]  # its last atom, x = 0.86, has I = +inf
        for mode in tr.RochetMode:
            with pytest.raises(tr.TransportError, match=r"atom \(0.86, 0.07\)"):
                tr.rochet_potential(S, cost, 0, 0.5, mode)
        S = S[:-1]
        got = [tr.rochet_potential(S, cost, 0, z, tr.RochetMode.TWIST_ORDERED)
               for z in (0.9, 0.75, 0.5)]
        assert got[0] == got[1] == math.inf and math.isfinite(got[2])
        self.check(S, cost)
        self.check_brute(S, cost)

    def test_alternating_supports_and_costs(self):
        cost_a, cost_b, _ = self.costs()
        S1, S2 = self.SUPPORTS["float"], self.SUPPORTS["fraction"]
        # the same length as S1, with other points
        S3 = [(x + 0.01, y) for x, y in S1]
        for _ in range(2):
            for S, cost in ((S1, cost_a), (S2, cost_a), (S1, cost_b), (S3, cost_b),
                            (S1, cost_b), (S3, cost_a)):
                self.check(S, cost)

    def test_mutated_list_is_read_again(self):
        cost = self.costs()[0]
        S = list(self.SUPPORTS["float"])
        self.check(S, cost)
        self.check_brute(S, cost)
        S[2] = (0.47, 0.52)
        self.check(S, cost)
        self.check_brute(S, cost)
        S.reverse()
        S.insert(0, S.pop())
        self.check(S, cost)
        self.check_brute(S, cost)

    def test_list_pairs_mutated_in_place(self):
        cost = self.costs()[1]
        S = [list(p) for p in self.SUPPORTS["float"]]
        self.check(S, cost)
        self.check_brute(S, cost)
        S[1][1] = 0.75
        S[3][0] = 0.62
        self.check(S, cost)
        self.check_brute(S, cost)

    def test_brute_table_equals_scalar_chains(self):
        for cost in self.costs()[:2]:
            for S in (self.SUPPORTS["fraction"], self.SUPPORTS["ties"]):
                for chain_cap in (0, 1, 3):
                    self.check_brute(S, cost, chain_cap)

    def test_cache_clear_empties_the_memo(self):
        S, cost = self.SUPPORTS["float"], self.costs()[0]
        for mode in tr.RochetMode:
            tr.rochet_potential(S, cost, 0, 0.5, mode)
        assert set(tr._ROCHET_MEMO) == set(tr.RochetMode)
        assert all(entry[0] is cost for entry in tr._ROCHET_MEMO.values())
        tr._rochet_table.cache_clear()
        assert tr._ROCHET_MEMO == {}
        self.check(S, cost)
        self.check_brute(S, cost)

    def test_one_table_per_support_and_mode(self, monkeypatch):
        # the float support without its atom of infinite I
        S, cost = self.SUPPORTS["float"][:-1], self.costs()[2]
        n, zs = len(S), np.linspace(0.01, 0.99, 50).tolist()
        tr._rochet_table.cache_clear()
        calls = self.count_costs(monkeypatch)
        for z in zs:
            tr.rochet_potential(S, cost, 0, z, tr.RochetMode.BRUTE_FORCE)
        # the support's matrix once, then one row per z; each matrix is one _costs call
        assert calls["matrix"] == [n] + [1] * 50 and calls["_costs"] == calls["matrix"]
        calls["matrix"].clear(), calls["_costs"].clear()
        for z in zs:
            tr.rochet_potential(S, cost, 0, z, tr.RochetMode.TWIST_ORDERED)
        # the support's matrix once, then one scalar cost per z
        assert calls["matrix"] == [n] and calls["_costs"] == [n] + [1] * 50

    def test_alternating_modes_rebuild_nothing(self, monkeypatch):
        # check 10's pattern: a brute-force and a twist-ordered call per z
        _, _, _, cost, _, plan = transport_instance("quad-convex")
        S = sorted(plan.support_pairs(), key=lambda p: float(p[0]))
        n = len(S)
        tr._rochet_table.cache_clear()
        calls = self.count_costs(monkeypatch)
        for z in np.linspace(0.01, 0.99, 50).tolist():
            tr.rochet_potential(S, cost, 0, z, tr.RochetMode.BRUTE_FORCE, chain_cap=5)
            tr.rochet_potential(S, cost, 0, z, tr.RochetMode.TWIST_ORDERED)
        # the first z builds each mode's table, one support matrix each, before
        # that mode prices z: a matrix row for brute force, a scalar cost twist-ordered
        assert calls["matrix"] == [n, 1, n] + [1] * 49
        assert calls["_costs"] == [n, 1, n, 1] + [1] * 98

    @pytest.mark.parametrize("mode", list(tr.RochetMode))
    def test_z_is_priced_as_given(self, mode):
        # a float z would walk -2x onto the fixed point 0, whose I is +inf
        _, _, _, cost, _, plan = transport_instance("quad-period2")
        S = sorted(plan.support_pairs(), key=lambda p: float(p[0]))
        got = [tr.rochet_potential(S, cost, 0, z, mode)
               for z in (Fraction(1, 6), Fraction(5, 6), THIRD)]
        assert got == [0.06481481481481483, 0.13888888888888878, 0.0]

    @pytest.mark.parametrize("mode", list(tr.RochetMode))
    @pytest.mark.parametrize("chain_cap", [-3, -1, 1.5, 2.0, "2", None])
    def test_chain_cap_must_be_a_nonnegative_int(self, mode, chain_cap):
        with pytest.raises(tr.TransportError, match="chain_cap"):
            tr.rochet_potential(self.SUPPORTS["float"], self.costs()[0], 0, 0.5, mode,
                                chain_cap=chain_cap)

    @pytest.mark.parametrize("mode", list(tr.RochetMode))
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_z_must_be_finite(self, mode, z):
        with pytest.raises(tr.TransportError, match="finite"):
            tr.rochet_potential(self.SUPPORTS["float"], self.costs()[0], 0, z, mode)


def test_support_equals_entry_loop():
    rng = np.random.default_rng(5)
    rows, cols = (THIRD, 0.4, Fraction(5, 7)), (0.1, TWO_THIRDS, 0.9, Fraction(1, 5))
    for P in (rng.uniform(0, 1, (3, 4)) * (rng.uniform(0, 1, (3, 4)) > 0.5),
              np.eye(3, 4) * 1e-12, np.zeros((3, 4))):
        plan = tr.TransportPlan(P, 0.0, rows, cols, "constructed")
        for tol in (tr.SUPPORT_TOL, 0.3):
            want = [(x, y, float(P[i, j])) for i, x in enumerate(rows)
                    for j, y in enumerate(cols) if P[i, j] > tol]
            got = plan.support(tol)
            assert got == want
            assert all(type(a) is type(b) for g, w in zip(got, want) for a, b in zip(g, w))


@pytest.mark.parametrize("n", [1, 4, 7])
def test_permutations_are_built_once_and_read_only(n):
    P = tr._permutations(n)
    assert P is tr._permutations(n)
    assert P.tolist() == [list(p) for p in itertools.permutations(range(n))]
    with pytest.raises(ValueError):
        P[0, 0] = 1


# ------------------------------------------------ cyclical monotonicity rounds


class CachedCost:
    """A cost whose scalar calls are memoized, for the enumerations."""

    def __init__(self, c):
        self.cost = functools.lru_cache(maxsize=None)(c.cost)


def simple_cycles(n, k_max):
    """Every simple cycle of 2..k_max of n atoms, once, its least atom first."""
    for k in range(2, k_max + 1):
        for sub in itertools.combinations(range(n), k):
            for rest in itertools.permutations(sub[1:]):
                yield (sub[0],) + rest


def cycle_slack(S, c, cycle):
    """Slack of the cycle in which the x of cycle[t + 1] takes the y of
    cycle[t]: the own costs in index order from 0.0, minus the permuted
    costs in the same order."""
    nxt = dict(zip(cycle, cycle[1:] + cycle[:1]))
    own = permuted = 0.0
    for a in sorted(cycle):
        own += c.cost(*S[a])
        permuted += c.cost(S[nxt[a]][0], S[a][1])
    return own - permuted


def closed_walks(n, L):
    """Every closed walk of L exchange steps on n atoms, as its atom
    sequence: no atom follows itself, the first after the last included."""
    for walk in itertools.product(range(n), repeat=L):
        if all(walk[t] != walk[t - 1] for t in range(L)):
            yield walk


def walk_slack(S, c, walk):
    """Slack of the chain of the walk's atoms, with repeats: the x of
    walk[t + 1] takes the y of walk[t]."""
    return sum(c.cost(*S[a]) - c.cost(S[b][0], S[a][1])
               for a, b in zip(walk, walk[1:] + walk[:1]))


def cycle_cost(n, steps, other):
    """A `MatrixCost` matrix on n atoms with a zero diagonal, E[i, j] =
    steps[(i, j)] for the listed steps and `other` for the rest; the last
    row, of every x outside the support, is zero."""
    E = np.full((n, n), other)
    for (i, j), v in steps.items():
        E[i, j] = v
    np.fill_diagonal(E, 0.0)
    return np.vstack([E.T, np.zeros(n)])


def witness_cycle(S, rep):
    """The report's witness as one cycle of atom indices, or None if its
    permutation is not a single cycle through every atom of its subset."""
    idx = [S.index(p) for p in rep.witness_subset]
    assert idx == sorted(idx)
    cycle, pos = [], 0
    while pos not in cycle:
        cycle.append(pos)
        pos = rep.witness_permutation[pos]
    if len(cycle) < 2 or pos != 0 or sorted(cycle) != list(range(len(idx))):
        return None
    return tuple(idx[p] for p in cycle)


class TestCyclicalRounds:
    def costs(self):
        def I(x):
            return 0.5 * float(x)

        return [tr.CostSpec(w=example5_kernel()), tr.CostSpec(w=example6_kernel(), i_eval=I),
                tr.CostSpec(w=quadratic_kernel(0.3, -1.2, 0.5), gamma=0.1)]

    def supports(self, rng):
        # for each size a random support, and an x-sorted one paired with
        # decreasing y, which passes under the twist kernel example6
        for n in range(2, 8):
            yield [(float(x), float(y)) for x, y in rng.uniform(0, 1, (n, 2))]
            xs, ys = np.sort(rng.uniform(0, 1, n)), np.sort(rng.uniform(0, 1, n))[::-1]
            yield list(zip(xs.tolist(), ys.tolist()))

    def near_tolerance(self):
        """Supports of 4 atoms whose cycles' slacks lie near CYCLICAL_TOL."""
        tol = tr.CYCLICAL_TOL
        S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(4)]
        ring = [(i, (i + 1) % 4) for i in range(4)]
        for k in (0.2, 0.45):
            # 2-cycles (0, 1) and (0, 2) of slack 2k, the 4-cycle 0 -> 1 -> 3
            # -> 2 -> 0 of slack 3k, in units of tol
            steps = {(0, 1): -k, (1, 0): -k, (0, 2): -k, (2, 0): -k,
                     (1, 3): -k / 2, (3, 2): -k / 2}
            yield S, MatrixCost(cycle_cost(4, {e: v * tol for e, v in steps.items()}, 1.0), S)
        for slack in (0.5, 1.5):
            # the one negative cycle is the 4-cycle 0 -> 1 -> 2 -> 3 -> 0
            steps = {e: -slack * tol / 4 for e in ring}
            yield S, MatrixCost(cycle_cost(4, steps, 10.0), S)

    def test_verdict_equals_the_enumeration(self):
        rng = np.random.default_rng(17)
        verdicts = set()
        cases = [(S, cost, CachedCost(cost)) for cost in self.costs() for S in self.supports(rng)]
        for S, cost, scalar in cases + [(S, cost, cost) for S, cost in self.near_tolerance()]:
            for n_max in range(2, len(S) + 1):
                rep = tr.cyclical_monotonicity_check(S, cost, n_max=n_max)
                worst = scalar_cyclical(S, scalar, n_max)[0]
                assert rep.passes == (worst <= tr.CYCLICAL_TOL)
                verdicts.add(rep.passes)
        assert verdicts == {True, False}

    def test_witness_and_worst_slack(self):
        rng = np.random.default_rng(23)
        negative = 0  # checks of n_max >= 4 with a negative worst slack
        for cost in self.costs():
            scalar = CachedCost(cost)
            for S in self.supports(rng):
                n = len(S)
                cycles = [-math.inf] * (n + 1)  # the largest simple-cycle slack of <= L atoms
                chains = [-math.inf] * (n + 1)  # the largest chain slack of <= L atoms
                for cycle in simple_cycles(n, n):
                    cycles[len(cycle)] = max(cycles[len(cycle)], cycle_slack(S, scalar, cycle))
                for L in range(2, min(n, 5) + 1):
                    chains[L] = max(walk_slack(S, scalar, w) for w in closed_walks(n, L))
                cycles = list(itertools.accumulate(cycles, max))
                chains = list(itertools.accumulate(chains, max))
                for n_max in range(2, n + 1):
                    rep = tr.cyclical_monotonicity_check(S, cost, n_max=n_max)
                    cycle = witness_cycle(S, rep)
                    assert cycle is not None and len(cycle) <= n_max
                    assert all(type(p) is int for p in rep.witness_permutation)
                    slack = cycle_slack(S, scalar, cycle)
                    assert slack <= rep.worst_slack + 1e-12
                    # every closed walk of 2 or 3 steps is a simple cycle, and a
                    # walk of several cycles is worst only at a slack >= 0
                    if n_max <= 3 or rep.worst_slack < 0:
                        assert slack.hex() == rep.worst_slack.hex()
                        negative += n_max > 3 and rep.worst_slack < 0
                    # every simple cycle is a chain, and the worst chain is found
                    assert rep.worst_slack >= cycles[n_max] - 1e-12
                    if n <= 5:
                        assert rep.worst_slack == pytest.approx(chains[n_max], rel=0, abs=1e-12)
        assert negative

    def test_a_longer_cycle_behind_shorter_ones_still_counts(self):
        # The 2-cycles (0, 1) and (0, 2) have slack 2 each and the 4-cycle
        # 0 -> 1 -> 3 -> 2 -> 0 slack 3, but the least closed walk of 4 steps
        # runs both 2-cycles: the worst chain has slack 4, and the witness
        # is the first of its cycles, of slack 2
        S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(4)]
        steps = {(0, 1): -1.0, (1, 0): -1.0, (0, 2): -1.0, (2, 0): -1.0,
                 (1, 3): -0.5, (3, 2): -0.5}
        cost = MatrixCost(cycle_cost(4, steps, 1.0), S)
        assert max(cycle_slack(S, cost, cycle) for cycle in simple_cycles(4, 4)) == \
            cycle_slack(S, cost, (0, 1, 3, 2)) == scalar_cyclical(S, cost, 4)[0] == 3.0
        rep = tr.cyclical_monotonicity_check(S, cost, n_max=4)
        assert (rep.passes, rep.worst_slack, rep.witness_subset) == (False, 4.0, (S[0], S[1]))
        # scaled so that the 2-cycles pass and the 4-cycle does not: the
        # support fails, as the enumeration failed it
        tol = tr.CYCLICAL_TOL
        cost = MatrixCost(cycle_cost(4, {e: 0.45 * tol * v for e, v in steps.items()}, 1.0), S)
        assert cycle_slack(S, cost, (0, 1)) <= tol < cycle_slack(S, cost, (0, 1, 3, 2))
        rep = tr.cyclical_monotonicity_check(S, cost, n_max=4)
        assert not rep.passes and rep.worst_slack > tol
        assert rep.worst_slack == 2 * cycle_slack(S, cost, (0, 1))
        assert tr.cyclical_monotonicity_check(S, cost, n_max=3).passes

    def test_a_chain_may_repeat_atoms(self):
        # One 2-cycle of slack 0.6 tol, every other step costs 1.  A chain
        # of 4 atoms that runs the 2-cycle twice has slack 1.2 tol: c-cyclical
        # monotonicity is asked of every chain, repeats allowed, so from
        # n_max 4 the support fails.  The enumeration, which never repeats
        # an atom, passed it
        tol = tr.CYCLICAL_TOL
        S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(4)]
        cost = MatrixCost(cycle_cost(4, {(0, 1): -0.3 * tol, (1, 0): -0.3 * tol}, 1.0), S)
        pair = cycle_slack(S, cost, (0, 1))
        assert pair == 0.6 * tol
        for n_max in (2, 3):
            rep = tr.cyclical_monotonicity_check(S, cost, n_max=n_max)
            assert (rep.passes, rep.worst_slack, rep.witness_permutation) == (True, pair, (1, 0))
        rep = tr.cyclical_monotonicity_check(S, cost, n_max=4)
        assert (rep.passes, rep.worst_slack, rep.witness_permutation) == (False, 2 * pair, (1, 0))
        assert scalar_cyclical(S, cost, 4)[0] == pair

    def test_ties_keep_the_first_cycle_found(self):
        # the 3-cycle 1 -> 2 -> 3 -> 1 and the 4-cycle 0 -> 2 -> 3 -> 1 -> 0
        # both have slack 2; lengths are taken in order, so the 3-cycle wins
        C = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(4)]
        cost = MatrixCost(C, S)
        assert cycle_slack(S, cost, (1, 2, 3)) == cycle_slack(S, cost, (0, 2, 3, 1)) == 2.0
        rep = tr.cyclical_monotonicity_check(S, cost, n_max=4)
        assert (rep.worst_slack, rep.witness_subset, rep.witness_permutation) == \
            (2.0, tuple(S[1:]), (1, 2, 0))

    def test_infinite_own_cost_is_refused(self):
        # every cost of these three atoms is +inf (dyadic x, I = +inf); the
        # check used to pass them with slack 0.0 having checked nothing
        S = [(Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(3, 4)),
             (Fraction(1, 8), Fraction(5, 8))]
        cost = transport_instance("quad-dirac")[3]
        assert all(math.isinf(v) for v in cost.matrix([x for x, _ in S], [y for _, y in S]).flat)
        with pytest.raises(tr.TransportError, match=r"atom \(0.25, 0.25\) has infinite own cost"):
            tr.cyclical_monotonicity_check(S, cost, n_max=3)

        def I(x):
            return math.inf if float(x) > 0.5 else 0.0

        S = [(0.1, 0.2), (0.3, 0.4), (0.6, 0.3)]
        with pytest.raises(tr.TransportError, match=r"atom \(0.6, 0.3\) has infinite own cost"):
            tr.cyclical_monotonicity_check(S, tr.CostSpec(w=example5_kernel(), i_eval=I))
        # one atom is no cycle: nothing is evaluated
        assert tr.cyclical_monotonicity_check(S[2:], tr.CostSpec(w=example5_kernel(), i_eval=I)) \
            == tr.CyclicalReport(True, 0.0, None, None)

    def test_minus_inf_and_inf_in_one_walk_is_no_cycle(self):
        # C[1][0] = -inf and C[0][1] = +inf: the 2-cycle (0, 1) reads
        # -inf + inf, which counts as +inf, not as a NaN that hides the rest
        C = np.array([[0.0, math.inf, 1.0], [-math.inf, 0.0, 1.0], [1.0, 0.5, 0.0],
                      [0.0, 0.0, 0.0]])
        S = [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]
        rep = tr.cyclical_monotonicity_check(S, MatrixCost(C, S), n_max=2)
        assert (rep.passes, rep.worst_slack, rep.witness_subset) == (True, -1.5, (S[1], S[2]))
        # the 3-cycle 0 -> 1 -> 2 -> 0 steps through -inf only
        rep = tr.cyclical_monotonicity_check(S, MatrixCost(C, S), n_max=3)
        assert (rep.passes, rep.worst_slack, rep.witness_permutation) == (False, math.inf, (1, 2, 0))
        assert scalar_cyclical(S, MatrixCost(C, S), 3)[0] == math.inf
        # here a NaN would win the first of three rounds' minima and hide
        # the 2-cycle (0, 2), whose -inf step gives it slack +inf
        inf = math.inf
        C = np.array([[0.0, inf, -1.0, inf], [2.0, 0.0, -inf, inf], [-inf, inf, 0.0, 0.0],
                      [-inf, 0.0, -2.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        S = [(0.1 * (i + 1), 0.1 * (i + 1)) for i in range(4)]
        rep = tr.cyclical_monotonicity_check(S, MatrixCost(C, S), n_max=4)
        assert (rep.passes, rep.worst_slack, rep.witness_subset) == (False, inf, (S[0], S[2]))
        assert scalar_cyclical(S, MatrixCost(C, S), 4)[0] == inf


# Runs in a fresh interpreter, so no earlier test has imported scipy.optimize.
SCIPY_PROBE = """
import contextlib, io, sys
from ergotrans import accept, cli
from ergotrans.presets import PRESETS
with contextlib.redirect_stdout(io.StringIO()):
    for name in sorted(PRESETS):
        assert cli.main(["transport", "--preset", name, "--out", sys.argv[1]]) == 0
for label, check in accept.CRITERIA[5:11]:  # checks 6 to 11
    assert check().passed, label
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""


def test_small_plans_leave_scipy_optimize_unimported(tmp_path):
    paths = [str(Path(tr.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
