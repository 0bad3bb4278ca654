"""Phase-space operations: branches, skew dynamics, orbit enumeration."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import dynamics
from ergotrans.dynamics import (
    DOUBLING,
    MINUS_DOUBLING,
    DynamicsError,
    PeriodicOrbit,
    SystemKind,
    SystemSpec,
    apply_map,
    backward_step,
    branch_point,
    gauss_system,
    inverse_branches,
    periodic_orbits,
    symbol_of,
)
from ergotrans import transport as tr
from ergotrans.ergopt import ErgOptError, critical_value, deviation_I
from ergotrans.involution import (InvolutionError, cocycle_delta, cohomology_residual,
                                  example6_kernel, fundamental_kernel, twist_check)
from ergotrans.potentials import GAUSS_LOG, QUAD_DIRAC
from ergotrans.presets import get_preset
from ergotrans.thermo import ThermoError, eigenpair

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestSystemSpec:
    def test_three_kinds(self):
        assert [k.value for k in SystemKind] == ["doubling", "minus_doubling", "gauss"]

    @pytest.mark.parametrize("cap", [2.5, 3.0, "3", None, 0, -1])
    def test_gauss_branch_cap_must_be_a_positive_int(self, cap):
        # a float cap used to build and fail later in range() with a bare TypeError
        with pytest.raises(DynamicsError, match="branch_cap"):
            gauss_system(cap)
        with pytest.raises(DynamicsError, match="branch_cap"):
            SystemSpec(SystemKind.GAUSS, branch_cap=cap)

    def test_int_caps_build(self):
        assert len(periodic_orbits(gauss_system(1), 2)) == 1
        assert [k for k, _ in inverse_branches(gauss_system(2), 0.5)] == [1, 2]


class TestApplyMap:
    def test_doubling(self):
        assert apply_map(DOUBLING, 0.25) == 0.5

    def test_minus_doubling_fixed_third(self):
        assert apply_map(MINUS_DOUBLING, Fraction(1, 3)) == Fraction(1, 3)
        assert abs(apply_map(MINUS_DOUBLING, 1 / 3) - 1 / 3) < 1e-15

    def test_gauss_golden_fixed(self):
        assert abs(apply_map(gauss_system(), GOLDEN) - GOLDEN) < 1e-14

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING, gauss_system(30)],
                             ids=["doubling", "minus-doubling", "gauss"])
    def test_exact_step_is_apply_map_on_integer_pairs(self, sys):
        # ten steps from every p/q with q <= 40: the pair walk stays on
        # apply_map's Fraction orbit, keeps D on +-2x and stays reduced on Gauss
        step = dynamics._exact_step(sys)
        for q in range(1, 41):
            for p in range(q + 1):
                x = Fraction(p, q)
                z = start = (x.numerator, x.denominator)
                for _ in range(10):
                    x, z = apply_map(sys, x), step(z)
                    assert Fraction(*z) == x
                    if sys.kind is SystemKind.GAUSS:
                        assert z == (x.numerator, x.denominator)
                    else:
                        assert z[1] == start[1]


class TestInverseBranches:
    def test_minus_doubling_at_third(self):
        brs = inverse_branches(MINUS_DOUBLING, Fraction(1, 3))
        assert brs == [(0, Fraction(1, 3)), (1, Fraction(5, 6))]

    def test_doubling_at_zero(self):
        assert inverse_branches(DOUBLING, 0.0) == [(0, 0.0), (1, 0.5)]

    def test_gauss_cap3_at_half(self):
        brs = inverse_branches(gauss_system(3), 0.5)
        assert [k for k, _ in brs] == [1, 2, 3]
        np.testing.assert_allclose([p for _, p in brs], [2 / 3, 0.4, 2 / 7], rtol=1e-15)

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING, gauss_system(12)])
    def test_branches_are_sections(self, sys):
        # distances mod 1: the affine maps live on the circle, so the section
        # identity at the endpoints holds up to the 0 = 1 identification
        for x in np.linspace(0.0, 1.0, 41):
            for _, z in inverse_branches(sys, float(x)):
                d = abs(apply_map(sys, z) - x)
                assert min(d, 1.0 - d) < 1e-12


def tau(sys, y, x):
    """tau_y x: the inverse branch selected by y's leading symbol, applied to x."""
    return branch_point(sys, symbol_of(sys, y), x)


def skew_forward(sys, x, y):
    """The skew forward map (x, y) -> (T x, tau_x y)."""
    return apply_map(sys, x), tau(sys, x, y)


def skew_backward(sys, x, y):
    """The skew backward map (x, y) -> (tau_y x, T y), T on y's branch."""
    s, ty = backward_step(sys, y)
    return branch_point(sys, s, x), ty


class TestTauPush:
    def test_branch0_fixed_point(self):
        y = Fraction(1, 4)  # leading symbol 0
        assert tau(MINUS_DOUBLING, y, Fraction(1, 3)) == Fraction(1, 3)

    def test_branch1_at_zero(self):
        assert tau(MINUS_DOUBLING, 0.9, 0.0) == 1.0

    def test_push_then_map_is_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y = rng.uniform(0.01, 0.99, size=2)
            z = tau(MINUS_DOUBLING, float(y), float(x))
            assert abs(apply_map(MINUS_DOUBLING, z) - x) < 1e-12


class TestExtension:
    def test_fixed_extension_point(self):
        q = skew_backward(MINUS_DOUBLING, Fraction(1, 3), Fraction(1, 3))
        assert q == (Fraction(1, 3), Fraction(1, 3))

    def test_forward_then_backward_identity(self):
        rng = np.random.default_rng(7)
        for sys in (MINUS_DOUBLING, DOUBLING):
            for _ in range(30):
                x, y = (float(v) for v in rng.uniform(0.01, 0.99, size=2))
                px, py = skew_backward(sys, *skew_forward(sys, x, y))
                assert abs(px - x) < 1e-12 and abs(py - y) < 1e-12

    def test_backward_step_is_branch_consistent_at_half(self):
        # the mod map would send 1/2 to 0; branch 1 must send it to 1
        s, ty = backward_step(MINUS_DOUBLING, Fraction(1, 2))
        assert s == 1 and ty == 1


def boundary_points(sys):
    """Branch boundaries, their float neighbours and random interior points."""
    rng = np.random.default_rng(17)
    if sys.kind.value == "gauss":
        edges = [1.0 / k for k in range(1, sys.branch_cap + 2)]
        lo = 1.0 / (sys.branch_cap + 1)
    else:
        edges, lo = [0.0, 0.5, 1.0], 0.0
    near = [np.nextafter(e, d) for e in edges for d in (0.0, 2.0)]
    pts = np.concatenate([edges, near, rng.uniform(lo, 1.0, 40)])
    return pts[(pts >= lo) & (pts <= 1.0)]


ARRAY_SYSTEMS = [DOUBLING, MINUS_DOUBLING, gauss_system(30), gauss_system(3)]


class TestArrayBranches:
    """The array path of the branch dynamics against the scalar calls."""

    @pytest.mark.parametrize("sys", ARRAY_SYSTEMS)
    def test_symbol_of_is_elementwise(self, sys):
        ys = boundary_points(sys)
        got = symbol_of(sys, ys)
        assert got.dtype.kind == "i"
        assert got.tolist() == [symbol_of(sys, float(y)) for y in ys]

    @pytest.mark.parametrize("sys", ARRAY_SYSTEMS)
    def test_backward_step_is_elementwise(self, sys):
        ys = boundary_points(sys)
        s, ty = backward_step(sys, ys)
        ref = [backward_step(sys, float(y)) for y in ys]
        assert s.tolist() == [k for k, _ in ref]
        assert np.array_equal(ty, [t for _, t in ref])

    @pytest.mark.parametrize("sys", ARRAY_SYSTEMS)
    def test_branch_point_is_elementwise(self, sys):
        rng = np.random.default_rng(4)
        xs = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0, 1, 29)])
        ks = np.resize([k for k, _ in inverse_branches(sys, 0.5)], 32)
        got = branch_point(sys, ks, xs)
        assert np.array_equal(got, [branch_point(sys, int(k), float(x)) for k, x in zip(ks, xs)])
        # one x against every branch broadcasts to a row per branch
        grid = branch_point(sys, ks[:, None], xs[None, :])
        assert np.array_equal(grid[:, 3], [branch_point(sys, int(k), float(xs[3])) for k in ks])

    def test_boundaries_take_the_upper_branch(self):
        assert symbol_of(MINUS_DOUBLING, np.array([0.5, 1.0, 0.0])).tolist() == [1, 1, 0]
        g = gauss_system(30)
        assert symbol_of(g, np.array([1.0, 0.5, 0.25])).tolist() == [1, 2, 4]

    def test_exact_points_are_unchanged(self):
        y = Fraction(1, 2)
        assert backward_step(MINUS_DOUBLING, y) == (1, Fraction(1))
        assert backward_step(gauss_system(30), Fraction(1, 3)) == (3, Fraction(0))
        assert branch_point(MINUS_DOUBLING, 0, Fraction(1, 3)) == Fraction(1, 3)

    def test_bad_array_inputs_raise(self):
        g = gauss_system(30)
        with pytest.raises(DynamicsError):
            symbol_of(g, np.array([0.5, 0.0]))
        with pytest.raises(DynamicsError):
            backward_step(g, np.array([0.5, 1.0 / 40]))  # digit 40 > branch_cap
        with pytest.raises(DynamicsError):
            symbol_of(MINUS_DOUBLING, np.array([0.5, 1.5]))
        with pytest.raises(DynamicsError):
            branch_point(MINUS_DOUBLING, np.array([0, 2]), np.array([0.1, 0.2]))
        with pytest.raises(DynamicsError):
            branch_point(MINUS_DOUBLING, np.array([0.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(DynamicsError):
            branch_point(g, np.array([0, 1]), np.array([0.1, 0.2]))


class TestPeriodicOrbits:
    def test_minus_doubling_fixed_points(self):
        orbits = periodic_orbits(MINUS_DOUBLING, 1)
        pts = sorted(float(o.points[0]) for o in orbits)
        np.testing.assert_allclose(pts, [0.0, 1 / 3, 2 / 3], atol=1e-15)

    def test_minus_doubling_no_new_period2(self):
        assert len(periodic_orbits(MINUS_DOUBLING, 2)) == len(periodic_orbits(MINUS_DOUBLING, 1))

    def test_doubling_period_counts(self):
        # doubling: one fixed orbit, one 2-orbit {1/3, 2/3}, two 3-orbits in /7
        orbits = periodic_orbits(DOUBLING, 3)
        by_p = {}
        for o in orbits:
            by_p.setdefault(o.period, []).append(o)
        assert len(by_p[1]) == 1 and float(by_p[1][0].points[0]) == 0.0
        assert len(by_p[2]) == 1
        assert sorted(float(p) for p in by_p[2][0].points) == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
        assert len(by_p[3]) == 2

    def test_orbits_closed_and_distinct(self):
        for sys in (MINUS_DOUBLING, DOUBLING):
            orbits = periodic_orbits(sys, 4)
            seen = set()
            for o in orbits:
                key = tuple(sorted(round(float(p), 12) for p in o.points))
                assert key not in seen
                seen.add(key)
                for i, p in enumerate(o.points):
                    nxt = apply_map(sys, p)
                    assert abs(float(nxt) - float(o.points[(i + 1) % o.period])) < 1e-9

    def test_gauss_contains_golden(self):
        orbits = periodic_orbits(gauss_system(5), 2)
        fixed = [float(o.points[0]) for o in orbits if o.period == 1]
        assert any(abs(p - GOLDEN) < 1e-12 for p in fixed)

    def test_budget_guard(self):
        with pytest.raises(DynamicsError):
            periodic_orbits(gauss_system(30), 12)

    @pytest.mark.parametrize("max_period", range(1, 9))
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=["2x", "-2x"])
    def test_affine_orbits_are_the_brute_force_cycles(self, sys, max_period):
        assert periodic_orbits(sys, max_period) == brute_force_affine_orbits(sys, max_period)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30])
    def test_gauss_orbit_counts_are_necklace_counts(self, n):
        # one row per orbit: the count critical_value reports as n_orbits
        counts = [sum(map(len, dynamics._necklace_blocks(n, p))) for p in range(1, 5)]
        assert counts == [necklace_count(n, p) for p in range(1, 5)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30])
    def test_necklace_count_is_moreaus_formula(self, n):
        # critical_value counts n_orbits by it, whatever letters it enumerates
        assert [dynamics._necklace_count(n, p) for p in range(1, 13)] == [
            necklace_count(n, p) for p in range(1, 13)]

    def test_gauss_orbit_list_counts(self):
        counts = Counter(o.period for o in periodic_orbits(gauss_system(8), 4))
        assert [counts[p] for p in range(1, 5)] == [8, 28, 168, 1008]

    def test_gauss_points_are_the_periodic_continued_fractions(self):
        sys = gauss_system(5)
        orbits = periodic_orbits(sys, 3)
        assert len(orbits) == 55
        for o in orbits:
            for i, x in enumerate(o.points):
                word = o.itinerary[i:] + o.itinerary[:i]
                ref = Fraction(0)
                for k in reversed(word * (60 // o.period)):
                    ref = 1 / (k + ref)
                assert abs(Fraction(x) - ref) <= Fraction(1, 10 ** 15)
                assert symbol_of(sys, x) == word[0]
                assert abs(apply_map(sys, x) - o.points[(i + 1) % o.period]) < 1e-9


class TestNecklaceBlocks:
    # small blocks split the candidates of one first letter, large ones
    # span several first letters
    @pytest.mark.parametrize("block", [1, 7, 50, dynamics.NECKLACE_BLOCK])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_blocks_are_the_brute_force_necklaces(self, monkeypatch, n, block):
        monkeypatch.setattr(dynamics, "NECKLACE_BLOCK", block)
        for p in range(1, 7):
            blocks = list(dynamics._necklace_blocks(n, p))
            for words in blocks:
                assert words.dtype == np.int64 and words.shape[1] == p
                assert 1 <= len(words) <= block
            words = [tuple(w) for words in blocks for w in words.tolist()]
            assert words == brute_force_necklaces(n, p)
            assert len(words) == necklace_count(n, p)


@functools.lru_cache(maxsize=None)
def brute_force_necklaces(n, p):
    """Every word of length p over 0..n-1 strictly below each of its proper
    rotations, in lexicographic order."""
    return [w for w in itertools.product(range(n), repeat=p)
            if all(w < w[r:] + w[:r] for r in range(1, p))]


def brute_force_affine_orbits(sys, max_period):
    """Every cycle of x -> 2x or -2x mod 1 with minimal period <= max_period,
    found by iterating each candidate k / |(+-2)^p - 1| exactly; each cycle
    starts at its least point, its itinerary the digits floor(2x), and the
    list is in period and then first-point order."""
    s = 2 if sys.kind is SystemKind.DOUBLING else -2
    orbits = []
    for p in range(1, max_period + 1):
        q = abs(s ** p - 1)
        for k in range(q):
            points = [Fraction(k, q)]
            for _ in range(p - 1):
                points.append((s * points[-1]) % 1)
            if (s * points[-1]) % 1 != points[0] or len(set(points)) != p or min(points) != points[0]:
                continue
            orbits.append(PeriodicOrbit(tuple(points), p, tuple(math.floor(2 * x) for x in points)))
    return sorted(orbits, key=lambda o: (o.period, o.points[0]))


def necklace_count(n, p):
    """Moreau's count of aperiodic necklaces: (1/p) sum_{d | p} mu(d) n^(p/d)."""
    def mobius(d):
        sign = 1
        for q in range(2, d + 1):
            if d % q == 0:
                d //= q
                if d % q == 0:
                    return 0
                sign = -sign
        return sign

    return sum(mobius(d) * n ** (p // d) for d in range(1, p + 1) if p % d == 0) // p



# ------------------------------------------------------------ count options


def _count_options():
    """Each count option of the library: (error raised on a bad value, a
    call with the option set to the value that returns a comparable result)."""
    pre = get_preset("quad-dirac")
    W = example6_kernel()
    S = [(0.2, 0.9), (0.5, 0.5), (0.8, 0.1)]
    cost = tr.CostSpec(w=W)
    x, xp, y = Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)
    return {
        "branch_cap": (DynamicsError, lambda v: gauss_system(v).branch_cap),
        "max_period": (DynamicsError, lambda v: [o.points for o in periodic_orbits(MINUS_DOUBLING, v)]),
        "max_period-gauss": (DynamicsError, lambda v: critical_value(gauss_system(3), GAUSS_LOG,
                                                                     max_period=v).m),
        "n_terms": (ErgOptError, lambda v: deviation_I(MINUS_DOUBLING, QUAD_DIRAC, pre.closed_V,
                                                       pre.m_exact, 0.3, n_terms=v,
                                                       early_exit=False)),
        "depth": (InvolutionError, lambda v: cocycle_delta(MINUS_DOUBLING, QUAD_DIRAC, x, xp, y, v)),
        "depth-kernel": (InvolutionError, lambda v: fundamental_kernel(
            MINUS_DOUBLING, QUAD_DIRAC, xp, depth=v)(x, y)),
        "probes": (InvolutionError, lambda v: cohomology_residual(
            MINUS_DOUBLING, QUAD_DIRAC, pre.kernel, QUAD_DIRAC, probes=v)),
        "twist n_grid": (InvolutionError, lambda v: twist_check(W, n_grid=v).margin),
        "operator n_grid": (ThermoError, lambda v: eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 1.0,
                                                            n_grid=v).log_eigenvalue),
        "n_max": (tr.TransportError, lambda v: tr.cyclical_monotonicity_check(S, cost, n_max=v)),
        "chain_cap": (tr.TransportError, lambda v: tr.rochet_potential(
            S, cost, 0, 0.7, tr.RochetMode.BRUTE_FORCE, chain_cap=v)),
    }


@pytest.mark.parametrize("value", [True, 2.0, "2", np.int64(2)], ids=repr)
@pytest.mark.parametrize("option", sorted(_count_options()))
def test_count_options_take_ints_only(option, value):
    # a bool used to run as 0 or 1, a float or string to reach numpy or
    # range() first, and a numpy integer to be refused by some options only
    error, call = _count_options()[option]
    if isinstance(value, np.integer):
        assert call(value) == call(2)
    else:
        with pytest.raises(error, match="an int"):
            call(value)


# each count option's message for one bad value, as it read when every call
# formatted it up front: the template is now filled only when the check fails
COUNT_MESSAGES = {
    "branch_cap": (0.5, "GaussMap needs an int branch_cap >= 1, not 0.5"),
    "max_period": (0.5, "max_period must be an int >= 1, not 0.5"),
    "max_period-gauss": (0, "max_period must be an int >= 1, not 0"),
    "n_terms": (True, "n_terms must be an int >= 1, not True"),
    "depth": (0, "cocycle depth must be an int >= 1, not 0"),
    "depth-kernel": (2.0, "cocycle depth must be an int >= 1, not 2.0"),
    "probes": ("9", "probes must be an int >= 1, not '9'"),
    "twist n_grid": (1, "twist_check needs an int n_grid >= 2, got 1"),
    "operator n_grid": (np.float64(64), "the operator needs an int n_grid >= 2, got np.float64(64.0)"),
    "n_max": (1, "n_max must be an int >= 2, not 1: below 2 no cycle is checked"),
    "chain_cap": (None, "chain_cap must be an int >= 0, not None"),
}


@pytest.mark.parametrize("option", sorted(COUNT_MESSAGES))
def test_count_option_message_text(option):
    error, call = _count_options()[option]
    value, message = COUNT_MESSAGES[option]
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("base,message", [
    (-1, "base -1 is not an atom index of a support of 3"),
    (3, "base 3 is not an atom index of a support of 3"),
    (0.0, "base 0.0 is not an atom index of a support of 3"),
    (np.int64(3), "base np.int64(3) is not an atom index of a support of 3"),
])
def test_rochet_base_message_text(base, message):
    S = [(0.2, 0.9), (0.5, 0.5), (0.8, 0.1)]
    with pytest.raises(tr.TransportError) as info:
        tr.rochet_potential(S, tr.CostSpec(w=example6_kernel()), base, 0.7)
    assert str(info.value) == message
