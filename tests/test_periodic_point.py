"""dynamics.periodic_point against the two folds it replaced, affine
periodic_orbits against the numerator scan it replaced, and the
enumeration budget shared by every system."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import dynamics
from ergotrans import transport as tr
from ergotrans.dynamics import (
    DOUBLING,
    MINUS_DOUBLING,
    DynamicsError,
    SystemKind,
    gauss_orbit_blocks,
    gauss_system,
    periodic_orbits,
    periodic_point,
)

BINARY_SYSTEMS = [DOUBLING, MINUS_DOUBLING]
BINARY_WORDS = [w for n in range(1, 9) for w in itertools.product((0, 1), repeat=n)]


def gauss_fold(digits):
    """Reference: the Gauss fold as first written, on ints or int64 arrays."""
    a, b, c, d = 1, 0, 0, 1
    for k in reversed(digits):
        a, b, c, d = c, d, a + k * c, b + k * d
    return (-(d - a) + np.sqrt((d - a) ** 2 + 4 * b * c)) / (2 * c)


def reference_point(sys, digits):
    """Reference: the point of a repeated word as first written, with the
    affine branches composed as Fraction maps x -> ca x + cb."""
    if sys.kind in (SystemKind.DOUBLING, SystemKind.MINUS_DOUBLING):
        a, b = Fraction(1), Fraction(0)
        for s in reversed(digits):
            if sys.kind is SystemKind.MINUS_DOUBLING:
                ca, cb = Fraction(-1, 2), Fraction(s + 1, 2)
            else:
                ca, cb = Fraction(1, 2), Fraction(s, 2)
            a, b = ca * a, ca * b + cb
        return b / (1 - a)
    return float(gauss_fold(digits))


def numerator_scan_orbits(sys, max_period):
    """Reference: the affine orbits as first enumerated.  T^p(x) = x forces x
    = j / |(+-2)^p - 1|; every numerator is scanned and kept when its orbit
    closes with minimal period p, each orbit once, from its least point."""
    mult = -2 if sys.kind is SystemKind.MINUS_DOUBLING else 2
    found = {}
    for p in range(1, max_period + 1):
        den = abs(mult ** p - 1)
        for num in range(den + 1):
            orbit_nums = [num]
            for _ in range(p):
                orbit_nums.append((mult * orbit_nums[-1]) % den if den > 1 else 0)
            if orbit_nums[p] != num:
                continue
            if any(p % d == 0 and orbit_nums[d] == num for d in range(1, p)):
                continue
            if len(set(orbit_nums[:p])) != p:
                continue
            pts = tuple(Fraction(k, den) for k in orbit_nums[:p])
            key = frozenset(pts)
            if key in found:
                continue
            digits = tuple(dynamics.symbol_of(sys, q) for q in pts)
            found[key] = dynamics.PeriodicOrbit(pts, p, digits)
    return sorted(found.values(), key=lambda o: (o.period, float(o.points[0])))


def rotation_digits(digits):
    """The p digit arrays of every rotation of every row, as gauss_orbit_blocks folds them."""
    p = digits.shape[1]
    rotations = np.add.outer(np.arange(p), np.arange(p)) % p
    return digits[:, rotations].reshape(-1, p).T


class TestPeriodicPoint:
    @pytest.mark.parametrize("sys", BINARY_SYSTEMS, ids=lambda s: s.kind.value)
    def test_binary_words_equal_reference(self, sys):
        for w in BINARY_WORDS:
            y, ref = periodic_point(sys, w), reference_point(sys, w)
            assert type(y) is type(ref) and y == ref

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=lambda s: s.kind.value)
    def test_affine_points_are_fixed_by_their_word(self, sys):
        for w in BINARY_WORDS:
            x = y = periodic_point(sys, w)
            for k in reversed(w):
                y = dynamics.branch_point(sys, k, y)
            assert y == x

    def test_gauss_blocks_equal_reference(self):
        sys = gauss_system(30)
        n_rows = 0
        for p, digits, points in gauss_orbit_blocks(sys, 4):
            rows = rotation_digits(digits)
            ref = gauss_fold(rows)
            assert np.array_equal(periodic_point(sys, rows), ref)
            assert np.array_equal(points, ref.reshape(-1, p))
            n_rows += len(digits)
        assert n_rows == 211_730

    @pytest.mark.parametrize("sys, max_period", [
        (DOUBLING, 8), (MINUS_DOUBLING, 8), (gauss_system(6), 4),
    ], ids=lambda v: getattr(getattr(v, "kind", None), "value", str(v)))
    def test_extension_atoms_unchanged(self, sys, max_period):
        orbits = periodic_orbits(sys, max_period)
        assert orbits
        for o in orbits:
            p, k = o.period, o.itinerary
            want = tuple(((o.points[i], reference_point(sys, [k[(i - 1 - j) % p] for j in range(p)])),
                          Fraction(1, p)) for i in range(p))
            got = tr.natural_extension_measure(sys, o).atoms
            assert got == want
            assert [type(y) for (_, y), _ in got] == [type(y) for (_, y), _ in want]


class TestBadWords:
    # The empty word used to divide by zero on 2x and -2x and give nan on
    # Gauss; a digit off the branch indices gave a point off [0, 1].
    @pytest.mark.parametrize("sys, word", [
        (DOUBLING, ()), (MINUS_DOUBLING, ()), (gauss_system(3), ()),
        (DOUBLING, (2,)), (MINUS_DOUBLING, (0, 5)), (gauss_system(3), (0, 5)),
        (gauss_system(3), (1, 4)), (DOUBLING, (1.0,)),
    ], ids=lambda v: getattr(getattr(v, "kind", None), "value", repr(v)))
    def test_rejected(self, sys, word):
        with pytest.raises(DynamicsError, match="periodic word"):
            periodic_point(sys, word)

    @pytest.mark.parametrize("rows", [
        np.array([[1, 2], [3, 4]]), np.array([[1, 0], [3, 2]]), np.array([[1.0], [2.0]]),
        np.empty((0, 4), dtype=np.int64),
    ], ids=["digit-4", "digit-0", "float", "empty"])
    def test_gauss_array_rejected(self, rows):
        with pytest.raises(DynamicsError, match="periodic word"):
            periodic_point(gauss_system(3), rows)


class TestAffineOrbits:
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=lambda s: s.kind.value)
    @pytest.mark.parametrize("max_period", range(1, 11))
    def test_equal_numerator_scan(self, sys, max_period):
        got, want = periodic_orbits(sys, max_period), numerator_scan_orbits(sys, max_period)
        assert got == want  # points, periods and itineraries, in order
        assert [tuple(map(type, o.points)) for o in got] == [(Fraction,) * o.period for o in want]

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=lambda s: s.kind.value)
    def test_orbit_that_does_not_close_raises(self, monkeypatch, sys):
        fold = dynamics.periodic_point

        def wrong_for_one_rotation(sys_, digits):
            x = fold(sys_, digits)
            return x + Fraction(1, 1000) if tuple(digits) == (1, 0, 1) else x

        monkeypatch.setattr(dynamics, "periodic_point", wrong_for_one_rotation)
        assert periodic_orbits(sys, 2)
        with pytest.raises(DynamicsError, match="does not close"):
            periodic_orbits(sys, 3)


class TestEnumerationBudget:
    @pytest.mark.parametrize("sys, max_period", [
        (DOUBLING, 21), (MINUS_DOUBLING, 21), (gauss_system(30), 5),
    ], ids=["doubling", "minus-doubling", "gauss"])
    def test_raises_before_enumerating(self, monkeypatch, sys, max_period):
        # 2^1 + ... + 2^21 is about 4.2 M itineraries, 30^5 alone 24 M
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(dynamics, "_necklace_blocks", no_enumeration)
        with pytest.raises(DynamicsError, match="budget exceeded"):
            periodic_orbits(sys, max_period)

    def test_gauss_blocks_raise_before_the_first_block(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_necklace_blocks", None)
        with pytest.raises(DynamicsError, match="budget exceeded"):
            next(gauss_orbit_blocks(gauss_system(30), 5))

    @pytest.mark.parametrize("sys", BINARY_SYSTEMS + [gauss_system(3)],
                             ids=lambda s: s.kind.value)
    def test_period_below_one_rejected(self, sys):
        with pytest.raises(DynamicsError, match="max_period"):
            periodic_orbits(sys, 0)
