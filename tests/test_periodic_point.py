"""dynamics.periodic_point against the two folds it replaced, affine
periodic_orbits against the numerator scan it replaced, and the
enumeration budget shared by every system."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import dynamics, ergopt
from ergotrans import transport as tr
from ergotrans.ergopt import critical_value
from ergotrans.dynamics import (
    DOUBLING,
    MINUS_DOUBLING,
    DynamicsError,
    SystemKind,
    gauss_system,
    periodic_orbits,
    periodic_point,
)
from ergotrans.potentials import GAUSS_LOG

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
    """The p digit arrays of every rotation of every row, as gauss_rotation_points folds them."""
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

    @pytest.mark.parametrize("n, max_period", [(30, 3), (8, 4)])
    def test_gauss_orbits_fold_every_rotation(self, n, max_period):
        sys = gauss_system(n)
        orbits = periodic_orbits(sys, max_period)
        for p in range(1, max_period + 1):
            digits = np.array([o.itinerary for o in orbits if o.period == p])
            rows = rotation_digits(digits)
            ref = gauss_fold(rows)
            assert np.array_equal(periodic_point(sys, rows), ref)
            assert np.array_equal([o.points for o in orbits if o.period == p],
                                  ref.reshape(-1, p))
            assert np.array_equal(dynamics.gauss_rotation_points(sys, digits), ref.reshape(-1, p))

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
    # Gauss; a digit off the branch indices gave a point off [0, 1]; bool
    # digits were read as 0 and 1 (Gauss (True,) gave the golden point).
    @pytest.mark.parametrize("sys, word", [
        (DOUBLING, ()), (MINUS_DOUBLING, ()), (gauss_system(3), ()),
        (DOUBLING, (2,)), (MINUS_DOUBLING, (0, 5)), (gauss_system(3), (0, 5)),
        (gauss_system(3), (1, 4)), (DOUBLING, (1.0,)),
        (gauss_system(3), (True,)), (MINUS_DOUBLING, (True, False)), (DOUBLING, (1, False)),
        (gauss_system(3), (np.True_,)),
    ], ids=lambda v: getattr(getattr(v, "kind", None), "value", repr(v)))
    def test_rejected(self, sys, word):
        with pytest.raises(DynamicsError, match="periodic word"):
            periodic_point(sys, word)

    @pytest.mark.parametrize("rows", [
        np.array([[1, 2], [3, 4]]), np.array([[1, 0], [3, 2]]), np.array([[1.0], [2.0]]),
        np.empty((0, 4), dtype=np.int64), np.array([[True], [True]]),
    ], ids=["digit-4", "digit-0", "float", "empty", "bool"])
    def test_gauss_array_rejected(self, rows):
        with pytest.raises(DynamicsError, match="periodic word"):
            periodic_point(gauss_system(3), rows)


class TestGaussExactRange:
    # An int64 fold used to overflow silently (digit 30 at period 7 gave
    # -13.306, digit 2 at period 25 nan with a RuntimeWarning), and a word of
    # 47 ones given as a list raised numpy's TypeError.
    @pytest.mark.parametrize("cap, rows", [
        (30, np.full((7, 3), 30)), (30, np.full((25, 2), 2)), (30, np.full((39, 1), 1)),
        (2 ** 40, np.array([[2 ** 40], [3]])), (2 ** 28, np.array([[2 ** 27 + 1]])),
    ], ids=["30x7", "2x25", "1x39", "2^40-3", "2^27+1"])
    def test_array_leaving_exact_range_rejected(self, cap, rows):
        with pytest.raises(DynamicsError, match="periodic word arrays .* exact int64"):
            periodic_point(gauss_system(cap), rows)

    @pytest.mark.parametrize("word", [
        (30,) * 7, (2,) * 25, (1,) * 39, (1,) * 47, (1,) * 1000, (3, 1, 4, 1, 5, 9, 2, 6) * 30,
        (np.int64(30),) * 7, (2 ** 40, 3),
    ], ids=["30x7", "2x25", "1x39", "1x47", "1x1000", "pi-digits", "int64-30x7", "2^40-3"])
    def test_long_word_is_its_continued_fraction(self, word):
        ref = Fraction(0)
        for k in reversed(word * (200 // len(word) + 1)):
            ref = 1 / (int(k) + ref)
        y = periodic_point(gauss_system(max(map(int, word))), list(word))
        assert type(y) is np.float64
        assert abs(y - float(ref)) <= np.spacing(float(ref))

    @pytest.mark.parametrize("word", [(1,) * 38, (30,) * 5, (2,) * 20, (1, 30) * 5])
    def test_fold_below_2_53_keeps_its_bits(self, word):
        sys = gauss_system(30)
        assert periodic_point(sys, list(word)) == gauss_fold(list(word))
        assert periodic_point(sys, np.array(word)[:, None])[0] == gauss_fold(list(word))


class TestGaussClosure:
    @staticmethod
    def perturb_fold(monkeypatch, word):
        """Make periodic_point miss by 1e-6 on every array entry that folds word."""
        fold = dynamics.periodic_point

        def wrong_for_one_word(sys_, digits):
            x = fold(sys_, digits)
            if isinstance(digits, np.ndarray) and len(digits) == len(word):
                x = np.where((digits.T == word).all(axis=1), x + 1e-6, x)
            return x

        monkeypatch.setattr(dynamics, "periodic_point", wrong_for_one_word)

    @pytest.mark.parametrize("run", [
        lambda sys: periodic_orbits(sys, 3),
        lambda sys: critical_value(sys, GAUSS_LOG, 3),
    ], ids=["periodic_orbits", "critical_value"])
    def test_perturbed_row_fold_does_not_close(self, monkeypatch, run):
        self.perturb_fold(monkeypatch, (1, 2))
        with pytest.raises(DynamicsError, match=r"digits \(1, 2\) does not close"):
            run(gauss_system(3))

    def test_every_rotation_fold_is_checked(self, monkeypatch):
        # (2, 1) is a rotation of the necklace (1, 2): only the every-rotation fold meets it
        sys = gauss_system(3)
        self.perturb_fold(monkeypatch, (2, 1))
        assert sum(sum(map(len, dynamics._necklace_blocks(3, p))) for p in range(1, 4)) == 14
        with pytest.raises(DynamicsError, match=r"digits \(1, 2\) does not close"):
            periodic_orbits(sys, 3)
        # critical_value's screen keeps the row (1, 2) and folds it at every rotation
        with pytest.raises(DynamicsError, match=r"digits \(1, 2\) does not close"):
            critical_value(sys, GAUSS_LOG, 3)


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
        monkeypatch.setattr(ergopt, "_necklace_blocks", None)
        with pytest.raises(DynamicsError, match="budget exceeded"):
            critical_value(gauss_system(30), GAUSS_LOG, 5)

    @pytest.mark.parametrize("sys", BINARY_SYSTEMS + [gauss_system(3)],
                             ids=lambda s: s.kind.value)
    def test_period_below_one_rejected(self, sys):
        with pytest.raises(DynamicsError, match="max_period"):
            periodic_orbits(sys, 0)


def test_golden_mean_is_the_gauss_fixed_point():
    # the preset constant is the float of the Moebius routine's fixed point
    # of the first Gauss branch, with the bits of (sqrt 5 - 1) / 2
    from ergotrans.presets import GOLDEN_MEAN

    assert type(GOLDEN_MEAN) is float
    assert GOLDEN_MEAN.hex() == "0x1.3c6ef372fe950p-1"
    assert GOLDEN_MEAN == float(dynamics.periodic_point(gauss_system(), (1,)))
