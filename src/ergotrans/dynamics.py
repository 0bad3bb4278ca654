"""Phase spaces and their dynamics.

Three systems are supported: the doubling map 2x mod 1, the
minus-doubling map -2x mod 1, and the Gauss map 1/x - [1/x] with a
truncated family of inverse branches.  Points are reals in [0, 1]; the
full 2-shift is 2x mod 1 read through binary expansions.  Exact
`fractions.Fraction` inputs are propagated exactly through the affine
systems, which the orbit enumeration relies on.

The two-sided extension is represented as pairs (x, y) where y records
the backward itinerary; the backward map is (x, y) -> (tau_y x, T y)
with tau_y the inverse branch selected by the leading symbol of y:
tau_y x = branch_point(sys, symbol_of(sys, y), x).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "SystemKind",
    "SystemSpec",
    "PeriodicOrbit",
    "apply_map",
    "inverse_branches",
    "branch_point",
    "symbol_of",
    "backward_step",
    "periodic_orbits",
    "periodic_point",
    "gauss_rotation_points",
    "sorted_orbits",
    "DOUBLING",
    "MINUS_DOUBLING",
    "gauss_system",
]

# Enumeration budget: itineraries examined by periodic_orbits may not exceed this.
MAX_ITINERARIES = 2_000_000

# Candidate words per necklace block; small blocks keep a Gauss enumeration's
# working set, and the process's peak memory, flat.  On gauss_system(30) up to
# period 4 one ergopt.critical_value call took 20.0 ms (best of 21, one core of
# a 2-core Xeon) at 4096, against 30.5 ms at 1024, 21.3 ms at 2048 and
# 19.8-20.5 ms at 8192 and 16384; its tracemalloc peak, 1.35 MB at 4096,
# doubles with the block.
NECKLACE_BLOCK = 4096

# Gauss inverse branches retained by default: digits 1..GAUSS_BRANCH_CAP.
GAUSS_BRANCH_CAP = 30

# Largest forward-closure gap |T x_i - x_(i+1)| accepted on a Gauss orbit.
CLOSURE_TOL = 1e-9

# A Gauss fold on int64 arrays stays exact while every digit and matrix entry
# is below _GAUSS_ENTRY_LIMIT and the discriminant below _GAUSS_EXACT_LIMIT.
_GAUSS_ENTRY_LIMIT = 2 ** 27
_GAUSS_EXACT_LIMIT = 2 ** 53


class DynamicsError(ValueError):
    """Raised on invalid points or systems, or enumeration overflow."""


def _as_count(value, lo: int, error: type[Exception], message: str) -> int:
    """value as an int, for a count option: an int or a numpy integer >= lo,
    not a bool; anything else raises error(message.format(value)), so the
    template's {!r} is filled with repr(value) only on failure."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= lo:
        return int(value)
    raise error(message.format(value))


class SystemKind(enum.Enum):
    DOUBLING = "doubling"
    MINUS_DOUBLING = "minus_doubling"
    GAUSS = "gauss"


@dataclass(frozen=True)
class SystemSpec:
    """A dynamical system together with its retained inverse-branch family.

    branch_cap only matters for the Gauss map (branches k = 1..branch_cap);
    the other systems have exactly two branches.
    """

    kind: SystemKind
    branch_cap: int = GAUSS_BRANCH_CAP

    def __post_init__(self):
        cap = self.branch_cap
        if self.kind is SystemKind.GAUSS:
            object.__setattr__(self, "branch_cap", _as_count(
                cap, 1, DynamicsError, "GaussMap needs an int branch_cap >= 1, not {!r}"))


DOUBLING = SystemSpec(SystemKind.DOUBLING)
MINUS_DOUBLING = SystemSpec(SystemKind.MINUS_DOUBLING)


def gauss_system(branch_cap: int = GAUSS_BRANCH_CAP) -> SystemSpec:
    return SystemSpec(SystemKind.GAUSS, branch_cap=branch_cap)


def _outside(v, lo, hi) -> bool:
    """Whether v, or for an array v some entry of it, lies outside [lo, hi]."""
    if isinstance(v, np.ndarray):
        return bool(v.size) and (float(v.min()) < lo or float(v.max()) > hi)
    return not (lo <= v <= hi)


def _check_interval(x) -> None:
    if _outside(x, 0, 1):
        what = "array point" if isinstance(x, np.ndarray) else f"point {x!r}"
        raise DynamicsError(f"{what} outside [0, 1]")


def _branch_indices(sys: SystemSpec) -> range:
    """Indices of the retained inverse branches."""
    if sys.kind is SystemKind.GAUSS:
        return range(1, sys.branch_cap + 1)
    return range(2)


def probe_floor(sys: SystemSpec, default: float) -> float:
    """Lower end of the range from which past points y are probed.

    A Gauss point below 1/(branch_cap+1) has its first digit beyond the
    retained branches, so Gauss probes start 1e-3 above that; the other
    systems start at the caller's `default`.
    """
    if sys.kind is SystemKind.GAUSS:
        return 1.0 / (sys.branch_cap + 1) + 1e-3
    return default


def apply_map(sys: SystemSpec, x):
    """Forward map in mod-1 arithmetic, so 0 is fixed for the affine maps.
    Fraction inputs stay exact."""
    _check_interval(x)
    if sys.kind is SystemKind.DOUBLING:
        return (2 * x) % 1
    if sys.kind is SystemKind.MINUS_DOUBLING:
        return (-2 * x) % 1
    # Gauss map; 0 is conventionally fixed (no branch reaches it).
    if x == 0:
        return x
    inv = 1 / x if isinstance(x, Fraction) else 1.0 / x
    return inv - math.floor(inv)


def _exact_step(sys: SystemSpec):
    """apply_map on a rational N / D of [0, 1] held as the integer pair z =
    (N, D): on 2x and -2x D stays and N -> +-2N mod D; on Gauss (N, D) ->
    (D mod N, N), one step of Euclid's algorithm, with 0 fixed.  A reduced
    pair stays reduced on Gauss, where 0 is reached only as (0, 1)."""
    if sys.kind is SystemKind.GAUSS:
        return lambda z: (z[1] % z[0], z[0]) if z[0] else z
    factor = -2 if sys.kind is SystemKind.MINUS_DOUBLING else 2
    return lambda z: (factor * z[0] % z[1], z[1])


def branch_point(sys: SystemSpec, k, x):
    """Image of x under the k-th inverse branch; an int array k and an array x broadcast."""
    _check_interval(x)
    ks = _branch_indices(sys)
    if isinstance(k, np.ndarray):
        bad = k.dtype.kind not in "iu" or _outside(k, ks[0], ks[-1])
    else:
        bad = k not in ks
    if bad:
        raise DynamicsError(f"{sys.kind.value} branch index {k!r} outside {ks[0]}..{ks[-1]}")
    return _branch(sys, k, x)


def _branch(sys: SystemSpec, k, x):
    """branch_point without its checks, for walks whose inputs were checked:
    a branch index k of the system sends a point of [0, 1] into [0, 1]."""
    if sys.kind is SystemKind.DOUBLING:
        return (x + k) / 2
    if sys.kind is SystemKind.MINUS_DOUBLING:
        return (1 + k - x) / 2
    return 1 / (k + x)


def _affine_branch(sys: SystemSpec, k: int) -> tuple[int, int]:
    """(s, c) such that the k-th inverse branch of 2x or -2x mod 1 is x -> (s x + c) / 2."""
    return (-1, 1 + k) if sys.kind is SystemKind.MINUS_DOUBLING else (1, k)


def inverse_branches(sys: SystemSpec, x) -> list[tuple[int, object]]:
    """All retained preimages of x, as (branch_index, preimage) pairs."""
    return [(k, branch_point(sys, k, x)) for k in _branch_indices(sys)]


def symbol_of(sys: SystemSpec, y):
    """Leading itinerary symbol of y, elementwise for an array y: floor(2y),
    or floor(1/y) on Gauss, clamped to the retained branch indices.  The
    boundary 1/2 is assigned to branch 1, an exact Gauss boundary 1/k to branch k."""
    _check_interval(y)
    if sys.kind is SystemKind.GAUSS and np.any(y == 0):
        raise DynamicsError("Gauss symbol undefined at 0")
    return _symbol(sys, y)


def _symbol(sys: SystemSpec, y):
    """symbol_of without its checks, for walks whose inputs were checked."""
    ks = _branch_indices(sys)
    v = 1 / y if sys.kind is SystemKind.GAUSS else 2 * y
    if isinstance(v, np.ndarray):
        return np.clip(np.floor(v), ks[0], ks[-1]).astype(np.int64)
    return min(max(ks[0], math.floor(v)), ks[-1])


def backward_step(sys: SystemSpec, y) -> tuple:
    """Leading symbol of y together with the branch-consistent forward image.

    On branch boundaries the mod-1 map and the branch inverses disagree
    (e.g. -2x mod 1 sends 1/2 to 0, while the branch containing 1/2 sends
    it to 1).  Backward-orbit machinery (cocycles, extension dynamics,
    dual potentials) must stay on the chosen branch, so it uses this
    instead of apply_map.  Fraction inputs stay exact; arrays go elementwise.
    """
    s = symbol_of(sys, y)
    if sys.kind is not SystemKind.GAUSS:
        return s, _affine_image(sys, s, y)
    ty = 1 / y - s
    if _outside(ty, 0, 1):
        where = "an array point" if isinstance(y, np.ndarray) else f"y={y!r}"
        raise DynamicsError(f"Gauss backward step left [0,1]: {where} has digit beyond branch_cap")
    return s, ty


def _affine_image(sys: SystemSpec, s, y):
    """The image of y on 2x or -2x mod 1 along branch s, as backward_step
    takes it, without checks: it stays in [0, 1] when y is in [0, 1] and s
    is y's symbol."""
    return 2 * y - s if sys.kind is SystemKind.DOUBLING else (1 + s) - 2 * y


@dataclass(frozen=True)
class PeriodicOrbit:
    """One periodic orbit, listed once with minimal period.

    points[i+1 mod period] is the forward image of points[i]; itinerary
    holds the branch symbol of each point.  birkhoff_average is filled by
    ergopt.critical_value for a given potential.
    """

    points: tuple
    period: int
    itinerary: tuple[int, ...]
    birkhoff_average: float | None = None

    def with_average(self, avg: float) -> "PeriodicOrbit":
        return PeriodicOrbit(self.points, self.period, self.itinerary, avg)


def _mixed_radix(cycle: np.ndarray, base: int, start: int, size: int, step: int) -> np.ndarray:
    """cycle[t // step % base] for t = start, ..., start + size - 1: the
    letters of the digit of place value step, in radix base, of size
    consecutive numbers.  cycle[i] is the letter of digit i mod base, and
    cycle is at least size + base long.

    The digit holds each letter for step consecutive t, so cycle gives the
    runs that t // step meets, and repeat spreads them, the first and last
    cut to the range.  A range inside one run gives that one letter, which
    broadcasts when assigned to the slice."""
    q0, q1 = start // step, (start + size - 1) // step + 1
    runs = cycle[q0 % base:q0 % base + q1 - q0]
    if step == 1 or q1 - q0 == 1:
        return runs
    counts = np.full(q1 - q0, step)
    counts[0] -= start - q0 * step
    counts[-1] -= q1 * step - start - size
    return runs.repeat(counts)


def _necklace_blocks(n: int, p: int) -> Iterator[np.ndarray]:
    """Words of length p over 0..n-1 that are strictly smaller than each of
    their proper rotations: one word per cyclic class of minimal period p.

    Yields int64 arrays of shape (rows, p), in lexicographic order, one per
    block of at most NECKLACE_BLOCK candidate words; each is the transpose
    of a C-contiguous (p, rows) array, so its columns are contiguous.  Such
    a word starts with its least letter a, so only the (n - a)^(p - 1)
    words with w[i] >= a are examined, numbered in radix n - a.  A block
    may hold the last candidates of one first letter and the first of the
    next.
    """
    block = NECKLACE_BLOCK  # read per call: tests shrink it
    counts = [(n - a) ** (p - 1) for a in range(n)]
    total = sum(counts)
    a, t = 0, 0  # next candidate: number t of first letter a
    for done in range(0, total, block):
        rows = min(block, total - done)
        cols = np.empty((p, rows), dtype=np.int64)
        j = 0
        while j < rows:
            base, take = n - a, min(rows - j, counts[a] - t)
            if t == 0 and p > 1:  # a new first letter: cycle its letters a..n-1
                cycle = np.tile(np.arange(a, n, dtype=np.int64), block // base + 2)
            cols[0, j:j + take] = a
            for i in range(1, p):
                cols[i, j:j + take] = _mixed_radix(cycle, base, t, take, base ** (p - 1 - i))
            j, t = j + take, t + take
            if t == counts[a]:
                a, t = a + 1, 0
        # w is below each proper rotation iff each proper suffix w[p-L:] is
        # above the prefix w[:L] of its length L (an equal suffix sorts
        # first); base-n codes of equal length L compare as the words do
        keep, prefix, suffix = np.ones(rows, dtype=bool), cols[0], cols[p - 1]
        for length in range(1, p):
            if length > 1:
                prefix = prefix * n + cols[length - 1]
                suffix = cols[p - length] * n ** (length - 1) + suffix
            keep &= prefix < suffix
        words = np.compress(keep, cols, axis=1)
        if words.size:
            yield words.T


def periodic_point(sys: SystemSpec, digits):
    """The point whose itinerary is the digit word repeated forever.

    Each inverse branch is an integer Moebius matrix: [[s, c], [0, 2]] for
    x -> (s x + c) / 2 on 2x and -2x (_affine_branch), [[0, 1], [1, k]] for
    Gauss.  They are folded from the last digit, each multiplied in on the
    left, in exact integers; the point is the product's fixed point.  On the
    affine maps the product is [[a, b], [0, d]] and the point the Fraction
    b / (d - a).  On Gauss (continued fraction [0; k_1, ..., k_p, k_1, ...])
    digits may also be p equal-length int64 arrays, one word per entry; the
    product [[a, b], [c, d]] has b, c >= 1, so c x^2 + (d - a) x - b = 0 has
    one positive root, returned as a float or float array.

    The root is (-(d - a) + sqrt(D)) / (2c) with D = (d - a)^2 + 4bc, taken
    in floats while D is below 2^53, where its float conversion is exact.
    A longer word of Python ints takes the root as 2b / ((d - a) + sqrt(D))
    in integers, with 64 more bits than isqrt(D) and one final rounding (d
    is the largest entry of every Gauss product, so nothing cancels).  An
    array fold raises DynamicsError instead once some entry reaches 2^27,
    before an int64 product can overflow, or D reaches 2^53: every digit is
    at most d, and D = (a + d)^2 -+ 4 >= d^2 - 4.  Those checks are skipped
    when the entries' bound (branch_cap + 1)^p keeps D below 2^53, as it
    does on gauss_system(30) up to period 5.  An empty word, or a digit
    that is not a branch index of the system (a bool is none), raises
    DynamicsError.
    """
    ks = _branch_indices(sys)
    array = isinstance(digits, np.ndarray)
    if array:
        bad = digits.dtype.kind not in "iu" or _outside(digits, ks[0], ks[-1])
    else:
        bad = any(not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k not in ks
                  for k in digits)
    if len(digits) == 0 or bad:
        raise DynamicsError(f"{sys.kind.value} periodic word needs at least one digit, "
                            f"each in {ks[0]}..{ks[-1]}: got {digits!r}")
    if not array:
        digits = [int(k) for k in digits]  # numpy integers would overflow
    a, b, c, d = 1, 0, 0, 1
    if sys.kind is not SystemKind.GAUSS:
        for k in reversed(digits):
            s, c = _affine_branch(sys, k)
            a, b, d = s * a, s * b + c * d, 2 * d
        return Fraction(b, d - a)
    # no entry exceeds (branch_cap + 1)^p, so D <= 4 (branch_cap + 1)^(2p) + 4
    checked = array and 4 * (ks[-1] + 1) ** (2 * len(digits)) + 4 >= _GAUSS_EXACT_LIMIT
    if checked and digits.max() >= _GAUSS_ENTRY_LIMIT:
        raise _inexact_fold(digits)
    for k in reversed(digits):
        a, b, c, d = c, d, a + k * c, b + k * d
        if checked and d.max() >= _GAUSS_ENTRY_LIMIT:
            raise _inexact_fold(digits)
    disc = (d - a) ** 2 + 4 * b * c
    if np.max(disc) < _GAUSS_EXACT_LIMIT:
        return (-(d - a) + np.sqrt(disc)) / (2 * c)
    if array:
        raise _inexact_fold(digits)
    return np.float64(Fraction(b << 65, ((d - a) << 64) + math.isqrt(disc << 128)))


def _inexact_fold(digits: np.ndarray) -> DynamicsError:
    return DynamicsError(f"gauss periodic word arrays of period {len(digits)} leave exact "
                         "int64 arithmetic: an entry reaches 2^27 or a discriminant 2^53")


def _check_enumeration(sys: SystemSpec, max_period: int) -> int:
    """max_period as an int; raise unless it is an int >= 1 and the
    itineraries of every length up to it, over the retained branches, fit
    in MAX_ITINERARIES."""
    max_period = _as_count(max_period, 1, DynamicsError,
                           "max_period must be an int >= 1, not {!r}")
    n_pieces = len(_branch_indices(sys))
    total = sum(n_pieces ** p for p in range(1, max_period + 1))
    if total > MAX_ITINERARIES:
        raise DynamicsError(
            f"periodic enumeration budget exceeded: {total} itineraries > {MAX_ITINERARIES}"
        )
    return max_period


def gauss_rotation_points(sys: SystemSpec, digits: np.ndarray) -> np.ndarray:
    """points[:, i] = periodic_point of each row of digits rotated left by i,
    from one array fold over every rotation.  Every link of every row is
    checked to close under the forward map within CLOSURE_TOL.  This is the
    one producer of Gauss orbit points: periodic_orbits folds every
    necklace with it, ergopt.critical_value only the rows its screen keeps."""
    p = digits.shape[1]
    # rotations[r, i] = (r + i) mod p: the letters of the rotation by r
    rotations = np.add.outer(np.arange(p), np.arange(p)) % p
    points = periodic_point(sys, digits[:, rotations].reshape(-1, p).T).reshape(-1, p)
    _check_closure(digits, points)
    return points


def _check_closure(digits: np.ndarray, points: np.ndarray) -> None:
    """Raise unless T points[:, i] is within CLOSURE_TOL of points[:, i + 1 mod p] on every row."""
    gap = 1.0 / points
    gap -= np.floor(gap)
    gap[:, :-1] -= points[:, 1:]
    gap[:, -1] -= points[:, 0]
    np.abs(gap, out=gap)
    if gap.max() > CLOSURE_TOL:
        gap = gap.max(axis=1)
        row = int(np.argmax(gap))
        raise DynamicsError(f"Gauss orbit of digits {tuple(digits[row].tolist())} "
                            f"does not close: gap {gap[row]:.3e} > {CLOSURE_TOL}")


def sorted_orbits(rows: Iterable[tuple[int, Sequence[int], Sequence]]) -> list[PeriodicOrbit]:
    """PeriodicOrbit objects for (period, itinerary, points) rows, sorted by
    period and then by points[0]: periodic_orbits' order."""
    orbits = [PeriodicOrbit(tuple(x), p, tuple(k)) for p, k, x in rows]
    return sorted(orbits, key=lambda o: (o.period, o.points[0]))


def periodic_orbits(sys: SystemSpec, max_period: int) -> list[PeriodicOrbit]:
    """All periodic orbits of minimal period <= max_period.

    Every orbit is listed once per necklace (_necklace_blocks), each point
    the periodic_point of a rotation of it: on 2x and -2x an exact Fraction,
    on Gauss a float from one array fold over every rotation of each
    necklace block (gauss_rotation_points).  On the circle the
    branch points 0 and 1 are the single fixed point 0, so the words whose
    fold touches them (the 2x words (0) and (1), the -2x boundary cycle
    (0 1)) are skipped and {0} is listed by hand.  An affine orbit starts at
    its least point and must close exactly under apply_map; a Gauss orbit
    must close within CLOSURE_TOL.  Either failure raises DynamicsError.  On
    gauss_system(30) up to period 4 that is 211,730 orbits, about 0.7 s and a
    100 MB rise in peak RSS on one core of a shared 2-core Xeon, so
    ergopt.critical_value does not list them: it bounds each necklace by
    its digits' cylinders and folds only the rows that could tie.
    Every system raises DynamicsError before listing anything when the
    itineraries up to max_period exceed MAX_ITINERARIES.
    """
    max_period = _check_enumeration(sys, max_period)
    if sys.kind is SystemKind.GAUSS:
        blocks = ((p, words + 1) for p in range(1, max_period + 1)
                  for words in _necklace_blocks(sys.branch_cap, p))
        return sorted_orbits((p, k, x) for p, digits in blocks
                             for k, x in zip(digits.tolist(),
                                             gauss_rotation_points(sys, digits).tolist()))
    rows = [(1, (0,), (Fraction(0),))]
    for p in range(1, max_period + 1):
        for word in (w for words in _necklace_blocks(2, p) for w in words.tolist()):
            points = [periodic_point(sys, word[i:] + word[:i]) for i in range(p)]
            if 0 in points or 1 in points:
                continue
            i = points.index(min(points))
            points, word = points[i:] + points[:i], word[i:] + word[:i]
            if any(apply_map(sys, x) != y for x, y in zip(points, points[1:] + points[:1])):
                raise DynamicsError(f"{sys.kind.value} orbit of itinerary {tuple(word)} "
                                    "does not close")
            rows.append((p, word, points))
    return sorted_orbits(rows)
