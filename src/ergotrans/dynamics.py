"""Phase spaces and their dynamics.

Four systems are supported: the full 2-shift on binary words, the
doubling map 2x mod 1, the minus-doubling map -2x mod 1, and the Gauss
map 1/x - [1/x] with a truncated family of inverse branches.  Points of
the shift are finite binary words (truncated sequences); points of the
interval systems are reals in [0, 1].  Exact `fractions.Fraction`
inputs are propagated exactly through the affine systems, which the
orbit enumeration relies on.

The two-sided extension is represented as pairs (x, y) where y records
the backward itinerary; the backward map is (x, y) -> (tau_y x, T y)
with tau_y the inverse branch selected by the leading symbol of y.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "SystemKind",
    "SystemSpec",
    "SymbolWord",
    "ExtensionPoint",
    "PeriodicOrbit",
    "Ordering",
    "lex_compare",
    "apply_map",
    "inverse_branches",
    "branch_point",
    "symbol_of",
    "tau_push",
    "backward_step",
    "extension_forward",
    "extension_backward",
    "periodic_orbits",
    "as_real",
    "FULL_SHIFT2",
    "DOUBLING",
    "MINUS_DOUBLING",
    "gauss_system",
]

DEFAULT_WORD_DEPTH = 24

# Enumeration budget: itineraries examined by periodic_orbits may not exceed this.
MAX_ITINERARIES = 2_000_000


class DynamicsError(ValueError):
    """Raised on invalid points, depth mismatches, or enumeration overflow."""


class SystemKind(enum.Enum):
    FULL_SHIFT2 = "full_shift2"
    DOUBLING = "doubling"
    MINUS_DOUBLING = "minus_doubling"
    GAUSS = "gauss"


@dataclass(frozen=True)
class SystemSpec:
    """A dynamical system together with its retained inverse-branch family.

    branch_cap only matters for the Gauss map (branches k = 1..branch_cap);
    the other systems have exactly two branches.  metric_lambda is the
    contraction parameter of the word metric / dyadic embedding.
    """

    kind: SystemKind
    branch_cap: int = 30
    metric_lambda: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.metric_lambda < 1.0):
            raise DynamicsError("metric_lambda must lie in (0, 1)")
        if self.kind is SystemKind.GAUSS and self.branch_cap < 1:
            raise DynamicsError("GaussMap needs branch_cap >= 1")


FULL_SHIFT2 = SystemSpec(SystemKind.FULL_SHIFT2)
DOUBLING = SystemSpec(SystemKind.DOUBLING)
MINUS_DOUBLING = SystemSpec(SystemKind.MINUS_DOUBLING)


def gauss_system(branch_cap: int = 30) -> SystemSpec:
    return SystemSpec(SystemKind.GAUSS, branch_cap=branch_cap)


@dataclass(frozen=True)
class SymbolWord:
    """Truncated point of {0,1}^N; doubles as a dyadic point of [0, 1)."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise DynamicsError("word depth must be >= 1")
        if any(s not in (0, 1) for s in self.symbols):
            raise DynamicsError("word symbols must be 0 or 1")

    @property
    def depth(self) -> int:
        return len(self.symbols)

    def value(self) -> float:
        """Dyadic embedding sum_i s_i 2^-(i+1), in [0, 1)."""
        return float(self.exact_value())

    def exact_value(self) -> Fraction:
        num = 0
        for s in self.symbols:
            num = 2 * num + s
        return Fraction(num, 2 ** self.depth)

    @classmethod
    def from_symbols(cls, symbols: Iterable[int]) -> "SymbolWord":
        return cls(tuple(int(s) for s in symbols))

    @classmethod
    def periodic(cls, pattern: Sequence[int], depth: int = DEFAULT_WORD_DEPTH) -> "SymbolWord":
        reps = -(-depth // len(pattern))
        return cls(tuple(pattern)[:0] + tuple(list(pattern) * reps)[:depth])

    def to_json(self) -> str:
        return json.dumps(list(self.symbols))


class Ordering(enum.IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def lex_compare(a: SymbolWord, b: SymbolWord) -> Ordering:
    """Lexicographic order on words of equal depth (0 < 1)."""
    if a.depth != b.depth:
        raise DynamicsError(f"depth mismatch: {a.depth} != {b.depth}")
    for sa, sb in zip(a.symbols, b.symbols):
        if sa != sb:
            return Ordering.LT if sa < sb else Ordering.GT
    return Ordering.EQ


def as_real(x):
    """Coerce a point (word or real) to a float in [0, 1]."""
    if isinstance(x, SymbolWord):
        return x.value()
    return float(x)


def _check_interval(x) -> None:
    import numpy as _np

    if isinstance(x, _np.ndarray):
        if x.size and (float(x.min()) < 0 or float(x.max()) > 1):
            raise DynamicsError("array point outside [0, 1]")
        return
    if not (0 <= x <= 1):
        raise DynamicsError(f"point {x!r} outside [0, 1]")


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
    """Forward map.  Words are shifted left and padded with 0 on the right
    (constant depth); interval points use mod-1 arithmetic, so 0 is fixed
    for the affine maps.  Fraction inputs stay exact."""
    if isinstance(x, SymbolWord):
        if sys.kind not in (SystemKind.FULL_SHIFT2, SystemKind.DOUBLING):
            raise DynamicsError("word points only live in shift/doubling systems")
        return SymbolWord(x.symbols[1:] + (0,))
    _check_interval(x)
    if sys.kind in (SystemKind.FULL_SHIFT2, SystemKind.DOUBLING):
        return (2 * x) % 1
    if sys.kind is SystemKind.MINUS_DOUBLING:
        return (-2 * x) % 1
    # Gauss map; 0 is conventionally fixed (no branch reaches it).
    if x == 0:
        return x
    inv = 1 / x if isinstance(x, Fraction) else 1.0 / x
    return inv - math.floor(inv)


def branch_point(sys: SystemSpec, k: int, x):
    """Image of x under the k-th inverse branch."""
    if isinstance(x, SymbolWord):
        if sys.kind not in (SystemKind.FULL_SHIFT2, SystemKind.DOUBLING):
            raise DynamicsError("word points only live in shift/doubling systems")
        if k not in (0, 1):
            raise DynamicsError("shift branch index must be 0 or 1")
        return SymbolWord((k,) + x.symbols[:-1])
    _check_interval(x)
    if sys.kind in (SystemKind.FULL_SHIFT2, SystemKind.DOUBLING):
        if k not in (0, 1):
            raise DynamicsError("doubling branch index must be 0 or 1")
        return (x + k) / 2
    if sys.kind is SystemKind.MINUS_DOUBLING:
        if k == 0:
            return (1 - x) / 2
        if k == 1:
            return (2 - x) / 2
        raise DynamicsError("minus-doubling branch index must be 0 or 1")
    if not (1 <= k <= sys.branch_cap):
        raise DynamicsError(f"Gauss branch index {k} outside 1..{sys.branch_cap}")
    return 1 / (k + x)


def inverse_branches(sys: SystemSpec, x) -> list[tuple[int, object]]:
    """All retained preimages of x, as (branch_index, preimage) pairs."""
    if sys.kind is SystemKind.GAUSS:
        ks = range(1, sys.branch_cap + 1)
    else:
        ks = range(2)
    return [(k, branch_point(sys, k, x)) for k in ks]


def symbol_of(sys: SystemSpec, y) -> int:
    """Leading itinerary symbol of y: the index of the branch whose range
    contains y.  The boundary 1/2 is assigned to branch 1."""
    if isinstance(y, SymbolWord):
        return y.symbols[0]
    _check_interval(y)
    if sys.kind is SystemKind.GAUSS:
        if y == 0:
            raise DynamicsError("Gauss symbol undefined at 0")
        return min(max(1, math.floor(1 / y)), sys.branch_cap)
    return 0 if 2 * y < 1 else 1


def tau_push(sys: SystemSpec, y, x):
    """tau_y(x): apply to x the inverse branch selected by y's leading symbol."""
    return branch_point(sys, symbol_of(sys, y), x)


def backward_step(sys: SystemSpec, y) -> tuple[int, object]:
    """Leading symbol of y together with the branch-consistent forward image.

    On branch boundaries the mod-1 map and the branch inverses disagree
    (e.g. -2x mod 1 sends 1/2 to 0, while the branch containing 1/2 sends
    it to 1).  Backward-orbit machinery (cocycles, extension dynamics,
    dual potentials) must stay on the chosen branch, so it uses this
    instead of apply_map.  Fraction inputs stay exact.
    """
    s = symbol_of(sys, y)
    if isinstance(y, SymbolWord):
        return s, apply_map(sys, y)
    if sys.kind in (SystemKind.FULL_SHIFT2, SystemKind.DOUBLING):
        return s, 2 * y - s
    if sys.kind is SystemKind.MINUS_DOUBLING:
        return s, (1 + s) - 2 * y
    ty = 1 / y - s
    if not (0 <= ty <= 1):
        raise DynamicsError(
            f"Gauss backward step left [0,1]: y={y!r} has digit beyond branch_cap"
        )
    return s, ty


@dataclass(frozen=True)
class ExtensionPoint:
    """Point <y, x> = (x, y) of the two-sided extension; y is the past."""

    x: object
    y: object


def extension_forward(sys: SystemSpec, p: ExtensionPoint) -> ExtensionPoint:
    """(x, y) -> (T x, tau*_x y): the skew forward map."""
    return ExtensionPoint(apply_map(sys, p.x), tau_push(sys, p.x, p.y))


def extension_backward(sys: SystemSpec, p: ExtensionPoint) -> ExtensionPoint:
    """(x, y) -> (tau_y x, T* y): inverse of extension_forward up to truncation.

    The y-coordinate advances by the branch-consistent map (see
    backward_step), which matters only on branch boundaries."""
    s, ty = backward_step(sys, p.y)
    return ExtensionPoint(branch_point(sys, s, p.x), ty)


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


def _necklaces(p: int) -> list[tuple[int, ...]]:
    """Binary words of length p with minimal period p, one per cyclic class."""
    out = []
    for code in range(2 ** p):
        w = tuple((code >> (p - 1 - i)) & 1 for i in range(p))
        rots = [w[i:] + w[:i] for i in range(p)]
        if w != min(rots):
            continue
        if all(w != rots[d] for d in range(1, p)):
            out.append(w)
    return out


def _affine_orbits(sys: SystemSpec, max_period: int) -> list[PeriodicOrbit]:
    """Exact orbit enumeration for the mod-1 affine maps.

    T^p(x) = ((+-2)^p x) mod 1 = x forces x = j / (2^p -+ (-1)^p ...), i.e.
    a rational with denominator |(+-2)^p - 1|; enumerating those numerators
    and verifying forward closure in integer arithmetic finds every orbit
    (including the fixed point 0, which no inverse-branch word produces).
    """
    mult = -2 if sys.kind is SystemKind.MINUS_DOUBLING else 2
    found: dict[frozenset, PeriodicOrbit] = {}
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
            digits = tuple(symbol_of(sys, q) for q in pts)
            found[key] = PeriodicOrbit(pts, p, digits)
    return sorted(found.values(), key=lambda o: (o.period, as_real(o.points[0])))


def _orbit_key(points: Sequence, digits: int = 12):
    return tuple(sorted(round(as_real(p), digits) for p in points))


def _verify_orbit(sys: SystemSpec, x0: float, p: int, tol: float) -> tuple | None:
    """Forward-iterate x0 and accept only genuine minimal-period-p orbits."""
    pts = [x0]
    for _ in range(p):
        pts.append(apply_map(sys, pts[-1]))
    if abs(pts[p] - pts[0]) > tol:
        return None
    orbit = tuple(pts[:p])
    for d in range(1, p):
        if p % d == 0 and abs(orbit[d] - orbit[0]) <= tol:
            return None
    if len({round(q, 12) for q in orbit}) < p:
        return None
    return orbit


def periodic_orbits(sys: SystemSpec, max_period: int, tol: float = 1e-9) -> list[PeriodicOrbit]:
    """All periodic orbits of minimal period <= max_period.

    Affine systems are solved exactly over the rationals from itinerary
    fixed-point equations; Gauss orbits come from Moebius-composition fixed
    points over the retained branches.  Candidates produced by branch
    compositions that the mod-1 forward map does not actually close
    (boundary artifacts) are discarded.
    """
    if max_period < 1:
        raise DynamicsError("max_period must be >= 1")
    if sys.kind is SystemKind.FULL_SHIFT2:
        orbits = []
        for p in range(1, max_period + 1):
            for pattern in _necklaces(p):
                pts = []
                for i in range(p):
                    rot = pattern[i:] + pattern[:i]
                    pts.append(SymbolWord.periodic(rot, DEFAULT_WORD_DEPTH))
                orbits.append(PeriodicOrbit(tuple(pts), p, pattern))
        return orbits

    if sys.kind is not SystemKind.GAUSS:
        total = sum(2 ** p for p in range(1, max_period + 1))
        if total > MAX_ITINERARIES:
            raise DynamicsError(
                f"periodic enumeration budget exceeded: {total} candidates > {MAX_ITINERARIES}"
            )
        return _affine_orbits(sys, max_period)

    n_pieces = sys.branch_cap
    total = sum(n_pieces ** p for p in range(1, max_period + 1))
    if total > MAX_ITINERARIES:
        raise DynamicsError(
            f"periodic enumeration budget exceeded: {total} itineraries > {MAX_ITINERARIES}"
        )
    found: dict[tuple, PeriodicOrbit] = {}
    for p in range(1, max_period + 1):
        for code in range(n_pieces ** p):
            itin = []
            c = code
            for _ in range(p):
                itin.append(c % n_pieces + 1)
                c //= n_pieces
            x0 = _gauss_itinerary_fixed_point(tuple(itin))
            if x0 is None:
                continue
            orbit = _verify_orbit(sys, x0, p, tol)
            if orbit is None:
                continue
            key = _orbit_key(orbit)
            if key in found:
                continue
            digits = tuple(symbol_of(sys, q) for q in orbit)
            found[key] = PeriodicOrbit(orbit, p, digits)
    return sorted(found.values(), key=lambda o: (o.period, as_real(o.points[0])))


def _gauss_itinerary_fixed_point(itin: tuple[int, ...]) -> float | None:
    """Fixed point in (0, 1] of the Moebius composition of Gauss branches."""
    # branch k as matrix [[0, 1], [1, k]] acting by (a x + b) / (c x + d)
    a, b, c, d = 1, 0, 0, 1
    for k in reversed(itin):
        a, b, c, d = b, a, d + k * b, c + k * a
    # fixed point: c x^2 + (d - a) x - b = 0
    if c == 0:
        return None
    disc = (d - a) * (d - a) + 4 * b * c
    if disc < 0:
        return None
    x = (-(d - a) + math.sqrt(disc)) / (2 * c)
    if 0 < x <= 1:
        return x
    x = (-(d - a) - math.sqrt(disc)) / (2 * c)
    if 0 < x <= 1:
        return x
    return None


def serialize_point(x) -> str:
    """Points serialize as JSON symbol arrays (words) or 17-digit decimals."""
    if isinstance(x, SymbolWord):
        return x.to_json()
    return format(float(x), ".17g")
