"""Zero-temperature objects: critical value, calibrated subactions, deviation rate.

The calibrated subaction is the fixed point of the max-plus update
V(x) = max over preimages z of [V(z) + A(z) - m], computed on a grid
with linear interpolation reads (the same stencil the transfer operator
uses, with max in place of log-sum-exp).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import (SystemKind, SystemSpec, PeriodicOrbit, _as_count, _check_enumeration,
                       _check_interval, _exact_step, _necklace_blocks, apply_map,
                       gauss_rotation_points, periodic_orbits, sorted_orbits)
from .potentials import PotentialSpec
from .thermo import _BLOCK, DEFAULT_N_GRID, GridFunction, _centers, _Operator

__all__ = [
    "ErgOptError",
    "CriticalValue",
    "SubactionResult",
    "DeviationValue",
    "critical_value",
    "lax_oleinik_step",
    "calibrated_subaction",
    "deviation_I",
]

DEFAULT_MAX_PERIOD = 12
TOL_LO = 1e-12
MAX_ITER_LO = 20_000
CAP_I = 1e6
TOL_I = 1e-10
N_TERMS_I = 10_000
# Orbits whose average is within TIE_TOL of the maximum count as maximizing.
TIE_TOL = 1e-9
# cells per block of the Lax-Oleinik renormalization (_renormalize_change): at
# n_grid 2^20 one pass took a median 2.0-2.2 ms at 2 and 4 _BLOCK, against
# 2.2-2.5 ms at _BLOCK and 2.4-2.6 ms at 8 _BLOCK (one core of a 2-core Xeon)
_RENORM_BLOCK = 4 * _BLOCK
# Relative slack of the Gauss tie screen in critical_value.
SCREEN_SLACK = 1e-12
# Pieces per cylinder in the Gauss screen's bound (_cylinder_bound).  On
# gauss_system(30) up to period 4, 64, 128, 256 and 512 pieces folded 52, 46,
# 45 and 45 of 211,730 rows for GAUSS_LOG and 1950, 1220, 891 and 737 for
# cos 2 pi x, in 6.0-7.0 ms per call at each (best of 21, one Xeon core).
SCREEN_PIECES = 256
# A subaction is calibrated when one more update moves no cell by more than this.
CAL_TOL = 1e-8


class ErgOptError(RuntimeError):
    pass


@dataclass(frozen=True)
class CriticalValue:
    """Maximal Birkhoff average over the enumerated periodic orbits.

    This is a lower bound on m(A) in general; every example in scope has a
    periodic maximizing orbit, for which it is exact.  tied lists every
    orbit within TIE_TOL of the maximum (including the argmax itself).
    n_orbits counts the orbits screened; it is not written to any output.
    """

    m: float
    orbit: PeriodicOrbit
    tied: tuple[PeriodicOrbit, ...]
    n_orbits: int = 0


def critical_value(sys: SystemSpec, A: PotentialSpec,
                   max_period: int = DEFAULT_MAX_PERIOD) -> CriticalValue:
    """Maximum over periodic orbits of the scalar average sum(A(x_i)) / p.

    On a Gauss system the necklaces are screened block by block on arrays
    (_gauss_candidates), and only the orbits that could attain or tie the
    maximum are built and scored here, so m, orbit and tied are those of a
    scalar pass over periodic_orbits without materializing it.  An orbit
    whose average is NaN is skipped on every system (the Gauss screen
    drops its row), and ErgOptError is raised when no orbit is left.
    """
    if sys.kind is SystemKind.GAUSS:
        orbits, n_orbits = _gauss_candidates(sys, A, max_period)
    else:
        orbits = periodic_orbits(sys, max_period)
        n_orbits = len(orbits)
    scored = []
    for o in orbits:
        avg = float(sum(float(A(p)) for p in o.points) / o.period)
        if not math.isnan(avg):  # a NaN average neither attains nor ties the maximum
            scored.append(o.with_average(avg))
    if not scored:
        raise ErgOptError("no periodic orbit with a non-NaN average found")
    m = max(o.birkhoff_average for o in scored)
    tied = tuple(o for o in scored if m - o.birkhoff_average <= TIE_TOL)
    best = tied[0]
    return CriticalValue(m, best, tied, n_orbits)


def _gauss_candidates(sys: SystemSpec, A: PotentialSpec,
                      max_period: int) -> tuple[list[PeriodicOrbit], int]:
    """Gauss orbits whose average may attain or tie the maximum, and the
    number of orbits screened.

    Each row of a necklace block is bounded, unfolded, by the mean of
    _cylinder_bound over its digits, and dropped when that bound is below
    the running maximum by more than TIE_TOL + 2e; a NaN bound keeps it.
    The rest are folded at every rotation (gauss_rotation_points, whose
    points periodic_orbits lists), scored on arrays in the scalar order,
    and kept with their points while within TIE_TOL + 2e of the running
    maximum; the final maximum drops those a later block pushed out.

    Let s, v and b be an orbit's scalar score (critical_value's), array
    score and bound.  A on arrays and on floats, and the p-term sums,
    differ in the last bits only, far below e = SCREEN_SLACK * scale, with
    scale the largest |A| seen (the bound's first): |s - v| <= e and
    s <= b + e.  A row dropped against the array score v' of an orbit of
    scalar score s' has s <= b + e < v' - TIE_TOL - e <= s' - TIE_TOL, or
    s - e <= v < v' - TIE_TOL - 2e: either way it cannot tie, so the
    argmax and every tied orbit are kept, wherever the blocks split.
    """
    max_period = _check_enumeration(sys, max_period)
    bound, scale = _cylinder_bound(sys, A)
    best = floor = -math.inf
    n_orbits, kept = 0, []
    for p in range(1, max_period + 1):
        for words in _necklace_blocks(sys.branch_cap, p):
            n_orbits += len(words)
            total = bound[words[:, 0]]
            for j in range(1, p):
                total += bound[words[:, j]]
            digits = words[~(total / p < floor)] + 1
            if not len(digits):
                continue
            points = gauss_rotation_points(sys, digits)
            vals = np.broadcast_to(np.asarray(A(points), dtype=float), points.shape)
            avg = vals[:, 0].copy()
            for j in range(1, p):
                avg += vals[:, j]
            avg /= p
            scale = float(np.fmax.reduce(np.abs(vals), axis=None, initial=scale))
            best = float(np.fmax.reduce(avg, initial=best))
            floor = best - TIE_TOL - 2 * SCREEN_SLACK * scale
            keep = avg >= floor
            if keep.any():
                kept.append((avg[keep], p, digits[keep], points[keep]))
    rows = []
    for avg, p, digits, points in kept:
        keep = avg >= floor
        rows += [(p, k, x) for k, x in zip(digits[keep].tolist(), points[keep].tolist())]
    return sorted_orbits(rows), n_orbits


def _cylinder_bound(sys: SystemSpec, A: PotentialSpec) -> tuple[np.ndarray, float]:
    """(bound, scale): bound[k - 1] >= A on digit k's cylinder [1/(k+1),
    1/k] and at every folded point of digit k; scale is the larger of 1
    and the largest finite |A| among the cylinders' sample maxima.

    A cylinder is cut into SCREEN_PIECES pieces of width w; each of its
    points is within w/2 of its piece's midpoint.  A folded point is within
    f of its periodic point, which lies in its digit's cylinder.  With
    u = 2^-53 and K = branch_cap, the fold's root (-b' + sqrt(D))/(2c) has
    exact b', D and 2c and three roundings, so to first order it is off by
    at most 2u x + u sqrt(D)/(2c); sqrt(D)/c is x minus the other root,
    -[k_p; k_(p-1), ...] (Galois), inside (-(K + 1), 0), so at most
    u (K/2 + 3).  f = u (K/2 + 6) also covers terms of order u^2 and the
    midpoints' roundings.  So A is at most its largest midpoint value plus
    H (w/2 + f), H = A.holder_constant, and SCREEN_SLACK * scale covers
    A's last bits.  H is Lipschitz only on A's own domain (GAUSS_LOG's is
    [1/31, 1], and gauss_system(K) reaches 1/(K + 1)), so A is also sampled
    at each cylinder's two ends: the bound is at least a monotone A's
    supremum on every cap.  A NaN at a sample makes its cylinder's bound NaN.
    """
    k = np.arange(1.0, sys.branch_cap + 1)
    width = 1 / k - 1 / (k + 1)
    pieces = np.r_[0.0, (np.arange(SCREEN_PIECES) + 0.5) / SCREEN_PIECES, 1.0]
    xs = (1 / (k + 1))[:, None] + np.outer(width, pieces)
    top = np.broadcast_to(np.asarray(A(xs), dtype=float), xs.shape).max(axis=1)
    scale = max(1.0, float(np.abs(top[np.isfinite(top)]).max(initial=0.0)))
    fold = (sys.branch_cap / 2 + 6) * 2.0 ** -53
    slack = A.holder_constant * (width / (2 * SCREEN_PIECES) + fold) + SCREEN_SLACK * scale
    return top + slack, scale


def lax_oleinik_step(sys: SystemSpec, A: PotentialSpec, m: float,
                     V: GridFunction, *, op: _Operator | None = None,
                     _out: np.ndarray | None = None) -> GridFunction:
    """One max-plus update over inverse branches, on V's grid.

    op is the operator of (sys, A) at beta = 1 on V's grid; pass it to
    reuse one build across steps (calibrated_subaction does), or leave it
    None to build it here.  The result does not depend on which; an op
    built for another system, potential, beta or grid raises.  Ties
    between branches break toward the smaller branch index (the max scan
    keeps the first maximum), which pins reproducibility but not the
    value.

    _out is calibrated_subaction's scratch buffer: the update is written
    into it instead of a new array.  The shift by m, the check that every
    value is finite (ThermoError otherwise) and the maximum run inside the
    operator's blocks (_Operator.max_step), so the update is not read
    again; the maximum is left in op.top for the renormalization.
    """
    if op is None:
        op = _Operator(sys, A, 1.0, V.n_grid)
    elif op.n_grid != V.n_grid:
        raise ErgOptError(f"operator grid {op.n_grid} does not match V's grid {V.n_grid}")
    elif (op.sys, op.A, op.beta) != (sys, A, 1.0):
        raise ErgOptError(f"operator of {op.A.name} on {op.sys.kind.name} at beta {op.beta} "
                          f"does not match {A.name} on {sys.kind.name} at beta 1")
    return GridFunction._of_finite(op.max_step(V.values, m, out=_out))


@dataclass(frozen=True)
class SubactionResult:
    """Converged subaction with its critical value and calibration data.

    iterations counts the Lax-Oleinik steps of the converging loop (not
    the final calibration step); the CLI's subaction header leaves it out.
    """

    V: GridFunction
    m: float
    residual: float
    calibrated: bool
    orbit: PeriodicOrbit | None = None
    iterations: int = 0


def calibrated_subaction(sys: SystemSpec, A: PotentialSpec, n_grid: int = DEFAULT_N_GRID,
                         m: float | None = None,
                         max_period: int = DEFAULT_MAX_PERIOD,
                         start: GridFunction | None = None) -> SubactionResult:
    """Iterate the max-plus update from V = 0 until the sup-change is at most TOL_LO.

    With start, a GridFunction on any grid, the iteration starts instead
    from start read at this grid's cell centers (its clamped linear
    interpolation), shifted to max 0: a subaction solved on a coarser grid
    then needs only a few steps on a finer one where the fixed point is
    smooth up to the edges (3 a level on quad-dirac and quad-period2 from
    4096 to 2^20 cells), but about as many as a cold start where V's
    maximum sits at the edge cycle {0, 1} (25-27 a level on quad-convex).
    V is renormalized to max 0 after every step.  calibrated is set when
    the final update moves no cell by more than CAL_TOL, i.e. every cell
    value is attained by some preimage.  The grid operator (branch images,
    A on them, interpolation stencil) is built once and passed to every
    step as op=.  The steps alternate between two value buffers.  Each
    step's shift by m, finiteness check and maximum run inside the
    operator's blocks, and its renormalization and sup-change are one more
    blocked pass, so a step allocates no grid-sized array; the arithmetic
    is that of max_apply(V) - m, normalized_max_zero and sup_diff.
    """
    if start is not None and not isinstance(start, GridFunction):
        raise ErgOptError(f"start must be a GridFunction, not {type(start).__name__}")
    orbit = None
    if m is None:
        cv = critical_value(sys, A, max_period=max_period)
        m, orbit = cv.m, cv.orbit
    if start is None:
        V = GridFunction.constant(0.0, n_grid)
    else:
        V = GridFunction(start(_centers(n_grid))).normalized_max_zero()
    op = _Operator(sys, A, 1.0, n_grid)
    spare, scratch = np.empty(n_grid), np.empty(min(_RENORM_BLOCK, n_grid))
    change = math.inf
    for it in range(1, MAX_ITER_LO + 1):
        Vn = lax_oleinik_step(sys, A, m, V, op=op, _out=spare)
        change = _renormalize_change(Vn.values, V.values, scratch, op.top)
        spare, V = V.values, Vn
        if change <= TOL_LO:
            break
    else:
        raise ErgOptError(f"Lax-Oleinik iteration did not converge after {MAX_ITER_LO} steps; "
                          f"last change {change:.3e}")
    final = lax_oleinik_step(sys, A, m, V, op=op, _out=spare).values
    calibrated = _renormalize_change(final, V.values, scratch, op.top) <= CAL_TOL
    return SubactionResult(V, float(m), change, calibrated, orbit, it)


def _renormalize_change(un: np.ndarray, u: np.ndarray, scratch: np.ndarray, *top) -> float:
    """Shift un to max 0 in place and return max |u - un|.

    top, when given, is max(un), as the step that wrote un found it
    (op.top); else it is taken here.  A zero maximum is taken again with
    np.max, whose reduction order decides between 0.0 and -0.0.  The shift
    and the difference run block by block through scratch, so each block
    is read from memory once.  A block's peak is max(d.max(), -d.min()),
    two reads and no write, which equals max |d| up to the sign of a zero
    (the final abs restores it) and is NaN when d holds one; the arithmetic
    is that of normalized_max_zero and sup_diff.
    """
    top = top[0] if top and top[0] != 0.0 else np.max(un)
    size = scratch.size
    peaks = np.empty(-(-un.size // size))
    for k, s in enumerate(range(0, un.size, size)):
        block = un[s:s + size]
        block -= top
        d = scratch[:block.size]
        np.subtract(u[s:s + size], block, out=d)
        peaks[k] = max(np.maximum.reduce(d), -np.minimum.reduce(d))
    return abs(float(np.max(peaks)))


@dataclass(frozen=True)
class DeviationValue:
    """The one-sided rate function I at a point, or a partial sum of it.

    converged is True when value is the series' value: +inf (the orbit
    ends on a cycle that is not maximizing, or a partial sum exceeded
    CAP_I), the preperiod sum of an orbit that ends on a maximizing cycle
    (n_used is then n_terms), or a sum cut by the early exit (last term
    below TOL_I).  Otherwise the orbit did not repeat within n_terms and
    value is the partial sum -- callers needing certainty must raise n_terms.
    """

    value: float
    converged: bool
    n_used: int

    def __float__(self) -> float:
        return self.value


def deviation_I(sys: SystemSpec, A: PotentialSpec, V, m: float, x,
                n_terms: int = N_TERMS_I, early_exit: bool = True) -> DeviationValue:
    """Sum of R(T^n x) with R = V(T .) - V(.) - A(.) + m along the forward orbit.

    V may be a GridFunction or any callable that acts elementwise: it is
    called on float64 arrays of orbit points, whatever the start, and a
    scalar result broadcasts over them.  With early_exit the sum stops at
    the first term below TOL_I, which is correct near the maximizing set
    but can underestimate on orbits that merely pass through the zero set
    of R; sweeps that must bound b from below run with early_exit=False.

    One walk serves every start.  It runs ahead of the terms in stretches
    of 8, 16, 32, ... points and stops at its first repeated point and at
    point n_terms.  A is read once at each point the walk steps from,
    which are the points that have a term, and V once per stretch, so the
    values V returns number less than twice the points the terms read,
    plus 8.  A Fraction start is walked exactly on every system, as the
    integer pair (N, D) of each point (dynamics._exact_step: N -> +-2N mod
    D on 2x and -2x, one step of Euclid's algorithm on Gauss).  A point's
    float is N / D by int true division, and A there is the int true
    division of A._ratio(N, D) for a polynomial A, else A at that float:
    every value read is the correctly rounded one at the exact point, and
    no Fraction is built.  A float or an int start steps by apply_map,
    with float(z) and float(A(z)): it ends on the fixed point 0 of +-2x
    after about 54 steps, but a float Gauss orbit does not repeat.

    The terms are added in order from 0.0, and each partial sum is capped
    at CAP_I (+inf) and each term tested against TOL_I as it is added.  At
    the first repeated point, after k preperiod points and a cycle of p,
    each turn of the cycle adds p (m - avg), avg being A's average over
    the cycle as critical_value takes it.  If m - avg > TIE_TOL, the value
    is +inf (n_used k + p); if avg - m > TIE_TOL, m is not the critical
    value and ErgOptError is raised.  Otherwise the cycle is maximizing:
    for a calibrated V its terms are >= 0 and sum to 0, so every later
    partial sum, and the value, is the sum of the k preperiod terms
    (n_used n_terms).  A walk that does not repeat within n_terms returns
    its partial sum.
    """
    n_terms = _as_count(n_terms, 1, ErgOptError, "n_terms must be an int >= 1, not {!r}")
    exact = isinstance(x, Fraction)
    if exact:  # each point is the integer pair (N, D) of N / D
        z, step = (x.numerator, x.denominator), _exact_step(sys)
        if not 0 <= z[0] <= z[1]:
            _check_interval(x)  # raises DynamicsError
        if A.coeffs is None:
            def value(z):
                return float(A(z[0] / z[1]))
        else:
            ratio = A._ratio

            def value(z):
                num, den = ratio(*z)
                return num / den
    else:
        # a start outside [0, 1] raises in apply_map before A reads it
        z, step = x, functools.partial(apply_map, sys)

        def value(z):
            return float(A(z))
    walk, first = [z], {z: 0}  # the points walked, and each one's first index
    repeat = None  # the index of the first repeated point, once walked
    v: list[float] = []  # V at walk[0], walk[1], ...
    a_vals: list[float] = []  # A at each walked point that has a term
    sums: list[float] = []  # per term: the sum of the terms before it
    total, size = 0.0, 8
    for i in range(n_terms):
        if i + 1 >= len(v):  # V at walk[i + 1] is not known yet, or walk[i] is the repeat
            if i == repeat:
                k = first[walk[i]]
                avg = float(sum(a_vals[k:]) / (i - k))
                if m - avg > TIE_TOL:
                    return DeviationValue(math.inf, True, i)
                if avg - m > TIE_TOL:
                    point = Fraction(*walk[i]) if exact else walk[i]
                    raise ErgOptError(f"the cycle through {point!r} averages {avg!r}, above "
                                      f"m = {m!r}: m is not the critical value")
                return DeviationValue(sums[k], True, n_terms)
            stop = min(len(v) + size, n_terms + 1)
            while len(walk) < stop and repeat is None:
                z = step(z)
                a_vals.append(value(walk[-1]))
                if z in first:
                    repeat = len(walk)
                else:
                    first[z] = len(walk)
                walk.append(z)
            pts = np.array([N / D for N, D in walk[len(v):]] if exact
                           else [float(w) for w in walk[len(v):]])
            vals = np.asarray(V(pts), dtype=float)
            if vals.shape != pts.shape:  # a scalar V broadcasts
                vals = np.broadcast_to(vals, pts.shape)
            v += vals.tolist()
            size *= 2
        sums.append(total)
        r = v[i + 1] - v[i] - a_vals[i] + m
        total += r
        if total > CAP_I:
            return DeviationValue(math.inf, True, i + 1)
        if early_exit and abs(r) < TOL_I:
            return DeviationValue(total, True, i + 1)
    return DeviationValue(total, False, n_terms)
