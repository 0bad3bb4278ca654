"""Involution kernels, cocycles, dual potentials, and twist checks.

A kernel W(x, y) is an involution kernel for A when
A*(y) = A(tau_y x) + W(tau_y x, T* y) - W(x, y) does not depend on x;
A* is then the dual potential.  The closed-form library covers the
quadratic family under -2x mod 1 (W = a + b*W1 + c*W2) and the Gauss map
(W = -2 log(1 + x y)); everything else goes through the cocycle series.

Note on the quadratic closed forms: a kernel is only determined up to an
additive function of y, and two published variants of the W for
A = -(x-1/2)^2 (and its mirror for +(x-1/2)^2) differ from the
a + b*W1 + c*W2 combination by a function of *x*, which breaks the
cohomology identity.  The combination form is the one whose kernel
differences reproduce the cocycle, so it is what `quadratic_kernel`
returns; the literal variants are kept as `example5_kernel` /
`example6_kernel` because several transport-side reference numbers are
quoted for them (pair sums are insensitive to the discrepancy).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import (MINUS_DOUBLING, SystemSpec, SystemKind, _affine_branch, _affine_image,
                       _as_count, _branch, _check_interval, _symbol, backward_step,
                       branch_point, probe_floor)
from .potentials import PotentialSpec, _over_lcd, perturbed_potential, polynomial_potential

__all__ = [
    "InvolutionError",
    "KernelSpec",
    "TwistMethod",
    "TwistReport",
    "CocycleValue",
    "w1",
    "w2",
    "quadratic_kernel",
    "gauss_log_kernel",
    "example5_kernel",
    "example6_kernel",
    "cocycle_delta",
    "fundamental_kernel",
    "dual_potential",
    "cohomology_residual",
    "twist_check",
    "twist_stability_probe",
]

# Terms of every cocycle series the pipeline sums (kernels, probes, check 4).
SERIES_DEPTH = 48


class InvolutionError(ValueError):
    """Raised when a claimed kernel fails the cohomology identity."""


def w1(x, y):
    """Kernel of A(x) = x under -2x mod 1."""
    return -(x + y) / 3


def w2(x, y):
    """Kernel of A(x) = x^2 under -2x mod 1."""
    return (x * x + y * y) / 3 - 4 * x * y / 3


@dataclass(frozen=True)
class KernelSpec:
    """An evaluable kernel W(x, y) plus provenance and error metadata.

    tail_bound is the recorded truncation bound for series kernels
    (holder_constant * contraction**depth / (1 - contraction)); closed
    forms carry 0.
    """

    fn: Callable
    name: str
    tail_bound: float = 0.0
    depth: int | None = None

    def __call__(self, x, y):
        return self.fn(x, y)

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Matrix W[i, j] = W(xs[i], ys[j]) on float points, equal to the
        scalar calls; every form, series kernels included, broadcasts."""
        return self.fn(np.asarray(xs)[:, None], np.asarray(ys)[None, :])


def quadratic_kernel(a, b, c, name: str | None = None) -> KernelSpec:
    """W = a + b*W1 + c*W2: the involution kernel of a + b x + c x^2.

    On two Fractions x = p / q and y = r / s the value is exact:
    3 q^2 s^2 W = 3 a (qs)^2 - b (ps + rq) qs + c ((ps)^2 + (rq)^2 - 4 ps rq),
    taken in integers over the coefficients' common denominator and built
    as one Fraction, which equals the Fraction expression term by term.
    """
    af, bf, cf = float(a), float(b), float(c)
    ai, bi, ci, lcd = _over_lcd((Fraction(a), Fraction(b), Fraction(c)))

    def fn(x, y):
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            p, q, r, s = x.numerator, x.denominator, y.numerator, y.denominator
            qs, ps, rq = q * s, p * s, r * q
            num = (3 * ai * qs - bi * (ps + rq)) * qs + ci * (ps * ps + rq * rq - 4 * ps * rq)
            return Fraction(num, 3 * lcd * qs * qs)
        return af + bf * w1(x, y) + cf * w2(x, y)

    return KernelSpec(fn, name or f"{af:g}+{bf:g}*W1+{cf:g}*W2")


def gauss_log_kernel() -> KernelSpec:
    """W(x, y) = -2 log(1 + x y), the kernel of 2 log x for the Gauss map."""

    def fn(x, y):
        return -2.0 * np.log(1.0 + np.asarray(x, dtype=float) * np.asarray(y, dtype=float))

    return KernelSpec(fn, "-2*log(1+x*y)")


def example5_kernel() -> KernelSpec:
    """Literal non-twist kernel variant quoted for A = -(x-1/2)^2.

    Differs from quadratic_kernel(-1/4, 1, -1) by -x/3; pair sums over a
    coupling support and all Delta-type differences are unaffected.
    """

    def fn(x, y):
        return -(x * x) / 3 - (y * y) / 3 + 4 * x * y / 3 - 2 * x / 3 - y / 3

    return KernelSpec(fn, "example5")


def example6_kernel() -> KernelSpec:
    """Literal twist kernel variant quoted for A = (x-1/2)^2 (mirror of example5)."""

    def fn(x, y):
        return (x * x) / 3 + (y * y) / 3 - 4 * x * y / 3 + 2 * x / 3 + y / 3

    return KernelSpec(fn, "example6")


class CocycleValue(NamedTuple):
    value: float
    tail_bound: float


def series_tail_bound(A: PotentialSpec, depth: int) -> float:
    return A.holder_constant * A.contraction ** depth / (1.0 - A.contraction)


def cocycle_delta(sys: SystemSpec, A: PotentialSpec, x, x_prime, y, depth: int) -> CocycleValue:
    """Backward-orbit cocycle sum_{n=1..depth} [A(tau_{n,y} x) - A(tau_{n,y} x')].

    The branch at step n is selected by the symbol of T*^(n-1) y.  Exact
    Fraction inputs stay exact for polynomial potentials on the affine
    systems, in which case the returned value carries no rounding at all.
    On 2x and -2x mod 1, with a potential that has coefficients and x, x'
    and y all Fractions, the sum is computed in integers over one common
    denominator (`_affine_cocycle`); the Fraction returned is the same as
    the step-by-step loop's.  When any of x, x', y is an array the sum is a
    float array (`_array_cocycle`): a Fraction x or x' is walked exactly and
    each of its values rounded once.  Every other input takes the scalar
    step-by-step loop.
    """
    depth = _as_count(depth, 1, InvolutionError, f"cocycle depth must be an int >= 1, not {depth!r}")
    if (sys.kind in (SystemKind.DOUBLING, SystemKind.MINUS_DOUBLING) and A.coeffs is not None
            and all(isinstance(p, Fraction) for p in (x, x_prime, y))):
        return CocycleValue(_affine_cocycle(sys, A, x, x_prime, y, depth),
                            series_tail_bound(A, depth))
    if any(isinstance(p, np.ndarray) for p in (x, x_prime, y)):
        return CocycleValue(_array_cocycle(sys, A, x, x_prime, y, depth),
                            series_tail_bound(A, depth))
    cur_x, cur_xp, cur_y = x, x_prime, y
    total = 0
    for _ in range(depth):
        s, cur_y = backward_step(sys, cur_y)
        cur_x = branch_point(sys, s, cur_x)
        cur_xp = branch_point(sys, s, cur_xp)
        total = total + (A(cur_x) - A(cur_xp))
    return CocycleValue(total, series_tail_bound(A, depth))


def _array_cocycle(sys: SystemSpec, A: PotentialSpec, x, x_prime, y, depth: int):
    """The cocycle loop of `cocycle_delta` when x, x' or y is an array.

    A float point steps by `branch_point` and A is evaluated on it.  A
    Fraction point P / Q is walked exactly as the integer pair (N, D) of
    its Moebius images: N / (Q 2^n) on 2x and -2x, the continued-fraction
    pair on Gauss.  Each of its steps yields the float of its exact value
    under A, as the Fraction arithmetic would round it: a polynomial A is
    valued in integers and divided once, any other A is evaluated on the
    point rounded once.  The pair is held as Python ints, in object arrays
    once the branch word is an array, so no step can overflow.

    y, x and x' are checked to lie in [0, 1] once, on entry: inverse
    branches keep [0, 1] in [0, 1], so the walk steps unchecked, except
    that a Gauss y steps by backward_step, whose check that a digit is
    within branch_cap can fail mid-walk.
    """
    gauss = sys.kind is SystemKind.GAUSS
    for p in (y, x, x_prime):
        _check_interval(p)
    exact = [isinstance(p, Fraction) for p in (x, x_prime)]
    points = [(p.numerator, p.denominator) if is_exact else p
              for p, is_exact in zip((x, x_prime), exact)]
    if A.coeffs is not None:
        a, b, c, lcd = A._int_coeffs
    cur_y, total = y, 0
    for _ in range(depth):
        if gauss:
            s, cur_y = backward_step(sys, cur_y)
        else:
            s = _symbol(sys, cur_y)
            cur_y = _affine_image(sys, s, cur_y)
        values = []
        for i, is_exact in enumerate(exact):
            if not is_exact:
                points[i] = _branch(sys, s, points[i])
                values.append(A(points[i]))
                continue
            N, D = points[i]
            k = s.astype(object) if isinstance(s, np.ndarray) else s
            if gauss:
                N, D = D, k * D + N
            else:
                sign, shift = _affine_branch(sys, k)
                N, D = sign * N + shift * D, 2 * D
            points[i] = N, D
            if A.coeffs is not None:
                DD = D * D
                values.append(_rounded((c * N + b * D) * N + a * DD, lcd * DD))
            else:
                t = _rounded(N, D)
                values.append(np.reshape([float(A(v)) for v in np.ravel(t).tolist()],
                                         np.shape(t)))
        total = total + (values[0] - values[1])
    return total


def _rounded(num, den):
    """num / den by int true division, elementwise over arrays: one correct
    rounding, as `float(Fraction(num, den))` gives it."""
    q = num / den
    return q.astype(float) if isinstance(q, np.ndarray) and q.dtype == object else q


def _affine_cocycle(sys: SystemSpec, A: PotentialSpec, x: Fraction, x_prime: Fraction,
                    y: Fraction, depth: int) -> Fraction:
    """Exact cocycle of a + b x + c x^2 under 2x or -2x mod 1, in integers.

    With D = lcm of the x denominators, the n-th backward points are
    X_n / (D 2^n) and X'_n / (D 2^n), while y = Y / E keeps its own
    denominator.  The constant a cancels, and
    Delta = (b D sum dX_n 2^(2d-n) + c sum dX_n (X_n + X'_n) 4^(d-n)) / (D^2 4^d)
    with dX_n = X_n - X'_n; both sums are accumulated by Horner steps, and
    with b and c over their common denominator (A._int_coeffs) Delta is
    built as one Fraction.  Branch images of points of [0, 1] stay in
    [0, 1], so the inputs are the only points that need a range check.
    """
    for p in (y, x, x_prime):
        _check_interval(p)
    _, b, c, lcd = A._int_coeffs
    D = math.lcm(x.denominator, x_prime.denominator)
    X = x.numerator * (D // x.denominator)
    Xp = x_prime.numerator * (D // x_prime.denominator)
    Y, E = y.numerator, y.denominator
    minus = sys.kind is SystemKind.MINUS_DOUBLING
    half = D  # D 2^(n-1) at step n
    acc_b = acc_c = 0
    for _ in range(depth):
        s = 0 if 2 * Y < E else 1
        if minus:
            Y = (1 + s) * E - 2 * Y
            X = (1 + s) * half - X
            Xp = (1 + s) * half - Xp
        else:
            Y = 2 * Y - s * E
            if s:
                X += half
                Xp += half
        half <<= 1
        dX = X - Xp
        acc_b = 2 * acc_b + dX
        acc_c = 4 * acc_c + dX * (X + Xp)
    return Fraction(b * ((acc_b * D) << depth) + c * acc_c, lcd * (D * D << 2 * depth))


def fundamental_kernel(sys: SystemSpec, A: PotentialSpec, base_x_prime,
                       depth: int = SERIES_DEPTH) -> KernelSpec:
    """W0(x, y) = Delta_A(x, base, y), lazily evaluated at the given depth."""
    depth = _as_count(depth, 1, InvolutionError, f"cocycle depth must be an int >= 1, not {depth!r}")

    def fn(x, y):
        return cocycle_delta(sys, A, x, base_x_prime, y, depth).value

    return KernelSpec(fn, f"Delta[{A.name}; base={float(base_x_prime):g}]",
                      tail_bound=series_tail_bound(A, depth), depth=depth)


# A* is the mean over the first two probe x; all three check x-independence.
DUAL_PROBE_XS = (0.17, 0.58, 0.93)
DUAL_CHECK_GRID = 17
DUAL_TOL = 1e-8
# twist_check's finite-difference step, and the margin a twist verdict needs.
TWIST_STEP = 1e-4
TWIST_MARGIN = 1e-9


def _dual_values(sys: SystemSpec, A: PotentialSpec, W: KernelSpec, x, y):
    """A(tau_y x) + W(tau_y x, T* y) - W(x, y), broadcast over x and y."""
    s, ty = backward_step(sys, y)
    tx = branch_point(sys, s, x)
    return A(tx) + W(tx, ty) - W(x, y)


def dual_potential(sys: SystemSpec, A: PotentialSpec, W: KernelSpec) -> PotentialSpec:
    """Dual potential A*(y), with the x-independence verified up front.

    Raises InvolutionError when varying x moves the value by more than
    DUAL_TOL (beyond the kernel's recorded series tail), i.e. when W is
    not an involution kernel for A.  A* evaluates on float arrays.
    """
    ys = np.linspace(probe_floor(sys, 1e-3), 1.0 - 1e-3, DUAL_CHECK_GRID)
    vals = _dual_values(sys, A, W, np.array(DUAL_PROBE_XS)[:, None], ys[None, :])
    spread = vals.max(axis=0) - vals.min(axis=0)
    bad = np.flatnonzero(spread > DUAL_TOL + 4.0 * W.tail_bound)
    if bad.size:
        raise InvolutionError(
            f"{W.name} is not an involution kernel for {A.name}: "
            f"x-dependence {spread[bad[0]]:.3e} at y={ys[bad[0]]:.4f}"
        )
    x0, x1 = DUAL_PROBE_XS[:2]

    def fn(y):
        y = np.asarray(y, dtype=float)
        return 0.5 * (_dual_values(sys, A, W, x0, y) + _dual_values(sys, A, W, x1, y))

    return PotentialSpec(f"dual[{A.name}]", fn, A.holder_constant, A.contraction)


def cohomology_residual(sys: SystemSpec, A: PotentialSpec, W: KernelSpec,
                        A_star: PotentialSpec, probes: int = 1000,
                        seed: int = 0) -> float:
    """max over probe pairs of |A*(y) - A(tau_y x) - W(tau_y x, T* y) + W(x, y)|;
    the pairs are drawn in turn, x on [0, 1) and then y on [probe_floor, 1)."""
    probes = _as_count(probes, 1, InvolutionError, f"probes must be an int >= 1, not {probes!r}")
    rng = np.random.default_rng(seed)
    x, y = rng.uniform((0.0, probe_floor(sys, 1e-9)), 1.0, size=(probes, 2)).T
    return float(np.max(np.abs(A_star(y) - _dual_values(sys, A, W, x, y))))


class TwistMethod(enum.Enum):
    PAIRWISE_GRID = "pairwise_grid"
    DELTA_MONOTONE = "delta_monotone"
    MIXED_PARTIAL = "mixed_partial"


@dataclass(frozen=True)
class TwistReport:
    """Outcome of a twist check.

    margin is the minimal strict-inequality gap found (positive iff twist);
    witness is the quadruple (a, b, a', b') attaining it.  For the
    mixed-partial method the raw extreme finite-difference values are
    reported alongside.
    """

    is_twist: bool
    margin: float
    witness: tuple[float, float, float, float]
    method: TwistMethod
    mixed_partial_min: float | None = None
    mixed_partial_max: float | None = None


def twist_check(W: KernelSpec, method: TwistMethod = TwistMethod.MIXED_PARTIAL,
                n_grid: int = 21) -> TwistReport:
    """Check the submodularity W(a,b) + W(a',b') < W(a,b') + W(a',b) for a<a', b<b'.

    Every kernel value comes from `KernelSpec.grid` on an n_grid-point grid
    of [0, 1], n_grid >= 2; the verdict is margin > TWIST_MARGIN.
    """
    n_grid = _as_count(n_grid, 2, InvolutionError,
                       f"twist_check needs an int n_grid >= 2, got {n_grid!r}")
    if method is TwistMethod.MIXED_PARTIAL:
        h = TWIST_STEP
        g = np.linspace(2 * h, 1.0 - 2 * h, n_grid)
        gp, gm = g + h, g - h
        mp = (W.grid(gp, gp) - W.grid(gp, gm) - W.grid(gm, gp) + W.grid(gm, gm)) / (4 * h * h)
        i, j = np.unravel_index(int(np.argmax(mp)), mp.shape)
        mp_max, wx, wy = float(mp[i, j]), float(g[i]), float(g[j])
        margin = -mp_max
        return TwistReport(margin > TWIST_MARGIN, margin,
                           (wx - h, wy - h, wx + h, wy + h), method,
                           mixed_partial_min=float(np.min(mp)), mixed_partial_max=mp_max)

    if method not in (TwistMethod.PAIRWISE_GRID, TwistMethod.DELTA_MONOTONE):
        raise InvolutionError(f"unknown twist method {method!r}")
    g = np.linspace(0.0, 1.0, n_grid)
    Wg = W.grid(g, g)
    # the pair (a, b) < (a', b') is grid points (i, j) < (ip, jp): PAIRWISE_GRID
    # scans every j < jp, DELTA_MONOTONE the neighbours jp = j + 1
    j, jp = (np.triu_indices(n_grid, k=1) if method is TwistMethod.PAIRWISE_GRID
             else (np.arange(n_grid - 1), np.arange(1, n_grid)))
    best_gap, best_wit = math.inf, (0.0, 0.0, 0.0, 0.0)
    for i in range(n_grid - 1):
        # row ip - i - 1 of gaps holds every ip > i at once, each entry by
        # the expression and rounding order of a loop over (ip, j, jp)
        below, wi = Wg[i + 1:], Wg[i]
        if method is TwistMethod.PAIRWISE_GRID:
            # W(a', b) + W(a, b') - W(a, b) - W(a', b')
            gaps = below[:, j] + wi[jp] - wi[j] - below[:, jp]
        else:
            # np.diff of d = W(a, .) - W(a', .)
            d = wi - below
            gaps = d[:, jp] - d[:, j]
        ks = np.argmin(gaps, axis=1)
        mins = gaps[np.arange(len(ks)), ks]
        # rows in the loop's order, a row's first minimum, and a strict <, so
        # ties keep the first witness; a row whose argmin is a NaN is
        # skipped, as the loop skipped it
        for ip, k, gap in zip(range(i + 1, n_grid), ks.tolist(), mins.tolist()):
            if gap < best_gap:
                best_gap = gap
                best_wit = (float(g[i]), float(g[j[k]]), float(g[ip]), float(g[jp[k]]))
    return TwistReport(best_gap > TWIST_MARGIN, best_gap, best_wit, method)


@dataclass(frozen=True)
class TwistStabilityResult:
    largest_passing_eps: float | None
    reports: dict[float, TwistReport]


def twist_stability_probe(p_coeffs: tuple, R: PotentialSpec, eps_list: Sequence[float],
                          n_grid: int = 9) -> TwistStabilityResult:
    """For A = p + eps*R under -2x mod 1, build the cocycle-series kernel
    of SERIES_DEPTH terms from the base point x' = 1/2 and run the twist check.

    Series kernels are only piecewise smooth in y (the backward branch word
    flips at dyadic points; the flips cancel exactly for the quadratic part
    but not for a generic perturbation), so the check is the monotone
    cocycle-difference criterion rather than a y-derivative.  Returns the
    largest eps in the list whose kernel passes; values are reported, not
    asserted, since only existence of a passing eps is known.
    """
    a, b, c = p_coeffs
    if not float(c) > 0:
        raise InvolutionError("stability probe requires a strictly convex quadratic part")
    p = polynomial_potential(a, b, c)
    reports = {}
    passing = []
    for eps in eps_list:
        A = perturbed_potential(p, R, eps)
        W0 = fundamental_kernel(MINUS_DOUBLING, A, 0.5, depth=SERIES_DEPTH)
        rep = twist_check(W0, TwistMethod.DELTA_MONOTONE, n_grid=n_grid)
        reports[float(eps)] = rep
        if rep.is_twist:
            passing.append(float(eps))
    return TwistStabilityResult(max(passing) if passing else None, reports)
