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
_DEPTH_MESSAGE = "cocycle depth must be an int >= 1, not {!r}"


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

    tail_bound is the recorded truncation bound of a series kernel,
    series_tail_bound(A, depth); closed forms carry 0.
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
    """H 2^(1 - depth), H = A.holder_constant: a bound on the sum of the
    terms after the depth-th of every cocycle series, on all three systems.

    For x, x' in [0, 1] the n-th term is at most H |tau_n x - tau_n x'|,
    and n inverse branches shrink distances by a factor at most 2^(1 - n):
    a branch of 2x or -2x has slope 1/2; a Gauss branch x -> 1/(b + x) has
    slope 1/(b + x)^2 <= 1, and two of them, x -> (b + x)/(a (b + x) + 1),
    slope 1/(a (b + x) + 1)^2 <= 1/4.  So the tail is at most
    H sum_(n > depth) 2^(1 - n) = H 0.5^depth / 0.5.
    """
    return A.holder_constant * 0.5 ** depth / 0.5


def cocycle_delta(sys: SystemSpec, A: PotentialSpec, x, x_prime, y, depth: int) -> CocycleValue:
    """Backward-orbit cocycle sum_{n=1..depth} [A(tau_{n,y} x) - A(tau_{n,y} x')].

    The branch at step n is selected by the symbol of T*^(n-1) y.  On 2x
    and -2x mod 1, with A = a + b x + c x^2 given by its coeffs and x, x'
    and y all Fractions, the sum is read off y's digits as one exact
    Fraction, and neither x nor x' is walked (`_digit_cocycle`): with
    sigma = +-1 and c_n the offset of y's n-th branch
    u -> (sigma u + c_n) / 2, tau_n x = (sigma^n x + E_n) / 2^n,
    E_n = sigma E_(n-1) + c_n 2^(n-1), so
    Delta = (x - x') [b S1 + c (x + x') S2 + 2 c S3] with S1 = sum sigma^n 2^-n,
    S2 = sum 4^-n and S3 = sum sigma^n E_n 4^-n.  On -2x, S1 -> -1/3 and
    S3 -> -2y/3, the W1 and W2 differences of `quadratic_kernel`.  Every
    other input takes one walk (`_walk_cocycle`), arrays elementwise, whose
    scalar sums are those of the checked scalar steps; when x, x' or y is
    an array, A acts elementwise on float64 arrays, and a scalar value at
    a Fraction point is broadcast over that point's entries.  Both check
    y, then x, then x' to lie in [0, 1], once, on entry.
    """
    depth = _as_count(depth, 1, InvolutionError, _DEPTH_MESSAGE)
    if (sys.kind is not SystemKind.GAUSS and A.coeffs is not None
            and all(isinstance(p, Fraction) for p in (x, x_prime, y))):
        value = _digit_cocycle(sys, A, x, x_prime, y, depth)
    else:
        value = _walk_cocycle(sys, A, x, x_prime, y, depth)
    return CocycleValue(value, series_tail_bound(A, depth))


def _digit_cocycle(sys: SystemSpec, A: PotentialSpec, x: Fraction, x_prime: Fraction,
                   y: Fraction, depth: int) -> Fraction:
    """The digit formula of `cocycle_delta` in integers: 2^d S1 in closed
    form, 4^d S3 = sum F_n 4^(d-n) with F_n = sigma^n E_n by Horner steps,
    and Delta one Fraction over 3 L 4^d (q q')^2 for x = p / q, x' = p' / q'
    and b, c over their common denominator L."""
    for p in (y, x, x_prime):
        _check_interval(p)
    _, b, c, lcd = A._int_coeffs
    minus = sys.kind is SystemKind.MINUS_DOUBLING
    sigma = -1 if minus else 1
    Y, E = y.numerator, y.denominator
    h, F, P3 = sigma, 0, 0  # h = sigma^n 2^(n-1) at step n
    for _ in range(depth):
        offset = (2 * Y >= E) + minus
        Y = sigma * (2 * Y - offset * E)
        F += offset * h
        h *= 2 * sigma
        P3 = 4 * P3 + F
    P1 = sigma * (((1 << depth) - sigma ** depth) // (2 - sigma))
    p, q, pp, qp = x.numerator, x.denominator, x_prime.numerator, x_prime.denominator
    qq, four = q * qp, 1 << 2 * depth
    bracket = ((3 * b * P1 << depth) + 6 * c * P3) * qq + c * (p * qp + pp * q) * (four - 1)
    return Fraction((p * qp - pp * q) * bracket, 3 * lcd * four * qq * qq)


def _walk_cocycle(sys: SystemSpec, A: PotentialSpec, x, x_prime, y, depth: int):
    """The step-by-step sum of `cocycle_delta`, on scalars and arrays.

    A float point steps by the branch and A is evaluated on it.  A
    Fraction point P / Q is walked exactly as the integer pair (N, D) of
    its Moebius images, Python ints (in object arrays beside an array
    branch word), so no step can overflow.  A polynomial A is valued on it
    in integers by A._ratio, as one Fraction, or divided once when an input
    is an array; any other A is evaluated on the point rounded once.  Inverse
    branches keep [0, 1] in [0, 1], so after the entry checks the walk
    steps unchecked, except that a Gauss y steps by backward_step, whose
    digit check can fail mid-walk.
    """
    gauss = sys.kind is SystemKind.GAUSS
    for p in (y, x, x_prime):
        _check_interval(p)
    exact = [isinstance(p, Fraction) for p in (x, x_prime)]
    points = [(p.numerator, p.denominator) if is_exact else p
              for p, is_exact in zip((x, x_prime), exact)]
    arrays = any(isinstance(p, np.ndarray) for p in (x, x_prime, y))
    quotient = _rounded if arrays else Fraction
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
                values.append(quotient(*A._ratio(N, D)))
            else:
                t = _rounded(N, D)
                values.append(np.broadcast_to(np.asarray(A(t), float), np.shape(t)) if arrays
                              else A(t))
        total = total + (values[0] - values[1])
    return total


def _rounded(num, den):
    """num / den by int true division, elementwise over arrays: one correct
    rounding, as `float(Fraction(num, den))` gives it."""
    q = num / den
    return q.astype(float) if isinstance(q, np.ndarray) and q.dtype == object else q


def fundamental_kernel(sys: SystemSpec, A: PotentialSpec, base_x_prime,
                       depth: int = SERIES_DEPTH) -> KernelSpec:
    """W0(x, y) = Delta_A(x, base, y), lazily evaluated at the given depth."""
    depth = _as_count(depth, 1, InvolutionError, _DEPTH_MESSAGE)

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
    DUAL_TOL (beyond the kernel's recorded series tail), or by an amount
    that is NaN, i.e. when W is not an involution kernel for A.  A*
    evaluates on float arrays.
    """
    ys = np.linspace(probe_floor(sys, 1e-3), 1.0 - 1e-3, DUAL_CHECK_GRID)
    # a kernel infinite on the probe grid gives inf - inf = NaN, which fails below
    with np.errstate(invalid="ignore"):
        vals = _dual_values(sys, A, W, np.array(DUAL_PROBE_XS)[:, None], ys[None, :])
        spread = vals.max(axis=0) - vals.min(axis=0)
    bad = np.flatnonzero(~(spread <= DUAL_TOL + 4.0 * W.tail_bound))  # a NaN spread fails
    if bad.size:
        raise InvolutionError(
            f"{W.name} is not an involution kernel for {A.name}: "
            f"x-dependence {spread[bad[0]]:.3e} at y={ys[bad[0]]:.4f}"
        )
    x0, x1 = DUAL_PROBE_XS[:2]

    def fn(y):
        y = np.asarray(y, dtype=float)
        return 0.5 * (_dual_values(sys, A, W, x0, y) + _dual_values(sys, A, W, x1, y))

    return PotentialSpec(f"dual[{A.name}]", fn, A.holder_constant)


def cohomology_residual(sys: SystemSpec, A: PotentialSpec, W: KernelSpec,
                        A_star: PotentialSpec, probes: int = 1000,
                        seed: int = 0) -> float:
    """max over probe pairs of |A*(y) - A(tau_y x) - W(tau_y x, T* y) + W(x, y)|;
    the pairs are drawn in turn, x on [0, 1) and then y on [probe_floor, 1)."""
    probes = _as_count(probes, 1, InvolutionError, "probes must be an int >= 1, not {!r}")
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
                       "twist_check needs an int n_grid >= 2, got {!r}")
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
