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

from .dynamics import (SystemSpec, SystemKind, _check_interval, as_real, backward_step,
                       branch_point, probe_floor)
from .potentials import PotentialSpec, perturbed_potential, polynomial_potential

__all__ = [
    "InvolutionError",
    "KernelForm",
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


class InvolutionError(ValueError):
    """Raised when a claimed kernel fails the cohomology identity."""


def w1(x, y):
    """Kernel of A(x) = x under -2x mod 1."""
    return -(x + y) / 3


def w2(x, y):
    """Kernel of A(x) = x^2 under -2x mod 1."""
    return (x * x + y * y) / 3 - 4 * x * y / 3


class KernelForm(enum.Enum):
    CLOSED_QUADRATIC = "closed_quadratic"
    GAUSS_LOG = "gauss_log"
    COCYCLE_SERIES = "cocycle_series"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class KernelSpec:
    """An evaluable kernel W(x, y) plus provenance and error metadata.

    tail_bound is the recorded truncation bound for series kernels
    (holder_constant * contraction**depth / (1 - contraction)); closed
    forms carry 0.
    """

    form: KernelForm
    fn: Callable
    name: str
    tail_bound: float = 0.0
    depth: int | None = None

    def __call__(self, x, y):
        return self.fn(x, y)

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Matrix W[i, j] = W(xs[i], ys[j]) on float points, equal to the
        scalar calls; closed forms broadcast, series kernels loop."""
        if self.form is KernelForm.COCYCLE_SERIES:
            return np.array([[float(self.fn(x, y)) for y in ys] for x in xs])
        return self.fn(np.asarray(xs)[:, None], np.asarray(ys)[None, :])


def quadratic_kernel(a, b, c, name: str | None = None) -> KernelSpec:
    """W = a + b*W1 + c*W2: the involution kernel of a + b x + c x^2."""
    af, bf, cf = float(a), float(b), float(c)
    ar, br, cr = Fraction(a), Fraction(b), Fraction(c)

    def fn(x, y):
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            return ar + br * (-(x + y) / 3) + cr * ((x * x + y * y) / 3 - 4 * x * y / 3)
        return af + bf * w1(x, y) + cf * w2(x, y)

    return KernelSpec(KernelForm.CLOSED_QUADRATIC, fn,
                      name or f"{af:g}+{bf:g}*W1+{cf:g}*W2")


def gauss_log_kernel() -> KernelSpec:
    """W(x, y) = -2 log(1 + x y), the kernel of 2 log x for the Gauss map."""

    def fn(x, y):
        return -2.0 * np.log(1.0 + np.asarray(x, dtype=float) * np.asarray(y, dtype=float))

    return KernelSpec(KernelForm.GAUSS_LOG, fn, "-2*log(1+x*y)")


def example5_kernel() -> KernelSpec:
    """Literal non-twist kernel variant quoted for A = -(x-1/2)^2.

    Differs from quadratic_kernel(-1/4, 1, -1) by -x/3; pair sums over a
    coupling support and all Delta-type differences are unaffected.
    """

    def fn(x, y):
        return -(x * x) / 3 - (y * y) / 3 + 4 * x * y / 3 - 2 * x / 3 - y / 3

    return KernelSpec(KernelForm.EXPLICIT, fn, "example5")


def example6_kernel() -> KernelSpec:
    """Literal twist kernel variant quoted for A = (x-1/2)^2 (mirror of example5)."""

    def fn(x, y):
        return (x * x) / 3 + (y * y) / 3 - 4 * x * y / 3 + 2 * x / 3 + y / 3

    return KernelSpec(KernelForm.EXPLICIT, fn, "example6")


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
    the step-by-step loop's.  Every other input takes that loop.
    """
    if depth < 1:
        raise InvolutionError("cocycle depth must be >= 1")
    if (sys.kind in (SystemKind.DOUBLING, SystemKind.MINUS_DOUBLING) and A.coeffs is not None
            and all(isinstance(p, Fraction) for p in (x, x_prime, y))):
        return CocycleValue(_affine_cocycle(sys, A, x, x_prime, y, depth),
                            series_tail_bound(A, depth))
    cur_x, cur_xp, cur_y = x, x_prime, y
    total = 0
    for _ in range(depth):
        s, cur_y = backward_step(sys, cur_y)
        cur_x = branch_point(sys, s, cur_x)
        cur_xp = branch_point(sys, s, cur_xp)
        total = total + (A(cur_x) - A(cur_xp))
    return CocycleValue(total, series_tail_bound(A, depth))


def _affine_cocycle(sys: SystemSpec, A: PotentialSpec, x: Fraction, x_prime: Fraction,
                    y: Fraction, depth: int) -> Fraction:
    """Exact cocycle of a + b x + c x^2 under 2x or -2x mod 1, in integers.

    With D = lcm of the x denominators, the n-th backward points are
    X_n / (D 2^n) and X'_n / (D 2^n), while y = Y / E keeps its own
    denominator.  The constant a cancels, and
    Delta = (b D sum dX_n 2^(2d-n) + c sum dX_n (X_n + X'_n) 4^(d-n)) / (D^2 4^d)
    with dX_n = X_n - X'_n; both sums are accumulated by Horner steps.
    Branch images of points of [0, 1] stay in [0, 1], so the inputs are
    the only points that need a range check.
    """
    for p in (y, x, x_prime):
        _check_interval(p)
    _, b, c = A.coeffs
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
    return (b * ((acc_b * D) << depth) + c * acc_c) / (D * D << 2 * depth)


def fundamental_kernel(sys: SystemSpec, A: PotentialSpec, base_x_prime, depth: int = 48) -> KernelSpec:
    """W0(x, y) = Delta_A(x, base, y), lazily evaluated at the given depth."""

    def fn(x, y):
        return cocycle_delta(sys, A, x, base_x_prime, y, depth).value

    return KernelSpec(KernelForm.COCYCLE_SERIES, fn,
                      f"Delta[{A.name}; base={as_real(base_x_prime):g}]",
                      tail_bound=series_tail_bound(A, depth), depth=depth)


def _dual_value(sys: SystemSpec, A: PotentialSpec, W: KernelSpec, x, y):
    s, ty = backward_step(sys, y)
    tx = branch_point(sys, s, x)
    return float(A(tx)) + float(W(tx, ty)) - float(W(x, y))


def dual_potential(sys: SystemSpec, A: PotentialSpec, W: KernelSpec,
                   probe_xs: Sequence[float] = (0.17, 0.58, 0.93),
                   check_grid: int = 17, tol_dual: float = 1e-8) -> PotentialSpec:
    """Dual potential A*(y), with the x-independence verified up front.

    Raises InvolutionError when varying x moves the value by more than
    tol_dual (beyond the kernel's recorded series tail), i.e. when W is
    not an involution kernel for A.
    """
    lo = probe_floor(sys, 1e-3)
    ys = np.linspace(lo, 1.0 - 1e-3, check_grid)
    slack = tol_dual + 4.0 * W.tail_bound
    for y in ys:
        vals = [_dual_value(sys, A, W, x, float(y)) for x in probe_xs]
        if max(vals) - min(vals) > slack:
            raise InvolutionError(
                f"{W.name} is not an involution kernel for {A.name}: "
                f"x-dependence {max(vals) - min(vals):.3e} at y={y:.4f}"
            )

    def fn(y):
        vals = [_dual_value(sys, A, W, x, y) for x in probe_xs[:2]]
        return 0.5 * (vals[0] + vals[1])

    return PotentialSpec(f"dual[{A.name}]", np.vectorize(fn), A.holder_constant,
                         A.contraction)


def cohomology_residual(sys: SystemSpec, A: PotentialSpec, W: KernelSpec,
                        A_star: PotentialSpec, probes: int = 1000,
                        seed: int = 0) -> float:
    """max over probe pairs of |A*(y) - A(tau_y x) - W(tau_y x, T* y) + W(x, y)|."""
    if probes < 1:
        raise InvolutionError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    lo = probe_floor(sys, 1e-9)
    worst = 0.0
    for _ in range(probes):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(lo, 1.0))
        lhs = float(A_star(y))
        rhs = _dual_value(sys, A, W, x, y)
        worst = max(worst, abs(lhs - rhs))
    return worst


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

    def to_json_dict(self) -> dict:
        return {
            "is_twist": self.is_twist,
            "margin": self.margin,
            "witness": list(self.witness),
            "method": self.method.value,
            "mixed_partial_min": self.mixed_partial_min,
            "mixed_partial_max": self.mixed_partial_max,
        }


def twist_check(W: KernelSpec, method: TwistMethod = TwistMethod.MIXED_PARTIAL,
                n_grid: int = 21, h: float = 1e-4, margin_tol: float = 1e-9,
                domain: tuple[float, float] = (0.0, 1.0)) -> TwistReport:
    """Check the submodularity W(a,b) + W(a',b') < W(a,b') + W(a',b) for a<a', b<b'.

    Every kernel value comes from `KernelSpec.grid` on the check grid.
    """
    lo, hi = domain
    if method is TwistMethod.MIXED_PARTIAL:
        g = np.linspace(lo + 2 * h, hi - 2 * h, n_grid)
        gp, gm = g + h, g - h
        mp = (W.grid(gp, gp) - W.grid(gp, gm) - W.grid(gm, gp) + W.grid(gm, gm)) / (4 * h * h)
        i, j = np.unravel_index(int(np.argmax(mp)), mp.shape)
        mp_max, wx, wy = float(mp[i, j]), float(g[i]), float(g[j])
        margin = -mp_max
        return TwistReport(margin > margin_tol, margin,
                           (wx - h, wy - h, wx + h, wy + h), method,
                           mixed_partial_min=float(np.min(mp)), mixed_partial_max=mp_max)

    g = np.linspace(lo, hi, n_grid)
    Wg = W.grid(g, g)
    if method is TwistMethod.PAIRWISE_GRID:
        iu = np.triu_indices(n_grid, k=1)
        best_gap, best_wit = math.inf, (0.0, 0.0, 0.0, 0.0)
        for i in range(n_grid - 1):
            for ip in range(i + 1, n_grid):
                # gap[j, jp] = W(a', b) + W(a, b') - W(a, b) - W(a', b'), need jp > j
                gap = Wg[ip][:, None] + Wg[i][None, :] - Wg[i][:, None] - Wg[ip][None, :]
                gaps = gap[iu]
                k = int(np.argmin(gaps))
                if gaps[k] < best_gap:
                    best_gap = float(gaps[k])
                    best_wit = (float(g[i]), float(g[iu[0][k]]), float(g[ip]), float(g[iu[1][k]]))
        return TwistReport(best_gap > margin_tol, best_gap, best_wit, method)

    if method is TwistMethod.DELTA_MONOTONE:
        best_gap, best_wit = math.inf, (0.0, 0.0, 0.0, 0.0)
        for i in range(n_grid - 1):
            for ip in range(i + 1, n_grid):
                d = Wg[i] - Wg[ip]
                diffs = np.diff(d)
                k = int(np.argmin(diffs))
                if diffs[k] < best_gap:
                    best_gap = float(diffs[k])
                    best_wit = (float(g[i]), float(g[k]), float(g[ip]), float(g[k + 1]))
        return TwistReport(best_gap > margin_tol, best_gap, best_wit, method)

    raise InvolutionError(f"unknown twist method {method!r}")


@dataclass(frozen=True)
class TwistStabilityResult:
    largest_passing_eps: float | None
    reports: dict[float, TwistReport]


def twist_stability_probe(p_coeffs: tuple, R: PotentialSpec, eps_list: Sequence[float],
                          sys: SystemSpec | None = None, depth: int = 48,
                          base_x_prime: float = 0.5, n_grid: int = 9) -> TwistStabilityResult:
    """For A = p + eps*R build the cocycle-series kernel and run the twist check.

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
    if sys is None:
        from .dynamics import MINUS_DOUBLING
        sys = MINUS_DOUBLING
    p = polynomial_potential(a, b, c)
    reports = {}
    passing = []
    for eps in eps_list:
        A = perturbed_potential(p, R, eps)
        W0 = fundamental_kernel(sys, A, base_x_prime, depth=depth)
        rep = twist_check(W0, TwistMethod.DELTA_MONOTONE, n_grid=n_grid)
        reports[float(eps)] = rep
        if rep.is_twist:
            passing.append(float(eps))
    return TwistStabilityResult(max(passing) if passing else None, reports)
