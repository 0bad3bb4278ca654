"""Evaluable potentials with the regularity data used for error bounds.

Quadratic potentials keep exact rational coefficients so that cocycle
series and periodic-orbit averages can be computed without rounding;
everything also evaluates on numpy arrays for the grid operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .dynamics import GAUSS_BRANCH_CAP

__all__ = [
    "PotentialSpec",
    "polynomial_potential",
    "gauss_log_potential",
    "custom_potential",
    "perturbed_potential",
    "QUAD_DIRAC",
    "QUAD_PERIOD2",
    "QUAD_CONVEX",
    "LINEAR",
    "GAUSS_LOG",
]


@dataclass(frozen=True)
class PotentialSpec:
    """A potential A with Hoelder/Lipschitz data for truncation bounds.

    holder_constant bounds |A(x) - A(z)| / d(x, z) on the domain where the
    cocycle series evaluates A (for the Gauss-log potential that domain is
    the union of branch images, bounded away from 0).  The rate at which
    the series terms shrink belongs to the systems' inverse branches, not
    to A: `involution.series_tail_bound` uses the same proved 1/2 for all.
    """

    name: str
    fn: Callable
    holder_constant: float
    coeffs: tuple[Fraction, Fraction, Fraction] | None = None

    @cached_property
    def _int_coeffs(self) -> tuple[int, int, int, int]:
        """(a, b, c, L): coeffs as the integers a, b, c over their least
        common denominator L."""
        return _over_lcd(self.coeffs)

    def _ratio(self, N, D):
        """A(N / D) of a polynomial A, exactly, as the integers (numerator,
        denominator) ((c N + b D) N + a D^2, L D^2) of _int_coeffs; N and D
        > 0 may be ints or object arrays of them, valued elementwise."""
        a, b, c, lcd = self._int_coeffs
        DD = D * D
        return (c * N + b * D) * N + a * DD, lcd * DD

    def __call__(self, x):
        """A(x); a Fraction x gives the exact Fraction when A has coeffs.

        That Fraction is built once from _ratio: a Fraction is canonical, so
        it equals a + b x + c x^2 taken in Fractions, with one gcd instead
        of one per operation.
        """
        if isinstance(x, Fraction):
            if self.coeffs is not None:
                return Fraction(*self._ratio(x.numerator, x.denominator))
            x = float(x)
        return self.fn(x)


def _over_lcd(fractions) -> tuple[int, ...]:
    """Fractions q_1, ..., q_k as (n_1, ..., n_k, L): q_i = n_i / L, with L
    their least common denominator."""
    lcd = math.lcm(*(q.denominator for q in fractions))
    return (*(q.numerator * (lcd // q.denominator) for q in fractions), lcd)


def perturbed_potential(p: PotentialSpec, r: PotentialSpec, eps: float) -> PotentialSpec:
    """p + eps*r, with the Lipschitz data combined accordingly."""

    def fn(x):
        return p(x) + eps * r(x)

    return PotentialSpec(f"{p.name}+{eps:g}*{r.name}", fn,
                         p.holder_constant + abs(eps) * r.holder_constant)


def polynomial_potential(a, b, c, name: str | None = None) -> PotentialSpec:
    """A(x) = a + b x + c x^2 with exact rational coefficients."""
    af, bf, cf = Fraction(a), Fraction(b), Fraction(c)
    a_, b_, c_ = float(af), float(bf), float(cf)

    def fn(x):
        return a_ + b_ * x + c_ * x * x

    # Lipschitz constant of b + 2 c x on [0, 1]
    lip = abs(b_) + 2 * abs(c_)
    label = name or f"poly({a_:g},{b_:g},{c_:g})"
    return PotentialSpec(label, fn, holder_constant=lip, coeffs=(af, bf, cf))


def gauss_log_potential() -> PotentialSpec:
    """A(x) = 2 log x = -log|T'| for the Gauss map; A(0) = -inf, unwarned.

    The Lipschitz bound 2 (GAUSS_BRANCH_CAP + 1) holds on
    [1/(GAUSS_BRANCH_CAP + 1), 1], where the branch images of
    gauss_system() live; a system with more branches reaches closer to 0,
    where the slope 2/x of A exceeds it.
    """

    def fn(x):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(x)

    return PotentialSpec("2*log(x)", fn, holder_constant=2.0 * (GAUSS_BRANCH_CAP + 1))


def custom_potential(fn: Callable, name: str, holder_constant: float) -> PotentialSpec:
    return PotentialSpec(name, fn, holder_constant)


# The potentials exercised throughout the test-suite presets.
QUAD_DIRAC = polynomial_potential(-1, 2, -1, name="-(x-1)^2")
QUAD_PERIOD2 = polynomial_potential(Fraction(-1, 4), 1, -1, name="-(x-1/2)^2")
QUAD_CONVEX = polynomial_potential(Fraction(1, 4), -1, 1, name="(x-1/2)^2")
LINEAR = polynomial_potential(0, 1, 0, name="x")
GAUSS_LOG = gauss_log_potential()
