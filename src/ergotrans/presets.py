"""Named example configurations wiring systems, potentials, and kernels.

Each preset carries the closed-form reference objects (critical value,
calibrated subaction, involution kernel) that the pipeline commands and
the verification suite compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import involution as inv
from .dynamics import MINUS_DOUBLING, SystemSpec, gauss_system, periodic_point
from .potentials import (
    GAUSS_LOG,
    LINEAR,
    PotentialSpec,
    QUAD_CONVEX,
    QUAD_DIRAC,
    QUAD_PERIOD2,
)

__all__ = ["Preset", "PRESETS", "get_preset", "GOLDEN_MEAN"]

# (sqrt 5 - 1) / 2, the fixed point of the Gauss map's first branch
GOLDEN_MEAN = float(periodic_point(gauss_system(), (1,)))


@dataclass(frozen=True)
class Preset:
    """One ready-to-run example.

    kernel is the exact involution kernel (cohomology identity holds);
    paper_kernel, when set, is the literal published variant that several
    transport reference values are quoted for (it differs by a function
    of x and is not itself an involution kernel).  closed_V is the exact
    calibrated subaction normalized to vanish on the maximizing set.
    """

    name: str
    system: SystemSpec
    potential: PotentialSpec
    kernel: inv.KernelSpec
    m_exact: float
    closed_V: Callable | None = None
    paper_kernel: inv.KernelSpec | None = None
    gamma_exact: float | None = None

    @property
    def twist_kernel(self) -> inv.KernelSpec:
        """Kernel used by the twist command (the published variant if any)."""
        return self.paper_kernel or self.kernel


def _quad_dirac() -> Preset:
    W = inv.quadratic_kernel(0, 2, -1, name="W[-(x-1)^2]")

    def V(x):
        x = np.asarray(x, dtype=float)
        return -x * x / 3 + 2 * x / 9

    return Preset(
        name="quad-dirac",
        system=MINUS_DOUBLING,
        potential=QUAD_DIRAC,
        kernel=W,
        m_exact=-1.0 / 9.0,
        closed_V=V,
        gamma_exact=float(W(Fraction(2, 3), Fraction(2, 3))),
    )


def _quad_period2() -> Preset:
    W = inv.quadratic_kernel(0, 1, -1, name="W[-(x-1/2)^2]")

    def V(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(-x * x / 3 + x / 9, -x * x / 3 + 5 * x / 9 - 2.0 / 9.0)

    return Preset(
        name="quad-period2",
        system=MINUS_DOUBLING,
        potential=QUAD_PERIOD2,
        kernel=W,
        m_exact=-1.0 / 36.0,
        closed_V=V,
        paper_kernel=inv.example5_kernel(),
        gamma_exact=float(W(Fraction(1, 3), Fraction(1, 3))),
    )


def _quad_convex() -> Preset:
    W = inv.quadratic_kernel(0, -1, 1, name="W[(x-1/2)^2]")
    return Preset(
        name="quad-convex",
        system=MINUS_DOUBLING,
        potential=QUAD_CONVEX,
        kernel=W,
        m_exact=0.25,
        paper_kernel=inv.example6_kernel(),
    )


def _gauss_golden() -> Preset:
    W = inv.gauss_log_kernel()
    b = GOLDEN_MEAN

    def V(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * np.log(1.0 + x * b) + 2.0 * math.log(1.0 + b * b)

    return Preset(
        name="gauss-golden",
        system=gauss_system(),
        potential=GAUSS_LOG,
        kernel=W,
        m_exact=2.0 * math.log(b),
        closed_V=V,
        gamma_exact=-2.0 * math.log(1.0 + b * b),
    )


def _linear() -> Preset:
    W = inv.quadratic_kernel(0, 1, 0, name="W1")

    def V(x):
        x = np.asarray(x, dtype=float)
        return 2.0 / 9.0 - x / 3.0

    return Preset(
        name="linear",
        system=MINUS_DOUBLING,
        potential=LINEAR,
        kernel=W,
        m_exact=2.0 / 3.0,
        closed_V=V,
        gamma_exact=float(W(Fraction(2, 3), Fraction(2, 3))),
    )


PRESETS = {
    p.name: p
    for p in (_quad_dirac(), _quad_period2(), _quad_convex(), _gauss_golden(), _linear())
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
