"""Zero-temperature objects: critical value, calibrated subactions, deviation rate.

The calibrated subaction is the fixed point of the max-plus update
V(x) = max over preimages z of [V(z) + A(z) - m], computed on a grid
with linear interpolation reads (the same stencil the transfer operator
uses, with max in place of log-sum-exp).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dynamics import SystemSpec, PeriodicOrbit, apply_map, as_real, periodic_orbits
from .potentials import PotentialSpec
from .thermo import GridFunction, _Operator

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


class ErgOptError(RuntimeError):
    pass


@dataclass(frozen=True)
class CriticalValue:
    """Maximal Birkhoff average over the enumerated periodic orbits.

    This is a lower bound on m(A) in general; every example in scope has a
    periodic maximizing orbit, for which it is exact.  tied lists every
    orbit within tie_tol of the maximum (including the argmax itself).
    """

    m: float
    orbit: PeriodicOrbit
    tied: tuple[PeriodicOrbit, ...]


def critical_value(sys: SystemSpec, A: PotentialSpec, max_period: int = DEFAULT_MAX_PERIOD,
                   tie_tol: float = 1e-9) -> CriticalValue:
    orbits = periodic_orbits(sys, max_period)
    if not orbits:
        raise ErgOptError("no periodic orbits found")
    scored = []
    for o in orbits:
        avg = float(sum(float(A(p)) for p in o.points) / o.period)
        scored.append(o.with_average(avg))
    m = max(o.birkhoff_average for o in scored)
    tied = tuple(o for o in scored if m - o.birkhoff_average <= tie_tol)
    best = tied[0]
    return CriticalValue(m, best, tied)


def lax_oleinik_step(sys: SystemSpec, A: PotentialSpec, m: float,
                     V: GridFunction, *, op: _Operator | None = None) -> GridFunction:
    """One max-plus update over inverse branches, on V's grid.

    op is the operator of (sys, A) at beta = 1 on V's grid; pass it to
    reuse one build across steps (calibrated_subaction does), or leave it
    None to build it here.  The result does not depend on which.  Ties
    between branches break toward the smaller branch index (the max scan
    keeps the first maximum), which pins reproducibility but not the
    value.
    """
    if op is None:
        op = _Operator(sys, A, 1.0, V.n_grid)
    elif op.n_grid != V.n_grid:
        raise ErgOptError(f"operator grid {op.n_grid} does not match V's grid {V.n_grid}")
    return GridFunction(op.max_apply(V.values) - m)


@dataclass(frozen=True)
class SubactionResult:
    """Converged subaction with its critical value and calibration data."""

    V: GridFunction
    m: float
    residual: float
    calibrated: bool
    orbit: PeriodicOrbit | None = None

    def header_dict(self) -> dict:
        return {
            "m": self.m,
            "residual": self.residual,
            "calibrated": self.calibrated,
            "orbit": [as_real(p) for p in self.orbit.points] if self.orbit else None,
        }

    def export(self, csv_path, json_path) -> None:
        self.V.to_csv(csv_path)
        with open(json_path, "w") as fh:
            json.dump(self.header_dict(), fh, indent=2)
            fh.write("\n")


def calibrated_subaction(sys: SystemSpec, A: PotentialSpec, n_grid: int = 4096,
                         m: float | None = None, max_period: int = DEFAULT_MAX_PERIOD,
                         tol: float = TOL_LO, max_iter: int = MAX_ITER_LO,
                         cal_tol: float = 1e-8) -> SubactionResult:
    """Iterate the max-plus update from V = 0 until the sup-change stalls.

    V is renormalized to max 0 after every step.  calibrated is set when
    the final update moves no cell by more than cal_tol, i.e. every cell
    value is attained by some preimage.  The grid operator (branch images,
    A on them, interpolation stencil) is built once and passed to every
    step as op=.
    """
    orbit = None
    if m is None:
        cv = critical_value(sys, A, max_period=max_period)
        m, orbit = cv.m, cv.orbit
    V = GridFunction.constant(0.0, n_grid)
    op = _Operator(sys, A, 1.0, n_grid)
    change = math.inf
    for _ in range(max_iter):
        Vn = lax_oleinik_step(sys, A, m, V, op=op)
        Vn = Vn.normalized_max_zero()
        change = V.sup_diff(Vn)
        V = Vn
        if change <= tol:
            break
    else:
        raise ErgOptError(f"Lax-Oleinik iteration did not converge; last change {change:.3e}")
    final = lax_oleinik_step(sys, A, m, V, op=op).normalized_max_zero()
    calibrated = V.sup_diff(final) <= cal_tol
    return SubactionResult(V, float(m), change, calibrated, orbit)


@dataclass(frozen=True)
class DeviationValue:
    """Partial sum of the one-sided rate function I at a point.

    value is +inf when the partial sum exceeded the cap; converged is True
    when the early-exit rule (last term below tol) fired.  When n_terms is
    exhausted with neither, value holds the partial sum and converged is
    False -- callers needing certainty must raise n_terms.
    """

    value: float
    converged: bool
    n_used: int

    def __float__(self) -> float:
        return self.value


def deviation_I(sys: SystemSpec, A: PotentialSpec, V, m: float, x,
                n_terms: int = N_TERMS_I, tol: float = TOL_I,
                cap: float = CAP_I, early_exit: bool = True) -> DeviationValue:
    """Sum of R(T^n x) with R = V(T .) - V(.) - A(.) + m along the forward orbit.

    V may be a GridFunction or any callable.  With early_exit the sum stops
    at the first term below tol, which is correct near the maximizing set
    but can underestimate on orbits that merely pass through the zero set
    of R; sweeps that must bound b from below run with early_exit=False.

    T z and R(z) are computed once per distinct orbit point and reused
    when the orbit revisits it (rational orbits are eventually periodic),
    so the cost is set by the number of distinct points, not by n_terms.
    Every term is still added, capped and tested in order, so the result
    is the same as summing n_terms fresh evaluations.  Nothing is kept
    between calls.
    """
    if n_terms < 1:
        raise ErgOptError("n_terms must be >= 1")
    seen: dict = {}
    z = x
    total = 0.0
    for n in range(n_terms):
        step = seen.get(z)
        if step is None:
            zn = apply_map(sys, z)
            r = float(V(as_real(zn))) - float(V(as_real(z))) - float(A(z)) + m
            step = seen[z] = (zn, r)
        zn, r = step
        total += r
        if total > cap:
            return DeviationValue(math.inf, True, n + 1)
        if early_exit and abs(r) < tol:
            return DeviationValue(total, True, n + 1)
        z = zn
    return DeviationValue(total, False, n_terms)
