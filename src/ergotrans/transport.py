"""Kantorovich transport between maximizing measures, with certification.

Costs are c = -W + gamma or c = I - W + gamma for an involution kernel W,
evaluated on point sets as one matrix (`CostSpec.matrix`).  Plans on
finitely supported marginals are solved exactly by permutation
enumeration for small square uniform marginals and by scipy's HiGHS LP
for everything else.  The certification operations implement the
structural checks: duality / complementary slackness, c-cyclical
monotonicity, the twist order relation, the graph property, and the
Rockafellar-type potential with its twist-ordered closed form.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .dynamics import SystemSpec, SystemKind, PeriodicOrbit, as_real
from .involution import KernelSpec

__all__ = [
    "TransportError",
    "AtomicMeasure",
    "CostSpec",
    "TransportPlan",
    "natural_extension_measure",
    "maximizing_extension_measure",
    "GammaResult",
    "gamma_from_support",
    "solve_kantorovich",
    "conjugate_transform",
    "DualPair",
    "DualityReport",
    "duality_certificate",
    "CyclicalReport",
    "cyclical_monotonicity_check",
    "twist_order_check",
    "GraphReport",
    "graph_check",
    "RochetMode",
    "rochet_potential",
    "b_function",
]

WEIGHT_TOL = 1e-12
MARGINAL_TOL = 1e-10
MAX_SUPPORT = 256
CHAIN_CAP = 5
CLUSTER_TOL = 1e-9


class TransportError(ValueError):
    pass


def _point_key(p, digits: int = 12):
    """Hashable rounded key; handles extension pairs as well as scalars."""
    if isinstance(p, tuple):
        return tuple(_point_key(q, digits) for q in p)
    return round(as_real(p), digits)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability: list of (point, weight)."""

    atoms: tuple

    def __post_init__(self):
        pts = [a for a, _ in self.atoms]
        ws = [w for _, w in self.atoms]
        if len(pts) > MAX_SUPPORT:
            raise TransportError(f"support size {len(pts)} exceeds {MAX_SUPPORT}")
        if any(w < 0 for w in ws):
            raise TransportError("weights must be nonnegative")
        if abs(sum(float(w) for w in ws) - 1.0) > WEIGHT_TOL:
            raise TransportError("weights must sum to 1")
        if len({_point_key(p) for p in pts}) != len(pts):
            raise TransportError("atoms must be distinct")

    @property
    def points(self) -> list:
        return [a for a, _ in self.atoms]

    @property
    def weights(self) -> np.ndarray:
        return np.array([float(w) for _, w in self.atoms])

    @classmethod
    def dirac(cls, p) -> "AtomicMeasure":
        return cls(((p, 1.0),))

    @classmethod
    def uniform(cls, points: Sequence) -> "AtomicMeasure":
        n = len(points)
        return cls(tuple((p, Fraction(1, n)) for p in points))


def natural_extension_measure(sys: SystemSpec, orbit: PeriodicOrbit) -> AtomicMeasure:
    """Uniform measure on the extension orbit: each x_i paired with the past
    point whose itinerary is the orbit's symbol word read backwards."""
    p = orbit.period
    digits = orbit.itinerary
    atoms = []
    for i in range(p):
        rev = [digits[(i - 1 - k) % p] for k in range(p)]
        y = _periodic_point_from_digits(sys, rev)
        atoms.append(((orbit.points[i], y), Fraction(1, p)))
    return AtomicMeasure(tuple(atoms))


def _periodic_point_from_digits(sys: SystemSpec, digits: Sequence[int]):
    """The point whose itinerary is the given digit word repeated."""
    if sys.kind is SystemKind.FULL_SHIFT2:
        from .dynamics import SymbolWord

        return SymbolWord.periodic(tuple(digits))
    if sys.kind in (SystemKind.DOUBLING, SystemKind.MINUS_DOUBLING):
        a, b = Fraction(1), Fraction(0)
        for s in reversed(digits):
            if sys.kind is SystemKind.MINUS_DOUBLING:
                ca, cb = Fraction(-1, 2), Fraction(s + 1, 2)
            else:
                ca, cb = Fraction(1, 2), Fraction(s, 2)
            a, b = ca * a, ca * b + cb
        return b / (1 - a)
    # Gauss: fixed point of g_{k_1} o ... o g_{k_p}, branch k acting as the
    # Moebius matrix [[0, 1], [1, k]]; folding from the last digit multiplies
    # each branch in on the left.
    a, b, c, d = 1, 0, 0, 1
    for k in reversed(digits):
        a, b, c, d = c, d, a + k * c, b + k * d
    disc = (d - a) ** 2 + 4 * b * c
    for root in (-(d - a) + math.sqrt(disc), -(d - a) - math.sqrt(disc)):
        x = root / (2 * c)
        if 0 < x <= 1:
            return x
    raise TransportError(f"Gauss digits {tuple(digits)} have no periodic point in (0, 1]")


def maximizing_extension_measure(sys: SystemSpec, tied_orbits: Sequence[PeriodicOrbit]) -> tuple[AtomicMeasure, AtomicMeasure, AtomicMeasure]:
    """(mu, mu*, extension measure) for a maximizing set of tied orbits.

    Ties are combined with equal mass (the t = 1/2 convention for the
    non-unique case); the extension pairs each orbit point with its
    reversed-itinerary past.
    """
    exts = [natural_extension_measure(sys, o) for o in tied_orbits]
    t = len(tied_orbits)
    pairs = []
    for e in exts:
        for (xy, w) in e.atoms:
            pairs.append((xy, w / t))
    ext = AtomicMeasure(tuple(pairs))
    mu = AtomicMeasure(tuple(((xy[0]), w) for xy, w in ext.atoms))
    mu_star = AtomicMeasure(tuple(((xy[1]), w) for xy, w in ext.atoms))
    return mu, mu_star, ext


@dataclass(frozen=True)
class CostSpec:
    """Cost c(x, y) = gamma - W(x, y) (+ I(x) for the deviation variant)."""

    w: KernelSpec
    gamma: float = 0.0
    i_eval: Callable | None = None

    def matrix(self, xs: Sequence, ys: Sequence) -> np.ndarray:
        """C[i, j] = cost(xs[i], ys[j]), equal to the scalar cost bit for bit.

        W comes from one `KernelSpec.grid` call on the points as floats;
        I is evaluated once per row on the point as given, so exact
        rationals stay exact, and an infinite deviation makes the row +inf.
        """
        C = self.gamma - self.w.grid(np.array([as_real(x) for x in xs], dtype=float),
                                     np.array([as_real(y) for y in ys], dtype=float))
        if self.i_eval is not None:
            for i, x in enumerate(xs):
                iv = float(self.i_eval(x))
                C[i] = math.inf if math.isinf(iv) else C[i] + iv
        return C

    def cost(self, x, y) -> float:
        base = self.gamma - float(self.w(as_real(x), as_real(y)))
        if self.i_eval is None:
            return base
        i = float(self.i_eval(x))
        return math.inf if math.isinf(i) else base + i

    def __call__(self, x, y) -> float:
        return self.cost(x, y)


@dataclass(frozen=True)
class GammaResult:
    gamma: float
    max_deviation: float


def gamma_from_support(W, V, V_star, support_atoms: Sequence, tol_gamma: float = 1e-8) -> GammaResult:
    """gamma = W(p, p*) - V(p) - V*(p*) averaged over the extension atoms.

    The identity must hold atom by atom; a spread above tol_gamma means
    the supplied V, V*, W are inconsistent and is an error.
    """
    vals = []
    for (x, y) in support_atoms:
        vals.append(float(W(as_real(x), as_real(y))) - float(V(as_real(x))) - float(V_star(as_real(y))))
    gamma = float(np.mean(vals))
    dev = float(max(abs(v - gamma) for v in vals))
    if dev >= tol_gamma:
        raise TransportError(f"support identity violated: atom spread {dev:.3e}")
    return GammaResult(gamma, dev)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix over support(mu) x support(mu*) with its cost value."""

    coupling: np.ndarray
    value: float
    row_points: tuple
    col_points: tuple
    method: str
    dual_row: np.ndarray | None = None
    dual_col: np.ndarray | None = None

    def support(self, tol: float = 1e-12) -> list[tuple]:
        out = []
        for i, x in enumerate(self.row_points):
            for j, y in enumerate(self.col_points):
                if self.coupling[i, j] > tol:
                    out.append((x, y, float(self.coupling[i, j])))
        return out

    def support_pairs(self, tol: float = 1e-12) -> list[tuple]:
        return [(x, y) for x, y, _ in self.support(tol)]

    def to_json_dict(self, certificates: dict | None = None) -> dict:
        return {
            "atoms": [
                {"x": as_real(x), "y": as_real(y), "w": w}
                for x, y, w in self.support()
            ],
            "value": self.value,
            "method": self.method,
            "certificates": certificates or {},
        }


def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row, in itertools.permutations order."""
    P = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        # first entry i, then the permutations of range(k) without i, in order
        P = np.vstack([np.column_stack([np.full(len(P), i), P + (P >= i)]) for i in range(k)])
    return P


def _solve_permutations(C: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Cheapest permutation coupling: all n! values at once, summed row by row
    in order i = 0..n-1, first minimum in itertools order on ties."""
    n = C.shape[0]
    perms = _permutations(n)
    vals = np.zeros(len(perms))
    for i in range(n):
        vals += C[i, perms[:, i]] * w[i]
    best = int(np.argmin(vals))
    P = np.zeros_like(C)
    P[np.arange(n), perms[best]] = w
    return P, float(vals[best])


def solve_kantorovich(mu: AtomicMeasure, mu_star: AtomicMeasure, c: CostSpec) -> TransportPlan:
    """Minimize the total cost over couplings with the given marginals.

    Square uniform instances up to 8x8 go through exact permutation
    enumeration (the vertices of the scaled Birkhoff polytope); every
    other instance through scipy's HiGHS simplex, whose duals certify
    the gap.
    """
    wr, wc = mu.weights, mu_star.weights
    if abs(wr.sum() - wc.sum()) > MARGINAL_TOL:
        raise TransportError("infeasible marginals: masses differ")
    C = c.matrix(mu.points, mu_star.points)
    for i in range(C.shape[0]):
        if wr[i] > 0 and np.all(np.isinf(C[i])):
            raise TransportError(
                f"atom {as_real(mu.points[i]):g} has infinite deviation: cannot carry mass"
            )
    n, m = C.shape
    uniform = np.allclose(wr, wr[0]) and np.allclose(wc, wc[0])
    if n == m and n <= 8 and uniform and not np.any(np.isinf(C)):
        P, val = _solve_permutations(C, wr)
        method = "permutation_enumeration"
        du = dv = None
    else:
        from scipy.optimize import linprog

        Cw = np.where(np.isinf(C), 1e12, C)
        A_eq = []
        for i in range(n):
            row = np.zeros(n * m)
            row[i * m:(i + 1) * m] = 1.0
            A_eq.append(row)
        for j in range(m):
            col = np.zeros(n * m)
            col[j::m] = 1.0
            A_eq.append(col)
        res = linprog(Cw.ravel(), A_eq=np.asarray(A_eq),
                      b_eq=np.concatenate([wr, wc]), bounds=(0, None),
                      method="highs")
        if not res.success:
            raise TransportError(f"LP failed: {res.message}")
        P = res.x.reshape(n, m)
        val = float(res.fun)
        marg = res.eqlin.marginals
        du, dv = -np.asarray(marg[:n]), -np.asarray(marg[n:])
        method = "highs"
    if np.max(np.abs(P.sum(axis=1) - wr)) > MARGINAL_TOL or \
       np.max(np.abs(P.sum(axis=0) - wc)) > MARGINAL_TOL:
        raise TransportError("solver returned a coupling with wrong marginals")
    return TransportPlan(P, val, tuple(mu.points), tuple(mu_star.points), method, du, dv)


def conjugate_transform(f, G, xs: np.ndarray, ys: np.ndarray,
                        variant: str = "kernel_max") -> np.ndarray:
    """G-transform of f over a probe grid.

    kernel_max: f#(y) = max_x (-f(x) + G(x, y)) for a KernelSpec G;
    cost_min:   f#(y) = min_x (-f(x) + c(x, y)) for a CostSpec c.
    f may be a callable or an array aligned with xs.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    fv = np.asarray(f(xs), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    vals = -fv[:, None] + (G.matrix(xs, ys) if isinstance(G, CostSpec) else G.grid(xs, ys))
    return vals.max(axis=0) if variant == "kernel_max" else vals.min(axis=0)


@dataclass(frozen=True)
class DualPair:
    """An admissible pair (f, f#) sampled on probe grids: f(x) + f#(y) <= c(x, y).

    Probe points are stored as given (exact rationals stay exact for the
    deviation evaluator inside the cost).
    """

    xs: tuple
    f: np.ndarray
    ys: tuple
    f_sharp: np.ndarray

    @classmethod
    def from_cost_transform(cls, f, cost: CostSpec, xs, ys) -> "DualPair":
        """Build f# as the cost-min transform of f; admissible by construction."""
        xs, ys = tuple(xs), tuple(ys)
        fv = np.asarray([float(f(as_real(x))) for x in xs])
        fs = (-fv[:, None] + cost.matrix(xs, ys)).min(axis=0)
        return cls(xs, fv, ys, fs)

    def worst_violation(self, cost: CostSpec) -> float:
        """max of f(x) + f#(y) - c(x, y) over the probe grids (<= 0 when admissible).

        Rows of infinite deviation are skipped."""
        return _worst_violation(self.f[:, None] + self.f_sharp[None, :],
                                cost.matrix(self.xs, self.ys))


def _worst_violation(dual: np.ndarray, C: np.ndarray) -> float:
    """max of dual - C over the rows of C that are not all +inf, or -inf."""
    rows = ~np.all(C == math.inf, axis=1)
    return float(np.max((dual - C)[rows], initial=-math.inf))


@dataclass(frozen=True)
class DualityReport:
    admissible: bool
    worst_violation: float
    slackness_ok: bool
    worst_atom_residual: float
    constant_shift: float
    primal_value: float
    dual_value: float
    duality_gap: float

    @property
    def ok(self) -> bool:
        return self.admissible and self.slackness_ok and abs(self.duality_gap) <= 1e-8

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "admissible", "worst_violation", "slackness_ok", "worst_atom_residual",
            "constant_shift", "primal_value", "dual_value", "duality_gap")}


def duality_certificate(V, V_star, c: CostSpec, plan: TransportPlan,
                        probe_x: np.ndarray, probe_y: np.ndarray,
                        mu: AtomicMeasure, mu_star: AtomicMeasure,
                        tol: float = 1e-8) -> DualityReport:
    """Certify that (-V, -V*) is an optimal admissible pair for the plan.

    One additive constant (applied to -V*) is fitted from the support atoms
    before checking, since V* is only pinned up to a constant relative to
    V; the shift is recorded.  Checks: admissibility on the probe grid,
    equality on every support atom, and dual value = plan value.
    """
    atoms = plan.support()
    residuals = [c.cost(x, y) - (-float(V(as_real(x))) - float(V_star(as_real(y))))
                 for x, y, _ in atoms]
    shift = float(np.mean(residuals))
    worst_atom = float(max(abs(r - shift) for r in residuals))

    vx = np.array([-float(V(as_real(x))) for x in probe_x])
    vy = np.array([float(V_star(as_real(y))) for y in probe_y])
    # probe points pass through to the deviation evaluator unconverted:
    # exact rationals keep forward orbits exact, floats drift off atoms
    worst = _worst_violation(vx[:, None] - vy[None, :] + shift, c.matrix(probe_x, probe_y))
    primal = plan.value
    dual = (-np.sum([float(V(as_real(p))) * w for p, w in zip(mu.points, mu.weights)])
            - np.sum([float(V_star(as_real(p))) * w for p, w in zip(mu_star.points, mu_star.weights)])
            + shift)
    gap = float(primal - dual)
    return DualityReport(worst <= tol, float(worst), worst_atom <= tol, worst_atom,
                         shift, float(primal), float(dual), gap)


@dataclass(frozen=True)
class CyclicalReport:
    passes: bool
    worst_slack: float
    witness_subset: tuple | None
    witness_permutation: tuple | None

    def to_json_dict(self) -> dict:
        return {
            "passes": self.passes,
            "worst_slack": self.worst_slack,
            "witness_subset": [(as_real(x), as_real(y)) for x, y in self.witness_subset]
            if self.witness_subset else None,
            "witness_permutation": list(self.witness_permutation)
            if self.witness_permutation else None,
        }


def cyclical_monotonicity_check(S: Sequence[tuple], c: CostSpec, n_max: int = 5,
                                tol: float = 1e-10) -> CyclicalReport:
    """Exhaustive c-cyclical-monotonicity check over subsets of size <= n_max.

    slack = sum c(x_j, y_j) - sum c(x_sigma(j), y_j); a positive slack is a
    violation and its subset/permutation are returned as witness.  The
    costs come from one matrix over the support.
    """
    if n_max > 7:
        raise TransportError("n_max above 7 is not supported (factorial blow-up)")
    pts = list(S)
    C = c.matrix([x for x, _ in pts], [y for _, y in pts]).tolist()
    worst = -math.inf
    wit_s, wit_p = None, None
    for k in range(2, min(n_max, len(pts)) + 1):
        perms = list(itertools.permutations(range(k)))[1:]  # all but the identity
        for idx in itertools.combinations(range(len(pts)), k):
            base = sum(C[i][i] for i in idx)
            for perm in perms:
                permuted = sum(C[idx[p]][idx[j]] for j, p in enumerate(perm))
                slack = base - permuted
                if slack > worst:
                    worst, wit_s, wit_p = slack, tuple(pts[i] for i in idx), perm
    if worst == -math.inf:
        return CyclicalReport(True, 0.0, None, None)
    return CyclicalReport(worst <= tol, float(worst), wit_s, wit_p)


@dataclass(frozen=True)
class TwistOrderReport:
    passes: bool
    violations: tuple

    def to_json_dict(self) -> dict:
        return {
            "passes": self.passes,
            "violations": [
                [(as_real(a), as_real(b)), (as_real(ap), as_real(bp))]
                for (a, b), (ap, bp) in self.violations
            ],
        }


def twist_order_check(S: Sequence[tuple]) -> TwistOrderReport:
    """Under a twist cost the support must be anti-monotone: for pairs with
    distinct coordinates, a < a' forces b > b'."""
    pts = [(as_real(x), as_real(y)) for x, y in S]
    bad = []
    for (a, b), (ap, bp) in itertools.combinations(pts, 2):
        if a != ap and b != bp and (a - ap) * (b - bp) > 0:
            bad.append(((a, b), (ap, bp)))
    return TwistOrderReport(not bad, tuple(bad))


@dataclass(frozen=True)
class GraphReport:
    is_graph: bool
    bad_clusters: tuple
    monotone_nonincreasing: bool

    def to_json_dict(self) -> dict:
        return {
            "is_graph": self.is_graph,
            "bad_clusters": [
                {"x": x, "ys": list(ys)} for x, ys in self.bad_clusters
            ],
            "monotone_nonincreasing": self.monotone_nonincreasing,
        }


def graph_check(plan: TransportPlan, cluster_tol: float = CLUSTER_TOL) -> GraphReport:
    """Group support atoms by x and test one-y-per-x plus anti-monotonicity.

    Clusters with several y values are reported as witnesses; whether such
    a cluster is the measure-zero exception the theory permits is left to
    the caller.
    """
    atoms = sorted(((as_real(x), as_real(y)) for x, y, _ in plan.support()))
    clusters: list[tuple[float, list[float]]] = []
    for x, y in atoms:
        if clusters and abs(x - clusters[-1][0]) <= cluster_tol:
            clusters[-1][1].append(y)
        else:
            clusters.append((x, [y]))
    bad = tuple((x, tuple(sorted(set(ys)))) for x, ys in clusters
                if len({round(v, 12) for v in ys}) > 1)
    ys_rep = [max(ys) for _, ys in clusters]
    mono = all(ys_rep[i] >= ys_rep[i + 1] - cluster_tol for i in range(len(ys_rep) - 1))
    return GraphReport(not bad, bad, mono)


class RochetMode(enum.Enum):
    BRUTE_FORCE = "brute_force"
    TWIST_ORDERED = "twist_ordered"


def rochet_potential(S: Sequence[tuple], c: CostSpec, base: int, z,
                     mode: RochetMode = RochetMode.BRUTE_FORCE,
                     chain_cap: int = CHAIN_CAP) -> float:
    """Rockafellar-type potential f(z) built from chains through S.

    BRUTE_FORCE takes the infimum of the telescoping sum over all chains
    of length <= chain_cap (elements of S with repetition); TWIST_ORDERED
    evaluates the closed-form chain that uses the support atoms strictly
    left of z in increasing x order, starting from the base atom.  Under a
    twist cost the two agree.
    """
    pts = list(S)
    if not pts:
        raise TransportError("empty support")
    x0, y0 = pts[base]
    zv = as_real(z)
    # C[i][j] = c(x_i, y_j) over the atoms, with z as the last row
    C = c.matrix([x for x, _ in pts] + [zv], [y for _, y in pts]).tolist()
    z_row = C[-1]

    def chain_value(chain) -> float:
        prev = base
        total = 0.0
        for i in chain:
            total += C[i][prev] - C[prev][prev]
            prev = i
        total += z_row[prev] - C[prev][prev]
        return total

    if mode is RochetMode.BRUTE_FORCE:
        best = chain_value(())
        for n in range(1, chain_cap + 1):
            for chain in itertools.product(range(len(pts)), repeat=n):
                best = min(best, chain_value(chain))
        return float(best)

    if mode is RochetMode.TWIST_ORDERED:
        ordered = sorted(range(len(pts)), key=lambda i: as_real(pts[i][0]))
        first = pts[ordered[0]]
        if (as_real(first[0]), as_real(first[1])) != (as_real(x0), as_real(y0)):
            raise TransportError("twist-ordered mode requires base = leftmost support atom")
        chain = tuple(i for i in ordered[1:] if as_real(pts[i][0]) < zv)
        return float(chain_value(chain))

    raise TransportError(f"unknown mode {mode!r}")


def b_function(x, y, W, V, V_star, gamma: float, I=None) -> float:
    """b(x, y) = I(x) + gamma - W(x, y) + V(x) + V*(y); nonnegative, zero on
    the extension support.  An infinite deviation propagates to +inf."""
    iv = float(I(x)) if I is not None else 0.0
    if math.isinf(iv):
        return math.inf
    return iv + gamma - float(W(as_real(x), as_real(y))) + float(V(as_real(x))) + float(V_star(as_real(y)))
