"""Kantorovich transport between maximizing measures, with certification.

Costs are c = -W + gamma or c = I - W + gamma for an involution kernel W,
evaluated on point sets as one matrix (`CostSpec.matrix`).  Plans on
finitely supported marginals are solved exactly: square uniform
marginals by permutation enumeration up to 8 atoms and by scipy's
assignment solver above, everything else by scipy's HiGHS LP.  The
certification operations implement the structural checks: duality /
complementary slackness, c-cyclical monotonicity, the graph property
with the twist order (anti-monotone support), and the Rockafellar-type
potential with its twist-ordered closed form.  The cyclical check and
the potential read one exchange matrix of the support (`_exchange`).
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .dynamics import SystemSpec, PeriodicOrbit, _as_count, _branch_indices, periodic_point
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
    "DualityReport",
    "duality_certificate",
    "CyclicalReport",
    "cyclical_monotonicity_check",
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
# Bounds on gamma_from_support's atom spread and on a passing cyclical slack.
GAMMA_TOL = 1e-8
CYCLICAL_TOL = 1e-10
# Largest violation and atom residual a duality certificate passes.
DUALITY_TOL = 1e-8
# Smallest coupling weight a plan's support keeps by default.
SUPPORT_TOL = 1e-12
# Points equal to this many decimal digits are one point (_point_key).
KEY_DIGITS = 12


class TransportError(ValueError):
    pass


def _reals(points) -> np.ndarray:
    """The points as one float array."""
    return np.array([float(p) for p in points], dtype=float)


def _point_key(p):
    """Hashable key rounded to KEY_DIGITS; handles extension pairs as well as scalars."""
    if isinstance(p, tuple):
        return tuple(_point_key(q) for q in p)
    return round(float(p), KEY_DIGITS)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability: list of (point, weight)."""

    atoms: tuple

    def __post_init__(self):
        pts = [a for a, _ in self.atoms]
        ws = [w for _, w in self.atoms]
        if len(pts) > MAX_SUPPORT:
            raise TransportError(f"support size {len(pts)} exceeds {MAX_SUPPORT}")
        coords = [q for p in pts for q in (p if isinstance(p, tuple) else (p,))]
        if not all(math.isfinite(v) for v in ws + coords):
            raise TransportError("weights and points (each coordinate of a pair) must be finite")
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
    point whose itinerary is the orbit's symbol word read backwards
    (dynamics.periodic_point; a Gauss past point is kept as a float).
    Raises TransportError unless the orbit has period >= 1, one point and
    one digit per step, and every digit a branch index of the system."""
    p = orbit.period
    digits = orbit.itinerary
    if p < 1 or len(orbit.points) != p or len(digits) != p:
        raise TransportError(f"orbit of period {p} needs {p} points and digits, "
                             f"got {len(orbit.points)} and {len(digits)}")
    ks = _branch_indices(sys)
    if any(k not in ks for k in digits):
        raise TransportError(f"itinerary {tuple(digits)} leaves the {sys.kind.value} "
                             f"branch indices {ks[0]}..{ks[-1]}")
    atoms = []
    for i in range(p):
        y = periodic_point(sys, [digits[(i - 1 - k) % p] for k in range(p)])
        if isinstance(y, np.floating):
            y = float(y)
        atoms.append(((orbit.points[i], y), Fraction(1, p)))
    return AtomicMeasure(tuple(atoms))


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

        W is one broadcast call of the kernel's `fn` on the points as
        floats, as in `KernelSpec.grid`; I is evaluated once per row on
        the point as given, so exact rationals stay exact, and an infinite
        deviation makes the row +inf.
        """
        return self._costs(xs, _reals(xs)[:, None], _reals(ys)[None, :])

    def _costs(self, xs: Sequence, xf, yf):
        """The one cost evaluation: gamma - W(xf, yf) on the floats xf, yf
        (arrays or scalars) as they broadcast, then I(xs[i]) added along
        the first axis, xs[i] being the point of xf[i] as given; an
        infinite I gives +inf.

        A column and a row give the `matrix`, and two scalars the cost of
        one pair (`cost`).  The kernel's `fn` is called, not
        `KernelSpec.__call__`.
        """
        C = self.gamma - self.w.fn(xf, yf)
        if self.i_eval is None:
            return C
        iv = np.reshape([float(self.i_eval(x)) for x in xs], np.shape(xf))
        with np.errstate(invalid="ignore"):  # -inf + inf, replaced by +inf
            return np.where(np.isinf(iv), math.inf, C + iv)

    def cost(self, x, y) -> float:
        """c(x, y) for one pair: the scalar case of `_costs`."""
        return float(self._costs([x], float(x), float(y)))


@dataclass(frozen=True)
class GammaResult:
    gamma: float
    max_deviation: float


def gamma_from_support(W, V, V_star, support_atoms: Sequence) -> GammaResult:
    """gamma = W(p, p*) - V(p) - V*(p*) averaged over the extension atoms.

    The identity must hold atom by atom; a spread of GAMMA_TOL or more means
    the supplied V, V*, W are inconsistent and is an error, as is an empty
    support.
    """
    if len(support_atoms) == 0:
        raise TransportError("support identity needs at least one atom")
    vals = []
    for (x, y) in support_atoms:
        vals.append(float(W(float(x), float(y))) - float(V(float(x))) - float(V_star(float(y))))
    gamma = float(np.mean(vals))
    dev = float(max(abs(v - gamma) for v in vals))
    if dev >= GAMMA_TOL:
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

    def support(self, tol: float = SUPPORT_TOL) -> list[tuple]:
        """(x, y, weight) for every coupling entry above tol, in row-major order."""
        rows, cols = np.nonzero(self.coupling > tol)
        return [(self.row_points[i], self.col_points[j], w) for i, j, w in
                zip(rows.tolist(), cols.tolist(), self.coupling[rows, cols].tolist())]

    def support_pairs(self) -> list[tuple]:
        return [(x, y) for x, y, _ in self.support()]


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row, in itertools.permutations
    order; built once per n and returned read-only."""
    P = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        # first entry i, then the permutations of range(k) without i, in order
        P = np.vstack([np.column_stack([np.full(len(P), i), P + (P >= i)]) for i in range(k)])
    P.flags.writeable = False
    return P


def _permutation_plan(C: np.ndarray, w: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, float]:
    """The coupling of row i to column perm[i] with weight w[i], and its
    value summed row by row in order i = 0..n-1, starting from 0.0."""
    rows = np.arange(C.shape[0])
    P = np.zeros_like(C)
    P[rows, perm] = w
    val = 0.0
    for term in (C[rows, perm] * w).tolist():
        val += term
    return P, val


def _solve_permutations(C: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Cheapest permutation coupling: all n! values at once, summed row by row
    in order i = 0..n-1, first minimum in itertools order on ties."""
    n = C.shape[0]
    perms = _permutations(n)
    vals = np.zeros(len(perms))
    for i in range(n):
        vals += C[i, perms[:, i]] * w[i]
    return _permutation_plan(C, w, perms[int(np.argmin(vals))])


def _solve_assignment(C: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Cheapest permutation coupling by scipy's exact assignment solver."""
    from scipy.optimize import linear_sum_assignment

    _, perm = linear_sum_assignment(C)
    return _permutation_plan(C, w, perm)


def _marginal_matrix(n: int, m: int):
    """The equality constraints of an n x m plan, sparse: one row-sum
    constraint per row of the plan, then one per column.  Column k, the
    plan entry (k // m, k % m), has a 1 in its row's and its column's."""
    from scipy.sparse import csc_array

    k = np.arange(n * m)
    rows = np.stack([k // m, n + k % m], axis=1).ravel()
    return csc_array((np.ones(2 * n * m), rows, 2 * np.arange(n * m + 1)), shape=(n + m, n * m))


def _solve_highs(C: np.ndarray, wr: np.ndarray, wc: np.ndarray) -> tuple[np.ndarray, float]:
    """The Kantorovich LP by scipy's HiGHS, +inf costs priced at 1e12.  A
    -inf cost raises before the solve, and a solution with mass on a +inf
    cost after it: neither value is a multiple of 1e12."""
    from scipy.optimize import linprog

    n, m = C.shape
    neg = np.argwhere(C == -np.inf)
    if neg.size:
        i, j = neg[0].tolist()
        raise TransportError(f"cost entry ({i}, {j}) is -inf: the plan value is unbounded below")
    Cw = np.where(np.isinf(C), 1e12, C)
    res = linprog(Cw.ravel(), A_eq=_marginal_matrix(n, m), b_eq=np.concatenate([wr, wc]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise TransportError(f"LP failed: {res.message}")
    P = res.x.reshape(n, m)
    used = np.argwhere((C == np.inf) & (P > 0))
    if used.size:
        i, j = used[0].tolist()
        raise TransportError(f"the solution puts mass {P[i, j]:g} on the +inf cost entry "
                             f"({i}, {j}): the plan value is +inf")
    return P, float(res.fun)


def solve_kantorovich(mu: AtomicMeasure, mu_star: AtomicMeasure, c: CostSpec) -> TransportPlan:
    """Minimize the total cost over couplings with the given marginals.

    When every weight of both marginals is the same float and the square
    cost matrix is finite, the feasible couplings form the scaled
    Birkhoff polytope, whose vertices are permutations
    (Birkhoff-von Neumann), so an optimal plan is a permutation: up to
    8x8 it comes from exact enumeration (first minimum in
    itertools.permutations order on ties), above that from scipy's
    `linear_sum_assignment`.  Both sum the value row by row from 0.0.
    Every other instance goes through scipy's HiGHS simplex.  The plan
    carries no dual solution: `duality_certificate` certifies a plan
    against a given dual pair.
    """
    wr, wc = mu.weights, mu_star.weights
    if abs(wr.sum() - wc.sum()) > MARGINAL_TOL:
        raise TransportError("infeasible marginals: masses differ")
    C = c.matrix(mu.points, mu_star.points)
    for i in range(C.shape[0]):
        if wr[i] > 0 and np.all(np.isinf(C[i])):
            raise TransportError(
                f"atom {float(mu.points[i]):g} has infinite deviation: cannot carry mass"
            )
    n, m = C.shape
    # exact equality: a permutation carries each row weight to one column whole
    uniform = bool(np.all(wr == wr[0]) and np.all(wc == wr[0]))
    if n == m and uniform and not np.any(np.isinf(C)):
        # Enumeration is slower than linear_sum_assignment even at 8 atoms
        # (6.7 ms against 14 us), but it keeps scipy.optimize unimported:
        # importing it added about 41 MB of peak RSS to the CLI's transport
        # runs on the presets and to `verify`, whose plans all have <= 8 atoms
        # (tests/test_transport.py::test_small_plans_leave_scipy_optimize_unimported).
        if n <= 8:
            (P, val), method = _solve_permutations(C, wr), "permutation_enumeration"
        else:
            (P, val), method = _solve_assignment(C, wr), "assignment"
    else:
        (P, val), method = _solve_highs(C, wr, wc), "highs"
    if np.max(np.abs(P.sum(axis=1) - wr)) > MARGINAL_TOL or \
       np.max(np.abs(P.sum(axis=0) - wc)) > MARGINAL_TOL:
        raise TransportError("solver returned a coupling with wrong marginals")
    return TransportPlan(P, val, tuple(mu.points), tuple(mu_star.points), method)


def conjugate_transform(f, G, xs: np.ndarray, ys: np.ndarray,
                        variant: str = "kernel_max") -> np.ndarray:
    """G-transform of f over a probe grid.

    kernel_max: f#(y) = max_x (-f(x) + G(x, y)) for a KernelSpec G;
    cost_min:   f#(y) = min_x (-f(x) + c(x, y)) for a CostSpec c.
    f is a callable, evaluated once on the points as floats, or an array
    aligned with xs.  A CostSpec gets the points as given (exact rationals
    stay exact in its deviation term), a KernelSpec gets floats.
    """
    if variant not in ("kernel_max", "cost_min"):
        raise TransportError(f"unknown transform variant {variant!r}")
    fv = np.asarray(f(_reals(xs)) if callable(f) else f, dtype=float)
    G_xy = G.matrix(xs, ys) if isinstance(G, CostSpec) else G.grid(_reals(xs), _reals(ys))
    vals = -fv[:, None] + G_xy
    return vals.max(axis=0) if variant == "kernel_max" else vals.min(axis=0)


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


def duality_certificate(V, V_star, c: CostSpec, plan: TransportPlan,
                        probe_x: np.ndarray, probe_y: np.ndarray,
                        mu: AtomicMeasure, mu_star: AtomicMeasure) -> DualityReport:
    """Certify that (-V, -V*) is an optimal admissible pair for the plan.

    One additive constant (applied to -V*) is fitted from the support atoms
    before checking, since V* is only pinned up to a constant relative to
    V; the shift is recorded.  Checks: admissibility on the probe grid,
    equality on every support atom, and dual value = plan value; the
    first two pass within DUALITY_TOL.  Probe rows of infinite cost bound
    nothing; when no row is finite, worst_violation is -inf and the
    certificate, having checked nothing, is not admissible.
    """
    atoms = plan.support()
    residuals = [c.cost(x, y) - (-float(V(float(x))) - float(V_star(float(y))))
                 for x, y, _ in atoms]
    shift = float(np.mean(residuals))
    worst_atom = float(max(abs(r - shift) for r in residuals))

    vx = np.array([-float(V(float(x))) for x in probe_x])
    vy = np.array([float(V_star(float(y))) for y in probe_y])
    # probe points pass through to the deviation evaluator unconverted:
    # exact rationals keep forward orbits exact, floats drift off atoms
    worst = _worst_violation(vx[:, None] - vy[None, :] + shift, c.matrix(probe_x, probe_y))
    primal = plan.value
    dual = (-np.sum([float(V(float(p))) * w for p, w in zip(mu.points, mu.weights)])
            - np.sum([float(V_star(float(p))) * w for p, w in zip(mu_star.points, mu_star.weights)])
            + shift)
    gap = float(primal - dual)
    return DualityReport(-math.inf < worst <= DUALITY_TOL, float(worst),
                         worst_atom <= DUALITY_TOL, worst_atom, shift, float(primal),
                         float(dual), gap)


@dataclass(frozen=True)
class CyclicalReport:
    passes: bool
    worst_slack: float
    witness_subset: tuple | None
    witness_permutation: tuple | None


def _exchange(pts: list, c: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """(C, E): C = c.matrix of the atoms' x (as given) against their y, and
    E[i, j] = C[j, i] - C[i, i], a step from atom i to j, x_j taking y_i,
    with E[i, i] = +inf.  An atom of infinite own cost raises."""
    C = c.matrix([x for x, _ in pts], [y for _, y in pts])
    diag = np.diagonal(C)
    bad = np.flatnonzero(np.isinf(diag))
    if bad.size:
        j = int(bad[0])
        raise TransportError(f"support atom ({float(pts[j][0]):g}, {float(pts[j][1]):g}) has "
                             f"infinite own cost {float(diag[j])}: a plan puts no mass on it")
    E = C.T - diag[:, None]
    np.fill_diagonal(E, math.inf)
    return C, E


def _min_plus(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row and the value of each column's least entry of T, a
    min-plus sum whose NaNs (-inf + inf) are read as +inf, in place."""
    T[np.isnan(T)] = math.inf
    k = T.argmin(axis=0)
    return k, T[k, np.arange(T.shape[1])]


def cyclical_monotonicity_check(S: Sequence[tuple], c: CostSpec,
                                n_max: int = 5) -> CyclicalReport:
    """c-cyclical-monotonicity check over the chains of <= n_max atoms.

    A chain (x_1, y_1), ..., (x_L, y_L) of support atoms, repeats allowed,
    has slack sum c(x_t, y_t) - sum c(x_(t+1), y_t), indices mod L; it is
    a closed walk of L steps of the exchange graph (`_exchange`), costing
    minus its slack.  Min-plus rounds on E find the least closed walk of
    each length L = 2..min(n_max, |S|) (first source on ties), split into
    simple cycles where an atom repeats.  worst_slack is the largest walk
    slack, its cycles' slacks added in the order split off, so at least
    every simple cycle's slack; passes is worst_slack <= CYCLICAL_TOL.
    The witness is the split cycle of largest slack, first in length
    order: its atoms in index order and sigma over their positions; its
    slack, own costs in that order from 0.0 minus the permuted ones, is
    worst_slack when the worst walk is one cycle, as walks of 2 or 3 steps
    are.  A walk of several cycles is worst only if their slacks add to
    >= 0, since each cycle is a walk of its own length: a negative
    worst_slack is the witness's.  Fewer than 2 atoms or no finite closed
    walk give (True, 0.0, None, None); n_max must be an int >= 2.
    """
    n_max = _as_count(n_max, 2, TransportError,
                      "n_max must be an int >= 2, not {!r}: below 2 no cycle is checked")
    pts = list(S)
    n = len(pts)
    rounds = min(n_max, n)
    worst = -math.inf
    best = -math.inf
    wit_s = None
    wit_p = None
    if n >= 2:
        C, E = _exchange(pts, c)
        D = E  # D[s, j]: the least walk of L - 1 steps from s to j
    preds = []
    with np.errstate(invalid="ignore"):
        for L in range(2, rounds + 1):
            if L < rounds:  # one source row at a time; predecessors in the narrowest type
                P = np.empty((n, n), np.min_scalar_type(n))
                D = D.copy()
                for s in range(n):  # row s of D is read before it is overwritten
                    P[s], D[s] = _min_plus(D[s][:, None] + E)
                closed = np.diagonal(D)
            else:  # the diagonal only: L - 1 steps from s to k, then k -> s
                p, closed = _min_plus(D.T + E)
                P = np.diag(p)
            preds.append(P)
            s = int(np.argmin(closed))
            if closed[s] == math.inf:
                continue
            walk = [s]  # the walk backwards from its end
            for P in reversed(preds):
                walk.append(int(P[s, walk[-1]]))
            stack = [s]  # the walk forwards, less the cycles split off
            slack = 0.0  # the walk's, its cycles' slacks added as split off
            for v in walk[:0:-1] + [s]:
                k = stack.index(v) if v in stack else len(stack)
                cyc = stack[k:]
                stack = stack[:k] + [v]
                if not cyc:
                    continue
                atoms = sorted(cyc)
                nxt = dict(zip(cyc, cyc[1:] + cyc[:1]))
                own = 0.0
                permuted = 0.0
                for a in atoms:
                    own += float(C[a, a])
                    permuted += float(C[nxt[a], a])
                slack += own - permuted
                if own - permuted > best:
                    best = own - permuted
                    wit_s = tuple(pts[a] for a in atoms)
                    wit_p = tuple(atoms.index(nxt[a]) for a in atoms)
            worst = max(worst, slack)
    if wit_s is None:
        return CyclicalReport(True, 0.0, None, None)
    return CyclicalReport(worst <= CYCLICAL_TOL, worst, wit_s, wit_p)


@dataclass(frozen=True)
class GraphReport:
    is_graph: bool
    bad_clusters: tuple
    monotone_nonincreasing: bool


def graph_check(plan: TransportPlan) -> GraphReport:
    """Group support atoms by x and test one-y-per-x plus anti-monotonicity.

    Clusters with several y values are reported as witnesses; whether such
    a cluster is the measure-zero exception the theory permits is left to
    the caller.
    """
    atoms = sorted(((float(x), float(y)) for x, y, _ in plan.support()))
    clusters: list[tuple[float, list[float]]] = []
    for x, y in atoms:
        if clusters and abs(x - clusters[-1][0]) <= CLUSTER_TOL:
            clusters[-1][1].append(y)
        else:
            clusters.append((x, [y]))
    bad = tuple((x, tuple(sorted(set(ys)))) for x, ys in clusters
                if len({_point_key(v) for v in ys}) > 1)
    ys_rep = [max(ys) for _, ys in clusters]
    mono = all(ys_rep[i] >= ys_rep[i + 1] - CLUSTER_TOL for i in range(len(ys_rep) - 1))
    return GraphReport(not bad, bad, mono)


class RochetMode(enum.Enum):
    BRUTE_FORCE = "brute_force"
    TWIST_ORDERED = "twist_ordered"


# The last table of each mode: {mode: (cost, support pairs, base, chain_cap, table)}.
_ROCHET_MEMO: dict = {}


def _rochet_table(pts: list, c: CostSpec, base: int, mode: RochetMode,
                  chain_cap: int) -> tuple:
    """(xs, ys, diag, d) over the candidate atoms j of `rochet_potential`:
    the float x and y of j, c(x_j, y_j) and the chain distance d_j from the
    base atom, where a chain step from atom i to j adds E[i, j]
    (`_exchange`).  TWIST_ORDERED walks the base atom, then the others by
    increasing x, d the walk's prefix sums from 0.0.  BRUTE_FORCE runs
    chain_cap min-plus rounds from the base row, d_j the least chain sum
    ending at j over the lengths; its candidates are every atom, or the
    base alone at chain_cap 0.
    Each mode keeps its last table for the same cost, base, chain_cap and pair
    objects, compared by identity (the memo's references keep their ids),
    and only for tuple pairs, as others may change between calls;
    `_rochet_table.cache_clear()` empties the memo.
    """
    hit = _ROCHET_MEMO.get(mode)
    if (hit and hit[0] is c and hit[2] == base and hit[3] == chain_cap
            and len(hit[1]) == len(pts) and all(map(operator.is_, hit[1], pts))):
        return hit[4]
    xr = [float(x) for x, _ in pts]
    yr = [float(y) for _, y in pts]
    js = range(len(pts))
    if mode is RochetMode.TWIST_ORDERED:
        ordered = sorted(js, key=xr.__getitem__)
        if (xr[ordered[0]], yr[ordered[0]]) != (xr[base], yr[base]):
            raise TransportError("twist-ordered mode requires base = leftmost support atom")
        js = [base] + [i for i in ordered if i != base]
    C, E = _exchange(pts, c)
    if mode is RochetMode.TWIST_ORDERED:
        d = list(itertools.accumulate(E[js[:-1], js[1:]].tolist(), initial=0.0))
    elif chain_cap:
        dist = level = 0.0 + E[base]  # chains add from 0.0, which turns a -0.0 step into 0.0
        dist[base] = 0.0  # the empty chain; level, the same array, repeats no new sum
        with np.errstate(invalid="ignore"):
            for _ in range(chain_cap - 1):  # a step that stays put would add 0.0: no new sum
                level = _min_plus(level[:, None] + E)[1]
                np.minimum(dist, level, out=dist)
        d = dist.tolist()
    else:
        js = [base]
        d = [0.0]
    diag = np.diagonal(C).tolist()
    table = ([xr[j] for j in js], [yr[j] for j in js], [diag[j] for j in js], d)
    _ROCHET_MEMO.pop(mode, None)
    if all(type(p) is tuple for p in pts):
        _ROCHET_MEMO[mode] = (c, tuple(pts), base, chain_cap, table)
    return table


_rochet_table.cache_clear = _ROCHET_MEMO.clear


def rochet_potential(S: Sequence[tuple], c: CostSpec, base: int, z,
                     mode: RochetMode = RochetMode.BRUTE_FORCE,
                     chain_cap: int = CHAIN_CAP) -> float:
    """Rockafellar-type potential f(z) built from chains through S.

    BRUTE_FORCE takes the infimum of the telescoping sum over all chains
    of length <= chain_cap (elements of S with repetition); TWIST_ORDERED
    evaluates the closed-form chain that uses the support atoms strictly
    left of z in increasing x order, starting from the base atom.  Both
    take f(z) = min over candidate atoms j of d_j + (c(z, y_j) - c(x_j, y_j))
    from the support's table (`_rochet_table`): TWIST_ORDERED the walk
    atom k, k the number of walk atoms after the base with x < z, priced
    by `CostSpec.cost`; BRUTE_FORCE all, priced by one `CostSpec.matrix`
    row; z is priced as given, so a rational z keeps I(z) exact.  A chain
    adds its terms left to right from 0.0, and rounded addition is
    monotone, so the least fl(s + t) over partial sums s is fl(min s + t):
    with C finite on the support this is the least value over every chain
    bit for bit (an atom of infinite own cost raises, see `_exchange`), in
    chain_cap * n^2 additions instead of n^chain_cap chains.  Each cost is
    bit for bit its entry of the full cost matrix, and under a twist cost
    the two modes agree.  An empty support, a non-index base, a chain_cap
    that is not an int >= 0 and a z that is not finite raise
    TransportError.
    """
    pts = list(S)
    if not pts:
        raise TransportError("empty support")
    not_index = "base {!r} is not an atom index of a support of " + str(len(pts))
    if _as_count(base, 0, TransportError, not_index) >= len(pts):
        raise TransportError(not_index.format(base))
    base = int(base)
    chain_cap = _as_count(chain_cap, 0, TransportError,
                          "chain_cap must be an int >= 0, not {!r}")
    zv = float(z)
    if not math.isfinite(zv):
        raise TransportError(f"z must be finite, not {z!r}")
    if not isinstance(mode, RochetMode):
        raise TransportError(f"unknown mode {mode!r}")

    xs, ys, diag, d = _rochet_table(pts, c, base, mode, chain_cap)
    if mode is RochetMode.TWIST_ORDERED:
        k = bisect.bisect_left(xs, zv, 1) - 1  # walk atoms after the base with x < z
        js, z_costs = [k], [c.cost(z, ys[k])]
    else:
        js, z_costs = range(len(d)), c.matrix([z], ys)[0].tolist()
    return float(min(d[j] + (cz - diag[j]) for j, cz in zip(js, z_costs)))


def b_function(x, y, W, V, V_star, gamma: float, I=None) -> float:
    """b(x, y) = I(x) + gamma - W(x, y) + V(x) + V*(y); nonnegative, zero on
    the extension support.  An infinite deviation propagates to +inf."""
    iv = float(I(x)) if I is not None else 0.0
    if math.isinf(iv):
        return math.inf
    return iv + gamma - float(W(float(x), float(y))) + float(V(float(x))) + float(V_star(float(y)))
