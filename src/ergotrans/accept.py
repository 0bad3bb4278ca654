"""The verification suite: one named check per acceptance criterion.

Each check pins its tolerances here; the CLI `verify` command and the
test-suite both run these.  The probe points of the slack checks, which
`ergotrans transport` shares (_slack_probes), are exact rationals: a
rational orbit ends exactly on a cycle, where deviation_I gives I
exactly (+inf off the maximizing cycles), while a float orbit drifts
off the cycle it should stay on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from . import involution as inv
from . import transport as tr
from .dynamics import MINUS_DOUBLING, gauss_system, inverse_branches
from .ergopt import calibrated_subaction, critical_value, deviation_I
from .potentials import GAUSS_LOG, LINEAR, QUAD_DIRAC, QUAD_PERIOD2, polynomial_potential
from .presets import GOLDEN_MEAN, get_preset
from .thermo import _BLOCK, eigenpair, v_beta

__all__ = ["CheckResult", "CRITERIA", "transport_instance"]

N_PROBES_COHOMOLOGY = 1000
N_TRIPLES_COCYCLE = 1000
# Longest period of the orbits the checks enumerate for a critical value.
MAX_PERIOD = 4
B_GRID = 64
# Backward steps taken from the support atoms to the slack checks' probe points.
PREIMAGE_DEPTH = 4
Z_GRID = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _slack_probes(sys, atoms) -> tuple[list[Fraction], list[Fraction]]:
    """(probe x's, probe y's) of checks 7 and 8 and of `ergotrans transport`'s
    duality certificate: the B_GRID cell centres, and for x also the exact
    preimages of the support atoms that are Fractions, PREIMAGE_DEPTH steps
    deep.  On +-2x the grid's orbits end on the non-maximizing fixed point
    0, so I is +inf there; the preimages have finite I and are where the
    checks bind.  Float (Gauss) atoms get none: 30^4 float preimages would
    be too many, and each would drift like the atom.
    """
    grid = [Fraction(2 * i + 1, 2 * B_GRID) for i in range(B_GRID)]
    layer, out = list(dict.fromkeys(x for x, _ in atoms if isinstance(x, Fraction))), []
    for _ in range(PREIMAGE_DEPTH):
        layer = [z for x in layer for _, z in inverse_branches(sys, x)]
        out.extend(layer)
    return grid + list(dict.fromkeys(out)), grid


@lru_cache(maxsize=None)
def transport_instance(name: str):
    """A preset's transport problem: (preset, mu, mu*, cost, atoms, plan).

    quad-convex is the uniform {1/3, 2/3} twist instance under the
    example-6 cost, with atoms None (its own maximizing measure sits on
    the circle corner 0 = 1, where the skew coding degenerates).  Every
    other preset transports its maximizing measure to its dual under
    c = I - W + gamma, with gamma fitted on the extension atoms and I from
    deviation_I with n_terms 2000 and no early exit.  A rational point's
    orbit ends on a cycle within a few steps, and I is exact there: +inf
    off the maximizing cycles, the preperiod sum on them.  n_terms bounds
    only a float atom's walk: the golden-mean Gauss atom does not repeat,
    and its I is a 2000-term partial sum (ROADMAP item 2).
    """
    pre = get_preset(name)
    if name == "quad-convex":
        mu = tr.AtomicMeasure.uniform([Fraction(1, 3), Fraction(2, 3)])
        cost = tr.CostSpec(w=pre.paper_kernel, gamma=0.0)
        return pre, mu, mu, cost, None, tr.solve_kantorovich(mu, mu, cost)
    cv = critical_value(pre.system, pre.potential, max_period=MAX_PERIOD)
    mu, mu_star, ext = tr.maximizing_extension_measure(pre.system, cv.tied)
    atoms = [xy for xy, _ in ext.atoms]
    gamma = tr.gamma_from_support(pre.kernel, pre.closed_V, pre.closed_V, atoms).gamma

    # typed: a Fraction and the float of equal value have different orbits
    @lru_cache(maxsize=None, typed=True)
    def I(x):
        return deviation_I(pre.system, pre.potential, pre.closed_V, pre.m_exact, x,
                           n_terms=2000, early_exit=False).value

    cost = tr.CostSpec(w=pre.kernel, gamma=gamma, i_eval=I)
    return pre, mu, mu_star, cost, atoms, tr.solve_kantorovich(mu, mu_star, cost)


def check_critical_values() -> CheckResult:
    tol = 1e-9
    errs = []
    for name in ("quad-dirac", "quad-period2", "gauss-golden"):
        pre = get_preset(name)
        cv = critical_value(pre.system, pre.potential, max_period=MAX_PERIOD)
        errs.append((name, abs(cv.m - pre.m_exact)))
    worst = max(e for _, e in errs)
    return CheckResult(
        "critical-values",
        worst < tol,
        "max |m - exact| = %.2e over %s" % (worst, ", ".join(n for n, _ in errs)),
    )


def _subaction_error(name: str, n_grid: int) -> tuple[float, bool]:
    """(sup-error against the closed form, calibrated) of a preset's
    subaction at n_grid cells, thermo.DEFAULT_N_GRID times a power of two.

    The subaction is solved at DEFAULT_N_GRID cells, with m from
    critical_value, and then on each doubled grid up to n_grid from the
    level before (calibrated_subaction's start), as in nested iteration:
    on quad-dirac and quad-period2 every refined level converges in 3
    steps, where a solve from V = 0 at 2^20 cells takes 39 and 37, and
    the final V is within 2.7e-13 of that solve's.  The closed form is
    read block by block, first for its maximum and then for the error, so
    the comparison makes no grid-sized array; both are maxima, so err is
    that of the whole-array comparison.  The grid-sized arrays are
    released on return, so the next solve does not hold them.
    """
    pre = get_preset(name)
    res = calibrated_subaction(pre.system, pre.potential, max_period=MAX_PERIOD)
    n, m = res.V.n_grid, res.m
    while n < n_grid:
        n *= 2
        res = calibrated_subaction(pre.system, pre.potential, n_grid=n, m=m, start=res.V)
    V = res.V.values
    starts = range(0, n, _BLOCK)

    def closed(s):
        return np.asarray(pre.closed_V((np.arange(s, min(s + _BLOCK, n)) + 0.5) / n), dtype=float)

    top = np.max([closed(s).max() for s in starts])
    err = np.max([np.max(np.abs(V[s:s + _BLOCK] - (closed(s) - top))) for s in starts])
    return float(err), res.calibrated


def check_subactions() -> CheckResult:
    tol = 1e-6
    details = []
    ok = True
    for name, n_grid in (("quad-dirac", 1 << 20), ("quad-period2", 1 << 20)):
        err, calibrated = _subaction_error(name, n_grid)
        ok = ok and err < tol and calibrated
        details.append(f"{name}: sup-err {err:.2e}")
    return CheckResult("calibrated-subactions", ok, "; ".join(details))


def check_cohomology() -> CheckResult:
    tol = 1e-10
    cases = [
        ("A=x,W1", MINUS_DOUBLING, LINEAR, inv.quadratic_kernel(0, 1, 0)),
        ("A=x^2,W2", MINUS_DOUBLING, polynomial_potential(0, 0, 1), inv.quadratic_kernel(0, 0, 1)),
        ("quad-dirac", MINUS_DOUBLING, QUAD_DIRAC, get_preset("quad-dirac").kernel),
        ("quad-period2", MINUS_DOUBLING, QUAD_PERIOD2, get_preset("quad-period2").kernel),
        ("gauss", gauss_system(), GAUSS_LOG, inv.gauss_log_kernel()),
    ]
    worst = 0.0
    for label, sysm, A, W in cases:
        r = inv.cohomology_residual(sysm, A, W, A, probes=N_PROBES_COHOMOLOGY, seed=7)
        worst = max(worst, r)
    return CheckResult("cohomology-residual", worst < tol,
                       f"max residual {worst:.2e} over {len(cases)} involutive pairs")


def check_cocycle_vs_closed_form() -> CheckResult:
    A = polynomial_potential(0, 0, 1)
    W2 = inv.quadratic_kernel(0, 0, 1)
    bound = inv.series_tail_bound(A, inv.SERIES_DEPTH)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(N_TRIPLES_COCYCLE):
        x, xp, y = (Fraction(int(rng.integers(0, 4096)), 4096) for _ in range(3))
        delta = inv.cocycle_delta(MINUS_DOUBLING, A, x, xp, y, inv.SERIES_DEPTH)
        closed = W2(x, y) - W2(xp, y)
        worst = max(worst, abs(float(delta.value - closed)))
    return CheckResult("cocycle-vs-closed-form", worst < bound,
                       f"max |Delta - (W2(x,y)-W2(x',y))| = {worst:.2e} < bound {bound:.2e}")


def check_twist_verdicts() -> CheckResult:
    tol = 1e-6
    w2 = inv.twist_check(inv.quadratic_kernel(0, 0, 1))
    w1 = inv.twist_check(inv.quadratic_kernel(0, 1, 0))
    e5 = inv.twist_check(inv.example5_kernel())
    e6 = inv.twist_check(inv.example6_kernel())
    ok = (
        w2.is_twist and abs(w2.mixed_partial_max + 4.0 / 3.0) < tol
        and not w1.is_twist and abs(w1.mixed_partial_max) < tol
        and not e5.is_twist and abs(e5.mixed_partial_max - 4.0 / 3.0) < tol
        and e6.is_twist and abs(e6.mixed_partial_max + 4.0 / 3.0) < tol
    )
    return CheckResult(
        "twist-verdicts", ok,
        f"W2 twist({w2.mixed_partial_max:+.6f}), W1 flat({w1.mixed_partial_max:+.1e}), "
        f"example5 not({e5.mixed_partial_max:+.6f}), example6 twist({e6.mixed_partial_max:+.6f})",
    )


def check_transport_plan() -> CheckResult:
    pre, mu, mu_star, *_ = transport_instance("quad-period2")
    cost = tr.CostSpec(w=pre.paper_kernel, gamma=0.0)
    plan = tr.solve_kantorovich(mu, mu_star, cost)
    support = plan.support_pairs()
    identity = sorted((float(x), float(y)) for x, y in support)
    want = [(1.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0, 2.0 / 3.0)]
    is_identity = all(abs(a - c) < 1e-12 and abs(b - d) < 1e-12
                      for (a, b), (c, d) in zip(identity, want))
    sum_id = sum(float(pre.paper_kernel(x, y)) for x, y in support)
    swapped = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))]
    sum_sw = sum(float(pre.paper_kernel(x, y)) for x, y in swapped)
    ok = (is_identity and plan.method == "permutation_enumeration"
          and abs(sum_id + 17.0 / 27.0) < 1e-12 and abs(sum_sw + 21.0 / 27.0) < 1e-12)
    return CheckResult(
        "transport-plan", ok,
        f"identity pairing via {plan.method}; sum W = {sum_id:.12f} (-17/27) vs swap "
        f"{sum_sw:.12f} (-21/27)",
    )


def check_duality() -> CheckResult:
    tol = tr.DUALITY_TOL
    details, ok = [], True
    for name in ("quad-dirac", "quad-period2"):
        pre, mu, mu_star, cost, atoms, plan = transport_instance(name)
        probe_x, probe_y = _slack_probes(pre.system, atoms)
        rep = tr.duality_certificate(pre.closed_V, pre.closed_V, cost, plan,
                                     probe_x, probe_y, mu, mu_star)
        ok = ok and rep.admissible and rep.slackness_ok and abs(rep.duality_gap) <= tol
        details.append(
            f"{name}: viol {rep.worst_violation:+.2e}, atom {rep.worst_atom_residual:.2e}, "
            f"gap {rep.duality_gap:+.2e}"
        )
    return CheckResult("kantorovich-duality", ok, "; ".join(details))


def check_b_function() -> CheckResult:
    tol = 1e-8
    details, ok = [], True
    for name in ("quad-dirac", "quad-period2"):
        pre, _, _, cost, atoms, _ = transport_instance(name)
        gamma, I = cost.gamma, cost.i_eval
        probe_x, probe_y = _slack_probes(pre.system, atoms)
        ys = np.array([float(y) for y in probe_y])
        ix = np.array([float(I(x)) for x in probe_x])
        keep = ~np.isinf(ix)
        xs = np.array([float(x) for x in probe_x])[keep]
        # b = I(x) + gamma - W(x, y) + V(x) + V(y), summed in that order
        b = ((ix[keep] + gamma)[:, None] - pre.kernel.grid(xs, ys)
             + pre.closed_V(xs)[:, None]) + pre.closed_V(ys)[None, :]
        bmin = float(np.min(b, initial=math.inf))
        atom_worst = max(abs(tr.b_function(x, y, pre.kernel, pre.closed_V,
                                           pre.closed_V, gamma, I))
                         for (x, y) in atoms)
        ok = ok and bmin >= -tol and atom_worst < tol
        details.append(f"{name}: grid min {bmin:+.2e}, atom max |b| {atom_worst:.2e}")
    return CheckResult("b-function", ok, "; ".join(details))


def check_cyclical_monotonicity() -> CheckResult:
    ok = True
    for name in ("quad-dirac", "quad-period2", "quad-convex"):
        _, _, _, cost, _, plan = transport_instance(name)
        rep = tr.cyclical_monotonicity_check(plan.support_pairs(), cost, n_max=5)
        ok = ok and rep.passes
    pre = get_preset("quad-period2")
    swapped = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))]
    cost_w = tr.CostSpec(w=pre.paper_kernel, gamma=0.0)
    rep_sw = tr.cyclical_monotonicity_check(swapped, cost_w, n_max=5)
    slack_err = abs(rep_sw.worst_slack - 4.0 / 27.0)
    ok = ok and not rep_sw.passes and slack_err < 1e-10
    return CheckResult(
        "cyclical-monotonicity", ok,
        f"optimal supports pass; swapped support fails with slack {rep_sw.worst_slack:.12f} "
        f"(|err| {slack_err:.1e})",
    )


def check_rochet_potential() -> CheckResult:
    tol = 1e-9
    _, _, _, cost, _, plan = transport_instance("quad-convex")
    S = sorted(plan.support_pairs(), key=lambda p: float(p[0]))
    worst = 0.0
    for z in np.linspace(0.01, 0.99, Z_GRID):
        fb = tr.rochet_potential(S, cost, 0, float(z), tr.RochetMode.BRUTE_FORCE, chain_cap=5)
        ft = tr.rochet_potential(S, cost, 0, float(z), tr.RochetMode.TWIST_ORDERED)
        worst = max(worst, abs(fb - ft))
    return CheckResult("rochet-potential", worst < tol,
                       f"max |brute - twist-ordered| = {worst:.2e} over {Z_GRID} z-points")


def check_graph_property() -> CheckResult:
    plan6 = transport_instance("quad-convex")[-1]
    g6 = tr.graph_check(plan6)
    pre_g = get_preset("gauss-golden")
    b = GOLDEN_MEAN
    mug = tr.AtomicMeasure.dirac(b)
    cost_g = tr.CostSpec(w=pre_g.kernel, gamma=pre_g.gamma_exact)
    plan_g = tr.solve_kantorovich(mug, mug, cost_g)
    gg = tr.graph_check(plan_g)
    bad_plan = tr.TransportPlan(
        coupling=np.array([[0.5, 0.5]]), value=0.0,
        row_points=(Fraction(1, 3),), col_points=(Fraction(1, 3), Fraction(2, 3)),
        method="constructed",
    )
    gbad = tr.graph_check(bad_plan)
    witness_ok = (not gbad.is_graph and gbad.bad_clusters
                  and abs(gbad.bad_clusters[0][0] - 1.0 / 3.0) < 1e-12)
    ok = (g6.is_graph and g6.monotone_nonincreasing
          and gg.is_graph and gg.monotone_nonincreasing and witness_ok)
    return CheckResult(
        "graph-property", ok,
        f"twist plans are nonincreasing graphs; constructed double fiber flagged at "
        f"x={gbad.bad_clusters[0][0]:.6f}" if gbad.bad_clusters else "missing witness",
    )


def check_finite_beta() -> CheckResult:
    pre = get_preset("quad-dirac")
    c = None
    sups, merrs = {}, {}
    for beta in (8.0, 64.0):
        vb = v_beta(pre.system, pre.potential, beta)
        if c is None:
            c = vb.centers
            target = np.asarray(pre.closed_V(c), dtype=float)
            target -= target.max()
        sups[beta] = float(np.max(np.abs(vb.values - target)))
        pair = eigenpair(pre.system, pre.potential, beta)
        merrs[beta] = abs(pair.log_eigenvalue / beta - pre.m_exact)
    ratio = sups[64.0] / sups[8.0]
    ok = ratio < 0.25 and merrs[64.0] < merrs[8.0]
    return CheckResult(
        "finite-beta-consistency", ok,
        f"sup|V_b - V|: {sups[8.0]:.4f} (b=8) -> {sups[64.0]:.6f} (b=64), ratio {ratio:.4f}; "
        f"|(1/b)log lam - m|: {merrs[8.0]:.2e} -> {merrs[64.0]:.2e}",
    )


CRITERIA: list[tuple[str, Callable[[], CheckResult]]] = [
    ("1 critical values", check_critical_values),
    ("2 calibrated subactions", check_subactions),
    ("3 cohomology residual", check_cohomology),
    ("4 cocycle vs closed form", check_cocycle_vs_closed_form),
    ("5 twist verdicts", check_twist_verdicts),
    ("6 transport plan", check_transport_plan),
    ("7 duality", check_duality),
    ("8 b-function", check_b_function),
    ("9 cyclical monotonicity", check_cyclical_monotonicity),
    ("10 rochet potential", check_rochet_potential),
    ("11 graph property", check_graph_property),
    ("12 finite beta", check_finite_beta),
]
