"""The four workloads: their inputs, operations and output checks.

`build(workload, seed, scratch)` generates the inputs from the seed and
returns the operations of one round.  Each operation is a call into the
public API of `ergotrans` (`run`) and a check of its output against
`checks` (`check`).  Only `run` is timed.  The seed fixes the order of
the operations and every randomly drawn input; the amount of work in a
round does not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

# Operations that fail on every run because of a known fault of the
# program; they count as failed, not as incorrect.
KNOWN_FAULTS = {"transport:gauss-golden"}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    span: str | None = None  # benchmark-side span around run, if any


def build(workload: str, seed: int, scratch: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = {
        "verify": _verify_ops,
        "presets": _presets_ops,
        "grid-scale": _grid_scale_ops,
        "certify": _certify_ops,
    }[workload](rng, seed, scratch)
    rng.shuffle(ops)
    return ops


def reset_round(scratch: Path) -> None:
    """Start a round as a fresh run would: no program caches, no old outputs.

    A fresh interpreter has empty caches; `accept._quad_context` alone
    would otherwise make a second in-process `verify` round about 20 s
    faster than any run a user makes.
    """
    import shutil
    import sys

    shutil.rmtree(scratch / "cli", ignore_errors=True)
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("ergotrans"):
            continue
        for val in list(vars(mod).values()):
            clear = getattr(val, "cache_clear", None)
            if callable(clear):
                clear()


# ------------------------------------------------------------------ verify

# accept.CRITERIA label -> CheckResult name.  Criteria are looked up by
# label, so a criterion added later does not change this workload.
VERIFY_CRITERIA = (
    ("1 critical values", "critical-values"),
    ("2 calibrated subactions", "calibrated-subactions"),
    ("3 cohomology residual", "cohomology-residual"),
    ("4 cocycle vs closed form", "cocycle-vs-closed-form"),
    ("5 twist verdicts", "twist-verdicts"),
    ("6 transport plan", "transport-plan"),
    ("7 duality", "kantorovich-duality"),
    ("8 b-function", "b-function"),
    ("9 cyclical monotonicity", "cyclical-monotonicity"),
    ("10 rochet potential", "rochet-potential"),
    ("11 graph property", "graph-property"),
    ("12 finite beta", "finite-beta-consistency"),
)


def _verify_ops(rng, seed, scratch) -> list[Op]:
    from ergotrans import accept

    table = dict(accept.CRITERIA)
    ops = []
    for label, name in VERIFY_CRITERIA:
        def check(res, name=name):
            ck.require(res.name == name, f"criterion returned {res.name!r}")
            ck.require(res.passed is True, f"criterion failed: {res.detail}")

        ops.append(Op(f"verify:{name}", table[label], check, span=f"accept.{name}"))
    return ops


# ----------------------------------------------------------------- presets

CLI_COMMANDS = ("subaction", "kernel", "dual", "twist", "transport")


def _presets_ops(rng, seed, scratch) -> list[Op]:
    from ergotrans import cli

    ops = []
    for cmd in CLI_COMMANDS:
        for name in ck.PRESETS:
            out = scratch / "cli" / f"{cmd}-{name}"

            def run(cmd=cmd, name=name, out=out):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main([cmd, "--preset", name, "--out", str(out),
                                     "--seed", str(seed)])

            def check(rc, cmd=cmd, name=name, out=out):
                ck.require(rc == 0, f"exit code {rc}")
                _check_cli_output(cmd, name, out)

            ops.append(Op(f"{cmd}:{name}", run, check, span=f"cli.{cmd}"))
    return ops


def _check_cli_output(cmd: str, name: str, out: Path) -> None:
    if cmd == "subaction":
        ck.check_subaction(name, ck.read_json(out / f"{name}-subaction.json"),
                           ck.read_csv(out / f"{name}-V.csv"))
    elif cmd == "kernel":
        ck.check_kernel(name, ck.read_csv(out / f"{name}-kernel.csv"))
    elif cmd == "dual":
        ck.check_dual(name, ck.read_json(out / f"{name}-dual.json"),
                      ck.read_csv(out / f"{name}-dual.csv"))
    elif cmd == "twist":
        ck.check_twist(name, ck.read_json(out / f"{name}-twist.json"))
    else:
        ck.check_transport(name, ck.read_json(out / f"{name}-transport.json"))


# -------------------------------------------------------------- grid-scale

# Grid ladders for calibrated_subaction: gauss-golden has 30 branches, the
# affine presets 2.
LADDER = {"gauss-golden": (1 << 11, 1 << 12, 1 << 13)}
LADDER_AFFINE = (1 << 15, 1 << 16, 1 << 17)
THERMO_GRID = {"gauss-golden": 1 << 12}
THERMO_GRID_AFFINE = 1 << 14
BETAS = (8.0, 64.0)


def _grid_scale_ops(rng, seed, scratch) -> list[Op]:
    from ergotrans import ergopt, presets, thermo

    ops = []
    for name in ck.PRESETS:
        pre = presets.get_preset(name)
        sys_, A, W, m = pre.system, pre.potential, pre.kernel, ck.M_REF[name]
        ladder = LADDER.get(name, LADDER_AFFINE)

        def run_ladder(sys_=sys_, A=A, m=m, ladder=ladder):
            return [ergopt.calibrated_subaction(sys_, A, n_grid=n, m=m) for n in ladder]

        def check_ladder(results, name=name, m=m, ladder=ladder):
            ck.check_ladder(name, m, ladder, results)

        n_t = THERMO_GRID.get(name, THERMO_GRID_AFFINE)

        def run_thermo(sys_=sys_, A=A, W=W, n_t=n_t):
            out = {}
            for beta in BETAS:
                out[beta] = (thermo.eigenpair(sys_, A, beta, n_grid=n_t),
                             thermo.v_beta(sys_, A, beta, n_grid=n_t),
                             thermo.eigen_measure(sys_, A, beta, n_grid=n_t),
                             thermo.gamma_estimate(sys_, A, W, beta))
            return out

        def check_thermo(out, name=name, m=m, n_t=n_t):
            ck.check_thermo(name, m, n_t, out)

        ops.append(Op(f"subaction-ladder:{name}", run_ladder, check_ladder))
        ops.append(Op(f"thermo:{name}", run_thermo, check_thermo))
    return ops


# ----------------------------------------------------------------- certify

# (instance, period of the x-orbits, number of x-orbits); the y-marginal is
# the dual measure, on the reversed-itinerary orbits.  Up to 8 atoms the
# solver enumerates permutations, above that it calls HiGHS.
EXTENSION_INSTANCES = (("perm4", 4, 1), ("perm8", 8, 1), ("highs16", 8, 2), ("highs64", 8, 8))
BRUTE_MAX_ATOMS = 5
N_PROBE = 48
N_Z = 8


def _symbol(x: Fraction) -> int:
    return 0 if 2 * x < 1 else 1


def _orbits(period: int) -> list[tuple[Fraction, ...]]:
    """Every orbit of minimal period p of T x = -2x mod 1, in exact rationals."""
    den = abs((-2) ** period - 1)
    seen, out = set(), []
    for j in range(1, den):
        x = Fraction(j, den)
        if x in seen:
            continue
        orbit = [x]
        for _ in range(period - 1):
            orbit.append((-2 * orbit[-1]) % 1)
        if (-2 * orbit[-1]) % 1 != x or len(set(orbit)) != period:
            continue
        seen.update(orbit)
        out.append(tuple(orbit))
    return out


def _certify_ops(rng, seed, scratch) -> list[Op]:
    from ergotrans import dynamics, involution as inv, potentials, transport as tr

    ops = []
    kernels = {
        "W1": inv.quadratic_kernel(0, 1, 0),
        "W2": inv.quadratic_kernel(0, 0, 1),
        "ex5": inv.example5_kernel(),
        "ex6": inv.example6_kernel(),
    }
    probe = [Fraction(2 * i + 1, 2 * N_PROBE) for i in range(N_PROBE)]
    for inst, period, count in EXTENSION_INSTANCES:
        chosen = rng.sample(_orbits(period), count)
        orbits = [dynamics.PeriodicOrbit(o, period, tuple(_symbol(x) for x in o))
                  for o in chosen]
        for kname, W in kernels.items():
            def run(orbits=orbits, W=W):
                return _certify_extension(orbits, W, probe)

            def check(out, kname=kname, period=period):
                _check_extension(out, kname, period)

            ops.append(Op(f"plan:{inst}:{kname}", run, check))

    # basis-enumeration path: a period-3 orbit against a period-4 orbit
    bx = list(rng.choice(_orbits(3)))
    by = list(rng.choice(_orbits(4)))
    for kname, W in kernels.items():
        def run_basis(W=W, xs=bx, ys=by):
            cost = tr.CostSpec(w=W)
            plan = tr.solve_kantorovich(tr.AtomicMeasure.uniform(xs),
                                        tr.AtomicMeasure.uniform(ys), cost)
            S = plan.support_pairs()
            return (plan, tr.graph_check(plan),
                    tr.cyclical_monotonicity_check(S, cost, n_max=min(len(S), 5)))

        def check_basis(out, kname=kname, xs=bx, ys=by):
            plan, graph, cyc = out
            ref = ck.check_plan(plan, xs, ys, kname)
            ck.check_graph(graph, ref, kname, square=False)
            ck.check_cyclical(cyc)

        ops.append(Op(f"plan:basis3x4:{kname}", run_basis, check_basis))

    def run_swapped():
        pair = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))]
        return tr.cyclical_monotonicity_check(pair, tr.CostSpec(w=kernels["ex5"]), n_max=5)

    ops.append(Op("cyclical:swapped", run_swapped, ck.check_swapped))

    # twist checks: closed forms and a cocycle-series kernel of A = x^2
    A2 = potentials.polynomial_potential(0, 0, 1)
    series = inv.fundamental_kernel(dynamics.MINUS_DOUBLING, A2, Fraction(1, 2), depth=48)
    twist_cases = [(k, W, ck.MIXED[k]) for k, W in kernels.items()]
    twist_cases.append(("series-W2", series, ck.MIXED["W2"]))
    for kname, W, k in twist_cases:
        n_grid = 5 if W is series else 21

        def run_twist(W=W, n_grid=n_grid):
            return {m: inv.twist_check(W, m, n_grid=n_grid) for m in inv.TwistMethod}

        def check_twist(reps, k=k, n_grid=n_grid, tol=1e-9 + 4 * W.tail_bound):
            for method, rep in reps.items():
                ck.require(rep.is_twist is (k < 0), f"{method.value}: is_twist {rep.is_twist}")
                if method is inv.TwistMethod.MIXED_PARTIAL:
                    ck.require(abs(rep.mixed_partial_max - k) <= 1e-6,
                               f"mixed partial {rep.mixed_partial_max!r}, exact {k!r}")
                else:
                    want = ck.twist_margin_ref(k, method.value, n_grid)
                    ck.require(abs(rep.margin - want) <= tol,
                               f"{method.value} margin {rep.margin!r}, exact {want!r}")

        ops.append(Op(f"twist:{kname}", run_twist, check_twist))

    # dual potentials and cohomology residuals of involutive pairs
    gauss = dynamics.gauss_system(30)
    pairs = {
        "x/W1": (dynamics.MINUS_DOUBLING, "linear", kernels["W1"]),
        "x^2/W2": (dynamics.MINUS_DOUBLING, None, kernels["W2"]),
        "quad-dirac": (dynamics.MINUS_DOUBLING, "quad-dirac", inv.quadratic_kernel(0, 2, -1)),
        "quad-period2": (dynamics.MINUS_DOUBLING, "quad-period2", inv.quadratic_kernel(0, 1, -1)),
        "gauss": (gauss, "gauss-golden", inv.gauss_log_kernel()),
    }
    for label, (sys_, pname, W) in pairs.items():
        A = potentials.GAUSS_LOG if pname == "gauss-golden" else (
            A2 if pname is None else potentials.polynomial_potential(*ck.POLY[pname]))
        lo = 1.0 / 31 + 2e-3 if sys_ is gauss else 1e-3
        ys = np.sort([rng.uniform(lo, 1.0 - 1e-3) for _ in range(64)])
        probe_seed = rng.randrange(1 << 30)

        def run_dual(sys_=sys_, A=A, W=W, ys=ys, probe_seed=probe_seed):
            A_star = inv.dual_potential(sys_, A, W)
            values = np.asarray(A_star(ys), dtype=float)
            res = inv.cohomology_residual(sys_, A, W, A_star, probes=300, seed=probe_seed)
            try:
                inv.dual_potential(sys_, A, kernels["W2"] if W is kernels["W1"] else kernels["W1"])
                rejected = False
            except inv.InvolutionError:
                rejected = True
            return values, res, rejected

        def check_dual(out, pname=pname, ys=ys):
            values, res, rejected = out
            ref = ys * ys if pname is None else ck.potential_ref(pname, ys)
            err = float(np.max(np.abs(values - ref)))
            ck.require(err <= 1e-9, f"|A* - A| = {err:.3e}")
            ck.require(res <= 1e-10, f"cohomology residual {res:.3e}")
            ck.require(rejected, "dual_potential accepted a kernel of another potential")

        ops.append(Op(f"dual:{label}", run_dual, check_dual))

    R = potentials.custom_potential(lambda x: np.cos(2 * np.pi * x), "cos(2 pi x)",
                                    holder_constant=2 * np.pi)
    eps_list = (0.0, 1.0)

    def run_stability():
        return inv.twist_stability_probe((0, 0, 1), R, eps_list, n_grid=5)

    def check_stability(res):
        ck.require(res.reports[0.0].is_twist, "A = x^2 fails the twist check")
        want = ck.twist_margin_ref(ck.MIXED["W2"], "delta_monotone", 5)
        ck.require(abs(res.reports[0.0].margin - want) <= 1e-9,
                   f"eps = 0 margin {res.reports[0.0].margin!r}, exact {want!r}")
        passing = [e for e, r in res.reports.items() if r.is_twist]
        ck.require(res.largest_passing_eps == max(passing),
                   f"largest passing eps {res.largest_passing_eps}, reports say {max(passing)}")
        ck.require(all(r.is_twist is (r.margin > 1e-9) for r in res.reports.values()),
                   "twist verdict disagrees with its margin")

    ops.append(Op("twist-stability:x^2+eps*cos", run_stability, check_stability))
    return ops


def _certify_extension(orbits, W, probe):
    """Transport mu -> mu* on the given orbits, then certify the plan."""
    from ergotrans import dynamics, transport as tr

    mu, mu_star, _ = tr.maximizing_extension_measure(dynamics.MINUS_DOUBLING, orbits)
    cost = tr.CostSpec(w=W)
    plan = tr.solve_kantorovich(mu, mu_star, cost)
    S = sorted(plan.support_pairs(), key=lambda p: p[0])
    n = len(S)
    out = {"mu": mu, "mu_star": mu_star, "plan": plan, "S": S,
           "graph": tr.graph_check(plan),
           "cyclical": tr.cyclical_monotonicity_check(
               S, cost, n_max=4 if n <= 8 else (3 if n <= 16 else 2))}
    zs = [Fraction(2 * i + 1, 2 * N_Z) for i in range(N_Z)]
    out["rochet"] = [tr.rochet_potential(S, cost, 0, z, tr.RochetMode.TWIST_ORDERED) for z in zs]
    if n <= BRUTE_MAX_ATOMS:
        out["rochet_brute"] = [tr.rochet_potential(S, cost, 0, z, tr.RochetMode.BRUTE_FORCE,
                                                   chain_cap=n) for z in zs]
    # (f, g) with f the Rochet potential and g its cost transform is an
    # optimal pair; duality_certificate takes (V, V*) = (-f, -g).
    xs = sorted(set(probe) | {x for x, _ in S})
    ys = sorted(set(probe) | {y for _, y in S})
    f = {float(x): tr.rochet_potential(S, cost, 0, x, tr.RochetMode.TWIST_ORDERED) for x in xs}
    V_vals = np.asarray([-f[float(x)] for x in xs])
    V_star_vals = tr.conjugate_transform(V_vals, W, [float(x) for x in xs],
                                         [float(y) for y in ys], variant="kernel_max")
    V_star = dict(zip((float(y) for y in ys), V_star_vals))
    out.update(xs=xs, ys=ys, V_vals=V_vals, V_star_vals=V_star_vals)
    out["duality"] = tr.duality_certificate(
        lambda x: -f[float(x)], lambda y: V_star[float(y)], cost, plan, xs, ys, mu, mu_star)
    return out


def _check_extension(out, kname: str, period: int) -> None:
    mu, mu_star, plan, S = out["mu"], out["mu_star"], out["plan"], out["S"]
    ck.check_periodic(mu.points, period)
    ck.check_periodic(mu_star.points, period)
    ck.require(len(mu.points) == len(mu_star.points), "marginals differ in size")
    ref = ck.check_plan(plan, mu.points, mu_star.points, kname)
    ck.check_graph(out["graph"], ref, kname, square=True)
    ck.check_cyclical(out["cyclical"])
    # the Rochet potential vanishes at the base atom and satisfies the chain
    # inequality f(z) <= f(x_i) + c(z, y_i) - c(x_i, y_i) at every atom
    W = ck.KERNELS[kname]
    z = np.asarray([float(x) for x in out["xs"]])
    f = -out["V_vals"]
    f_at = dict(zip(out["xs"], f))
    ck.require(abs(f_at[S[0][0]]) <= 1e-12, "Rochet potential is not 0 at the base atom")
    sx = np.asarray([float(x) for x, _ in S])
    sy = np.asarray([float(y) for _, y in S])
    fx = np.asarray([f_at[x] for x, _ in S])
    slack = (fx + W(sx, sy))[None, :] - W(z[:, None], sy[None, :]) - f[:, None]
    ck.require(float(np.min(slack)) >= -1e-9,
               f"Rochet chain inequality fails by {-float(np.min(slack)):.3e}")
    if "rochet_brute" in out:
        diff = max(abs(a - b) for a, b in zip(out["rochet"], out["rochet_brute"]))
        ck.require(diff <= 1e-9, f"brute-force and twist-ordered Rochet differ by {diff:.3e}")
    ck.check_conjugate(out["V_star_vals"], out["V_vals"], [float(x) for x in out["xs"]],
                       [float(y) for y in out["ys"]], kname)
    _, value = ck.exact_plan(mu.points, mu_star.points, kname)
    ck.check_duality(out["duality"], value)
