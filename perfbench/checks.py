"""Reference values and output checks, computed apart from `ergotrans`.

Every closed form here is written out again from the mathematics rather
than taken from the program: critical values, calibrated subactions,
involution kernels, twist constants, and exact optimal transport plans
in `Fraction` arithmetic.  A check raises `CheckFailed` with a reason
when an output disagrees with its reference or lacks a property the
method must have.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

PRESETS = ("quad-dirac", "quad-period2", "quad-convex", "gauss-golden", "linear")

# A(x) = a + b x + c x^2 for the quadratic presets, under x -> -2x mod 1.
POLY = {
    "quad-dirac": (Fraction(-1), Fraction(2), Fraction(-1)),
    "quad-period2": (Fraction(-1, 4), Fraction(1), Fraction(-1)),
    "quad-convex": (Fraction(1, 4), Fraction(-1), Fraction(1)),
    "linear": (Fraction(0), Fraction(1), Fraction(0)),
}

M_REF = {
    "quad-dirac": -1.0 / 9.0,
    "quad-period2": -1.0 / 36.0,
    "quad-convex": 0.25,
    "gauss-golden": 2.0 * math.log(GOLDEN),
    "linear": 2.0 / 3.0,
}

# x-atoms of the maximizing measure (0 and 1 are the same point of the circle).
SUPPORT = {
    "quad-dirac": (2.0 / 3.0,),
    "quad-period2": (1.0 / 3.0, 2.0 / 3.0),
    "quad-convex": (0.0, 1.0),
    "gauss-golden": (GOLDEN,),
    "linear": (2.0 / 3.0,),
}

# First-order grid bound sup|V_h - V| <= K h.  quad-convex has a kink at
# x = 1/2 whose discretization error grows like h log(1/h); K = 5 covers
# every grid up to 2^18.
V_K = {"quad-convex": 5.0}
V_K_DEFAULT = 1.0


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- kernels

def w1(x, y):
    return -(x + y) / 3


def w2(x, y):
    return (x * x + y * y) / 3 - 4 * x * y / 3


def ex5(x, y):
    return -(x * x) / 3 - (y * y) / 3 + 4 * x * y / 3 - 2 * x / 3 - y / 3


def ex6(x, y):
    return (x * x) / 3 + (y * y) / 3 - 4 * x * y / 3 + 2 * x / 3 + y / 3


# Named kernels of the certify workload and their constant mixed partial
# d^2 W / dx dy.
KERNELS = {"W1": w1, "W2": w2, "ex5": ex5, "ex6": ex6}
MIXED = {"W1": 0.0, "W2": -4.0 / 3.0, "ex5": 4.0 / 3.0, "ex6": -4.0 / 3.0}


def potential_ref(name: str, x):
    if name == "gauss-golden":
        return 2.0 * np.log(x)
    a, b, c = (float(v) for v in POLY[name])
    return a + b * x + c * x * x


def kernel_ref(name: str, x, y):
    """The preset's involution kernel: b W1 + c W2, or -2 log(1 + x y)."""
    if name == "gauss-golden":
        return -2.0 * np.log(1.0 + x * y)
    _, b, c = (float(v) for v in POLY[name])
    return b * w1(x, y) + c * w2(x, y)


def v_ref(name: str, x):
    """Calibrated subaction in closed form, up to an additive constant."""
    x = np.asarray(x, dtype=float)
    if name == "quad-dirac":
        return -x * x / 3 + 2 * x / 9
    if name == "quad-period2":
        return np.maximum(-x * x / 3 + x / 9, -x * x / 3 + 5 * x / 9 - 2.0 / 9.0)
    if name == "quad-convex":
        return np.maximum(x * x / 3 - x, x * x / 3 + x / 3 - 2.0 / 3.0)
    if name == "linear":
        return 2.0 / 9.0 - x / 3
    return -2.0 * np.log(1.0 + x * GOLDEN)


def v_grid_error(name: str, centers, values) -> float:
    """sup |V_h - V| on the grid, both normalized to max 0."""
    ref = v_ref(name, centers)
    return float(np.max(np.abs((values - np.max(values)) - (ref - np.max(ref)))))


def gamma_ref(name: str) -> float:
    """Zero-temperature limit of (1/beta) log c_beta: max W over support pairs."""
    pts = SUPPORT[name]
    return max(float(kernel_ref(name, x, y)) for x in pts for y in pts)


# sup over the unit square of the mixed partial of the kernel `ergotrans
# twist` checks (the published variant where the preset has one).
TWIST_MIXED = {
    "quad-dirac": 4.0 / 3.0,     # 2 W1 - W2
    "quad-period2": 4.0 / 3.0,   # example 5
    "quad-convex": -4.0 / 3.0,   # example 6
    "gauss-golden": -0.5,        # sup -2/(1+xy)^2, at x = y = 1
    "linear": 0.0,               # W1
}


def twist_margin_ref(k: float, method: str, n: int) -> float:
    """Exact twist margin of a kernel with constant mixed partial k on
    linspace(0, 1, n): the smallest rectangle gap -k (a'-a)(b'-b)."""
    d = 1.0 / (n - 1)
    if k < 0:
        return -k * d * d
    if method == "pairwise_grid":
        return -k
    return -k * d


# ------------------------------------------------------------- grid-scale

def check_ladder(name: str, m: float, ladder, results) -> None:
    """Calibrated subactions on a grid ladder: within K h, error falling in n."""
    errs = []
    for n, res in zip(ladder, results):
        require(res.calibrated, f"n = {n}: not calibrated")
        require(res.m == m, f"n = {n}: m {res.m!r} is not the m passed in")
        err = v_grid_error(name, res.V.centers, res.V.values)
        bound = V_K.get(name, V_K_DEFAULT) / n
        require(err <= bound, f"n = {n}: sup error {err:.3e} above K h {bound:.3e}")
        errs.append(err)
    require(all(b < a for a, b in zip(errs, errs[1:])),
            f"sup error does not fall as n doubles: {errs}")


def check_thermo(name: str, m: float, n_grid: int, out: dict) -> None:
    """out[beta] = (eigenpair, v_beta, eigen_measure, gamma_estimate) at two betas."""
    m_err, v_err, g_err = {}, {}, {}
    for beta, (pair, vb, nu, gamma) in out.items():
        require(np.all(nu >= 0), f"beta {beta}: eigen_measure has negative mass")
        require(abs(float(np.sum(nu)) - 1.0) <= 1e-12,
                f"beta {beta}: eigen_measure sums to {np.sum(nu)!r}")
        m_err[beta] = abs(pair.log_eigenvalue / beta - m)
        v_err[beta] = v_grid_error(name, vb.centers, vb.values)
        g_err[beta] = abs(gamma - gamma_ref(name))
    lo, hi = sorted(out)
    require(m_err[hi] < m_err[lo], f"|(1/b) log lambda - m| does not fall: {m_err}")
    # For A = x the eigenfunction is exactly e^(beta V), so V_b = V at every
    # beta and both errors sit at grid level instead of falling.
    grid_bound = V_K.get(name, V_K_DEFAULT) / n_grid
    require(v_err[hi] < v_err[lo] or v_err[hi] <= grid_bound,
            f"sup|V_b - V| does not fall: {v_err}")
    require(g_err[hi] < g_err[lo], f"|gamma_b - gamma| does not fall: {g_err}")


# ------------------------------------------------------------ CLI outputs

def read_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.asarray(rows[1:], dtype=float)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_subaction(name: str, header: dict, grid: np.ndarray) -> None:
    require(abs(header["m"] - M_REF[name]) <= 1e-9,
            f"m = {header['m']!r}, exact {M_REF[name]!r}")
    require(header["calibrated"] is True, "subaction not calibrated")
    n = len(grid)
    err = v_grid_error(name, grid[:, 0], grid[:, 1])
    bound = V_K.get(name, V_K_DEFAULT) / n
    require(err <= bound, f"sup|V_h - V| = {err:.3e} above K h = {bound:.3e}")


def check_kernel(name: str, grid: np.ndarray) -> None:
    x, y, w = grid[:, 0], grid[:, 1], grid[:, 2]
    require(len(grid) >= 4, "kernel grid is empty")
    d = w - kernel_ref(name, x, y)
    require(float(np.max(d) - np.min(d)) <= 1e-11,
            f"kernel differs from the closed form by a non-constant {np.ptp(d):.3e}")


def check_dual(name: str, header: dict, grid: np.ndarray) -> None:
    err = float(np.max(np.abs(grid[:, 1] - potential_ref(name, grid[:, 0]))))
    require(err <= 1e-9, f"|A* - A| = {err:.3e}")
    require(header["involutive"] is True, "dual potential not reported involutive")


def check_twist(name: str, rep: dict) -> None:
    k = TWIST_MIXED[name]
    tol = 1e-3 if name == "gauss-golden" else 1e-6
    require(abs(rep["mixed_partial_max"] - k) <= tol,
            f"sup mixed partial {rep['mixed_partial_max']!r}, exact {k!r}")
    require(rep["is_twist"] is (k < 0), f"is_twist {rep['is_twist']} for mixed partial {k}")


def transport_value_ref(name: str) -> float:
    """0 for the deviation-cost presets; the exact twist optimum for quad-convex."""
    if name != "quad-convex":
        return 0.0
    third, two = Fraction(1, 3), Fraction(2, 3)
    ident = (ex6(third, third) + ex6(two, two)) / 2
    swap = (ex6(third, two) + ex6(two, third)) / 2
    return float(-max(ident, swap))  # -7/18


def check_transport(name: str, doc: dict) -> None:
    want = transport_value_ref(name)
    require(abs(doc["value"] - want) <= 1e-9, f"plan value {doc['value']!r}, exact {want!r}")
    atoms = doc["atoms"]
    require(abs(sum(a["w"] for a in atoms) - 1.0) <= 1e-9, "plan mass is not 1")
    if name == "quad-convex":
        pairs = sorted((round(a["x"], 9), round(a["y"], 9)) for a in atoms)
        want_pairs = [(round(1 / 3, 9), round(2 / 3, 9)), (round(2 / 3, 9), round(1 / 3, 9))]
        require(pairs == want_pairs, f"support {pairs}, want the anti-monotone pairing")
    else:
        xs = sorted({round(a["x"], 9) for a in atoms})
        ys = sorted({round(a["y"], 9) for a in atoms})
        want_x = sorted({round(p, 9) for p in SUPPORT[name]})
        require(xs == want_x, f"x-support {xs}, maximizing support {want_x}")
        require(ys == want_x, f"y-support {ys}, dual support {want_x}")
    cert = doc["certificates"]
    require(cert["cyclical"]["passes"] is True, "plan support is not c-cyclically monotone")
    require(cert["graph"]["is_graph"] is True, "plan is not supported on a graph")
    if "duality" in cert:
        d = cert["duality"]
        require(d["admissible"] and d["slackness_ok"] and abs(d["duality_gap"]) <= 1e-8,
                f"duality certificate fails: {d}")


# -------------------------------------------------------------- transport

def exact_plan(xs, ys, kernel: str):
    """Exact optimum of uniform(xs) -> uniform(ys) under c = -W, in Fractions.

    For a kernel with constant mixed partial k the optimal plan is the
    north-west-corner coupling of sorted points: x ascending with y
    descending when k < 0 (twist), y ascending when k > 0.  When k = 0
    every coupling is optimal.  Returns ({(x, y): weight}, value).
    """
    W = KERNELS[kernel]
    xs = sorted(xs)
    ys = sorted(ys, reverse=MIXED[kernel] < 0)
    wr = [Fraction(1, len(xs))] * len(xs)
    wc = [Fraction(1, len(ys))] * len(ys)
    plan: dict = {}
    i = j = 0
    while i < len(xs) and j < len(ys):
        m = min(wr[i], wc[j])
        plan[(xs[i], ys[j])] = plan.get((xs[i], ys[j]), 0) + m
        wr[i] -= m
        wc[j] -= m
        if wr[i] == 0:
            i += 1
        if wc[j] == 0:
            j += 1
    value = sum(-W(x, y) * w for (x, y), w in plan.items())
    return plan, value


def check_plan(plan, xs, ys, kernel: str) -> dict:
    """Value, marginals and (for a strict twist) support against the exact plan."""
    ref, value = exact_plan(xs, ys, kernel)
    require(abs(plan.value - float(value)) <= 1e-9,
            f"plan value {plan.value!r}, exact {float(value)!r}")
    P = np.asarray(plan.coupling, dtype=float)
    require(np.max(np.abs(P.sum(axis=1) - 1.0 / len(xs))) <= 1e-9, "row marginal is wrong")
    require(np.max(np.abs(P.sum(axis=0) - 1.0 / len(ys))) <= 1e-9, "column marginal is wrong")
    if MIXED[kernel] != 0:
        got = {(x, y): w for x, y, w in plan.support(1e-9)}
        require(set(got) == set(ref), "plan support differs from the monotone rearrangement")
        require(all(abs(got[k] - float(ref[k])) <= 1e-9 for k in ref),
                "plan weights differ from the monotone rearrangement")
    return ref


def check_graph(rep, ref: dict, kernel: str, square: bool) -> None:
    if square:
        require(rep.is_graph and not rep.bad_clusters, "square optimal plan is not a graph")
        if MIXED[kernel] < 0:
            require(rep.monotone_nonincreasing, "twist plan is not nonincreasing")
        elif MIXED[kernel] > 0:
            require(not rep.monotone_nonincreasing, "monotone plan reported nonincreasing")
        return
    require(not rep.is_graph, "split-mass plan reported as a graph")
    if MIXED[kernel] != 0:
        split = {}
        for x, _ in ref:
            split[x] = split.get(x, 0) + 1
        want = sorted(round(float(x), 9) for x, c in split.items() if c > 1)
        got = sorted(round(x, 9) for x, _ in rep.bad_clusters)
        require(got == want, f"split fibers {got}, exact {want}")


def check_cyclical(rep) -> None:
    require(rep.passes and rep.worst_slack <= 1e-10,
            f"optimal support fails cyclical monotonicity, slack {rep.worst_slack!r}")


def swapped_slack_ref() -> Fraction:
    """Slack of the swapped pairing {(1/3, 2/3), (2/3, 1/3)} under c = -example5."""
    a, b = Fraction(1, 3), Fraction(2, 3)
    return (-ex5(a, b) - ex5(b, a)) - (-ex5(a, a) - ex5(b, b))  # 4/27


def check_swapped(rep) -> None:
    want = float(swapped_slack_ref())
    require(not rep.passes, "swapped support passes cyclical monotonicity")
    require(abs(rep.worst_slack - want) <= 1e-12,
            f"swapped slack {rep.worst_slack!r}, exact {want!r}")


def check_conjugate(fsharp, f_vals, xs, ys, kernel: str) -> None:
    """f#(y) >= -f(x) + W(x, y) on the whole probe grid, with equality attained."""
    G = -np.asarray(f_vals)[:, None] + KERNELS[kernel](np.asarray(xs)[:, None],
                                                       np.asarray(ys)[None, :])
    gap = np.asarray(fsharp)[None, :] - G
    require(float(np.min(gap)) >= -1e-12, f"f# below -f + G by {-np.min(gap):.3e}")
    require(float(np.max(np.min(gap, axis=0))) <= 1e-12, "f# is not attained on the grid")


def check_duality(rep, exact_value: Fraction) -> None:
    require(rep.admissible and rep.slackness_ok and abs(rep.duality_gap) <= 1e-8,
            f"duality certificate fails: violation {rep.worst_violation!r}, "
            f"atom residual {rep.worst_atom_residual!r}, gap {rep.duality_gap!r}")
    require(abs(rep.dual_value - float(exact_value)) <= 1e-8,
            f"dual value {rep.dual_value!r}, exact optimum {float(exact_value)!r}")


def check_periodic(points, period: int) -> None:
    """Every point is fixed by T^period for T x = -2x mod 1, exactly."""
    for x in points:
        require(isinstance(x, Fraction), f"orbit point {x!r} is not exact")
        require(((-2) ** period * x - x).denominator == 1,
                f"{x} is not periodic with period {period}")
