"""Each output check rejects a perturbed output and accepts the exact one.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a checkout; the tier-1 suite does not collect this file.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as ck  # noqa: E402
from ergotrans import involution as inv, transport as tr  # noqa: E402

third, two = Fraction(1, 3), Fraction(2, 3)


def _v_grid(name, n=4096):
    c = (np.arange(n) + 0.5) / n
    v = ck.v_ref(name, c)
    return np.column_stack([c, v - v.max()])


@pytest.mark.parametrize("name", ck.PRESETS)
def test_subaction_check(name):
    header = {"m": ck.M_REF[name], "calibrated": True}
    grid = _v_grid(name)
    ck.check_subaction(name, header, grid)
    with pytest.raises(ck.CheckFailed, match="m ="):
        ck.check_subaction(name, dict(header, m=ck.M_REF[name] + 1e-6), grid)
    with pytest.raises(ck.CheckFailed, match="calibrated"):
        ck.check_subaction(name, dict(header, calibrated=False), grid)
    bad = grid.copy()
    bad[len(bad) // 3, 1] -= 2 * ck.V_K.get(name, ck.V_K_DEFAULT) / len(bad)
    with pytest.raises(ck.CheckFailed, match="K h"):
        ck.check_subaction(name, header, bad)


def test_critical_values_are_the_closed_forms():
    assert ck.M_REF["gauss-golden"] == pytest.approx(2 * np.log((np.sqrt(5) - 1) / 2))
    assert ck.M_REF["quad-period2"] == -1 / 36


@pytest.mark.parametrize("name", ck.PRESETS)
def test_kernel_check(name):
    xs = (np.arange(8) + 0.5) / 8
    x, y = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
    grid = np.column_stack([x, y, ck.kernel_ref(name, x, y) + 0.25])
    ck.check_kernel(name, grid)  # a constant shift is still the kernel
    grid[5, 2] += 1e-9
    with pytest.raises(ck.CheckFailed, match="non-constant"):
        ck.check_kernel(name, grid)


def test_kernel_reference_matches_gauss_log():
    assert ck.kernel_ref("gauss-golden", 0.5, 0.5) == pytest.approx(-2 * np.log(1.25))
    assert ck.kernel_ref("quad-period2", third, third) == pytest.approx(-4 / 27)


@pytest.mark.parametrize("name", ck.PRESETS)
def test_dual_check(name):
    lo = 0.04 if name == "gauss-golden" else 0.001
    ys = np.linspace(lo, 0.999, 16)
    grid = np.column_stack([ys, ck.potential_ref(name, ys)])
    ck.check_dual(name, {"involutive": True}, grid)
    with pytest.raises(ck.CheckFailed, match="involutive"):
        ck.check_dual(name, {"involutive": False}, grid)
    grid[3, 1] += 1e-7
    with pytest.raises(ck.CheckFailed, match=r"\|A\* - A\|"):
        ck.check_dual(name, {"involutive": True}, grid)


@pytest.mark.parametrize("name", ck.PRESETS)
def test_twist_check(name):
    k = ck.TWIST_MIXED[name]
    rep = {"mixed_partial_max": k, "is_twist": k < 0}
    ck.check_twist(name, rep)
    with pytest.raises(ck.CheckFailed, match="is_twist"):
        ck.check_twist(name, dict(rep, is_twist=not rep["is_twist"]))
    with pytest.raises(ck.CheckFailed, match="mixed partial"):
        ck.check_twist(name, dict(rep, mixed_partial_max=k + 0.01))


def _transport_doc(value, atoms):
    return {"value": value, "atoms": [{"x": x, "y": y, "w": w} for x, y, w in atoms],
            "certificates": {"cyclical": {"passes": True}, "graph": {"is_graph": True},
                             "duality": {"admissible": True, "slackness_ok": True,
                                         "duality_gap": 0.0}}}


def test_transport_check():
    ck.check_transport("quad-period2",
                       _transport_doc(0.0, [(1 / 3, 1 / 3, .5), (2 / 3, 2 / 3, .5)]))
    ck.check_transport("quad-convex",
                       _transport_doc(-7 / 18, [(1 / 3, 2 / 3, .5), (2 / 3, 1 / 3, .5)]))
    # the gauss-golden plan value the program reports
    with pytest.raises(ck.CheckFailed, match="plan value"):
        ck.check_transport("gauss-golden", _transport_doc(2798.7788730879233,
                                                          [(ck.GOLDEN, ck.GOLDEN, 1.0)]))
    with pytest.raises(ck.CheckFailed, match="anti-monotone"):
        ck.check_transport("quad-convex", _transport_doc(-7 / 18, [(1 / 3, 1 / 3, .5),
                                                                   (2 / 3, 2 / 3, .5)]))
    with pytest.raises(ck.CheckFailed, match="x-support"):
        ck.check_transport("quad-dirac", _transport_doc(0.0, [(1 / 3, 2 / 3, 1.0)]))
    doc = _transport_doc(0.0, [(2 / 3, 2 / 3, 1.0)])
    doc["certificates"]["duality"]["admissible"] = False
    with pytest.raises(ck.CheckFailed, match="duality"):
        ck.check_transport("quad-dirac", doc)


def test_exact_references():
    assert ck.transport_value_ref("quad-convex") == pytest.approx(-7 / 18, abs=0)
    assert ck.swapped_slack_ref() == Fraction(4, 27)
    plan, value = ck.exact_plan([third, two], [third, two], "ex6")
    assert plan == {(third, two): Fraction(1, 2), (two, third): Fraction(1, 2)}
    assert value == Fraction(-7, 18)


def _program_plan(xs, ys, kernel):
    W = {"W1": inv.quadratic_kernel(0, 1, 0), "W2": inv.quadratic_kernel(0, 0, 1),
         "ex5": inv.example5_kernel(), "ex6": inv.example6_kernel()}[kernel]
    cost = tr.CostSpec(w=W)
    mu, nu = tr.AtomicMeasure.uniform(xs), tr.AtomicMeasure.uniform(ys)
    return tr.solve_kantorovich(mu, nu, cost), cost


XS = [Fraction(1, 15), Fraction(2, 15), Fraction(4, 15), Fraction(8, 15)]
YS = [Fraction(7, 15), Fraction(11, 15), Fraction(13, 15), Fraction(14, 15)]


@pytest.mark.parametrize("kernel", ["W2", "ex5", "ex6"])
def test_plan_check(kernel):
    plan, _ = _program_plan(XS, YS, kernel)
    ref = ck.check_plan(plan, XS, YS, kernel)
    with pytest.raises(ck.CheckFailed, match="plan value"):
        ck.check_plan(SimpleNamespace(**{**vars(plan), "value": plan.value + 1e-7}),
                      XS, YS, kernel)
    flipped = tr.TransportPlan(plan.coupling[:, ::-1], plan.value, plan.row_points,
                               plan.col_points, plan.method)
    with pytest.raises(ck.CheckFailed, match="support"):
        ck.check_plan(flipped, XS, YS, kernel)
    graph = tr.graph_check(plan)
    ck.check_graph(graph, ref, kernel, square=True)
    with pytest.raises(ck.CheckFailed):
        ck.check_graph(SimpleNamespace(is_graph=True, bad_clusters=(),
                                       monotone_nonincreasing=not graph.monotone_nonincreasing),
                       ref, kernel, square=True)


def test_plan_check_rejects_wrong_marginal():
    plan, _ = _program_plan(XS, YS, "W1")
    ck.check_plan(plan, XS, YS, "W1")
    P = plan.coupling.copy()
    P[0, 0] += 0.1
    P[0, 1] -= 0.1
    P[1, 1] += 0.1
    P[1, 0] -= 0.1
    ck.check_plan(tr.TransportPlan(P, plan.value, plan.row_points, plan.col_points, "x"),
                  XS, YS, "W1")  # flat cost: any coupling is optimal
    P[0, 0] += 0.1
    with pytest.raises(ck.CheckFailed, match="marginal"):
        ck.check_plan(tr.TransportPlan(P, plan.value, plan.row_points, plan.col_points, "x"),
                      XS, YS, "W1")


def test_split_plan_graph_check():
    xs, ys = XS[:3], YS
    plan, cost = _program_plan(xs, ys, "W2")
    ref = ck.check_plan(plan, xs, ys, "W2")
    ck.check_graph(tr.graph_check(plan), ref, "W2", square=False)
    with pytest.raises(ck.CheckFailed, match="graph"):
        ck.check_graph(SimpleNamespace(is_graph=True, bad_clusters=()), ref, "W2", square=False)
    with pytest.raises(ck.CheckFailed, match="split fibers"):
        ck.check_graph(SimpleNamespace(is_graph=False, bad_clusters=((0.5, (0.1, 0.2)),)),
                       ref, "W2", square=False)


def test_cyclical_checks():
    pair = [(third, two), (two, third)]
    rep = tr.cyclical_monotonicity_check(pair, tr.CostSpec(w=inv.example5_kernel()), n_max=5)
    ck.check_swapped(rep)
    with pytest.raises(ck.CheckFailed, match="swapped slack"):
        ck.check_swapped(SimpleNamespace(passes=False, worst_slack=4 / 27 + 1e-9))
    with pytest.raises(ck.CheckFailed, match="passes"):
        ck.check_swapped(SimpleNamespace(passes=True, worst_slack=4 / 27))
    ck.check_cyclical(SimpleNamespace(passes=True, worst_slack=-0.1))
    with pytest.raises(ck.CheckFailed, match="cyclical"):
        ck.check_cyclical(SimpleNamespace(passes=False, worst_slack=4 / 27))


def test_conjugate_check():
    xs = np.linspace(0.05, 0.95, 7)
    ys = np.linspace(0.1, 0.9, 5)
    f = np.sin(xs)
    fsharp = np.max(-f[:, None] + ck.w2(xs[:, None], ys[None, :]), axis=0)
    ck.check_conjugate(fsharp, f, xs, ys, "W2")
    with pytest.raises(ck.CheckFailed, match="below"):
        ck.check_conjugate(fsharp - 1e-9, f, xs, ys, "W2")
    with pytest.raises(ck.CheckFailed, match="attained"):
        ck.check_conjugate(fsharp + 1e-9, f, xs, ys, "W2")


def test_duality_check():
    ok = SimpleNamespace(admissible=True, slackness_ok=True, duality_gap=0.0,
                         dual_value=-0.5, worst_violation=0.0, worst_atom_residual=0.0)
    ck.check_duality(ok, Fraction(-1, 2))
    with pytest.raises(ck.CheckFailed, match="dual value"):
        ck.check_duality(ok, Fraction(-1, 3))
    with pytest.raises(ck.CheckFailed, match="duality certificate"):
        ck.check_duality(SimpleNamespace(**{**vars(ok), "admissible": False}), Fraction(-1, 2))


def test_periodic_check():
    ck.check_periodic([Fraction(1, 15), Fraction(13, 15)], 4)
    with pytest.raises(ck.CheckFailed, match="periodic"):
        ck.check_periodic([Fraction(1, 16)], 4)
    with pytest.raises(ck.CheckFailed, match="exact"):
        ck.check_periodic([1 / 15], 4)


def test_twist_margin_reference():
    # W2 on linspace(0, 1, 3): smallest rectangle gap (4/3) (1/2)^2
    assert ck.twist_margin_ref(-4 / 3, "pairwise_grid", 3) == pytest.approx(1 / 3)
    rep = inv.twist_check(inv.example5_kernel(), inv.TwistMethod.DELTA_MONOTONE, n_grid=9)
    assert rep.margin == pytest.approx(ck.twist_margin_ref(4 / 3, "delta_monotone", 9))


def _sub(name, n, shift=0.0):
    c = (np.arange(n) + 0.5) / n
    v = ck.v_ref(name, c) + shift * (c > 0.5)
    return SimpleNamespace(calibrated=True, m=ck.M_REF[name],
                           V=SimpleNamespace(centers=c, values=v - v.max()))


def test_ladder_check():
    ladder = (64, 128)
    ck.check_ladder("quad-dirac", ck.M_REF["quad-dirac"], ladder,
                    [_sub("quad-dirac", 64, 1 / 128), _sub("quad-dirac", 128, 1 / 512)])
    with pytest.raises(ck.CheckFailed, match="does not fall"):
        ck.check_ladder("quad-dirac", ck.M_REF["quad-dirac"], ladder,
                        [_sub("quad-dirac", 64, 1 / 512), _sub("quad-dirac", 128, 1 / 256)])
    with pytest.raises(ck.CheckFailed, match="K h"):
        ck.check_ladder("quad-dirac", ck.M_REF["quad-dirac"], ladder[:1],
                        [_sub("quad-dirac", 64, 1 / 32)])
    with pytest.raises(ck.CheckFailed, match="passed in"):
        bad = _sub("quad-dirac", 64)
        bad.m += 1e-3
        ck.check_ladder("quad-dirac", ck.M_REF["quad-dirac"], ladder[:1], [bad])


def _thermo_out(name, m, nu, m_errs=(1e-3, 1e-6), v_errs=(1e-2, 1e-4), g_errs=(1e-2, 1e-5)):
    n = len(nu)
    c = (np.arange(n) + 0.5) / n
    out = {}
    for beta, me, ve, ge in zip((8.0, 64.0), m_errs, v_errs, g_errs):
        v = ck.v_ref(name, c) + ve * (c > 0.5)
        out[beta] = (SimpleNamespace(log_eigenvalue=beta * (m + me)),
                     SimpleNamespace(centers=c, values=v - v.max()),
                     nu, ck.gamma_ref(name) + ge)
    return out


def test_thermo_check():
    name, n = "quad-dirac", 256
    m, nu = ck.M_REF[name], np.full(n, 1.0 / n)
    ck.check_thermo(name, m, 1 << 20, _thermo_out(name, m, nu))
    bad = nu.copy()
    bad[0], bad[1] = -1e-3, bad[1] + 1e-3
    with pytest.raises(ck.CheckFailed, match="negative"):
        ck.check_thermo(name, m, 1 << 20, _thermo_out(name, m, bad))
    with pytest.raises(ck.CheckFailed, match="sums to"):
        ck.check_thermo(name, m, 1 << 20, _thermo_out(name, m, nu * 1.001))
    with pytest.raises(ck.CheckFailed, match="log lambda"):
        ck.check_thermo(name, m, 1 << 20, _thermo_out(name, m, nu, m_errs=(1e-6, 1e-3)))
    with pytest.raises(ck.CheckFailed, match=r"V_b - V"):
        ck.check_thermo(name, m, 1 << 20, _thermo_out(name, m, nu, v_errs=(1e-4, 1e-2)))
    with pytest.raises(ck.CheckFailed, match="gamma"):
        ck.check_thermo(name, m, 1 << 20, _thermo_out(name, m, nu, g_errs=(1e-5, 1e-2)))


def test_speed_sampler_takes_its_time_out():
    import time

    import speed

    with speed.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.SAMPLE_PERIOD_S:
            pass
    assert len(sampler.samples) >= 4  # entry, exit and the timer ticks
    assert sampler.spent >= sum(sampler.samples)
    assert sampler.slowdown() == pytest.approx(np.mean(sampler.samples) / speed.REF_NOMINAL_S)


def test_tracer_reaches_names_imported_by_value():
    from ergotrans import accept, cli, ergopt
    from spans import Tracer

    orig = ergopt.deviation_I
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.deviation_I is accept.deviation_I is ergopt.deviation_I is not orig
        pre_x = Fraction(2, 3)
        from ergotrans.presets import get_preset

        pre = get_preset("quad-dirac")
        tracer.span("outer", cli.deviation_I, pre.system, pre.potential, pre.closed_V,
                    pre.m_exact, pre_x, n_terms=5, early_exit=False)
        inv.quadratic_kernel(0, 0, 1)(0.5, 0.5)
    finally:
        tracer.uninstall()
    assert ergopt.deviation_I is orig and cli.deviation_I is orig
    assert tracer.calls["ergopt.deviation_I"] == 1 and tracer.calls["outer"] == 1
    assert tracer.counts["ergopt.deviation_I.terms"] == 5
    assert tracer.counts["involution.kernel_evals"] == 1
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert tracer.self_s["outer"] + tracer.self_s["ergopt.deviation_I"] == pytest.approx(total)
