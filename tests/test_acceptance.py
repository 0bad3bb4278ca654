"""Verification suite: every criterion runs at its pinned tolerance.

Each test prints its pass/fail line so `pytest -s tests/test_acceptance.py`
doubles as the human-readable report (the `ergotrans verify` command emits
the same lines).
"""

import contextlib
import io

import pytest

from ergotrans import accept, cli
from ergotrans import transport as tr
from ergotrans.accept import CRITERIA

# Each criterion's detail line, exactly as `ergotrans verify` prints it.
DETAILS = {
    "1 critical values":
        "max |m - exact| = 0.00e+00 over quad-dirac, quad-period2, gauss-golden",
    "2 calibrated subactions":
        "quad-dirac: sup-err 1.06e-07; quad-period2: sup-err 5.30e-08",
    "3 cohomology residual": "max residual 8.88e-16 over 5 involutive pairs",
    "4 cocycle vs closed form":
        "max |Delta - (W2(x,y)-W2(x',y))| = 4.55e-15 < bound 1.42e-14",
    "5 twist verdicts":
        "W2 twist(-1.333333), W1 flat(+6.9e-10), example5 not(+1.333333), "
        "example6 twist(-1.333333)",
    "6 transport plan":
        "identity pairing via permutation_enumeration; sum W = -0.629629629630 (-17/27) "
        "vs swap -0.777777777778 (-21/27)",
    "7 duality":
        "quad-dirac: viol +1.67e-16, atom 0.00e+00, gap +0.00e+00; "
        "quad-period2: viol +1.11e-16, atom 0.00e+00, gap +0.00e+00",
    "8 b-function":
        "quad-dirac: grid min -1.67e-16, atom max |b| 0.00e+00; "
        "quad-period2: grid min -1.11e-16, atom max |b| 0.00e+00",
    "9 cyclical monotonicity":
        "optimal supports pass; swapped support fails with slack 0.148148148148 "
        "(|err| 0.0e+00)",
    "10 rochet potential": "max |brute - twist-ordered| = 0.00e+00 over 50 z-points",
    "11 graph property":
        "twist plans are nonincreasing graphs; constructed double fiber flagged at "
        "x=0.333333",
    "12 finite beta":
        "sup|V_b - V|: 0.0328 (b=8) -> 0.000040 (b=64), ratio 0.0012; "
        "|(1/b)log lam - m|: 1.69e-03 -> 3.73e-09",
}


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(label, check):
    result = check()
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == DETAILS[label]


def test_transport_runs_share_one_wiring(monkeypatch, tmp_path):
    # gauss-golden is left out: its instance enumerates 30^4 itineraries
    names = ("quad-dirac", "quad-period2", "quad-convex", "linear")
    real = accept.transport_instance
    for name in names:
        real(name)
    calls = []

    def counted(name):
        calls.append(name)
        return real(name)

    def no_solve(*args, **kwargs):
        raise AssertionError("a plan was solved outside transport_instance")

    monkeypatch.setattr(accept, "transport_instance", counted)
    monkeypatch.setattr(cli, "transport_instance", counted)
    monkeypatch.setattr(tr, "solve_kantorovich", no_solve)
    table = dict(CRITERIA)
    for label in ("7 duality", "8 b-function", "9 cyclical monotonicity"):
        assert table[label]().passed
    assert calls == ["quad-dirac", "quad-period2"] * 2 + ["quad-dirac", "quad-period2",
                                                         "quad-convex"]
    calls.clear()
    for name in names:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["transport", "--preset", name, "--out", str(tmp_path)]) == 0
    assert calls == list(names)


def test_transport_plan_reuses_the_instance_measures(monkeypatch):
    accept.transport_instance("quad-period2")

    def no_critical_value(*args, **kwargs):
        raise AssertionError("check 6 computed its own critical value")

    monkeypatch.setattr(accept, "critical_value", no_critical_value)
    result = dict(CRITERIA)["6 transport plan"]()
    assert result.passed and result.detail == DETAILS["6 transport plan"]
