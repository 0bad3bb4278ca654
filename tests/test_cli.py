"""Command-line interface: outputs, reproducibility, exit codes."""

import json

import numpy as np
import pytest

from ergotrans import cli
from ergotrans import transport as tr
from ergotrans.accept import CRITERIA, MAX_PERIOD, transport_instance
from ergotrans.cli import EXIT_OK, EXIT_USAGE, build_parser, main
from ergotrans.ergopt import calibrated_subaction
from ergotrans.involution import dual_potential
from ergotrans.presets import GOLDEN_MEAN, get_preset


def run(args):
    return main(args)


def test_subaction_quad_dirac(tmp_path, capsys):
    code = run(["subaction", "--preset", "quad-dirac", "--out", str(tmp_path),
                "--n-grid", "2048"])
    assert code == EXIT_OK
    header = json.loads((tmp_path / "quad-dirac-subaction.json").read_text())
    assert header["m"] == pytest.approx(-1 / 9, abs=1e-12)
    assert header["calibrated"] is True
    csv = (tmp_path / "quad-dirac-V.csv").read_text().splitlines()
    assert csv[0] == "cell_center,value" and len(csv) == 2049


def test_subaction_gauss_golden(tmp_path):
    code = run(["subaction", "--preset", "gauss-golden", "--out", str(tmp_path),
                "--n-grid", "1024"])
    assert code == EXIT_OK
    header = json.loads((tmp_path / "gauss-golden-subaction.json").read_text())
    assert header["m"] == -0.9624236501192067
    assert header["orbit"] == [GOLDEN_MEAN]


def test_twist_verdicts_via_cli(tmp_path):
    assert run(["twist", "--preset", "quad-convex", "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "quad-convex-twist.json").read_text())
    assert rep["is_twist"] is True
    assert run(["twist", "--preset", "quad-period2", "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "quad-period2-twist.json").read_text())
    assert rep["is_twist"] is False


def test_dual_command(tmp_path):
    code = run(["dual", "--preset", "quad-dirac", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "quad-dirac-dual.json").read_text())
    assert rep["involutive"] is True


def test_transport_command(tmp_path):
    code = run(["transport", "--preset", "quad-period2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    plan = json.loads((tmp_path / "quad-period2-transport.json").read_text())
    xs = sorted(a["x"] for a in plan["atoms"])
    assert xs == [pytest.approx(1 / 3), pytest.approx(2 / 3)]
    assert plan["certificates"]["graph"]["is_graph"] is True
    assert plan["certificates"]["duality"]["admissible"] is True
    assert plan["certificates"]["cyclical"]["passes"] is True


@pytest.mark.parametrize("preset", ["quad-dirac", "quad-period2", "linear"])
def test_transport_duality_certificate_checks_finite_rows(tmp_path, preset):
    # the preimages of the support atoms have finite I, and they bind
    assert run(["transport", "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK
    duality = json.loads((tmp_path / f"{preset}-transport.json").read_text())[
        "certificates"]["duality"]
    assert duality["admissible"] is True
    assert np.isfinite(duality["worst_violation"])
    assert duality["worst_violation"] <= tr.DUALITY_TOL


def test_gauss_transport_warns_nothing(tmp_path, capsys):
    # its probes reach x = 0, where A = 2 log x is -inf by design; the
    # suite turns any numpy warning into an error
    transport_instance.cache_clear()
    code = run(["transport", "--preset", "gauss-golden", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    # every probe row is +inf, so the duality certificate checked nothing
    duality = json.loads((tmp_path / "gauss-golden-transport.json").read_text())[
        "certificates"]["duality"]
    assert duality["admissible"] is False and duality["worst_violation"] == -np.inf


THIRD, TWO_THIRDS = 1 / 3, 2 / 3
NO_CYCLE = {"passes": True, "worst_slack": 0.0, "witness_subset": None,
            "witness_permutation": None}


@pytest.mark.parametrize("preset, cyclical", [
    ("quad-period2", {"passes": True, "worst_slack": -0.1481481481481482,
                      "witness_subset": [[THIRD, THIRD], [TWO_THIRDS, TWO_THIRDS]],
                      "witness_permutation": [1, 0]}),
    ("quad-convex", {"passes": True, "worst_slack": -0.14814814814814814,
                     "witness_subset": [[THIRD, TWO_THIRDS], [TWO_THIRDS, THIRD]],
                     "witness_permutation": [1, 0]}),
    ("quad-dirac", NO_CYCLE),  # one atom each
    ("linear", NO_CYCLE),
    ("gauss-golden", NO_CYCLE),
])
def test_transport_cyclical_block_is_pinned(tmp_path, preset, cyclical):
    # each support has at most 2 atoms: its one cycle is the 2-cycle, whose
    # slack adds the own and the swapped costs in index order
    assert run(["transport", "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK
    plan = json.loads((tmp_path / f"{preset}-transport.json").read_text())
    assert plan["certificates"]["cyclical"] == cyclical


def test_kernel_command_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["kernel", "--preset", "quad-dirac", "--out", str(out),
                    "--kernel-grid", "16"]) == EXIT_OK
    b1 = (out1 / "quad-dirac-kernel.csv").read_bytes()
    b2 = (out2 / "quad-dirac-kernel.csv").read_bytes()
    assert b1 == b2


def test_unknown_preset_is_usage_error(tmp_path):
    assert run(["subaction", "--preset", "nope", "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["subaction", "--n-grid", "1"],
    ["kernel", "--kernel-grid", "0"],
    ["subaction", "--max-period", "0"],
    ["dual", "--seed", "-1"],
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("argv", [
    ["twist", "--n-grid", "8"],
    ["twist", "--max-period", "1"],
    ["transport", "--max-period", "1"],
    ["kernel", "--n-grid", "8"],
    ["dual", "--max-period", "1"],
    ["subaction", "--kernel-grid", "8"],
    ["verify", "--preset", "linear"],
    ["verify", "--seed", "1"],
    ["verify", "--kernel-grid", "8"],
])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("cmd", ["subaction", "kernel", "dual", "twist", "transport"])
def test_every_preset_command_accepts_a_seed(cmd):
    args = build_parser().parse_args([cmd, "--seed", "3"])
    assert (args.preset, args.seed) == ("quad-dirac", 3)


def test_one_parser_serves_every_call(tmp_path, capsys):
    # two calls in one process, on different commands and flags, write and
    # print what each writes with a parser built for it alone; a usage
    # error after them still returns 2, and the parser is built once
    calls = [["subaction", "--preset", "linear", "--n-grid", "64", "--max-period", "4"],
             ["kernel", "--preset", "quad-dirac", "--kernel-grid", "8", "--seed", "3"]]
    build_parser.cache_clear()
    for argv in calls:
        assert run(argv + ["--out", str(tmp_path / "shared")]) == EXIT_OK
    shared_out = capsys.readouterr().out
    assert run(["kernel", "--n-grid", "8", "--out", str(tmp_path / "bad")]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    assert build_parser.cache_info().misses == 1 and build_parser() is build_parser()
    for argv in calls:
        build_parser.cache_clear()
        assert run(argv + ["--out", str(tmp_path / "own")]) == EXIT_OK
    assert capsys.readouterr().out == shared_out.replace("shared", "own")
    files = sorted(f.name for f in (tmp_path / "shared").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "own").iterdir()) and len(files) == 3
    for name in files:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "own" / name).read_bytes()


def test_depth_flag_removed(tmp_path):
    assert run(["subaction", "--depth", "48", "--out", str(tmp_path)]) == EXIT_USAGE


def test_config_flag_removed(tmp_path):
    # settings are flags only; a config file is not read
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_grid": 512}))
    assert run(["subaction", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_kernel_and_dual_csv_format_every_value_to_17_digits(tmp_path):
    pre = get_preset("quad-period2")
    assert run(["kernel", "--preset", pre.name, "--out", str(tmp_path),
                "--kernel-grid", "8"]) == EXIT_OK
    assert run(["dual", "--preset", pre.name, "--out", str(tmp_path),
                "--kernel-grid", "8"]) == EXIT_OK
    xs = (np.arange(8) + 0.5) / 8
    W = pre.kernel.grid(xs, xs)
    want = ["x,y,W"] + [f"{x:.17g},{y:.17g},{W[i, j]:.17g}"
                        for i, x in enumerate(xs) for j, y in enumerate(xs)]
    assert (tmp_path / f"{pre.name}-kernel.csv").read_text().splitlines() == want
    ys = np.linspace(1e-3, 1.0 - 1e-3, 8)
    A_star = dual_potential(pre.system, pre.potential, pre.kernel)(ys)
    want = ["y,A_star"] + [f"{y:.17g},{a:.17g}" for y, a in zip(ys, A_star)]
    assert (tmp_path / f"{pre.name}-dual.csv").read_text().splitlines() == want


@pytest.mark.parametrize("rows_per_block", [3, cli._CSV_ROWS])
def test_csv_formats_repeated_values_as_each_row_would(tmp_path, monkeypatch, rows_per_block):
    # a column of few distinct values is formatted once per value, told
    # apart by bits (0.0 and -0.0); a mostly distinct one row by row; the
    # rows come out the same across block boundaries
    monkeypatch.setattr(cli, "_CSV_ROWS", rows_per_block)
    rng = np.random.default_rng(3)
    repeated = rng.choice([0.0, -0.0, 0.1, np.nan, -np.inf, 1 / 3], size=40)
    distinct = rng.uniform(-1.0, 1.0, size=80)[::2]  # not contiguous
    ints = np.arange(40) % 7
    path = tmp_path / "t.csv"
    cli._write_csv(path, "a,b,c", repeated, distinct, ints)
    want = ["a,b,c"] + [f"{a:.17g},{b:.17g},{c:.17g}"
                        for a, b, c in zip(repeated, distinct, ints.astype(float))]
    assert path.read_text().splitlines() == want
    assert {line.split(",")[0] for line in want[1:]} >= {"0", "-0", "nan"}


def test_subaction_csv_formats_every_value_to_17_digits(tmp_path):
    pre = get_preset("quad-period2")
    assert run(["subaction", "--preset", pre.name, "--out", str(tmp_path),
                "--n-grid", "8"]) == EXIT_OK
    V = calibrated_subaction(pre.system, pre.potential, n_grid=8, max_period=MAX_PERIOD).V
    lines = (tmp_path / f"{pre.name}-V.csv").read_text().splitlines()
    assert lines == ["cell_center,value"] + [f"{c:.17g},{v:.17g}"
                                             for c, v in zip(V.centers, V.values)]
    assert [float(v) for v in (line.split(",")[1] for line in lines[1:])] == V.values.tolist()


# The exact key sets of every JSON document; a field added to a report
# changes the files only when it is added here as well.
SUBACTION_KEYS = {"m", "residual", "calibrated", "orbit"}
DUAL_KEYS = {"cohomology_residual_vs_self", "involutive"}
TWIST_KEYS = {"is_twist", "margin", "witness", "method", "mixed_partial_min",
              "mixed_partial_max"}
PLAN_KEYS = {"atoms", "value", "method", "certificates"}
ATOM_KEYS = {"x", "y", "w"}
CERTIFICATE_KEYS = {
    "duality": {"admissible", "worst_violation", "slackness_ok", "worst_atom_residual",
                "constant_shift", "primal_value", "dual_value", "duality_gap"},
    "cyclical": {"passes", "worst_slack", "witness_subset", "witness_permutation"},
    "graph": {"is_graph", "bad_clusters", "monotone_nonincreasing"},
}


@pytest.mark.parametrize("name, certificates", [
    ("quad-period2", {"duality", "cyclical", "graph"}),  # transports its maximizing measure
    ("quad-convex", {"cyclical", "graph"}),  # no duality certificate
])
def test_preset_commands_json_key_sets(tmp_path, name, certificates):
    for argv in (["subaction", "--n-grid", "256"], ["kernel", "--kernel-grid", "4"],
                 ["dual", "--kernel-grid", "4"], ["twist"], ["transport"]):
        assert run(argv + ["--preset", name, "--out", str(tmp_path)]) == EXIT_OK
    assert {p.name for p in tmp_path.iterdir()} == {
        f"{name}-{suffix}" for suffix in ("V.csv", "subaction.json", "kernel.csv", "dual.csv",
                                          "dual.json", "twist.json", "transport.json")}

    def read(suffix):
        return json.loads((tmp_path / f"{name}-{suffix}.json").read_text())

    assert set(read("subaction")) == SUBACTION_KEYS
    assert set(read("dual")) == DUAL_KEYS
    twist = read("twist")
    assert set(twist) == TWIST_KEYS and twist["method"] == "mixed_partial"
    plan = read("transport")
    assert set(plan) == PLAN_KEYS
    assert plan["atoms"] and all(set(a) == ATOM_KEYS for a in plan["atoms"])
    assert set(plan["certificates"]) == certificates
    for key, cert in plan["certificates"].items():
        assert set(cert) == CERTIFICATE_KEYS[key]
    assert plan["certificates"]["graph"]["bad_clusters"] == []


def test_transport_json_writes_bad_clusters_as_objects(tmp_path, monkeypatch):
    def two_ys(plan):
        return tr.GraphReport(False, ((0.25, (0.5, 0.75)),), True)

    monkeypatch.setattr(tr, "graph_check", two_ys)
    assert run(["transport", "--preset", "quad-convex", "--out", str(tmp_path)]) == EXIT_OK
    graph = json.loads((tmp_path / "quad-convex-transport.json").read_text())[
        "certificates"]["graph"]
    assert set(graph) == CERTIFICATE_KEYS["graph"]
    assert graph["bad_clusters"] == [{"x": 0.25, "ys": [0.5, 0.75]}]


def test_verify_json_key_sets(tmp_path):
    assert run(["verify", "--out", str(tmp_path)]) == EXIT_OK
    assert [p.name for p in tmp_path.iterdir()] == ["verify.json"]
    results = json.loads((tmp_path / "verify.json").read_text())
    assert len(results) == len(CRITERIA)
    assert all(set(r) == {"name", "passed", "detail"} for r in results)
