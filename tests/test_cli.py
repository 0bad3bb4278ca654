"""Command-line interface: outputs, reproducibility, exit codes."""

import json

import numpy as np
import pytest

from ergotrans.accept import transport_instance
from ergotrans.cli import EXIT_OK, EXIT_USAGE, main
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


def test_gauss_transport_warns_nothing(tmp_path, capsys):
    # its probes reach x = 0, where A = 2 log x is -inf by design; the
    # suite turns any numpy warning into an error
    transport_instance.cache_clear()
    code = run(["transport", "--preset", "gauss-golden", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


def test_kernel_command_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["kernel", "--preset", "quad-dirac", "--out", str(out),
                    "--kernel-grid", "16"]) == EXIT_OK
    b1 = (out1 / "quad-dirac-kernel.csv").read_bytes()
    b2 = (out2 / "quad-dirac-kernel.csv").read_bytes()
    assert b1 == b2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "quad-dirac", "n_grid": 512}))
    code = run(["subaction", "--config", str(cfg), "--out", str(tmp_path),
                "--n-grid", "1024"])
    assert code == EXIT_OK
    csv = (tmp_path / "quad-dirac-V.csv").read_text().splitlines()
    assert len(csv) == 1025  # flag overrides config


def test_unknown_preset_is_usage_error(tmp_path):
    assert run(["subaction", "--preset", "nope", "--out", str(tmp_path)]) == EXIT_USAGE


def test_unknown_config_key_rejected(tmp_path, capsys):
    # "depth" was a config key that nothing read; it is now unknown too.
    # A value of the wrong type and a top level that is not an object are
    # usage errors as well, reported without a traceback.
    for bad in ({"presett": "quad-dirac"}, {"depth": 48}, {"n_grid": "abc"}, ["quad-dirac"]):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = run(["subaction", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_USAGE, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, bad


@pytest.mark.parametrize("argv", [
    ["subaction", "--n-grid", "1"],
    ["kernel", "--kernel-grid", "0"],
    ["subaction", "--max-period", "0"],
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # nothing written


def test_depth_flag_removed(tmp_path):
    assert run(["subaction", "--depth", "48", "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("bad", [
    {"tol_lo": "tiny"}, {"tol_lo": 0}, {"tol_lo": -1e-12}, {"tol_lo": True},
    {"tol_lo": None}, {"seed": "abc"}, {"seed": 1.5}, {"seed": False}, {"seed": -1},
])
def test_bad_tolerance_or_seed_in_config_is_usage_error(tmp_path, capsys, bad):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    code = run(["dual", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert next(iter(bad)) in err
    assert not (tmp_path / "out").exists()  # nothing written


@pytest.mark.parametrize("argv, bad", [
    (["kernel", "--preset", "linear"], {"out": 5}),
    (["kernel"], {"preset": ["x"]}),
], ids=["out", "preset"])
def test_non_string_preset_or_out_in_config_is_usage_error(tmp_path, monkeypatch, capsys,
                                                            argv, bad):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(bad))
    assert run(argv + ["--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert next(iter(bad)) in err
    assert [f.name for f in tmp_path.iterdir()] == ["c.json"]  # nothing written


def test_good_tolerance_and_seed_in_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol_lo": 1e-10, "seed": 7, "n_grid": 512}))
    assert run(["subaction", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK


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
