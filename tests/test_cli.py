"""Command-line interface: outputs, reproducibility, exit codes."""

import json

import pytest

from ergotrans.cli import EXIT_OK, EXIT_USAGE, main


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
                "--n-grid", "1024", "--max-period", "3"])
    assert code == EXIT_OK
    header = json.loads((tmp_path / "gauss-golden-subaction.json").read_text())
    assert header["m"] == pytest.approx(-0.9624236501192069, abs=1e-9)


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
