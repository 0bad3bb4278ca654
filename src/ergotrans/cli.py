"""Command-line front end.

Commands: subaction, kernel, dual, twist, transport, verify.  Every flag
mirrors a config key; a JSON config file supplies defaults and flags
override it.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import involution as inv
from . import transport as tr
from .accept import B_GRID, CRITERIA, MAX_PERIOD, _frac_grid, transport_instance
from .dynamics import probe_floor
from .ergopt import TOL_LO, calibrated_subaction
from .ergopt import deviation_I  # noqa: F401 -- perfbench's tracer test reads cli.deviation_I
from .presets import PRESETS, get_preset
from .thermo import DEFAULT_N_GRID

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    preset: str = "quad-dirac"
    n_grid: int = DEFAULT_N_GRID
    max_period: int = MAX_PERIOD
    out: str = "."
    seed: int = 0
    kernel_grid: int = 64
    tol_lo: float = TOL_LO

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            with open(args.config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config must be a JSON object")
            for key, val in data.items():
                if not hasattr(cfg, key):
                    raise ValueError(f"unknown config key {key!r}")
                setattr(cfg, key, val)
        for key in ("preset", "n_grid", "max_period", "out", "seed", "kernel_grid"):
            val = getattr(args, key.replace("-", "_"), None)
            if val is not None:
                setattr(cfg, key, val)
        for key, least in (("n_grid", 2), ("kernel_grid", 1), ("max_period", 1), ("seed", 0)):
            val = getattr(cfg, key)
            if isinstance(val, bool) or not isinstance(val, int) or val < least:
                raise ValueError(f"{key} must be an integer >= {least}, got {val!r}")
        for key in ("preset", "out"):
            val = getattr(cfg, key)
            if not isinstance(val, str):
                raise ValueError(f"{key} must be a string, got {val!r}")
        tol = cfg.tol_lo
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError(f"tol_lo must be a positive finite number, got {tol!r}")
        return cfg


def _outdir(cfg: RunConfig) -> Path:
    p = Path(cfg.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_subaction(cfg: RunConfig) -> int:
    pre = get_preset(cfg.preset)
    res = calibrated_subaction(pre.system, pre.potential, n_grid=cfg.n_grid,
                               max_period=cfg.max_period, tol=cfg.tol_lo)
    out = _outdir(cfg)
    res.export(out / f"{pre.name}-V.csv", out / f"{pre.name}-subaction.json")
    print(f"{pre.name}: m = {res.m:.12g}, residual {res.residual:.3g}, "
          f"calibrated = {res.calibrated}")
    print(f"note: m is the maximum over periodic orbits of period <= "
          f"{cfg.max_period}; a lower bound on the true critical value in general")
    return EXIT_OK


def cmd_kernel(cfg: RunConfig) -> int:
    pre = get_preset(cfg.preset)
    out = _outdir(cfg)
    n = cfg.kernel_grid
    xs = (np.arange(n) + 0.5) / n
    W = pre.kernel.grid(xs, xs)
    path = out / f"{pre.name}-kernel.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,W\n")
        labels = [f"{x:.17g}" for x in xs.tolist()]
        for x, row in zip(labels, W.tolist()):
            for y, w in zip(labels, row):
                fh.write(f"{x},{y},{w:.17g}\n")
    print(f"wrote {path} ({n}x{n} grid of {pre.kernel.name})")
    return EXIT_OK


def cmd_dual(cfg: RunConfig) -> int:
    pre = get_preset(cfg.preset)
    A_star = inv.dual_potential(pre.system, pre.potential, pre.kernel)
    residual = inv.cohomology_residual(pre.system, pre.potential, pre.kernel,
                                       pre.potential, probes=500, seed=cfg.seed)
    out = _outdir(cfg)
    n = cfg.kernel_grid
    lo = probe_floor(pre.system, 0.0)
    ys = np.linspace(lo + 1e-3, 1.0 - 1e-3, n)
    path = out / f"{pre.name}-dual.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("y,A_star\n")
        for y, a in zip(ys.tolist(), np.asarray(A_star(ys), dtype=float).tolist()):
            fh.write(f"{y:.17g},{a:.17g}\n")
    _write_json(out / f"{pre.name}-dual.json",
                {"cohomology_residual_vs_self": residual, "involutive": residual < 1e-8})
    print(f"{pre.name}: A* computed; |A* - A| residual {residual:.3e}")
    return EXIT_OK


def cmd_twist(cfg: RunConfig) -> int:
    pre = get_preset(cfg.preset)
    rep = inv.twist_check(pre.twist_kernel)
    out = _outdir(cfg)
    _write_json(out / f"{pre.name}-twist.json", rep.to_json_dict())
    print(f"{pre.name}: kernel {pre.twist_kernel.name} is_twist = {rep.is_twist} "
          f"(margin {rep.margin:.6g})")
    return EXIT_OK


def cmd_transport(cfg: RunConfig) -> int:
    pre, mu, mu_star, cost, atoms, plan = transport_instance(cfg.preset)
    certificates = {}
    grid = _frac_grid(B_GRID)
    if atoms is not None:
        rep = tr.duality_certificate(pre.closed_V, pre.closed_V, cost, plan,
                                     grid, grid, mu, mu_star)
        certificates["duality"] = rep.to_json_dict()
    certificates["cyclical"] = tr.cyclical_monotonicity_check(
        plan.support_pairs(), cost, n_max=5).to_json_dict()
    certificates["graph"] = tr.graph_check(plan).to_json_dict()
    out = _outdir(cfg)
    _write_json(out / f"{pre.name}-transport.json", plan.to_json_dict(certificates))
    print(f"{pre.name}: plan value {plan.value:.12g} via {plan.method}; "
          f"graph = {certificates['graph']['is_graph']}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = []
    for label, fn in CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    out = _outdir(cfg)
    _write_json(out / "verify.json",
                [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results])
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


COMMANDS = {
    "subaction": cmd_subaction,
    "kernel": cmd_kernel,
    "dual": cmd_dual,
    "twist": cmd_twist,
    "transport": cmd_transport,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergotrans",
        description="Subactions, involution kernels, and transport between maximizing measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named example")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="seed for probe sampling")
        p.add_argument("--n-grid", type=int, dest="n_grid", help="grid resolution")
        p.add_argument("--max-period", type=int, dest="max_period")
        p.add_argument("--kernel-grid", type=int, dest="kernel_grid")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = RunConfig.load(args)
        return COMMANDS[args.command](cfg)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
