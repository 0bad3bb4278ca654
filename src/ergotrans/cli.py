"""Command-line front end: the package's one place that reads settings and writes files.

Commands: subaction, kernel, dual, twist, transport, verify.  Every
setting is a flag with a default, and each command takes only the flags
it reads (build_parser); an unknown flag or an out-of-range value is a
usage error reported before anything is written.  CSV files hold one
row per point, every value to 17 significant digits; JSON files are
indented with sorted keys, and their shape is decided here alone: a
result dataclass is written as its fields, an enum as its value and a
Fraction as a float (_json_default), and the plan, the graph report and
the subaction header are built by their commands.  Exit codes: 0
success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import involution as inv
from . import transport as tr
from .accept import CRITERIA, MAX_PERIOD, _slack_probes, transport_instance
from .dynamics import probe_floor
from .ergopt import calibrated_subaction
from .ergopt import deviation_I  # noqa: F401 -- perfbench's tracer test reads cli.deviation_I
from .presets import PRESETS, get_preset
from .thermo import DEFAULT_N_GRID, _centers

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# rows per block of a CSV file's formatting (_write_csv): at 1024 a 64 x 64
# kernel file was written faster than at 4096, and its peak allocation was
# below that of one % per row
_CSV_ROWS = 1024
# (setting, least value) of the integer flags, where the command has them
_INT_FLOORS = (("n_grid", 2), ("kernel_grid", 1), ("max_period", 1), ("seed", 0))


def _outdir(args: argparse.Namespace) -> Path:
    p = Path(args.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _json_default(obj):
    """A result dataclass as its fields, an enum as its value, a Fraction as a float."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: Path, header: str, *columns) -> None:
    """One row per index of the equal-length columns, each value to 17 significant digits.

    The rows are formatted _CSV_ROWS at a time, by one % on the row format
    repeated, so the cost of a format call is paid once per block of rows
    and a block's text stays small."""
    formats, values = zip(*map(_csv_column, columns))
    row = ",".join(formats) + "\n"
    rows = zip(*values)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        while block := tuple(itertools.chain.from_iterable(itertools.islice(rows, _CSV_ROWS))):
            fh.write((row * (len(block) // len(columns))) % block)


def _csv_column(column) -> tuple[str, list]:
    """A column's row format and values: its floats, or, when fewer than
    half of them are distinct (a kernel grid's x, y and W), their text,
    formatted once per distinct value.  Values are told apart by their
    bits, so -0.0 keeps its own text."""
    column = np.ascontiguousarray(column, dtype=float)
    bits = column.view(np.int64)
    ordered = np.sort(bits)
    steps = ordered[1:] != ordered[:-1]
    if 2 * (1 + np.count_nonzero(steps)) > column.size:
        return "%.17g", column.tolist()
    distinct = np.concatenate((ordered[:1], ordered[1:][steps]))
    text = np.array(["%.17g" % v for v in distinct.view(float).tolist()], dtype=object)
    return "%s", text[np.searchsorted(distinct, bits)].tolist()


def cmd_subaction(args: argparse.Namespace) -> int:
    pre = get_preset(args.preset)
    res = calibrated_subaction(pre.system, pre.potential, n_grid=args.n_grid,
                               max_period=args.max_period)
    out = _outdir(args)
    _write_csv(out / f"{pre.name}-V.csv", "cell_center,value", res.V.centers, res.V.values)
    orbit = [float(p) for p in res.orbit.points] if res.orbit else None
    _write_json(out / f"{pre.name}-subaction.json",
                {"m": res.m, "residual": res.residual, "calibrated": res.calibrated,
                 "orbit": orbit})
    print(f"{pre.name}: m = {res.m:.12g}, residual {res.residual:.3g}, "
          f"calibrated = {res.calibrated}")
    print(f"note: m is the maximum over periodic orbits of period <= "
          f"{args.max_period}; a lower bound on the true critical value in general")
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace) -> int:
    pre = get_preset(args.preset)
    out = _outdir(args)
    n = args.kernel_grid
    xs = _centers(n)
    path = out / f"{pre.name}-kernel.csv"
    _write_csv(path, "x,y,W", np.repeat(xs, n), np.tile(xs, n), pre.kernel.grid(xs, xs).ravel())
    print(f"wrote {path} ({n}x{n} grid of {pre.kernel.name})")
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    pre = get_preset(args.preset)
    A_star = inv.dual_potential(pre.system, pre.potential, pre.kernel)
    residual = inv.cohomology_residual(pre.system, pre.potential, pre.kernel,
                                       pre.potential, probes=500, seed=args.seed)
    out = _outdir(args)
    lo = probe_floor(pre.system, 0.0)
    ys = np.linspace(lo + 1e-3, 1.0 - 1e-3, args.kernel_grid)
    _write_csv(out / f"{pre.name}-dual.csv", "y,A_star", ys, A_star(ys))
    _write_json(out / f"{pre.name}-dual.json",
                {"cohomology_residual_vs_self": residual, "involutive": residual < 1e-8})
    print(f"{pre.name}: A* computed; |A* - A| residual {residual:.3e}")
    return EXIT_OK


def cmd_twist(args: argparse.Namespace) -> int:
    pre = get_preset(args.preset)
    rep = inv.twist_check(pre.twist_kernel)
    out = _outdir(args)
    _write_json(out / f"{pre.name}-twist.json", rep)
    print(f"{pre.name}: kernel {pre.twist_kernel.name} is_twist = {rep.is_twist} "
          f"(margin {rep.margin:.6g})")
    return EXIT_OK


def cmd_transport(args: argparse.Namespace) -> int:
    pre, mu, mu_star, cost, atoms, plan = transport_instance(args.preset)
    certificates = {}
    if atoms is not None:
        probe_x, probe_y = _slack_probes(pre.system, atoms)
        certificates["duality"] = tr.duality_certificate(pre.closed_V, pre.closed_V, cost,
                                                         plan, probe_x, probe_y, mu, mu_star)
    certificates["cyclical"] = tr.cyclical_monotonicity_check(plan.support_pairs(), cost,
                                                              n_max=5)
    graph = tr.graph_check(plan)
    certificates["graph"] = {
        "is_graph": graph.is_graph,
        "bad_clusters": [{"x": x, "ys": ys} for x, ys in graph.bad_clusters],
        "monotone_nonincreasing": graph.monotone_nonincreasing,
    }
    out = _outdir(args)
    _write_json(out / f"{pre.name}-transport.json", {
        "atoms": [{"x": float(x), "y": float(y), "w": w} for x, y, w in plan.support()],
        "value": plan.value,
        "method": plan.method,
        "certificates": certificates,
    })
    print(f"{pre.name}: plan value {plan.value:.12g} via {plan.method}; "
          f"graph = {graph.is_graph}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = []
    for label, fn in CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    out = _outdir(args)
    _write_json(out / "verify.json", results)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, each with only the flags it reads: --out
    on all six, --preset and --seed on the five preset commands (dual reads
    the seed; the others accept it so that one seed can go to every
    command), --n-grid and --max-period on subaction, --kernel-grid on
    kernel and dual.  Built once per process: a parse leaves the parser
    as it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="ergotrans",
        description="Subactions, involution kernels, and transport between maximizing measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            continue
        p.add_argument("--preset", choices=sorted(PRESETS), default="quad-dirac",
                       help="named example")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for probe sampling; read by dual, accepted by every "
                            "preset command so that one seed can be passed to all")
        if name == "subaction":
            p.add_argument("--n-grid", type=int, dest="n_grid", default=DEFAULT_N_GRID,
                           help="grid resolution")
            p.add_argument("--max-period", type=int, dest="max_period", default=MAX_PERIOD)
        if name in ("kernel", "dual"):
            p.add_argument("--kernel-grid", type=int, dest="kernel_grid", default=64)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        for key, least in _INT_FLOORS:
            val = getattr(args, key, least)
            if val < least:
                raise ValueError(f"--{key.replace('_', '-')} must be >= {least}, got {val}")
        return COMMANDS[args.command](args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
