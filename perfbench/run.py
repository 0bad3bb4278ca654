"""Benchmark of `ergotrans`: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones: wall_s (median time of one
round of the workload's operations, checks excluded), setup_s (median,
over SETUP_PROBES fresh interpreters, of the time from interpreter launch
to inputs ready) and peak_rss_mb (peak resident memory of this process).
Both times are corrected for the drift of the machine's speed, as
measured by the reference loop of speed.py.  With --trace 1 the run
times one untraced round and then one traced round, uncorrected, and
reports per-layer self times, call counts and the tracing overhead.  See
README.md.
"""

from __future__ import annotations

import os

# One thread per process: the program is single-threaded, and pooled BLAS
# threads would only add jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8
WORKLOADS = ("verify", "presets", "grid-scale", "certify")

# Per-layer metrics of the traced run, in BENCHMARK.json order.
ACCEPT_NAMES = (
    "critical-values", "calibrated-subactions", "cohomology-residual",
    "cocycle-vs-closed-form", "twist-verdicts", "transport-plan",
    "kantorovich-duality", "b-function", "cyclical-monotonicity",
    "rochet-potential", "graph-property", "finite-beta-consistency",
)
CLI_NAMES = ("subaction", "kernel", "dual", "twist", "transport")
LAYER_SPANS = (
    "dynamics.periodic_orbits", "ergopt.critical_value", "ergopt.calibrated_subaction",
    "ergopt.lax_oleinik_step", "ergopt.deviation_I",
    "thermo.eigenpair", "thermo.v_beta", "thermo.eigen_measure", "thermo.gamma_estimate",
    "involution.cocycle_delta", "involution.twist_check", "involution.dual_potential",
    "involution.cohomology_residual", "involution.twist_stability_probe",
    "transport.solve_kantorovich", "transport.cyclical_monotonicity_check",
    "transport.rochet_potential", "transport.conjugate_transform", "transport.graph_check",
    "transport.maximizing_extension_measure", "transport.duality_certificate",
)
CALL_COUNTS = ("dynamics.periodic_orbits", "ergopt.lax_oleinik_step",
               "ergopt.deviation_I", "involution.cocycle_delta")
COUNTERS = ("ergopt.deviation_I.terms", "involution.kernel_evals", "transport.cost_evals")
TRACE_TOTALS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")

# Spans and counters that must record work on each workload, so that a
# call moved elsewhere cannot silently zero a layer.
EXPECTED = {
    "verify": [f"accept.{n}" for n in ACCEPT_NAMES] + [
        "dynamics.periodic_orbits", "ergopt.critical_value", "ergopt.calibrated_subaction",
        "ergopt.lax_oleinik_step", "ergopt.deviation_I", "ergopt.deviation_I.terms",
        "thermo.eigenpair", "thermo.v_beta", "involution.cocycle_delta",
        "involution.twist_check", "involution.cohomology_residual",
        "transport.maximizing_extension_measure", "transport.solve_kantorovich",
        "transport.duality_certificate", "transport.cyclical_monotonicity_check",
        "transport.rochet_potential", "transport.graph_check",
        "involution.kernel_evals", "transport.cost_evals"],
    "presets": [f"cli.{n}" for n in CLI_NAMES] + [
        "dynamics.periodic_orbits", "ergopt.critical_value", "ergopt.calibrated_subaction",
        "ergopt.lax_oleinik_step", "ergopt.deviation_I", "ergopt.deviation_I.terms",
        "involution.dual_potential", "involution.cohomology_residual",
        "involution.twist_check", "transport.maximizing_extension_measure",
        "transport.solve_kantorovich", "transport.duality_certificate",
        "transport.cyclical_monotonicity_check", "transport.graph_check",
        "involution.kernel_evals", "transport.cost_evals"],
    "grid-scale": [
        "ergopt.calibrated_subaction", "ergopt.lax_oleinik_step", "thermo.eigenpair",
        "thermo.v_beta", "thermo.eigen_measure", "thermo.gamma_estimate",
        "involution.dual_potential"],
    "certify": [
        "transport.maximizing_extension_measure", "transport.solve_kantorovich",
        "transport.cyclical_monotonicity_check", "transport.rochet_potential",
        "transport.conjugate_transform", "transport.graph_check",
        "transport.duality_certificate", "involution.twist_check",
        "involution.dual_potential", "involution.cohomology_residual",
        "involution.twist_stability_probe", "involution.cocycle_delta",
        "involution.kernel_evals", "transport.cost_evals"],
}


def per_layer_names() -> list[str]:
    names = [f"accept.{n}.s" for n in ACCEPT_NAMES] + [f"cli.{n}.s" for n in CLI_NAMES]
    names += [f"{s}.s" for s in LAYER_SPANS] + [f"{s}.calls" for s in CALL_COUNTS]
    return names + list(COUNTERS) + list(TRACE_TOTALS)


def _import_program():
    """Import ergotrans from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ergotrans" / "__init__.py").is_file():
        raise SystemExit(f"error: no ergotrans sources under {src}")
    sys.path.insert(0, str(src))
    import ergotrans

    if Path(ergotrans.__file__).resolve().parent != (src / "ergotrans").resolve():
        raise SystemExit(f"error: imported ergotrans from {ergotrans.__file__}")
    return ergotrans


def _setup(workload: str, seed: int, scratch: Path):
    _import_program()
    import workloads

    return workloads.build(workload, seed, scratch)


def _probe_setup(workload: str, seed: int) -> float:
    """Launch a fresh interpreter that sets up the workload; seconds to ready,
    corrected by the reference loop timed just before and after the launch."""
    refs = [speed.reference_loop() for _ in range(3)]
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
    ready = float(proc.stdout.strip().splitlines()[-1]) - t0
    refs += [speed.reference_loop() for _ in range(3)]
    return ready * speed.REF_NOMINAL_S / statistics.mean(refs)


def _run_round(ops, scratch: Path, tracer=None, sampler=None):
    """Run every operation once; return (program seconds, failures, unexpected).

    Time spent in the sampler's reference loops is not program time.
    """
    import workloads

    workloads.reset_round(scratch)
    wall, failed, unexpected = 0.0, 0, []
    for op in ops:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            try:
                out = tracer.span(op.span, op.run) if tracer and op.span else op.run()
            finally:
                wall += time.perf_counter() - t0 - ((sampler.spent - spent) if sampler else 0.0)
            op.check(out)
        except Exception as exc:  # noqa: BLE001 -- every failure is counted
            failed += 1
            if op.name not in workloads.KNOWN_FAULTS:
                unexpected.append(op.name)
            print(f"FAIL {op.name}: {type(exc).__name__}: {str(exc)[:300]}", file=sys.stderr)
            if not isinstance(exc, AssertionError):
                traceback.print_exc(file=sys.stderr)
    return wall, failed, unexpected


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four, each in its own interpreter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print the wall clock and exit")
    args = p.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    _import_program()
    speed.pin_to_one_core()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            _setup(args.workload, args.seed, scratch)
            print(repr(time.time()))
            return 0
        # The machine's speed drifts over seconds, so half the set-up probes
        # run before the measured rounds and half after them.
        setups = [] if args.trace else [
            _probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        ops = _setup(args.workload, args.seed, scratch)
        result = _measure(args, ops, scratch)
        if not args.trace:
            setups += [_probe_setup(args.workload, args.seed)
                       for _ in range(SETUP_PROBES - len(setups))]
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Run each workload in a fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{w}: {json.dumps(res)}")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def _measure(args, ops, scratch: Path) -> dict:
    attempted = failed = 0
    unexpected: list[str] = []
    walls: list[float] = []

    def one_round(tracer=None, corrected=False):
        nonlocal attempted, failed
        sampler = speed.SpeedSampler() if corrected else None
        with sampler or contextlib.nullcontext():
            wall, n_fail, bad = _run_round(ops, scratch, tracer, sampler)
        note = ""
        if sampler:
            note = f" ({wall:.3f} s measured, slowdown {sampler.slowdown():.3f})"
            wall /= sampler.slowdown()
        walls.append(wall)
        attempted += len(ops)
        failed += n_fail
        unexpected.extend(bad)
        print(f"round {len(walls)}: {wall:.3f} s{note}, {n_fail} failed", file=sys.stderr)

    if args.trace:
        from spans import Tracer

        if args.workload == "certify":
            # Lazy imports finish before either round, so the two rounds
            # differ only by tracing.
            import scipy.optimize  # noqa: F401
        one_round()
        tracer = Tracer()
        tracer.install()
        try:
            one_round(tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = _layer_metrics(tracer, walls)
        missing = [n for n in EXPECTED[args.workload]
                   if tracer.calls.get(n, 0) == 0 and tracer.counts.get(n, 0) == 0]
        if missing:
            print(f"FAIL trace: no calls recorded for {missing}", file=sys.stderr)
        correct = not unexpected and not missing
    else:
        start = time.perf_counter()
        while True:
            one_round(corrected=True)
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        correct = not unexpected
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(tracer, walls: list[float]) -> dict:
    untraced, traced = walls
    out = {}
    for name in per_layer_names():
        if name.endswith(".s"):
            out[name] = {"value": tracer.self_s.get(name[:-2], 0.0), "unit": "s"}
        elif name.endswith(".calls"):
            out[name] = {"value": tracer.calls.get(name[:-6], 0), "unit": "count"}
        elif name in COUNTERS:
            out[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    out["trace.wall_s"] = {"value": traced, "unit": "s"}
    out["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
