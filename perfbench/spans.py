"""In-memory span tracer for the traced benchmark run.

The tracer replaces each traced public function of `ergotrans` with a
wrapper that opens a span around the call.  The replacement is made at
every name under which an `ergotrans` module holds the function, because
`accept` and `cli` import `calibrated_subaction`, `critical_value` and
`deviation_I` by name: patching `ergopt` alone would miss their calls.
Two scalar calls are counted, not spanned: `KernelSpec.__call__` and
`CostSpec.cost`.

A span's self time is its duration minus the durations of its direct
child spans, so the self times of all spans add up to the time spent
inside the outermost ones.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function; the span is named
# "<module>.<attribute>".
TRACED_FUNCTIONS = (
    ("dynamics", "periodic_orbits"),
    ("ergopt", "critical_value"),
    ("ergopt", "calibrated_subaction"),
    ("ergopt", "lax_oleinik_step"),
    ("ergopt", "deviation_I"),
    ("thermo", "eigenpair"),
    ("thermo", "v_beta"),
    ("thermo", "eigen_measure"),
    ("thermo", "gamma_estimate"),
    ("involution", "cocycle_delta"),
    ("involution", "twist_check"),
    ("involution", "dual_potential"),
    ("involution", "cohomology_residual"),
    ("involution", "twist_stability_probe"),
    ("transport", "maximizing_extension_measure"),
    ("transport", "solve_kantorovich"),
    ("transport", "cyclical_monotonicity_check"),
    ("transport", "rochet_potential"),
    ("transport", "conjugate_transform"),
    ("transport", "graph_check"),
    ("transport", "duality_certificate"),
)

# Counter name -> (module, class, method) of a counted scalar call.
COUNTED_METHODS = {
    "involution.kernel_evals": ("involution", "KernelSpec", "__call__"),
    "transport.cost_evals": ("transport", "CostSpec", "cost"),
}


class Tracer:
    """Keeps spans in memory; aggregates self time, calls and counts per name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [span index, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append([idx, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            _, child = self._stack.pop()
            dur = rec[2] - rec[1]
            self.self_s[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if name == "ergopt.deviation_I":
                self.counts["ergopt.deviation_I.terms"] += out.n_used
            return out

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every traced function at each name that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ergotrans" or n.startswith("ergotrans."))]
        for mod_name, attr in TRACED_FUNCTIONS:
            orig = getattr(sys.modules[f"ergotrans.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for name, (mod_name, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[f"ergotrans.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._count(name, orig))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }, fh)
            fh.write("\n")
