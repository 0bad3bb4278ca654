"""Finite-temperature transfer operators and their leading eigendata.

The operator (L_{bA} f)(x) = sum_branches e^{b A(tau_k x)} f(tau_k x) is
discretized on a uniform grid of [0, 1]: A is evaluated exactly at the
branch images of the cell centers, and f at a branch image is read off
by linear interpolation between neighbouring cell values.  All
exponential sums run in log space so that beta = 64 is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec, inverse_branches
from .involution import dual_potential
from .potentials import PotentialSpec

__all__ = [
    "GridFunction",
    "EigenPair",
    "ThermoError",
    "eigenpair",
    "eigen_measure",
    "v_beta",
    "gamma_estimate",
]

DEFAULT_N_GRID = 4096
# cells per axis of gamma_estimate's product grid
GAMMA_N_GRID = 512
TOL_EIG = 1e-10
# eigen_measure stops once no cell mass moves by more than this times the largest
TOL_MEASURE = 1e-13
MAX_ITER_EIG = 200_000
# cells per block of the operator's stencil kernel: blocks of 2^12 to 2^16
# cells were timed at n_grid 2^20 on a 2-core Xeon with 4 MB of L2 cache,
# and 2^14 was fastest
_BLOCK = 1 << 14
# runs shorter than this are not taken: each run costs a few numpy calls
# per block, and a branch broken into short runs gathers faster
_MIN_RUN = 256
# a branch with runs reads each cell they leave over as a run of one cell
# (four numpy calls per apply, where a gather takes eight); with more cells
# left over than this it gathers instead
_MAX_LEFTOVER = 16
# runs are looked for along each parity class of cells: a branch of slope
# +-1/2 (the affine maps' branches) keeps th constant along every other cell
_RUN_STRIDE = 2


class ThermoError(RuntimeError):
    """Raised on invalid operator input or non-convergent iterations."""


@dataclass(frozen=True)
class GridFunction:
    """Piecewise description of a function by its values at cell centers.

    Evaluation between centers is linear interpolation, clamped to the
    outermost center values at the edges.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 2:
            raise ThermoError("GridFunction needs a 1-d value array, n_grid >= 2")
        if not np.all(np.isfinite(self.values)):
            raise ThermoError("GridFunction values must be finite")

    @property
    def n_grid(self) -> int:
        return int(self.values.size)

    @property
    def centers(self) -> np.ndarray:
        n = self.n_grid
        return (np.arange(n) + 0.5) / n

    def __call__(self, x):
        return np.interp(x, self.centers, self.values)

    @classmethod
    def constant(cls, value: float, n_grid: int = DEFAULT_N_GRID) -> "GridFunction":
        return cls(np.full(n_grid, float(value)))

    def normalized_max_zero(self) -> "GridFunction":
        return GridFunction(self.values - np.max(self.values))

    def sup_diff(self, other: "GridFunction") -> float:
        d = self.values - other.values
        np.abs(d, out=d)
        return float(np.max(d))


@dataclass(frozen=True)
class EigenPair:
    """Leading eigendata of the discretized transfer operator.

    eigenfunction is sup-normalized (max value 1); residual is the
    sup-norm of L(phi)/lambda - phi, i.e. the eigenvalue-relative
    residual (the absolute residual scales with lambda, which reaches
    e^(beta max A) and would be meaningless at beta = 64).  iterations
    counts the power-iteration steps.
    """

    eigenvalue: float
    log_eigenvalue: float
    eigenfunction: GridFunction
    residual: float
    iterations: int = 0


def _branch_images(sys: SystemSpec, centers: np.ndarray) -> list[np.ndarray]:
    return [np.asarray(p, dtype=float) for _, p in inverse_branches(sys, centers)]


def _class_runs(j: np.ndarray, same: np.ndarray) -> list[tuple[int, int, int]]:
    """Runs along one parity class of cells: (first, count, step) in class indices.

    same[m] says th is equal at class cells m and m + 1.  A run is a
    stretch of at least _MIN_RUN cells with th constant and j stepping by
    one nonzero step.  Two runs of different steps may share their
    meeting cell, which both read alike.
    """
    if same.size + 1 < _MIN_RUN:
        return []
    key = np.where(same, j[1:] - j[:-1], 0)  # step of each link, 0 where a run breaks
    starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
    # the links a..b-1 of equal step join the cells a..b
    counts = np.concatenate((starts[1:], [key.size])) - starts + 1
    keep = (key[starts] != 0) & (counts >= _MIN_RUN)
    return list(zip(starts[keep].tolist(), counts[keep].tolist(),
                    key[starts[keep]].astype(int).tolist()))


def _find_runs(j: np.ndarray, th: np.ndarray) -> list[tuple[int, int, int, int, float]]:
    """Strided runs of one branch's stencil: (c0, count, j0, step, th).

    A run covers the cells c0, c0 + _RUN_STRIDE, ... along which th is
    constant and j steps by a constant nonzero step from j0, so its reads
    are strided slices of u.  Runs shorter than _MIN_RUN cells are
    dropped, and each cell left over becomes a run of its own.  A branch
    with no long run, or with more than _MAX_LEFTOVER cells left over,
    keeps no runs.
    """
    n = j.size
    same = th[_RUN_STRIDE:] == th[:-_RUN_STRIDE]
    # runs of 2 or more cells that leave at most _MAX_LEFTOVER cells over
    # have at least half as many equal links as they have cells
    if 2 * np.count_nonzero(same) < n - _MAX_LEFTOVER:
        return []
    runs, rest = [], np.ones(n, dtype=bool)
    for r in range(_RUN_STRIDE):
        for a, count, step in _class_runs(j[r::_RUN_STRIDE], same[r::_RUN_STRIDE]):
            c0 = r + _RUN_STRIDE * a
            runs.append((c0, count, int(j[c0]), step, float(th[c0])))
            rest[c0:c0 + _RUN_STRIDE * count:_RUN_STRIDE] = False
    cells = np.flatnonzero(rest).tolist()
    if not runs or len(cells) > _MAX_LEFTOVER:
        return []
    return runs + [(c, 1, int(j[c]), 1, float(th[c])) for c in cells]


def _steps(start: int, step: int, count: int) -> slice:
    """The slice of count indices start, start + step, ... (step may be < 0)."""
    stop = start + step * (count - 1) + (1 if step > 0 else -1)
    return slice(start, stop if stop >= 0 else None, step)


class _Operator:
    """Precomputed log-weights and read points of L_{beta A} on a grid.

    max_apply and log_apply share one kernel that walks the grid in blocks
    of _BLOCK cells and finishes every branch of a block before the next,
    so the block's scratch rows stay in cache.  A branch whose stencil
    has runs (see _find_runs) is read by them: per block, u times each run
    weight (1 - th or th) is formed once over the read range, and a run
    reads its two terms from those products by strided slices.  Such a
    branch keeps no per-cell (j, th); stencil rebuilds it on request.
    Every other branch gathers u[j] and u[j + 1].  sys, A and beta are
    those the operator was built for.
    """

    def __init__(self, sys: SystemSpec, A: PotentialSpec, beta: float, n_grid: int):
        if beta < 0:
            raise ThermoError("beta must be >= 0")
        if n_grid < 2:
            raise ThermoError(f"the operator needs n_grid >= 2, got {n_grid}")
        self.sys, self.A, self.beta, self.n_grid = sys, A, beta, n_grid
        points = _branch_images(sys, (np.arange(n_grid) + 0.5) / n_grid)
        self.logw = [beta * np.asarray(A(p), dtype=float) for p in points]
        # interpolation stencil: left index and weight for each read point.
        # Weights are clipped to [0, 1]: reads stay inside the value hull,
        # which keeps the operator positivity-preserving and monotone (the
        # O(h) edge cost is absorbed by grid resolution where it matters).
        # 0 <= j <= n_grid - 2, so the kernel's unchecked reads at j and
        # j + 1 stay inside u.  Per branch: its runs, or else its (j, th).
        self._branches = []
        for t in points:
            # each branch image (a fresh array) becomes its read position
            # p n - 0.5 and then its th, in place
            t *= n_grid
            t -= 0.5
            j = np.floor(t)  # integer-valued floats
            np.clip(j, 0, n_grid - 2, out=j)
            th = np.clip(np.subtract(t, j, out=t), 0.0, 1.0, out=t)
            runs = _find_runs(j, th)
            self._branches.append((runs, None if runs else (j.astype(np.intp), th)))
        self._blocks = self._plan_blocks()
        self._adjoint = None  # per-branch weights, built by adjoint_apply

    @property
    def stencil(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per branch, the left index j and weight th of every cell's read."""
        out = []
        for runs, kept in self._branches:
            if kept is None:
                kept = np.empty(self.n_grid, dtype=np.intp), np.empty(self.n_grid)
                for c0, count, j0, step, t in runs:
                    at = slice(c0, c0 + _RUN_STRIDE * count, _RUN_STRIDE)
                    kept[0][at] = j0 + step * np.arange(count)
                    kept[1][at] = t
            out.append(kept)
        return out

    def _plan_blocks(self) -> list:
        """Per block: its slice of the grid, its scratch rows, and per branch
        either the products of u to form and the runs' pieces, or the
        stencil to gather, all as views of the logw arrays and of scratch
        shared by every block."""
        n, q = self.n_grid, _RUN_STRIDE
        size = min(_BLOCK, n)
        cand, a, b, w = (np.empty(size) for _ in range(4))
        plans, width = [], 0
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            branches = []
            for logw, (runs, kept) in zip(self.logw, self._branches):
                # spans: each weight's range [lo, hi) of u it multiplies
                pieces, spans = [], {}
                for c0, count, j0, step, t in runs:
                    # the run's cells c0 + q m in the block: m0 <= m < m1
                    m0, m1 = max(0, -((c0 - s) // q)), min(count, -((c0 - e) // q))
                    if m0 >= m1:
                        continue
                    c, first, count = c0 + q * m0, j0 + step * m0, m1 - m0
                    c1 = c + q * (count - 1) + 1
                    for wt, jj in ((1.0 - t, first), (t, first + 1)):
                        ends = (jj, jj + step * (count - 1))
                        lo, hi = spans.get(wt, (n, 0))
                        spans[wt] = (min(lo, *ends), max(hi, max(ends) + 1))
                    pieces.append((slice(c - s, c1 - s, q), logw[c:c1:q],
                                   1.0 - t, t, first, step, count))
                offsets, total = {}, 0  # u[j] times wt sits at prod[offsets[wt] + j]
                for wt, (lo, hi) in spans.items():
                    offsets[wt], total = total - lo, total + hi - lo
                width = max(width, total)
                gather = None if kept is None else (logw[s:e], kept[0][s:e], kept[1][s:e])
                branches.append((spans, offsets, pieces, gather))
            plans.append((s, e, branches))
        prod = np.empty(width)
        blocks = []
        for s, e, branches in plans:
            rows = []
            for k, (spans, offsets, pieces, gather) in enumerate(branches):
                runs = None
                if gather is None:
                    runs = ([(wt, slice(lo, hi), prod[offsets[wt] + lo:offsets[wt] + hi])
                             for wt, (lo, hi) in spans.items()],
                            [(at, lw, prod[_steps(offsets[wl] + first, step, count)],
                              prod[_steps(offsets[wr] + first + 1, step, count)])
                             for at, lw, wl, wr, first, step, count in pieces])
                # the first branch forms its terms in the output; a gathered
                # one after it forms them in place in a
                row = (a if runs is None else cand)[:e - s] if k else None
                rows.append((row, runs, gather))
            blocks.append((slice(s, e), (a[:e - s], b[:e - s], w[:e - s]), rows))
        return blocks

    def _apply(self, u: np.ndarray, merge, sum_reads_first: bool,
               out: np.ndarray | None) -> np.ndarray:
        """Merge over branches of logw + read of u, block by block.

        merge (np.maximum or np.logaddexp) folds each branch into the
        first, in branch order.  The rounding order of the plain
        expressions is kept on runs and gathered cells alike, so results
        are bit-for-bit the same: logw + ((1 - th) u[j] + th u[j+1]) when
        sum_reads_first, else (logw + (1 - th) u[j]) + th u[j+1].  The
        result is written into out when given (a float array of n_grid
        cells, not overlapping u: blocks read u after earlier blocks are
        written), else a new array.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_grid,):
            raise ThermoError(f"operator on {self.n_grid} cells applied to shape {u.shape}")
        if out is None:
            out = np.empty(self.n_grid)
        elif out.shape != (self.n_grid,) or np.may_share_memory(out, u):
            raise ThermoError("out must be a separate array of the operator's grid size")
        u_next = u[1:]  # u_next[j] is u[j + 1]
        for cells, (a, b, w), rows in self._blocks:
            dst = out[cells]
            for row, runs, gather in rows:
                cand = dst if row is None else row
                if gather is None:
                    products, pieces = runs
                    for wt, src, prod in products:
                        np.multiply(wt, u[src], out=prod)
                    for at, logw, left, right in pieces:
                        seg = cand[at]
                        if sum_reads_first:
                            np.add(left, right, out=seg)
                            np.add(logw, seg, out=seg)
                        else:
                            np.add(logw, left, out=seg)
                            np.add(seg, right, out=seg)
                else:
                    logw, j, th = gather
                    # mode="clip" gathers straight into the buffer (the
                    # default mode copies through a temporary); j is in
                    # range for both
                    u.take(j, out=a, mode="clip")
                    np.subtract(1.0, th, out=w)
                    np.multiply(w, a, out=a)
                    u_next.take(j, out=b, mode="clip")
                    np.multiply(th, b, out=b)
                    if sum_reads_first:
                        np.add(a, b, out=a)
                        np.add(logw, a, out=cand)
                    else:
                        np.add(logw, a, out=a)
                        np.add(a, b, out=cand)
                if row is not None:
                    merge(dst, cand, out=dst)
        return out

    def log_apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """log of L applied to e^u, with linear interpolation of u."""
        return self._apply(u, np.logaddexp, True, out)

    def max_apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Max-plus twin of log_apply: max over branches of logw + read of u."""
        return self._apply(u, np.maximum, False, out)

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        """Transpose action on densities, in linear space.

        Each branch's (e^logw, 1 - th) pair is computed on the first call
        and kept, so an operator that is never applied to densities does
        not hold it; every product and scatter is the plain expression's,
        in its order.
        """
        if self._adjoint is None:
            self._adjoint = [(np.exp(logw), 1.0 - th, j, j + 1, th)
                             for logw, (j, th) in zip(self.logw, self.stencil)]
        out = np.zeros_like(v)
        for w, left, j, j1, right in self._adjoint:
            contrib = w * v
            np.add.at(out, j, left * contrib)
            np.add.at(out, j1, right * contrib)
        return out


def eigenpair(sys: SystemSpec, A: PotentialSpec, beta: float,
              n_grid: int = DEFAULT_N_GRID) -> EigenPair:
    """Leading eigenpair by power iteration with sup normalization.

    Iterates from the constant function until the relative eigenvalue
    change drops below TOL_EIG; raises ThermoError with the step count and
    the last residual if MAX_ITER_EIG steps are exhausted first.
    """
    op = _Operator(sys, A, beta, n_grid)
    u, spare = np.zeros(n_grid), np.empty(n_grid)  # the steps alternate between the two
    log_lam = math.nan
    for it in range(1, MAX_ITER_EIG + 1):
        un = op.log_apply(u, out=spare)
        s = float(np.max(un))
        un -= s
        spare, u = u, un
        if not math.isnan(log_lam) and abs(s - log_lam) <= TOL_EIG * max(1.0, abs(s)):
            log_lam = s
            break
        log_lam = s
    else:
        un = op.log_apply(u, out=spare)
        res = float(np.max(np.abs(np.exp(un - log_lam) - np.exp(u))))
        raise ThermoError(f"power iteration did not converge after {MAX_ITER_EIG} steps; "
                          f"last residual {res:.3e}")
    un = op.log_apply(u, out=spare)
    residual = float(np.max(np.abs(np.exp(un - log_lam) - np.exp(u))))
    phi = GridFunction(np.exp(u))
    return EigenPair(math.exp(log_lam), log_lam, phi, residual, it)


def eigen_measure(sys: SystemSpec, A: PotentialSpec, beta: float,
                  n_grid: int = DEFAULT_N_GRID) -> np.ndarray:
    """Eigen-probability of the adjoint operator (cell masses summing to 1)."""
    op = _Operator(sys, A, beta, n_grid)
    v = np.full(n_grid, 1.0 / n_grid)
    change = math.inf
    for _ in range(MAX_ITER_EIG):
        vn = op.adjoint_apply(v)
        tot = float(np.sum(vn))
        if tot <= 0:
            raise ThermoError("adjoint iteration lost positivity")
        vn /= tot
        change = float(np.max(np.abs(vn - v)))
        if change <= TOL_MEASURE * np.max(vn):
            return vn
        v = vn
    raise ThermoError(f"adjoint iteration did not converge after {MAX_ITER_EIG} steps; "
                      f"last change {change:.3e}")


def v_beta(sys: SystemSpec, A: PotentialSpec, beta: float,
           n_grid: int = DEFAULT_N_GRID) -> GridFunction:
    """(1/beta) log of the leading eigenfunction, normalized to max 0."""
    if beta <= 0:
        raise ThermoError("v_beta needs beta > 0")
    pair = eigenpair(sys, A, beta, n_grid=n_grid)
    u = np.log(pair.eigenfunction.values) / beta
    return GridFunction(u - np.max(u))


def gamma_estimate(sys: SystemSpec, A: PotentialSpec, W, beta: float) -> float:
    """(1/beta) log of the kernel normalization integral c_beta.

    c_beta = integral of e^(beta W(x, y)) against the eigen-probabilities
    of A (in x) and of the dual potential of (A, W) (in y), evaluated by
    log-sum-exp over the GAMMA_N_GRID x GAMMA_N_GRID product grid.
    """
    n_grid = GAMMA_N_GRID
    A_star = dual_potential(sys, A, W)
    nu = eigen_measure(sys, A, beta, n_grid=n_grid)
    nu_star = eigen_measure(sys, A_star, beta, n_grid=n_grid)
    centers = (np.arange(n_grid) + 0.5) / n_grid
    logW = beta * W.grid(centers, centers)
    # cells of zero mass (e.g. the Gauss grid below 1/(branch_cap+1)) carry
    # log 0 = -inf, which drops out of the log-sum-exp exactly
    with np.errstate(divide="ignore"):
        log_nu, log_nu_star = np.log(nu), np.log(nu_star)
    m = logW + log_nu[:, None] + log_nu_star[None, :]
    peak = float(np.max(m))
    log_c = peak + math.log(float(np.sum(np.exp(m - peak))))
    return log_c / beta
