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
    "ruelle_apply",
    "eigenpair",
    "eigen_measure",
    "v_beta",
    "gamma_estimate",
]

DEFAULT_N_GRID = 4096
TOL_EIG = 1e-10
# eigen_measure stops once no cell mass moves by more than this times the largest
TOL_MEASURE = 1e-13
MAX_ITER_EIG = 200_000
# cells per block of the operator's stencil kernel: blocks of 2^12 to 2^16
# cells were timed at n_grid 2^20 on a 2-core Xeon with 4 MB of L2 cache,
# and 2^14 was fastest
_BLOCK = 1 << 14


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("cell_center,value\n")
            for c, v in zip(self.centers, self.values):
                fh.write(f"{c:.17g},{v:.17g}\n")


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


class _Operator:
    """Precomputed log-weights and read points of L_{beta A} on a grid.

    max_apply and log_apply share one kernel that walks the grid in blocks
    of _BLOCK cells and finishes every branch of a block before the next,
    so the block's scratch rows stay in cache.
    """

    def __init__(self, sys: SystemSpec, A: PotentialSpec, beta: float, n_grid: int):
        if beta < 0:
            raise ThermoError("beta must be >= 0")
        if n_grid < 2:
            raise ThermoError(f"the operator needs n_grid >= 2, got {n_grid}")
        self.n_grid = n_grid
        points = _branch_images(sys, (np.arange(n_grid) + 0.5) / n_grid)
        self.logw = [beta * np.asarray(A(p), dtype=float) for p in points]
        # interpolation stencil: left index and weight for each read point.
        # Weights are clipped to [0, 1]: reads stay inside the value hull,
        # which keeps the operator positivity-preserving and monotone (the
        # O(h) edge cost is absorbed by grid resolution where it matters).
        # 0 <= j <= n_grid - 2, so the kernel's unchecked reads at j and
        # j + 1 stay inside u.
        self.stencil = []
        for p in points:
            t = p * n_grid - 0.5
            j = np.clip(np.floor(t).astype(int), 0, n_grid - 2)
            th = np.clip(t - j, 0.0, 1.0)
            self.stencil.append((j, th))
        # per block: its slice of the grid, block-sized views of the scratch
        # rows, and each branch's (logw, j, th) on the block
        size = min(_BLOCK, n_grid)
        rows = (np.empty(size), np.empty(size), np.empty(size))
        self._blocks = []
        for s in range(0, n_grid, _BLOCK):
            e = min(s + _BLOCK, n_grid)
            scratch = tuple(r[:e - s] for r in rows)
            branches = [(lw[s:e], j[s:e], th[s:e])
                        for lw, (j, th) in zip(self.logw, self.stencil)]
            self._blocks.append((slice(s, e), scratch, branches))
        self._adjoint = None  # per-branch weights, built by adjoint_apply

    def _apply(self, u: np.ndarray, merge, sum_reads_first: bool,
               out: np.ndarray | None) -> np.ndarray:
        """Merge over branches of logw + read of u, block by block.

        merge (np.maximum or np.logaddexp) folds each branch into the
        first, in branch order.  The rounding order of the plain
        expressions is kept, so results are bit-for-bit the same:
        logw + ((1 - th) u[j] + th u[j+1]) when sum_reads_first, else
        (logw + (1 - th) u[j]) + th u[j+1].  The result is written into
        out when given (a float array of n_grid cells, not overlapping u:
        blocks read u after earlier blocks are written), else a new array.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_grid,):
            raise ThermoError(f"operator on {self.n_grid} cells applied to shape {u.shape}")
        if out is None:
            out = np.empty(self.n_grid)
        elif out.shape != (self.n_grid,) or np.may_share_memory(out, u):
            raise ThermoError("out must be a separate array of the operator's grid size")
        u_next = u[1:]  # u_next[j] is u[j + 1]
        for cells, (a, b, w), branches in self._blocks:
            dst = out[cells]
            for k, (logw, j, th) in enumerate(branches):
                cand = dst if k == 0 else a
                # mode="clip" gathers straight into the buffer (the default
                # mode copies through a temporary); j is in range for both
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
                if k:
                    merge(dst, cand, out=dst)
        return out

    def log_apply(self, u: np.ndarray) -> np.ndarray:
        """log of L applied to e^u, with linear interpolation of u."""
        return self._apply(u, np.logaddexp, True, None)

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


def ruelle_apply(sys: SystemSpec, A: PotentialSpec, beta: float, f: GridFunction) -> GridFunction:
    """One application of the transfer operator to a strictly positive f."""
    if np.any(f.values <= 0):
        raise ThermoError("ruelle_apply needs a strictly positive function")
    op = _Operator(sys, A, beta, f.n_grid)
    return GridFunction(np.exp(op.log_apply(np.log(f.values))))


def eigenpair(sys: SystemSpec, A: PotentialSpec, beta: float,
              n_grid: int = DEFAULT_N_GRID, max_iter: int = MAX_ITER_EIG) -> EigenPair:
    """Leading eigenpair by power iteration with sup normalization.

    Iterates from the constant function until the relative eigenvalue
    change drops below TOL_EIG; raises ThermoError with the step count and
    the last residual if max_iter is exhausted first.
    """
    op = _Operator(sys, A, beta, n_grid)
    u = np.zeros(n_grid)
    log_lam = math.nan
    for it in range(1, max_iter + 1):
        un = op.log_apply(u)
        s = float(np.max(un))
        u = un - s
        if not math.isnan(log_lam) and abs(s - log_lam) <= TOL_EIG * max(1.0, abs(s)):
            log_lam = s
            break
        log_lam = s
    else:
        un = op.log_apply(u)
        res = float(np.max(np.abs(np.exp(un - log_lam) - np.exp(u))))
        raise ThermoError(f"power iteration did not converge after {max_iter} steps; "
                          f"last residual {res:.3e}")
    un = op.log_apply(u)
    residual = float(np.max(np.abs(np.exp(un - log_lam) - np.exp(u))))
    phi = GridFunction(np.exp(u))
    return EigenPair(math.exp(log_lam), log_lam, phi, residual, it)


def eigen_measure(sys: SystemSpec, A: PotentialSpec, beta: float,
                  n_grid: int = DEFAULT_N_GRID, max_iter: int = MAX_ITER_EIG) -> np.ndarray:
    """Eigen-probability of the adjoint operator (cell masses summing to 1)."""
    op = _Operator(sys, A, beta, n_grid)
    v = np.full(n_grid, 1.0 / n_grid)
    change = math.inf
    for _ in range(max_iter):
        vn = op.adjoint_apply(v)
        tot = float(np.sum(vn))
        if tot <= 0:
            raise ThermoError("adjoint iteration lost positivity")
        vn /= tot
        change = float(np.max(np.abs(vn - v)))
        if change <= TOL_MEASURE * np.max(vn):
            return vn
        v = vn
    raise ThermoError(f"adjoint iteration did not converge after {max_iter} steps; "
                      f"last change {change:.3e}")


def v_beta(sys: SystemSpec, A: PotentialSpec, beta: float,
           n_grid: int = DEFAULT_N_GRID) -> GridFunction:
    """(1/beta) log of the leading eigenfunction, normalized to max 0."""
    if beta <= 0:
        raise ThermoError("v_beta needs beta > 0")
    pair = eigenpair(sys, A, beta, n_grid=n_grid)
    u = np.log(pair.eigenfunction.values) / beta
    return GridFunction(u - np.max(u))


def gamma_estimate(sys: SystemSpec, A: PotentialSpec, W, beta: float,
                   n_grid: int = 512, A_star: PotentialSpec | None = None) -> float:
    """(1/beta) log of the kernel normalization integral c_beta.

    c_beta = integral of e^(beta W(x, y)) against the eigen-probabilities
    of A (in x) and of the dual potential (in y), evaluated by log-sum-exp
    over the product grid.
    """
    if A_star is None:
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
