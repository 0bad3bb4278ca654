"""Finite-temperature transfer operators and their leading eigendata.

The operator (L_{bA} f)(x) = sum_branches e^{b A(tau_k x)} f(tau_k x) is
discretized on a uniform grid of [0, 1]: its weights are b A at the
branch images of the cell centers, and f at a branch image is read off
by linear interpolation between neighbouring cell values.  The build
fills the weights, and on Gauss the read points, _BLOCK cells at a time,
so A is called on float64 blocks of branch images and must act
elementwise.  All exponential sums run in log space so that beta = 64 is
safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemKind, SystemSpec, _affine_branch, _as_count, _branch, _branch_indices
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
# a bound on a Gauss branch's terms over a block (_term_bound) is rounded up
# by _ROUND_ULPS times the magnitude of its two parts, plus _TINY
_ROUND_ULPS = 4 * np.finfo(float).eps
_TINY = 1e-300
# a log-space term y with y - S < log|S| - _LOG_GAP rounds away from the sum
# S: e^-40 |S| is below half an ulp of S, which exceeds 2^-54 |S|
_LOG_GAP = 40.0
# the largest float t whose exp(t) is finite, in math and in numpy: log(float max)
_LOG_MAX = math.log(np.finfo(float).max)


class ThermoError(RuntimeError):
    """Raised on invalid operator input or non-convergent iterations."""


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise description of a function by its values at cell centers.

    Evaluation between centers is linear interpolation, clamped to the
    outermost center values at the edges.  Two GridFunctions are equal
    when their value arrays are (np.array_equal); a GridFunction is not
    hashable.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 2:
            raise ThermoError("GridFunction needs a 1-d value array, n_grid >= 2")
        if not np.all(np.isfinite(self.values)):
            raise ThermoError("GridFunction values must be finite")

    @classmethod
    def _of_finite(cls, values: np.ndarray) -> "GridFunction":
        """A GridFunction on values as they are, without __post_init__'s
        conversion and scans.  Safe only for a 1-d float array of at least 2
        cells already known to be finite, as _Operator.max_step's result is:
        it checks every block's minimum and maximum, and its grid has at
        least 2 cells."""
        f = object.__new__(cls)
        object.__setattr__(f, "values", values)
        return f

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.values, other.values)

    @property
    def n_grid(self) -> int:
        return int(self.values.size)

    @property
    def centers(self) -> np.ndarray:
        return _centers(self.n_grid)

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


def _checked_grid(beta: float, n_grid) -> int:
    """n_grid as an int, once beta is finite and >= 0 and n_grid is an int
    >= 2; else ThermoError."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ThermoError(f"beta must be finite and >= 0, got {beta}")
    return _as_count(n_grid, 2, ThermoError, "the operator needs an int n_grid >= 2, got {!r}")


def _centers(n: int) -> np.ndarray:
    """The centers (i + 1/2)/n of the n cells of [0, 1]."""
    return (np.arange(n) + 0.5) / n


class _Operator:
    """Precomputed log-weights and read points of L_{beta A} on a grid.

    The build walks the classes of cells (the two parity classes on 2x and
    -2x, all cells on Gauss) _BLOCK cells at a time: it forms a block's
    cell centers once and, per branch, their images, calls A on those as
    one float64 array (A must act elementwise) and writes beta A, and on
    Gauss the block's (j, th), into arrays allocated once, so no grid-sized
    temporary is made.  An operator holds 8 bytes per cell per branch on 2x
    and -2x (the weights) and 24 on Gauss (weights, j and th), plus a few
    block-sized scratch rows.

    max_apply and log_apply share one kernel that walks the grid in blocks
    of _BLOCK cells and finishes every branch of a block before the next,
    so the block's scratch rows stay in cache.  On 2x and -2x every read
    is at an exact quarter-integer (see stencil): per block a branch forms
    0.25 u and 0.75 u once and reads each parity class of cells by strided
    slices of them, and its one clipped read (th 0 or 1) on its own.  It
    keeps no (j, th), and its weights by parity class, loaded contiguously:
    a load then never trails a store into the strided output by a fixed
    offset, which made an apply up to 1.6 times as slow where the output
    sat a few cache lines ahead of a weight array modulo a huge page.  A
    Gauss branch gathers u[j] and u[j + 1] from its float stencil.
    max_step, the Lax-Oleinik step, also subtracts m from each block, checks
    it is finite and takes its maximum once the block's last branch is
    merged, while the block is still in cache.  sys, A and beta are those
    the operator was built for.

    A Gauss branch after the first is skipped on a block where it provably
    changes no bit of the block's output.  Its plan row keeps its largest
    weight on the block, peak, and the window u[j_min : j_max + 2] of the
    cells its reads touch, so each of its terms there is at most ub = peak
    + max u[window], rounded up by a few ulps (_term_bound).  Max-plus
    skips when ub < min(dst), taken once after the first branch, since
    merges only raise dst: np.maximum with a smaller operand keeps every
    bit.  Log space skips when ub - min(dst) < log(min |dst|) - 40: then
    e^(y - S) < e^-40 |S| is below half an ulp of S, which exceeds
    2^-54 |S|, so np.logaddexp(S, y) is S bit for bit.  There dst must
    keep one sign at least 1e-300 away from 0; its minimum only rises, and
    its maximum is carried through merges by the bound log(e^hi + e^ub),
    so neither is taken again.  A NaN or an infinite bound, a non-finite
    minimum or maximum of dst, or a u holding -inf or NaN (a read of
    weight 0 at -inf is NaN) never skips, so a NaN that a skipped branch
    would read still reaches the output and max_step still raises.  The
    count of skipped (block, branch) pairs accumulates in _skipped.  The
    rows of 2x and -2x carry no bound: there are two branches, and the two
    reductions a block would need added 8-10 % to an affine max_step at
    2^14 and 2^20 cells.
    """

    def __init__(self, sys: SystemSpec, A: PotentialSpec, beta: float, n_grid: int):
        n_grid = _checked_grid(beta, n_grid)
        self.sys, self.A, self.beta, self.n_grid = sys, A, beta, n_grid
        gauss = sys.kind is SystemKind.GAUSS
        ks = _branch_indices(sys)
        # per branch, its weights as one class of cells (Gauss) or two parity
        # classes, each a (first cell, stride) of the grid
        classes = ((0, 1),) if gauss else ((0, 2), (1, 2))
        sizes = [len(range(r, n_grid, step)) for r, step in classes]
        self._logw = [tuple(np.empty(size) for size in sizes) for _ in ks]
        self._gauss = ([(np.empty(n_grid, dtype=np.intp), np.empty(n_grid)) for _ in ks]
                       if gauss else None)
        for c, ((r, step), size) in enumerate(zip(classes, sizes)):
            for s in range(0, size, _BLOCK):
                e = min(s + _BLOCK, size)
                # the block's cell centers (i + 1/2)/n, formed in place once for every branch
                x = np.arange(r + step * s, r + step * e, step, dtype=float)
                x += 0.5
                x /= n_grid
                for b, k in enumerate(ks):
                    t = _branch(sys, k, x)
                    np.multiply(beta, np.asarray(A(t), dtype=float), out=self._logw[b][c][s:e])
                    if gauss:
                        # in place, the image (a fresh array) becomes t = p n - 0.5, then th
                        j, th = self._gauss[b]
                        t *= n_grid
                        t -= 0.5
                        jf = np.clip(np.floor(t), 0, n_grid - 2)
                        np.clip(np.subtract(t, jf, out=t), 0.0, 1.0, out=th[s:e])
                        j[s:e] = jf
        self._blocks = self._plan_blocks()
        self._adjoint = None  # per-branch weights, built by adjoint_apply
        self.top = math.nan  # the maximum of the last max_step result
        self._skipped = 0  # (block, branch) pairs the applies skipped, in all

    @property
    def logw(self) -> list[np.ndarray]:
        """Per branch, beta A at the branch image of every cell."""
        return [self._branch_logw(k) for k in range(len(self._logw))]

    def _branch_logw(self, k: int) -> np.ndarray:
        """beta A at branch k's image of every cell, as a new array."""
        classes = self._logw[k]
        w = np.empty(self.n_grid)
        for r, c in enumerate(classes):
            w[r::len(classes)] = c
        return w

    def _reads(self, k: int, i):
        """(j, th) of the reads of cells i on affine branch k (see stencil)."""
        s, c = _affine_branch(self.sys, k)
        q = s * (2 * i + 1) + 2 * c * self.n_grid - 2
        j = np.clip(q // 4, 0, self.n_grid - 2)
        return j, np.clip((q - 4 * j) / 4, 0.0, 1.0)

    @property
    def stencil(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per branch, the left index j and weight th of every cell's read.

        A cell whose branch image is p reads at t = p n - 1/2: j is floor(t)
        clipped to 0..n_grid - 2, and th is t - j clipped to [0, 1].  Reads
        stay inside the value hull, which keeps the operator positivity-
        preserving and monotone (the O(h) edge cost is absorbed by grid
        resolution where it matters), and the kernel's unchecked reads at j
        and j + 1 stay inside u.  On 2x and -2x the branch x -> (s x + c)/2
        sends the center (2i + 1)/(2n) to p with 4t = s (2i + 1) + 2 c n - 2,
        an odd integer, and _reads computes (j, th) from it exactly.
        """
        if self._gauss is not None:
            return self._gauss
        return [self._reads(k, np.arange(self.n_grid)) for k in range(2)]

    def _plan_blocks(self) -> list:
        """Per block: its slice of the grid and, per branch, its scratch row,
        its skip bound (Gauss branches after the first: the largest weight
        on the block and the slice of u its reads touch; else None), the
        products of u it forms, its strided pieces, its gathers and its
        clipped read, as views of logw and of scratch shared by every block."""
        n = self.n_grid
        size = min(_BLOCK, n)
        cand, a, b, w = (np.empty(size) for _ in range(4))
        # the reads of size cells at slope 1/2 span at most size // 2 + 2 cells of u
        quarter, three = np.empty(size // 2 + 2), np.empty(size // 2 + 2)
        if self._gauss is None:
            # every cell whose read the plan takes is among its block's first
            # four and last four: each branch reads them all in one call
            starts = np.arange(0, n, _BLOCK)[:, None]
            stops = np.minimum(starts + _BLOCK, n)
            near = np.concatenate((np.minimum(starts + np.arange(4), stops - 1),
                                   np.maximum(stops - 4 + np.arange(4), starts)), axis=1)
            near_reads = [[r.tolist() for r in self._reads(k, near)] for k in range(2)]
        blocks = []
        for block, s in enumerate(range(0, n, _BLOCK)):
            e = min(s + _BLOCK, n)

            def read(k, i):
                """(j, th) of cell i of the block on affine branch k."""
                j, th = near_reads[k]
                at = i - s if i - s < 4 else i - e + 8
                return j[block][at], th[block][at]

            rows = []
            for k, logw in enumerate(self._logw):
                products, pieces, gathers, clipped, bound = [], [], [], [], None
                if self._gauss is not None:
                    j, th = self._gauss[k]
                    gathers.append((logw[0][s:e], j[s:e], th[s:e],
                                    a[:e - s], b[:e - s], w[:e - s]))
                    if k:
                        # the branch's largest weight on the block, and the
                        # window of u that holds every cell its reads touch
                        bound = (float(np.max(logw[0][s:e])),
                                 slice(int(np.min(j[s:e])), int(np.max(j[s:e])) + 2))
                else:
                    step = _affine_branch(self.sys, k)[0]
                    # j is monotone in the cell, so the block's first and last
                    # cells bound its reads; th is 0 or 1 only at the branch's
                    # one clipped read, at an outer cell
                    (j_first, th_first), (j_last, th_last) = read(k, s), read(k, e - 1)
                    lo, hi = min(j_first, j_last), max(j_first, j_last) + 2
                    edge = s if th_first in (0.0, 1.0) else e - 1 if th_last in (0.0, 1.0) else -1
                    products = [(0.25, slice(lo, hi), quarter[:hi - lo]),
                                (0.75, slice(lo, hi), three[:hi - lo])]
                    for r in (0, 1):
                        # the block's cells of parity r but the edge: first, first + 2, ..., last
                        first, last = s + (r - s) % 2, e - 1 - (e - 1 - r) % 2
                        first, last = first + 2 * (first == edge), last - 2 * (last == edge)
                        if first > last:
                            continue
                        count = (last - first) // 2 + 1
                        (j_first, th_first), (j_last, _) = read(k, first), read(k, last)
                        # th is 1/4 or 3/4: the left term is 0.75 u[j] or 0.25 u[j]
                        left, right = (three, quarter) if th_first == 0.25 else (quarter, three)
                        v = min(j_first, j_last) - lo
                        pieces.append((slice(first - s, last + 1 - s, 2),
                                       logw[r][first // 2:first // 2 + count],
                                       left[v:v + count][::step],
                                       right[v + 1:v + 1 + count][::step]))
                    if edge >= 0:
                        j, th = read(k, edge)
                        clipped.append((edge - s, float(logw[edge % 2][edge // 2]), j, th))
                # the first branch forms its terms in the output; a Gauss
                # branch after it forms them in place in a
                row = (cand if self._gauss is None else a)[:e - s] if k else None
                rows.append((row, bound, products, pieces, gathers, clipped))
            blocks.append((slice(s, e), rows))
        return blocks

    def _apply(self, u: np.ndarray, merge, out: np.ndarray | None, shift) -> np.ndarray:
        """Merge over branches of logw + read of u, block by block.

        merge (np.maximum or np.logaddexp) folds each branch into the
        first, in branch order.  The rounding order of the plain
        expressions is kept on strided and gathered cells alike, so results
        are bit-for-bit the same: logw + ((1 - th) u[j] + th u[j+1]) in log
        space, else (logw + (1 - th) u[j]) + th u[j+1].  The
        result is written into out when given (a float array of n_grid
        cells, not overlapping u: blocks read u after earlier blocks are
        written), else a new array.

        A Gauss branch after the first is left out of a block where it
        provably changes no bit of the result (see the class docstring).

        With a shift (not None), each block has it subtracted once its last
        branch is merged, while it is still in cache, and its maximum and
        minimum are taken: a NaN or an infinity raises ThermoError at that
        block, and the largest block maximum, which is the maximum of the
        result, is left in self.top.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_grid,):
            raise ThermoError(f"operator on {self.n_grid} cells applied to shape {u.shape}")
        if out is None:
            out = np.empty(self.n_grid)
        elif out.shape != (self.n_grid,) or np.may_share_memory(out, u):
            raise ThermoError("out must be a separate array of the operator's grid size")
        u_next = u[1:]  # u_next[j] is u[j + 1]
        log_space = merge is np.logaddexp
        # a read of weight 0 at -inf is NaN, which no bound covers: u with a
        # -inf (or a NaN, which the minimum also returns) skips no branch
        bounded = self._gauss is not None and np.minimum.reduce(u) > -math.inf
        top, skipped = -math.inf, 0
        for cells, rows in self._blocks:
            dst = out[cells]
            lo = hi = None  # bounds on dst's values, taken when first needed
            for row, bound, products, pieces, gathers, clipped in rows:
                if bounded and bound is not None:
                    peak, window = bound
                    if lo is None:
                        lo = float(np.minimum.reduce(dst))
                        hi = float(np.maximum.reduce(dst)) if log_space else None
                    ub = _term_bound(peak, float(np.maximum.reduce(u[window])))
                    if _leaves_unchanged(ub, lo, hi):
                        skipped += 1
                        continue
                    if log_space:
                        hi = _log_sum_bound(hi, ub)
                cand = dst if row is None else row
                for wt, src, prod in products:
                    np.multiply(wt, u[src], out=prod)
                for at, logw, left, right in pieces:
                    seg = cand[at]
                    if log_space:
                        np.add(left, right, out=seg)
                        np.add(logw, seg, out=seg)
                    else:
                        np.add(logw, left, out=seg)
                        np.add(seg, right, out=seg)
                for logw, j, th, a, b, w in gathers:
                    # mode="clip" gathers straight into the buffer (the
                    # default mode copies through a temporary); j is in
                    # range for both
                    u.take(j, out=a, mode="clip")
                    np.subtract(1.0, th, out=w)
                    np.multiply(w, a, out=a)
                    u_next.take(j, out=b, mode="clip")
                    np.multiply(th, b, out=b)
                    if log_space:
                        np.add(a, b, out=a)
                        np.add(logw, a, out=cand)
                    else:
                        np.add(logw, a, out=a)
                        np.add(a, b, out=cand)
                for at, logw, j, th in clipped:
                    # the clipped read, in Python floats: the same IEEE double operations
                    left, right = (1.0 - th) * u.item(j), th * u.item(j + 1)
                    cand[at] = logw + (left + right) if log_space else logw + left + right
                if row is not None:
                    merge(dst, cand, out=dst)
            if shift is not None:
                dst -= shift
                hi, lo = float(np.maximum.reduce(dst)), float(np.minimum.reduce(dst))
                # NaN propagates through both, +inf reaches hi and -inf lo
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    raise ThermoError("GridFunction values must be finite")
                top = max(top, hi)
        if shift is not None:
            self.top = top
        self._skipped += skipped
        return out

    def log_apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """log of L applied to e^u, with linear interpolation of u."""
        return self._apply(u, np.logaddexp, out, None)

    def max_apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Max-plus twin of log_apply: max over branches of logw + read of u."""
        return self._apply(u, np.maximum, out, None)

    def max_step(self, u: np.ndarray, m: float, out: np.ndarray | None = None) -> np.ndarray:
        """max_apply(u) - m, bit for bit, proved finite, in one blocked pass.

        The shift by m, the finiteness check (ThermoError on a NaN or an
        infinity) and the maximum run per block inside the kernel, so the
        result is not read again; its maximum is left in self.top.
        """
        return self._apply(u, np.maximum, out, m)

    def adjoint_apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transpose action on densities, in linear space.

        Each branch's (e^logw, 1 - th) pair, and two product rows shared by
        the branches, are made on the first call and kept, so an operator
        that is never applied to densities does not hold them; the weights
        are made one branch at a time.  Every product and scatter is the
        plain expression's, in its order; the right reads scatter through
        out[1:] at j, which is out at j + 1.  The result is written into
        out when given (a float array of n_grid cells, not overlapping v:
        every branch reads v after earlier branches scatter), else a new
        array.  A weight beta A that is NaN or above log(float max), where
        its exponential overflows, raises ThermoError before any is taken.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_grid,):
            raise ThermoError(f"operator on {self.n_grid} cells applied to shape {v.shape}")
        if out is None:
            out = np.zeros(self.n_grid)
        elif out.shape != (self.n_grid,) or np.may_share_memory(out, v):
            raise ThermoError("out must be a separate array of the operator's grid size")
        else:
            out.fill(0.0)
        if self._adjoint is None:
            branches = []
            for k, (j, th) in enumerate(self.stencil):
                w = self._branch_logw(k)
                top = float(np.max(w))
                if not top <= _LOG_MAX:  # NaN fails too
                    raise ThermoError(f"beta A reaches {top!r}: e^(beta A) is not a finite weight")
                branches.append((np.exp(w, out=w), 1.0 - th, j, th))
            # made after the weights, so the build's peak does not hold them
            rows = np.empty(self.n_grid), np.empty(self.n_grid)
            self._adjoint = [(*branch, *rows) for branch in branches]
        out_next = out[1:]  # out_next[j] is out[j + 1]
        for w, left, j, right, contrib, part in self._adjoint:
            np.multiply(w, v, out=contrib)
            np.multiply(left, contrib, out=part)
            np.add.at(out, j, part)
            np.multiply(right, contrib, out=part)
            np.add.at(out_next, j, part)
        return out


def _term_bound(peak: float, reach: float) -> float:
    """An upper bound on every term logw + read of u of a Gauss branch on a
    block, from its largest weight peak and the largest u it reads, reach.

    Rounding is monotone, so a term is at most the plain expression's
    rounded value at logw = peak and u[j] = u[j + 1] = reach, which is off
    from peak + reach by less than 2 eps (|peak| + |reach|); _ROUND_ULPS
    covers that and this sum's own two roundings, _TINY any underflow.
    """
    ub = peak + reach
    return ub + (_ROUND_ULPS * (abs(peak) + abs(reach)) + _TINY)


def _leaves_unchanged(ub: float, lo: float, hi: float | None) -> bool:
    """Whether merging terms of at most ub into values in [lo, hi] changes no bit.

    Max-plus (hi None): np.maximum keeps every value when ub < lo; lo may
    be a minimum taken before earlier merges, which only raise values.  Log
    space: np.logaddexp(S, y) = S + log1p(e^(y - S)) is S bit for bit when
    e^(y - S) is below half an ulp of S, which is more than 2^-54 |S|; so
    when ub - lo < log(min |S|) - _LOG_GAP, where e^-_LOG_GAP < 2^-54 / 13,
    on values of one sign at least _TINY from 0.  A NaN or an infinite ub,
    lo or hi never skips.
    """
    if not (-math.inf < ub < math.inf and -math.inf < lo < math.inf):
        return False
    if hi is None:
        return ub < lo
    if not math.isfinite(hi):
        return False
    least = lo if lo > _TINY else -hi if hi < -_TINY else 0.0
    return least > 0.0 and ub - lo < math.log(least) - _LOG_GAP


def _log_sum_bound(hi: float, ub: float) -> float:
    """An upper bound on np.logaddexp(S, y) for S <= hi and y <= ub.

    The exact log(e^hi + e^ub) is increasing in both, and 1e-12 (1 + |it|)
    is far above what the rounding of np.logaddexp's exp and log1p, or of
    this sum's, can add.  A NaN or an infinite hi or ub gives a NaN or an
    infinity, which no later test skips on.
    """
    t = max(hi, ub) + math.log1p(math.exp(-abs(hi - ub)))
    return t + 1e-12 * (1.0 + abs(t))


def _log_power(sys: SystemSpec, A: PotentialSpec, beta: float,
               n_grid: int) -> tuple[np.ndarray, float, float, int]:
    """The leading eigendata of L_{beta A} that eigenpair and v_beta read.

    The inputs are checked first, so invalid ones raise as the operator
    does.  The solve is then looked up in _solve's memo under the checked
    inputs and the TOL_EIG and MAX_ITER_EIG of this call.
    """
    n_grid = _checked_grid(beta, n_grid)
    return _solve(sys, A, float(beta), n_grid, TOL_EIG, MAX_ITER_EIG)


@functools.lru_cache(maxsize=2)
def _solve(sys: SystemSpec, A: PotentialSpec, beta: float, n_grid: int,
           tol: float, max_iter: int) -> tuple[np.ndarray, float, float, int]:
    """Power iteration in log space with sup normalization: (u, log lambda,
    residual, steps), u the log-eigenfunction with max exactly 0.

    Iterates from the constant function until the relative change of log
    lambda drops below tol.  A call that raises is not stored, and u is
    read-only, so no caller can change a stored result.  The last two
    solves are kept for the run, enough for eigenpair and v_beta at two
    betas in either order; cache_clear empties them.
    """
    op = _Operator(sys, A, beta, n_grid)
    u, spare = np.zeros(n_grid), np.empty(n_grid)  # the steps alternate between the two
    log_lam, converged = math.nan, False
    # a NaN (from beta A, or -inf + inf) makes the step's maximum NaN, which raises
    with np.errstate(invalid="ignore"):
        for it in range(1, max_iter + 1):
            un = op.log_apply(u, out=spare)
            s = float(np.max(un))
            if not math.isfinite(s):
                raise ThermoError(f"power iteration step {it} has maximum {s!r}, not finite")
            un -= s
            spare, u = u, un
            converged = not math.isnan(log_lam) and abs(s - log_lam) <= tol * max(1.0, abs(s))
            log_lam = s
            if converged:
                break
    un = op.log_apply(u, out=spare)
    residual = float(np.max(np.abs(np.exp(un - log_lam) - np.exp(u))))
    if not converged:
        raise ThermoError(f"power iteration did not converge after {max_iter} steps; "
                          f"last residual {residual:.3e}")
    u.flags.writeable = False
    return u, log_lam, residual, it


def eigenpair(sys: SystemSpec, A: PotentialSpec, beta: float,
              n_grid: int = DEFAULT_N_GRID) -> EigenPair:
    """Leading eigenpair by power iteration with sup normalization.

    Iterates from the constant function until the relative eigenvalue
    change drops below TOL_EIG; raises ThermoError with the step count and
    the last residual if MAX_ITER_EIG steps are exhausted first, and at the
    first step whose maximum is not finite (a NaN in beta A, or a maximum
    of -inf), with no RuntimeWarning.  The iteration runs in log space, so
    log_eigenvalue may pass log(float max); eigenvalue is then +inf.  The
    solve is shared with v_beta and kept for the run (see _solve), so
    eigenpair and v_beta at one (sys, A, beta, n_grid) iterate once.
    """
    u, log_lam, residual, it = _log_power(sys, A, beta, n_grid)
    eigenvalue = math.exp(log_lam) if log_lam <= _LOG_MAX else math.inf
    return EigenPair(eigenvalue, log_lam, GridFunction(np.exp(u)), residual, it)


def eigen_measure(sys: SystemSpec, A: PotentialSpec, beta: float,
                  n_grid: int = DEFAULT_N_GRID) -> np.ndarray:
    """Eigen-probability of the adjoint operator (cell masses summing to 1).

    Raises ThermoError, with no RuntimeWarning, on a weight beta A that is
    NaN or whose exponential overflows (adjoint_apply), and at the first
    step whose total mass is not finite and positive.
    """
    op = _Operator(sys, A, beta, n_grid)
    # the steps alternate between v and spare; the change goes through diff
    v, spare, diff = np.full(n_grid, 1.0 / n_grid), np.empty(n_grid), np.empty(n_grid)
    change = math.inf
    with np.errstate(over="ignore"):  # an overflowing mass is +inf, which raises
        for _ in range(MAX_ITER_EIG):
            vn = op.adjoint_apply(v, out=spare)
            tot = float(np.sum(vn))
            if not 0 < tot < math.inf:
                raise ThermoError("adjoint iteration lost positivity or finiteness: "
                                  f"total mass {tot!r}")
            vn /= tot
            np.subtract(vn, v, out=diff)
            np.abs(diff, out=diff)
            change = float(np.max(diff))
            if change <= TOL_MEASURE * np.max(vn):
                return vn
            spare, v = v, vn
    raise ThermoError(f"adjoint iteration did not converge after {MAX_ITER_EIG} steps; "
                      f"last change {change:.3e}")


def v_beta(sys: SystemSpec, A: PotentialSpec, beta: float,
           n_grid: int = DEFAULT_N_GRID) -> GridFunction:
    """(1/beta) log of the leading eigenfunction, normalized to max 0.

    Read straight off eigenpair's log-space solve (shared with it, see
    _solve), so no cell underflows on the way: V_beta stays finite at a
    beta where eigenfunction cells are 0.0.  Raises as eigenpair does.
    """
    if beta <= 0:
        raise ThermoError("v_beta needs beta > 0")
    return GridFunction(_log_power(sys, A, beta, n_grid)[0] / beta)


def gamma_estimate(sys: SystemSpec, A: PotentialSpec, W, beta: float) -> float:
    """(1/beta) log of the kernel normalization integral c_beta.

    c_beta = integral of e^(beta W(x, y)) against the eigen-probabilities
    of A (in x) and of the dual potential of (A, W) (in y), evaluated by
    log-sum-exp over the GAMMA_N_GRID x GAMMA_N_GRID product grid.
    beta must be finite and > 0.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ThermoError(f"gamma_estimate needs a finite beta > 0, got {beta}")
    n_grid = GAMMA_N_GRID
    A_star = dual_potential(sys, A, W)
    nu = eigen_measure(sys, A, beta, n_grid=n_grid)
    nu_star = eigen_measure(sys, A_star, beta, n_grid=n_grid)
    centers = _centers(n_grid)
    logW = beta * W.grid(centers, centers)
    # cells of zero mass (e.g. the Gauss grid below 1/(branch_cap+1)) carry
    # log 0 = -inf, which drops out of the log-sum-exp exactly
    with np.errstate(divide="ignore"):
        log_nu, log_nu_star = np.log(nu), np.log(nu_star)
    m = logW + log_nu[:, None] + log_nu_star[None, :]
    peak = float(np.max(m))
    log_c = peak + math.log(float(np.sum(np.exp(m - peak))))
    return log_c / beta
