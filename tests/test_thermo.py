"""Transfer-operator eigendata and the finite-temperature estimates."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ergotrans import thermo
from ergotrans.dynamics import (DOUBLING, MINUS_DOUBLING, SystemKind, branch_point,
                                gauss_system, inverse_branches)
from ergotrans.involution import quadratic_kernel, KernelSpec
from ergotrans.potentials import (GAUSS_LOG, LINEAR, QUAD_CONVEX, QUAD_DIRAC, QUAD_PERIOD2,
                                  custom_potential, perturbed_potential, polynomial_potential)
from ergotrans.presets import get_preset
from ergotrans.thermo import (
    _BLOCK,
    GridFunction,
    ThermoError,
    _Operator,
    _centers,
    eigen_measure,
    eigenpair,
    gamma_estimate,
    v_beta,
)

A_ZERO = polynomial_potential(0, 0, 0, name="0")
A_SQUARE = polynomial_potential(0, 0, 1)


def ruelle(sys, A, beta, f):
    """One application of the transfer operator to a positive f, in log space."""
    op = _Operator(sys, A, beta, f.n_grid)
    return GridFunction(np.exp(op.log_apply(np.log(f.values))))


class TestRuelleApply:
    def test_zero_potential_counts_branches(self):
        f = GridFunction.constant(1.0, 256)
        out = ruelle(DOUBLING, A_ZERO, 3.7, f)
        np.testing.assert_allclose(out.values, 2.0, rtol=1e-14)

    def test_constant_potential(self):
        beta, c = 2.5, 0.3
        f = GridFunction.constant(1.0, 256)
        out = ruelle(MINUS_DOUBLING, polynomial_potential(c, 0, 0), beta, f)
        np.testing.assert_allclose(out.values, 2.0 * math.exp(beta * c), rtol=1e-13)

    def test_branch_formula_near_zero(self):
        # (L f)(x) = e^{A(tau0 x)} + e^{A(tau1 x)} for f = 1; at x -> 0 this is
        # e^{0.25} + e for A = x^2 under -2x mod 1
        f = GridFunction.constant(1.0, 4096)
        out = ruelle(MINUS_DOUBLING, A_SQUARE, 1.0, f)
        assert abs(out.values[0] - (math.exp(0.25) + math.e)) < 1e-3

    def test_exact_formula_at_centers(self):
        f = GridFunction.constant(1.0, 512)
        out = ruelle(MINUS_DOUBLING, A_SQUARE, 1.0, f)
        c = f.centers
        direct = np.exp(((1 - c) / 2) ** 2) + np.exp(((2 - c) / 2) ** 2)
        np.testing.assert_allclose(out.values, direct, rtol=1e-13)

    def test_positivity_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = GridFunction(rng.uniform(0.5, 1.5, size=128))
            g = GridFunction(f.values + rng.uniform(0.0, 1.0, size=128))
            Lf = ruelle(MINUS_DOUBLING, QUAD_DIRAC, 2.0, f)
            Lg = ruelle(MINUS_DOUBLING, QUAD_DIRAC, 2.0, g)
            assert np.all(Lf.values > 0)
            assert np.all(Lf.values <= Lg.values + 1e-12)


def _plain_applies(op, u):
    """Reference: the unblocked max_apply and log_apply expressions."""
    best, log = None, None
    for logw, (j, th) in zip(op.logw, op.stencil):
        cand = logw + (1.0 - th) * u[j] + th * u[j + 1]
        best = cand if best is None else np.maximum(best, cand)
        term = logw + ((1.0 - th) * u[j] + th * u[j + 1])
        log = term if log is None else np.logaddexp(log, term)
    return best, log


class TestBlockedOperator:
    @pytest.mark.parametrize("n", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("sys, A", [(DOUBLING, QUAD_DIRAC),
                                        (MINUS_DOUBLING, QUAD_PERIOD2),
                                        (gauss_system(30), GAUSS_LOG)])
    def test_applies_equal_plain_expressions(self, sys, A, n):
        op = _Operator(sys, A, 3.0, n)
        rng = np.random.default_rng(n)
        # two inputs on one operator: the second sees the scratch rows the
        # first left behind
        for u in (rng.uniform(-2.0, 1.0, size=n), rng.uniform(-50.0, 0.0, size=n)):
            best, log = _plain_applies(op, u)
            assert np.array_equal(op.max_apply(u), best)
            assert np.array_equal(op.log_apply(u), log)
            out = np.full(n, np.nan)
            assert op.max_apply(u, out=out) is out and np.array_equal(out, best)

    @pytest.mark.parametrize("n", [1, 0])
    def test_fewer_than_two_cells_rejected(self, n):
        with pytest.raises(ThermoError, match="n_grid >= 2"):
            _Operator(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n)
        with pytest.raises(ThermoError, match="n_grid >= 2"):
            eigen_measure(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=n)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("fn", [eigenpair, eigen_measure, v_beta])
    def test_non_finite_or_negative_beta_rejected(self, monkeypatch, fn, beta):
        # a NaN or infinite beta used to run every power step before
        # "did not converge", warning of invalid values on the way
        monkeypatch.setattr(thermo, "MAX_ITER_EIG", 50)
        with pytest.raises(ThermoError, match="beta must be finite and >= 0|beta > 0"):
            fn(MINUS_DOUBLING, QUAD_DIRAC, beta, n_grid=256)

    def test_input_of_other_size_rejected(self):
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 1.0, 64)
        with pytest.raises(ThermoError, match="64 cells"):
            op.max_apply(np.zeros(63))
        with pytest.raises(ThermoError, match="64 cells"):
            op.log_apply(np.zeros(65))

    def test_out_of_other_size_or_overlapping_input_rejected(self):
        # blocks read u after earlier blocks are written, so out may not
        # share memory with u
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 1.0, 64)
        buf = np.zeros(65)
        u = buf[:64]
        for out in (np.empty(63), u, buf[1:]):
            with pytest.raises(ThermoError, match="separate array"):
                op.max_apply(u, out=out)


def _digest(values):
    """sha256 of the little-endian float64 bytes of values."""
    return hashlib.sha256(np.asarray(values).astype("<f8").tobytes()).hexdigest()


GOLDEN_M = get_preset("gauss-golden").m_exact


@pytest.fixture(scope="module")
def gauss_inputs():
    """gauss-golden's beta 64 log-eigenfunction and its Lax-Oleinik fixed
    point, both on 4096 cells, with the beta of the operator each is for."""
    from ergotrans.ergopt import calibrated_subaction

    pre = get_preset("gauss-golden")
    pair = eigenpair(pre.system, pre.potential, 64.0, n_grid=4096)
    V = calibrated_subaction(pre.system, pre.potential, n_grid=4096, m=GOLDEN_M).V
    return {"log-eigenfunction": (np.log(pair.eigenfunction.values), 64.0),
            "subaction": (V.values, 1.0)}


def _skips(op, call):
    """The (block, branch) pairs one call of the operator skips."""
    before = op._skipped
    call()
    return op._skipped - before


class TestGaussSkip:
    """Gauss branches whose terms provably change no bit are skipped: the
    applies must still equal the plain expressions on inputs where they are."""

    @pytest.mark.parametrize("n", [2, 3, 4096, _BLOCK + 1])
    @pytest.mark.parametrize("name", ["log-eigenfunction", "subaction"])
    def test_applies_equal_plain_expressions_while_skipping(self, gauss_inputs, name, n):
        values, beta = gauss_inputs[name]
        u = np.interp(_centers(n), _centers(4096), values)
        op = _Operator(gauss_system(30), GAUSS_LOG, beta, n)
        best, log = _plain_applies(op, u)
        skips = {}
        skips["max"] = _skips(op, lambda: np.testing.assert_array_equal(op.max_apply(u), best))
        skips["log"] = _skips(op, lambda: np.testing.assert_array_equal(op.log_apply(u), log))
        out = np.empty(n)
        skips["step"] = _skips(op, lambda: op.max_step(u, GOLDEN_M, out=out))
        np.testing.assert_array_equal(out, best - GOLDEN_M)
        assert op.top == np.max(best - GOLDEN_M)
        # at beta 1 the branches' log-space terms are too close to skip
        assert skips["max"] > 0 and skips["step"] > 0
        assert (skips["log"] > 0) == (name == "log-eigenfunction")

    @pytest.mark.parametrize("planted", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["log-eigenfunction", "subaction"])
    def test_non_finite_read_reaches_the_output(self, gauss_inputs, name, planted):
        values, beta = gauss_inputs[name]
        op = _Operator(gauss_system(30), GAUSS_LOG, beta, 4096)
        clean = _skips(op, lambda: op.max_apply(values))
        # the last branch reads a window of a few cells near 1/31; it is
        # skipped on the clean input, so the plant must stop that skip
        (_, rows), = op._blocks
        window = rows[-1][1][1]
        u = values.copy()
        u[(window.start + window.stop) // 2] = planted
        # np.logaddexp warns of a NaN it is given, in both expressions alike
        with np.errstate(invalid="ignore"):
            best, log = _plain_applies(op, u)
            assert _skips(op, lambda: np.testing.assert_array_equal(op.max_apply(u), best)) < clean
            np.testing.assert_array_equal(op.log_apply(u), log)
        step = best - GOLDEN_M
        if np.all(np.isfinite(step)):
            # a read of -inf drops out of a maximum with finite terms
            assert planted == -math.inf
            np.testing.assert_array_equal(op.max_step(u, GOLDEN_M), step)
        else:
            with pytest.raises(ThermoError, match="must be finite"):
                op.max_step(u, GOLDEN_M)

    def test_branch_a_hair_above_the_minimum_is_merged(self):
        # branch 1 reads u = 0 all over [1/2, 1]; branch 2 reads a plateau
        # of 1e-3 inside [1/3, 1/2], so its bound tops dst's minimum by 1e-3
        n = 64
        x = _centers(n)
        u = np.where(x >= 0.45, 0.0, np.where(x >= 0.35, 1e-3, -1.0))
        op = _Operator(gauss_system(2), A_ZERO, 1.0, n)
        best, log = _plain_applies(op, u)
        assert np.min(op.logw[0] + u[op.stencil[0][0]]) == 0.0 and np.max(best) > 0.0
        assert np.array_equal(op.max_apply(u), best) and np.array_equal(op.log_apply(u), log)

    def test_log_sum_rising_to_zero_stops_the_skip(self):
        # on the second block (x in [1/2, 1]) branches 1 and 2 read -log 2,
        # so their sum is about 0; branch 3 reads -42 there, which shifts a
        # sum of 0 by e^-42 but would round away from dst's first values
        n = 2 * _BLOCK
        u = np.where(_centers(n) >= 0.3, -math.log(2.0), -42.0)
        op = _Operator(gauss_system(3), A_ZERO, 1.0, n)
        _, log = _plain_applies(op, u)
        (logw, (j, th)), = list(zip(op.logw, op.stencil))[2:]
        first_two = np.logaddexp(*(w + ((1.0 - t) * u[i] + t * u[i + 1])
                                   for w, (i, t) in list(zip(op.logw, op.stencil))[:2]))
        assert not np.array_equal(log[_BLOCK:], first_two[_BLOCK:])
        assert np.array_equal(op.log_apply(u), log)

    def test_term_bound_covers_rounding(self):
        # rounding is monotone, so a term is largest where both reads sit at
        # the window's maximum; both rounding orders stay under the bound,
        # though they exceed the unrounded peak + reach
        rng = np.random.default_rng(7)
        size = 50_000
        peak, reach = (rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-3, 4, size)
                       for _ in range(2))
        th = rng.uniform(0.0, 1.0, size)
        bound = np.array([thermo._term_bound(p, r) for p, r in zip(peak.tolist(), reach.tolist())])
        for terms in (peak + (1.0 - th) * reach + th * reach,
                      peak + ((1.0 - th) * reach + th * reach)):
            assert np.all(terms <= bound) and np.any(terms > peak + reach)

    def test_log_gap_rounds_away(self):
        # the worst term the log-space rule skips leaves the sum's bits as
        # they were, at every scale of sum, powers of two included
        for exponent in range(-300, 301, 7):
            for S in (10.0 ** exponent, -(10.0 ** exponent), 2.0 ** (exponent // 4 * 3)):
                y = S + (math.log(abs(S)) - thermo._LOG_GAP)
                assert np.logaddexp(S, y) == S

    def test_leaves_unchanged_rules(self):
        rule = thermo._leaves_unchanged
        # max-plus: strictly below the minimum, and finite
        assert rule(-1.0, 0.0, None) and not rule(0.0, 0.0, None)
        for ub, lo in ((math.nan, 0.0), (-math.inf, 0.0), (-1.0, math.inf), (-1.0, math.nan)):
            assert not rule(ub, lo, None)
        # log space: values of one sign, at least 1e-300 away from 0
        assert rule(-50.0, 1.0, 2.0) and rule(-50.0, -3.0, -1.0)
        assert not rule(-50.0, -1.0, 1.0) and not rule(-1e5, -1.0, -1e-301)
        assert not rule(-50.0, 1e-301, 2.0)
        assert not rule(-50.0, 1.0, math.inf) and not rule(-50.0, 1.0, math.nan)
        assert not rule(math.nan, 1.0, 2.0) and not rule(-math.inf, 1.0, 2.0)
        # the gap is log|S| - 40 below the minimum
        assert rule(-39.01, 1.0, 2.0) and not rule(-38.99, 1.0, 2.0)

    @pytest.mark.parametrize("n", [2, 3, _BLOCK, 2 * _BLOCK + 3])
    def test_bound_covers_every_read(self, n):
        # each Gauss branch after the first keeps, per block, its largest
        # weight and a window of u holding both cells of every read
        op = _Operator(gauss_system(30), GAUSS_LOG, 64.0, n)
        for cells, rows in op._blocks:
            assert rows[0][1] is None
            for logw, (j, _), (_, (peak, window), *_) in list(zip(op.logw, op.stencil, rows))[1:]:
                assert peak == np.max(logw[cells])
                assert window.start <= np.min(j[cells]) and np.max(j[cells]) + 2 <= window.stop
                assert window.stop <= n

    def test_affine_rows_carry_no_bound(self):
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 64.0, _BLOCK + 1)
        assert all(row[1] is None for _, rows in op._blocks for row in rows)
        op.max_apply(np.zeros(_BLOCK + 1))
        assert op._skipped == 0

    @pytest.mark.parametrize("beta, digest", [
        (8.0, "b24360ee4a0bb3e7591556e558f939c3209dd05054bec234f893a648474eb2c2"),
        (64.0, "34bb599d28740e9ba1296c491820a978b44c227fafbe092189f79e4b09416362"),
    ])
    def test_eigenpair_pinned_at_4096(self, beta, digest):
        # sha256 of the eigenfunction's values followed by log_eigenvalue,
        # computed before any branch was skipped: the skip must keep them
        # to the last bit
        pre = get_preset("gauss-golden")
        pair = eigenpair(pre.system, pre.potential, beta, n_grid=4096)
        assert _digest(np.append(pair.eigenfunction.values, pair.log_eigenvalue)) == digest


def _exact_stencil(sys, n, cells):
    """Reference: the (j, th) of the given cells from their branch images in Fractions."""
    out = []
    for k in range(2):
        j, th = [], []
        for i in cells:
            t = branch_point(sys, k, Fraction(2 * i + 1, 2 * n)) * n - Fraction(1, 2)
            j.append(min(max(math.floor(t), 0), n - 2))
            th.append(min(max(t - j[-1], 0), 1))
        out.append((j, th))
    return out


def _float_stencil(sys, n):
    """Reference: every cell's (j, th) from its float branch image, as first written."""
    out = []
    for _, p in inverse_branches(sys, (np.arange(n) + 0.5) / n):
        t = p * n - 0.5
        j = np.clip(np.floor(t).astype(int), 0, n - 2)
        out.append((j, np.clip(t - j, 0.0, 1.0)))
    return out


def _held_bytes(op):
    """Bytes of the arrays an operator holds, each buffer once."""
    seen, todo, total = set(), list(vars(op).values()), 0
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, np.ndarray):
            while x.base is not None:
                x = x.base
            if id(x) not in seen:
                seen.add(id(x))
                total += x.nbytes
    return total


EXACT_SIZES = sorted({2, 3, 15, 16, 17, 1000, 4099, 16383, _BLOCK - 1, _BLOCK + 1,
                      3 * _BLOCK + 5})


def _checked_cells(n):
    """Every cell up to 4099 cells; above, a Fraction reference of every cell
    takes seconds, so the outer cells, both sides of every block boundary and
    2000 random cells."""
    if n <= 4099:
        return np.arange(n)
    edges = [c for s in range(0, n + 1, _BLOCK) for c in range(s - 2, s + 2)]
    rng = np.random.default_rng(n)
    return np.unique(np.clip(np.concatenate([edges, rng.integers(0, n, 2000)]), 0, n - 1))


class TestAffineStencil:
    @pytest.mark.parametrize("n", EXACT_SIZES)
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=["2x", "-2x"])
    def test_stencil_is_exact(self, sys, n):
        op, cells = _Operator(sys, QUAD_DIRAC, 1.0, n), _checked_cells(n)
        for (j, th), (exact_j, exact_th) in zip(op.stencil, _exact_stencil(sys, n, cells)):
            assert j[cells].tolist() == exact_j
            # th is a multiple of 1/4, so the float must equal it exactly
            assert [Fraction(t) for t in th[cells].tolist()] == exact_th
            # one read per branch is clipped, at an outer cell, and every
            # other th is 1/4 or 3/4
            clipped = np.flatnonzero((th == 0.0) | (th == 1.0)).tolist()
            assert clipped in ([0], [n - 1])
            assert np.all((th == 0.25) | (th == 0.75) | (th == 0.0) | (th == 1.0))
        # every block reads both branches by strided slices, with no gather
        assert not any(gathers for _, rows in op._blocks for *_, gathers, _ in rows)

    @pytest.mark.parametrize("n", [1 << k for k in range(1, 17)])
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=["2x", "-2x"])
    def test_power_of_two_grid_equals_float_stencil(self, sys, n):
        # on a power-of-two grid every float branch image is exact, so the
        # stencil, and with it every output byte, is the one first written
        op = _Operator(sys, QUAD_DIRAC, 1.0, n)
        for (j, th), (float_j, float_th) in zip(op.stencil, _float_stencil(sys, n)):
            assert np.array_equal(j, float_j) and np.array_equal(th, float_th)

    @pytest.mark.parametrize("n", [n for n in EXACT_SIZES if n & (n - 1)])
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=["2x", "-2x"])
    def test_other_grid_differs_from_float_stencil_by_rounding_only(self, sys, n):
        # elsewhere the float images round: j is the same, and th is off by
        # at most the rounding of the image, scaled by n
        op = _Operator(sys, QUAD_DIRAC, 1.0, n)
        for (j, th), (float_j, float_th) in zip(op.stencil, _float_stencil(sys, n)):
            assert np.array_equal(j, float_j)
            assert np.max(np.abs(th - float_th)) <= n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 3, 17, 2048, 4099, 1 << 16])
    def test_gauss_keeps_float_stencil(self, n):
        op = _Operator(gauss_system(30), GAUSS_LOG, 1.0, n)
        assert op.stencil is op._gauss
        for (j, th), (float_j, float_th) in zip(op.stencil, _float_stencil(gauss_system(30), n)):
            assert np.array_equal(j, float_j) and np.array_equal(th, float_th)

    @pytest.mark.parametrize("n", EXACT_SIZES)
    @pytest.mark.parametrize("beta", [1.0, 3.0])
    @pytest.mark.parametrize("A", [QUAD_DIRAC, QUAD_PERIOD2, QUAD_CONVEX, LINEAR],
                             ids=lambda A: A.name)
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=["2x", "-2x"])
    def test_applies_equal_plain_expressions(self, sys, A, beta, n):
        op = _Operator(sys, A, beta, n)
        rng = np.random.default_rng(n)
        for u in (rng.uniform(-2.0, 1.0, size=n), rng.uniform(-50.0, 0.0, size=n)):
            best, log = _plain_applies(op, u)
            assert np.array_equal(op.max_apply(u), best)
            assert np.array_equal(op.log_apply(u), log)

    def test_no_per_cell_arrays_besides_logw(self):
        # besides the weights of each branch (n floats), an affine operator
        # holds scratch of about five blocks; a Gauss one also keeps the
        # float (j, th) of every branch
        n = 1 << 16
        for sys in (DOUBLING, MINUS_DOUBLING):
            assert _held_bytes(_Operator(sys, QUAD_DIRAC, 1.0, n)) - 2 * n * 8 < 6 * _BLOCK * 8
        op = _Operator(gauss_system(4), GAUSS_LOG, 1.0, n)
        assert _held_bytes(op) - 4 * n * 8 >= 4 * 2 * n * 8
        assert all(j.size == th.size == n for j, th in op._gauss)


def _whole_array_build(sys, A, beta, n):
    """Reference: the weights and stencil of every branch from whole-grid
    arrays, as the operator once built them."""
    logw, stencil = [], []
    for k, p in inverse_branches(sys, (np.arange(n) + 0.5) / n):
        logw.append(beta * np.asarray(A(p), dtype=float))
        if sys.kind is SystemKind.GAUSS:
            t = p * n - 0.5
            j = np.clip(np.floor(t), 0, n - 2)
            stencil.append((j.astype(np.intp), np.clip(t - j, 0.0, 1.0)))
        else:
            s, c = (-1, 1 + k) if sys is MINUS_DOUBLING else (1, k)
            q = s * (2 * np.arange(n) + 1) + 2 * c * n - 2
            j = np.clip(q // 4, 0, n - 2)
            stencil.append((j, np.clip((q - 4 * j) / 4, 0.0, 1.0)))
    return logw, stencil


# A with a transcendental term, evaluated block by block like any A
A_SINE = perturbed_potential(QUAD_DIRAC, custom_potential(np.sin, "sin(x)", 1.0), 0.25)


class TestBlockedBuild:
    @pytest.mark.parametrize("n", [2, 3, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING, gauss_system(1), gauss_system(7),
                                     gauss_system(30)],
                             ids=["2x", "-2x", "gauss1", "gauss7", "gauss30"])
    def test_equals_whole_array_build(self, sys, n):
        for A in (QUAD_DIRAC, LINEAR, GAUSS_LOG, A_SINE):
            for beta in (0, 1, 64):
                op = _Operator(sys, A, beta, n)
                logw, stencil = _whole_array_build(sys, A, beta, n)
                assert len(op.logw) == len(logw)
                for w, ref in zip(op.logw, logw):
                    assert w.tobytes() == ref.tobytes()
                for (j, th), (ref_j, ref_th) in zip(op.stencil, stencil):
                    assert np.array_equal(j, ref_j) and th.tobytes() == ref_th.tobytes()

    @pytest.mark.parametrize("sys", [DOUBLING, MINUS_DOUBLING], ids=["2x", "-2x"])
    def test_build_makes_no_grid_sized_temporary(self, sys):
        # the build's peak exceeds what the operator then holds by a few
        # blocks at any grid size; built from whole-grid arrays it exceeded
        # it by about 61 blocks at this size
        n = 1 << 18
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            op = _Operator(sys, QUAD_DIRAC, 1.0, n)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert held - before >= 2 * n * 8 and op.n_grid == n
        assert peak - held < 8 * _BLOCK * 8


def _plain_adjoint(op, v):
    """The adjoint as first written: weights recomputed on every apply."""
    out = np.zeros_like(v)
    for logw, (j, th) in zip(op.logw, op.stencil):
        contrib = np.exp(logw) * v
        np.add.at(out, j, (1.0 - th) * contrib)
        np.add.at(out, j + 1, th * contrib)
    return out


class TestAdjoint:
    @pytest.mark.parametrize("n", [2, 512, 4096])
    @pytest.mark.parametrize("sys, A, beta", [(DOUBLING, QUAD_DIRAC, 8.0),
                                              (MINUS_DOUBLING, QUAD_PERIOD2, 64.0),
                                              (gauss_system(30), GAUSS_LOG, 8.0)])
    def test_equals_plain_expression(self, sys, A, beta, n):
        op = _Operator(sys, A, beta, n)
        # every branch sends several cells to one target cell, so the
        # scatter order of np.add.at is exercised
        if n > 2:
            assert all(np.unique(j).size < j.size for j, _ in op.stencil)
        rng = np.random.default_rng(n)
        # the second apply reuses the weights the first one built
        for v in (rng.uniform(0.0, 1.0, size=n), rng.uniform(0.0, 1e-3, size=n)):
            assert np.array_equal(op.adjoint_apply(v), _plain_adjoint(op, v))

    def test_writes_into_out_without_allocating(self):
        n = 4096
        op = _Operator(gauss_system(30), GAUSS_LOG, 8.0, n)
        v, out = np.random.default_rng(1).uniform(0.0, 1.0, size=n), np.full(n, np.nan)
        assert op.adjoint_apply(v, out=out) is out
        assert np.array_equal(out, _plain_adjoint(op, v))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            op.adjoint_apply(v, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        # the products go through the two rows kept with the weights
        assert peak - before < n * 8
        assert np.array_equal(out, _plain_adjoint(op, v))

    def test_out_of_other_size_or_overlapping_input_rejected(self):
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 1.0, 64)
        v = np.ones(64)
        for out in (np.empty(63), v, v[:]):
            with pytest.raises(ThermoError, match="separate array"):
                op.adjoint_apply(v, out=out)
        with pytest.raises(ThermoError, match="64 cells"):
            op.adjoint_apply(np.ones(65))

    def test_weights_built_only_when_applied(self):
        op = _Operator(MINUS_DOUBLING, QUAD_DIRAC, 1.0, 64)
        op.max_apply(np.zeros(64))
        assert op._adjoint is None
        op.adjoint_apply(np.ones(64))
        assert len(op._adjoint) == 2

    def test_nonconvergence_raises_with_change(self, monkeypatch):
        monkeypatch.setattr(thermo, "MAX_ITER_EIG", 3)
        with pytest.raises(ThermoError, match="after 3 steps; last change"):
            eigen_measure(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=512)


def test_sup_diff_is_max_abs_difference():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=1000), rng.normal(size=1000)
    a0, b0 = a.copy(), b.copy()
    assert GridFunction(a).sup_diff(GridFunction(b)) == np.max(np.abs(a - b))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


class TestGridFunctionEquality:
    # the dataclass-generated __eq__ compared the arrays inside a tuple and
    # raised ValueError for any two distinct arrays of 2 or more cells
    def test_equal_values_are_equal(self):
        a, b = GridFunction(np.arange(5.0)), GridFunction(np.arange(5.0))
        assert a == b and not a != b

    def test_other_values_or_size_differ(self):
        a = GridFunction(np.arange(5.0))
        assert a != GridFunction(np.arange(5.0) + 1e-12)
        assert a != GridFunction(np.arange(6.0))
        assert a != [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_not_hashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(GridFunction(np.arange(5.0)))

    def test_eigenpairs_compare_by_value(self):
        pair = eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=256)
        assert pair == pair
        assert pair == eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=256)
        assert pair != eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 4.0, n_grid=256)


class TestEigenpair:
    def test_zero_potential(self):
        pair = eigenpair(DOUBLING, A_ZERO, 1.0, n_grid=256)
        assert abs(pair.eigenvalue - 2.0) < 1e-12
        np.testing.assert_allclose(pair.eigenfunction.values, 1.0, atol=1e-12)
        assert pair.residual < 1e-10

    def test_constant_shift(self):
        beta, c = 4.0, -0.2
        pair = eigenpair(MINUS_DOUBLING, polynomial_potential(c, 0, 0), beta, n_grid=256)
        assert abs(pair.eigenvalue - 2.0 * math.exp(beta * c)) < 1e-10

    def test_pressure_near_critical_value(self):
        pair = eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=2048)
        assert abs(pair.log_eigenvalue / 8.0 - (-1.0 / 9.0)) < 0.1

    def test_log_eigenvalue_convex_in_beta(self):
        betas = [2.0, 4.0, 6.0, 8.0, 10.0]
        logs = [eigenpair(MINUS_DOUBLING, QUAD_PERIOD2, b, n_grid=1024).log_eigenvalue
                for b in betas]
        for i in range(len(betas) - 2):
            mid = 0.5 * (logs[i] + logs[i + 2])
            assert logs[i + 1] <= mid + 1e-6

    def test_pressure_error_nonincreasing(self):
        m = -1.0 / 9.0
        errs = []
        for beta in (4.0, 8.0, 16.0, 32.0, 64.0):
            pair = eigenpair(MINUS_DOUBLING, QUAD_DIRAC, beta, n_grid=2048)
            errs.append(abs(pair.log_eigenvalue / beta - m))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-9

    def test_residual_below_default_tolerance(self):
        pair = eigenpair(MINUS_DOUBLING, QUAD_PERIOD2, 16.0, n_grid=1024)
        assert pair.residual < 1e-10

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        # A = x^2 at large beta has a near-degenerate leading pair (the
        # boundary two-cycle), so plain power iteration never settles;
        # QUAD_DIRAC at beta 8 settles in 33 steps, so a cap of 3 stops it first
        for cap, A, beta in ((2000, A_SQUARE, 32.0), (3, QUAD_DIRAC, 8.0)):
            monkeypatch.setattr(thermo, "MAX_ITER_EIG", cap)
            with pytest.raises(ThermoError, match=f"after {cap} steps; last residual"):
                eigenpair(MINUS_DOUBLING, A, beta, n_grid=512)

    def test_iterations_count_power_steps(self, monkeypatch):
        applies = []
        plain = _Operator.log_apply

        def counting(self, u, **kwargs):
            applies.append(1)
            return plain(self, u, **kwargs)

        monkeypatch.setattr(_Operator, "log_apply", counting)
        pair = eigenpair(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=512)
        # one more apply after the loop measures the residual
        assert pair.iterations == len(applies) - 1
        assert pair.iterations > 1


A_NAN_TOP = custom_potential(lambda x: np.where(np.asarray(x) > 0.9, np.nan, np.asarray(x, float)),
                             "x, NaN above 0.9", 1.0)


class TestNonFinite:
    """Power iterations stop, with no RuntimeWarning, at the first value
    that is not finite; a cap of 50 steps keeps a run that does not stop
    from looking like one that does."""

    def test_log_max_is_the_overflow_threshold(self):
        top = thermo._LOG_MAX
        assert math.isfinite(math.exp(top)) and np.isfinite(np.exp(top))
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(top, math.inf))

    def test_eigenvalue_past_float_max_is_inf(self):
        # A = 20 x on -2x at beta 64: log lambda = 853.33 > log(float max)
        A = polynomial_potential(0, 20, 0)
        pair = eigenpair(MINUS_DOUBLING, A, 64.0, n_grid=256)
        assert pair.eigenvalue == math.inf
        assert pair.log_eigenvalue == pytest.approx(853.33, abs=0.01)
        vb = v_beta(MINUS_DOUBLING, A, 64.0, n_grid=256)
        assert np.max(vb.values) == 0.0
        np.testing.assert_array_equal(vb.values, v_beta(MINUS_DOUBLING, A, 64.0, n_grid=256).values)

    @pytest.mark.parametrize("A, top", [
        (A_NAN_TOP, "nan"),
        (custom_potential(lambda x: np.full(np.shape(x), -np.inf), "-inf", 1.0), "-inf"),
    ], ids=["nan", "-inf"])
    def test_eigenpair_raises_at_first_nonfinite_maximum(self, monkeypatch, A, top):
        monkeypatch.setattr(thermo, "MAX_ITER_EIG", 50)
        for f in (eigenpair, v_beta):
            with pytest.raises(ThermoError, match=f"step 1 has maximum {top}, not finite"):
                f(MINUS_DOUBLING, A, 8.0, n_grid=256)

    @pytest.mark.parametrize("A, beta, top", [
        (A_NAN_TOP, 8.0, "nan"),
        # e^(64 * 12 x) overflows above x = 0.924
        (polynomial_potential(0, 12, 0), 64.0, "767.25"),
    ], ids=["nan", "overflow"])
    def test_eigen_measure_rejects_weights_before_exp(self, monkeypatch, A, beta, top):
        monkeypatch.setattr(thermo, "MAX_ITER_EIG", 50)
        with pytest.raises(ThermoError, match=f"beta A reaches {top}: e\\^\\(beta A\\) is not"):
            eigen_measure(MINUS_DOUBLING, A, beta, n_grid=256)

    def test_eigen_measure_raises_on_overflowing_mass(self, monkeypatch):
        # weights e^709.5 are finite, the two branches' total mass is not
        monkeypatch.setattr(thermo, "MAX_ITER_EIG", 50)
        with pytest.raises(ThermoError, match="total mass inf"):
            eigen_measure(MINUS_DOUBLING, polynomial_potential(Fraction(1419, 2), 0, 0), 1.0,
                          n_grid=256)


class TestVBeta:
    def test_zero_potential_vanishes(self):
        vb = v_beta(DOUBLING, A_ZERO, 4.0, n_grid=256)
        np.testing.assert_allclose(vb.values, 0.0, atol=1e-12)

    def test_approaches_closed_form_subaction(self):
        closed = lambda x: -x * x / 3 + 2 * x / 9
        sups = []
        for beta in (8.0, 32.0):
            vb = v_beta(MINUS_DOUBLING, QUAD_DIRAC, beta, n_grid=1024)
            t = closed(vb.centers)
            t -= t.max()
            sups.append(float(np.max(np.abs(vb.values - t))))
        assert sups[1] < sups[0]

    def test_cross_module_consistency(self):
        # V_beta at beta = 16 sits near the converged max-plus subaction
        from ergotrans.ergopt import calibrated_subaction

        vb = v_beta(MINUS_DOUBLING, QUAD_DIRAC, 16.0, n_grid=1024)
        res = calibrated_subaction(MINUS_DOUBLING, QUAD_DIRAC, n_grid=1024, max_period=4)
        assert vb.sup_diff(res.V) < 0.15

    def test_square_potential_selects_boundary_cycle(self):
        # A = x^2 has A(1) > A(0): orbits of the mod-1 map shadowing the
        # boundary two-cycle {0, 1} push the pressure to 1/2, above the
        # fixed-point value A(2/3) = 4/9.  The operator sees the same
        # structure the periodic enumeration finds.
        pair = eigenpair(MINUS_DOUBLING, A_SQUARE, 16.0, n_grid=1024)
        assert pair.log_eigenvalue / 16.0 > 4.0 / 9.0 + 0.02
        assert pair.log_eigenvalue / 16.0 < 0.52


class TestGammaEstimate:
    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_beta_not_finite_positive_rejected_before_any_work(self, monkeypatch, beta):
        # beta 0 used to build A* and both eigen-measures, then divide by zero
        def no_work(*args):
            raise AssertionError("gamma_estimate worked before checking beta")

        monkeypatch.setattr(thermo, "dual_potential", no_work)
        with pytest.raises(ThermoError, match="finite beta > 0"):
            gamma_estimate(MINUS_DOUBLING, QUAD_DIRAC, quadratic_kernel(0, 2, -1), beta)

    def test_zero_kernel(self, monkeypatch):
        monkeypatch.setattr(thermo, "GAMMA_N_GRID", 128)
        W0 = KernelSpec(lambda x, y: 0.0 * (np.asarray(x) + np.asarray(y)), "0")
        g = gamma_estimate(MINUS_DOUBLING, A_ZERO, W0, 8.0)
        assert abs(g) < 1e-12

    def test_constant_kernel(self, monkeypatch):
        monkeypatch.setattr(thermo, "GAMMA_N_GRID", 128)
        k = -0.7
        Wk = KernelSpec(lambda x, y: k + 0.0 * (np.asarray(x) + np.asarray(y)), "k")
        g = gamma_estimate(MINUS_DOUBLING, A_ZERO, Wk, 8.0)
        assert abs(g - k) < 1e-12

    def test_quadratic_example_vs_support_identity(self):
        W = quadratic_kernel(0, 1, -1)
        g = gamma_estimate(MINUS_DOUBLING, QUAD_PERIOD2, W, 32.0)
        assert abs(g - (-4.0 / 27.0)) < 0.1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [8.0, 64.0])
    def test_gauss_zero_mass_cells_do_not_warn(self, beta):
        # cells below 1/(branch_cap+1) get no mass; their log is -inf
        pre = get_preset("gauss-golden")
        nu = eigen_measure(pre.system, pre.potential, beta, n_grid=512)
        assert np.any(nu == 0.0)
        g = gamma_estimate(pre.system, pre.potential, pre.kernel, beta)
        assert abs(g - pre.gamma_exact) < 1e-3


def test_eigen_measure_is_probability():
    nu = eigen_measure(MINUS_DOUBLING, QUAD_DIRAC, 8.0, n_grid=512)
    assert abs(float(nu.sum()) - 1.0) < 1e-12
    assert np.all(nu > 0)

