"""Direct SPD solves, the CG fallback, and its iteration bound."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from pathode import (
    NotPositiveDefiniteError,
    cg_iteration_bound,
    cg_solve,
    solve_diag_lowrank,
    solve_spd,
)


def random_spd(dim, seed, cond=50.0):
    rng = np.random.Generator(np.random.Philox(seed))
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    evals = np.geomspace(1.0, cond, dim)
    H = Q @ np.diag(evals) @ Q.T
    g = rng.normal(size=dim)
    return H, g


class TestSolveSpd:
    def test_identity(self):
        res = solve_spd(np.eye(2), np.array([3.0, -1.0]))
        assert np.allclose(res.direction, [-3.0, 1.0])
        assert res.inner_iterations == 0

    def test_diagonal(self):
        res = solve_spd(np.diag([1.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(res.direction, [-2.0, -2.0])

    def test_two_by_two(self):
        # H = [[2,1],[1,2]], g = (3,3): solution of H y = -g is (-1,-1)
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = solve_spd(H, np.array([3.0, 3.0]))
        assert np.allclose(res.direction, [-1.0, -1.0], rtol=1e-14)

    def test_residual_certificate(self):
        H, g = random_spd(12, 21)
        res = solve_spd(H, g)
        true_res = np.linalg.norm(H @ res.direction + g)
        assert res.residual_norm == pytest.approx(true_res, rel=1e-12, abs=1e-15)
        assert res.residual_norm <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(-np.eye(3), np.ones(3))

    @pytest.mark.parametrize("dim", [1, 2, 20, 200])
    def test_bit_identical_to_scipy_cholesky(self, dim):
        # the raw LAPACK calls are the ones cho_factor/cho_solve make, and the
        # norms are the dot-product sqrt that np.linalg.norm takes
        for seed in range(40, 45):
            H, g = random_spd(dim, seed + dim)
            res = solve_spd(H, g)
            assert np.array_equal(res.direction, cho_solve(cho_factor(H, lower=True), -g))
            assert res.residual_norm == np.linalg.norm(H @ res.direction + g)
            assert res.initial_residual == np.linalg.norm(g)


def _poke(H, g, where, value):
    H, g = H.copy(), g.copy()
    if where == "g":
        g[2] = value
    else:
        H[where] = value
    return H, g


class TestSolveSpdFailures:
    """Bad systems raise the documented class, warn nothing and write nothing."""

    @pytest.mark.parametrize(
        "where, value",
        [
            ((3, 1), np.nan),  # lower triangle, read by the factorization
            ((1, 3), np.nan),  # upper triangle only, never factored
            ((2, 2), np.inf),  # diagonal
            ("g", np.nan),
            ("g", -np.inf),
        ],
    )
    def test_nonfinite_input_rejected(self, where, value):
        H, g = _poke(*random_spd(5, 61), where, value)
        H0, g0 = H.copy(), g.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite") as info:
                solve_spd(H, g)
        assert not isinstance(info.value, NotPositiveDefiniteError)
        assert np.array_equal(H, H0, equal_nan=True) and np.array_equal(g, g0, equal_nan=True)

    def test_nonfinite_upper_entry_facing_a_zero_of_the_solution(self):
        # y = (-1, 0, 0): the NaN at H[0, 1] meets y[1] = 0 in H y + g
        H = np.diag([1.0, 2.0, 3.0])
        H[0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                solve_spd(H, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "H", [-np.eye(4), np.zeros((4, 4)), np.diag([2.0, 1.0, -1.0, 3.0])],
        ids=["minus-identity", "zeros", "indefinite-diagonal"],
    )
    def test_not_positive_definite_rejected(self, H):
        g = np.arange(1.0, 5.0)
        H0, g0 = H.copy(), g.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError):
                solve_spd(H, g)
        assert np.array_equal(H, H0) and np.array_equal(g, g0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_success_leaves_inputs_unwritten(self, order):
        # a Fortran-ordered H is the one LAPACK could factor in place
        H, g = random_spd(20, 62)
        H = np.asarray(H, order=order)
        H0, g0 = H.copy(), g.copy()
        solve_spd(H, g)
        assert np.array_equal(H, H0) and np.array_equal(g, g0)


def random_diag_lowrank(dim, rank, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    d = rng.uniform(0.5, 4.0, size=dim)
    V = rng.normal(size=(dim, rank))
    g = rng.normal(size=dim)
    return d, V, g


class TestSolveDiagLowrank:
    @pytest.mark.parametrize("dim, rank", [(1, 1), (1, 2), (5, 2), (40, 6), (200, 6)])
    def test_matches_cholesky_of_the_assembled_matrix(self, dim, rank):
        d, V, g = random_diag_lowrank(dim, rank, 70 + dim)
        H = np.diag(d) + V @ V.T
        res = solve_diag_lowrank(d, V, g)
        ref = solve_spd(H, g)
        err = np.linalg.norm(res.direction - ref.direction)
        assert err <= 1e-12 * np.linalg.norm(ref.direction)
        assert res.inner_iterations == 0 and res.converged
        assert res.initial_residual == np.linalg.norm(g)

    def test_residual_certificate_is_explicit(self):
        d, V, g = random_diag_lowrank(30, 4, 71)
        res = solve_diag_lowrank(d, V, g)
        y = res.direction
        assert np.array_equal(res.residual_vector, d * y + V @ (V.T @ y) + g)
        assert res.residual_norm == np.linalg.norm(res.residual_vector)
        H = np.diag(d) + V @ V.T
        assert res.residual_norm == pytest.approx(np.linalg.norm(H @ y + g), abs=1e-13)

    def test_diagonal_only(self):
        # V = 0 leaves y = -g / d exactly
        d, g = np.array([2.0, 4.0, 8.0]), np.array([2.0, -4.0, 1.0])
        res = solve_diag_lowrank(d, np.zeros((3, 2)), g)
        assert np.array_equal(res.direction, [-1.0, 1.0, -0.125])
        assert res.residual_norm == 0.0

    @pytest.mark.parametrize("d_shape, V_shape", [((3,), (4, 2)), ((3, 1), (3, 2)), ((3,), (3,))])
    def test_shape_mismatch_rejected(self, d_shape, V_shape):
        with pytest.raises(ValueError, match="shape"):
            solve_diag_lowrank(np.ones(d_shape), np.ones(V_shape), np.ones(3))


class TestSolveDiagLowrankFailures:
    """The solve_spd failure contract: same classes, no warnings, inputs unwritten."""

    @staticmethod
    def _call(d, V, g):
        d0, V0, g0 = d.copy(), V.copy(), g.copy()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return solve_diag_lowrank(d, V, g)
        finally:
            assert np.array_equal(d, d0, equal_nan=True)
            assert np.array_equal(V, V0, equal_nan=True)
            assert np.array_equal(g, g0, equal_nan=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["d", "V", "V-last-column", "g"])
    def test_nonfinite_input_rejected(self, where, value):
        d, V, g = random_diag_lowrank(6, 3, 72)
        target = {"d": d, "V": V, "V-last-column": V, "g": g}[where]
        index = {"d": 2, "V": (4, 0), "V-last-column": (1, 2), "g": 3}[where]
        target[index] = value
        with pytest.raises(ValueError, match="non-finite") as info:
            self._call(d, V, g)
        assert not isinstance(info.value, NotPositiveDefiniteError)

    def test_nonfinite_beats_nonpositive(self):
        # a system that is both non-finite and indefinite reports the former, as solve_spd does
        d, V, g = random_diag_lowrank(5, 2, 73)
        d[0], V[3, 1] = -1.0, np.nan
        with pytest.raises(ValueError, match="non-finite") as info:
            self._call(d, V, g)
        assert not isinstance(info.value, NotPositiveDefiniteError)

    @pytest.mark.parametrize(
        "d",
        [
            np.array([1.0, 0.0, 2.0, 3.0]),
            np.array([1.0, 2.0, -1e-300, 3.0]),
            np.array([-1.0, -2.0, -3.0, -4.0]),
            np.zeros(4),
        ],
        ids=["zero", "tiny-negative", "negative", "zeros"],
    )
    def test_nonpositive_diagonal_rejected(self, d):
        # V V' could make some of these matrices SPD, but Woodbury needs D > 0
        V = np.full((4, 2), 10.0)
        with pytest.raises(NotPositiveDefiniteError):
            self._call(d, V, np.arange(1.0, 5.0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_success_leaves_inputs_unwritten(self, order):
        d, V, g = random_diag_lowrank(20, 4, 74)
        res = self._call(d, np.asarray(V, order=order), g)
        assert np.isfinite(res.residual_norm)


class TestCgSolve:
    def test_warm_start_already_feasible(self):
        H, g = random_spd(8, 22)
        exact = np.linalg.solve(H, -g)
        res = cg_solve(lambda v: H @ v, g, exact, delta=1e-8, max_iters=100)
        assert res.inner_iterations == 0
        assert np.array_equal(res.direction, exact)
        assert res.converged

    def test_identity_one_iteration(self):
        g = np.array([2.0, -1.0, 0.5])
        res = cg_solve(lambda v: v, g, np.zeros(3), delta=1e-12, max_iters=10)
        assert res.inner_iterations == 1
        assert np.allclose(res.direction, -g, rtol=1e-14)

    def test_two_eigenvalues_two_iterations(self):
        # CG terminates in as many iterations as distinct eigenvalues
        H = np.diag([1.0, 1.0, 4.0, 4.0])
        g = np.array([1.0, 2.0, 3.0, 4.0])
        res = cg_solve(lambda v: H @ v, g, np.zeros(4), delta=1e-10, max_iters=50)
        assert res.inner_iterations <= 2
        assert np.allclose(res.direction, np.linalg.solve(H, -g), atol=1e-10)

    def test_matches_direct_solve(self):
        H, g = random_spd(10, 23)
        res = cg_solve(lambda v: H @ v, g, np.zeros(10), delta=1e-12, max_iters=200)
        assert res.converged
        assert np.allclose(res.direction, np.linalg.solve(H, -g), atol=1e-8)

    def test_reported_residual_is_true_residual(self):
        H, g = random_spd(10, 24)
        res = cg_solve(lambda v: H @ v, g, np.zeros(10), delta=1e-6, max_iters=200)
        assert np.linalg.norm(H @ res.direction + g) == pytest.approx(res.residual_norm, rel=1e-9)
        assert res.residual_norm <= 1e-6

    def test_residual_vector_field(self):
        H, g = random_spd(6, 25)
        res = cg_solve(lambda v: H @ v, g, np.zeros(6), delta=1e-8, max_iters=100)
        assert np.allclose(res.residual_vector, H @ res.direction + g, atol=1e-10)

    def test_initial_residual_recorded(self):
        H, g = random_spd(6, 26)
        res = cg_solve(lambda v: H @ v, g, np.zeros(6), delta=1e-8, max_iters=100)
        assert res.initial_residual == pytest.approx(np.linalg.norm(g), rel=1e-14)

    def test_exhaustion_returns_unconverged(self):
        H, g = random_spd(12, 27, cond=1e4)
        res = cg_solve(lambda v: H @ v, g, np.zeros(12), delta=1e-14, max_iters=2)
        assert not res.converged
        assert res.inner_iterations == 2

    def test_iterations_within_bound(self):
        for seed in range(28, 33):
            H, g = random_spd(15, seed, cond=300.0)
            kappa = 300.0
            delta = 1e-7
            res = cg_solve(lambda v: H @ v, g, np.zeros(15), delta=delta, max_iters=1000)
            assert res.converged
            assert res.inner_iterations <= cg_iteration_bound(kappa, res.initial_residual, delta)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        log_cond=st.floats(0.0, 10.0),
        log_delta=st.floats(-14.0, 1.0),
        max_iters=st.integers(0, 60),
        warm=st.booleans(),
    )
    def test_converged_means_the_residual_is_within_delta(
        self, dim, seed, log_cond, log_delta, max_iters, warm
    ):
        H, g = random_spd(dim, seed, cond=10.0**log_cond)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        start = rng.normal(size=dim) if warm else np.zeros(dim)
        delta = 10.0**log_delta
        res = cg_solve(lambda v: H @ v, g, start, delta, max_iters)
        assert res.converged == (res.residual_norm <= delta)
        if res.converged:
            assert np.linalg.norm(H @ res.direction + g) <= delta

    def test_nonfinite_operator_rejected(self):
        def bad(v):
            return np.full_like(v, np.nan)

        with pytest.raises(ValueError):
            cg_solve(bad, np.ones(3), np.zeros(3), delta=1e-6, max_iters=10)


class TestIterationBound:
    def test_already_converged_is_zero(self):
        # r0 <= delta needs no iterations
        assert cg_iteration_bound(100.0, 1e-8, 1e-6) == 0

    def test_kappa_one_small_start(self):
        # (sqrt(1)+1)/2 * ln(2 * 1 * 2) = ln 4 = 1.386 -> 2
        assert cg_iteration_bound(1.0, 2e-4, 1e-4) == 2

    def test_moderate_condition_number(self):
        # (10+1)/2 * ln(2 * 10 * 1e4) = 5.5 * 12.206 = 67.13 -> 68
        assert cg_iteration_bound(100.0, 1.0, 1e-4) == 68

    def test_monotone_in_kappa(self):
        bounds = [cg_iteration_bound(k, 1.0, 1e-6) for k in (2.0, 10.0, 100.0, 1000.0)]
        assert bounds == sorted(bounds)
