"""Grid-search baselines: geometry, sizing, inner solvers, and counters."""

import numpy as np
import pytest

from pathode import gridsearch
from pathode import (
    DegenerateProblemError,
    GridSearchConfig,
    MaxIterationsError,
    OracleCounters,
    PathRunError,
    PiecewiseConstantPath,
    TheoryConstants,
    agd_inner,
    k_grid,
    lambda_schedule,
    make_logistic_reweighted,
    make_quadratic_ridge,
    quadratic_theory_constants,
    solve_grid,
)
from pathode.datasets import generate_synthetic_logistic


def quad_config(K, tol=1e-8, solver="newton"):
    return GridSearchConfig(
        num_points=K, inner_solver=solver, inner_tol=tol, lambda_min=0.01, lambda_max=10.0
    )


def grid_lams(config):
    """The lambdas of solve_grid's path on a scalar ridge."""
    problem = make_quadratic_ridge(np.array([[1.0]]), np.array([1.0]))
    return solve_grid(problem, np.array([0.5]), config)[0].lams


class TestGridGeometry:
    def test_two_points_are_the_endpoints(self):
        assert grid_lams(quad_config(2)).tolist() == [10.0, 0.01]

    def test_three_point_example(self):
        cfg = GridSearchConfig(
            num_points=3, inner_solver="newton", inner_tol=1e-8,
            lambda_min=0.01, lambda_max=1.0,
        )
        assert grid_lams(cfg) == pytest.approx([1.0, 0.1, 0.01], rel=1e-12)

    def test_constant_ratio(self):
        lams = grid_lams(quad_config(40))
        ratios = lams[1:] / lams[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert lams[0] == 10.0 and lams[-1] == 0.01

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            quad_config(1)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_nonpositive_inner_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="inner_tol must be positive"):
            quad_config(10, tol=tol)


class TestGridSizing:
    def test_formula(self):
        import math

        c = TheoryConstants.derive(mu=0.0, sigma=1.0, L=2.0, G=3.0, lambda_min=0.1, lambda_max=1.0)
        expect = math.ceil(math.sqrt(c.tau * c.L) * c.G * c.T_euler / 0.05)
        assert k_grid(c, 0.05).K_required == expect

    def test_unit_example(self):
        # tau=101, L=G=1, T=ln 100: sqrt(101)*4.6052/0.01 = 4627.6 -> 4629?
        # exact: ceil(10.0499 * 4.60517 / 0.01) = ceil(4628.17) = 4629
        c = TheoryConstants.derive(mu=0.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.01, lambda_max=1.0)
        assert k_grid(c, 0.01).K_required == 4629

    def test_floor_of_two(self):
        c = TheoryConstants.derive(mu=1.0, sigma=1.0, L=1.0, G=0.0, lambda_min=0.5, lambda_max=1.0)
        assert k_grid(c, 1.0).K_required == 2


class TestNewtonInner:
    def test_quadratic_needs_exactly_one_iteration_per_point(self, quad30):
        _, _, problem = quad30
        path, rep = solve_grid(problem, np.zeros(20), quad_config(12))
        # Newton is exact on quadratics, and the guard never trips
        assert rep.inner_iterations == [1] * 12
        assert rep.counters.hess_builds == 12
        assert rep.counters.linear_solves == 12

    def test_warm_start_no_worse_than_cold(self, quad30):
        _, _, problem = quad30
        path, rep = solve_grid(problem, np.zeros(20), quad_config(10, tol=1e-10))
        warm_total = sum(rep.inner_iterations)
        cold_total = 0
        from pathode.steppers import newton_solve

        for lam in lambda_schedule(0.01, 10.0, 9):
            _, iters, _ = newton_solve(
                problem, float(lam), np.zeros(20), 1e-10, 50, OracleCounters()
            )
            cold_total += iters
        assert warm_total <= cold_total

    def test_knot_residuals_meet_inner_tol(self, quad30):
        _, _, problem = quad30
        tol = 1e-9
        path, rep = solve_grid(problem, np.zeros(20), quad_config(8, tol=tol))
        for r in path.residuals:
            assert r <= tol

    @pytest.mark.parametrize("solver", ["newton", "agd"])
    def test_exit_residual_reused_not_remeasured(self, quad30, solver):
        _, _, problem = quad30
        path, rep = solve_grid(problem, np.zeros(20), quad_config(8, solver=solver))
        assert rep.counters.metric_evals == 0
        for x, lam, r in zip(path.X, path.lams, path.residuals):
            assert r == pytest.approx(
                float(np.linalg.norm(problem.total_grad(x, lam))), rel=1e-12, abs=1e-15
            )

    def test_inner_cap_exceeded_names_the_point(self, quad30, monkeypatch):
        _, _, problem = quad30
        monkeypatch.setattr(gridsearch, "DEFAULT_NEWTON_CAP", 0)
        with pytest.raises(PathRunError) as err:
            solve_grid(problem, np.ones(20), quad_config(5, tol=1e-14))
        assert err.value.step_index == 0

    def test_piecewise_constant_path_type(self, quad30):
        _, _, problem = quad30
        path, _ = solve_grid(problem, np.zeros(20), quad_config(6))
        assert isinstance(path, PiecewiseConstantPath)


class TestAgdInner:
    def test_optimal_start_zero_iterations(self):
        problem = make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))
        counters = OracleCounters()
        x, iters, gnorm = agd_inner(problem, 1.0, np.zeros(1), 1e-8, 2.0, 2.0, counters)
        assert iters == 0 and gnorm == 0.0
        assert counters.grad_f == counters.grad_omega == 1

    def test_scalar_quadratic_converges_quickly(self):
        # F(x) = x^2 at kappa = 1: a handful of iterations to 1e-8
        problem = make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))
        counters = OracleCounters()
        x, iters, gnorm = agd_inner(problem, 1.0, np.ones(1), 1e-8, 2.0, 2.0, counters)
        assert np.linalg.norm(problem.total_grad(x, 1.0)) <= 1e-8
        assert counters.grad_f == counters.grad_omega == iters + 1  # one pair per iteration
        assert gnorm == np.linalg.norm(problem.total_grad(x, 1.0))
        assert iters <= 40

    def test_gradient_norm_at_return_meets_tol(self, quad30):
        _, _, problem = quad30
        evals = np.linalg.eigvalsh(problem.hessian(np.zeros(20), 0.0).f_hess())
        lam = 1.0
        x, iters, _ = agd_inner(
            problem, lam, np.zeros(20), 1e-6,
            evals[0] + lam, evals[-1] + lam, OracleCounters(), cap=100000,
        )
        assert np.linalg.norm(problem.total_grad(x, lam)) <= 1e-6

    def test_invalid_strong_convexity_rejected(self):
        problem = make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            agd_inner(problem, 1.0, np.zeros(1), 1e-8, 0.0, 1.0, OracleCounters())
        with pytest.raises(ValueError):
            agd_inner(problem, 1.0, np.zeros(1), 1e-8, 2.0, 1.0, OracleCounters())

    def test_cap_exceeded_raises(self):
        problem = make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(MaxIterationsError):
            agd_inner(problem, 1.0, np.ones(1), 1e-8, 2.0, 2.0, OracleCounters(), cap=0)


class TestSolveGridModes:
    def test_agd_matches_newton_path(self, quad30):
        _, _, problem = quad30
        newton_path, _ = solve_grid(problem, np.zeros(20), quad_config(6, tol=1e-8))
        agd_path, agd_rep = solve_grid(
            problem, np.zeros(20), quad_config(6, tol=1e-8, solver="agd")
        )
        for xn, xa in zip(newton_path.X, agd_path.X):
            assert np.linalg.norm(xn - xa) <= 1e-6
        # AGD charges gradients only
        assert agd_rep.counters.hess_builds == 0
        assert agd_rep.counters.linear_solves == 0
        assert agd_rep.counters.grad_f > 0

    def test_agd_needs_lipschitz_certificate(self):
        from pathode import build_moment_problem, make_moment_matching

        A, b = build_moment_problem(np.array([0.5, 0.0]), np.array([0.5, 0.5]), 1)
        problem = make_moment_matching(A, b)
        cfg = GridSearchConfig(
            num_points=4, inner_solver="agd", inner_tol=1e-6,
            lambda_min=0.1, lambda_max=1.0,
        )
        with pytest.raises(ValueError):
            solve_grid(problem, np.array([0.4]), cfg)

    def test_degenerate_omega_needs_opt_in(self):
        X, y = generate_synthetic_logistic(20, 3, 2)
        problem = make_logistic_reweighted(X, y)
        with pytest.raises(DegenerateProblemError):
            solve_grid(problem, np.zeros(3), quad_config(4))
        path, _ = solve_grid(
            problem, np.zeros(3), quad_config(4), allow_degenerate=True
        )
        assert len(path.lams) == 4

    def test_counters_reconcile_with_inner_iterations(self, quad30):
        _, _, problem = quad30
        path, rep = solve_grid(problem, np.ones(20) * 0.1, quad_config(9, tol=1e-10))
        total = sum(rep.inner_iterations)
        assert rep.counters.hess_builds == total
        assert rep.counters.linear_solves == total
        # one gradient pair per Newton check, converged points check once more
        assert rep.counters.grad_f == total + 9
        assert rep.counters.grad_f == rep.counters.grad_omega

    def test_end_to_end_accuracy_from_sized_grid(self, small_quad):
        # run the full pipeline: certified constants -> grid size -> solve
        from pathode import accuracy_midpoint, initialize_by_newton

        A, b, problem = small_quad
        x0 = initialize_by_newton(problem, 5.0, 1e-13)
        cons, _ = quadratic_theory_constants(A, b, x0, 0.5, 5.0)
        eps = 1e-2
        K = k_grid(cons, eps).K_required
        cfg = GridSearchConfig(
            num_points=K, inner_solver="newton", inner_tol=eps / 2,
            lambda_min=0.5, lambda_max=5.0,
        )
        path, rep = solve_grid(problem, x0, cfg)
        assert accuracy_midpoint(problem, path) <= eps
