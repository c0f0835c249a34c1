"""Grid-search baselines: geometry, sizing, inner solvers, and counters."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathode import gridsearch, steppers
from pathode import (
    DegenerateProblemError,
    GridSearchConfig,
    MaxIterationsError,
    OracleCounters,
    PathRunError,
    PiecewiseConstantPath,
    TheoryConstants,
    agd_inner,
    build_moment_problem,
    generate_synthetic_moment_data,
    initialize_by_newton,
    k_grid,
    lambda_schedule,
    make_logistic_reweighted,
    make_logistic_ridge,
    make_moment_matching,
    make_quadratic_ridge,
    quadratic_theory_constants,
    solve_grid,
)
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic
from pathode.steppers import newton_solve


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

        c = TheoryConstants(mu=0.0, sigma=1.0, L=2.0, G=3.0, lambda_min=0.1, lambda_max=1.0)
        expect = math.ceil(math.sqrt(c.tau * c.L) * c.G * c.T_euler / 0.05)
        assert k_grid(c, 0.05).K_required == expect

    def test_unit_example(self):
        # tau=101, L=G=1, T=ln 100: sqrt(101)*4.6052/0.01 = 4627.6 -> 4629?
        # exact: ceil(10.0499 * 4.60517 / 0.01) = ceil(4628.17) = 4629
        c = TheoryConstants(mu=0.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.01, lambda_max=1.0)
        assert k_grid(c, 0.01).K_required == 4629

    def test_floor_of_two(self):
        c = TheoryConstants(mu=1.0, sigma=1.0, L=1.0, G=0.0, lambda_min=0.5, lambda_max=1.0)
        assert k_grid(c, 1.0).K_required == 2


class TestNewtonInner:
    def test_quadratic_needs_exactly_one_iteration_per_point(self, quad30):
        _, _, problem = quad30
        path, rep = solve_grid(problem, np.zeros(20), quad_config(12))
        # Newton is exact on quadratics, and the guard never trips
        assert rep.inner_iterations == [1] * 12
        assert rep.counters.hess_builds == 12

    def test_warm_start_no_worse_than_cold(self, quad30):
        _, _, problem = quad30
        path, rep = solve_grid(problem, np.zeros(20), quad_config(10, tol=1e-10))
        warm_total = sum(rep.inner_iterations)
        cold_total = 0
        for lam in lambda_schedule(0.01, 10.0, 9):
            cold = newton_solve(problem, (lam,), np.zeros(20), 1e-10, OracleCounters())
            cold_total += next(cold)[1]
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
        monkeypatch.setattr(steppers, "NEWTON_CAP", 0)
        with pytest.raises(PathRunError) as err:
            solve_grid(problem, np.ones(20), quad_config(5, tol=1e-14))
        assert err.value.step_index == 0

    def test_one_newton_cap_serves_initializer_and_grid(self, quad30, monkeypatch):
        _, _, problem = quad30
        monkeypatch.setattr(steppers, "NEWTON_CAP", 0)
        with pytest.raises(MaxIterationsError, match="after 0 iterations"):
            initialize_by_newton(problem, 10.0, 1e-10)
        with pytest.raises(PathRunError, match="after 0 iterations"):
            solve_grid(problem, np.ones(20), quad_config(5))

    def test_piecewise_constant_path_type(self, quad30):
        _, _, problem = quad30
        path, _ = solve_grid(problem, np.zeros(20), quad_config(6))
        assert isinstance(path, PiecewiseConstantPath)


def agd_point(problem, lam, x, tol=1e-8, counters=None):
    """agd_inner's exit at one lambda."""
    return next(agd_inner(problem, (lam,), x, tol, counters or OracleCounters()))


class TestAgdInner:
    SCALAR = make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))  # mu = sigma = L = 1

    def test_optimal_start_zero_iterations(self):
        counters = OracleCounters()
        x, iters, gnorm = agd_point(self.SCALAR, 1.0, np.zeros(1), counters=counters)
        assert iters == 0 and gnorm == 0.0
        assert counters.grad_f == counters.grad_omega == 1

    def test_scalar_quadratic_converges_quickly(self):
        # F(x) = x^2 at kappa = 1: a handful of iterations to 1e-8
        problem = self.SCALAR
        counters = OracleCounters()
        x, iters, gnorm = agd_point(problem, 1.0, np.ones(1), counters=counters)
        assert np.linalg.norm(problem.total_grad(x, 1.0)) <= 1e-8
        assert counters.grad_f == counters.grad_omega == iters + 1  # one pair per iteration
        assert gnorm == np.linalg.norm(problem.total_grad(x, 1.0))
        assert iters <= 40

    def test_gradient_norm_at_return_meets_tol(self, quad30):
        _, _, problem = quad30
        x, _, _ = agd_point(problem, 1.0, np.zeros(20), 1e-6)
        assert np.linalg.norm(problem.total_grad(x, 1.0)) <= 1e-6

    def test_invalid_strong_convexity_rejected(self):
        # mu_eff = mu + lambda sigma = 0, L_eff = L (1 + lambda) < mu_eff, or no L at all
        for change in ({"mu": 0.0, "sigma": 0.0}, {"lipschitz": 0.5}):
            with pytest.raises(ValueError, match="0 < mu_eff <= L_eff"):
                agd_point(dataclasses.replace(self.SCALAR, **change), 1.0, np.zeros(1))
        uncertified = dataclasses.replace(self.SCALAR, lipschitz=None)
        with pytest.raises(ValueError, match="Lipschitz certificate"):
            agd_point(uncertified, 1.0, np.zeros(1))

    def test_cap_exceeded_raises(self, monkeypatch):
        monkeypatch.setattr(gridsearch, "AGD_CAP", 0)
        with pytest.raises(MaxIterationsError, match="exceeded 0 iterations"):
            agd_point(self.SCALAR, 1.0, np.ones(1))


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
        # one gradient pair per Newton step; each warm start reuses the last exit's
        assert rep.counters.grad_f == total + 1
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


def _instances():
    """name -> (problem, start, lambda range): one per family, plus a far
    logistic start from which Newton halves its first steps."""
    A, b = generate_synthetic_quadratic(30, 8, 1)
    X, y = generate_synthetic_logistic(40, 5, 3)
    w, x_true = generate_synthetic_moment_data(8, 7)
    logistic = make_logistic_ridge(X, y)
    moment = make_moment_matching(*build_moment_problem(w, x_true, 5))
    return {
        "quadratic": (make_quadratic_ridge(A, b), np.zeros(8), (0.01, 10.0)),
        "logistic": (logistic, np.zeros(5), (0.01, 10.0)),
        "logistic-far": (logistic, np.full(5, 3.0), (1e-3, 0.01)),
        "moment": (moment, moment.base_point(), (1e-3, 1.0)),
    }


INSTANCES = _instances()


def _reference_grid(problem, x, config):
    """solve_grid's path from one inner solve per lambda, each carrying nothing over."""
    lams = lambda_schedule(config.lambda_min, config.lambda_max, config.num_points - 1)
    X, res, iterations = [], [], []
    solve = gridsearch.INNER_SOLVERS[config.inner_solver]
    for lam in lams:
        x, iters, r = next(solve(problem, (lam,), x, config.inner_tol, OracleCounters()))
        X.append(x)
        res.append(r)
        iterations.append(iters)
    return np.array(X), np.array(res), iterations


class TestTermsCarriedAcrossLambda:
    """f, Omega and their gradients at a point do not depend on lambda, so an
    inner solver walking several lambdas reuses its last exit's values."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(INSTANCES)),
        solver=st.sampled_from(["newton", "agd"]),
        K=st.integers(2, 40),
        tol=st.sampled_from([1e-4, 1e-8]),
    )
    def test_grid_matches_solves_without_terms(self, name, solver, K, tol):
        problem, x0, (lo, hi) = INSTANCES[name]
        if solver == "agd" and problem.lipschitz is None:
            solver = "newton"
        config = GridSearchConfig(K, solver, tol, lo, hi)
        path, rep = solve_grid(problem, x0, config)
        X, res, iterations = _reference_grid(problem, x0, config)
        assert np.array_equal(path.X, X)
        assert np.array_equal(path.residuals, res)
        assert rep.inner_iterations == iterations
        assert rep.counters.grad_f == rep.counters.grad_omega == sum(iterations) + 1

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_newton_given_start_terms_returns_the_same(self, name):
        # the second lambda starts from the first's exit with its values in hand
        problem, x0, (lo, hi) = INSTANCES[name]
        lams = (hi, float(np.sqrt(lo * hi)))
        chained, walked = OracleCounters(), OracleCounters()
        first = next(newton_solve(problem, lams[:1], x0, 1e-10, chained))
        ref = next(newton_solve(problem, lams[1:], first[0], 1e-10, chained))
        got = list(newton_solve(problem, lams, x0, 1e-10, walked))
        assert ref[1] >= 1
        assert np.array_equal(got[0][0], first[0]) and got[0][1:] == first[1:]
        assert np.array_equal(got[1][0], ref[0]) and got[1][1:] == ref[1:]
        assert walked.grad_f == walked.grad_omega == chained.grad_f - 1
        assert walked.hess_builds == chained.hess_builds == first[1] + ref[1]

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_newton_start_meeting_tol_charges_nothing(self, name):
        problem, x0, (lo, hi) = INSTANCES[name]
        counters = OracleCounters()
        solver = newton_solve(problem, (hi, hi), x0, 1e-10, counters)
        x, _, gnorm = next(solver)
        spent = dataclasses.replace(counters)
        out = next(solver)
        assert out[0] is x and out[1:] == (0, gnorm)
        assert counters == spent

    def test_agd_reuses_only_its_entry_gradient(self):
        problem, x0, (lo, hi) = INSTANCES["quadratic"]
        lams = (hi, float(np.sqrt(lo * hi)))
        chained, walked = OracleCounters(), OracleCounters()
        first = agd_point(problem, lams[0], x0, counters=chained)
        ref = agd_point(problem, lams[1], first[0], counters=chained)
        got = list(agd_inner(problem, lams, x0, 1e-8, walked))
        assert ref[1] >= 1
        assert np.array_equal(got[0][0], first[0]) and got[0][1:] == first[1:]
        assert np.array_equal(got[1][0], ref[0]) and got[1][1:] == ref[1:]
        assert walked.grad_f == walked.grad_omega == chained.grad_f - 1


class TestInnerSolverContract:
    """newton_solve and agd_inner share one stop rule: the gradient is checked
    after every step, and the cap-th step's check is the last."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(INSTANCES)),
        solver=st.sampled_from(sorted(gridsearch.INNER_SOLVERS)),
        cap=st.integers(0, 5),
    )
    def test_cap_is_exactly_that_many_steps(self, name, solver, cap):
        problem, x0, (lo, hi) = INSTANCES[name]
        if solver == "agd" and problem.lipschitz is None:
            solver = "newton"
        checks = []

        def domain_check(x):
            checks.append(x)
            return problem.domain_check(x)

        counted = dataclasses.replace(problem, domain_check=domain_check)
        counters = OracleCounters()
        unreachable = float(np.nextafter(0.0, 1.0))  # only a zero gradient meets it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(steppers, "NEWTON_CAP", cap)
            mp.setattr(gridsearch, "AGD_CAP", cap)
            solve = gridsearch.INNER_SOLVERS[solver]
            with pytest.raises(MaxIterationsError, match=f"{cap} iterations"):
                next(solve(counted, (hi,), x0, unreachable, counters))
        if solver == "newton":
            assert counters.hess_builds == cap
        else:
            assert len(checks) == 2 * cap and counters.hess_builds == 0
        assert counters.grad_f == counters.grad_omega == cap + 1
