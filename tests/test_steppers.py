"""Step schemes, the lambda schedule, run_path bookkeeping, and initializers."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathode import (
    MaxIterationsError,
    StepDiagnostics,
    DegenerateProblemError,
    DomainError,
    GridSearchConfig,
    accuracy_midpoint,
    OracleCounters,
    StepperConfig,
    build_moment_problem,
    decay_polynomial,
    direction_oracle,
    generate_synthetic_moment_data,
    initialize_by_newton,
    initialize_from_omega,
    lambda_schedule,
    make_logistic_reweighted,
    make_logistic_ridge,
    make_moment_matching,
    make_quadratic_ridge,
    quadratic_path_point,
    run_path,
    solve_grid,
    stepsize,
)
from pathode.cli import _write_diagnostics, min_feasible_K
from pathode.gridsearch import INNER_SOLVERS
from pathode.steppers import METHODS, SCHEMES, newton_solve, take_step
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic

from conftest import fit_loglog_slope, with_dense_solve, with_handle_methods


def one_step(method, problem, x_k, lambda_k, h):
    """take_step of SCHEMES[method] with exact directions: (x_next, diagnostics)."""
    exact = direction_oracle(problem, OracleCounters(), None)
    x_next, _, stages = take_step(SCHEMES[method], problem, x_k, lambda_k, h, exact)
    return x_next, StepDiagnostics(*stages)


def direction(problem, x, lam):
    """The exact ODE direction -(hess F_lam(x))^{-1} grad f(x), uncounted."""
    return problem.hessian(x).solve(problem.f_grad(x), lam).direction


@pytest.fixture(scope="module")
def pure_scalar():
    """f = Omega = x^2/2; the ODE direction is -x/(1+lambda)."""
    return make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))


# ------------------------------------------------------------ lambda schedule


class TestStepsize:
    def test_euler_decay_closes_the_range(self):
        for K in (7, 50, 311):
            h = stepsize("euler", K, 0.01, 10.0)
            assert (1.0 - h) ** K == pytest.approx(1e-3, rel=1e-12)

    def test_trapezoid_decay_closes_the_range(self):
        for K in (12, 400):
            h = stepsize("trapezoid", K, 0.01, 10.0)
            assert (1.0 - h + 0.5 * h * h) ** K == pytest.approx(1e-3, rel=1e-12)

    def test_rk4_decay_closes_the_range(self):
        for K in (12, 400):
            h = stepsize("rk4", K, 0.01, 10.0)
            assert decay_polynomial(h) ** K == pytest.approx(1e-3, rel=1e-10)

    def test_euler_half_step(self):
        # (1 - h)^1 = 1/2 -> h = 1/2
        assert stepsize("euler", 1, 0.5, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_trapezoid_range_too_wide_for_k(self):
        # per-step decay is at least 1/2, so K=5 cannot bridge a 1e3 ratio
        with pytest.raises(ValueError):
            stepsize("trapezoid", 5, 0.01, 10.0)

    @pytest.mark.parametrize("lambda_min, lambda_max", [(0.01, 100.0), (1e-6, 1.0), (0.5, 1.0)])
    def test_rk4_has_a_step_size_exactly_above_its_smallest_K(self, lambda_min, lambda_max):
        # the decay polynomial's minimum is 0.2704 = exp(-1.3079), so one step
        # contracts lambda by at most that factor; below it Newton would diverge
        bound = math.log(lambda_max / lambda_min) / 1.3078722944490067
        for K in range(1, 4 * math.ceil(bound) + 2):
            if K > bound:
                h = stepsize("rk4", K, lambda_min, lambda_max)
                assert decay_polynomial(h) ** K == pytest.approx(lambda_min / lambda_max, rel=1e-10)
            else:
                with pytest.raises(ValueError, match="rk4 schedule needs K > "):
                    stepsize("rk4", K, lambda_min, lambda_max)

    def test_decay_polynomial_values(self):
        assert decay_polynomial(0.0) == 1.0
        assert decay_polynomial(1.0) == pytest.approx(1.0 - 1.0 + 0.5 - 1 / 6 + 1 / 24, rel=1e-15)

    @pytest.mark.parametrize("method", METHODS)
    def test_step_factor_is_the_knot_ratio(self, method):
        # K steps of the scheme's lambda factor at h = stepsize(...) contract
        # lambda_max to lambda_min, so it is the ratio of consecutive schedule knots
        K = 400
        h = stepsize(method, K, 0.01, 10.0)
        factor = {"euler": 1.0 - h, "trapezoid": 1.0 - h + 0.5 * h * h, "rk4": decay_polynomial(h)}
        lams = lambda_schedule(0.01, 10.0, K)
        assert np.allclose(lams[1:] / lams[:-1], factor[method], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("K", [0, -1, 2.5])
    def test_interval_counts_that_are_not_positive_integers_are_rejected(self, K):
        # 0 once gave the one knot [0.01] after a divide-by-zero warning, -1 an IndexError,
        # and 2.5 four uneven knots and a step size of 0.937 instead of an error
        for call in (lambda: lambda_schedule(0.01, 10.0, K), lambda: stepsize("euler", K, 0.01, 10.0)):
            with pytest.raises(ValueError, match="^K must be a positive integer$"):
                call()

    def test_numpy_integer_counts_give_the_bits_of_python_ints(self):
        assert np.array_equal(lambda_schedule(0.01, 10.0, np.int64(4)), lambda_schedule(0.01, 10.0, 4))
        for method in METHODS:
            assert stepsize(method, np.int64(400), 0.01, 10.0) == stepsize(method, 400, 0.01, 10.0)


# ------------------------------------------------------------- vector field


class TestVectorField:
    def test_scalar_example(self, pure_scalar):
        # v = -x/(1+lambda): at x=3, lambda=2 this is -1
        v = direction(pure_scalar, np.array([3.0]), 2.0)
        assert v == pytest.approx([-1.0], rel=1e-14)

    def test_zero_gradient_is_stationary(self, pure_scalar):
        assert direction(pure_scalar, np.zeros(1), 1.0) == pytest.approx([0.0], abs=1e-15)

    def test_identity_design(self):
        problem = make_quadratic_ridge(np.eye(2), np.array([2.0, 4.0]))
        v = direction(problem, np.zeros(2), 1.0)
        assert v == pytest.approx([1.0, 2.0], rel=1e-14)


# ------------------------------------------------------------- single steps


class TestEulerStep:
    def test_scalar_closed_form(self, scalar_ridge):
        # from the exact point x(1) = 1/2 with h = 0.1:
        # lambda_next = 0.9, d = (1/2)/1.9, x1 = 1/2 + 0.05/1.9 = 1/1.9
        x1, diag = one_step("euler", scalar_ridge, np.array([0.5]), 1.0, 0.1)
        assert abs(x1[0] - 1.0 / 1.9) == 0.0
        assert diag.stage_lambdas == [pytest.approx(0.9)]

    def test_hessian_taken_at_new_lambda(self, quad30, quad30_start):
        A, b, problem = quad30
        h = 0.05
        lam_next = 0.95 * 10.0
        x1, _ = one_step("euler", problem, quad30_start, 10.0, h)
        g = problem.f_grad(quad30_start)
        d = np.linalg.solve(A.T @ A + lam_next * np.eye(20), -g)
        assert np.allclose(x1, quad30_start + h * d, rtol=1e-12, atol=1e-14)

    def test_fixed_point_at_zero_gradient(self, pure_scalar):
        x1, _ = one_step("euler", pure_scalar, np.zeros(1), 1.0, 0.2)
        assert np.array_equal(x1, np.zeros(1))


class TestTrapezoidStep:
    def test_scalar_closed_form(self, pure_scalar):
        # x0=1, lambda=1, h=1/2: d1 = -1/2; stage lambda (1-h+h^2) = 3/4,
        # stage point 3/4, d2 = -(3/4)/(7/4) = -3/7; x1 = 1 - (1/4)(13/14) = 43/56
        x1, diag = one_step("trapezoid", pure_scalar, np.array([1.0]), 1.0, 0.5)
        assert x1[0] == pytest.approx(43.0 / 56.0, rel=1e-14)
        assert diag.stage_lambdas == [pytest.approx(1.0), pytest.approx(0.75)]
        assert diag.stages[0].direction == pytest.approx([-0.5], rel=1e-15)
        assert diag.stages[1].direction == pytest.approx([-3.0 / 7.0], rel=1e-14)
        assert diag.stage_points[1] == pytest.approx([0.75], rel=1e-15)

    def test_first_stage_uses_old_lambda(self, quad30, quad30_start):
        A, b, problem = quad30
        _, diag = one_step("trapezoid", problem, quad30_start, 10.0, 0.05)
        g = problem.f_grad(quad30_start)
        d1 = np.linalg.solve(A.T @ A + 10.0 * np.eye(20), -g)
        assert np.allclose(diag.stages[0].direction, d1, rtol=1e-12, atol=1e-14)


class TestRk4Step:
    def test_stage_lambda_polynomials(self, scalar_ridge):
        h = 0.3
        _, diag = one_step("rk4", scalar_ridge, np.array([0.5]), 1.0, h)
        expect = [1.0, 1 - h / 2, 1 - h / 2 + h * h / 4, 1 - h + h * h / 2 - h**3 / 4]
        assert diag.stage_lambdas == pytest.approx(expect, rel=1e-15)

    def test_local_order_via_richardson(self, scalar_ridge):
        # one step from the exact path point: local error is O(h^5), so
        # halving h should shrink it by about 2^5 = 32; the step ends at
        # lambda = decay_polynomial(h), where the path is 1/(1 + lambda)
        errs = {}
        for h in (0.2, 0.1):
            x1, _ = one_step("rk4", scalar_ridge, np.array([0.5]), 1.0, h)
            errs[h] = abs(x1[0] - 1.0 / (1.0 + decay_polynomial(h)))
        ratio = errs[0.2] / errs[0.1]
        assert 25.0 < ratio < 45.0

    def test_fixed_point_at_zero_gradient(self, pure_scalar):
        x1, _ = one_step("rk4", pure_scalar, np.zeros(1), 1.0, 0.2)
        assert np.array_equal(x1, np.zeros(1))


class TestDomainBackoff:
    @pytest.mark.parametrize("method", METHODS)
    def test_backoff_halves_increment_until_feasible(self, method):
        # pull toward y = 1.2, outside the simplex; the full step exits,
        # halving the increment lands back inside
        A, b = np.array([[0.5]]), np.array([0.6])
        problem = make_moment_matching(A, b)
        x1, diag = one_step(method, problem, np.array([0.9]), 1e-6, 0.5)
        assert diag.domain_backoffs >= 1
        assert problem.domain_check(x1)
        if method == "euler":
            assert diag.domain_backoffs == 1  # one halving suffices
            assert 0.97 < x1[0] < 0.98

    @pytest.mark.parametrize("method", METHODS)
    def test_lambda_schedule_unchanged_by_backoff(self, method):
        # halving the increment moves neither the stage lambdas nor the knots
        problem = make_moment_matching(np.array([[0.5]]), np.array([0.6]))
        _, diag = one_step(method, problem, np.array([0.9]), 1e-6, 0.5)
        assert diag.domain_backoffs >= 1
        assert diag.stage_lambdas == [f * 1e-6 for f in SCHEMES[method].stage_factors(0.5)]
        cfg, steps = StepperConfig(method, 16, 1e-6, 1e-3), []
        path, _ = run_path(problem, np.array([0.9]), cfg, steps=steps)
        assert sum(d.domain_backoffs for d in steps) > 0
        assert np.array_equal(path.lams, lambda_schedule(1e-6, 1e-3, 16))

    def test_unrecoverable_step_raises(self):
        A, b = np.array([[0.5]]), np.array([60.0])
        problem = make_moment_matching(A, b)
        # start glued to the boundary with a huge outward pull: halving the
        # increment 30 times still lands outside, so the step gives up
        with pytest.raises(DomainError):
            one_step("euler", problem, np.array([1.0 - 1e-15]), 1e-9, 0.9)


# ------------------------------------------- structured (Woodbury) directions


def _moment_instance(p):
    w, x_true = generate_synthetic_moment_data(p, 7)
    problem = make_moment_matching(*build_moment_problem(w, x_true, 5))
    return problem, initialize_by_newton(problem, 1e2, 1e-10), (1e-2, 1e2), 64


def _boundary_instance():
    # the TestDomainBackoff instance: every scheme backs off over a hundred
    # times and Euler's knots come within 1e-12 of the simplex face
    problem = make_moment_matching(np.array([[0.5]]), np.array([0.6]))
    return problem, np.array([0.9]), (1e-6, 1e-3), 16


def _quadratic_instance():
    A, b = generate_synthetic_quadratic(30, 20, 1)
    return make_quadratic_ridge(A, b), quadratic_path_point(A, b, 10.0), (0.01, 10.0), 40


def _logistic_instance():
    problem = make_logistic_ridge(*generate_synthetic_logistic(50, 10, 3))
    return problem, initialize_by_newton(problem, 10.0, 1e-10), (0.1, 10.0), 40


FAMILY_INSTANCES = {
    "quadratic": _quadratic_instance,
    "logistic": _logistic_instance,
    "moment": lambda: _moment_instance(50),
}

PATH_INSTANCES = {
    "moment-p50": lambda: _moment_instance(50),
    "moment-p200": lambda: _moment_instance(200),
    "boundary-1d": _boundary_instance,
}


class TestStructuredDirections:
    """A family's Hessian handle changes how directions are solved, not the path."""

    @pytest.mark.parametrize("method", ["euler", "trapezoid", "rk4"])
    @pytest.mark.parametrize("instance", list(PATH_INSTANCES))
    def test_path_matches_the_dense_solve(self, instance, method):
        problem, x0, (lam_min, lam_max), K = PATH_INSTANCES[instance]()
        dense = with_dense_solve(problem)
        cfg = StepperConfig(method=method, K=K, lambda_min=lam_min, lambda_max=lam_max)
        path, rep = run_path(problem, x0, cfg)
        ref_path, ref_rep = run_path(dense, x0, cfg)
        assert rep.counters == ref_rep.counters
        assert np.array_equal(path.lams, ref_path.lams)
        X, X_ref = path.X, ref_path.X
        assert np.all(np.abs(X - X_ref).max(axis=1) <= 1e-12 * np.abs(X_ref).max(axis=1))
        res, res_ref = path.residuals, ref_path.residuals
        tol = 1e-11
        if instance == "boundary-1d":
            # knots agreeing to rounding move the residual by up to ||H|| ||dx||,
            # and H ~ lambda / (1 - sum y) is ~1e6 where a knot hugs the face
            tol += 4.0 * np.array(
                [
                    np.linalg.norm(dense.total_hess(x, lam), 2) * np.linalg.norm(x - x_ref)
                    for x, x_ref, lam in zip(X, X_ref, path.lams)
                ]
            )
        assert np.all(np.abs(res - res_ref) <= tol)
        acc, acc_ref = accuracy_midpoint(problem, path), accuracy_midpoint(dense, ref_path)
        assert acc == pytest.approx(acc_ref, rel=1e-9)

    @pytest.mark.parametrize("mode", ["exact", "cg"])
    @pytest.mark.parametrize("method", ["euler", "trapezoid", "rk4"])
    @pytest.mark.parametrize("family", list(FAMILY_INSTANCES))
    def test_every_handle_matches_the_dense_handle(self, family, method, mode):
        problem, x0, (lam_min, lam_max), K = FAMILY_INSTANCES[family]()
        dense = with_dense_solve(problem)
        cfg = StepperConfig(
            method=method, K=K, lambda_min=lam_min, lambda_max=lam_max,
            delta=1e-6 if mode == "cg" else None,
        )
        path, rep = run_path(problem, x0, cfg)
        ref_path, ref_rep = run_path(dense, x0, cfg)
        assert rep.counters == ref_rep.counters
        assert np.array_equal(path.lams, ref_path.lams)
        X, X_ref = path.X, ref_path.X
        res, res_ref = path.residuals, ref_path.residuals
        # CG carries each product's rounding through all of its iterations
        tol = 1e-12 if mode == "exact" else 1e-10
        assert np.all(np.abs(X - X_ref).max(axis=1) <= tol * np.abs(X_ref).max(axis=1))
        assert np.all(np.abs(res - res_ref) <= 10.0 * tol)
        acc, acc_ref = accuracy_midpoint(problem, path), accuracy_midpoint(dense, ref_path)
        assert acc == pytest.approx(acc_ref, rel=1e-9)

    def test_no_assembly_when_the_structure_is_set(self):
        # every exact-direction caller goes through the handle's structured
        # solve, so with its dense f_hess and omega_hess refused all of them still run
        problem, x0, (lam_min, lam_max), _ = _moment_instance(30)
        blind = with_handle_methods(problem, lambda *_: {"f_hess": refuse, "omega_hess": refuse})
        for method in ("euler", "trapezoid", "rk4"):
            cfg = StepperConfig(method=method, K=16, lambda_min=lam_min, lambda_max=lam_max)
            run_path(blind, x0, cfg)
        assert np.array_equal(direction(blind, x0, 1.0), direction(problem, x0, 1.0))
        x_omega = initialize_from_omega(problem, lam_max)[0]
        assert np.array_equal(initialize_from_omega(blind, lam_max)[0], x_omega)
        assert np.array_equal(initialize_by_newton(blind, lam_max, 1e-10), x0)

    @pytest.mark.parametrize("family", list(FAMILY_INSTANCES))
    def test_cg_only_multiplies(self, family):
        # CG directions need the handle's gradient and products, never a dense
        # Hessian or a solve
        problem, x0, (lam_min, lam_max), K = FAMILY_INSTANCES[family]()
        refused = dict.fromkeys(("f_hess", "omega_hess", "solve"), refuse)
        blind = with_handle_methods(problem, lambda *_: refused)
        for method in ("euler", "trapezoid", "rk4"):
            cfg = StepperConfig(method, K, lam_min, lam_max, delta=1e-6)
            path, rep = run_path(blind, x0, cfg)
            ref_path, ref_rep = run_path(problem, x0, cfg)
            assert rep.counters == ref_rep.counters
            assert np.array_equal(path.X, ref_path.X)


def refuse(*args):
    raise AssertionError("dense Hessian assembled or solved")


# --------------------------------------------------------- CG warm starts


class TestCgWarmStartChain:
    # stage whose direction seeds stage 1 of the next step
    CARRY_STAGE = {"euler": 0, "trapezoid": 0, "rk4": 3}

    @pytest.mark.parametrize("method", ["euler", "trapezoid", "rk4"])
    def test_each_stage_starts_from_the_previous_direction(self, logistic_small, method):
        # stage i > 1 warm-starts from d_{i-1}; stage 1 of step k > 0 from the
        # carry stage of step k - 1; step 0 starts cold, where ||H 0 + g|| = ||g||
        x0 = initialize_by_newton(logistic_small, 10.0, 1e-10)
        cfg = StepperConfig(
            method=method, K=12, lambda_min=0.1, lambda_max=10.0,
            delta=1e-8,
        )
        diags = []
        run_path(logistic_small, x0, cfg, steps=diags)
        assert diags[0].stages[0].initial_residual == pytest.approx(
            float(np.linalg.norm(logistic_small.f_grad(x0))), rel=1e-12
        )
        previous = None
        for diag in diags:
            assert diag.domain_backoffs == 0
            warm = [previous] + [r.direction for r in diag.stages[:-1]]
            for i, d in enumerate(warm):
                if d is None:
                    continue
                x, lam = diag.stage_points[i], diag.stage_lambdas[i]
                H = logistic_small.total_hess(x, lam)
                expect = float(np.linalg.norm(H @ d + logistic_small.f_grad(x)))
                assert diag.stages[i].initial_residual == pytest.approx(expect, rel=1e-12)
            previous = diag.stages[self.CARRY_STAGE[method]].direction


# ---------------------------------------------------------------- run_path


class TestRunPath:
    def test_lambda_endpoint_reached(self, quad30, quad30_start):
        _, _, problem = quad30
        for method, K in (("euler", 60), ("trapezoid", 40), ("rk4", 40)):
            cfg = StepperConfig(method=method, K=K, lambda_min=0.01, lambda_max=10.0)
            path, _ = run_path(problem, quad30_start, cfg)
            assert path.lams[0] == 10.0
            assert path.lams[-1] == 0.01

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        method=st.sampled_from(["euler", "trapezoid", "rk4"]),
        ratio=st.floats(1e-6, 0.5),
        lambda_max=st.floats(0.01, 100.0),
        K_above_min=st.integers(0, 5000),
    )
    # h = 1 - 1e-6, whose factor 1 - h keeps only h's last bits; rk4 at its largest K
    @example(method="euler", ratio=1e-6, lambda_max=1.0, K_above_min=0)
    @example(method="rk4", ratio=0.5, lambda_max=1.0, K_above_min=5000)
    def test_schedule_closes_the_range(self, scalar_ridge, method, ratio, lambda_max, K_above_min):
        lambda_min = ratio * lambda_max
        K = min(min_feasible_K(method, lambda_min, lambda_max) + K_above_min, 5000)
        cfg = StepperConfig(method=method, K=K, lambda_min=lambda_min, lambda_max=lambda_max)
        path, _ = run_path(scalar_ridge, np.array([0.5]), cfg)
        lams = path.lams
        assert len(lams) == K + 1
        assert lams[0] == lambda_max and lams[-1] == lambda_min
        assert np.all(np.diff(lams) < 0.0)
        assert np.array_equal(path.query(lambda_min), path.X[-1])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        method=st.sampled_from(["euler", "trapezoid", "rk4"]),
        ratio=st.floats(1e-6, 0.5),
        lambda_max=st.floats(0.01, 100.0),
        K_above_min=st.integers(0, 2000),
    )
    @example(method="euler", ratio=1e-6, lambda_max=1.0, K_above_min=0)
    def test_ode_and_grid_paths_share_knots(
        self, scalar_ridge, method, ratio, lambda_max, K_above_min
    ):
        lambda_min = ratio * lambda_max
        K = min_feasible_K(method, lambda_min, lambda_max) + K_above_min
        x0 = np.array([0.5])
        ode, _ = run_path(scalar_ridge, x0, StepperConfig(method, K, lambda_min, lambda_max))
        grid_cfg = GridSearchConfig(K + 1, "newton", 1e-8, lambda_min, lambda_max)
        grid, _ = solve_grid(scalar_ridge, x0, grid_cfg)
        assert np.array_equal(ode.lams, grid.lams)

    def test_coincident_knots_rejected_before_any_step(self, scalar_ridge, monkeypatch):
        # 1000 intervals over 4.5 ulps: all 1000 steps once ran before the path rejected them
        lo, hi = 1.0, 1.000000000000001
        message = "1000 intervals on [1.0, 1.000000000000001] make two knots coincide"
        monkeypatch.setattr("pathode.steppers.take_step", lambda *args: pytest.fail("a step ran"))
        for run in (
            lambda: lambda_schedule(lo, hi, 1000),
            lambda: run_path(scalar_ridge, np.array([0.5]), StepperConfig("euler", 1000, lo, hi)),
            lambda: solve_grid(
                scalar_ridge, np.array([0.5]), GridSearchConfig(1001, "newton", 1e-8, lo, hi)
            ),
        ):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == message
        assert len(lambda_schedule(lo, hi, 4)) == 5  # 4 intervals still fit

    def test_lambda_ratio_constant(self, quad30, quad30_start):
        _, _, problem = quad30
        cfg = StepperConfig(method="trapezoid", K=25, lambda_min=0.01, lambda_max=10.0)
        path, _ = run_path(problem, quad30_start, cfg)
        h = cfg.h
        ratios = path.lams[1:] / path.lams[:-1]
        assert np.allclose(ratios, 1.0 - h + 0.5 * h * h, rtol=1e-13)

    def test_exact_counter_contract(self, quad30, quad30_start):
        _, _, problem = quad30
        expected = {"euler": 1, "trapezoid": 2, "rk4": 4}
        for method, per_step in expected.items():
            K = 12
            cfg = StepperConfig(method=method, K=K, lambda_min=0.01, lambda_max=10.0)
            _, rep = run_path(problem, quad30_start, cfg)
            c = rep.counters
            assert c.grad_f == per_step * K
            assert c.hess_builds == per_step * K
            assert c.hessvec == 0 and c.cg_iters_total == 0
            assert c.metric_evals == K + 1  # one residual per knot

    def test_cg_mode_swaps_solves_for_hessvec(self, quad30, quad30_start):
        _, _, problem = quad30
        cfg = StepperConfig(
            method="euler", K=12, lambda_min=0.01, lambda_max=10.0,
            delta=1e-6,
        )
        path, rep = run_path(problem, quad30_start, cfg)
        c = rep.counters
        assert rep.method == "euler-cg"
        assert c.hess_builds == 0
        assert c.hessvec > 0 and c.cg_iters_total > 0

    def test_cg_cap_is_twenty_times_dim(self, quad30, quad30_start):
        # an unreachable delta runs CG to its cap of 20 dim iterations, then raises
        _, _, problem = quad30
        counters = OracleCounters()
        direction = direction_oracle(problem, counters, 1e-300)
        with pytest.raises(MaxIterationsError, match="CG stopped at 400 iterations"):
            direction(quad30_start, 1.0)
        assert counters.cg_iters_total == 20 * problem.dim

    @pytest.mark.parametrize("delta", [0.0, -1e-6, math.nan])
    def test_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta > 0"):
            StepperConfig(method="euler", K=12, lambda_min=0.01, lambda_max=10.0, delta=delta)

    def test_cg_direction_residuals_within_delta(self, quad30, quad30_start):
        _, _, problem = quad30
        delta = 1e-5
        cfg = StepperConfig(
            method="trapezoid", K=16, lambda_min=0.01, lambda_max=10.0,
            delta=delta,
        )
        steps = []
        run_path(problem, quad30_start, cfg, steps=steps)
        for diag in steps:
            assert len(diag.stages) == 2  # one per stage
            for r in diag.stages:
                assert r.residual_norm <= delta * (1.0 + 1e-12)

    def test_diagnostics_stage_counts(self, quad30, quad30_start):
        _, _, problem = quad30
        for method, stages in (("euler", 1), ("trapezoid", 2), ("rk4", 4)):
            cfg = StepperConfig(method=method, K=12, lambda_min=0.01, lambda_max=10.0)
            steps = []
            path, _ = run_path(problem, quad30_start, cfg, steps=steps)
            assert len(steps) == 12
            assert np.isfinite(path.residuals).all()
            for diag in steps:
                assert len(diag.stage_lambdas) == stages
                assert len(diag.stages) == len(diag.stage_points) == stages

    def test_steps_appends_to_the_callers_list(self, quad30, quad30_start):
        # the caller owns the list: a second run appends its records after the first's
        _, _, problem = quad30
        cfg = StepperConfig(method="euler", K=5, lambda_min=0.01, lambda_max=10.0)
        steps = []
        run_path(problem, quad30_start, cfg, steps=steps)
        first = list(steps)
        run_path(problem, quad30_start, cfg, steps=steps)
        assert len(steps) == 10 and all(a is b for a, b in zip(steps, first))
        assert [d.stage_lambdas for d in steps[5:]] == [d.stage_lambdas for d in first]

    @pytest.mark.parametrize("mode", ["exact", "cg"])
    @pytest.mark.parametrize("method", ["euler", "trapezoid", "rk4"])
    @pytest.mark.parametrize("instance", ["logistic", "backoff-1d"])
    def test_recording_is_observation_only(self, logistic_small, instance, method, mode, tmp_path):
        # the backoff-1d instance is TestDomainBackoff's; its steps halve.
        # Each --diag-out line takes its knot from the path and lists its
        # record's stage results, and no record shares memory with the caller's x0.
        # A run without a steps list matches one with it.
        if instance == "logistic":
            problem, lam_min, lam_max = logistic_small, 0.1, 10.0
        else:
            problem = make_moment_matching(np.array([[0.5]]), np.array([0.6]))
            lam_min, lam_max = 1e-4, 1.0
        x0 = initialize_by_newton(problem, lam_max, 1e-10)
        cfg = StepperConfig(
            method=method, K=20, lambda_min=lam_min, lambda_max=lam_max,
            delta=1e-6 if mode == "cg" else None,
        )
        steps = []
        quiet_path, quiet = run_path(problem, x0, cfg)
        loud_path, loud = run_path(problem, x0, cfg, steps=steps)
        assert len(steps) == 20
        for field in ("lams", "X", "residuals"):
            assert np.array_equal(getattr(quiet_path, field), getattr(loud_path, field))
        assert asdict(quiet.counters) == asdict(loud.counters)
        if instance == "backoff-1d":
            assert sum(d.domain_backoffs for d in steps) > 0
        diag_out = tmp_path / "steps.jsonl"
        _write_diagnostics(loud_path.lams, loud_path.residuals, steps, str(diag_out))
        lines = [json.loads(line) for line in diag_out.read_text().splitlines()]
        assert len(lines) == len(steps)
        for k, (line, d) in enumerate(zip(lines, steps)):
            assert line["k"] == k
            assert line["lambda_k"] == loud_path.lams[k]
            assert line["residual_r_k"] == loud_path.residuals[k]
            assert line["direction_norms"] == [float(np.linalg.norm(r.direction)) for r in d.stages]
            assert line["cg_iterations"] == [r.inner_iterations for r in d.stages]
            assert line["direction_residuals"] == [r.residual_norm for r in d.stages]
            assert line["cg_initial_residuals"] == [r.initial_residual for r in d.stages]
        points = [np.array(p) for d in steps for p in d.stage_points]
        x0 += 1.0
        kept = [p for d in steps for p in d.stage_points]
        assert all(np.array_equal(a, b) for a, b in zip(points, kept, strict=True))

    def test_domain_violating_start_rejected(self):
        A, b = build_moment_problem(np.array([0.5, 0.0]), np.array([0.5, 0.5]), 1)
        problem = make_moment_matching(A, b)
        cfg = StepperConfig(method="euler", K=10, lambda_min=0.1, lambda_max=1.0)
        with pytest.raises(DomainError):
            run_path(problem, np.array([1.5]), cfg)

    def test_degenerate_omega_needs_opt_in(self):
        X, y = generate_synthetic_logistic(20, 3, 2)
        problem = make_logistic_reweighted(X, y)
        cfg = StepperConfig(method="euler", K=10, lambda_min=0.1, lambda_max=1.0)
        with pytest.raises(DegenerateProblemError):
            run_path(problem, np.zeros(3), cfg)
        path, _ = run_path(problem, np.zeros(3), cfg, allow_degenerate=True)
        assert len(path.lams) == 11

    def test_deterministic_across_runs(self, quad30, quad30_start):
        _, _, problem = quad30
        cfg = StepperConfig(method="rk4", K=20, lambda_min=0.01, lambda_max=10.0)
        p1, _ = run_path(problem, quad30_start, cfg)
        p2, _ = run_path(problem, quad30_start, cfg)
        assert np.array_equal(p1.X, p2.X)


# ------------------------------------------- knot accuracy vs K, by family


class TestCounterContract:
    """The counters are the paper's cost measure, so they hold at every K.

    An exact ODE run charges stages K Hessian builds and solves, a CG run
    none, both stages K gradients and K + 1 knot residuals, and
    accuracy_midpoint 2K + 1 more; grid Newton charges one build and one
    solve per inner iteration.
    """

    RANGES = {"quad30": (0.01, 10.0), "logistic": (0.1, 10.0)}

    def _instance(self, name, quad30, quad30_start, logistic_small):
        if name == "quad30":
            return quad30[2], quad30_start
        return logistic_small, initialize_by_newton(logistic_small, self.RANGES[name][1], 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        cg=st.booleans(),
        instance=st.sampled_from(list(RANGES)),
        data=st.data(),
    )
    def test_ode_runs(self, quad30, quad30_start, logistic_small, method, cg, instance, data):
        problem, x0 = self._instance(instance, quad30, quad30_start, logistic_small)
        lo, hi = self.RANGES[instance]
        K = data.draw(st.integers(min_feasible_K(method, lo, hi), 80), label="K")
        cfg = StepperConfig(method, K, lo, hi, delta=1e-8 if cg else None)
        path, rep = run_path(problem, x0, cfg)
        c = rep.counters
        stages = len(SCHEMES[method].stage_factors(cfg.h))
        assert c.grad_f == stages * K
        if cg:
            assert c.hess_builds == 0
            assert c.hessvec >= c.cg_iters_total > 0
        else:
            assert c.hess_builds == stages * K
            assert c.hessvec == c.cg_iters_total == 0
        assert c.metric_evals == K + 1
        accuracy_midpoint(problem, path, c)
        assert c.metric_evals == 3 * K + 2

    @settings(max_examples=20, deadline=None)
    @given(K=st.integers(2, 60), instance=st.sampled_from(list(RANGES)))
    def test_grid_newton_runs(self, quad30, logistic_small, K, instance):
        problem = quad30[2] if instance == "quad30" else logistic_small
        lo, hi = self.RANGES[instance]
        _, rep = solve_grid(
            problem, np.zeros(problem.dim), GridSearchConfig(K, "newton", 1e-9, lo, hi)
        )
        c, iters = rep.counters, rep.inner_iterations
        assert len(iters) == K
        assert c.hess_builds == sum(iters)
        assert c.grad_f == c.grad_omega == sum(iters) + 1  # warm starts reuse the exit gradient
        assert c.hessvec == c.metric_evals == 0

    @pytest.mark.parametrize("family", list(FAMILY_INSTANCES))
    def test_newton_asks_one_handle_per_iterate_and_one_solve_per_step(self, family):
        # each iterate's handle gives its f gradient, so problem.f_grad is never called,
        # and the exit point's handle takes the next lambda's first step
        problem, _, (lo, hi), _ = FAMILY_INSTANCES[family]()
        lams = lambda_schedule(lo, hi, 12)
        tally = {"handles": 0, "solves": 0}

        def methods(handle, x):
            tally["handles"] += 1

            def solve(g, lam):
                tally["solves"] += 1
                return handle.solve(g, lam)

            return {"solve": solve}

        counted = replace(with_handle_methods(problem, methods), f_grad=refuse)
        x0, counters, ref_counters = problem.base_point(), OracleCounters(), OracleCounters()
        out = list(newton_solve(counted, lams, x0, 1e-9, counters))
        ref = list(newton_solve(problem, lams, x0, 1e-9, ref_counters))
        for (x, iters, gnorm), (x_ref, iters_ref, gnorm_ref) in zip(out, ref, strict=True):
            assert np.array_equal(x, x_ref) and (iters, gnorm) == (iters_ref, gnorm_ref)
        assert counters == ref_counters
        iterations = sum(iters for _, iters, _ in out)
        assert tally["handles"] == counters.grad_f == counters.grad_omega == iterations + 1
        assert tally["solves"] == counters.hess_builds == iterations > 0


def _permuted_instances(family, perm):
    """(problem, permuted problem) whose features, or atoms, are permuted by perm."""
    if family == "quadratic":
        A, b = generate_synthetic_quadratic(30, 8, 1)
        return make_quadratic_ridge(A, b), make_quadratic_ridge(A[:, perm], b)
    if family == "logistic":
        X, y = generate_synthetic_logistic(50, 8, 3)
        return make_logistic_ridge(X, y), make_logistic_ridge(X[:, perm], y)
    w, x_true = generate_synthetic_moment_data(8, 7)
    order = np.append(perm, 8)  # the closing atom stays last
    return (
        make_moment_matching(*build_moment_problem(w, x_true, 5)),
        make_moment_matching(*build_moment_problem(w[order], x_true[order], 5)),
    )


class TestFeaturePermutation:
    """Permuting the features (the moment atoms) permutes the whole path."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["quadratic", "logistic", "moment"]),
        method=st.sampled_from(METHODS),
        cg=st.booleans(),
        perm=st.permutations(range(8)),
    )
    def test_path_is_permuted(self, family, method, cg, perm):
        perm = np.array(perm)
        problem, permuted = _permuted_instances(family, perm)
        x0 = initialize_by_newton(problem, 10.0, 1e-10)
        cfg = StepperConfig(method, 16, 0.1, 10.0, delta=1e-11 if cg else None)
        path, rep = run_path(problem, x0, cfg)
        ppath, prep = run_path(permuted, x0[perm], cfg)
        assert np.array_equal(ppath.lams, path.lams)
        assert np.linalg.norm(ppath.X - path.X[:, perm]) <= 1e-9 * np.linalg.norm(path.X)
        assert prep.counters.hess_builds == rep.counters.hess_builds


class TestKnotConvergence:
    def test_euler_knots_on_quadratics_sit_at_rounding_level(self, quad30, quad30_start):
        # On quadratic objectives the semi-implicit Euler knot recursion is
        # exact up to rounding when started on the path (measured ~1e-14):
        # the per-step remainder is the Hessian-variation term, which
        # vanishes for constant Hessians.  First-order knot decay is
        # therefore invisible here; see the logistic test below for it.
        _, _, problem = quad30
        cfg = StepperConfig(method="euler", K=200, lambda_min=0.01, lambda_max=10.0)
        path, _ = run_path(problem, quad30_start, cfg)
        assert max(path.residuals[1:]) <= 1e-10

    def test_trapezoid_knots_on_quadratics_beat_second_order(self, quad30, quad30_start):
        # Same mechanism: the h^3 local term carries the cubic Taylor
        # remainder constant, zero for quadratics, so knots decay faster
        # than the generic second-order rate (measured pair slope ~ -3.05).
        _, _, problem = quad30
        vals = {}
        for K in (100, 400):
            cfg = StepperConfig(method="trapezoid", K=K, lambda_min=0.01, lambda_max=10.0)
            path, _ = run_path(problem, quad30_start, cfg)
            vals[K] = max(path.residuals[1:])
        slope = fit_loglog_slope([100, 400], [vals[100], vals[400]])
        assert slope <= -2.5

    @pytest.mark.slow
    def test_euler_knots_first_order_on_logistic(self, logistic_newton_start):
        # Non-quadratic curvature restores the generic O(1/K) knot decay
        # (measured slope -1.005 on this instance)
        problem, x0 = logistic_newton_start
        vals = {}
        for K in (400, 1600):
            cfg = StepperConfig(method="euler", K=K, lambda_min=0.01, lambda_max=100.0)
            path, _ = run_path(problem, x0, cfg)
            vals[K] = max(path.residuals[1:])
        slope = fit_loglog_slope([400, 1600], [vals[400], vals[1600]])
        assert -1.2 <= slope <= -0.8


# -------------------------------------------------------------- initializers


class TestInitializers:
    def test_from_omega_quadratic_one_step_is_exact(self, quad30):
        A, b, problem = quad30
        x0, bound = initialize_from_omega(problem, 10.0)
        # constant Hessian: one Newton step lands on the path point exactly
        from pathode import quadratic_path_point

        assert np.allclose(x0, quadratic_path_point(A, b, 10.0), rtol=1e-12, atol=1e-14)
        measured = np.linalg.norm(problem.total_grad(x0, 10.0))
        assert measured <= bound + 1e-10
        assert measured <= 1e-10

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "moment"])
    def test_from_omega_is_one_exact_direction(self, quad30, logistic_small, family):
        # x0 and the bound's ||grad f(x_omega)|| come from one exact direction, bit for bit
        w, x_true = generate_synthetic_moment_data(12, 2)
        problem = {
            "quadratic": quad30[2],
            "logistic": logistic_small,
            "moment": make_moment_matching(*build_moment_problem(w, x_true, 5)),
        }[family]
        lam = 10.0
        x_om = problem.omega_minimizer
        g = problem.f_grad(x_om)
        x0, bound = initialize_from_omega(problem, lam)
        assert np.array_equal(x0, x_om + problem.hessian(x_om).solve(g, lam).direction)
        counters = OracleCounters()
        assert np.array_equal(x0, x_om + direction_oracle(problem, counters, None)(x_om, lam).direction)
        assert (counters.grad_f, counters.hess_builds) == (1, 1)
        denom = problem.mu + lam * problem.sigma
        if problem.lipschitz is None:
            assert bound == math.inf
        else:
            gnorm = float(np.linalg.norm(g))
            assert bound == problem.lipschitz * (1.0 + lam) * gnorm**2 / (2.0 * denom**2)

    def test_from_omega_zero_gradient_start(self):
        # b = 0 puts the Omega minimizer on the path; the bound collapses to 0
        problem = make_quadratic_ridge(np.array([[1.0]]), np.array([0.0]))
        x0, bound = initialize_from_omega(problem, 5.0)
        assert np.array_equal(x0, np.zeros(1))
        assert bound == 0.0

    def test_from_omega_needs_a_minimizer(self):
        X, y = generate_synthetic_logistic(20, 3, 2)
        problem = make_logistic_reweighted(X, y)
        with pytest.raises(ValueError):
            initialize_from_omega(problem, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_newton_rejects_nonpositive_tol(self, quad30, tol):
        # so do both inner solvers, on their first next() and before any oracle call
        problem = quad30[2]
        with pytest.raises(ValueError, match="tol must be positive"):
            initialize_by_newton(problem, 10.0, tol)
        for solve in INNER_SOLVERS.values():
            counters = OracleCounters()
            with pytest.raises(ValueError, match="tol must be positive"):
                next(solve(problem, (10.0,), np.ones(20), tol, counters))
            assert counters == OracleCounters()

    def test_newton_reaches_tight_tolerance(self, quad30):
        _, _, problem = quad30
        x0 = initialize_by_newton(problem, 10.0, 1e-12)
        assert np.linalg.norm(problem.total_grad(x0, 10.0)) <= 1e-12

    def test_newton_respects_given_start(self, quad30):
        A, b, problem = quad30
        from pathode import quadratic_path_point

        exact = quadratic_path_point(A, b, 10.0)
        counters = OracleCounters()
        x0, iters, _ = next(newton_solve(problem, (10.0,), exact, 1e-8, counters))
        assert np.array_equal(x0, exact) and iters == 0  # already optimal, returned as-is
        assert (counters.grad_f, counters.hess_builds) == (1, 0)

    @pytest.mark.slow
    def test_newton_reaches_float_floor_on_logistic(self, logistic_newton_start):
        problem, _ = logistic_newton_start
        x0 = initialize_by_newton(problem, 100.0, 1e-15)
        assert np.linalg.norm(problem.total_grad(x0, 100.0)) <= 1e-15
