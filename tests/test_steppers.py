"""Step schemes, the lambda schedule, run_path bookkeeping, and initializers."""

import dataclasses
import math

import numpy as np
import pytest

from pathode import (
    DegenerateProblemError,
    DomainError,
    ExactDirections,
    accuracy_midpoint,
    OracleCounters,
    StepperConfig,
    build_moment_problem,
    decay_polynomial,
    generate_synthetic_moment_data,
    initialize_by_newton,
    initialize_from_omega,
    make_logistic_reweighted,
    make_logistic_ridge,
    make_moment_matching,
    make_quadratic_ridge,
    quadratic_path_point,
    run_path,
    stepsize,
)
from pathode.steppers import SCHEMES, step_diagnostics, take_step
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic

from conftest import fit_loglog_slope


def exact_directions():
    return ExactDirections(OracleCounters())


def one_step(method, problem, x_k, lambda_k, h):
    """take_step of SCHEMES[method] with exact directions: (x_next, lambda_next, diagnostics)."""
    x_next, lambda_next, _, stages = take_step(
        SCHEMES[method], problem, x_k, lambda_k, h, exact_directions()
    )
    return x_next, lambda_next, step_diagnostics(0, lambda_k, math.nan, stages)


def direction(problem, x, lam):
    """The exact ODE direction -(hess F_lam(x))^{-1} grad f(x), uncounted."""
    return problem.hessian(x, lam).solve(problem.f_grad(x)).direction


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

    def test_decay_polynomial_values(self):
        assert decay_polynomial(0.0) == 1.0
        assert decay_polynomial(1.0) == pytest.approx(1.0 - 1.0 + 0.5 - 1 / 6 + 1 / 24, rel=1e-15)


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
        x1, lam1, diag = one_step("euler", scalar_ridge, np.array([0.5]), 1.0, 0.1)
        assert lam1 == pytest.approx(0.9, rel=1e-15)
        assert abs(x1[0] - 1.0 / 1.9) == 0.0
        assert diag.stage_lambdas == [pytest.approx(0.9)]

    def test_hessian_taken_at_new_lambda(self, quad30, quad30_start):
        A, b, problem = quad30
        h = 0.05
        lam_next = 0.95 * 10.0
        x1, _, _ = one_step("euler", problem, quad30_start, 10.0, h)
        g = problem.f_grad(quad30_start)
        d = np.linalg.solve(A.T @ A + lam_next * np.eye(20), -g)
        assert np.allclose(x1, quad30_start + h * d, rtol=1e-12, atol=1e-14)

    def test_fixed_point_at_zero_gradient(self, pure_scalar):
        x1, _, _ = one_step("euler", pure_scalar, np.zeros(1), 1.0, 0.2)
        assert np.array_equal(x1, np.zeros(1))


class TestTrapezoidStep:
    def test_scalar_closed_form(self, pure_scalar):
        # x0=1, lambda=1, h=1/2: d1 = -1/2; stage lambda (1-h+h^2) = 3/4,
        # stage point 3/4, d2 = -(3/4)/(7/4) = -3/7; x1 = 1 - (1/4)(13/14) = 43/56
        x1, lam1, diag = one_step("trapezoid", pure_scalar, np.array([1.0]), 1.0, 0.5)
        assert x1[0] == pytest.approx(43.0 / 56.0, rel=1e-14)
        assert lam1 == pytest.approx(0.625, rel=1e-15)
        assert diag.stage_lambdas == [pytest.approx(1.0), pytest.approx(0.75)]
        assert diag.direction_vectors[0] == pytest.approx([-0.5], rel=1e-15)
        assert diag.direction_vectors[1] == pytest.approx([-3.0 / 7.0], rel=1e-14)
        assert diag.stage_points[1] == pytest.approx([0.75], rel=1e-15)

    def test_first_stage_uses_old_lambda(self, quad30, quad30_start):
        A, b, problem = quad30
        _, _, diag = one_step("trapezoid", problem, quad30_start, 10.0, 0.05)
        g = problem.f_grad(quad30_start)
        d1 = np.linalg.solve(A.T @ A + 10.0 * np.eye(20), -g)
        assert np.allclose(diag.direction_vectors[0], d1, rtol=1e-12, atol=1e-14)


class TestRk4Step:
    def test_stage_lambda_polynomials(self, scalar_ridge):
        h = 0.3
        _, lam1, diag = one_step("rk4", scalar_ridge, np.array([0.5]), 1.0, h)
        expect = [1.0, 1 - h / 2, 1 - h / 2 + h * h / 4, 1 - h + h * h / 2 - h**3 / 4]
        assert diag.stage_lambdas == pytest.approx(expect, rel=1e-15)
        assert lam1 == pytest.approx(decay_polynomial(h), rel=1e-15)

    def test_local_order_via_richardson(self, scalar_ridge):
        # one step from the exact path point: local error is O(h^5), so
        # halving h should shrink it by about 2^5 = 32
        errs = {}
        for h in (0.2, 0.1):
            x1, lam1, _ = one_step("rk4", scalar_ridge, np.array([0.5]), 1.0, h)
            errs[h] = abs(x1[0] - 1.0 / (1.0 + lam1))
        ratio = errs[0.2] / errs[0.1]
        assert 25.0 < ratio < 45.0

    def test_fixed_point_at_zero_gradient(self, pure_scalar):
        x1, _, _ = one_step("rk4", pure_scalar, np.zeros(1), 1.0, 0.2)
        assert np.array_equal(x1, np.zeros(1))


# per-step lambda factor of each scheme at h = 1/2
STEP_DECAYS = {"euler": 0.5, "trapezoid": 0.625, "rk4": decay_polynomial(0.5)}


class TestDomainBackoff:
    @pytest.mark.parametrize("method", list(STEP_DECAYS))
    def test_backoff_halves_increment_until_feasible(self, method):
        # pull toward y = 1.2, outside the simplex; the full step exits,
        # halving the increment lands back inside
        A, b = np.array([[0.5]]), np.array([0.6])
        problem = make_moment_matching(A, b)
        x1, _, diag = one_step(method, problem, np.array([0.9]), 1e-6, 0.5)
        assert diag.domain_backoffs >= 1
        assert problem.domain_check(x1)
        if method == "euler":
            assert diag.domain_backoffs == 1  # one halving suffices
            assert 0.97 < x1[0] < 0.98

    @pytest.mark.parametrize("method", list(STEP_DECAYS))
    def test_lambda_schedule_unchanged_by_backoff(self, method):
        A, b = np.array([[0.5]]), np.array([0.6])
        problem = make_moment_matching(A, b)
        decay = STEP_DECAYS[method]
        _, lam1, diag = one_step(method, problem, np.array([0.9]), 1e-6, 0.5)
        assert diag.domain_backoffs >= 1
        assert lam1 == pytest.approx(decay * 1e-6, rel=1e-15)  # the scheme's decay regardless

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
        dense = dataclasses.replace(problem, hessian_at=None)
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
        dense = dataclasses.replace(problem, hessian_at=None)
        cfg = StepperConfig(
            method=method, K=K, lambda_min=lam_min, lambda_max=lam_max,
            direction_mode=mode, delta=1e-6 if mode == "cg" else None,
        )
        path, rep = run_path(problem, x0, cfg)
        ref_path, ref_rep = run_path(dense, x0, cfg)
        assert rep.counters == ref_rep.counters
        assert np.array_equal(path.lams, ref_path.lams)
        X, X_ref = path.X, ref_path.X
        res, res_ref = path.residuals, ref_path.residuals
        if mode == "cg":
            # a handle's gradient and products are the dense callables' arithmetic
            assert np.array_equal(X, X_ref) and np.array_equal(res, res_ref)
            return
        assert np.all(np.abs(X - X_ref).max(axis=1) <= 1e-12 * np.abs(X_ref).max(axis=1))
        assert np.all(np.abs(res - res_ref) <= 1e-11)
        acc, acc_ref = accuracy_midpoint(problem, path), accuracy_midpoint(dense, ref_path)
        assert acc == pytest.approx(acc_ref, rel=1e-9)

    def test_no_assembly_when_the_structure_is_set(self):
        # every exact-direction caller goes through the Hessian handle, so with
        # the Hessian callables disabled all of them still run
        problem, x0, (lam_min, lam_max), _ = _moment_instance(30)

        def no_assembly(x):
            raise AssertionError("dense Hessian assembled")

        blind = dataclasses.replace(problem, f_hess=no_assembly, omega_hess=no_assembly)
        for method in ("euler", "trapezoid", "rk4"):
            cfg = StepperConfig(method=method, K=16, lambda_min=lam_min, lambda_max=lam_max)
            run_path(blind, x0, cfg)
        assert np.array_equal(direction(blind, x0, 1.0), direction(problem, x0, 1.0))
        x_omega = initialize_from_omega(problem, lam_max)[0]
        assert np.array_equal(initialize_from_omega(blind, lam_max)[0], x_omega)
        assert np.array_equal(initialize_by_newton(blind, lam_max, 1e-10), x0)


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
            direction_mode="cg", delta=1e-8, record_diagnostics=True,
        )
        _, rep = run_path(logistic_small, x0, cfg)
        diags = rep.step_diagnostics
        assert diags[0].cg_initial_residuals[0] == pytest.approx(
            float(np.linalg.norm(logistic_small.f_grad(x0))), rel=1e-12
        )
        previous = None
        for diag in diags:
            assert diag.domain_backoffs == 0
            warm = [previous] + diag.direction_vectors[:-1]
            for i, d in enumerate(warm):
                if d is None:
                    continue
                x, lam = diag.stage_points[i], diag.stage_lambdas[i]
                H = logistic_small.total_hess(x, lam)
                expect = float(np.linalg.norm(H @ d + logistic_small.f_grad(x)))
                assert diag.cg_initial_residuals[i] == pytest.approx(expect, rel=1e-12)
            previous = diag.direction_vectors[self.CARRY_STAGE[method]]


# ---------------------------------------------------------------- run_path


class TestRunPath:
    def test_lambda_endpoint_reached(self, quad30, quad30_start):
        _, _, problem = quad30
        for method, K in (("euler", 60), ("trapezoid", 40), ("rk4", 40)):
            cfg = StepperConfig(method=method, K=K, lambda_min=0.01, lambda_max=10.0)
            path, _ = run_path(problem, quad30_start, cfg)
            assert path.lams[0] == 10.0
            assert path.lams[-1] == pytest.approx(0.01, rel=1e-9)

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
            assert c.linear_solves == per_step * K
            assert c.hessvec == 0 and c.cg_iters_total == 0
            assert c.metric_evals == K + 1  # one residual per knot

    def test_cg_mode_swaps_solves_for_hessvec(self, quad30, quad30_start):
        _, _, problem = quad30
        cfg = StepperConfig(
            method="euler", K=12, lambda_min=0.01, lambda_max=10.0,
            direction_mode="cg", delta=1e-6,
        )
        path, rep = run_path(problem, quad30_start, cfg)
        c = rep.counters
        assert rep.method == "euler-cg"
        assert c.linear_solves == 0 and c.hess_builds == 0
        assert c.hessvec > 0 and c.cg_iters_total > 0

    def test_cg_direction_residuals_within_delta(self, quad30, quad30_start):
        _, _, problem = quad30
        delta = 1e-5
        cfg = StepperConfig(
            method="trapezoid", K=16, lambda_min=0.01, lambda_max=10.0,
            direction_mode="cg", delta=delta, record_diagnostics=True,
        )
        _, rep = run_path(problem, quad30_start, cfg)
        for diag in rep.step_diagnostics:
            assert len(diag.direction_residuals) == 2  # one per stage
            for r in diag.direction_residuals:
                assert r <= delta * (1.0 + 1e-12)

    def test_diagnostics_stage_counts(self, quad30, quad30_start):
        _, _, problem = quad30
        for method, stages in (("euler", 1), ("trapezoid", 2), ("rk4", 4)):
            cfg = StepperConfig(
                method=method, K=12, lambda_min=0.01, lambda_max=10.0,
                record_diagnostics=True,
            )
            _, rep = run_path(problem, quad30_start, cfg)
            assert len(rep.step_diagnostics) == 12
            for k, diag in enumerate(rep.step_diagnostics):
                assert diag.k == k
                assert len(diag.stage_lambdas) == stages
                assert len(diag.direction_norms) == stages
                assert np.isfinite(diag.residual_r_k)

    def test_no_diagnostics_by_default(self, quad30, quad30_start):
        _, _, problem = quad30
        cfg = StepperConfig(method="euler", K=5, lambda_min=0.01, lambda_max=10.0)
        _, rep = run_path(problem, quad30_start, cfg)
        assert rep.step_diagnostics == []

    @pytest.mark.parametrize("mode", ["exact", "cg"])
    @pytest.mark.parametrize("method", ["euler", "trapezoid", "rk4"])
    @pytest.mark.parametrize("instance", ["logistic", "backoff-1d"])
    def test_recording_is_observation_only(self, logistic_small, instance, method, mode):
        # the backoff-1d instance is TestDomainBackoff's; its steps halve
        if instance == "logistic":
            problem, lam_min, lam_max = logistic_small, 0.1, 10.0
        else:
            problem = make_moment_matching(np.array([[0.5]]), np.array([0.6]))
            lam_min, lam_max = 1e-4, 1.0
        x0 = initialize_by_newton(problem, lam_max, 1e-10)
        runs = {}
        for record in (False, True):
            cfg = StepperConfig(
                method=method, K=20, lambda_min=lam_min, lambda_max=lam_max,
                direction_mode=mode, delta=1e-6 if mode == "cg" else None,
                record_diagnostics=record,
            )
            runs[record] = run_path(problem, x0, cfg)
        (quiet_path, quiet), (loud_path, loud) = runs[False], runs[True]
        assert quiet.step_diagnostics == [] and len(loud.step_diagnostics) == 20
        for field in ("lams", "X", "residuals"):
            assert np.array_equal(getattr(quiet_path, field), getattr(loud_path, field))
        assert quiet.counters.as_dict() == loud.counters.as_dict()
        if instance == "backoff-1d":
            assert sum(d.domain_backoffs for d in loud.step_diagnostics) > 0

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

    def test_newton_reaches_tight_tolerance(self, quad30):
        _, _, problem = quad30
        x0 = initialize_by_newton(problem, 10.0, 1e-12)
        assert np.linalg.norm(problem.total_grad(x0, 10.0)) <= 1e-12

    def test_newton_respects_given_start(self, quad30):
        A, b, problem = quad30
        from pathode import quadratic_path_point

        exact = quadratic_path_point(A, b, 10.0)
        x0 = initialize_by_newton(problem, 10.0, 1e-8, x_start=exact)
        assert np.array_equal(x0, exact)  # already feasible, returned as-is

    @pytest.mark.slow
    def test_newton_reaches_float_floor_on_logistic(self, logistic_newton_start):
        problem, _ = logistic_newton_start
        x0 = initialize_by_newton(problem, 100.0, 1e-15)
        assert np.linalg.norm(problem.total_grad(x0, 100.0)) <= 1e-15
