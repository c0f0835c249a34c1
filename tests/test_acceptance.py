"""End-to-end acceptance gate: one test per stated target, one verdict line each.

Each test records a PASS/FAIL line through record_criterion; the collected
lines are printed in the "acceptance criteria" section at the end of the
pytest run.

One convergence-order clause (2a) is marked known_failure.  It fits the
one-stage knot order on the standard quadratic instance quad30, where the
semi-implicit Euler step maps the knot gradient exactly:
grad F_{lam_{k+1}}(x_{k+1}) = (1 - h) grad F_{lam_k}(x_k).  The knot residuals
therefore sit at float noise whatever K is, and no slope band can hold.
First-order knot decay on a varying Hessian is checked in test_steppers.

The order bands are upper-bound rates whose leading error term is the
Hessian's variation along the path, so 2b and 2d measure on the logistic
instance logistic_small (lambda in [0.1, 10]), where that term is nonzero.
The notes inside the tests carry the measured slopes; everything else is
green.
"""

import argparse

import numpy as np
import pytest

from conftest import ORDER_KS, fit_loglog_slope, record_criterion
from pathode import (
    GridSearchConfig,
    StepperConfig,
    TheoryConstants,
    accuracy_midpoint,
    build_moment_problem,
    cg_iteration_bound,
    generate_synthetic_moment_data,
    initialize_by_newton,
    initialize_from_omega,
    k_euler,
    k_euler_approx,
    k_trapezoid,
    k_trapezoid_approx,
    make_logistic_ridge,
    make_moment_matching,
    quadratic_theory_constants,
    run_path,
    solve_grid,
    step_bound_euler,
    step_bound_euler_approx,
    step_bound_trapezoid,
    step_bound_trapezoid_approx,
    stepsize_bounds,
)
from pathode import cli
from pathode.datasets import generate_synthetic_logistic

DENSE_KS = (400, 1600, 6400)


def knot_maxima(ladder, method, floor=0.0):
    """Max knot residual per K, knot 0 excluded (it reflects the start,
    not the step order), optionally floored."""
    return [max(float(np.max(ladder[(method, K)]["knots"][1:])), floor) for K in ORDER_KS]


def midpoint_values(ladder, method):
    return [ladder[(method, K)]["midpoint"] for K in ORDER_KS]


# ------------------------------------------------------------ criterion 1


def test_c01_dense_accuracy_monotone_and_small(quad_ladder_runs, criterion_report):
    details = []
    ok = True
    for method in ("euler", "trapezoid", "rk4"):
        dense = [quad_ladder_runs[(method, K)]["dense"] for K in DENSE_KS]
        walls = [quad_ladder_runs[(method, K)]["wall"] for K in DENSE_KS]
        monotone = all(a > b for a, b in zip(dense, dense[1:]))
        reaches = min(dense) < 1e-6
        fast = max(walls) < 10.0
        ok = ok and monotone and reaches and fast
        details.append(f"{method} dense(K=6400)={dense[-1]:.3g} wall<={max(walls):.2f}s")
    record_criterion(
        criterion_report,
        "criterion 1 (dense accuracy monotone in K, < 1e-6 by K <= 1e4, < 10 s/run)",
        ok,
        "; ".join(details),
    )


# ------------------------------------------------------------ criterion 2


@pytest.mark.known_failure
def test_c02a_euler_knot_order(quad_ladder_runs, criterion_report):
    # Measured: knot residuals sit at float noise (8.4e-15..2.9e-14) at every
    # K because on quad30 the Euler step gives r_{k+1} = (1 - h) r_k exactly,
    # so the fitted slope (+0.42) is noise, far outside -1 +/- 0.25.  A
    # genuinely first-order knot decay on a varying-Hessian instance is
    # locked in test_steppers (logistic slope -1.005).
    vals = knot_maxima(quad_ladder_runs, "euler")
    slope = fit_loglog_slope(ORDER_KS, vals)
    record_criterion(
        criterion_report,
        "criterion 2a (one-stage knot residual order -1 +/- 0.25)",
        -1.25 <= slope <= -0.75,
        f"slope={slope:.3f}, knot maxima {vals[0]:.2e}..{vals[-1]:.2e}",
    )


def test_c02b_trapezoid_knot_order(logistic_ladder_runs, criterion_report):
    # Measured on logistic_small over [0.1, 10]: slope -1.973.  On quad30 the
    # slope is -3.06 (the h^3 local term carries the cubic Taylor remainder,
    # zero for a quadratic); that superconvergence is checked in test_steppers.
    vals = knot_maxima(logistic_ladder_runs, "trapezoid")
    slope = fit_loglog_slope(ORDER_KS, vals)
    record_criterion(
        criterion_report,
        "criterion 2b (two-stage knot residual order -2 +/- 0.3)",
        -2.3 <= slope <= -1.7,
        f"slope={slope:.3f}",
    )


def test_c02c_rk4_knot_order(quad_ladder_runs, criterion_report):
    vals = knot_maxima(quad_ladder_runs, "rk4", floor=1e-12)
    slope = fit_loglog_slope(ORDER_KS, vals)
    record_criterion(
        criterion_report,
        "criterion 2c (four-stage knot residual order <= -3.5, floored at 1e-12)",
        slope <= -3.5,
        f"slope={slope:.3f}",
    )


def test_c02d_euler_path_accuracy_order(logistic_ladder_runs, criterion_report):
    # Measured on logistic_small over [0.1, 10]: slope -1.011.  On quad30 the
    # slope is -1.97: its knots are exact, so the path accuracy there is
    # purely interpolation-limited, which is second order.
    vals = midpoint_values(logistic_ladder_runs, "euler")
    slope = fit_loglog_slope(ORDER_KS, vals)
    record_criterion(
        criterion_report,
        "criterion 2d (one-stage path accuracy order -1 +/- 0.25)",
        -1.25 <= slope <= -0.75,
        f"slope={slope:.3f}",
    )


def test_c02e_trapezoid_path_accuracy_order(quad_ladder_runs, criterion_report):
    vals = midpoint_values(quad_ladder_runs, "trapezoid")
    slope = fit_loglog_slope(ORDER_KS, vals)
    record_criterion(
        criterion_report,
        "criterion 2e (two-stage path accuracy order -2 +/- 0.3)",
        -2.3 <= slope <= -1.7,
        f"slope={slope:.3f}",
    )


def test_c02f_rk4_path_accuracy_order(quad_ladder_runs, criterion_report):
    vals = midpoint_values(quad_ladder_runs, "rk4")
    slope = fit_loglog_slope(ORDER_KS, vals)
    record_criterion(
        criterion_report,
        "criterion 2f (four-stage path accuracy order -2 +/- 0.3, interpolation-limited)",
        -2.3 <= slope <= -1.7,
        f"slope={slope:.3f}",
    )


# ------------------------------------------------------------ criterion 3


def test_c03_bound_driven_runs_reach_eps(small_quad, criterion_report):
    A, b, problem = small_quad
    eps = 1e-3
    x0 = initialize_by_newton(problem, 5.0, 1e-13)
    constants, f_gap = quadratic_theory_constants(A, b, x0, 0.5, 5.0)
    K_E = k_euler(constants, eps, f_gap).K_required
    K_tr = k_trapezoid(constants, eps).K_required
    assert K_E <= 10**5 and K_tr <= 10**4
    results = {}
    for method, K in (("euler", K_E), ("trapezoid", K_tr)):
        path, _ = run_path(
            problem, x0, StepperConfig(method=method, K=K, lambda_min=0.5, lambda_max=5.0)
        )
        results[method] = (K, accuracy_midpoint(problem, path))
    ok = all(ahat <= eps for _, ahat in results.values())
    record_criterion(
        criterion_report,
        "criterion 3 (running at the computed K attains eps, true constants)",
        ok,
        "; ".join(f"{m}: K={K}, Ahat={a:.3e} <= {eps:g}" for m, (K, a) in results.items()),
    )


# ------------------------------------------------------------ criterion 4


def _measured_constants(problem, path):
    """Certified mu/sigma/lipschitz plus the measured gradient sup over the
    knots; a smaller G than the true level-set constant only tightens the
    per-step bounds being verified."""
    G = max(
        max(np.linalg.norm(problem.f_grad(x)), np.linalg.norm(problem.omega_grad(x)))
        for x in path.X
    )
    return TheoryConstants(
        mu=problem.mu,
        sigma=problem.sigma,
        L=problem.lipschitz,
        G=G,
        lambda_min=path.lams[-1],
        lambda_max=path.lams[0],
    )


def _min_step_slack(problem, x0, lo, hi, K, delta):
    """Smallest (bound - measured next residual) over all steps of the four
    method/direction combinations, plus the two-stage premise r_k <= mu_tilde."""
    worst = np.inf
    for method in ("euler", "trapezoid"):
        for mode in ("exact", "cg"):
            cfg = StepperConfig(
                method=method,
                K=K,
                lambda_min=lo,
                lambda_max=hi,
                delta=delta if mode == "cg" else None,
            )
            steps = []
            path, rep = run_path(problem, x0, cfg, steps=steps)
            c = _measured_constants(problem, path)
            for k, d in enumerate(steps):
                lam_k, lam_n = path.lams[k], path.lams[k + 1]
                r_k = path.residuals[k]
                if method == "euler":
                    if mode == "exact":
                        bound = step_bound_euler(
                            r_k, lam_k, lam_n, rep.h, c.L,
                            np.linalg.norm(d.stages[0].direction),
                        )
                    else:
                        bound = step_bound_euler_approx(
                            r_k,
                            lam_k,
                            lam_n,
                            rep.h,
                            c.L,
                            np.linalg.norm(d.stages[0].direction),
                            d.stages[0].residual_norm,
                        )
                else:
                    assert r_k <= c.mu_tilde  # premise clause
                    if mode == "exact":
                        bound = step_bound_trapezoid(
                            r_k, lam_n / lam_k, rep.h, c.L, c.G, c.tau
                        )
                    else:
                        bound = step_bound_trapezoid_approx(
                            r_k,
                            lam_n / lam_k,
                            rep.h,
                            c.L,
                            c.G,
                            c.tau,
                            d.stages[0].residual_vector,
                            d.stages[1].residual_vector,
                        )
                worst = min(worst, bound - path.residuals[k + 1])
    return worst


def test_c04_per_step_bounds_hold(quad30, quad30_start, logistic_small, criterion_report):
    _, _, quad = quad30
    slack_q = _min_step_slack(quad, quad30_start, 0.01, 10.0, 200, delta=1e-5)
    x0_l = initialize_by_newton(logistic_small, 10.0, 1e-10)
    slack_l = _min_step_slack(logistic_small, x0_l, 0.1, 10.0, 300, delta=1e-5)
    ok = slack_q >= -1e-9 and slack_l >= -1e-9
    record_criterion(
        criterion_report,
        "criterion 4 (per-step residual bounds hold at every step, slack >= -1e-9)",
        ok,
        f"min slack quadratic={slack_q:.3e}, logistic={slack_l:.3e}",
    )


# ------------------------------------------------------------ criterion 5


def test_c05_interpolation_and_uniform_bounds(quad30, quad30_start, quad30_constants, criterion_report):
    _, _, problem = quad30
    constants, f_gap = quad30_constants
    K = 200
    cfg = StepperConfig(method="euler", K=K, lambda_min=0.01, lambda_max=10.0)
    path, rep = run_path(problem, quad30_start, cfg)
    ahat = accuracy_midpoint(problem, path)
    lams, X = path.lams, path.X
    h, L = rep.h, constants.L
    r_max = max(path.residuals)
    interp = (L / 8.0) * max(
        (1.0 + lams[k]) * float(np.linalg.norm(X[k + 1] - X[k])) ** 2
        + 2.0 * h * lams[k] * float(np.linalg.norm(X[k + 1] - X[k]))
        for k in range(K)
    )
    interp_ok = ahat <= r_max + interp + 1e-9
    # the uniform bound applies because h satisfies the simplified step rule
    premise = h <= stepsize_bounds(constants, lams[1])[1]
    uniform = (
        path.residuals[0]
        + 2.0 * h * constants.tau * L * f_gap
        + h * h * L / 8.0 * (constants.tau * constants.G + 1.0) ** 2
    )
    uniform_ok = premise and ahat <= uniform + 1e-9
    record_criterion(
        criterion_report,
        "criterion 5 (interpolation bound and uniform path bound dominate measured accuracy)",
        interp_ok and uniform_ok,
        f"Ahat={ahat:.3e} <= knot+interp bound {r_max + interp:.3e}; "
        f"uniform bound {uniform:.3f} (h={h:.4f} admissible: {premise})",
    )


# ------------------------------------------------------------ criterion 6


def test_c06_cg_variants_reach_eps_within_iteration_bounds(small_quad, criterion_report):
    A, b, problem = small_quad
    eps = 1e-2
    delta = eps / 4.0
    x0 = initialize_by_newton(problem, 5.0, eps / 8.0)
    constants, f_gap = quadratic_theory_constants(A, b, x0, 0.5, 5.0)
    K_E = k_euler_approx(constants, eps, f_gap).K_required
    K_tr = k_trapezoid_approx(constants, eps).K_required
    eigs = np.linalg.eigvalsh(A.T @ A)
    results, violations = {}, 0
    for method, K in (("euler", K_E), ("trapezoid", K_tr)):
        cfg = StepperConfig(
            method=method,
            K=K,
            lambda_min=0.5,
            lambda_max=5.0,
            delta=delta,
        )
        steps = []
        path, rep = run_path(problem, x0, cfg, steps=steps)
        results[method] = (K, accuracy_midpoint(problem, path))
        for d in steps:
            for lam_s, r in zip(d.stage_lambdas, d.stages):
                kappa = (eigs[-1] + lam_s) / (eigs[0] + lam_s)
                if r.inner_iterations > cg_iteration_bound(kappa, r.initial_residual, delta):
                    violations += 1
    ok = violations == 0 and all(a <= eps for _, a in results.values())
    record_criterion(
        criterion_report,
        "criterion 6 (CG variants at delta=eps/4 reach eps; CG iterations within bound)",
        ok,
        "; ".join(f"{m}-cg: K={K}, Ahat={a:.3e}" for m, (K, a) in results.items())
        + f"; iteration-bound violations={violations}",
    )


# ------------------------------------------------------------ criterion 7


def test_c07_exact_oracle_counts(quad30, quad30_start, criterion_report):
    _, _, problem = quad30
    ok = True
    details = []
    for method, K, per_step in (("euler", 7, 1), ("trapezoid", 12, 2), ("rk4", 12, 4)):
        _, rep = run_path(
            problem,
            quad30_start,
            StepperConfig(method=method, K=K, lambda_min=0.01, lambda_max=10.0),
        )
        c = rep.counters
        want = per_step * K
        good = c.hess_builds == want
        ok = ok and good
        details.append(f"{method} K={K}: {c.hess_builds} builds (want {want})")
    cfg = GridSearchConfig(
        num_points=12, inner_solver="newton", inner_tol=1e-8, lambda_min=0.01, lambda_max=10.0
    )
    _, rep = solve_grid(problem, np.zeros(problem.dim), cfg)
    grid_good = rep.inner_iterations == [1] * 12
    ok = ok and grid_good
    details.append(f"grid inner iterations {rep.inner_iterations}")
    record_criterion(
        criterion_report,
        "criterion 7 (exact K/2K/4K oracle counts; 1 inner iteration per grid point)",
        ok,
        "; ".join(details),
    )


# ------------------------------------------------------------ criterion 10


def test_c10_initializer_bound(quad30, logistic_small, criterion_report):
    _, _, quad = quad30
    x_q, bound_q = initialize_from_omega(quad, 10.0)
    meas_q = float(np.linalg.norm(quad.total_grad(x_q, 10.0)))
    x_l, bound_l = initialize_from_omega(logistic_small, 10.0)
    meas_l = float(np.linalg.norm(logistic_small.total_grad(x_l, 10.0)))
    ok = meas_q <= bound_q + 1e-10 and meas_l <= bound_l + 1e-10
    record_criterion(
        criterion_report,
        "criterion 10 (regularizer-start residual within its analytic bound)",
        ok,
        f"quadratic {meas_q:.2e} <= {bound_q:.3g}; logistic {meas_l:.2e} <= {bound_l:.3g}",
    )


# ------------------------------------------------------------ criterion 11


def test_c11_midpoint_matches_dense(quad_ladder_runs, criterion_report):
    worst = 0.0
    for method in ("euler", "trapezoid", "rk4"):
        for K in DENSE_KS:
            entry = quad_ladder_runs[(method, K)]
            rel = abs(entry["midpoint"] / entry["dense"] - 1.0)
            worst = max(worst, rel)
    record_criterion(
        criterion_report,
        "criterion 11 (midpoint and dense-grid accuracy agree within 5%)",
        worst <= 0.05,
        f"worst relative gap {worst:.2%}",
    )


# ----------------------------------------------- criteria 8 and 9 (slow)


def _double_until(problem, method, eps, K0, x0):
    """cli.run_doubling on [1e-2, 1e2] with the CLI's default tolerances (delta = eps/4,
    inner_tol = eps/2) and 32 attempts; returns (K, last report, path)."""
    args = argparse.Namespace(
        lambda_min=1e-2, lambda_max=1e2, allow_degenerate=False, delta=None, inner_tol=None
    )
    K, path, reports, passed = cli.run_doubling(problem, {}, method, eps, K0, 31, args, x0)
    assert passed, f"{method} never reached eps={eps:g}"
    return K, reports[-1], path


@pytest.mark.slow
def test_c08_hessian_count_ordering(criterion_report):
    X, y = generate_synthetic_logistic(200, 30, 11)
    problem = make_logistic_ridge(X * 16.0, y)
    x0 = initialize_by_newton(problem, 100.0, 1e-8)
    carried = {"trapezoid": 16, "euler": 16, "grid-newton": 16}
    details = []
    ok = True
    for eps in (1e-3, 1e-4, 1e-5):
        counts = {}
        for method in carried:
            K, rep, _ = _double_until(problem, method, eps, carried[method], x0)
            carried[method] = K
            counts[method] = rep.counters.hess_builds
        ok = ok and counts["trapezoid"] < counts["euler"] < counts["grid-newton"]
        details.append(
            f"eps={eps:g}: trapezoid {counts['trapezoid']} < euler {counts['euler']}"
            f" < grid {counts['grid-newton']}"
        )
    record_criterion(
        criterion_report,
        "criterion 8 (Hessian-build counts: trapezoid < one-stage < grid at every eps)",
        ok,
        "; ".join(details),
    )


@pytest.mark.slow
def test_c09_moment_knots_stay_interior(criterion_report):
    w, x_true = generate_synthetic_moment_data(50, 7)
    A_red, b_red = build_moment_problem(w, x_true, 5)
    problem = make_moment_matching(A_red, b_red)
    eps = 1e-5
    x0 = initialize_by_newton(problem, 100.0, 1e-12)
    details = []
    all_interior = True
    for method in ("euler", "trapezoid", "rk4", "euler-cg", "trapezoid-cg", "rk4-cg", "grid-newton"):
        K, _, path = _double_until(problem, method, eps, 16, x0)
        interior = all(problem.domain_check(x) for x in path.X)
        all_interior = all_interior and interior
        details.append(f"{method} K={K}{'' if interior else ' EXITED DOMAIN'}")
    record_criterion(
        criterion_report,
        "criterion 9 (all knots stay in the relative interior at the doubled-to K)",
        all_interior,
        "; ".join(details),
    )
