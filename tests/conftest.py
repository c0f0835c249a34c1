"""Shared fixtures: standard seeded instances and the acceptance summary hook.

Instances are session-scoped because several suites reuse the same runs;
everything is seeded, so sharing is safe.
"""

import dataclasses

import numpy as np
import pytest

from pathode import (
    StepperConfig,
    initialize_by_newton,
    make_logistic_ridge,
    make_quadratic_ridge,
    quadratic_path_point,
    quadratic_theory_constants,
    run_path,
    solve_spd,
)
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic

_SUMMARY_LINES: list[str] = []

# K ladder over which the acceptance suite fits convergence orders.
ORDER_KS = (50, 100, 200, 400, 800)


@pytest.fixture(scope="session")
def criterion_report():
    """Collector for one-line acceptance verdicts, printed at session end."""
    return _SUMMARY_LINES


def record_criterion(report, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    report.append(f"{name}: {verdict} - {detail}")
    assert ok, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _SUMMARY_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _SUMMARY_LINES:
            terminalreporter.write_line(line)


def fit_loglog_slope(ks, values):
    """Least-squares slope of log(values) against log(ks)."""
    return float(np.polyfit(np.log(np.asarray(ks, float)), np.log(np.asarray(values, float)), 1)[0])


class _WrappedHandle:
    """A Hessian handle with some methods replaced; the others pass through."""

    def __init__(self, handle, methods):
        self._handle = handle
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def with_handle_methods(problem, make_methods):
    """problem whose handle at (x, lam) takes the methods make_methods(problem, x, lam) names."""

    def hessian(x, lam):
        return _WrappedHandle(problem.hessian(x, lam), make_methods(problem, x, lam))

    return dataclasses.replace(problem, hessian=hessian)


def with_dense_solve(problem):
    """problem whose handles solve and multiply with the assembled total_hess."""

    def methods(problem, x, lam):
        H = problem.total_hess(x, lam)
        return {"solve": lambda g: solve_spd(H, g), "matvec": lambda v: H @ v}

    return with_handle_methods(problem, methods)


# ---------------------------------------------------------------- instances


@pytest.fixture(scope="session")
def quad30():
    """The standard quadratic ridge instance: n=30, p=20, seed=1."""
    A, b = generate_synthetic_quadratic(30, 20, 1)
    return A, b, make_quadratic_ridge(A, b)


@pytest.fixture(scope="session")
def quad30_start(quad30):
    """Exact path point at lambda_max = 10, the canonical warm start."""
    A, b, _ = quad30
    return quadratic_path_point(A, b, 10.0)


@pytest.fixture(scope="session")
def quad30_constants(quad30, quad30_start):
    A, b, _ = quad30
    return quadratic_theory_constants(A, b, quad30_start, 0.01, 10.0)


@pytest.fixture(scope="session")
def small_quad():
    """A 6x4 instance scaled so the iteration bounds stay desk-sized.

    ||A||_2 = 1 and ||b|| = 1/2 keep L, G, and f(x0) - f* small enough that
    k_euler lands near 2.6e3 and k_trapezoid near 5.7e3 at eps = 1e-3.
    """
    rng = np.random.Generator(np.random.Philox(11))
    A = rng.normal(size=(6, 4))
    A = A / np.linalg.norm(A, 2)
    b = rng.normal(size=6)
    b = b * (0.5 / np.linalg.norm(b))
    return A, b, make_quadratic_ridge(A, b)


@pytest.fixture(scope="session")
def scalar_ridge():
    """f(x) = (x-1)^2/2, Omega = x^2/2; closed form x(lam) = 1/(1+lam)."""
    return make_quadratic_ridge(np.array([[1.0]]), np.array([1.0]))


@pytest.fixture(scope="session")
def logistic_small():
    """Logistic ridge n=50, p=10, seed=3, used by the bound suites."""
    X, y = generate_synthetic_logistic(50, 10, 3)
    return make_logistic_ridge(X, y)


# ------------------------------------------------- shared acceptance runs


@pytest.fixture(scope="session")
def quad_ladder_runs(quad30, quad30_start):
    """K-ladder runs per method on quad30 with both accuracy metrics.

    Used by the monotone-accuracy, convergence-order, and midpoint-vs-dense
    suites, so computed once.  Values keyed (method, K).
    """
    from pathode import accuracy_dense, accuracy_midpoint

    import time

    _, _, problem = quad30
    dense_ladder = (400, 1600, 6400)
    out = {}
    for method in ("euler", "trapezoid", "rk4"):
        for K in (50, 100, 200, 400, 800, 1600, 6400):
            cfg = StepperConfig(method=method, K=K, lambda_min=0.01, lambda_max=10.0)
            path, rep = run_path(problem, quad30_start, cfg)
            dense, dense_wall = None, 0.0
            if K in dense_ladder:
                t0 = time.perf_counter()
                dense = accuracy_dense(problem, path, points_per_interval=1000)
                dense_wall = time.perf_counter() - t0
            knot_res = path.residuals
            out[(method, K)] = {
                "midpoint": accuracy_midpoint(problem, path),
                "dense": dense,
                "knots": knot_res,
                "wall": rep.wall_time_seconds + dense_wall,
            }
    return out


@pytest.fixture(scope="session")
def logistic_ladder_runs(logistic_small):
    """K-ladder runs of euler and trapezoid on logistic_small over [0.1, 10].

    The convergence-order clauses need an instance whose Hessian varies
    along the path; on a quadratic the leading error terms vanish.  Started
    from Newton at tol 1e-10, like criterion 4.  Values keyed (method, K).
    """
    from pathode import accuracy_midpoint

    x0 = initialize_by_newton(logistic_small, 10.0, 1e-10)
    out = {}
    for method in ("euler", "trapezoid"):
        for K in ORDER_KS:
            cfg = StepperConfig(method=method, K=K, lambda_min=0.1, lambda_max=10.0)
            path, _ = run_path(logistic_small, x0, cfg)
            out[(method, K)] = {
                "midpoint": accuracy_midpoint(logistic_small, path),
                "knots": path.residuals,
            }
    return out


@pytest.fixture(scope="session")
def logistic_newton_start():
    """(problem, x0) for the n=200 logistic instance, started at tol 1e-10."""
    X, y = generate_synthetic_logistic(200, 30, 5)
    problem = make_logistic_ridge(X, y)
    x0 = initialize_by_newton(problem, 100.0, 1e-10)
    return problem, x0
