"""Grid-search baselines: solve F_lambda to fixed accuracy on a geometric grid.

The competing classical scheme: take K geometrically spaced lambdas over
[lambda_min, lambda_max] (the ODE paths' lambda_schedule), warm-start each
subproblem from the previous solution, and run an inner solver (exact Newton
or accelerated gradient) until the gradient norm reaches inner_tol.  The
resulting path is piecewise constant: each solved point is held across the
interval below it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .linsolve import NotPositiveDefiniteError
from .paths import PiecewiseConstantPath
from .problems import DomainError, ProblemOracle, check_lambda_range
from .reports import OracleCounters, RunReport
from .steppers import MaxIterationsError, PathRunError, lambda_schedule, newton_solve

INNER_SOLVERS = ("newton", "agd")
DEFAULT_NEWTON_CAP = 200
DEFAULT_AGD_CAP = 2_000_000


@dataclass(frozen=True)
class GridSearchConfig:
    """Frozen grid geometry plus inner-solver choice and stopping tolerance."""

    num_points: int
    inner_solver: str
    inner_tol: float
    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if self.num_points < 2:
            raise ValueError("num_points must be at least 2 (both endpoints)")
        if self.inner_solver not in INNER_SOLVERS:
            raise ValueError(f"inner_solver must be one of {INNER_SOLVERS}")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        check_lambda_range(self.lambda_min, self.lambda_max)


def agd_inner(
    problem: ProblemOracle,
    lam: float,
    x_start: np.ndarray,
    tol: float,
    mu_eff: float,
    L_eff: float,
    counters: OracleCounters,
    cap: int = DEFAULT_AGD_CAP,
    terms: tuple | None = None,
):
    """Constant-momentum accelerated gradient descent on F_lambda.

    Momentum (sqrt(kappa) - 1)/(sqrt(kappa) + 1) with kappa = L_eff/mu_eff,
    step 1/L_eff; stops when the gradient norm at the extrapolated point
    reaches tol and returns (point, iterations, gradient norm, terms).
    terms = (f_grad, omega_grad, f_value, omega_value) at x_start, None where
    not made, as in newton_solve: only the entry gradient is reused, and the
    returned terms hold the gradients at the returned point.  Each gradient
    made charges one pair to counters.  Raises MaxIterationsError after cap
    iterations.
    """
    if mu_eff <= 0.0 or L_eff < mu_eff:
        raise ValueError("need 0 < mu_eff <= L_eff")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    kappa = L_eff / mu_eff
    beta = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    x = np.array(x_start, dtype=float, copy=True)
    y = x.copy()
    fg, og, fv, ov = terms or (None, None, None, None)
    for it in range(cap + 1):
        if fg is None:
            fg, og = problem.f_grad(y), problem.omega_grad(y)
            counters.grad_f += 1
            counters.grad_omega += 1
        g = fg + lam * og
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return y, it, gnorm, (fg, og, fv, ov)
        x_new = y - g / L_eff
        if not problem.domain_check(x_new):
            raise DomainError("accelerated gradient left the domain")
        y = x_new + beta * (x_new - x)
        if not problem.domain_check(y):
            raise DomainError("accelerated gradient extrapolation left the domain")
        x = x_new
        fg = og = fv = ov = None
    raise MaxIterationsError(f"agd inner solver exceeded {cap} iterations")


def solve_grid(
    problem: ProblemOracle,
    x0: np.ndarray,
    config: GridSearchConfig,
    *,
    allow_degenerate: bool = False,
) -> tuple[PiecewiseConstantPath, RunReport]:
    """Solve every grid point to inner_tol, warm-starting down the grid.

    Returns the piecewise-constant path and a report; report.inner_iterations
    lists the inner iteration count per grid point.  Newton inner work charges
    gradients, Hessian builds, and solves; AGD charges gradients only.  The
    terms of F_lambda = f + lambda Omega at a point do not depend on lambda,
    so each point's solve starts from the previous point's exit terms: a warm
    start makes no new gradient, and grad_f = grad_omega = sum(iterations) + 1.
    Knot residuals reuse the inner solver's exit gradient norm, so no extra
    metric evaluations are made here.  A failed inner solve raises PathRunError
    carrying the points finished before it.
    """
    x = problem.checked_start(x0, allow_degenerate)
    if problem.lipschitz is None and config.inner_solver == "agd":
        raise ValueError("agd needs a Lipschitz certificate for its step size")
    counters = OracleCounters()
    lams = lambda_schedule(config.lambda_min, config.lambda_max, config.num_points - 1)
    X = np.empty((len(lams), problem.dim))
    res = np.empty(len(lams))
    iterations: list[int] = []
    terms = None
    t0 = time.perf_counter()
    for idx, lam in enumerate(lams):
        lam = float(lam)
        try:
            if config.inner_solver == "newton":
                x, iters, res[idx], terms = newton_solve(
                    problem, lam, x, config.inner_tol, DEFAULT_NEWTON_CAP, counters, terms
                )
            else:
                mu_eff = problem.mu + lam * problem.sigma
                L_eff = problem.lipschitz * (1.0 + lam)
                x, iters, res[idx], terms = agd_inner(
                    problem, lam, x, config.inner_tol, mu_eff, L_eff, counters,
                    DEFAULT_AGD_CAP, terms,
                )
        except (DomainError, MaxIterationsError, NotPositiveDefiniteError) as exc:
            raise PathRunError(
                f"grid point {idx} (lambda = {lam:g}) failed: {exc}",
                lams[:idx], X[:idx], res[:idx], [], idx,
            ) from exc
        X[idx] = x
        iterations.append(iters)
    report = RunReport(
        method=f"grid-{config.inner_solver}",
        K=config.num_points,
        h=None,
        counters=counters,
        wall_time_seconds=time.perf_counter() - t0,
        lambda_min=config.lambda_min,
        lambda_max=config.lambda_max,
        problem=problem.name,
        inner_iterations=iterations,
    )
    return PiecewiseConstantPath(lams, X, res), report
