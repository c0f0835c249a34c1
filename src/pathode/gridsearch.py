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
import numbers
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .linsolve import vector_norm
from .paths import PiecewiseConstantPath
from .problems import DomainError, ProblemOracle, check_lambda_range
from .reports import OracleCounters, RunReport
from .steppers import RUN_FAILURES, MaxIterationsError, PathRunError, lambda_schedule, newton_solve

AGD_CAP = 2_000_000


@dataclass(frozen=True)
class GridSearchConfig:
    """Frozen grid geometry plus inner-solver choice and stopping tolerance."""

    num_points: int
    inner_solver: str
    inner_tol: float
    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if not isinstance(self.num_points, numbers.Integral):  # numpy integers pass
            raise ValueError(f"num_points must be an integer, got {self.num_points!r}")
        if self.num_points < 2:
            raise ValueError("num_points must be at least 2 (both endpoints)")
        if self.inner_solver not in INNER_SOLVERS:
            raise ValueError(f"inner_solver must be one of {tuple(INNER_SOLVERS)}")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        check_lambda_range(self.lambda_min, self.lambda_max)


def agd_inner(
    problem: ProblemOracle,
    lams: Iterable[float],
    x: np.ndarray,
    tol: float,
    counters: OracleCounters,
) -> Iterator[tuple[np.ndarray, int, float]]:
    """Constant-momentum accelerated gradient descent down lams; yields (point, iters, gnorm).

    At each lambda, L_eff = L (1 + lambda) and mu_eff = mu + lambda sigma; the
    step is 1/L_eff and the momentum (sqrt(kappa) - 1)/(sqrt(kappa) + 1) with
    kappa = L_eff/mu_eff.  Each lambda starts from the previous exit, reusing
    only its gradients, and stops when the gradient norm at the extrapolated
    point x reaches tol.  Each gradient made charges one pair to counters.
    Raises ValueError without a Lipschitz certificate, for tol not > 0 or
    when mu_eff <= 0, and MaxIterationsError above tol after AGD_CAP steps.
    """
    if problem.lipschitz is None:
        raise ValueError("agd needs a Lipschitz certificate for its step size")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fg = og = None
    for lam in map(float, lams):
        mu_eff = problem.mu + lam * problem.sigma
        L_eff = problem.lipschitz * (1.0 + lam)
        if mu_eff <= 0.0 or L_eff < mu_eff:
            raise ValueError("need 0 < mu_eff <= L_eff")
        kappa = L_eff / mu_eff
        beta = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
        x_prev = x
        for it in range(AGD_CAP + 1):
            if fg is None:
                fg, og = problem.f_grad(x), problem.omega_grad(x)
                counters.grad_f += 1
                counters.grad_omega += 1
            g = fg + lam * og
            gnorm = vector_norm(g)
            if gnorm <= tol:
                break
            if it == AGD_CAP:
                raise MaxIterationsError(f"agd inner solver exceeded {it} iterations")
            x_next = x - g / L_eff
            if not problem.domain_check(x_next):
                raise DomainError("accelerated gradient left the domain")
            x = x_next + beta * (x_next - x_prev)
            if not problem.domain_check(x):
                raise DomainError("accelerated gradient extrapolation left the domain")
            x_prev = x_next
            fg = og = None
        yield x, it, gnorm


INNER_SOLVERS = {"newton": newton_solve, "agd": agd_inner}


def solve_grid(
    problem: ProblemOracle,
    x0: np.ndarray,
    config: GridSearchConfig,
    *,
    allow_degenerate: bool = False,
) -> tuple[PiecewiseConstantPath, RunReport]:
    """Solve every grid point to inner_tol, warm-starting down the grid.

    Returns the piecewise-constant path and a report; report.inner_iterations
    lists the inner iteration count per grid point.  The inner solver walks
    the whole grid, each point starting from the previous exit with the
    gradients made there, so grad_f = grad_omega = sum(iterations) + 1; Newton
    also charges Hessian builds.  Knot residuals reuse the inner
    solver's exit gradient norm, so no extra metric evaluations are made
    here.  A failed inner solve raises PathRunError carrying the points
    finished before it.
    """
    x = problem.checked_start(x0, allow_degenerate)
    counters = OracleCounters()
    lams = lambda_schedule(config.lambda_min, config.lambda_max, config.num_points - 1)
    points = INNER_SOLVERS[config.inner_solver](problem, lams, x, config.inner_tol, counters)
    X = np.empty((len(lams), problem.dim))
    res = np.empty(len(lams))
    iterations: list[int] = []
    t0 = time.perf_counter()
    try:
        for idx, (X[idx], iters, res[idx]) in enumerate(points):
            iterations.append(iters)
    except RUN_FAILURES as exc:
        idx = len(iterations)
        raise PathRunError(
            f"grid point {idx} (lambda = {lams[idx]:g}) failed: {exc}",
            lams[:idx], X[:idx], res[:idx], idx,
        ) from exc
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
