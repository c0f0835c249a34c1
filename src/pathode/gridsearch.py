"""Grid-search baselines: solve F_lambda to fixed accuracy on a geometric grid.

The competing classical scheme: pick K lambdas geometrically spaced over
[lambda_min, lambda_max], warm-start each subproblem from the previous
solution, and run an inner solver (exact Newton or accelerated gradient)
until the gradient norm reaches inner_tol.  The resulting path is piecewise
constant: each solved point is held across the interval below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linsolve import NotPositiveDefiniteError
from .paths import PiecewiseConstantPath
from .problems import DomainError, ProblemOracle, TheoryConstants
from .reports import OracleCounters, RunReport, Stopwatch
from .steppers import MaxIterationsError, newton_solve

INNER_SOLVERS = ("newton", "agd")
DEFAULT_NEWTON_CAP = 200
DEFAULT_AGD_CAP = 2_000_000


class GridSearchError(RuntimeError):
    """An inner solve failed; carries the grid points finished so far (lams, X, residuals)."""

    def __init__(self, message: str, lams, X, residuals, point_index: int):
        super().__init__(message)
        self.lams, self.X, self.residuals = lams, X, residuals
        self.point_index = point_index


@dataclass
class GridSearchConfig:
    """Grid geometry plus inner-solver choice and stopping tolerance."""

    num_points: int
    inner_solver: str
    inner_tol: float
    lambda_min: float
    lambda_max: float
    inner_cap: int | None = None

    def __post_init__(self):
        if self.num_points < 2:
            raise ValueError("num_points must be at least 2 (both endpoints)")
        if self.inner_solver not in INNER_SOLVERS:
            raise ValueError(f"inner_solver must be one of {INNER_SOLVERS}")
        if self.inner_tol <= 0.0:
            raise ValueError("inner_tol must be positive")
        if not (0.0 < self.lambda_min < self.lambda_max):
            raise ValueError("need 0 < lambda_min < lambda_max")

    @property
    def cap(self) -> int:
        if self.inner_cap is not None:
            return self.inner_cap
        return DEFAULT_NEWTON_CAP if self.inner_solver == "newton" else DEFAULT_AGD_CAP


def grid_points(config: GridSearchConfig) -> np.ndarray:
    """Geometric grid lambda_k = lambda_max * rho^(k/(K-1)), decreasing, K points."""
    K = config.num_points
    rho = config.lambda_min / config.lambda_max
    exponents = np.arange(K) / (K - 1)
    return config.lambda_max * rho**exponents


def grid_k_from_eps(c: TheoryConstants, eps: float) -> int:
    """Grid size sqrt(tau L) G T / eps matching an eps gradient-norm target.

    Clamped below at 2 so the grid always contains both endpoints.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    K = math.ceil(math.sqrt(c.tau * c.L) * c.G * c.T_euler / eps)
    return max(K, 2)


def agd_inner(
    problem: ProblemOracle,
    lam: float,
    x_start: np.ndarray,
    tol: float,
    mu_eff: float,
    L_eff: float,
    counters: OracleCounters | None = None,
    cap: int = DEFAULT_AGD_CAP,
):
    """Constant-momentum accelerated gradient descent on F_lambda.

    Momentum (sqrt(kappa) - 1)/(sqrt(kappa) + 1) with kappa = L_eff/mu_eff,
    step 1/L_eff; stops when the gradient norm at the extrapolated point
    reaches tol and returns (point, iterations, gradient norm).  One gradient
    pair per iteration.  Raises MaxIterationsError after cap iterations.
    """
    if mu_eff <= 0.0 or L_eff < mu_eff:
        raise ValueError("need 0 < mu_eff <= L_eff")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    counters = counters if counters is not None else OracleCounters()
    kappa = L_eff / mu_eff
    beta = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    x = np.array(x_start, dtype=float, copy=True)
    y = x.copy()
    for it in range(cap + 1):
        g = problem.total_grad(y, lam)
        gnorm = float(np.linalg.norm(g))
        counters.grad_f += 1
        counters.grad_omega += 1
        if gnorm <= tol:
            return y, it, gnorm
        x_new = y - g / L_eff
        if not problem.domain_check(x_new):
            raise DomainError("accelerated gradient left the domain")
        y = x_new + beta * (x_new - x)
        if not problem.domain_check(y):
            raise DomainError("accelerated gradient extrapolation left the domain")
        x = x_new
    raise MaxIterationsError(f"agd inner solver exceeded {cap} iterations")


def solve_grid(
    problem: ProblemOracle,
    x0: np.ndarray,
    config: GridSearchConfig,
    *,
    allow_degenerate: bool = False,
    problem_label: str | None = None,
    seed: int | None = None,
) -> tuple[PiecewiseConstantPath, RunReport]:
    """Solve every grid point to inner_tol, warm-starting down the grid.

    Returns the piecewise-constant path and a report; report.inner_iterations
    lists the inner iteration count per grid point.  Newton inner work charges
    gradients, Hessian builds, and solves; AGD charges gradients only.  Knot
    residuals reuse the inner solver's exit gradient norm, so no extra metric
    evaluations are made here.
    """
    x = problem.checked_start(x0, allow_degenerate)
    if problem.lipschitz is None and config.inner_solver == "agd":
        raise ValueError("agd needs a Lipschitz certificate for its step size")
    counters = OracleCounters()
    lams = grid_points(config)
    X = np.empty((len(lams), problem.dim))
    res = np.empty(len(lams))
    iterations: list[int] = []
    with Stopwatch() as sw:
        for idx, lam in enumerate(lams):
            lam = float(lam)
            try:
                if config.inner_solver == "newton":
                    x, iters, res[idx] = newton_solve(
                        problem, lam, x, config.inner_tol, config.cap, counters
                    )
                else:
                    mu_eff = problem.mu + lam * problem.sigma
                    L_eff = problem.lipschitz * (1.0 + lam)
                    x, iters, res[idx] = agd_inner(
                        problem, lam, x, config.inner_tol, mu_eff, L_eff, counters, config.cap
                    )
            except (DomainError, MaxIterationsError, NotPositiveDefiniteError) as exc:
                raise GridSearchError(
                    f"grid point {idx} (lambda = {lam:g}) failed: {exc}",
                    lams[:idx], X[:idx], res[:idx], idx,
                ) from exc
            X[idx] = x
            iterations.append(iters)
    method = f"grid-{config.inner_solver}"
    report = RunReport(
        method=method,
        K=config.num_points,
        h=None,
        counters=counters,
        wall_time_seconds=sw.elapsed,
        lambda_min=config.lambda_min,
        lambda_max=config.lambda_max,
        problem=problem_label or problem.name,
        seed=seed,
        inner_iterations=iterations,
    )
    return PiecewiseConstantPath(lams, X, res), report
