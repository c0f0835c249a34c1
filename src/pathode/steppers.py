"""ODE-style path steppers: vector field, schedules, update schemes, initializers.

The exact path x(lambda) solves grad F_lambda(x) = 0.  Differentiating along
the exponential schedule lambda(t) = lambda_max exp(-t) gives the autonomous
system

    dx/dt = v(x, lambda) = -(hess f + lambda hess Omega)^{-1} grad f,
    dlambda/dt = -lambda,

which the three Runge-Kutta schemes in SCHEMES discretize with a fixed
multiplicative lambda-decay per step.  Directions come from a pluggable oracle: exact
Newton solves (newton_direction), or warm-started CG with a residual tolerance delta.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linsolve import NotPositiveDefiniteError, cg_solve, solve_diag_lowrank, solve_spd
from .paths import PathKnot, PiecewiseLinearPath, residual_norm
from .problems import DegenerateProblemError, DomainError, ProblemOracle
from .reports import OracleCounters, RunReport, Stopwatch

METHODS = ("euler", "trapezoid", "rk4")
MAX_DOMAIN_BACKOFFS = 30
STEPSIZE_ROOT_TOL = 1e-14


class CGNoConvergenceError(RuntimeError):
    """CG exhausted its iteration cap before reaching delta."""


class MaxIterationsError(RuntimeError):
    """An iterative routine hit its cap before meeting its tolerance."""


class PathRunError(RuntimeError):
    """A step failed mid-run; carries the partial results computed so far."""

    def __init__(self, message: str, knots, diagnostics, step_index: int):
        super().__init__(message)
        self.knots = knots
        self.diagnostics = diagnostics
        self.step_index = step_index


def decay_polynomial(h: float) -> float:
    """Per-step lambda factor of the RK4 scheme, the quartic Taylor of exp(-h)."""
    return 1.0 - h + h * h / 2.0 - h**3 / 6.0 + h**4 / 24.0


def stepsize(method: str, K: int, lambda_min: float, lambda_max: float) -> float:
    """Step size h making K steps of the scheme contract lambda_max to lambda_min.

    euler:     lambda shrinks by (1 - h) per step, h = 1 - rho^(1/K).
    trapezoid: shrinks by (1 - h + h^2/2), h = 1 - sqrt(2 rho^(1/K) - 1),
               which only exists for K > log2(lambda_max/lambda_min).
    rk4:       shrinks by the quartic decay polynomial; h found by Newton
               root-finding on its log with initial guess 1 - rho^(1/K).
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    if not (0.0 < lambda_min < lambda_max):
        raise ValueError(f"need 0 < lambda_min < lambda_max, got [{lambda_min}, {lambda_max}]")
    rho = lambda_min / lambda_max
    ratio = rho ** (1.0 / K)
    if method == "euler":
        return 1.0 - ratio
    if method == "trapezoid":
        s = 2.0 * ratio - 1.0
        if s <= 0.0:
            raise ValueError(
                "trapezoid schedule needs K > log2(lambda_max/lambda_min) "
                f"= {math.log2(1.0 / rho):.3f}, got K = {K}"
            )
        return 1.0 - math.sqrt(s)
    if method == "rk4":
        target = math.log(rho) / K
        h = 1.0 - ratio
        for _ in range(100):
            poly = decay_polynomial(h)
            fval = math.log(poly) - target
            if abs(fval) <= STEPSIZE_ROOT_TOL:
                return h
            dpoly = -(1.0 - h + 0.5 * h * h - h**3 / 6.0)
            h -= fval * poly / dpoly
        raise MaxIterationsError("rk4 step-size root-finding did not converge")
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass
class StepperConfig:
    """Immutable description of one path run; h is derived, not chosen."""

    method: str
    K: int
    lambda_min: float
    lambda_max: float
    direction_mode: str = "exact"
    delta: float | None = None
    cg_max_iters: int | None = None
    record_diagnostics: bool = False
    h: float = field(init=False)

    def __post_init__(self):
        if self.direction_mode not in ("exact", "cg"):
            raise ValueError(f"direction_mode must be 'exact' or 'cg', got {self.direction_mode!r}")
        if self.direction_mode == "cg":
            if self.delta is None or self.delta <= 0.0:
                raise ValueError("cg mode needs delta > 0")
        self.h = stepsize(self.method, self.K, self.lambda_min, self.lambda_max)

    @property
    def method_label(self) -> str:
        return self.method if self.direction_mode == "exact" else f"{self.method}-cg"


@dataclass
class StepDiagnostics:
    """Per-step record: one entry per stage in the stage-ordered lists.

    Vector payloads (direction_vectors, residual_vectors, stage_points) are
    populated only when the run records diagnostics, so long production runs
    do not hold O(K p) memory.
    """

    k: int
    lambda_k: float
    residual_r_k: float
    direction_norms: list[float]
    cg_iterations: list[int]
    direction_residuals: list[float]
    cg_initial_residuals: list[float]
    stage_lambdas: list[float]
    domain_backoffs: int = 0
    direction_vectors: list[np.ndarray] | None = None
    residual_vectors: list[np.ndarray] | None = None
    stage_points: list[np.ndarray] | None = None

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda_k": self.lambda_k,
            "residual_r_k": self.residual_r_k,
            "direction_norms": self.direction_norms,
            "cg_iterations": self.cg_iterations,
            "direction_residuals": self.direction_residuals,
            "cg_initial_residuals": self.cg_initial_residuals,
            "stage_lambdas": self.stage_lambdas,
            "domain_backoffs": self.domain_backoffs,
        }


def newton_direction(problem: ProblemOracle, x, lam, g):
    """Exact solve of (hess f + lam hess Omega)(x) y = -g with its residual certificate.

    The one way to an exact Newton direction: Woodbury on the problem's
    diag(d) + V V' form when it sets hess_lowrank, otherwise a Cholesky
    solve of the assembled Hessian.  Either way it is one Hessian build and
    one linear solve in the paper's counting; callers charge the counters.
    """
    if problem.hess_lowrank is not None:
        d, V = problem.hess_lowrank(x, lam)
        return solve_diag_lowrank(d, V, g)
    return solve_spd(problem.total_hess(x, lam), g)


class ExactDirections:
    """Direction oracle backed by exact Newton solves (newton_direction)."""

    mode = "exact"

    def __init__(self, counters: OracleCounters):
        self.counters = counters

    def direction(self, problem: ProblemOracle, x, lam, warm=None):
        """Exact direction at (x, lam); warm is accepted for the common interface and ignored."""
        g = problem.f_grad(x)
        self.counters.grad_f += 1
        result = newton_direction(problem, x, lam, g)
        self.counters.hess_builds += 1
        self.counters.linear_solves += 1
        return result


class CGDirections:
    """Direction oracle running CG to residual tolerance delta from a warm start.

    The caller passes the warm-start vector; None starts from zero.
    """

    mode = "cg"

    def __init__(self, counters: OracleCounters, delta: float, max_iters: int):
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        self.counters = counters
        self.delta = delta
        self.max_iters = max_iters

    def direction(self, problem: ProblemOracle, x, lam, warm=None):
        g = problem.f_grad(x)
        self.counters.grad_f += 1

        def hessvec(v):
            self.counters.hessvec += 1
            return problem.f_hessvec(x, v) + lam * problem.omega_hessvec(x, v)

        start = warm if warm is not None else np.zeros(problem.dim)
        result = cg_solve(hessvec, g, start, self.delta, self.max_iters)
        self.counters.cg_iters_total += result.inner_iterations
        if not result.converged:
            raise CGNoConvergenceError(
                f"CG stopped at {self.max_iters} iterations with residual "
                f"{result.residual_norm:.3e} > delta = {self.delta:.3e}"
            )
        return result


def vector_field(problem: ProblemOracle, x: np.ndarray, lam: float) -> np.ndarray:
    """Exact ODE direction v(x, lambda) = -(hess F_lambda)^{-1} grad f (uncounted)."""
    return newton_direction(problem, x, lam, problem.f_grad(x)).direction


@dataclass(frozen=True)
class Scheme:
    """One explicit Runge-Kutta scheme on the joint (x, lambda) system, as data.

    Stage 1 sits at x_k; stage i > 1 sits at x_k + (shifts[i-2] s) d_{i-1},
    where s is the increment length (h unless the domain forced halvings).
    stage_factors(h) gives each stage's lambda as a multiple of lambda_k and
    decay(h) the step's.  Stage 1 has weight 1, and the step is
    x_k + (s / divisor) (d_1 + sum_{i>1} weights[i-2] d_i).
    In CG mode stage i > 1 warm-starts from d_{i-1}, and the direction of
    stage `carry` warm-starts stage 1 of the next step.
    """

    stage_factors: Callable[[float], tuple[float, ...]]
    decay: Callable[[float], float]
    shifts: tuple[float, ...]
    weights: tuple[float, ...]
    divisor: float
    carry: int


SCHEMES = {
    # semi-implicit: the one stage takes its Hessian at lambda_{k+1}
    "euler": Scheme(lambda h: (1.0 - h,), lambda h: 1.0 - h, (), (), 1.0, 1),
    "trapezoid": Scheme(
        lambda h: (1.0, 1.0 - h + h * h), lambda h: 1.0 - h + 0.5 * h * h,
        (1.0,), (1.0,), 2.0, 1,
    ),
    # stage lambdas follow the polynomial recursion of dlambda/dt = -lambda
    "rk4": Scheme(
        lambda h: (
            1.0, 1.0 - 0.5 * h, 1.0 - 0.5 * h + 0.25 * h * h, 1.0 - h + 0.5 * h * h - 0.25 * h**3
        ),
        decay_polynomial,
        (0.5, 0.5, 1.0), (2.0, 2.0, 1.0), 6.0, 4,
    ),
}


def take_step(scheme, problem, x_k, lambda_k, h, directions, warm=None):
    """One step of scheme from (x_k, lambda_k); returns (x_next, lambda_next, carry, stages).

    Stage 1 is solved once.  While a later stage point or the new point
    leaves the domain, the increment is halved and stages 2.. are redone, at
    most MAX_DOMAIN_BACKOFFS times; lambda_next never changes.  warm seeds
    stage 1 in CG mode, and carry is the direction that seeds the next step.
    stages = (stage lambdas, stage DirectionResults, stage points, backoffs)
    is the raw material of step_diagnostics, built only when recorded.
    """
    lams = [f * lambda_k for f in scheme.stage_factors(h)]
    first = directions.direction(problem, x_k, lams[0], warm)
    s, backoffs = h, 0
    while True:
        results, points = [first], [x_k]
        for shift, lam in zip(scheme.shifts, lams[1:]):
            x_stage = x_k + (shift * s) * results[-1].direction
            if not problem.domain_check(x_stage):
                break
            results.append(directions.direction(problem, x_stage, lam, results[-1].direction))
            points.append(x_stage)
        else:
            increment = first.direction
            for w, res in zip(scheme.weights, results[1:]):
                increment = increment + w * res.direction
            x_next = x_k + (s / scheme.divisor) * increment
            if problem.domain_check(x_next):
                break
        backoffs += 1
        if backoffs > MAX_DOMAIN_BACKOFFS:
            raise DomainError(
                f"step still leaves the domain after {MAX_DOMAIN_BACKOFFS} increment halvings"
            )
        s *= 0.5
    stages = (lams, results, points, backoffs)
    return x_next, scheme.decay(h) * lambda_k, results[scheme.carry - 1].direction, stages


def step_diagnostics(lambda_k, stages, record, k=-1, residual_r_k=float("nan")):
    """The StepDiagnostics of one take_step; record adds the vector payloads."""
    lams, results, points, backoffs = stages
    return StepDiagnostics(
        k=k,
        lambda_k=lambda_k,
        residual_r_k=residual_r_k,
        direction_norms=[float(np.linalg.norm(r.direction)) for r in results],
        cg_iterations=[r.inner_iterations for r in results],
        direction_residuals=[r.residual_norm for r in results],
        cg_initial_residuals=[r.initial_residual for r in results],
        stage_lambdas=lams,
        domain_backoffs=backoffs,
        direction_vectors=[r.direction for r in results] if record else None,
        residual_vectors=[r.residual_vector for r in results] if record else None,
        stage_points=[np.array(p) for p in points] if record else None,
    )


def _public_step(method, problem, x_k, lambda_k, h, directions, record):
    x_next, lambda_next, _, stages = take_step(
        SCHEMES[method], problem, x_k, lambda_k, h, directions
    )
    return x_next, lambda_next, step_diagnostics(lambda_k, stages, record)


def euler_step(problem, x_k, lambda_k, h, directions, record=False):
    """Semi-implicit Euler: Hessian at the new lambda, gradient at the old point.

    x_{k+1} = x_k - h (hess f(x_k) + lambda_{k+1} hess Omega(x_k))^{-1} grad f(x_k),
    lambda_{k+1} = (1 - h) lambda_k.
    """
    return _public_step("euler", problem, x_k, lambda_k, h, directions, record)


def trapezoid_step(problem, x_k, lambda_k, h, directions, record=False):
    """Two-stage trapezoid step.

    d1 at (x_k, lambda_k); d2 at (x_k + h d1, (1 - h + h^2) lambda_k);
    x_{k+1} = x_k + h (d1 + d2)/2; lambda_{k+1} = (1 - h + h^2/2) lambda_k.
    """
    return _public_step("trapezoid", problem, x_k, lambda_k, h, directions, record)


def rk4_step(problem, x_k, lambda_k, h, directions, record=False):
    """Classical RK4 on the joint (x, lambda) system, fully explicit in lambda.

    Stage lambdas follow the exact polynomial recursion of dlambda/dt = -lambda;
    the new lambda is lambda_k times the quartic decay polynomial.
    """
    return _public_step("rk4", problem, x_k, lambda_k, h, directions, record)


def run_path(
    problem: ProblemOracle,
    x0: np.ndarray,
    config: StepperConfig,
    *,
    allow_degenerate: bool = False,
    problem_label: str | None = None,
    seed: int | None = None,
) -> tuple[PiecewiseLinearPath, RunReport]:
    """Run K steps of the configured scheme from (x0, lambda_max).

    Returns the piecewise-linear path over the K + 1 knots and a report whose
    counters tally every oracle call the run made.  Knot residuals are charged
    to the metric counter, not to solver gradients.  A failed step raises
    PathRunError carrying the partial knots and diagnostics.
    """
    if problem.sigma <= 0.0 and not allow_degenerate:
        raise DegenerateProblemError(
            "Omega is not strongly convex (sigma = 0); pass allow_degenerate=True "
            "to run anyway without the accompanying guarantees"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dim},)")
    if not problem.domain_check(x0):
        raise DomainError("x0 violates the problem domain")
    counters = OracleCounters()
    if config.direction_mode == "exact":
        directions = ExactDirections(counters)
    else:
        max_iters = config.cg_max_iters if config.cg_max_iters is not None else 20 * problem.dim
        directions = CGDirections(counters, config.delta, max_iters)
    scheme = SCHEMES[config.method]
    warm = None
    knots: list[PathKnot] = []
    diags: list[StepDiagnostics] = []
    with Stopwatch() as sw:
        x, lam = x0.copy(), config.lambda_max
        knots.append(PathKnot(lam, x.copy(), residual_norm(problem, x, lam, counters)))
        for k in range(config.K):
            try:
                x, lam_next, warm, stages = take_step(
                    scheme, problem, x, lam, config.h, directions, warm
                )
            except (DomainError, NotPositiveDefiniteError, CGNoConvergenceError) as exc:
                raise PathRunError(
                    f"step {k} failed: {exc}", knots=knots, diagnostics=diags, step_index=k
                ) from exc
            if config.record_diagnostics:
                diags.append(step_diagnostics(lam, stages, True, k, knots[-1].residual))
            lam = lam_next
            knots.append(PathKnot(lam, x.copy(), residual_norm(problem, x, lam, counters)))
    report = RunReport(
        method=config.method_label,
        K=config.K,
        h=config.h,
        counters=counters,
        wall_time_seconds=sw.elapsed,
        delta=config.delta if config.direction_mode == "cg" else None,
        lambda_min=config.lambda_min,
        lambda_max=config.lambda_max,
        problem=problem_label or problem.name,
        seed=seed,
        step_diagnostics=diags,
    )
    return PiecewiseLinearPath(knots), report


def initialize_from_omega(problem: ProblemOracle, lambda_max: float):
    """One Newton step from the Omega minimizer, with its analytic residual bound.

    x0 = x_omega - (hess f + lambda_max hess Omega)^{-1} grad f(x_omega), and
    ||grad F_{lambda_max}(x0)|| <= L (1 + lambda_max) ||grad f(x_omega)||^2
    / (2 (mu + lambda_max sigma)^2).  The bound is inf when the problem
    carries no Lipschitz certificate.
    """
    if problem.omega_minimizer is None:
        raise ValueError("problem has no omega_minimizer to initialize from")
    x_om = np.array(problem.omega_minimizer, dtype=float, copy=True)
    g = problem.f_grad(x_om)
    x0 = x_om + newton_direction(problem, x_om, lambda_max, g).direction
    gnorm = float(np.linalg.norm(g))
    denom = problem.mu + lambda_max * problem.sigma
    if problem.lipschitz is None or denom <= 0.0:
        bound = math.inf
    else:
        bound = problem.lipschitz * (1.0 + lambda_max) * gnorm**2 / (2.0 * denom**2)
    return x0, float(bound)


def initialize_by_newton(
    problem: ProblemOracle,
    lambda_max: float,
    tol: float,
    x_start: np.ndarray | None = None,
    max_iters: int = 100,
) -> np.ndarray:
    """Damped Newton (newton_solve) on F_{lambda_max} until the gradient norm reaches tol.

    Starts from x_start, else the Omega minimizer, else zero.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if x_start is not None:
        x = np.array(x_start, dtype=float, copy=True)
    elif problem.omega_minimizer is not None:
        x = np.array(problem.omega_minimizer, dtype=float, copy=True)
    else:
        x = np.zeros(problem.dim)
    if not problem.domain_check(x):
        raise DomainError("starting point violates the problem domain")
    return newton_solve(problem, lambda_max, x, tol, max_iters)[0]


def newton_solve(
    problem: ProblemOracle,
    lam: float,
    x: np.ndarray,
    tol: float,
    max_iters: int,
    counters: OracleCounters | None = None,
) -> tuple[np.ndarray, int, float]:
    """Damped Newton on F_lam from x until ||grad F_lam|| <= tol; returns (x, iters, gnorm).

    Each step is the Newton step, halved until the iterate stays in the
    domain and the objective does not increase.  When counters is given,
    each gradient charges grad_f and grad_omega and each step one Hessian
    build and one linear solve.  Raises MaxIterationsError when no halving
    is acceptable or the gradient is still above tol after max_iters steps.
    """
    for it in range(max_iters + 1):
        g = problem.total_grad(x, lam)
        gnorm = float(np.linalg.norm(g))
        if counters is not None:
            counters.grad_f += 1
            counters.grad_omega += 1
        if gnorm <= tol:
            return x, it, gnorm
        if it == max_iters:
            break
        d = newton_direction(problem, x, lam, g).direction
        if counters is not None:
            counters.hess_builds += 1
            counters.linear_solves += 1
        f0 = problem.total_value(x, lam)
        t = 1.0
        for _ in range(MAX_DOMAIN_BACKOFFS + 1):
            cand = x + t * d
            if problem.domain_check(cand):
                if problem.total_value(cand, lam) <= f0 + 1e-12 * (1.0 + abs(f0)):
                    x = cand
                    break
            t *= 0.5
        else:
            raise MaxIterationsError("newton damping found no acceptable step")
    raise MaxIterationsError(f"newton stalled above tol = {tol} after {max_iters} iterations")
