"""ODE-style path steppers: schedules, update schemes, path runs, initializers.

The exact path x(lambda) solves grad F_lambda(x) = 0.  Differentiating along
the exponential schedule lambda(t) = lambda_max exp(-t) gives the autonomous
system

    dx/dt = v(x, lambda) = -(hess f + lambda hess Omega)^{-1} grad f,
    dlambda/dt = -lambda,

which the three Runge-Kutta schemes in SCHEMES discretize with a fixed
multiplicative lambda-decay per step.  Directions come from a pluggable oracle: exact
Newton solves, or warm-started CG with a residual tolerance delta, both through the
problem's per-point Hessian handle (ProblemOracle.hessian).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .linsolve import NotPositiveDefiniteError, cg_solve
from .paths import PiecewiseLinearPath, residuals
from .problems import DomainError, ProblemOracle
from .reports import OracleCounters, RunReport, Stopwatch

METHODS = ("euler", "trapezoid", "rk4")
MAX_DOMAIN_BACKOFFS = 30
STEPSIZE_ROOT_TOL = 1e-14


class CGNoConvergenceError(RuntimeError):
    """CG exhausted its iteration cap before reaching delta."""


class MaxIterationsError(RuntimeError):
    """An iterative routine hit its cap before meeting its tolerance."""


class PathRunError(RuntimeError):
    """A step failed mid-run; carries the knots (lams, X, residuals) and diagnostics so far."""

    def __init__(self, message: str, lams, X, residuals, diagnostics, step_index: int):
        super().__init__(message)
        self.lams, self.X, self.residuals = lams, X, residuals
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

    Runs build these only when they record diagnostics, so long production
    runs do not hold the O(K p) vector payloads (direction_vectors,
    residual_vectors, stage_points); as_dict leaves those out.
    """

    k: int
    lambda_k: float
    residual_r_k: float
    direction_norms: list[float]
    cg_iterations: list[int]
    direction_residuals: list[float]
    cg_initial_residuals: list[float]
    stage_lambdas: list[float]
    domain_backoffs: int
    direction_vectors: list[np.ndarray]
    residual_vectors: list[np.ndarray]
    stage_points: list[np.ndarray]

    def as_dict(self) -> dict:
        vectors = ("direction_vectors", "residual_vectors", "stage_points")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in vectors}


class ExactDirections:
    """Direction oracle backed by exact Newton solves of the problem's Hessian handle."""

    def __init__(self, counters: OracleCounters):
        self.counters = counters

    def direction(self, problem: ProblemOracle, x, lam, warm=None):
        """Exact direction at (x, lam); warm is accepted for the common interface and ignored."""
        hess = problem.hessian(x, lam)
        g = hess.grad_f()
        self.counters.grad_f += 1
        result = hess.solve(g)
        self.counters.hess_builds += 1
        self.counters.linear_solves += 1
        return result


class CGDirections:
    """Direction oracle running CG to residual tolerance delta from a warm start.

    The caller passes the warm-start vector; None starts from zero.
    """

    def __init__(self, counters: OracleCounters, delta: float, max_iters: int):
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        self.counters = counters
        self.delta = delta
        self.max_iters = max_iters

    def direction(self, problem: ProblemOracle, x, lam, warm=None):
        hess = problem.hessian(x, lam)
        g = hess.grad_f()
        self.counters.grad_f += 1

        def hessvec(v):
            self.counters.hessvec += 1
            return hess.matvec(v)

        start = warm if warm is not None else np.zeros(problem.dim)
        result = cg_solve(hessvec, g, start, self.delta, self.max_iters)
        self.counters.cg_iters_total += result.inner_iterations
        if not result.converged:
            raise CGNoConvergenceError(
                f"CG stopped at {self.max_iters} iterations with residual "
                f"{result.residual_norm:.3e} > delta = {self.delta:.3e}"
            )
        return result


@dataclass(frozen=True)
class Scheme:
    """One explicit Runge-Kutta scheme on the joint (x, lambda) system, as data.

    Stage 1 sits at x_k; stage i > 1 sits at x_k + (shifts[i-2] s) d_{i-1},
    where s is the increment length (h unless the domain forced halvings).
    stage_factors(h) gives each stage's lambda as a multiple of lambda_k and
    decay(h) the step's.  Stage 1 has weight 1, and the step is
    x_k + (s / divisor) (d_1 + sum_{i>1} weights[i-2] d_i).
    In CG mode stage i > 1 warm-starts from d_{i-1}, and the direction of
    stage `carry` warm-starts stage 1 of the next step.  Each direction is
    d(x, lam) = -(hess f(x) + lam hess Omega(x))^{-1} grad f(x), the ODE's
    vector field, solved by the problem's Hessian handle.
    """

    stage_factors: Callable[[float], tuple[float, ...]]
    decay: Callable[[float], float]
    shifts: tuple[float, ...]
    weights: tuple[float, ...]
    divisor: float
    carry: int


# x_{k+1} of each scheme, with d(x, lam) the direction in Scheme's docstring:
#   euler      x_k + h d(x_k, (1 - h) lambda_k), semi-implicit: its Hessian is at lambda_{k+1}
#   trapezoid  x_k + h (d1 + d2)/2, d1 = d(x_k, lambda_k), d2 = d(x_k + h d1, (1-h+h^2) lambda_k)
#   rk4        x_k + h (d1 + 2 d2 + 2 d3 + d4)/6, stage lambdas exact for dlambda/dt = -lambda
SCHEMES = {
    "euler": Scheme(lambda h: (1.0 - h,), lambda h: 1.0 - h, (), (), 1.0, 1),
    "trapezoid": Scheme(
        lambda h: (1.0, 1.0 - h + h * h), lambda h: 1.0 - h + 0.5 * h * h,
        (1.0,), (1.0,), 2.0, 1,
    ),
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


def step_diagnostics(k, lambda_k, residual_r_k, stages):
    """The StepDiagnostics of step k, from the stages of its take_step."""
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
        direction_vectors=[r.direction for r in results],
        residual_vectors=[r.residual_vector for r in results],
        stage_points=[np.array(p) for p in points],
    )


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
    counters tally every oracle call the run made.  The knot residuals are
    computed in one batch after the last step and charged to the metric
    counter, not to solver gradients.  A failed step raises PathRunError
    carrying the partial knots and diagnostics.
    """
    x0 = problem.checked_start(x0, allow_degenerate)
    counters = OracleCounters()
    if config.direction_mode == "exact":
        directions = ExactDirections(counters)
    else:
        max_iters = config.cg_max_iters if config.cg_max_iters is not None else 20 * problem.dim
        directions = CGDirections(counters, config.delta, max_iters)
    scheme = SCHEMES[config.method]
    lams = np.empty(config.K + 1)
    X = np.empty((config.K + 1, problem.dim))
    steps = []  # (lambda_k, stages) per step, kept only to build diagnostics

    def knots_and_diagnostics(n):
        res = residuals(problem, X[:n], lams[:n], counters)
        diags = [step_diagnostics(k, lam_k, res[k], st) for k, (lam_k, st) in enumerate(steps)]
        return res, diags

    with Stopwatch() as sw:
        x, lam, warm = x0, config.lambda_max, None
        lams[0], X[0] = lam, x
        for k in range(config.K):
            try:
                x, lam_next, warm, stages = take_step(
                    scheme, problem, x, lam, config.h, directions, warm
                )
            except (DomainError, NotPositiveDefiniteError, CGNoConvergenceError) as exc:
                res, diags = knots_and_diagnostics(k + 1)
                raise PathRunError(
                    f"step {k} failed: {exc}", lams[: k + 1], X[: k + 1], res, diags, k
                ) from exc
            if config.record_diagnostics:
                steps.append((lam, stages))
            lam = lam_next
            lams[k + 1], X[k + 1] = lam, x
        res, diags = knots_and_diagnostics(config.K + 1)
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
    return PiecewiseLinearPath(lams, X, res), report


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
    hess = problem.hessian(x_om, lambda_max)
    g = hess.grad_f()
    x0 = x_om + hess.solve(g).direction
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
    x = problem.base_point() if x_start is None else np.array(x_start, dtype=float, copy=True)
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
        d = problem.hessian(x, lam).solve(g).direction
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
