"""ODE-style path steppers: schedules, update schemes, path runs, initializers.

The exact path x(lambda) solves grad F_lambda(x) = 0.  Differentiating along
the exponential schedule lambda(t) = lambda_max exp(-t) gives the autonomous
system

    dx/dt = v(x, lambda) = -(hess f + lambda hess Omega)^{-1} grad f,
    dlambda/dt = -lambda,

which the three Runge-Kutta schemes in SCHEMES discretize on the knots of
lambda_schedule, shared with grid search.  Directions come from direction_oracle:
exact Newton solves, or warm-started CG with a residual tolerance delta, both
through the problem's per-point Hessian handle (ProblemOracle.hessian).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .linsolve import DirectionResult, NotPositiveDefiniteError, cg_solve
from .paths import PiecewiseLinearPath, residuals
from .problems import DomainError, ProblemOracle, check_lambda_range
from .reports import OracleCounters, RunReport

METHODS = ("euler", "trapezoid", "rk4")
MAX_DOMAIN_BACKOFFS = 30
NEWTON_CAP = 200
STEPSIZE_ROOT_TOL = 1e-14
# -ln of the quartic decay polynomial's minimum, 0.2704 at h = 1.5961: the
# largest lambda contraction one rk4 step can make
RK4_MAX_LOG_DECAY = 1.3078722944490067


class MaxIterationsError(RuntimeError):
    """An iterative routine (Newton, AGD, CG, a root-finder) hit its cap before its tolerance."""


class PathRunError(RuntimeError):
    """A path or grid run failed; carries the knots (lams, X, residuals) finished so far.

    step_index is the failed step of an ODE run or grid point of a grid run.
    """

    def __init__(self, message: str, lams, X, residuals, step_index: int):
        super().__init__(message)
        self.lams, self.X, self.residuals = lams, X, residuals
        self.step_index = step_index


# what ends an ODE or grid run in PathRunError, with the knots finished before it
RUN_FAILURES = (DomainError, MaxIterationsError, NotPositiveDefiniteError)


def decay_polynomial(h: float) -> float:
    """Per-step lambda factor of the RK4 scheme, the quartic Taylor of exp(-h)."""
    return 1.0 - h + h * h / 2.0 - h**3 / 6.0 + h**4 / 24.0


def lambda_schedule(lambda_min: float, lambda_max: float, intervals: int) -> np.ndarray:
    """The knots lambda_max rho^(k/intervals), k = 0..intervals, rho = lambda_min/lambda_max.

    Closed form, so ODE and grid paths over the same range and interval
    count share their knots; the ends are exactly lambda_max and lambda_min.
    Raises ValueError when two consecutive knots round to one float.
    """
    lams = lambda_max * (lambda_min / lambda_max) ** (np.arange(intervals + 1) / intervals)
    lams[0], lams[-1] = lambda_max, lambda_min
    if not np.all(lams[1:] < lams[:-1]):
        raise ValueError(f"{intervals} intervals on [{lambda_min}, {lambda_max}] make two knots coincide")
    return lams


def stepsize(method: str, K: int, lambda_min: float, lambda_max: float) -> float:
    """Step size h making K steps of the scheme contract lambda_max to lambda_min.

    euler:     lambda shrinks by (1 - h) per step, h = 1 - rho^(1/K).
    trapezoid: shrinks by (1 - h + h^2/2), h = 1 - sqrt(2 rho^(1/K) - 1),
               which only exists for K > log2(lambda_max/lambda_min).
    rk4:       shrinks by the quartic decay polynomial; h found by Newton
               root-finding on its log with initial guess 1 - rho^(1/K),
               which only exists for K > ln(lambda_max/lambda_min)/1.3079.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    check_lambda_range(lambda_min, lambda_max)
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
        if target <= -RK4_MAX_LOG_DECAY:
            raise ValueError(
                "rk4 schedule needs K > ln(lambda_max/lambda_min)/1.3079 "
                f"= {-math.log(rho) / RK4_MAX_LOG_DECAY:.3f}, got K = {K}"
            )
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


@dataclass(frozen=True)
class StepperConfig:
    """Frozen description of one path run; h is derived from it, not chosen.

    delta None takes exact Newton directions, delta > 0 CG to that tolerance.
    """

    method: str
    K: int
    lambda_min: float
    lambda_max: float
    delta: float | None = None
    h: float = field(init=False)

    def __post_init__(self):
        if self.delta is not None and not self.delta > 0.0:
            raise ValueError("cg mode needs delta > 0")
        h = stepsize(self.method, self.K, self.lambda_min, self.lambda_max)
        object.__setattr__(self, "h", h)


@dataclass
class StepDiagnostics:
    """Per-step record: the stages of step k's take_step, in stage order.

    Step k's knot is the path's lams[k], X[k] and residuals[k].  run_path
    builds these only for a caller that passes a steps list, since the stage
    DirectionResults and points hold O(p) vectors.
    """

    stage_lambdas: list[float]
    stages: list[DirectionResult]
    stage_points: list[np.ndarray]
    domain_backoffs: int


def direction_oracle(problem: ProblemOracle, counters: OracleCounters, delta: float | None):
    """direction(x, lam, warm): the DirectionResult of the ODE's vector field at (x, lam).

    delta None solves exactly through the problem's Hessian handle, charging
    a gradient and a Hessian build; warm is ignored.
    delta > 0 runs CG from warm (zero when None) to residual delta, charging
    a gradient, each Hessian-vector product and the iterations, and raises
    MaxIterationsError after 20 dim iterations.
    """
    max_iters = 20 * problem.dim

    def direction(x, lam, warm=None):
        hess = problem.hessian(x, lam)
        g = hess.grad_f()
        counters.grad_f += 1
        if delta is None:
            result = hess.solve(g)
            counters.hess_builds += 1
            return result

        def hessvec(v):
            counters.hessvec += 1
            return hess.matvec(v)

        start = warm if warm is not None else np.zeros(problem.dim)
        result = cg_solve(hessvec, g, start, delta, max_iters)
        counters.cg_iters_total += result.inner_iterations
        if not result.converged:
            raise MaxIterationsError(
                f"CG stopped at {max_iters} iterations with residual "
                f"{result.residual_norm:.3e} > delta = {delta:.3e}"
            )
        return result

    return direction


@dataclass(frozen=True)
class Scheme:
    """One explicit Runge-Kutta scheme on the joint (x, lambda) system, as data.

    Stage 1 sits at x_k; stage i > 1 sits at x_k + (shifts[i-2] s) d_{i-1},
    where s is the increment length (h unless the domain forced halvings).
    stage_factors(h) gives each stage's lambda as a multiple of lambda_k.
    Stage 1 has weight 1, and the step is
    x_k + (s / divisor) (d_1 + sum_{i>1} weights[i-2] d_i).
    In CG mode stage i > 1 warm-starts from d_{i-1}, and the direction of
    stage `carry` warm-starts stage 1 of the next step.  Each direction is
    d(x, lam) = -(hess f(x) + lam hess Omega(x))^{-1} grad f(x), the ODE's
    vector field, solved by the problem's Hessian handle.
    """

    stage_factors: Callable[[float], tuple[float, ...]]
    shifts: tuple[float, ...]
    weights: tuple[float, ...]
    divisor: float
    carry: int


# x_{k+1} of each scheme, with d(x, lam) the direction in Scheme's docstring:
#   euler      x_k + h d(x_k, (1 - h) lambda_k), semi-implicit: its Hessian is at lambda_{k+1}
#   trapezoid  x_k + h (d1 + d2)/2, d1 = d(x_k, lambda_k), d2 = d(x_k + h d1, (1-h+h^2) lambda_k)
#   rk4        x_k + h (d1 + 2 d2 + 2 d3 + d4)/6, stage lambdas exact for dlambda/dt = -lambda
SCHEMES = {
    "euler": Scheme(lambda h: (1.0 - h,), (), (), 1.0, 1),
    "trapezoid": Scheme(lambda h: (1.0, 1.0 - h + h * h), (1.0,), (1.0,), 2.0, 1),
    "rk4": Scheme(
        lambda h: (
            1.0, 1.0 - 0.5 * h, 1.0 - 0.5 * h + 0.25 * h * h, 1.0 - h + 0.5 * h * h - 0.25 * h**3
        ),
        (0.5, 0.5, 1.0), (2.0, 2.0, 1.0), 6.0, 4,
    ),
}


def take_step(scheme, problem, x_k, lambda_k, h, direction, warm=None):
    """One step of scheme from (x_k, lambda_k); returns (x_next, carry, stages).

    direction is a direction_oracle callable.  Stage 1 is solved once.  While
    a later stage point or the new point leaves the domain, the increment is
    halved and stages 2.. are redone, at most MAX_DOMAIN_BACKOFFS times; the
    next knot's lambda comes from the schedule and never changes.  warm seeds
    stage 1 in CG mode, and carry is the direction that seeds the next step.
    stages = (stage lambdas, stage DirectionResults, stage points, backoffs).
    """
    lams = [f * lambda_k for f in scheme.stage_factors(h)]
    first = direction(x_k, lams[0], warm)
    s, backoffs = h, 0
    while True:
        results, points = [first], [x_k]
        for shift, lam in zip(scheme.shifts, lams[1:]):
            x_stage = x_k + (shift * s) * results[-1].direction
            if not problem.domain_check(x_stage):
                break
            results.append(direction(x_stage, lam, results[-1].direction))
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
    return x_next, results[scheme.carry - 1].direction, stages


def run_path(
    problem: ProblemOracle,
    x0: np.ndarray,
    config: StepperConfig,
    *,
    allow_degenerate: bool = False,
    steps: list[StepDiagnostics] | None = None,
) -> tuple[PiecewiseLinearPath, RunReport]:
    """Run K steps of the configured scheme from (x0, lambda_max).

    Returns the piecewise-linear path over the K + 1 knots and a report whose
    counters tally every oracle call the run made.  The knot residuals are
    computed in one batch after the last step and charged to the metric
    counter, not to solver gradients.  When steps is a list, each finished
    step's StepDiagnostics is appended to it, so the caller keeps them when a
    later step raises PathRunError, which carries the partial knots.
    """
    x0 = problem.checked_start(x0, allow_degenerate)
    counters = OracleCounters()
    direction = direction_oracle(problem, counters, config.delta)
    scheme = SCHEMES[config.method]
    lams = lambda_schedule(config.lambda_min, config.lambda_max, config.K)
    X = np.empty((config.K + 1, problem.dim))
    t0 = time.perf_counter()
    x, warm = x0, None
    X[0] = x
    for k, lam in enumerate(lams[:-1].tolist()):
        try:
            x, warm, stages = take_step(scheme, problem, x, lam, config.h, direction, warm)
        except RUN_FAILURES as exc:
            res = residuals(problem, X[: k + 1], lams[: k + 1], counters)
            raise PathRunError(
                f"step {k} failed: {exc}", lams[: k + 1], X[: k + 1], res, k
            ) from exc
        if steps is not None:
            steps.append(StepDiagnostics(*stages))
        X[k + 1] = x
    res = residuals(problem, X, lams, counters)
    report = RunReport(
        method=config.method if config.delta is None else f"{config.method}-cg",
        K=config.K,
        h=config.h,
        counters=counters,
        wall_time_seconds=time.perf_counter() - t0,
        delta=config.delta,
        lambda_min=config.lambda_min,
        lambda_max=config.lambda_max,
        problem=problem.name,
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


def initialize_by_newton(problem: ProblemOracle, lambda_max: float, tol: float) -> np.ndarray:
    """Damped Newton (newton_solve) on F_{lambda_max} to gradient norm tol.

    Starts from the Omega minimizer, else zero; its work is not charged to any run.
    """
    x = problem.base_point()
    if not problem.domain_check(x):
        raise DomainError("starting point violates the problem domain")
    return next(newton_solve(problem, (lambda_max,), x, tol, OracleCounters()))[0]


def newton_solve(
    problem: ProblemOracle,
    lams: Iterable[float],
    x: np.ndarray,
    tol: float,
    counters: OracleCounters,
) -> Iterator[tuple[np.ndarray, int, float]]:
    """Damped Newton on F_lam for each lam to ||grad F_lam|| <= tol; yields (x, iters, gnorm).

    Each lam starts from the previous exit and reuses the values made there,
    none of which depends on lam.  Each step is the Newton step, halved until
    the iterate stays in the domain and F_lam does not increase; an accepted
    point keeps its values and its gradients are made at the next iteration.
    Each gradient made charges grad_f and grad_omega to counters, and each
    step one Hessian build.  Raises ValueError unless tol > 0, and
    MaxIterationsError when no halving is acceptable or the gradient is
    still above tol after NEWTON_CAP steps.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fg = og = fv = ov = None
    for lam in map(float, lams):
        for it in range(NEWTON_CAP + 1):
            if fg is None:
                fg, og = problem.f_grad(x), problem.omega_grad(x)
                counters.grad_f += 1
                counters.grad_omega += 1
            g = fg + lam * og
            gnorm = float(np.linalg.norm(g))
            if gnorm <= tol:
                break
            if it == NEWTON_CAP:
                raise MaxIterationsError(f"newton stalled above tol = {tol} after {it} iterations")
            d = problem.hessian(x, lam).solve(g).direction
            counters.hess_builds += 1
            if fv is None:
                fv, ov = problem.f_value(x), problem.omega_value(x)
            f0 = fv + lam * ov
            t = 1.0
            for _ in range(MAX_DOMAIN_BACKOFFS + 1):
                cand = x + t * d
                if problem.domain_check(cand):
                    cand_fv, cand_ov = problem.f_value(cand), problem.omega_value(cand)
                    if cand_fv + lam * cand_ov <= f0 + 1e-12 * (1.0 + abs(f0)):
                        x, fg, og, fv, ov = cand, None, None, cand_fv, cand_ov
                        break
                t *= 0.5
            else:
                raise MaxIterationsError("newton damping found no acceptable step")
        yield x, it, gnorm
