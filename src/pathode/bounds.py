"""Closed-form iteration bounds, per-step recursion bounds, and constant estimation.

Every calculator here is a pure function of its inputs and totals: out-of-range
inputs that merely void a guarantee produce a warning inside the returned
report, never an exception, while inputs that overflow a term raise
ValueError.  The per-step bounds return right-hand sides of the corresponding
one-step inequalities so invariant checkers can compare measured runs against
them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .problems import ProblemOracle, TheoryConstants
from .reports import json_text

@dataclass
class BoundReport:
    """An evaluated iteration bound with its term breakdown.

    binding_term names the term that attained the max; terms maps each term
    name to its value; inputs_echo repeats every input so serialized reports
    are self-contained.
    """

    method: str
    K_required: int
    binding_term: str
    terms: dict[str, float]
    inputs_echo: dict
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json_text(asdict(self))


def _pow(base: float, exponent: float) -> float:
    """base ** exponent, or inf where the float power overflows, as a product would."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _finish(
    method: str, terms: dict[str, float], echo: dict, warns: list[str], K_min: int = 1
) -> BoundReport:
    for name, value in terms.items():  # an inf term binds; a nan one would lose the max
        if not math.isfinite(value):
            raise ValueError(f"{method} bound term {name} = {value}: the inputs overflow it")
    binding = max(terms, key=terms.get)
    return BoundReport(method, max(K_min, math.ceil(terms[binding])), binding, terms, echo, warns)


def _echo(c: TheoryConstants, eps: float, f_gap: float) -> dict:
    """The report's inputs_echo; rejects eps not finite and > 0 and f_gap not finite and >= 0."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not (f_gap >= 0.0 and math.isfinite(f_gap)):
        raise ValueError(f"f_gap must be finite and nonnegative, got {f_gap}")
    return {"constants": asdict(c), "eps": float(eps), "f_gap": float(f_gap)}


def k_euler(c: TheoryConstants, eps: float, f_gap: float = 0.0) -> BoundReport:
    """Step count guaranteeing an eps-accurate path for exact semi-implicit Euler.

    ceil of max{2T, sqrt(LG) tau T / sqrt 3, 4 f_gap tau L T / eps,
    2 sqrt(L) (tau G + 1) T / sqrt(eps)} with T = ln(lambda_max/lambda_min).
    """
    echo = _echo(c, eps, f_gap)
    T = c.T_euler
    terms = {
        "horizon": 2.0 * T,
        "curvature": math.sqrt(c.L * c.G) * c.tau * T / math.sqrt(3.0),
        "objective_gap": 4.0 * f_gap * c.tau * c.L * T / eps,
        "interpolation": 2.0 * math.sqrt(c.L) * (c.tau * c.G + 1.0) * T / math.sqrt(eps),
    }
    return _finish("euler", terms, echo, [])


def k_trapezoid(c: TheoryConstants, eps: float, f_gap: float = 0.0) -> BoundReport:
    """Step count for the exact trapezoid scheme, with the inflated horizon T_trap.

    ceil of max{10T, 8LT(1+G)/mu_tilde, 6 sqrt(L) (1+G)^{3/2} T / sqrt(eps),
    5 tau^{2/3} L (1+G)^{4/3} T / eps^{1/3}}; f_gap is checked and echoed, not used.
    """
    echo = _echo(c, eps, f_gap)
    T = c.T_trap
    onepg = 1.0 + c.G
    terms = {
        "horizon": 10.0 * T,
        "conditioning": 8.0 * c.L * T * onepg / c.mu_tilde,
        "third_order": 6.0 * math.sqrt(c.L) * _pow(onepg, 1.5) * T / math.sqrt(eps),
        "fourth_order": 5.0 * c.tau ** (2.0 / 3.0) * c.L * _pow(onepg, 4.0 / 3.0) * T / eps ** (1.0 / 3.0),
    }
    return _finish("trapezoid", terms, echo, [])


def _approx_warning(c: TheoryConstants, eps: float) -> list[str]:
    if eps > c.mu_tilde:
        msg = (
            f"eps = {eps:g} exceeds mu + lambda_min sigma = {c.mu_tilde:g}; the "
            "inexact-direction guarantee assumes eps <= mu_tilde, so this bound "
            "is evaluated outside its precondition"
        )
        warnings.warn(msg, stacklevel=3)
        return [msg]
    return []


def k_euler_approx(c: TheoryConstants, eps: float, f_gap: float = 0.0) -> BoundReport:
    """Euler step count under delta-approximate directions (delta = eps/4).

    ceil of max{2T, sqrt(LG) tau T / sqrt 3, 8 f_gap tau L T / eps,
    4 sqrt(L) (tau (G + eps) + 1) T / sqrt(eps)}.  eps > mu_tilde voids the
    guarantee and is reported as a warning, not an error.
    """
    echo = _echo(c, eps, f_gap)
    warns = _approx_warning(c, eps)
    T = c.T_euler
    terms = {
        "horizon": 2.0 * T,
        "curvature": math.sqrt(c.L * c.G) * c.tau * T / math.sqrt(3.0),
        "objective_gap": 8.0 * f_gap * c.tau * c.L * T / eps,
        "interpolation": 4.0 * math.sqrt(c.L) * (c.tau * (c.G + eps) + 1.0) * T / math.sqrt(eps),
    }
    return _finish("euler-cg", terms, echo, warns)


def k_trapezoid_approx(c: TheoryConstants, eps: float, f_gap: float = 0.0) -> BoundReport:
    """Trapezoid step count under delta-approximate directions.

    ceil of max{10T, 8LT(2+G)/mu_tilde, 6 sqrt(L) (2+G)^{3/2} T / sqrt(eps),
    6 L tau^{2/3} (2+G)^{4/3} T / eps^{1/3}}; f_gap is checked and echoed, not used.
    """
    echo = _echo(c, eps, f_gap)
    warns = _approx_warning(c, eps)
    T = c.T_trap
    twopg = 2.0 + c.G
    terms = {
        "horizon": 10.0 * T,
        "conditioning": 8.0 * c.L * T * twopg / c.mu_tilde,
        "third_order": 6.0 * math.sqrt(c.L) * _pow(twopg, 1.5) * T / math.sqrt(eps),
        "fourth_order": 6.0 * c.L * c.tau ** (2.0 / 3.0) * _pow(twopg, 4.0 / 3.0) * T / eps ** (1.0 / 3.0),
    }
    return _finish("trapezoid-cg", terms, echo, warns)


def k_grid(c: TheoryConstants, eps: float, f_gap: float = 0.0) -> BoundReport:
    """Grid size sqrt(tau L) G T / eps matching an eps gradient-norm target.

    Clamped below at 2 so the grid always contains both endpoints; f_gap is
    checked and echoed, not used.
    """
    echo = _echo(c, eps, f_gap)
    raw = math.sqrt(c.tau * c.L) * c.G * c.T_euler / eps
    return _finish("grid", {"grid_size": raw}, echo, [], K_min=2)


# method -> (constants, eps, f_gap) -> BoundReport, for every method with a closed-form bound
K_BOUNDS = {
    "euler": k_euler,
    "trapezoid": k_trapezoid,
    "euler-cg": k_euler_approx,
    "trapezoid-cg": k_trapezoid_approx,
    "grid": k_grid,
}


def stepsize_bounds(c: TheoryConstants, lambda_next: float) -> tuple[float, float]:
    """(general, simplified) upper bounds on an admissible step size h.

    With the exponential schedule xi(lambda) = -lambda, the general bound
    is min{1/2, (mu + lambda_{j+1} sigma) sqrt(3/(LG))} and the simplified
    one is min{1/2, sqrt(3/(tau^2 L G))}.
    """
    if not lambda_next > 0.0:
        raise ValueError("lambda_next must be positive")
    general = min(0.5, (c.mu + lambda_next * c.sigma) * math.sqrt(3.0 / (c.L * c.G)))
    simplified = min(0.5, math.sqrt(3.0 / (c.tau**2 * c.L * c.G)))
    return general, simplified


def step_bound_euler(
    r_k: float, lambda_k: float, lambda_k1: float, h: float, L: float, v_norm: float
) -> float:
    """One-step residual bound for exact Euler.

    (lambda_{k+1}/lambda_k) r_k + h^2 L (1 + lambda_{k+1}) / 2 * ||v||^2 with
    v evaluated at (x_k, lambda_{k+1}).
    """
    return (lambda_k1 / lambda_k) * r_k + h * h * L * (1.0 + lambda_k1) / 2.0 * v_norm**2


def step_bound_trapezoid(
    r_k: float, lambda_ratio: float, h: float, L: float, G: float, tau: float
) -> float:
    """One-step residual bound for exact trapezoid (needs r_k <= mu_tilde)."""
    onepg = 1.0 + G
    return lambda_ratio * r_k + 3.0 * h**3 * L * onepg**3 + 2.0 * h**4 * L**3 * tau**2 * onepg**4


def step_bound_euler_approx(
    r_k: float,
    lambda_k: float,
    lambda_k1: float,
    h: float,
    L: float,
    d_hat_norm: float,
    delta_norm: float,
) -> float:
    """One-step residual bound for Euler with a delta-approximate direction.

    Same as the exact bound with the computed direction's norm in the
    quadratic term, plus the linear leakage h ||delta_k||.
    """
    return (
        (lambda_k1 / lambda_k) * r_k
        + h * h * L * (1.0 + lambda_k1) / 2.0 * d_hat_norm**2
        + h * delta_norm
    )


def step_bound_trapezoid_approx(
    r_k: float,
    lambda_ratio: float,
    h: float,
    L: float,
    G: float,
    tau: float,
    delta1: np.ndarray,
    delta2: np.ndarray,
) -> float:
    """One-step residual bound for trapezoid with delta-approximate stages.

    delta1/delta2 are the residual vectors of the two stage solves (the bound
    involves ||delta1 - delta2||, so vectors are required, not norms).
    """
    delta1 = np.asarray(delta1, dtype=float)
    delta2 = np.asarray(delta2, dtype=float)
    twopg = 2.0 + G
    return (
        lambda_ratio * r_k
        + 3.0 * h**3 * L * twopg**3
        + 2.0 * h**4 * L**3 * tau**2 * twopg**4
        + (h / 2.0) * float(np.linalg.norm(delta1 - delta2))
        + (h * h / 2.0) * float(np.linalg.norm(delta1))
    )


def _sym_norm(evals: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix from its ascending eigvalsh spectrum."""
    return max(abs(float(evals[0])), abs(float(evals[-1])))


def _domain_samples(problem: ProblemOracle, base, sample_count: int, seed: int):
    """Philox draws around base, each halved toward it into the domain (<= 60 times) or skipped."""
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(sample_count):
        step = rng.normal(size=problem.dim)
        cand = base + step
        shrink = 0
        while not problem.domain_check(cand) and shrink < 60:
            step *= 0.5
            cand = base + step
            shrink += 1
        if problem.domain_check(cand):
            yield cand


def estimate_f_gap(
    problem: ProblemOracle,
    x0: np.ndarray,
    sample_count: int,
    seed: int,
) -> float:
    """Plug-in estimate of f(x0) - f*: the drop to the best sampled f value.

    Samples perturbations of x0 (shrunk into the domain as needed) and
    returns max(0, f(x0) - min f).  This is a sample-based stand-in for the
    unobservable optimal value and is only used when no analytic gap exists.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    f0 = problem.f_value(x0)
    samples = _domain_samples(problem, x0, sample_count, seed)
    return max(0.0, f0 - min([f0] + [problem.f_value(x) for x in samples]))


def estimate_constants(
    problem: ProblemOracle,
    lambda_range: tuple[float, float],
    sample_count: int,
    seed: int,
) -> TheoryConstants:
    """Sample-based estimates of (mu, sigma, L, G), marked as estimated.

    Draws sample_count perturbations of the base point (the Omega minimizer,
    else zero), shrinks each toward the base until it satisfies the domain,
    and keeps those passing the level-set filter f(x) <= f(base).  Over the
    kept points plus the base: L-hat is the max of Hessian spectral norms
    and pairwise Hessian-difference ratios, G-hat the max gradient norm,
    mu-hat and sigma-hat the min Hessian eigenvalues.  Every spectral norm is
    the largest |eigenvalue| from eigvalsh, one symmetric eigensolve per
    matrix, so L-hat is not biased low by an iterative stopping rule.  The
    draw stream is prefix-stable in sample_count, so estimates from a larger
    sample dominate those from a smaller one.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    lambda_min, lambda_max = lambda_range
    base = problem.base_point()
    f_base = problem.f_value(base)
    points = [base] + [
        x
        for x in _domain_samples(problem, base, sample_count, seed)
        if problem.f_value(x) <= f_base + 1e-12 * (1.0 + abs(f_base))
    ]

    L_hat = 0.0
    G_hat = 0.0
    mu_hat = math.inf
    sigma_hat = math.inf
    hessians_f = []
    for x in points:
        hess = problem.hessian(x)
        Hf = np.asarray(hess.f_hess(), dtype=float)
        Ho = np.asarray(hess.omega_hess(), dtype=float)
        hessians_f.append((x, Hf))
        evals_f = np.linalg.eigvalsh(Hf)
        evals_o = np.linalg.eigvalsh(Ho)
        L_hat = max(L_hat, _sym_norm(evals_f), _sym_norm(evals_o))
        G_hat = max(
            G_hat,
            float(np.linalg.norm(hess.grad_f())),
            float(np.linalg.norm(problem.omega_grad(x))),
        )
        mu_hat = min(mu_hat, float(evals_f[0]))
        sigma_hat = min(sigma_hat, float(evals_o[0]))
    for (x_a, H_a), (x_b, H_b) in zip(hessians_f, hessians_f[1:]):
        gap = float(np.linalg.norm(x_a - x_b))
        if gap > 1e-12:
            L_hat = max(L_hat, _sym_norm(np.linalg.eigvalsh(H_a - H_b)) / gap)

    return TheoryConstants(
        mu=max(0.0, mu_hat),
        sigma=max(0.0, sigma_hat),
        L=L_hat,
        G=G_hat,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        estimated=True,
    )
