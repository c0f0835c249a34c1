"""Argument and domain checks that no run of the suite trips, each with its exact message.

The solver branches are reached through a dataclasses.replace'd oracle
whose domain takes a fixed number of points and then none, not through
overflow, which the warning filter turns into an error.
"""

import dataclasses

import numpy as np
import pytest

from pathode import (
    DomainError,
    GridSearchConfig,
    MaxIterationsError,
    OracleCounters,
    PiecewiseLinearPath,
    agd_inner,
    cg_solve,
    estimate_constants,
    estimate_f_gap,
    initialize_by_newton,
    make_moment_matching,
    make_quadratic_ridge,
    quadratic_theory_constants,
    stepsize,
)
from pathode.datasets import generate_synthetic_quadratic
from pathode.steppers import newton_solve

QUAD30 = make_quadratic_ridge(*generate_synthetic_quadratic(30, 20, 1))
ZERO = np.zeros(QUAD30.dim)


def domain_taking(points):
    """QUAD30 whose domain_check accepts the first `points` points it is asked about, then none."""
    left = [points]

    def domain_check(x):
        left[0] -= 1
        return left[0] >= 0

    return dataclasses.replace(QUAD30, domain_check=domain_check)


def first_exit(solver, problem):
    return next(solver(problem, (1.0,), ZERO, 1e-10, OracleCounters()))


CASES = {
    "newton-damping": (
        lambda: first_exit(newton_solve, domain_taking(0)),
        MaxIterationsError, "newton damping found no acceptable step",
    ),
    "agd-step": (
        lambda: first_exit(agd_inner, domain_taking(0)),
        DomainError, "accelerated gradient left the domain",
    ),
    "agd-extrapolation": (
        lambda: first_exit(agd_inner, domain_taking(1)),
        DomainError, "accelerated gradient extrapolation left the domain",
    ),
    "newton-start": (
        lambda: initialize_by_newton(domain_taking(0), 10.0, 1e-10),
        DomainError, "starting point violates the problem domain",
    ),
    "checked-start-shape": (
        lambda: QUAD30.checked_start(np.zeros(3), False),
        ValueError, "x0 has shape (3,), expected (20,)",
    ),
    "theory-rank-deficient": (
        lambda: quadratic_theory_constants(
            np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.ones(3), np.zeros(2), 0.01, 10.0
        ),
        ValueError, "analytic gradient bound needs full column rank (mu > 0)",
    ),
    "stepsize-K": (
        lambda: stepsize("euler", 0, 0.01, 10.0),
        ValueError, "K must be a positive integer",
    ),
    "stepsize-method": (
        lambda: stepsize("midpoint", 10, 0.01, 10.0),
        ValueError, "unknown method 'midpoint'; expected one of ('euler', 'trapezoid', 'rk4')",
    ),
    "cg-delta": (
        lambda: cg_solve(lambda v: v, np.ones(2), np.zeros(2), 0.0, 10),
        ValueError, "delta must be positive",
    ),
    "cg-max-iters": (
        lambda: cg_solve(lambda v: v, np.ones(2), np.zeros(2), 1e-8, -1),
        ValueError, "max_iters must be nonnegative",
    ),
    "cg-warm-shape": (
        lambda: cg_solve(lambda v: v, np.ones(2), np.zeros(3), 1e-8, 10),
        ValueError, "warm start shape (3,) does not match (2,)",
    ),
    "grid-inner-solver": (
        lambda: GridSearchConfig(5, "bfgs", 1e-8, 0.01, 10.0),
        ValueError, "inner_solver must be one of ('newton', 'agd')",
    ),
    "estimate-constants-samples": (
        lambda: estimate_constants(QUAD30, (0.01, 10.0), 0, 1),
        ValueError, "sample_count must be at least 1",
    ),
    "estimate-f-gap-samples": (
        lambda: estimate_f_gap(QUAD30, ZERO, 0, 1),
        ValueError, "sample_count must be at least 1",
    ),
    "estimate-constants-base": (
        lambda: estimate_constants(domain_taking(0), (0.01, 10.0), 4, 1),
        ValueError, "base point violates the problem domain",
    ),
    "path-nonpositive-lambda": (
        lambda: PiecewiseLinearPath(np.array([1.0, 0.0]), np.zeros((2, 1)), np.zeros(2)),
        ValueError, "lambdas must stay positive",
    ),
    "moment-shape": (
        lambda: make_moment_matching(np.ones((3, 2)), np.ones(4)),
        ValueError, "shape mismatch: A (3, 2), b (4,)",
    ),
}  # fmt: skip


@pytest.mark.parametrize("case", list(CASES))
def test_raises_its_exact_message(case):
    call, kind, message = CASES[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
