"""Partial results on failure: a run that breaks mid-path hands back what it finished.

Faults are injected through the oracle's Hessian handle: the n-th handle
the run asks for raises NotPositiveDefiniteError from its solve and its
products, as a factorization of a non-SPD Hessian would.  quad30 never
backs off from its domain, so every direction asks for exactly one handle.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathode import (
    GridSearchConfig,
    GridSearchError,
    NotPositiveDefiniteError,
    PathRunError,
    StepperConfig,
    cli,
    make_quadratic_ridge,
    quadratic_path_point,
    run_path,
    solve_grid,
)
from pathode.datasets import generate_synthetic_quadratic
from pathode.paths import residuals

STAGES = {"euler": 1, "trapezoid": 2, "rk4": 4}
K = 12  # trapezoid needs K > log2(10 / 0.01)
A, B = generate_synthetic_quadratic(30, 20, 1)
QUAD30 = make_quadratic_ridge(A, B)
X0 = quadratic_path_point(A, B, 10.0)


class _BrokenHandle:
    def __init__(self, handle):
        self.grad_f = handle.grad_f

    def solve(self, g):
        raise NotPositiveDefiniteError("injected: Hessian is not positive definite")

    matvec = solve


def failing_on_call(problem, n):
    """problem, except that its n-th Hessian handle (counting from 1) is broken."""
    calls = 0

    def hessian_at(x, lam):
        nonlocal calls
        calls += 1
        handle = problem.hessian(x, lam)
        return _BrokenHandle(handle) if calls == n else handle

    return dataclasses.replace(problem, hessian_at=hessian_at)


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(list(STAGES)),
    mode=st.sampled_from(["exact", "cg"]),
    record=st.booleans(),
    data=st.data(),
)
def test_failed_path_run_keeps_the_finished_knots(method, mode, record, data):
    n = data.draw(st.integers(1, STAGES[method] * K), label="failing call")
    cfg = StepperConfig(
        method=method, K=K, lambda_min=0.01, lambda_max=10.0, direction_mode=mode,
        delta=1e-6 if mode == "cg" else None, record_diagnostics=record,
    )
    ref, _ = run_path(QUAD30, X0, cfg)
    with pytest.raises(PathRunError) as info:
        run_path(failing_on_call(QUAD30, n), X0, cfg)
    err = info.value
    k = err.step_index
    assert k == (n - 1) // STAGES[method]
    assert len(err.lams) == len(err.X) == len(err.residuals) == k + 1
    assert np.array_equal(err.lams, ref.lams[: k + 1])
    assert np.array_equal(err.X, ref.X[: k + 1])
    assert np.array_equal(err.residuals, residuals(QUAD30, ref.X[: k + 1], ref.lams[: k + 1]))
    assert len(err.diagnostics) == (k if record else 0)
    for d in err.diagnostics:
        assert d.residual_r_k == err.residuals[d.k]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 6))
def test_failed_grid_search_keeps_the_finished_points(n):
    # Newton is exact on a quadratic: one handle, one iteration per grid point
    cfg = GridSearchConfig(
        num_points=6, inner_solver="newton", inner_tol=1e-8, lambda_min=0.01, lambda_max=10.0
    )
    ref, _ = solve_grid(QUAD30, np.zeros(20), cfg)
    with pytest.raises(GridSearchError) as info:
        solve_grid(failing_on_call(QUAD30, n), np.zeros(20), cfg)
    err = info.value
    idx = err.point_index
    assert idx == n - 1
    assert len(err.lams) == len(err.X) == len(err.residuals) == idx
    assert np.array_equal(err.lams, ref.lams[:idx])
    assert np.array_equal(err.X, ref.X[:idx])
    assert np.array_equal(err.residuals, ref.residuals[:idx])


@pytest.mark.parametrize("method", ["euler", "trapezoid-cg", "rk4", "grid-newton"])
def test_cli_exits_3_on_a_failed_run(method, monkeypatch, capsys):
    # --init omega asks for one handle; the run's second direction then fails
    faulty = failing_on_call(QUAD30, 3)
    monkeypatch.setattr(cli, "build_problem", lambda args: (faulty, {"problem": "quadratic"}))
    argv = ["run", "--method", method, "--K", str(K), "--init", "omega"]
    argv += ["--delta", "1e-6", "--inner-tol", "1e-8"]
    assert cli.main(argv) == 3
    assert "solver failure" in capsys.readouterr().err
