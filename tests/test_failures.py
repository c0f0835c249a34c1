"""Partial results on failure: a run that breaks mid-path hands back what it finished.

Faults are injected through the oracle's Hessian handle: the n-th handle
the run asks for raises NotPositiveDefiniteError from its solve and its
products, as a factorization of a non-SPD Hessian would.  quad30 never
backs off from its domain, so every direction asks for exactly one handle,
and Newton one per iterate, whose solve takes the step from that iterate.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathode import (
    GridSearchConfig,
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

    def solve(self, g, lam):
        raise NotPositiveDefiniteError("injected: Hessian is not positive definite")

    matvec = solve


def failing_on_call(problem, n):
    """problem, except that its n-th Hessian handle (counting from 1) is broken."""
    calls = 0

    def hessian(x):
        nonlocal calls
        calls += 1
        handle = problem.hessian(x)
        return _BrokenHandle(handle) if calls == n else handle

    return dataclasses.replace(problem, hessian=hessian)


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(list(STAGES)),
    mode=st.sampled_from(["exact", "cg"]),
    record=st.booleans(),
    data=st.data(),
)
def test_failed_path_run_keeps_the_finished_knots(method, mode, record, data):
    # the caller's steps list keeps the records of the k finished steps,
    # equal bit for bit to the clean run's first k
    n = data.draw(st.integers(1, STAGES[method] * K), label="failing call")
    cfg = StepperConfig(
        method=method, K=K, lambda_min=0.01, lambda_max=10.0,
        delta=1e-6 if mode == "cg" else None,
    )
    ref_steps, steps = ([], []) if record else (None, None)
    ref, _ = run_path(QUAD30, X0, cfg, steps=ref_steps)
    with pytest.raises(PathRunError) as info:
        run_path(failing_on_call(QUAD30, n), X0, cfg, steps=steps)
    err = info.value
    k = err.step_index
    assert k == (n - 1) // STAGES[method]
    assert len(err.lams) == len(err.X) == len(err.residuals) == k + 1
    assert np.array_equal(err.lams, ref.lams[: k + 1])
    assert np.array_equal(err.X, ref.X[: k + 1])
    assert np.array_equal(err.residuals, residuals(QUAD30, ref.X[: k + 1], ref.lams[: k + 1]))
    if not record:
        return
    assert len(steps) == k
    for d, r in zip(steps, ref_steps[:k], strict=True):
        assert len(d.stages) == len(d.stage_points) == STAGES[method]
        assert d.stage_lambdas == r.stage_lambdas
        assert d.domain_backoffs == r.domain_backoffs
        for a, b in zip(d.stage_points, r.stage_points, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(d.stages, r.stages, strict=True):
            assert np.array_equal(a.direction, b.direction)
            assert np.array_equal(a.residual_vector, b.residual_vector)
            assert (a.residual_norm, a.inner_iterations, a.initial_residual) == (
                b.residual_norm, b.inner_iterations, b.initial_residual
            )


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 6))
def test_failed_grid_search_keeps_the_finished_points(n):
    # Newton is exact on a quadratic: one step per grid point.  Its handles are the
    # start's and each grid point's exit's, which takes the next point's step, so the
    # n-th handle fails grid point n - 1
    cfg = GridSearchConfig(
        num_points=6, inner_solver="newton", inner_tol=1e-8, lambda_min=0.01, lambda_max=10.0
    )
    ref, _ = solve_grid(QUAD30, np.zeros(20), cfg)
    with pytest.raises(PathRunError) as info:
        solve_grid(failing_on_call(QUAD30, n), np.zeros(20), cfg)
    err = info.value
    idx = err.step_index
    assert idx == n - 1
    assert len(err.lams) == len(err.X) == len(err.residuals) == idx
    assert np.array_equal(err.lams, ref.lams[:idx])
    assert np.array_equal(err.X, ref.X[:idx])
    assert np.array_equal(err.residuals, ref.residuals[:idx])


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("method", ["euler", "trapezoid-cg", "rk4", "grid-newton"])
def test_cli_exits_3_on_a_failed_run(method, n, monkeypatch, capsys, tmp_path):
    # --init omega asks for one handle, so n = 1 fails the start point and
    # n = 3, 7 a direction of the run; each method gets the tolerance it reads.
    # An ODE run that fails at step k writes --diag-out's first k lines of
    # the clean run, the start point's failure none.
    argv = ["run", "--method", method, "--K", str(K), "--init", "omega"]
    tolerance = {"trapezoid-cg": ["--delta", "1e-6"], "grid-newton": ["--inner-tol", "1e-8"]}
    argv += tolerance.get(method, [])
    ref_diag, diag = tmp_path / "ref.jsonl", tmp_path / "steps.jsonl"
    if method != "grid-newton":
        monkeypatch.setattr(cli, "build_problem", lambda args: (QUAD30, {}))
        assert cli.main(argv + ["--diag-out", str(ref_diag), "--out", str(tmp_path / "r")]) == 0
        argv += ["--diag-out", str(diag)]
    faulty = failing_on_call(QUAD30, n)
    monkeypatch.setattr(cli, "build_problem", lambda args: (faulty, {"problem": "quadratic"}))
    assert cli.main(argv) == 3
    assert "solver failure" in capsys.readouterr().err
    if method == "grid-newton" or n == 1:
        assert not diag.exists()
        return
    k = (n - 2) // STAGES[method.removesuffix("-cg")]
    assert diag.read_text().splitlines() == ref_diag.read_text().splitlines()[:k]
