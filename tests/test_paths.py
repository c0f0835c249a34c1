"""Path containers, interpolation, accuracy metrics, and CSV export."""

import csv
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pathode import (
    GridSearchConfig,
    OracleCounters,
    PiecewiseConstantPath,
    PiecewiseLinearPath,
    StepperConfig,
    accuracy_dense,
    accuracy_midpoint,
    build_moment_problem,
    export_path_csv,
    generate_synthetic_moment_data,
    initialize_by_newton,
    lambda_schedule,
    make_logistic_ridge,
    make_moment_matching,
    make_quadratic_ridge,
    run_path,
    solve_grid,
)
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic
from pathode import paths as paths_mod
from pathode.paths import residuals
from pathode.reports import RunReport


def two_knot_scalar_path():
    """Exact endpoints of x(lam) = 1/(1+lam) on [0.5, 1]."""
    return PiecewiseLinearPath(np.array([1.0, 0.5]), np.array([[0.5], [2.0 / 3.0]]), np.zeros(2))


class TestContainers:
    def test_needs_two_knots(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath(np.array([1.0]), np.zeros((1, 1)), np.zeros(1))

    def test_lambdas_must_decrease(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath(np.array([1.0, 1.5]), np.zeros((2, 1)), np.zeros(2))

    def test_one_row_and_residual_per_knot(self):
        lams = np.array([1.0, 0.5])
        with pytest.raises(ValueError):
            PiecewiseLinearPath(lams, np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            PiecewiseLinearPath(lams, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            PiecewiseLinearPath(lams, np.zeros((2, 1)), np.zeros(3))

    def test_lambda_range_properties(self):
        path = two_knot_scalar_path()
        assert path.lambda_max == 1.0
        assert path.lambda_min == 0.5


class TestInterpolate:
    def test_endpoints_exact(self):
        path = two_knot_scalar_path()
        assert path.query(1.0) == pytest.approx([0.5])
        assert path.query(0.5) == pytest.approx([2.0 / 3.0])

    def test_midpoint_blend(self):
        path = two_knot_scalar_path()
        # alpha = (1 - 0.75)/(1 - 0.5) = 1/2: average of the endpoints
        got = path.query(0.75)
        assert got == pytest.approx([0.5 * (0.5 + 2.0 / 3.0)], rel=1e-14)

    def test_linear_in_lambda(self):
        path = two_knot_scalar_path()
        lam = 0.6
        alpha = (1.0 - lam) / 0.5
        expect = (1 - alpha) * 0.5 + alpha * (2.0 / 3.0)
        assert path.query(lam) == pytest.approx([expect], rel=1e-13)

    def test_out_of_range_rejected(self):
        path = two_knot_scalar_path()
        with pytest.raises(ValueError):
            path.query(1.2)
        with pytest.raises(ValueError):
            path.query(0.4)

    def test_piecewise_constant_holds_left_knot(self):
        path = PiecewiseConstantPath(
            np.array([1.0, 0.5, 0.25]), np.array([[1.0], [2.0], [3.0]]), np.zeros(3)
        )
        # x_k owns [lambda_{k+1}, lambda_k)
        assert path.query(1.0) == pytest.approx([1.0])
        assert path.query(0.7) == pytest.approx([1.0])
        assert path.query(0.5) == pytest.approx([2.0])
        assert path.query(0.3) == pytest.approx([2.0])
        assert path.query(0.25) == pytest.approx([3.0])


class TestResidualNorm:
    def test_exact_point_is_zero(self, scalar_ridge):
        assert residuals(scalar_ridge, np.array([[0.5]]), np.array([1.0]))[0] <= 1e-16

    def test_scalar_value(self, scalar_ridge):
        # grad F_1(1) = (1 - 1) + 1*1 = 1
        assert residuals(scalar_ridge, np.array([[1.0]]), np.array([1.0]))[0] == pytest.approx(1.0)

    def test_counts_into_metric_counter(self, scalar_ridge):
        c = OracleCounters()
        residuals(scalar_ridge, np.array([[1.0], [0.5]]), np.array([1.0, 2.0]), c)
        assert c.metric_evals == 2
        assert c.grad_f == 0 and c.grad_omega == 0

    def test_rows_match_the_pointwise_gradient(self, quad30, quad30_start):
        # the batched kernel is the per-point ||grad F_lam(x)||, up to rounding
        _, _, problem = quad30
        cfg = StepperConfig(method="rk4", K=20, lambda_min=0.01, lambda_max=10.0)
        path, _ = run_path(problem, quad30_start, cfg)
        pointwise = [
            np.linalg.norm(problem.total_grad(x, lam)) for x, lam in zip(path.X, path.lams)
        ]
        assert np.allclose(path.residuals, pointwise, rtol=0.0, atol=1e-13)
        assert np.array_equal(path.residuals, residuals(problem, path.X, path.lams))


class TestAccuracyMetrics:
    def test_two_knot_worst_case_midpoint(self, scalar_ridge):
        # the chord of 1/(1+lam) over [0.5, 1] misses worst at the middle;
        # grad F there evaluates to exactly 1/48
        path = two_knot_scalar_path()
        a_hat = accuracy_midpoint(scalar_ridge, path)
        assert a_hat == pytest.approx(1.0 / 48.0, rel=1e-10)

    def test_midpoint_evaluation_count(self, scalar_ridge):
        path = two_knot_scalar_path()
        c = OracleCounters()
        accuracy_midpoint(scalar_ridge, path, c)
        # two knots plus one interval midpoint
        assert c.metric_evals == 3

    def test_dense_three_includes_midpoints(self, scalar_ridge):
        # points_per_interval=3 places both endpoints and the exact midpoint,
        # so dense(3) can never be below the midpoint metric
        path = two_knot_scalar_path()
        mid = accuracy_midpoint(scalar_ridge, path)
        dense3 = accuracy_dense(scalar_ridge, path, points_per_interval=3)
        assert dense3 >= mid - 1e-15

    def test_dense_agrees_with_midpoint_on_smooth_path(self, scalar_ridge):
        path = two_knot_scalar_path()
        dense = accuracy_dense(scalar_ridge, path, points_per_interval=1000)
        mid = accuracy_midpoint(scalar_ridge, path)
        assert dense == pytest.approx(mid, rel=0.05)

    def test_dense_needs_two_points(self, scalar_ridge):
        path = two_knot_scalar_path()
        with pytest.raises(ValueError):
            accuracy_dense(scalar_ridge, path, points_per_interval=1)

    @pytest.mark.parametrize("kind", ["linear", "constant"])
    def test_blocked_metrics_match_one_block(self, quad30, quad30_start, kind, monkeypatch):
        # five points per block split both metrics of a 20-interval path into many blocks
        _, _, problem = quad30
        K, ppi = 20, 7
        if kind == "linear":
            path, _ = run_path(problem, quad30_start, StepperConfig("euler", K, 0.01, 10.0))
        else:
            config = GridSearchConfig(K + 1, "newton", 1e-9, 0.01, 10.0)
            path, _ = solve_grid(problem, quad30_start, config)
        lams = path.lams
        points = np.concatenate([lams, 0.5 * (lams[:-1] + lams[1:])])
        reference = np.max(residuals(problem, path.query_batch(points), points))
        whole = accuracy_midpoint(problem, path), accuracy_dense(problem, path, ppi)
        monkeypatch.setattr(paths_mod, "DENSE_BLOCK_BYTES", 5 * 8 * problem.dim)
        c_mid, c_dense = OracleCounters(), OracleCounters()
        blocked = accuracy_midpoint(problem, path, c_mid), accuracy_dense(problem, path, ppi, c_dense)
        assert blocked == pytest.approx(whole, rel=1e-12, abs=0.0)
        assert (c_mid.metric_evals, c_dense.metric_evals) == (2 * K + 1, ppi * K)
        assert blocked[0] == pytest.approx(reference, rel=1e-9, abs=0.0)

    def test_interpolation_residual_bounded_between_knots(self, quad30, quad30_start):
        # the path metric between knots stays within the same order as at
        # knots plus the interpolation gap; sanity guard for query_batch
        _, _, problem = quad30
        cfg = StepperConfig(method="trapezoid", K=100, lambda_min=0.01, lambda_max=10.0)
        path, rep = run_path(problem, quad30_start, cfg)
        mid = accuracy_midpoint(problem, path)
        dense = accuracy_dense(problem, path, points_per_interval=9)
        assert dense <= 1.25 * mid + 1e-12


PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@functools.cache
def dense_instance(family):
    """A small problem of the family and its Newton start at lambda_max = 10."""
    if family == "quadratic":
        problem = make_quadratic_ridge(*generate_synthetic_quadratic(12, 4, 2))
    elif family == "logistic":
        problem = make_logistic_ridge(*generate_synthetic_logistic(40, 5, 3))
    else:
        w, x_true = generate_synthetic_moment_data(6, 7)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 3))
    return problem, initialize_by_newton(problem, 10.0, 1e-10)


class TestDenseBlocks:
    """The blocked dense check equals residuals over query_batch on the same grid."""

    @PROPERTY_SETTINGS
    @given(
        family=st.sampled_from(["quadratic", "logistic", "moment"]),
        scheme=st.sampled_from(["euler", "trapezoid", "rk4", "grid"]),
        cg=st.booleans(),
        K=st.integers(8, 40),
        ppi=st.integers(2, 50),
        block_points=st.integers(1, 120),
    )
    @example("quadratic", "euler", False, 9, 10, 10)  # one interval per block
    @example("logistic", "grid", False, 9, 7, 30)  # four intervals per block, then one
    @example("moment", "rk4", True, 8, 50, 13)  # each interval spans four blocks
    def test_blocked_equals_plain(self, family, scheme, cg, K, ppi, block_points):
        problem, x0 = dense_instance(family)
        if scheme == "grid":
            config = GridSearchConfig(K + 1, "newton", 1e-9, 0.1, 10.0)
            path, _ = solve_grid(problem, x0, config)
        else:
            config = StepperConfig(scheme, K, 0.1, 10.0, delta=1e-9 if cg else None)
            path, _ = run_path(problem, x0, config)
        lams = path.lams
        t = np.linspace(0.0, 1.0, ppi)
        grid = (lams[:-1, None] + (lams[1:, None] - lams[:-1, None]) * t).ravel()
        plain = np.max(residuals(problem, path.query_batch(grid), grid))
        counters = OracleCounters()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paths_mod, "DENSE_BLOCK_BYTES", block_points * 8 * problem.dim)
            blocked = accuracy_dense(problem, path, ppi, counters)
        assert blocked == pytest.approx(plain, rel=1e-9, abs=0.0)
        assert counters.metric_evals == (len(lams) - 1) * ppi

    def test_traced_peak_stays_small(self, quad30, quad30_start):
        # the byte cap keeps every temporary small; one unblocked grid peaked near 99 MiB
        _, _, problem = quad30
        cfg = StepperConfig(method="euler", K=1600, lambda_min=0.01, lambda_max=10.0)
        path, _ = run_path(problem, quad30_start, cfg)
        tracemalloc.start()
        try:
            accuracy_dense(problem, path, points_per_interval=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def family_path(family, scheme, K):
    """The family's problem and its K-interval path on [0.1, 10]: linear, or constant for grid."""
    problem, x0 = dense_instance(family)
    if scheme == "grid":
        return problem, solve_grid(problem, x0, GridSearchConfig(K + 1, "newton", 1e-9, 0.1, 10.0))[0]
    return problem, run_path(problem, x0, StepperConfig(scheme, K, 0.1, 10.0))[0]


class TestSweepKernel:
    """Each block of the sweep is residuals over query_batch at its points; knot points are the knots."""

    @PROPERTY_SETTINGS
    @given(
        family=st.sampled_from(["quadratic", "logistic", "moment"]),
        scheme=st.sampled_from(["euler", "grid"]),  # rk4 and trapezoid need more than 2 intervals here
        K=st.integers(2, 60),
        ppi=st.integers(2, 40),
        shrink=st.booleans(),
    )
    @example("quadratic", "euler", 2, 2, False)
    @example("moment", "euler", 60, 40, True)
    def test_blocks_match_query_batch(self, family, scheme, K, ppi, shrink):
        problem, path = family_path(family, scheme, K)
        blocks, points = [], []
        kernel = path.block_residuals

        def block_residuals(problem, start, lam):
            out = kernel(problem, start, lam)
            blocks.append((lam.ravel(), out))
            return out

        def recorded(problem, X, lams, counters=None):
            points.append((X, lams))
            return residuals(problem, X, lams, counters)

        c_mid, c_dense = OracleCounters(), OracleCounters()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(path, "block_residuals", block_residuals)
            mp.setattr(paths_mod, "residuals", recorded)
            if shrink:
                mp.setattr(paths_mod, "DENSE_BLOCK_BYTES", 5 * 8 * problem.dim)
            accuracy_midpoint(problem, path, c_mid)
            accuracy_dense(problem, path, ppi, c_dense)
        assert (c_mid.metric_evals, c_dense.metric_evals) == (2 * K + 1, ppi * K)
        assert sum(lam.size for lam, _ in blocks) == 2 * K + ppi * K
        for lam, got in blocks:
            X = path.query_batch(lam)
            # BLAS rounds a matmul or gradient batch of another shape differently in the last bit;
            # the floor covers residuals near float noise (grid knots at the Newton floor, moment
            # points whose residual moves 1e-14 per ulp of x), where that bit is much of the value
            assert got == pytest.approx(residuals(problem, X, lam), rel=1e-12, abs=1e-13)
        knot = {lam: k for k, lam in enumerate(path.lams)}
        at_knots = [(x, knot[lam]) for X, lams in points for x, lam in zip(X, lams) if lam in knot]
        assert len(at_knots) >= (K + 1 if scheme != "grid" else 1)
        for x, k in at_knots:
            assert np.array_equal(x, path.X[k])


class TestSweepRange:
    """Every lambda the sweep evaluates lies in the path's range, and t = 1 is the next knot exactly."""

    @PROPERTY_SETTINGS
    @given(
        lo=st.floats(1e-6, 1e3),
        ratio=st.floats(1.001, 1e6),
        K=st.integers(1, 60),
        ppi=st.integers(2, 40),
        constant=st.booleans(),
        shrink=st.booleans(),
    )
    @example(0.1, 100.0, 2, 2, False, False)  # once 0.09999999999999998 at t = 1, an ulp below 0.1
    def test_swept_lambdas_stay_in_range(self, lo, ratio, K, ppi, constant, shrink):
        problem, _ = dense_instance("quadratic")
        lams = lambda_schedule(lo, lo * ratio, K)
        cls = PiecewiseConstantPath if constant else PiecewiseLinearPath
        path = cls(lams, np.zeros((K + 1, problem.dim)), np.zeros(K + 1))
        swept = []

        def block_residuals(problem, start, lam):
            swept.append(lam.ravel())
            return np.zeros(lam.shape)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(path, "block_residuals", block_residuals)
            if shrink:
                mp.setattr(paths_mod, "DENSE_BLOCK_BYTES", 5 * 8 * problem.dim)
            accuracy_midpoint(problem, path)
            accuracy_dense(problem, path, ppi)
        swept = np.concatenate(swept)
        assert np.all((path.lambda_min <= swept) & (swept <= path.lambda_max))
        assert set(lams) <= set(swept)  # the dense grid's t = 0 and t = 1 points are the knots


class TestNanResidual:
    """One NaN residual makes both metrics NaN, so no target is met."""

    @pytest.mark.parametrize("scheme", ["euler", "grid"])
    @pytest.mark.parametrize("knot", [0, 7, 20])
    @pytest.mark.parametrize("block_points", [None, 5])
    def test_nan_knot_makes_both_metrics_nan(
        self, quad30, quad30_start, monkeypatch, scheme, knot, block_points
    ):
        _, _, problem = quad30
        if scheme == "grid":
            path, _ = solve_grid(problem, quad30_start, GridSearchConfig(21, "newton", 1e-9, 0.01, 10.0))
        else:
            path, _ = run_path(problem, quad30_start, StepperConfig("euler", 20, 0.01, 10.0))
        X = path.X.copy()
        X[knot] = np.nan
        broken = type(path)(path.lams, X, path.residuals)
        if block_points is not None:
            monkeypatch.setattr(paths_mod, "DENSE_BLOCK_BYTES", block_points * 8 * problem.dim)
        mid, dense = accuracy_midpoint(problem, broken), accuracy_dense(problem, broken, 5)
        assert np.isnan(mid) and np.isnan(dense)
        report = RunReport("euler", 20, None, OracleCounters(), 0.0, eps_target=1.0, accuracy_midpoint=mid)
        assert report.status == "accuracy-not-met"


class TestQueryProperty:
    """A query is built from the knots that bracket its lambda."""

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 12),
        p=st.integers(1, 4),
        u=st.floats(0.0, 1.0),
        at_knot=st.none() | st.integers(0, 12),
    )
    def test_queries_use_the_bracketing_knots(self, seed, K, p, u, at_knot):
        rng = np.random.default_rng(seed)
        lams = np.cumsum(rng.uniform(0.05, 1.0, K + 1))[::-1].copy()
        X = rng.normal(size=(K + 1, p))
        between = min(lams[-1] + u * (lams[0] - lams[-1]), lams[0])
        lam = lams[min(at_knot, K)] if at_knot is not None else between
        # x_k owns (lambda_{k+1}, lambda_k]; the bottom endpoint belongs to x_K
        owner = int(np.sum(lams >= lam)) - 1
        k = min(owner, K - 1)
        assert lams[k + 1] <= lam <= lams[k]
        q = PiecewiseLinearPath(lams, X, np.zeros(K + 1)).query(lam)
        alpha = (lam - lams[k + 1]) / (lams[k] - lams[k + 1])
        assert 0.0 <= alpha <= 1.0
        assert np.allclose(q, alpha * X[k] + (1.0 - alpha) * X[k + 1], rtol=1e-12, atol=1e-12)
        assert np.array_equal(PiecewiseConstantPath(lams, X, np.zeros(K + 1)).query(lam), X[owner])


class TestCsvExport:
    def test_round_trip(self, tmp_path, scalar_ridge):
        cfg = StepperConfig(method="euler", K=8, lambda_min=0.1, lambda_max=1.0)
        path, _ = run_path(scalar_ridge, np.array([0.5]), cfg)
        out = tmp_path / "path.csv"
        export_path_csv(path, str(out))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "x_1"]
        assert len(rows) == 1 + len(path.lams)
        lams = np.array([float(r[0]) for r in rows[1:]])
        xs = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(lams, path.lams)
        assert np.array_equal(xs, path.X.ravel())

    def test_header_names_every_coordinate(self, tmp_path, quad30, quad30_start):
        _, _, problem = quad30
        cfg = StepperConfig(method="euler", K=12, lambda_min=0.01, lambda_max=10.0)
        path, _ = run_path(problem, quad30_start, cfg)
        out = tmp_path / "path.csv"
        export_path_csv(path, str(out))
        header = open(out).readline().strip().split(",")
        assert header == ["lambda"] + [f"x_{j}" for j in range(1, 21)]
