"""Path containers, interpolation, and accuracy metrics.

A discrete run produces K + 1 knots, stored as three arrays: strictly
decreasing lams, the iterates X (one row per knot) and their residuals.
Between knots the continuous surrogate is piecewise linear in lambda for
ODE methods and piecewise constant for grid search.  Accuracy is always the
gradient-norm residual ||grad F_lambda(x(lambda))||, computed for a batch of
points by `residuals` and charged to a metric counter separate from solver
work.  Both accuracy metrics sweep the path in blocks of whole intervals: a
linear path's points, in a block or from query_batch, come from one stacked
matmul of the weights [alpha, 1 - alpha] against the intervals' end knots,
every row norm from one einsum, and a NaN residual anywhere makes the metric
NaN, so it never meets a target.
"""

from __future__ import annotations

import numpy as np

from .problems import ProblemOracle
from .reports import OracleCounters, write_csv

DENSE_BLOCK_BYTES = 131072  # per (points x dim) array of a residual sweep: glibc's mmap threshold


class _PathBase:
    def __init__(self, lams: np.ndarray, X: np.ndarray, residuals: np.ndarray):
        lams = np.asarray(lams, dtype=float)
        if len(lams) < 2:
            raise ValueError("a path needs at least two knots")
        if not np.all(np.diff(lams) < 0.0):
            raise ValueError("knot lambdas must be strictly decreasing")
        if lams[-1] <= 0.0:
            raise ValueError("lambdas must stay positive")
        self.lams = lams
        self.X = np.asarray(X, dtype=float)
        self.residuals = np.asarray(residuals, dtype=float)
        if self.X.ndim != 2 or len(self.X) != len(lams) or self.residuals.shape != lams.shape:
            raise ValueError("lams, X and residuals need one entry (X one row) per knot")
        self._asc = lams[::-1]

    @property
    def lambda_max(self) -> float:
        return float(self.lams[0])

    @property
    def lambda_min(self) -> float:
        return float(self.lams[-1])

    def _check_range(self, lam: np.ndarray) -> None:
        if np.any(lam < self.lambda_min) or np.any(lam > self.lambda_max):
            raise ValueError(
                f"lambda outside path range [{self.lambda_min}, {self.lambda_max}]"
            )

    def _held_knot(self, lam: np.ndarray) -> np.ndarray:
        # index k with lambda in (lambda_{k+1}, lambda_k], via the ascending view;
        # the bottom endpoint maps to the last knot
        return len(self.lams) - 1 - np.searchsorted(self._asc, lam, side="left")

    def query(self, lam: float) -> np.ndarray:
        """The path surrogate at one lambda (range-checked)."""
        return self.query_batch(np.array([lam], dtype=float))[0]

    def query_batch(self, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def block_residuals(self, problem: ProblemOracle, start: int, lam: np.ndarray) -> np.ndarray:
        """Residuals at lam[i, j], a point of interval start + i, without metric charge."""
        raise NotImplementedError


class PiecewiseLinearPath(_PathBase):
    """Linear-in-lambda interpolation between consecutive knots."""

    def _interpolate(self, lam: np.ndarray, k, k1) -> np.ndarray:
        # points at lam[..., t] between knots k and k1 (index arrays, or slices for a block) as one
        # stacked matmul, weights [alpha, 1 - alpha] @ end knots; the weights [1, 0] give x_k exactly
        hi, lo = self.lams[k][..., None], self.lams[k1][..., None]
        alpha = (lam - lo) / (hi - lo)
        ends = np.stack([self.X[k], self.X[k1]], axis=-2)
        return np.stack([alpha, 1.0 - alpha], axis=-1) @ ends

    def query_batch(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        self._check_range(lam)
        k = np.minimum(self._held_knot(lam), len(self.lams) - 2)
        return self._interpolate(lam[..., None], k, k + 1)[..., 0, :]

    def block_residuals(self, problem: ProblemOracle, start: int, lam: np.ndarray) -> np.ndarray:
        stop = start + len(lam)
        X = self._interpolate(lam, np.s_[start:stop], np.s_[start + 1 : stop + 1])
        return residuals(problem, X.reshape(lam.size, -1), lam.ravel())


class PiecewiseConstantPath(_PathBase):
    """Holds each knot's iterate across the interval below it (grid search)."""

    def query_batch(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        self._check_range(lam)
        return self.X[self._held_knot(lam)]

    def block_residuals(self, problem: ProblemOracle, start: int, lam: np.ndarray) -> np.ndarray:
        # every point sits on a knot: one gradient per knot, then one row per lambda
        knots = self.X[start : start + lam.shape[0] + 1]
        lam = lam.ravel()
        k = self._held_knot(lam) - start
        return _row_norms(problem.f_grad(knots)[k] + lam[:, None] * problem.omega_grad(knots)[k])


def residuals(
    problem: ProblemOracle,
    X: np.ndarray,
    lams: np.ndarray,
    counters: OracleCounters | None = None,
) -> np.ndarray:
    """||grad f(x_i) + lam_i grad Omega(x_i)|| for each row x_i of X, charged to metric_evals."""
    if counters is not None:
        counters.metric_evals += len(lams)
    return _row_norms(problem.total_grad(X, lams[:, None]))


def _row_norms(G: np.ndarray) -> np.ndarray:
    # one kernel for the row sums of squares; like np.linalg.norm it does not rescale
    return np.sqrt(np.einsum("ij,ij->i", G, G))


def _max_over_intervals(
    problem: ProblemOracle, path: _PathBase, t: np.ndarray, counters: OracleCounters | None
) -> float:
    """Max residual at lambda_k + t (lambda_{k+1} - lambda_k) for every interval k and t.

    Evaluated in blocks of whole intervals whose (points x dim) arrays fit in
    DENSE_BLOCK_BYTES; an interval with more points is split across blocks.
    A NaN residual in any block makes the maximum NaN.  t ascends in [0, 1].
    """
    lams = path.lams
    n_int = len(lams) - 1
    block_points = max(1, DENSE_BLOCK_BYTES // (path.X.itemsize * path.X.shape[1]))
    block_intervals = max(1, block_points // len(t))
    worst = 0.0
    for start in range(0, n_int, block_intervals):
        stop = min(start + block_intervals, n_int)
        hi, lo = lams[start:stop, None], lams[start + 1 : stop + 1, None]
        for col in range(0, len(t), block_points):
            ts = t[col : col + block_points]
            grid = hi + (lo - hi) * ts
            if ts[-1] == 1.0:
                grid[:, -1] = lo[:, 0]  # lambda_{k+1} itself: lo - hi rounds once lo < hi / 2
            worst = float(np.maximum(worst, np.max(path.block_residuals(problem, start, grid))))
            if counters is not None:
                counters.metric_evals += grid.size
    return worst


def accuracy_midpoint(
    problem: ProblemOracle,
    path: _PathBase,
    counters: OracleCounters | None = None,
) -> float:
    """Max residual over all knots and arithmetic midpoints of knot intervals."""
    worst = _max_over_intervals(problem, path, np.array([0.0, 0.5]), counters)
    last = residuals(problem, path.X[-1:], path.lams[-1:], counters)
    return float(np.maximum(worst, last[0]))


def accuracy_dense(
    problem: ProblemOracle,
    path: _PathBase,
    points_per_interval: int,
    counters: OracleCounters | None = None,
) -> float:
    """Max residual over a uniform lambda grid of the stated density per interval.

    Each interval contributes points_per_interval equispaced points
    including both endpoints (so points_per_interval >= 2).
    """
    if points_per_interval < 2:
        raise ValueError("points_per_interval must be at least 2")
    return _max_over_intervals(problem, path, np.linspace(0.0, 1.0, points_per_interval), counters)


def export_path_csv(path: _PathBase, file_path: str) -> None:
    """Write knots as CSV with header lambda,x_1,...,x_p at 17 significant digits, atomically."""
    p = path.X.shape[1]
    header = "lambda," + ",".join(f"x_{j}" for j in range(1, p + 1))
    write_csv(file_path, header, [path.lams, path.X], ["%.17g"] * (p + 1))
