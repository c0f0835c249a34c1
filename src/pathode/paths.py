"""Path containers, interpolation, and accuracy metrics.

A discrete run produces K + 1 knots, stored as three arrays: strictly
decreasing lams, the iterates X (one row per knot) and their residuals.
Between knots the continuous surrogate is piecewise linear in lambda for
ODE methods and piecewise constant for grid search.  Accuracy is always the
gradient-norm residual ||grad F_lambda(x(lambda))||, computed for a batch of
points by `residuals` and charged to a metric counter separate from solver
work.
"""

from __future__ import annotations

import numpy as np

from .problems import ProblemOracle
from .reports import OracleCounters

DENSE_CHUNK = 262144  # residual evaluations per batched block
DENSE_BLOCK_BYTES = 131072  # per (points x dim) array of the dense check: glibc's mmap threshold


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

    def _owning_knot(self, lam: np.ndarray) -> np.ndarray:
        # index k with lambda in (lambda_{k+1}, lambda_k], via the ascending view
        j = np.searchsorted(self._asc, lam, side="left")
        j = np.clip(j, 1, len(self.lams) - 1)
        return len(self.lams) - 1 - j

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

    def query_batch(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        self._check_range(lam)
        k = self._owning_knot(lam)
        lam_k = self.lams[k]
        lam_k1 = self.lams[k + 1]
        alpha = (lam - lam_k1) / (lam_k - lam_k1)
        return alpha[:, None] * self.X[k] + (1.0 - alpha)[:, None] * self.X[k + 1]

    def block_residuals(self, problem: ProblemOracle, start: int, lam: np.ndarray) -> np.ndarray:
        # query_batch's weights, broadcast over each interval's two knots
        stop = start + len(lam)
        hi, lo = self.lams[start:stop, None], self.lams[start + 1 : stop + 1, None]
        alpha = ((lam - lo) / (hi - lo))[:, :, None]
        X = alpha * self.X[start:stop, None] + (1.0 - alpha) * self.X[start + 1 : stop + 1, None]
        return residuals(problem, X.reshape(lam.size, -1), lam.ravel())


class PiecewiseConstantPath(_PathBase):
    """Holds each knot's iterate across the interval below it (grid search)."""

    def query_batch(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        self._check_range(lam)
        # x_k owns (lambda_{k+1}, lambda_k]; the bottom endpoint maps to x_K
        j = np.searchsorted(self._asc, lam, side="left")
        return self.X[len(self.lams) - 1 - j]

    def block_residuals(self, problem: ProblemOracle, start: int, lam: np.ndarray) -> np.ndarray:
        # every point sits on a knot: one gradient per knot, then one row per lambda
        knots = self.X[start : start + lam.shape[0] + 1]
        lam = lam.ravel()
        k = len(self.lams) - 1 - np.searchsorted(self._asc, lam, side="left") - start
        G = problem.f_grad_batch(knots)[k] + lam[:, None] * problem.omega_grad_batch(knots)[k]
        return np.linalg.norm(G, axis=1)


def residuals(
    problem: ProblemOracle,
    X: np.ndarray,
    lams: np.ndarray,
    counters: OracleCounters | None = None,
) -> np.ndarray:
    """||grad f(x_i) + lam_i grad Omega(x_i)|| for each row x_i of X, charged to metric_evals."""
    G = problem.f_grad_batch(X) + lams[:, None] * problem.omega_grad_batch(X)
    if counters is not None:
        counters.metric_evals += len(lams)
    return np.linalg.norm(G, axis=1)


def accuracy_midpoint(
    problem: ProblemOracle,
    path: _PathBase,
    counters: OracleCounters | None = None,
) -> float:
    """Max residual over all knots and arithmetic midpoints of knot intervals."""
    lams = path.lams
    mids = 0.5 * (lams[:-1] + lams[1:])
    eval_lams = np.concatenate([lams, mids])
    worst = 0.0
    for start in range(0, len(eval_lams), DENSE_CHUNK):
        chunk = eval_lams[start : start + DENSE_CHUNK]
        res = residuals(problem, path.query_batch(chunk), chunk, counters)
        worst = max(worst, float(np.max(res)))
    return worst


def accuracy_dense(
    problem: ProblemOracle,
    path: _PathBase,
    points_per_interval: int,
    counters: OracleCounters | None = None,
) -> float:
    """Max residual over a uniform lambda grid of the stated density per interval.

    Each interval contributes points_per_interval equispaced points
    including both endpoints (so points_per_interval >= 2), evaluated in
    blocks of whole intervals whose (points x dim) arrays fit in
    DENSE_BLOCK_BYTES; an interval with more points is split across blocks.
    """
    if points_per_interval < 2:
        raise ValueError("points_per_interval must be at least 2")
    lams = path.lams
    n_int = len(lams) - 1
    t = np.linspace(0.0, 1.0, points_per_interval)
    block_points = max(1, DENSE_BLOCK_BYTES // (path.X.itemsize * path.X.shape[1]))
    block_intervals = max(1, block_points // points_per_interval)
    worst = 0.0
    for start in range(0, n_int, block_intervals):
        stop = min(start + block_intervals, n_int)
        hi, lo = lams[start:stop, None], lams[start + 1 : stop + 1, None]
        for col in range(0, points_per_interval, block_points):
            grid = hi + (lo - hi) * t[None, col : col + block_points]
            worst = max(worst, float(np.max(path.block_residuals(problem, start, grid))))
            if counters is not None:
                counters.metric_evals += grid.size
    return worst


def export_path_csv(path: _PathBase, file_path: str) -> None:
    """Write knots as CSV with header lambda,x_1,...,x_p at 17 significant digits."""
    header = "lambda," + ",".join(f"x_{j}" for j in range(1, path.X.shape[1] + 1))
    with open(file_path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lam, x in zip(path.lams, path.X):
            fh.write(",".join(format(v, ".17g") for v in (lam, *x)) + "\n")
