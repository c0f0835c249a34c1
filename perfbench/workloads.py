"""The four benchmark workloads and the correctness gate for their cells.

A cell is one method at one eps (a doubling cell) or one method at one
fixed K.  Every workload runs its cells against the package's public
surface: doubling cells go through ``cli.run_doubling``, the doubling policy
that the ``pathode doubling`` and ``pathode sweep`` verbs run, with their
problem built by ``cli.build_problem`` from a data file and warm-started by
``cli.initialize_x0``; fixed-K cells call ``run_path`` and
``accuracy_midpoint`` as exported in ``pathode.__all__``.  Module
attributes are looked up at call time so the tracer's wrappers are seen.

The seed permutes the rows and the columns of each workload's fixed
instance.  Row order leaves the objective unchanged and a column permutation
permutes the path, so every seed is a different input with the same work:
the doubling policy jumps by 2x at data-dependent accuracy thresholds, and
independently drawn instances would measure those thresholds rather than
the code.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback

import numpy as np

from pathode import bounds, cli, datasets, paths, problems, steppers

STAGES = {"euler": 1, "trapezoid": 2, "rk4": 4}
# The CLI default warm-start tolerance min(eps/4, 1e-12) is below the float
# floor of damped Newton on the moment instance (the known Newton defect),
# so every CLI workload states its tolerance.
INIT_TOL = 1e-10
K0 = 16


@dataclasses.dataclass
class CellResult:
    """One cell's outcome: every attempt's report dict and the accepted path."""

    name: str
    eps: float
    reports: list
    path: object | None
    passed: bool
    error: str | None = None
    seconds: float = 0.0  # wall time of the cell, set by run_cells


@dataclasses.dataclass
class Setup:
    """Everything a workload builds before its first path step."""

    problem: object
    x0: np.ndarray
    cell_args: dict = dataclasses.field(default_factory=dict)
    meta: dict = dataclasses.field(default_factory=dict)
    info: dict = dataclasses.field(default_factory=dict)


def _permuted(seed: int, A: np.ndarray, b: np.ndarray):
    rng = np.random.Generator(np.random.Philox(seed))
    rows = rng.permutation(A.shape[0])
    cols = rng.permutation(A.shape[1])
    return A[rows][:, cols], b[rows]


def _failed(name, eps):
    """The result of a cell that raised, carrying the traceback."""
    return CellResult(name, eps, [], None, False, traceback.format_exc())


class Workload:
    """Base: sizes per scale, lambda range, and dense-check density."""

    name = ""
    lambda_min = 0.01
    lambda_max = 10.0
    SIZES: dict = {}

    def __init__(self, scale: str = "full"):
        self.size = self.SIZES[scale]
        self.dense_ppi = self.size["ppi"]

    def setup(self, seed: int, workdir: str) -> Setup:
        raise NotImplementedError

    def run_cells(self, s: Setup, before_cell) -> list[CellResult]:
        """Run every cell in order, calling before_cell() untimed before each."""
        raise NotImplementedError

    def hess_flops(self) -> int:
        """Computed flops of one Hessian assembly; 0 where it only copies or adds."""
        return 0


class QuadLadder(Workload):
    name = "quad-ladder"
    METHODS = ("euler", "trapezoid", "rk4")
    SIZES = {
        "full": {"K": 1600, "eps": 1e-5, "ppi": 100},
        "smoke": {"K": 50, "eps": 1e-2, "ppi": 10},
    }

    def setup(self, seed, workdir):
        A, b = datasets.generate_synthetic_quadratic(30, 20, 1)
        A, b = _permuted(seed, A, b)
        problem = problems.make_quadratic_ridge(A, b)
        x0 = problems.quadratic_path_point(A, b, self.lambda_max)
        return Setup(problem, x0, meta={"problem": "quadratic", "seed": seed})

    def run_cells(self, s, before_cell):
        K, eps = self.size["K"], self.size["eps"]
        out = []
        for method in self.METHODS:
            name = f"{method}@K={K}"
            before_cell()
            t0 = time.perf_counter()
            try:
                config = steppers.StepperConfig(
                    method=method, K=K, lambda_min=self.lambda_min, lambda_max=self.lambda_max
                )
                path, report = steppers.run_path(s.problem, s.x0, config)
                report.accuracy_midpoint = paths.accuracy_midpoint(s.problem, path, report.counters)
                report.eps_target = eps
                out.append(CellResult(name, eps, [report.as_dict()], path, True))
            except Exception:
                out.append(_failed(name, eps))
            out[-1].seconds = time.perf_counter() - t0
        return out


class CliDoubling(Workload):
    """Doubling cells run through the CLI's own doubling policy.

    cells() lists (method, eps) in run order; a method's passing K carries
    into its next eps as ``pathode sweep`` does.
    """

    problem_flag = ""

    def cells(self) -> list[tuple[str, float]]:
        raise NotImplementedError

    def write_data(self, seed: int, workdir: str) -> str:
        raise NotImplementedError

    def certificate(self, problem, seed: int) -> dict:
        return {}

    def setup(self, seed, workdir):
        data = self.write_data(seed, workdir)
        base = [
            "doubling", "--problem", self.problem_flag, "--data", data, "--seed", str(seed),
            "--lambda-min", repr(self.lambda_min), "--lambda-max", repr(self.lambda_max),
            "--init-tol", repr(INIT_TOL), "--K0", str(K0),
        ]  # fmt: skip
        parser = cli.build_parser()
        cell_args = {
            (method, eps): parser.parse_args(base + ["--method", method, "--eps", repr(eps)])
            for method, eps in self.cells()
        }
        first = next(iter(cell_args.values()))
        problem, meta = cli.build_problem(first)
        x0 = cli.initialize_x0(problem, first, min(eps for _, eps in self.cells()))
        info = self.certificate(problem, seed)
        return Setup(problem, x0, cell_args, meta, info)

    def run_cells(self, s, before_cell):
        carried: dict[str, int] = {}
        out = []
        for (method, eps), args in s.cell_args.items():
            name = f"{method}@eps={eps:g}"
            before_cell()
            K0_cell = carried.get(method, args.K0)
            t0 = time.perf_counter()
            try:
                K, path, reports, passed = cli.run_doubling(
                    s.problem, s.meta, method, eps, K0_cell, args.max_doublings, args, s.x0
                )
                payload = [r.as_dict() for r in reports]
            except Exception:
                out.append(_failed(name, eps))
            else:
                if passed:
                    carried[method] = max(K0_cell, K)
                error = None if passed else f"doubling cap reached at K = {K}"
                out.append(CellResult(name, eps, payload, path, passed, error))
            out[-1].seconds = time.perf_counter() - t0
        return out


class Logistic(CliDoubling):
    """Logistic workloads: data written as the CLI's labelled CSV."""

    problem_flag = "logistic"
    feature_scale = 1.0

    def write_data(self, seed, workdir):
        X, y = datasets.generate_synthetic_logistic(self.size["n"], self.size["p"], 11)
        X, y = _permuted(seed, X * self.feature_scale, y)
        out = os.path.join(workdir, f"{self.name}.csv")
        datasets.save_csv_dataset(X, y, out)
        return out

    def hess_flops(self) -> int:
        """Computed flops of one logistic Hessian assembly, 2 n p^2."""
        return 2 * self.size["n"] * self.size["p"] ** 2


class LogisticSweep(Logistic):
    name = "logistic-sweep"
    feature_scale = 16.0
    lambda_min, lambda_max = 1e-2, 1e2
    SIZES = {
        "full": {"n": 200, "p": 30, "eps": (1e-2, 1e-3), "grid_eps": 1e-2, "ppi": 20},
        "smoke": {"n": 60, "p": 8, "eps": (1e-1, 1e-2), "grid_eps": 1e-1, "ppi": 5},
    }

    def cells(self):
        out = []
        for eps in self.size["eps"]:
            out += [("trapezoid", eps), ("euler", eps)]
            if eps >= self.size["grid_eps"]:
                out.append(("grid-newton", eps))
        return out

    def certificate(self, problem, seed):
        """Step counts the theory certifies, from sampled constants."""
        lam_range = (self.lambda_min, self.lambda_max)
        constants = bounds.estimate_constants(problem, lam_range, 64, seed)
        f_gap = bounds.estimate_f_gap(problem, np.zeros(problem.dim), 64, seed)
        return {
            f"K_certified@eps={eps:g}": {
                "euler": bounds.k_euler(constants, eps, f_gap).K_required,
                "trapezoid": bounds.k_trapezoid(constants, eps).K_required,
            }
            for eps in self.size["eps"]
        }


class LogisticLarge(Logistic):
    name = "logistic-large"
    SIZES = {
        "full": {"n": 1000, "p": 250, "eps": 1e-3, "ppi": 25},
        "smoke": {"n": 120, "p": 20, "eps": 1e-2, "ppi": 5},
    }

    def cells(self):
        return [(m, self.size["eps"]) for m in ("euler", "euler-cg", "trapezoid-cg")]


class MomentEntropy(CliDoubling):
    name = "moment-entropy"
    problem_flag = "moment"
    lambda_min, lambda_max = 1e-2, 1e2
    SIZES = {
        "full": {"p": 200, "eps": 1e-5, "ppi": 50},
        "smoke": {"p": 12, "eps": 1e-3, "ppi": 5},
    }

    def cells(self):
        return [(m, self.size["eps"]) for m in ("trapezoid", "trapezoid-cg")]

    def write_data(self, seed, workdir):
        w, x_true = problems.generate_synthetic_moment_data(self.size["p"], 7)
        # the last atom closes the simplex and stays last
        order = np.random.Generator(np.random.Philox(seed)).permutation(self.size["p"])
        order = np.append(order, self.size["p"])
        out = os.path.join(workdir, "moment-entropy.json")
        datasets.save_moment_json(w[order], x_true[order], 5, out)
        return out


WORKLOADS = {w.name: w for w in (QuadLadder, LogisticSweep, LogisticLarge, MomentEntropy)}


def check_cell(cell: CellResult, problem, eps: float | None = None) -> list[str]:
    """Reasons the cell fails the gate; empty when it passes.

    A cell fails if it raised or hit the doubling cap, if its accepted path
    has a midpoint accuracy above eps (reported and recomputed here), if an
    ODE attempt breaks the 3K + 2 metric-evaluation contract or an exact one
    the K / 2K / 4K Hessian-build contract, or if a knot leaves the domain.
    """
    eps = cell.eps if eps is None else eps
    if cell.error is not None:
        return [cell.error.strip().splitlines()[-1]]
    reasons = []
    for rep in cell.reports:
        base = rep["method"].removesuffix("-cg")
        if base not in STAGES:
            continue
        K, counters = rep["K"], rep["counters"]
        if counters["metric_evals"] != 3 * K + 2:
            reasons.append(f"K={K}: metric_evals {counters['metric_evals']} != 3K+2")
        if not rep["method"].endswith("-cg") and counters["hess_builds"] != STAGES[base] * K:
            reasons.append(f"K={K}: hess_builds {counters['hess_builds']} != {STAGES[base]}K")
    reported = cell.reports[-1]["accuracy_midpoint"]
    if not reported <= eps:
        reasons.append(f"reported accuracy {reported:.3g} > eps {eps:g}")
    recomputed = paths.accuracy_midpoint(problem, cell.path)
    if not recomputed <= eps:
        reasons.append(f"recomputed accuracy {recomputed:.3g} > eps {eps:g}")
    knots = cell.path.query_batch(cell.path.lams)
    outside = sum(not problem.domain_check(x) for x in knots)
    if outside:
        reasons.append(f"{outside} knots outside the domain")
    return reasons
