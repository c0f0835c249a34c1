"""Oracle-call counters and the per-run report record shared by all solvers.

Counters are owned by a single run: solvers increment them through the
direction oracles and inner loops, while accuracy evaluators charge a
separate metric counter so solver complexity stays comparable across
methods.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


@dataclass
class OracleCounters:
    """Tallies of every oracle call made by one run.

    grad_f / grad_omega count gradient evaluations performed for solver
    work (directions, inner stopping rules).  hess_builds counts Hessian
    builds, one per exact direction or Newton step however the problem's
    Hessian handle solves it.  hessvec counts
    Hessian-vector products (CG work).  metric_evals counts residual
    evaluations made for accuracy reporting, which are deliberately kept
    out of the solver budget.
    """

    grad_f: int = 0
    grad_omega: int = 0
    hess_builds: int = 0
    hessvec: int = 0
    linear_solves: int = 0
    cg_iters_total: int = 0
    metric_evals: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def check_nonnegative(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"counter {name} is negative: {value}")


@dataclass
class RunReport:
    """Summary of one solver run, serializable to the versioned JSON schema.

    ``step_diagnostics`` holds in-memory per-step records when the run was
    configured to collect them; it is not serialized (the CLI writes the
    records to ``diagnostics_path`` instead).
    """

    method: str
    K: int
    h: float | None
    counters: OracleCounters
    wall_time_seconds: float
    eps_target: float | None = None
    delta: float | None = None
    accuracy_midpoint: float | None = None
    diagnostics_path: str | None = None
    lambda_min: float | None = None
    lambda_max: float | None = None
    problem: str | None = None
    seed: int | None = None
    status: str = "ok"
    inner_iterations: list[int] | None = None
    step_diagnostics: list = field(default_factory=list, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "K": int(self.K),
            "h": None if self.h is None else float(self.h),
            "eps_target": None if self.eps_target is None else float(self.eps_target),
            "delta": None if self.delta is None else float(self.delta),
            "accuracy_midpoint": (
                None if self.accuracy_midpoint is None else float(self.accuracy_midpoint)
            ),
            "counters": self.counters.as_dict(),
            "wall_time_seconds": float(self.wall_time_seconds),
            "diagnostics_path": self.diagnostics_path,
            "lambda_min": None if self.lambda_min is None else float(self.lambda_min),
            "lambda_max": None if self.lambda_max is None else float(self.lambda_max),
            "problem": self.problem,
            "seed": None if self.seed is None else int(self.seed),
            "status": self.status,
            "inner_iterations": (
                None if self.inner_iterations is None else [int(n) for n in self.inner_iterations]
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def write_json_atomic(text: str, path: str) -> None:
    """Write text to path via a temporary file and rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class Stopwatch:
    """Minimal wall-clock timer."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        return False
