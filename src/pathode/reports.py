"""Oracle-call counters and the per-run report record shared by all solvers.

Counters are owned by a single run: solvers increment them through the
direction oracles and inner loops, while accuracy evaluators charge a
separate metric counter so solver complexity stays comparable across
methods.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import uuid
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

SCHEMA_VERSION = 2


@dataclass
class OracleCounters:
    """Tallies of every oracle call made by one run.

    grad_f / grad_omega count gradient evaluations performed for solver
    work (directions, inner stopping rules).  hess_builds counts Hessian
    builds, one per exact direction or Newton step, each solved once by the
    problem's Hessian handle.  hessvec counts
    Hessian-vector products (CG work).  metric_evals counts residual
    evaluations made for accuracy reporting, which are deliberately kept
    out of the solver budget.
    """

    grad_f: int = 0
    grad_omega: int = 0
    hess_builds: int = 0
    hessvec: int = 0
    cg_iters_total: int = 0
    metric_evals: int = 0


@dataclass
class RunReport:
    """Summary of one solver run, serializable to the versioned JSON schema."""

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
    inner_iterations: list[int] | None = None

    @property
    def status(self) -> str:
        """accuracy-not-met when eps_target is set and accuracy_midpoint is not <= it, else ok."""
        acc, eps = self.accuracy_midpoint, self.eps_target
        return "ok" if eps is None or (acc is not None and acc <= eps) else "accuracy-not-met"

    def as_dict(self) -> dict:
        # shallow, unlike asdict, which would copy a grid run's K inner_iterations one by one
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(counters=asdict(self.counters), schema_version=SCHEMA_VERSION, status=self.status)
        if out["accuracy_midpoint"] is not None and not math.isfinite(out["accuracy_midpoint"]):
            out["accuracy_midpoint"] = None  # JSON has no NaN or Infinity
        return out

    def to_json(self) -> str:
        return json_text(self.as_dict())


def json_text(payload) -> str:
    """The one JSON text format of reports and data files: sorted keys, indent 2, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_atomic(path: str, write) -> None:
    """Write path via a temporary file and rename; write(fh) fills the open text file.

    write_csv streams a CSV into fh a block of rows at a time, so a CSV is
    never held in memory as one string.  A symlink is followed, so the link
    stays and its target gets the text; a target that is not a regular file (a
    device, a FIFO) is written in place, as a rename would replace the node.
    The temporary file has a unique name next to the target and is opened
    exclusively, so no other file is touched and it gets the mode a plain
    open(path, "w") gives a new file.  A failed write or rename leaves the old
    file and no temporary file, and its OSError names the path given, never
    the temporary file.
    """
    target, path = path, os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise


CSV_BLOCK_ROWS = 64


def write_csv(path: str, header: str, columns: Sequence[np.ndarray], fmt: Sequence[str]) -> None:
    """Write a header line and the rows of the stacked columns as a CSV, atomically.

    columns are arrays with one entry (1-d) or one row (2-d) per CSV row, and fmt
    holds one % format per CSV column; the bytes are np.savetxt's with delimiter ","
    and comments "".  One % operation formats a block of CSV_BLOCK_ROWS rows from
    Python floats, so the writer holds one block's text, never the whole file, and
    makes no numpy scalar per field.
    """
    line = ",".join(fmt) + "\n"

    def write(fh) -> None:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = np.column_stack([c[start : start + CSV_BLOCK_ROWS] for c in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))

    write_atomic(path, write)
