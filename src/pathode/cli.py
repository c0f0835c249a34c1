"""Benchmark command line: run, doubling, theory, sweep, gen-moment, gen-logistic.

Exit codes: 0 success, 2 bad arguments or malformed input data, 3 solver
failure (including a doubling loop that exhausts its cap) or out of
memory.  Reports are JSON documents matching report_schema.json; sweeps
emit one CSV row per (method, eps) pair.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import bounds, datasets, gridsearch, paths, problems, steppers
from .linsolve import NotPositiveDefiniteError
from .reports import OracleCounters, json_text, write_json_atomic

CG_METHODS = tuple(f"{m}-cg" for m in steppers.METHODS)
ODE_METHODS = steppers.METHODS + CG_METHODS
GRID_METHODS = tuple(f"grid-{s}" for s in gridsearch.INNER_SOLVERS)
ALL_METHODS = ODE_METHODS + GRID_METHODS
PROBLEMS = ("quadratic", "logistic", "logistic-reweighted", "moment")
# what exits 3, and what ends a doubling loop after its finished attempts
EXIT_3_FAILURES = (
    steppers.PathRunError, steppers.MaxIterationsError, NotPositiveDefiniteError, MemoryError
)

SWEEP_COLUMNS = (
    "method", "eps", "status", "K", "accuracy_midpoint",
    *(f.name for f in fields(OracleCounters)),
    "wall_time_seconds", "note",
)  # fmt: skip


def _parse_synthetic(spec: str, keys: tuple[str, ...]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad --synthetic entry {item!r}; expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown --synthetic key {key!r}; expected one of {keys}")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"bad --synthetic value {item!r}: {exc}") from exc
    return out


def _synthetic_spec(args) -> dict[str, int]:
    """The --synthetic keys of args.problem; {} with --data, which --synthetic may not join."""
    if args.data and args.synthetic is not None:
        raise ValueError("--synthetic is not read with --data")
    keys = ("p", "seed", "n_moments") if args.problem == "moment" else ("n", "p", "seed")
    return {} if args.data else _parse_synthetic(args.synthetic or "", keys)


def build_problem(args) -> tuple[problems.ProblemOracle, dict]:
    """Construct the problem oracle named by --problem from --data or --synthetic."""
    name = args.problem
    if name == "quadratic" and args.data:
        raise ValueError(
            "quadratic instances are synthetic-only (the CSV contract is for "
            "labelled classification data); use --synthetic n=..,p=..,seed=.."
        )
    if args.standardize and name in ("quadratic", "moment"):
        raise ValueError(f"--standardize rescales logistic features; {name} has none")
    spec = _synthetic_spec(args)
    meta = {"seed": spec.get("seed", args.seed or 0)}  # --seed defaults to None
    if name == "moment":
        if args.data:
            w, x_true, n_moments = datasets.load_moment_json(args.data)
        else:
            n_moments = spec.get("n_moments", 5)
            w, x_true = problems.generate_synthetic_moment_data(spec.get("p", 50), meta["seed"])
        A_red, b_red = problems.build_moment_problem(w, x_true, n_moments)
        return problems.make_moment_matching(A_red, b_red), meta
    if name == "quadratic":
        A, b = datasets.generate_synthetic_quadratic(spec.get("n", 30), spec.get("p", 20), meta["seed"])
        return problems.make_quadratic_ridge(A, b), meta
    # logistic families
    if args.data:
        features, labels = datasets.load_csv_dataset(args.data)
    else:
        features, labels = datasets.generate_synthetic_logistic(
            spec.get("n", 569), spec.get("p", 30), meta["seed"]
        )
    if args.standardize:
        features = datasets.standardize_features(features)
    if name == "logistic":
        return problems.make_logistic_ridge(features, labels), meta
    return problems.make_logistic_reweighted(features, labels), meta


def initialize_x0(problem, args, eps: float | None) -> np.ndarray:
    """Start at lambda_max per --init (default damped Newton), passed through checked_start."""
    if args.init == "omega":
        x0 = steppers.initialize_from_omega(problem, args.lambda_max)[0]
    else:
        default_tol = 1e-12 if eps is None else min(eps / 4.0, 1e-12)
        tol = default_tol if args.init_tol is None else args.init_tol
        x0 = steppers.initialize_by_newton(problem, args.lambda_max, tol)
    return problem.checked_start(x0, args.allow_degenerate)


def _tolerance(method: str, args, eps: float | None) -> float:
    """A grid method's inner_tol or a CG method's delta: its flag, else (or auto) eps/2 or eps/4."""
    grid = method in GRID_METHODS
    flag, divisor = (args.inner_tol, 2.0) if grid else (args.delta, 4.0)
    if flag not in (None, "auto"):
        return flag
    if eps is None:
        raise ValueError(
            "grid methods need --eps or --inner-tol for the inner stopping rule"
            if grid else "CG methods need --eps or --delta (delta defaults to eps/4)"
        )
    return eps / divisor


def _check_unread_flags(args, methods) -> None:
    """Reject, before any work, a method, data-source or seed flag the run never reads."""
    if "seed" in _synthetic_spec(args) and args.seed is not None:  # --data with --synthetic too
        raise ValueError("--seed is not read when --synthetic names a seed")
    readers = {
        "--delta": (args.delta, CG_METHODS),
        "--inner-tol": (args.inner_tol, GRID_METHODS),
        "--diag-out": (vars(args).get("diag_out"), ODE_METHODS),  # a run flag only
    }
    for flag, (value, read_by) in readers.items():
        if value is not None and not any(m in read_by for m in methods):
            raise ValueError(f"{flag} is not read by {' or '.join(methods)}")
    if args.init == "omega" and args.init_tol is not None:
        raise ValueError("--init-tol is read by --init newton, not by --init omega")


def min_feasible_K(method: str, lambda_min: float, lambda_max: float) -> int:
    """Smallest K the method's schedule admits for this lambda range."""
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    problems.check_lambda_range(lambda_min, lambda_max)
    if method in GRID_METHODS:
        return 2
    K = 1
    while True:
        try:
            steppers.stepsize(method.removesuffix("-cg"), K, lambda_min, lambda_max)
            return K
        except ValueError:
            K += 1


def run_one(problem, meta, method, K, args, eps: float | None, x0, steps=None) -> tuple:
    """One run of any method at a fixed K, with the midpoint accuracy evaluated."""
    if method in GRID_METHODS:
        solve = gridsearch.solve_grid
        config = gridsearch.GridSearchConfig(
            num_points=K,
            inner_solver=method.removeprefix("grid-"),
            inner_tol=_tolerance(method, args, eps),
            lambda_min=args.lambda_min,
            lambda_max=args.lambda_max,
        )
    else:
        solve = functools.partial(steppers.run_path, steps=steps)
        config = steppers.StepperConfig(
            method=method.removesuffix("-cg"),
            K=K,
            lambda_min=args.lambda_min,
            lambda_max=args.lambda_max,
            delta=_tolerance(method, args, eps) if method.endswith("-cg") else None,
        )
    path, report = solve(problem, x0, config, allow_degenerate=args.allow_degenerate)
    report.accuracy_midpoint = paths.accuracy_midpoint(problem, path, report.counters)
    report.eps_target = eps
    report.seed = meta.get("seed")
    return path, report


def run_doubling(problem, meta, method, eps, K0, max_doublings, args, x0, reports=None):
    """K0, 2 K0, 4 K0, ... until the midpoint accuracy reaches eps.

    K0 is raised to the method's smallest feasible K; None starts there.
    Returns (K_final, path, reports, passed); K_final is the last K attempted.
    Each finished attempt's report is appended to reports (a new list when
    None) as it finishes, so a caller that passes its own list keeps them
    when a later attempt raises.
    """
    K = max(K0 or 0, min_feasible_K(method, args.lambda_min, args.lambda_max))
    reports = [] if reports is None else reports
    for attempt in range(max_doublings + 1):
        path, report = run_one(problem, meta, method, K, args, eps, x0)
        reports.append(report)
        if report.accuracy_midpoint <= eps:
            return K, path, reports, True
        if attempt < max_doublings:
            K *= 2
    return K, path, reports, False


def _write_or_print(text: str, out: str | None, label: str) -> None:
    if out:
        write_json_atomic(text, out)
        print(f"wrote {label} to {out}")
    else:
        sys.stdout.write(text)


def _write_diagnostics(lams, residuals, steps, diag_out: str) -> None:
    """One JSON line per step record: its knot (lams[k], residuals[k]) and its stages' scalars."""
    lines = []
    for k, d in enumerate(steps):
        line = dict(
            k=k, lambda_k=float(lams[k]), residual_r_k=float(residuals[k]),
            stage_lambdas=d.stage_lambdas, domain_backoffs=d.domain_backoffs,
            direction_norms=[float(np.linalg.norm(r.direction)) for r in d.stages],
            cg_iterations=[r.inner_iterations for r in d.stages],
            direction_residuals=[r.residual_norm for r in d.stages],
            cg_initial_residuals=[r.initial_residual for r in d.stages],
        )
        lines.append(json.dumps(line, sort_keys=True))
    write_json_atomic("\n".join(lines) + ("\n" if lines else ""), diag_out)


def cmd_run(args) -> int:
    """A run that fails at step k still writes the k finished steps to --diag-out."""
    _check_unread_flags(args, [args.method])
    problem, meta = build_problem(args)
    x0 = initialize_x0(problem, args, args.eps)
    steps = [] if args.diag_out else None
    try:
        path, report = run_one(problem, meta, args.method, args.K, args, args.eps, x0, steps)
    except steppers.PathRunError as exc:
        if steps is not None:
            _write_diagnostics(exc.lams, exc.residuals, steps, args.diag_out)
        raise
    if steps is not None:
        _write_diagnostics(path.lams, path.residuals, steps, args.diag_out)
        report.diagnostics_path = args.diag_out
    if args.path_out:
        paths.export_path_csv(path, args.path_out)
    _write_or_print(report.to_json(), args.out, "report")
    return 0


def cmd_doubling(args) -> int:
    """An attempt after the first that fails (EXIT_3_FAILURES) ends the loop: the
    summary lists the finished attempts, not passed, and main exits 3."""
    _check_unread_flags(args, [args.method])
    problem, meta = build_problem(args)
    x0 = initialize_x0(problem, args, args.eps)
    reports, failure = [], None
    try:
        K, path, _, passed = run_doubling(
            problem, meta, args.method, args.eps, args.K0, args.max_doublings, args, x0, reports
        )
    except EXIT_3_FAILURES as exc:
        if not reports:
            raise
        K, passed, failure = reports[-1].K, False, exc
    payload = {
        "method": args.method,
        "eps": args.eps,
        "K0": reports[0].K,
        "K_final": K,
        "passed": passed,
        "reports": [r.as_dict() for r in reports],
    }
    _write_or_print(json_text(payload), args.out, "doubling summary")
    if failure is not None:
        raise failure
    if args.path_out:
        paths.export_path_csv(path, args.path_out)
    if not passed:
        print(f"doubling cap reached without Ahat <= {args.eps:g}", file=sys.stderr)
        return 3
    return 0


def _constants_from_args(args) -> tuple[problems.TheoryConstants, float]:
    """The constants --mu --sigma --L --G as given, or estimated from a problem by --estimate.

    Each mode rejects the other's flags before any work: on theory's parser
    they all default to None, so a given one shows.
    """
    stated = ("mu", "sigma", "L", "G")
    estimate_only = ("problem", "data", "synthetic", "seed", "standardize", "samples")
    unread = stated if args.estimate else estimate_only
    given = [f"--{name}" for name in unread if getattr(args, name) is not None]
    if given:
        mode = "without" if args.estimate else "with"
        raise ValueError(f"theory reads {' '.join(given)} only {mode} --estimate")
    if args.estimate:
        defaults = {"problem": "quadratic", "seed": 0, "samples": 64}
        vars(args).update({k: v for k, v in defaults.items() if getattr(args, k) is None})
        problem, _ = build_problem(args)
        constants = bounds.estimate_constants(
            problem, (args.lambda_min, args.lambda_max), args.samples, args.seed
        )
        if args.f_gap is not None:
            f_gap = args.f_gap
        else:
            f_gap = bounds.estimate_f_gap(problem, problem.base_point(), args.samples, args.seed)
        return constants, f_gap
    missing = [f"--{name}" for name in stated if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"theory needs {' '.join(missing)} (or --estimate with a problem source)"
        )
    inputs = (*stated, "lambda_min", "lambda_max")
    constants = problems.TheoryConstants(**{name: getattr(args, name) for name in inputs})
    return constants, (args.f_gap if args.f_gap is not None else 0.0)


def cmd_theory(args) -> int:
    constants, f_gap = _constants_from_args(args)
    report = bounds.K_BOUNDS[args.method](constants, args.eps, f_gap)
    _write_or_print(report.to_json(), args.out, "bound report")
    return 0


def _sweep_row(method: str, eps: float, report=None, note: str = "") -> str:
    """One CSV line over SWEEP_COLUMNS; a failed row, with no report, leaves its columns empty."""
    values = {"method": method, "eps": f"{eps:g}", "status": "failed", "note": note}
    if report is not None:
        values.update(
            asdict(report.counters),
            status=report.status,
            K=report.K,
            accuracy_midpoint=f"{report.accuracy_midpoint:.17g}",
            wall_time_seconds=f"{report.wall_time_seconds:.6g}",
        )
    return ",".join(str(values.get(column, "")) for column in SWEEP_COLUMNS)


def _sweep_method_rows(problem, meta, method, eps_list, args, x0) -> list[str]:
    """All rows for one method, chaining the passing K into the next eps's K0."""
    rows = []
    carried_K0 = args.K0
    for eps in eps_list:
        try:
            K, _, reports, passed = run_doubling(
                problem, meta, method, eps, carried_K0, args.max_doublings, args, x0
            )
        except EXIT_3_FAILURES as exc:  # an argument error exits 2 and writes no CSV
            note = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
            rows.append(_sweep_row(method, eps, note=note.replace(",", ";").replace("\n", " ")[:200]))
            continue
        if passed:
            carried_K0 = K
        rows.append(_sweep_row(method, eps, reports[-1]))
    return rows


def cmd_sweep(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r} in --methods")
    eps_list = args.eps_list
    if not methods or not eps_list:
        raise ValueError("sweep needs nonempty --methods and --eps-list")
    _check_unread_flags(args, methods)
    problem, meta = build_problem(args)
    x0 = initialize_x0(problem, args, min(eps_list))
    all_rows: list[str] = []
    for method in methods:
        all_rows.extend(_sweep_method_rows(problem, meta, method, eps_list, args, x0))
    text = ",".join(SWEEP_COLUMNS) + "\n" + "\n".join(all_rows) + "\n"
    write_json_atomic(text, args.out)
    print(f"wrote {len(all_rows)} sweep rows to {args.out}")
    return 0


def cmd_gen_moment(args) -> int:
    w, x_true = problems.generate_synthetic_moment_data(args.p, args.seed)
    problems.build_moment_problem(w, x_true, args.n_moments)  # rejects what run --data would
    datasets.save_moment_json(w, x_true, args.n_moments, args.out)
    print(f"wrote moment problem (p={args.p}, n_moments={args.n_moments}) to {args.out}")
    return 0


def cmd_gen_logistic(args) -> int:
    features, labels = datasets.generate_synthetic_logistic(args.n, args.p, args.seed)
    datasets.save_csv_dataset(features, labels, args.out)
    print(f"wrote synthetic logistic dataset ({args.n} x {args.p}) to {args.out}")
    return 0


def _add_problem_flags(sub):
    sub.add_argument("--problem", default="quadratic", choices=PROBLEMS)
    sub.add_argument("--data", default=None, help="CSV dataset or moment JSON path")
    sub.add_argument("--synthetic", default=None, help="e.g. n=200,p=30,seed=1")
    sub.add_argument("--seed", type=int, default=None, help="default 0")
    sub.add_argument("--standardize", action="store_true")
    sub.add_argument("--lambda-min", type=float, default=0.01)
    sub.add_argument("--lambda-max", type=float, default=10.0)


def _checked(convert, kind: str, accept, requirement: str):
    """An argparse type: convert the text to kind, then reject a value accept() refuses."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_positive_float = _checked(float, "a number", lambda v: 0.0 < v < math.inf, "finite and > 0")
_positive_int = _checked(int, "an integer", lambda v: v >= 1, ">= 1")
_nonnegative_int = _checked(int, "an integer", lambda v: v >= 0, ">= 0")


def _add_solver_flags(sub):
    sub.add_argument("--allow-degenerate", action="store_true")
    sub.add_argument(
        "--delta",
        type=lambda text: text if text == "auto" else _positive_float(text),
        default=None,
        help="CG tolerance, or 'auto' for eps/4",
    )
    sub.add_argument("--inner-tol", type=_positive_float, default=None, help="grid inner tolerance")
    sub.add_argument("--init", choices=("newton", "omega"), default="newton")
    sub.add_argument("--init-tol", type=_positive_float, default=None)


def _add_doubling_flags(sub):
    sub.add_argument("--K0", type=_positive_int, default=None, help="doubling start")
    sub.add_argument("--max-doublings", type=_nonnegative_int, default=20)


def _add_run_flags(sub, eps_required: bool):
    """Flags of the single-method verbs (run, doubling), solver flags included."""
    sub.add_argument("--method", required=True, choices=ALL_METHODS)
    sub.add_argument("--eps", type=_positive_float, default=None, required=eps_required)
    _add_solver_flags(sub)
    sub.add_argument("--out", default=None)
    sub.add_argument("--path-out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathode",
        description="Solution paths of ridge-style convex problems by ODE discretization",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="one method at one K")
    _add_problem_flags(run)
    _add_run_flags(run, eps_required=False)
    run.add_argument("--K", type=_positive_int, required=True)
    run.add_argument("--diag-out", default=None, help="write per-step diagnostics JSONL")
    run.set_defaults(func=cmd_run)

    doubling = subs.add_parser("doubling", help="double K until the accuracy target holds")
    _add_problem_flags(doubling)
    _add_run_flags(doubling, eps_required=True)
    _add_doubling_flags(doubling)
    doubling.set_defaults(func=cmd_doubling)

    theory = subs.add_parser("theory", help="evaluate iteration bounds")
    _add_problem_flags(theory)
    theory.set_defaults(problem=None, standardize=None)  # see _constants_from_args
    theory.add_argument("--method", required=True, choices=tuple(bounds.K_BOUNDS))
    theory.add_argument("--eps", type=_positive_float, required=True)
    theory.add_argument("--mu", type=float, default=None)
    theory.add_argument("--sigma", type=float, default=None)
    theory.add_argument("--L", type=float, default=None)
    theory.add_argument("--G", type=float, default=None)
    theory.add_argument("--f-gap", type=float, default=None)
    theory.add_argument("--estimate", action="store_true")
    theory.add_argument("--samples", type=int, default=None, help="with --estimate (default 64)")
    theory.add_argument("--out", default=None)
    theory.set_defaults(func=cmd_theory)

    sweep = subs.add_parser("sweep", help="methods x eps grid, one CSV row each")
    _add_problem_flags(sweep)
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument(
        "--eps-list",
        type=lambda text: [_positive_float(e) for e in text.split(",") if e.strip()],
        required=True,
        help="comma-separated eps values",
    )
    _add_solver_flags(sweep)
    _add_doubling_flags(sweep)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    gen_m = subs.add_parser("gen-moment", help="write a synthetic moment problem JSON")
    gen_m.add_argument("--p", type=int, default=50)
    gen_m.add_argument("--seed", type=int, default=0)
    gen_m.add_argument("--n-moments", type=int, default=5)
    gen_m.add_argument("--out", required=True)
    gen_m.set_defaults(func=cmd_gen_moment)

    gen_l = subs.add_parser("gen-logistic", help="write a synthetic logistic CSV")
    gen_l.add_argument("--n", type=int, default=569)
    gen_l.add_argument("--p", type=int, default=30)
    gen_l.add_argument("--seed", type=int, default=0)
    gen_l.add_argument("--out", required=True)
    gen_l.set_defaults(func=cmd_gen_logistic)

    return parser


# numpy's and scipy's wheels rename the symbols; a system OpenBLAS keeps the plain names
_OPENBLAS_SETTERS = tuple(
    f"{prefix}set_num_threads{suffix}"
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


def _pin_blas_threads() -> None:
    """Set every loaded OpenBLAS pool to one thread unless the user chose a count.

    A count set through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is kept.
    numpy and scipy each load their own OpenBLAS with its own thread pool;
    the exact runs assemble each Hessian in one and factor it in the other,
    and two multi-threaded pools taking turns stall.  Without /proc, or for a
    library without a known setter, the pools are left alone.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        setter = next((getattr(lib, n) for n in _OPENBLAS_SETTERS if hasattr(lib, n)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pin_blas_threads()
    try:
        if "lambda_min" in vars(args):  # every verb that takes a path range
            problems.check_lambda_range(args.lambda_min, args.lambda_max)
        return args.func(args)
    except EXIT_3_FAILURES as exc:  # ahead of ValueError: NotPositiveDefiniteError subclasses it
        kind = "out of memory" if isinstance(exc, MemoryError) else "solver failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # bad arguments, malformed data, degenerate problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
