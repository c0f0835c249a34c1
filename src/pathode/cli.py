"""Benchmark command line: run, doubling, theory, sweep, gen-moment, gen-logistic.

Exit codes: 0 success, 2 bad arguments or malformed input data, 3 solver
failure (including a doubling loop that exhausts its cap).  Reports are
JSON documents matching report_schema.json; sweeps emit one CSV row per
(method, eps) pair.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, datasets, gridsearch, paths, problems, steppers
from .linsolve import NotPositiveDefiniteError
from .reports import write_json_atomic

ODE_METHODS = ("euler", "trapezoid", "rk4", "euler-cg", "trapezoid-cg", "rk4-cg")
GRID_METHODS = ("grid-newton", "grid-agd")
ALL_METHODS = ODE_METHODS + GRID_METHODS
PROBLEMS = ("quadratic", "logistic", "logistic-reweighted", "moment")

SWEEP_COLUMNS = (
    "method,eps,status,K,accuracy_midpoint,grad_f,grad_omega,hess_builds,"
    "hessvec,linear_solves,cg_iters_total,metric_evals,wall_time_seconds,note"
)


class CliArgumentError(ValueError):
    """Semantically invalid arguments discovered after parsing (exit 2)."""


def _parse_synthetic(spec: str, keys: tuple[str, ...]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise CliArgumentError(f"bad --synthetic entry {item!r}; expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliArgumentError(f"unknown --synthetic key {key!r}; expected one of {keys}")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise CliArgumentError(f"bad --synthetic value {item!r}: {exc}") from exc
    return out


def build_problem(args) -> tuple[problems.ProblemOracle, dict]:
    """Construct the problem oracle named by --problem from --data or --synthetic."""
    name = args.problem
    if name not in PROBLEMS:
        raise CliArgumentError(f"unknown problem {name!r}; expected one of {PROBLEMS}")
    if name == "quadratic" and args.data:
        raise CliArgumentError(
            "quadratic instances are synthetic-only (the CSV contract is for "
            "labelled classification data); use --synthetic n=..,p=..,seed=.."
        )
    meta = {"problem": name, "seed": args.seed}
    if args.data:
        meta["source"] = args.data
    else:
        keys = ("p", "seed", "n_moments") if name == "moment" else ("n", "p", "seed")
        spec = _parse_synthetic(args.synthetic or "", keys)
        meta["seed"] = spec.get("seed", args.seed)
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
        features, labels = datasets.load_csv_dataset(args.data, standardize=args.standardize)
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
    """Starting point at lambda_max per the --init flag (default damped Newton)."""
    if args.init == "omega":
        x0, _ = steppers.initialize_from_omega(problem, args.lambda_max)
        return x0
    if args.init_tol is not None:
        tol = args.init_tol
    elif eps is not None:
        tol = min(eps / 4.0, 1e-12)
    else:
        tol = 1e-12
    return steppers.initialize_by_newton(problem, args.lambda_max, tol)


def _parse_delta(args, eps: float | None) -> float:
    raw = getattr(args, "delta", None)
    if raw is None or raw == "auto":
        if eps is None:
            raise CliArgumentError("--delta auto needs --eps (delta defaults to eps/4)")
        return eps / 4.0
    try:
        delta = float(raw)
    except ValueError as exc:
        raise CliArgumentError(f"bad --delta {raw!r}") from exc
    if delta <= 0.0:
        raise CliArgumentError("--delta must be positive")
    return delta


def _inner_tol(args, eps: float | None) -> float:
    if getattr(args, "inner_tol", None) is not None:
        return args.inner_tol
    if eps is None:
        raise CliArgumentError("grid methods need --eps or --inner-tol for the inner stopping rule")
    return eps / 2.0


def min_feasible_K(method: str, lambda_min: float, lambda_max: float) -> int:
    """Smallest K the method's schedule admits for this lambda range."""
    if method.startswith("grid"):
        return 2
    K = 1
    while True:
        try:
            steppers.stepsize(method.removesuffix("-cg"), K, lambda_min, lambda_max)
            return K
        except (ArithmeticError, ValueError, steppers.MaxIterationsError):
            if not 0.0 < lambda_min < lambda_max < math.inf:  # no K helps
                raise
            K += 1


def run_one(problem, meta, method, K, args, eps: float | None, x0) -> tuple:
    """One run of any method at a fixed K, with the midpoint accuracy evaluated."""
    if method in GRID_METHODS:
        config = gridsearch.GridSearchConfig(
            num_points=K,
            inner_solver=method.removeprefix("grid-"),
            inner_tol=_inner_tol(args, eps),
            lambda_min=args.lambda_min,
            lambda_max=args.lambda_max,
        )
        path, report = gridsearch.solve_grid(
            problem, x0, config, allow_degenerate=args.allow_degenerate
        )
    elif method in ODE_METHODS:
        mode = "cg" if method.endswith("-cg") else "exact"
        config = steppers.StepperConfig(
            method=method.removesuffix("-cg"),
            K=K,
            lambda_min=args.lambda_min,
            lambda_max=args.lambda_max,
            direction_mode=mode,
            delta=_parse_delta(args, eps) if mode == "cg" else None,
            record_diagnostics=bool(getattr(args, "diag_out", None)),
        )
        path, report = steppers.run_path(
            problem, x0, config, allow_degenerate=args.allow_degenerate
        )
    else:
        raise CliArgumentError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    report.accuracy_midpoint = paths.accuracy_midpoint(problem, path, report.counters)
    report.eps_target = eps
    report.seed = meta.get("seed")
    return path, report


def run_doubling(problem, meta, method, eps, K0, max_doublings, args, x0):
    """K0, 2 K0, 4 K0, ... until the midpoint accuracy reaches eps.

    K0 is raised to the method's smallest feasible K; None starts there.
    Returns (K_final, path, reports, passed); K_final is the last K attempted.
    """
    K = max(K0 or 0, min_feasible_K(method, args.lambda_min, args.lambda_max))
    reports = []
    for attempt in range(max_doublings + 1):
        path, report = run_one(problem, meta, method, K, args, eps, x0)
        reports.append(report)
        if report.accuracy_midpoint <= eps:
            return K, path, reports, True
        if attempt < max_doublings:
            K *= 2
    reports[-1].status = "accuracy-not-met"
    return K, path, reports, False


def _write_or_print(text: str, out: str | None, label: str) -> None:
    if out:
        write_json_atomic(text, out)
        print(f"wrote {label} to {out}")
    else:
        sys.stdout.write(text)


def _write_diagnostics(report, diag_out: str) -> None:
    lines = [json.dumps(d.as_dict(), sort_keys=True) for d in report.step_diagnostics]
    write_json_atomic("\n".join(lines) + ("\n" if lines else ""), diag_out)
    report.diagnostics_path = diag_out


def cmd_run(args) -> int:
    problem, meta = build_problem(args)
    if args.K is None and args.eps is None:
        raise CliArgumentError("run needs --K, --eps, or both")
    x0 = initialize_x0(problem, args, args.eps)
    if args.K is not None:
        path, report = run_one(problem, meta, args.method, args.K, args, args.eps, x0)
    else:
        K, path, reports, passed = run_doubling(
            problem, meta, args.method, args.eps, args.K0, args.max_doublings, args, x0
        )
        report = reports[-1]
        if not passed:
            _write_or_print(report.to_json(), args.out, "report")
            print(
                f"accuracy {report.accuracy_midpoint:g} > eps {args.eps:g} after "
                f"{len(reports)} doubling attempts (K = {K})",
                file=sys.stderr,
            )
            return 3
    if getattr(args, "diag_out", None):
        _write_diagnostics(report, args.diag_out)
    if args.path_out:
        paths.export_path_csv(path, args.path_out)
    _write_or_print(report.to_json(), args.out, "report")
    return 0


def cmd_doubling(args) -> int:
    problem, meta = build_problem(args)
    x0 = initialize_x0(problem, args, args.eps)
    K, path, reports, passed = run_doubling(
        problem, meta, args.method, args.eps, args.K0, args.max_doublings, args, x0
    )
    payload = {
        "method": args.method,
        "eps": args.eps,
        "K0": args.K0 or min_feasible_K(args.method, args.lambda_min, args.lambda_max),
        "K_final": K,
        "passed": passed,
        "reports": [r.as_dict() for r in reports],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_or_print(text, args.out, "doubling summary")
    if args.path_out:
        paths.export_path_csv(path, args.path_out)
    if not passed:
        print(f"doubling cap reached without Ahat <= {args.eps:g}", file=sys.stderr)
        return 3
    return 0


def _constants_from_args(args) -> tuple[problems.TheoryConstants, float]:
    if args.estimate:
        problem, _ = build_problem(args)
        constants = bounds.estimate_constants(
            problem, (args.lambda_min, args.lambda_max), args.samples, args.seed
        )
        if args.f_gap is not None:
            f_gap = args.f_gap
        else:
            f_gap = bounds.estimate_f_gap(problem, problem.base_point(), args.samples, args.seed)
        return constants, f_gap
    missing = [
        flag
        for flag, value in (("--mu", args.mu), ("--sigma", args.sigma), ("--L", args.L), ("--G", args.G))
        if value is None
    ]
    if missing:
        raise CliArgumentError(
            f"theory needs {' '.join(missing)} (or --estimate with a problem source)"
        )
    constants = problems.TheoryConstants.derive(
        mu=args.mu,
        sigma=args.sigma,
        L=args.L,
        G=args.G,
        lambda_min=args.lambda_min,
        lambda_max=args.lambda_max,
    )
    return constants, (args.f_gap if args.f_gap is not None else 0.0)


def cmd_theory(args) -> int:
    constants, f_gap = _constants_from_args(args)
    if args.method not in bounds.K_BOUNDS:
        raise CliArgumentError(
            f"no closed-form bound for {args.method!r}; choose one of {tuple(bounds.K_BOUNDS)}"
        )
    report = bounds.K_BOUNDS[args.method](constants, args.eps, f_gap)
    _write_or_print(report.to_json(), args.out, "bound report")
    return 0


def _sweep_method_rows(problem, meta, method, eps_list, args, x0) -> list[str]:
    """All rows for one method, chaining the passing K into the next eps's K0."""
    rows = []
    carried_K0 = args.K0
    for eps in eps_list:
        try:
            K, _, reports, passed = run_doubling(
                problem, meta, method, eps, carried_K0, args.max_doublings, args, x0
            )
            report = reports[-1]
            c = report.counters
            status = "ok" if passed else "accuracy-not-met"
            if passed:
                carried_K0 = K
        except (RuntimeError, ValueError) as exc:
            rows.append(f"{method},{eps:g},failed,,,,,,,,,,,{_clean_note(exc)}")
            continue
        rows.append(
            f"{method},{eps:g},{status},{report.K},{report.accuracy_midpoint:.17g},"
            f"{c.grad_f},{c.grad_omega},{c.hess_builds},{c.hessvec},{c.linear_solves},"
            f"{c.cg_iters_total},{c.metric_evals},{report.wall_time_seconds:.6g},"
        )  # the note column is filled on failed rows only
    return rows


def _clean_note(exc: Exception) -> str:
    return str(exc).replace(",", ";").replace("\n", " ")[:200]


def cmd_sweep(args) -> int:
    problem, meta = build_problem(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ALL_METHODS:
            raise CliArgumentError(f"unknown method {m!r} in --methods")
    try:
        eps_list = [float(e) for e in args.eps_list.split(",") if e.strip()]
    except ValueError as exc:
        raise CliArgumentError(f"bad --eps-list: {exc}") from exc
    if not methods or not eps_list:
        raise CliArgumentError("sweep needs nonempty --methods and --eps-list")
    if any(e <= 0.0 for e in eps_list):
        raise CliArgumentError("all eps values must be positive")
    x0 = initialize_x0(problem, args, min(eps_list))
    all_rows: list[str] = []
    for method in methods:
        all_rows.extend(_sweep_method_rows(problem, meta, method, eps_list, args, x0))
    text = SWEEP_COLUMNS + "\n" + "\n".join(all_rows) + "\n"
    write_json_atomic(text, args.out)
    print(f"wrote {len(all_rows)} sweep rows to {args.out}")
    return 0


def cmd_gen_moment(args) -> int:
    w, x_true = problems.generate_synthetic_moment_data(args.p, args.seed)
    datasets.save_moment_json(w, x_true, args.n_moments, args.out)
    print(f"wrote moment problem (p={args.p}, n_moments={args.n_moments}) to {args.out}")
    return 0


def cmd_gen_logistic(args) -> int:
    features, labels = datasets.generate_synthetic_logistic(args.n, args.p, args.seed)
    datasets.save_csv_dataset(features, labels, args.out)
    print(f"wrote synthetic logistic dataset ({args.n} x {args.p}) to {args.out}")
    return 0


def _add_problem_flags(sub):
    sub.add_argument("--problem", default="quadratic", help=f"one of {PROBLEMS}")
    sub.add_argument("--data", default=None, help="CSV dataset or moment JSON path")
    sub.add_argument("--synthetic", default=None, help="e.g. n=200,p=30,seed=1")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--standardize", action="store_true")
    sub.add_argument("--allow-degenerate", action="store_true")
    sub.add_argument("--lambda-min", type=float, default=0.01)
    sub.add_argument("--lambda-max", type=float, default=10.0)


class _NonNegative(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be >= 0, got {value}")
        setattr(namespace, self.dest, value)


def _add_solver_flags(sub):
    sub.add_argument("--delta", default=None, help="CG tolerance, or 'auto' for eps/4")
    sub.add_argument("--inner-tol", type=float, default=None, help="grid inner tolerance")
    sub.add_argument("--init", choices=("newton", "omega"), default="newton")
    sub.add_argument("--init-tol", type=float, default=None)
    sub.add_argument("--K0", type=int, default=None, help="doubling start")
    sub.add_argument("--max-doublings", type=int, default=20, action=_NonNegative)


def _add_run_flags(sub):
    """Flags of the single-method verbs (run, doubling), solver flags included."""
    sub.add_argument("--method", required=True, help=f"one of {ALL_METHODS}")
    sub.add_argument("--eps", type=float, default=None)
    _add_solver_flags(sub)
    sub.add_argument("--out", default=None)
    sub.add_argument("--path-out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathode",
        description="Solution paths of ridge-style convex problems by ODE discretization",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="one method at one K (or doubling to --eps)")
    _add_problem_flags(run)
    _add_run_flags(run)
    run.add_argument("--K", type=int, default=None)
    run.add_argument("--diag-out", default=None, help="write per-step diagnostics JSONL")
    run.set_defaults(func=cmd_run)

    doubling = subs.add_parser("doubling", help="double K until the accuracy target holds")
    _add_problem_flags(doubling)
    _add_run_flags(doubling)
    doubling.set_defaults(func=cmd_doubling)

    theory = subs.add_parser("theory", help="evaluate iteration bounds")
    _add_problem_flags(theory)
    theory.add_argument("--method", required=True, help=f"one of {tuple(bounds.K_BOUNDS)}")
    theory.add_argument("--eps", type=float, required=True)
    theory.add_argument("--mu", type=float, default=None)
    theory.add_argument("--sigma", type=float, default=None)
    theory.add_argument("--L", type=float, default=None)
    theory.add_argument("--G", type=float, default=None)
    theory.add_argument("--f-gap", type=float, default=None)
    theory.add_argument("--estimate", action="store_true")
    theory.add_argument("--samples", type=int, default=64)
    theory.add_argument("--out", default=None)
    theory.set_defaults(func=cmd_theory)

    sweep = subs.add_parser("sweep", help="methods x eps grid, one CSV row each")
    _add_problem_flags(sweep)
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument("--eps-list", required=True, help="comma-separated eps values")
    _add_solver_flags(sweep)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (  # ahead of ValueError, which NotPositiveDefiniteError subclasses
        steppers.PathRunError,
        gridsearch.GridSearchError,
        steppers.MaxIterationsError,
        steppers.CGNoConvergenceError,
        NotPositiveDefiniteError,
    ) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # bad arguments, malformed data, degenerate problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
