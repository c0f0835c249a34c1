"""pathode benchmark: time to eps on four workloads, plus a traced per-layer ledger.

    python3 perfbench/run.py --workload quad-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run repeats the workload's cells for --seconds, and between the
repetitions sets the workload up, SETUP_REPS times at least and for about
SETUP_SHARE of the run.  Timings are means over the repetitions, scaled to
a reference host speed measured by a probe kernel in the same run (see
PROBE_REF_S); the raw wall-time medians go to the result file.  --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced
repetitions and prints the per-layer ledger.  Every cell is checked by the
correctness gate; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A result file with
the environment fingerprint goes to perfbench/results/.

The BLAS thread count is fixed here, before numpy is imported, so no result
depends on the caller's shell.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import lapack  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPS = 5  # set-up samples per run, at least
SETUP_SHARE = 0.1  # beyond SETUP_REPS, set-up samples take this share of the run
SETUP_BATCH_S = 0.02  # one set-up sample repeats the set-up for about this long
FLOOR_SECONDS = 0.2  # time spent measuring the raw LAPACK floor
SPAN_FIELDS = ("id", "parent", "name", "start", "end")
WORKLOAD_NAMES = ("quad-ladder", "logistic-sweep", "logistic-large", "moment-entropy")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad arguments)."""


def import_package():
    """Import pathode from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "pathode" / "__init__.py").is_file():
        raise BenchError(f"no pathode sources under {src}")
    sys.path.insert(0, str(src))
    import pathode

    if pathlib.Path(pathode.__file__).resolve().parent != (src / "pathode").resolve():
        raise BenchError(f"pathode imported from {pathode.__file__}, not from {src}")
    from pathode import bounds, cli, datasets, gridsearch, linsolve, paths, problems, reports
    from pathode import steppers

    return {
        "bounds": bounds,
        "cli": cli,
        "datasets": datasets,
        "gridsearch": gridsearch,
        "linsolve": linsolve,
        "paths": paths,
        "problems": problems,
        "reports": reports,
        "steppers": steppers,
    }


# ---------------------------------------------------------------- fingerprint


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _openblas_runtime() -> list[dict]:
    """Version and thread count of each OpenBLAS loaded in this process."""
    out = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return out
    for lib_path in libs:
        entry = {"library": os.path.basename(lib_path)}
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["config"] = config().decode(errors="replace").strip()
        out.append(entry)
    return out


def fingerprint() -> dict:
    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {"name": dep.get("name"), "version": dep.get("version")}
        except (KeyError, TypeError, ValueError):
            return {"name": "unknown"}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "openblas_runtime": _openblas_runtime(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- measurement


# The host's speed drifts: on a shared 2-vCPU Xeon VM a fixed pure-Python
# loop alternates between a fast and a ~45% slower state about once a
# second, and whole minutes run slow, so raw wall times of one fixed workload
# spread by 15-30% between runs.  Every timed unit is therefore preceded by a
# fixed reference kernel, and timings are reported at the speed at which
# that kernel takes PROBE_REF_S.  Means, not medians, are divided: a probe's
# median jumps between the two states, while the mean of the probe and of
# the work both follow the time-averaged slowdown.  The kernel's mix (by
# time about a third interpreter loop, half 96x96 matrix products, the rest
# small numpy calls) tracked both an overhead-bound and a flop-bound workload
# best among the mixes tried.
PROBE_REF_S = 0.008
_rng = np.random.default_rng(0)
_PROBE_MATRIX = _rng.standard_normal((96, 96))
_PROBE_SMALL = _rng.standard_normal((20, 20))
_PROBE_VEC = _rng.standard_normal(20)


def probe_s() -> float:
    """Time of the reference kernel."""
    t0 = time.perf_counter()
    x = 0
    for i in range(50_000):
        x += i
    for _ in range(80):
        _PROBE_MATRIX @ _PROBE_MATRIX
    for _ in range(150):
        y = _PROBE_SMALL @ (_PROBE_VEC + _PROBE_VEC)
        np.dot(y, y)
        np.linalg.norm(y)
        np.zeros(20)
    return time.perf_counter() - t0


def at_ref_speed(work_s: list[float], probes_s: list[float]) -> float:
    """Mean work time scaled to the host speed at which the probe takes PROBE_REF_S."""
    return statistics.fmean(work_s) * PROBE_REF_S / statistics.fmean(probes_s)


class Rep:
    """One repetition of a workload's cells and their dense check."""

    def __init__(self, cells, dense_s, dense_acc, probes, traced):
        self.cells = cells
        self.cells_s = sum(c.seconds for c in cells)
        self.dense_s = dense_s
        self.dense_acc = dense_acc
        self.probes = probes  # probe times taken before each cell and dense check
        self.traced = traced
        self.failures: dict[str, list[str]] = {}  # cell name -> reasons


def run_rep(mods, workload, setup, traced: bool) -> Rep:
    paths = mods["paths"]
    probes: list[float] = []
    cells = workload.run_cells(setup, lambda: probes.append(probe_s()))
    dense_acc = {}
    dense_s = 0.0
    for cell in cells:
        if cell.path is None:
            continue
        probes.append(probe_s())
        t0 = time.perf_counter()
        try:
            dense_acc[cell.name] = paths.accuracy_dense(setup.problem, cell.path, workload.dense_ppi)
        except ValueError as exc:
            dense_acc[cell.name] = f"raised {exc!r}"
        dense_s += time.perf_counter() - t0
    return Rep(cells, dense_s, dense_acc, probes, traced)


def gate(workload_mod, workload, rep: Rep, problem) -> None:
    """Check every cell of rep; record failures by name, never abort."""
    for cell in rep.cells:
        try:
            reasons = workload_mod.check_cell(cell, problem)
        except Exception as exc:  # a broken result must be counted, not crash the run
            reasons = [f"gate raised {exc!r}"]
        if isinstance(rep.dense_acc.get(cell.name), str):
            reasons.append(f"dense check {rep.dense_acc[cell.name]}")
        if reasons:
            rep.failures[f"{workload.name}:{cell.name}"] = reasons


def ledger(rep: Rep) -> dict:
    """Program counters summed over every attempt of every cell (the doubling payload)."""
    attempts = [r for c in rep.cells for r in c.reports]
    accepted = [c.reports[-1] for c in rep.cells if c.passed and c.reports]
    steps_run = sum(r["K"] for r in attempts)
    steps_kept = sum(r["K"] for r in accepted)
    return {
        "attempts": len(attempts),
        "hess_builds": sum(r["counters"]["hess_builds"] for r in attempts),
        "hessvec": sum(r["counters"]["hessvec"] for r in attempts),
        "steps_run": steps_run,
        "steps_kept": steps_kept,
        "wasted_steps_frac": (steps_run - steps_kept) / steps_run if steps_run else 0.0,
        "ode_steps": sum(r["K"] for r in attempts if r["h"] is not None),
        "newton_iters": sum(sum(r["inner_iterations"] or ()) for r in attempts if r["h"] is None),
    }


def lapack_floor_us(problem, x0, lam: float) -> float:
    """Median time of a raw potrf + potrs at the problem's size, in microseconds."""
    H = np.asarray(problem.total_hess(x0, lam), dtype=float)
    g = np.asarray(problem.f_grad(x0), dtype=float)
    samples = []
    end = time.perf_counter() + FLOOR_SECONDS
    while time.perf_counter() < end or len(samples) < 10:
        t0 = time.perf_counter()
        c, info = lapack.dpotrf(H, lower=1, clean=0)
        y, info2 = lapack.dpotrs(c, -g, lower=1)
        samples.append(time.perf_counter() - t0)
        if info or info2:
            raise BenchError(f"potrf/potrs failed (info {info}, {info2})")
    return statistics.median(samples) * 1e6


def _stat(stats, name, field="busy"):
    st = stats.get(name)
    if st is None:
        return 0.0
    if field in ("calls", "busy", "self_time", "errors"):
        return float(getattr(st, field))
    return float(st.extra.get(field, 0.0))


# package modules, the first span-name component of every wrapped callable
LAYERS = ("problems", "linsolve", "steppers", "gridsearch", "paths", "bounds", "cli", "datasets", "reports")


def per_layer_metrics(
    stats, setup_stats, n_traced, traced_wall, overhead_s, floor_us, flops_per_build, led
) -> dict:
    """The traced ledger, per repetition of the workload's cells."""
    n = max(n_traced, 1)

    def per(name, field="busy"):
        return _stat(stats, name, field) / n

    spd_calls = per("linsolve.solve_spd", "calls")
    spd_us = per("linsolve.solve_spd") / spd_calls * 1e6 if spd_calls else 0.0
    cg_calls = per("linsolve.cg_solve", "calls")
    hess_calls = per("problems.hess_build", "calls")
    hess_s = per("problems.hess_build")
    gflop = hess_calls * flops_per_build / 1e9
    steps = led["ode_steps"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, st in stats.items():
        layer_self[name.split(".")[0]] += st.self_time / n
    total_self = sum(layer_self.values())
    m = {
        "linsolve.solve_spd.calls": (spd_calls, "count"),
        "linsolve.solve_spd.s": (per("linsolve.solve_spd"), "s"),
        "linsolve.solve_spd.us_per_call": (spd_us, "us"),
        "linsolve.lapack_floor_us": (floor_us, "us"),
        "linsolve.solve_spd.overhead_ratio": (spd_us / floor_us if spd_calls else 0.0, "ratio"),
        "linsolve.cg_solve.calls": (cg_calls, "count"),
        "linsolve.cg_solve.self_s": (per("linsolve.cg_solve", "self_time"), "s"),
        "linsolve.cg_solve.iters": (per("linsolve.cg_solve", "iters"), "count"),
        "linsolve.cg_solve.iters_per_solve": (
            per("linsolve.cg_solve", "iters") / cg_calls if cg_calls else 0.0,
            "count",
        ),
        "linsolve.cg_solve.nonconverged": (per("linsolve.cg_solve", "nonconverged"), "count"),
        "problems.hess_build.calls": (hess_calls, "count"),
        "problems.hess_build.s": (hess_s, "s"),
        "problems.hess_build.gflop_computed": (gflop, "GFLOP"),
        "problems.hess_build.gflops_computed": (gflop / hess_s if hess_s else 0.0, "GFLOP/s"),
        "problems.hessvec.calls": (per("problems.hessvec", "calls"), "count"),
        "problems.hessvec.s": (per("problems.hessvec"), "s"),
        "problems.grad.calls": (per("problems.grad", "calls"), "count"),
        "problems.grad.s": (per("problems.grad"), "s"),
        "problems.grad_batch.calls": (per("problems.grad_batch", "calls"), "count"),
        "problems.grad_batch.s": (per("problems.grad_batch"), "s"),
        "problems.value.calls": (per("problems.value", "calls"), "count"),
        "problems.value.s": (per("problems.value"), "s"),
        "problems.domain_check.calls": (per("problems.domain_check", "calls"), "count"),
        "problems.domain_check.s": (per("problems.domain_check"), "s"),
        "problems.domain_check.rejects": (per("problems.domain_check", "rejects"), "count"),
        "paths.knot_residual.calls": (per("paths.knot_residual", "calls"), "count"),
        "paths.knot_residual.s": (per("paths.knot_residual"), "s"),
        "paths.accuracy_midpoint.s": (per("paths.accuracy_midpoint"), "s"),
        "paths.query_batch.s": (per("paths.query_batch"), "s"),
        "paths.accuracy_dense.s": (per("paths.accuracy_dense"), "s"),
        "steppers.run_path.calls": (per("steppers.run_path", "calls"), "count"),
        "steppers.run_path.s": (per("steppers.run_path"), "s"),
        "steppers.run_path.self_s": (per("steppers.run_path", "self_time"), "s"),
        "steppers.steps": (steps, "count"),
        "steppers.step_us": (per("steppers.run_path") / steps * 1e6 if steps else 0.0, "us"),
        "gridsearch.solve_grid.s": (per("gridsearch.solve_grid"), "s"),
        "gridsearch.solve_grid.self_s": (per("gridsearch.solve_grid", "self_time"), "s"),
        "gridsearch.newton_iters": (led["newton_iters"], "count"),
        "cli.doubling.attempts": (led["attempts"], "count"),
        "cli.doubling.wasted_steps_frac": (led["wasted_steps_frac"], "ratio"),
        "cli.run_doubling.self_s": (per("cli.run_doubling", "self_time"), "s"),
        "counters.hessvec_to_eps": (led["hessvec"], "count"),
        "steppers.init.s": (_stat(setup_stats, "steppers.init"), "s"),
        "bounds.estimate_constants.s": (_stat(setup_stats, "bounds.estimate_constants"), "s"),
        "bounds.k_star.s": (_stat(setup_stats, "bounds.k_star"), "s"),
        "cli.build_problem.s": (_stat(setup_stats, "cli.build_problem"), "s"),
        "problems.build.s": (_stat(setup_stats, "problems.build"), "s"),
        "datasets.s": (_stat(setup_stats, "datasets"), "s"),
        "reports.s": (per("reports"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.layer_self_frac": (total_self / traced_wall if traced_wall else 0.0, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.span_errors": (sum(st.errors for st in stats.values()) / n, "count"),
    }
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = (value, "s")
    m["layer.bench.self_s"] = (traced_wall - total_self, "s")
    return m


def run_workload(workload_name, seed, seconds, trace, scale) -> dict:
    mods = import_package()
    import workloads as wl
    from tracing import Patches, Tracer

    workload = wl.WORKLOADS[workload_name](scale)
    RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="work-") as workdir:
        workload.setup(seed, workdir)  # untimed: lazy imports and first calls
        t0 = time.perf_counter()
        setup = workload.setup(seed, workdir)
        batch = max(1, int(SETUP_BATCH_S / (time.perf_counter() - t0)))
        setup_times: list[float] = []
        setup_probes: list[float] = []
        tracer = patches = traced_setup = setup_stats = None
        if trace:
            tracer = Tracer()
            patches = Patches(mods, tracer)
            with patches:
                traced_setup = workload.setup(seed, workdir)
            setup_stats = tracer.take()

        reps: list[Rep] = []
        start = time.perf_counter()
        end = start + seconds
        while True:
            # set-up samples are spread over the run: the host's speed for
            # small numpy calls changes from second to second
            while len(setup_times) < SETUP_REPS or (
                sum(setup_times) * batch < SETUP_SHARE * (time.perf_counter() - start)
            ):
                setup_probes.append(probe_s())
                t0 = time.perf_counter()
                for _ in range(batch):
                    setup = workload.setup(seed, workdir)
                setup_times.append((time.perf_counter() - t0) / batch)
            traced = bool(trace) and len(reps) % 2 == 1
            if traced:
                with patches:
                    rep = run_rep(mods, workload, traced_setup, True)
            else:
                rep = run_rep(mods, workload, setup, False)
            gate(wl, workload, rep, setup.problem)
            for cell in rep.cells:
                cell.path = None  # keep peak memory that of one repetition, not of all
            reps.append(rep)
            n_traced = sum(r.traced for r in reps)
            if time.perf_counter() >= end and (not trace or 0 < n_traced < len(reps)):
                break

    plain = [r for r in reps if not r.traced]
    plain_probes = [p for r in plain for p in r.probes]
    time_to_eps = at_ref_speed([r.cells_s for r in plain], plain_probes)
    led = ledger(reps[0])
    attempted = sum(len(r.cells) for r in reps)
    failed = sum(len(r.failures) for r in reps)
    failures = sorted({f"{name}: {why}" for r in reps for name, w in r.failures.items() for why in w})
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "size": workload.size,
        "fingerprint": fingerprint(),
        "probe_ref_s": PROBE_REF_S,
        "setup_batch": batch,
        "wall_s_medians": {
            "time_to_eps": statistics.median([r.cells_s for r in plain]),
            "verify_dense": statistics.median([r.dense_s for r in plain]),
            "setup": statistics.median(setup_times),
            "probe": statistics.median(plain_probes),
        },
        "wall_s_samples": {
            "setup": setup_times,
            "setup_probe": setup_probes,
            "cells": {
                c.name: [r.cells[i].seconds for r in plain] for i, c in enumerate(reps[0].cells)
            },
            "verify_dense": [r.dense_s for r in plain],
            "probe": plain_probes,
        },
        "ledger": led,
        "cells": {
            c.name: {
                "attempt_K": [r["K"] for r in c.reports],
                "accuracy_midpoint": c.reports[-1]["accuracy_midpoint"] if c.reports else None,
                "accuracy_dense": reps[0].dense_acc.get(c.name),
            }
            for c in reps[0].cells
        },
        "setup_info": setup.info,
        "failures": failures,
    }
    if trace:
        traced_reps = [r for r in reps if r.traced]
        stats = tracer.take()
        traced_wall = sum(r.cells_s + r.dense_s for r in traced_reps) / len(traced_reps)
        traced_probes = [p for r in traced_reps for p in r.probes]
        overhead = at_ref_speed([r.cells_s for r in traced_reps], traced_probes) - time_to_eps
        floor = lapack_floor_us(setup.problem, setup.x0, workload.lambda_min)
        metrics = per_layer_metrics(
            stats, setup_stats, len(traced_reps), traced_wall, overhead, floor,
            workload.hess_flops(), led,
        )  # fmt: skip
        result["absent_layers"] = sorted(patches.absent)
        result["spans_dropped"] = tracer.dropped_spans
        spans_file = RESULTS_DIR / f"TRACE_{workload_name}-seed{seed}.json"
        spans_file.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans}))
        result["spans_file"] = spans_file.name
    else:
        metrics = {
            "time_to_eps_s": (time_to_eps, "s"),
            "verify_dense_s": (at_ref_speed([r.dense_s for r in plain], plain_probes), "s"),
            "setup_s": (at_ref_speed(setup_times, setup_probes), "s"),
            "hess_builds_to_eps": (led["hess_builds"], "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["reps"] = len(reps)
    result["correct"] = failed == 0
    result["attempted"] = attempted
    result["failed"] = failed
    out = RESULTS_DIR / f"BENCH_{workload_name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for metric, mv in result["metrics"].items():
        print(f"{name:16s} {metric:38s} {mv['value']:.6g} {mv['unit']}")
    walls = " ".join(f"{k} {v:.4g}" for k, v in result["wall_s_medians"].items())
    print(f"{name:16s} raw wall-time medians (s): {walls}")
    share = result["failed"] / result["attempted"]
    print(f"{name:16s} failed cells {result['failed']}/{result['attempted']} ({share:.1%})")
    for failure in result["failures"]:
        print(f"{name:16s} FAILED {failure}")
    absent = result.get("absent_layers")
    if absent:
        print(f"{name:16s} absent layers: {', '.join(absent)}")


def run_all(argv_tail: list[str]) -> dict:
    """Each workload in its own process, so peak memory and state stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, *argv_tail],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, mv in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = mv
    share = combined["failed"] / max(combined["attempted"], 1)
    print(f"all workloads: failed cells {combined['failed']}/{combined['attempted']} ({share:.1%})")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: reduced sizes for the benchmark's own test")  # fmt: skip
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.workload == "all":
            tail = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--scale", args.scale]  # fmt: skip
            line = run_all(tail)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
            print_result(result)
            line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
