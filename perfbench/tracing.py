"""Out-of-program span tracing for the pathode benchmark.

The tracer never edits the package: it swaps module and class attributes
for timing wrappers while a traced region runs and puts the originals back
afterwards.  Each wrapper records a span (name, start, end, parent) at a
layer boundary.  Per-name totals (calls, busy time, self time, errors) are
kept for every span; raw spans are kept in memory up to a cap and written
out when the benchmark ends.

Self time is a span's duration minus the time covered by its direct
children, so the self times of all spans plus the glue outside any span add
up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import time

MAX_SPANS = 20_000
_INHERITED = object()

# (module name, attribute path, span name).  Attributes a later version of
# the package drops are reported as absent instead of failing the run.
PATCH_POINTS = (
    ("steppers", "solve_spd", "linsolve.solve_spd"),
    ("gridsearch", "solve_spd", "linsolve.solve_spd"),
    ("steppers", "cg_solve", "linsolve.cg_solve"),
    ("steppers", "residual_norm", "paths.knot_residual"),
    ("steppers", "run_path", "steppers.run_path"),
    ("steppers", "initialize_by_newton", "steppers.init"),
    ("gridsearch", "solve_grid", "gridsearch.solve_grid"),
    ("paths", "accuracy_midpoint", "paths.accuracy_midpoint"),
    ("paths", "accuracy_dense", "paths.accuracy_dense"),
    ("paths", "PiecewiseLinearPath.query_batch", "paths.query_batch"),
    ("paths", "PiecewiseConstantPath.query_batch", "paths.query_batch"),
    ("bounds", "estimate_constants", "bounds.estimate_constants"),
    ("bounds", "estimate_f_gap", "bounds.k_star"),
    ("bounds", "k_euler", "bounds.k_star"),
    ("bounds", "k_trapezoid", "bounds.k_star"),
    ("cli", "run_doubling", "cli.run_doubling"),
    ("cli", "build_problem", "cli.build_problem"),
    ("cli", "initialize_x0", "cli.initialize_x0"),
    ("datasets", "generate_synthetic_logistic", "datasets"),
    ("datasets", "generate_synthetic_quadratic", "datasets"),
    ("datasets", "save_csv_dataset", "datasets"),
    ("datasets", "load_csv_dataset", "datasets"),
    ("datasets", "save_moment_json", "datasets"),
    ("datasets", "load_moment_json", "datasets"),
    ("problems", "generate_synthetic_moment_data", "problems.build"),
    ("problems", "build_moment_problem", "problems.build"),
    ("problems", "quadratic_path_point", "problems.build"),
    ("reports", "RunReport.as_dict", "reports"),
)

# Factories whose oracles get their callables wrapped.
ORACLE_FACTORIES = (
    "make_quadratic_ridge",
    "make_logistic_ridge",
    "make_logistic_reweighted",
    "make_moment_matching",
)

# ProblemOracle field -> (span name, counts as a call).  A Hessian build or
# Hessian-vector product is the pair f + lambda * Omega, so only the f side
# is counted; the Omega side adds time to the same span name.
ORACLE_FIELDS = {
    "f_grad": ("problems.grad", True),
    "omega_grad": ("problems.grad", True),
    "f_grad_batch": ("problems.grad_batch", True),
    "omega_grad_batch": ("problems.grad_batch", True),
    "f_hess": ("problems.hess_build", True),
    "omega_hess": ("problems.hess_build", False),
    "f_hessvec": ("problems.hessvec", True),
    "omega_hessvec": ("problems.hessvec", False),
    "f_value": ("problems.value", True),
    "omega_value": ("problems.value", True),
    "domain_check": ("problems.domain_check", True),
}


class Stat:
    """Totals for one span name."""

    __slots__ = ("calls", "busy", "self_time", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.extra: dict[str, float] = {}


class Tracer:
    """Collects spans from wrapped callables; one tracer per traced region."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, name: str, fn, counted: bool = True, on_result=None):
        """Return fn wrapped in a span named name."""
        stat = self.stat(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                if counted:
                    stat.calls += 1
                stat.busy += dur
                stat.self_time += dur - frame[1]
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, name, t0, t1))
                else:
                    self.dropped_spans += 1
            if on_result is not None:
                on_result(stat, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def take(self) -> dict[str, Stat]:
        """Return the totals so far and start new ones (wrappers stay live)."""
        taken = {}
        for name, st in self.stats.items():
            copy = Stat()
            copy.calls, copy.busy, copy.self_time = st.calls, st.busy, st.self_time
            copy.errors, copy.extra = st.errors, dict(st.extra)
            taken[name] = copy
            st.calls, st.busy, st.self_time, st.errors, st.extra = 0, 0.0, 0.0, 0, {}
        return taken


def _count_rejects(stat: Stat, ok) -> None:
    if not ok:
        stat.extra["rejects"] = stat.extra.get("rejects", 0) + 1


def _count_cg(stat: Stat, result) -> None:
    stat.extra["iters"] = stat.extra.get("iters", 0) + result.inner_iterations
    if not result.converged:
        stat.extra["nonconverged"] = stat.extra.get("nonconverged", 0) + 1


ON_RESULT = {
    "problems.domain_check": _count_rejects,
    "linsolve.cg_solve": _count_cg,
}


class Patches:
    """Installs a tracer's wrappers on the package and restores the originals."""

    def __init__(self, pkg_modules: dict, tracer: Tracer):
        self.modules = pkg_modules
        self.tracer = tracer
        self.absent: set[str] = set()
        self._saved: list[tuple] = []

    def _resolve(self, module_name: str, attr_path: str):
        owner = self.modules.get(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            return None, attr
        return owner, attr

    def _set(self, owner, attr, value):
        # an inherited attribute is shadowed on owner, then the shadow removed
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr_path, span in PATCH_POINTS:
            owner, attr = self._resolve(module_name, attr_path)
            if owner is None:
                self.absent.add(f"{module_name}.{attr_path}")
                continue
            fn = getattr(owner, attr)
            self._set(owner, attr, self.tracer.wrap(span, fn, on_result=ON_RESULT.get(span)))
        problems = self.modules["problems"]
        for factory in ORACLE_FACTORIES:
            if not hasattr(problems, factory):
                self.absent.add(f"problems.{factory}")
                continue
            self._set(problems, factory, self._traced_factory(getattr(problems, factory)))

    def _traced_factory(self, factory):
        tracer = self.tracer
        build = tracer.wrap("problems.build", factory)

        def traced_factory(*args, **kwargs):
            oracle = build(*args, **kwargs)
            changes = {}
            for fld, (span, counted) in ORACLE_FIELDS.items():
                fn = getattr(oracle, fld, None)
                if fn is not None:
                    changes[fld] = tracer.wrap(span, fn, counted, ON_RESULT.get(span))
            return dataclasses.replace(oracle, **changes)

        return traced_factory

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
