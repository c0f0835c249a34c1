"""Solution paths of ridge-style convex problems by ODE discretization.

Computes eps-accurate paths {x(lambda)} of F_lambda(x) = f(x) + lambda Omega(x)
over a lambda interval by discretizing the path-following ODE, alongside
grid-search baselines, theory bound calculators, and a benchmark CLI.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    estimate_constants,
    estimate_f_gap,
    K_BOUNDS,
    k_euler,
    k_euler_approx,
    k_grid,
    k_trapezoid,
    k_trapezoid_approx,
    step_bound_euler,
    step_bound_euler_approx,
    step_bound_trapezoid,
    step_bound_trapezoid_approx,
    stepsize_bounds,
)
from .datasets import (
    DatasetFormatError,
    generate_synthetic_logistic,
    generate_synthetic_quadratic,
    load_csv_dataset,
    load_moment_json,
    save_csv_dataset,
    save_moment_json,
    standardize_features,
)
from .gridsearch import (
    GridSearchConfig,
    agd_inner,
    solve_grid,
)
from .linsolve import (
    DirectionResult,
    NotPositiveDefiniteError,
    cg_iteration_bound,
    cg_solve,
    solve_diag_lowrank,
    solve_shifted_eigh,
    solve_spd,
)
from .paths import (
    PiecewiseConstantPath,
    PiecewiseLinearPath,
    accuracy_dense,
    accuracy_midpoint,
    export_path_csv,
)
from .problems import (
    DegenerateProblemError,
    DomainError,
    ProblemOracle,
    TheoryConstants,
    build_moment_problem,
    check_lambda_range,
    generate_synthetic_moment_data,
    make_logistic_reweighted,
    make_logistic_ridge,
    make_moment_matching,
    make_quadratic_ridge,
    quadratic_path_point,
    quadratic_theory_constants,
)
from .reports import OracleCounters, RunReport
from .steppers import (
    MaxIterationsError,
    PathRunError,
    StepDiagnostics,
    StepperConfig,
    decay_polynomial,
    direction_oracle,
    initialize_by_newton,
    initialize_from_omega,
    lambda_schedule,
    run_path,
    stepsize,
)

__version__ = "0.1.0"

# every public name bound above except the submodules the imports attach
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
