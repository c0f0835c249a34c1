"""Oracle correctness for the four problem families.

Closed-form expectations are hand-computed; derivative consistency is checked
against central finite differences at seeded interior points.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pathode import (
    DegenerateProblemError,
    DenseHessian,
    DomainError,
    NotPositiveDefiniteError,
    TheoryConstants,
    build_moment_problem,
    generate_synthetic_moment_data,
    make_logistic_reweighted,
    make_logistic_ridge,
    make_moment_matching,
    make_quadratic_ridge,
    quadratic_path_point,
    quadratic_theory_constants,
    solve_spd,
)
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic


def fd_gradient(fn, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def interior_moment_points(problem, rng, count):
    """Random points strictly inside the reduced simplex."""
    pts = []
    while len(pts) < count:
        y = rng.dirichlet(np.ones(problem.dim + 1))[:-1]
        y = 0.9 * y + 0.1 / (problem.dim + 1)  # pull off the boundary
        if problem.domain_check(y):
            pts.append(y)
    return pts


# ----------------------------------------------------------- quadratic ridge


class TestQuadraticRidge:
    def test_scalar_values_at_zero(self):
        p = make_quadratic_ridge(np.array([[1.0]]), np.array([1.0]))
        x = np.zeros(1)
        assert p.f_value(x) == pytest.approx(0.5)
        assert p.f_grad(x) == pytest.approx([-1.0])
        assert np.allclose(p.f_hess(x), [[1.0]])
        assert p.omega_value(x) == 0.0

    def test_scalar_path_point(self):
        # x(lam) = (A^T A + lam I)^{-1} A^T b = 1/(1+lam) here
        x = quadratic_path_point(np.array([[1.0]]), np.array([1.0]), 1.0)
        assert x == pytest.approx([0.5], abs=1e-15)

    def test_identity_design_path_point(self):
        A = np.eye(2)
        b = np.array([2.0, 4.0])
        x = quadratic_path_point(A, b, 1.0)
        assert x == pytest.approx([1.0, 2.0], abs=1e-14)

    def test_path_point_kills_total_gradient(self, quad30):
        A, b, problem = quad30
        for lam in (0.01, 0.5, 3.0, 10.0):
            x = quadratic_path_point(A, b, lam)
            assert np.linalg.norm(problem.total_grad(x, lam)) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic_ridge(np.ones((3, 2)), np.ones(4))

    def test_finite_difference_gradient(self, quad30):
        _, _, problem = quad30
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(20):
            x = rng.normal(size=problem.dim)
            g = problem.f_grad(x)
            gfd = fd_gradient(problem.f_value, x)
            assert np.linalg.norm(g - gfd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_hessvec_matches_dense_hessian(self, quad30):
        _, _, problem = quad30
        rng = np.random.Generator(np.random.Philox(78))
        x = rng.normal(size=problem.dim)
        H = problem.f_hess(x)
        for _ in range(5):
            v = rng.normal(size=problem.dim)
            assert np.allclose(problem.f_hessvec(x, v), H @ v, rtol=1e-12, atol=1e-12)

    def test_batch_gradients_match_loop(self, quad30):
        _, _, problem = quad30
        rng = np.random.Generator(np.random.Philox(79))
        X = rng.normal(size=(7, problem.dim))
        G = problem.f_grad_batch(X)
        for i in range(7):
            assert np.allclose(G[i], problem.f_grad(X[i]), rtol=1e-13, atol=1e-13)
        Go = problem.omega_grad_batch(X)
        assert np.allclose(Go, X)

    def test_certified_constants(self, quad30, quad30_start):
        A, b, _ = quad30
        cons, f_gap = quadratic_theory_constants(A, b, quad30_start, 0.01, 10.0)
        evals = np.linalg.eigvalsh(A.T @ A)
        assert cons.L == pytest.approx(evals[-1], rel=1e-12)
        assert cons.mu == pytest.approx(evals[0], rel=1e-12)
        assert cons.sigma == 1.0
        assert not cons.estimated
        # f_gap = f(x0) - f(x_ls), both closed-form
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        f0 = 0.5 * np.linalg.norm(A @ quad30_start - b) ** 2
        fstar = 0.5 * np.linalg.norm(A @ x_ls - b) ** 2
        assert f_gap == pytest.approx(f0 - fstar, rel=1e-12)


# ------------------------------------------------------------ logistic ridge


class TestLogisticRidge:
    def test_single_row_at_zero(self):
        # one sample a=1, y=+1: f(0) = ln 2, f'(0) = -1/2, f''(0) = 1/4
        p = make_logistic_ridge(np.array([[1.0]]), np.array([1.0]))
        x = np.zeros(1)
        assert p.f_value(x) == pytest.approx(np.log(2.0), rel=1e-15)
        assert p.f_grad(x) == pytest.approx([-0.5], rel=1e-15)
        assert np.allclose(p.f_hess(x), [[0.25]], rtol=1e-14)

    def test_two_row_gradient_at_zero(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, -1.0])
        p = make_logistic_ridge(X, y)
        # rows cancel to mean of (-1/2, +1/2)
        assert p.f_grad(np.zeros(1)) == pytest.approx([0.0], abs=1e-16)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            make_logistic_ridge(np.ones((2, 1)), np.array([1.0, 0.0]))

    def test_finite_difference_gradient(self, logistic_small):
        problem = logistic_small
        rng = np.random.Generator(np.random.Philox(80))
        for _ in range(20):
            x = 0.5 * rng.normal(size=problem.dim)
            g = problem.f_grad(x)
            gfd = fd_gradient(problem.f_value, x)
            assert np.linalg.norm(g - gfd) <= 1e-5 * (1.0 + np.linalg.norm(g))

    def test_hessvec_consistency(self, logistic_small):
        problem = logistic_small
        rng = np.random.Generator(np.random.Philox(81))
        x = rng.normal(size=problem.dim)
        H = problem.f_hess(x)
        v = rng.normal(size=problem.dim)
        assert np.allclose(problem.f_hessvec(x, v), H @ v, rtol=1e-12, atol=1e-14)

    def test_batch_gradient_blocks_agree(self):
        # exercise the internal row blocking with a batch larger than one block
        X, y = generate_synthetic_logistic(40, 3, 9)
        problem = make_logistic_ridge(X, y)
        rng = np.random.Generator(np.random.Philox(82))
        P = rng.normal(size=(23, 3))
        G = problem.f_grad_batch(P)
        for i in (0, 11, 22):
            assert np.allclose(G[i], problem.f_grad(P[i]), rtol=1e-12, atol=1e-14)

    def test_hessian_psd_floor(self, logistic_small):
        problem = logistic_small
        rng = np.random.Generator(np.random.Philox(83))
        x = rng.normal(size=problem.dim)
        evals = np.linalg.eigvalsh(problem.f_hess(x))
        assert evals[0] >= -1e-12


# ------------------------------------------------------- reweighted logistic


class TestReweightedLogistic:
    def test_balanced_pair_values(self):
        # one sample per class, weights 1/2 each: value ln 2 at zero
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, -1.0])
        p = make_logistic_reweighted(X, y)
        assert p.f_value(np.zeros(1)) == pytest.approx(np.log(2.0), rel=1e-15)
        assert p.sigma == 0.0
        assert p.omega_minimizer is None

    def test_reweighting_ignores_class_imbalance(self):
        # duplicated +1 rows must not change the class-averaged loss
        Xa = np.array([[1.0], [1.0], [2.0]])
        ya = np.array([1.0, 1.0, -1.0])
        Xb = np.array([[1.0], [2.0]])
        yb = np.array([1.0, -1.0])
        pa = make_logistic_reweighted(Xa, ya)
        pb = make_logistic_reweighted(Xb, yb)
        x = np.array([0.3])
        assert pa.f_value(x) == pytest.approx(pb.f_value(x), rel=1e-14)
        assert pa.f_grad(x) == pytest.approx(pb.f_grad(x), rel=1e-13)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            make_logistic_reweighted(np.ones((2, 1)), np.array([1.0, 1.0]))

    def test_finite_difference_gradient(self):
        X, y = generate_synthetic_logistic(30, 4, 12)
        problem = make_logistic_reweighted(X, y)
        rng = np.random.Generator(np.random.Philox(84))
        for _ in range(10):
            x = 0.5 * rng.normal(size=4)
            g = problem.f_grad(x)
            gfd = fd_gradient(problem.f_value, x)
            assert np.linalg.norm(g - gfd) <= 1e-5 * (1.0 + np.linalg.norm(g))


# ------------------------------------------------------------ moment match


class TestMomentMatching:
    def test_reduction_example(self):
        # atoms {1/2, 0}, weights (1/2, 1/2), one moment: E[x] = 1/4
        w = np.array([0.5, 0.0])
        x_true = np.array([0.5, 0.5])
        A, b = build_moment_problem(w, x_true, 1)
        assert np.allclose(A, [[0.5]])
        assert b == pytest.approx([0.25])

    def test_reduction_strips_closing_atom(self):
        # atoms {1/2, 1, 0}; reduced design keeps the two free columns
        w = np.array([0.5, 1.0, 0.0])
        x_true = np.array([0.2, 0.3, 0.5])
        A, b = build_moment_problem(w, x_true, 2)
        assert A.shape == (2, 2)
        assert np.allclose(A, [[0.5, 1.0], [0.25, 1.0]])
        # closing atom at zero contributes nothing to the moments
        assert b == pytest.approx([0.2 * 0.5 + 0.3, 0.2 * 0.25 + 0.3], rel=1e-12)

    def test_moment_cap(self):
        w, x_true = generate_synthetic_moment_data(10, 0)
        with pytest.raises(ValueError):
            build_moment_problem(w, x_true, 31)

    def test_entropy_uniform_two_atoms(self):
        # reduced coordinate y = 1/2: Omega = sum y ln y over both weights = -ln 2
        w, x_true = generate_synthetic_moment_data(1, 4)
        A, b = build_moment_problem(w, x_true, 1)
        problem = make_moment_matching(A, b)
        y = np.array([0.5])
        assert problem.omega_value(y) == pytest.approx(-np.log(2.0), rel=1e-14)
        assert problem.omega_grad(y) == pytest.approx([0.0], abs=1e-14)

    def test_entropy_uniform_three_atoms_hessian(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        A, b = build_moment_problem(w, x_true, 1)
        problem = make_moment_matching(A, b)
        y = np.array([1.0 / 3.0, 1.0 / 3.0])
        # diag 1/y_i plus rank-one 1/y_last: [[6,3],[3,6]] at the uniform point
        assert np.allclose(problem.omega_hess(y), [[6.0, 3.0], [3.0, 6.0]], rtol=1e-12)

    def test_entropy_gradient_example(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        A, b = build_moment_problem(w, x_true, 1)
        problem = make_moment_matching(A, b)
        y = np.array([0.5, 0.25])
        # grad_i = ln y_i - ln y_last; y_last = 1/4
        assert problem.omega_grad(y) == pytest.approx([np.log(2.0), 0.0], abs=1e-14)

    def test_domain_check_boundary(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        A, b = build_moment_problem(w, x_true, 1)
        problem = make_moment_matching(A, b)
        assert problem.domain_check(np.array([0.2, 0.3]))
        assert not problem.domain_check(np.array([0.0, 0.3]))  # zero coordinate
        assert not problem.domain_check(np.array([0.6, 0.4]))  # last weight zero
        assert not problem.domain_check(np.array([0.7, 0.5]))  # leaves the simplex

    def test_domain_errors_raised_exactly_off_domain(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        A, b = build_moment_problem(w, x_true, 1)
        problem = make_moment_matching(A, b)
        bad = np.array([-0.1, 0.5])
        for fn in (problem.omega_value, problem.omega_grad, problem.omega_hess):
            with pytest.raises(DomainError):
                fn(bad)
        good = np.array([0.4, 0.3])
        problem.omega_value(good)
        problem.omega_grad(good)

    def test_finite_difference_gradient_interior(self):
        w, x_true = generate_synthetic_moment_data(8, 5)
        A, b = build_moment_problem(w, x_true, 3)
        problem = make_moment_matching(A, b)
        rng = np.random.Generator(np.random.Philox(85))
        for y in interior_moment_points(problem, rng, 10):
            g = problem.omega_grad(y)
            gfd = fd_gradient(problem.omega_value, y)
            assert np.linalg.norm(g - gfd) <= 1e-5 * (1.0 + np.linalg.norm(g))
            gf = problem.f_grad(y)
            gffd = fd_gradient(problem.f_value, y)
            assert np.linalg.norm(gf - gffd) <= 1e-5 * (1.0 + np.linalg.norm(gf))

    def test_synthetic_mixture_is_interior_distribution(self):
        w, x_true = generate_synthetic_moment_data(50, 7)
        assert w.shape == (51,) and x_true.shape == (51,)
        assert w[-1] == 0.0  # closing atom pinned at zero
        assert np.all(x_true > 0.0)
        assert np.sum(x_true) == pytest.approx(1.0, abs=1e-12)
        w2, x2 = generate_synthetic_moment_data(50, 7)
        assert np.array_equal(w, w2) and np.array_equal(x_true, x2)

    def test_off_simplex_mixture_rejected(self):
        with pytest.raises(ValueError):
            build_moment_problem(np.array([0.5, 0.0]), np.array([0.1, 1.1]), 1)

    def test_unpinned_closing_atom_rejected(self):
        with pytest.raises(ValueError):
            build_moment_problem(np.array([0.5, 0.6]), np.array([0.5, 0.5]), 1)


    @pytest.mark.parametrize("p", [6, 50])
    def test_mu_is_exactly_zero_below_full_rank(self, p):
        # A'A has rank <= 5 < p: any positive mu would be eigvalsh rounding
        w, x_true = generate_synthetic_moment_data(p, 3)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 5))
        assert problem.mu == 0.0

    def test_mu_is_the_min_eigenvalue_at_full_rank(self):
        w, x_true = generate_synthetic_moment_data(3, 3)
        A, b = build_moment_problem(w, x_true, 5)
        problem = make_moment_matching(A, b)
        assert problem.mu == np.linalg.eigvalsh(A.T @ A)[0] > 0.0

    def test_factored_f_side_matches_the_gram_matrix(self):
        w, x_true = generate_synthetic_moment_data(40, 6)
        A, b = build_moment_problem(w, x_true, 5)
        problem = make_moment_matching(A, b)
        Q = A.T @ A
        rng = np.random.Generator(np.random.Philox(86))
        Y = np.array(interior_moment_points(problem, rng, 6))
        for y in Y:
            v = rng.normal(size=40)
            assert np.allclose(problem.f_grad(y), Q @ y - A.T @ b, rtol=1e-12, atol=1e-14)
            assert np.allclose(problem.f_hessvec(y, v), Q @ v, rtol=1e-12, atol=1e-14)
        G = problem.f_grad_batch(Y)
        assert G.shape == Y.shape
        for i, y in enumerate(Y):
            assert np.allclose(G[i], problem.f_grad(y), rtol=1e-12, atol=1e-14)

    def test_hessian_handle_checks_the_domain(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 1))
        for bad in ([-0.1, 0.5], [0.6, 0.4], [np.nan, 0.1]):
            with pytest.raises(DomainError):
                problem.hessian(np.array(bad), 1.0)

    def test_only_the_reweighted_family_falls_back_to_dense(self, quad30, logistic_small):
        assert quad30[2].hessian_at is not None
        assert logistic_small.hessian_at is not None
        w, x_true = generate_synthetic_moment_data(2, 4)
        assert make_moment_matching(*build_moment_problem(w, x_true, 1)).hessian_at is not None
        X, y = generate_synthetic_logistic(20, 3, 1)
        reweighted = make_logistic_reweighted(X, y)
        assert reweighted.hessian_at is None
        assert isinstance(reweighted.hessian(np.zeros(3), 1.0), DenseHessian)


@st.composite
def moment_points(draw):
    """A random moment instance, lambda, and an interior point that may hug the boundary.

    The point keeps 1 - sum y >= rest (down to 1e-9) and pulls one
    coordinate down to min_y (down to 1e-12).
    """
    p = draw(st.integers(1, 60))
    n_moments = draw(st.integers(1, min(p + 1, 10)))
    seed = draw(st.integers(0, 2**16))
    lam = 10.0 ** draw(st.floats(-4.0, 4.0))
    rest = 10.0 ** -draw(st.floats(0.3, 9.0))
    min_y = 10.0 ** -draw(st.floats(0.0, 12.0))
    w, x_true = generate_synthetic_moment_data(p, seed)
    problem = make_moment_matching(*build_moment_problem(w, x_true, n_moments))
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.uniform(0.1, 1.0, size=p)
    y = u / u.sum() * (1.0 - rest)
    j = int(rng.integers(p))
    y[j] = min(y[j], min_y)
    assume(problem.domain_check(y))
    return problem, lam, y, rng.normal(size=p)


EPS = np.finfo(float).eps
PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


class TestMomentHessianStructure:
    """diag(d) + V V' is the moment Hessian, and Woodbury solves it like Cholesky."""

    @PROPERTY_SETTINGS
    @given(moment_points())
    def test_factored_form_is_the_total_hessian(self, case):
        problem, lam, y, _ = case
        d, V = problem.hessian(y, lam).lowrank()
        H = problem.total_hess(y, lam)
        assert d.shape == (problem.dim,) and V.shape[0] == problem.dim
        assert np.linalg.norm(np.diag(d) + V @ V.T - H) <= 1e-12 * np.linalg.norm(H)

    @PROPERTY_SETTINGS
    @given(moment_points())
    def test_direction_matches_cholesky_within_conditioning(self, case):
        problem, lam, y, g = case
        H = problem.total_hess(y, lam)
        res = problem.hessian(y, lam).solve(g)
        ref = solve_spd(H, g).direction
        dense = dataclasses.replace(problem, hessian_at=None).hessian(y, lam).solve(g)
        assert np.array_equal(dense.direction, ref)
        # Cholesky's forward error scales with cond(H); Woodbury's also with
        # the cancellation in D^-1 g - D^-1 V C^-1 V' D^-1 g, which grows with
        # the norm of the capacitance matrix C = I + V' D^-1 V
        evals = np.linalg.eigvalsh(H)
        kappa = evals[-1] / evals[0] if evals[0] > 0.0 else np.inf
        d, V = problem.hessian(y, lam).lowrank()
        cap = np.eye(V.shape[1]) + V.T @ (V / d[:, None])
        scale = max(kappa, np.linalg.norm(cap, 2))
        assert np.linalg.norm(res.direction - ref) <= 32.0 * scale * EPS * np.linalg.norm(ref)

    @PROPERTY_SETTINGS
    @given(moment_points())
    def test_certificate_is_the_dense_residual(self, case):
        problem, lam, y, g = case
        res = problem.hessian(y, lam).solve(g)
        d, V = problem.hessian(y, lam).lowrank()
        H = problem.total_hess(y, lam)
        x = res.direction
        # both residuals are rounded evaluations of H x + g: they agree to
        # within the componentwise error bound of the two products
        ax = np.abs(x)
        scale = (
            np.linalg.norm(np.abs(H) @ ax)
            + np.linalg.norm(np.abs(V) @ (np.abs(V).T @ ax))
            + np.linalg.norm(g)
        )
        gamma = (problem.dim + V.shape[1] + 2) * EPS
        assert abs(res.residual_norm - np.linalg.norm(H @ x + g)) <= gamma * scale
        assert res.residual_norm == np.linalg.norm(res.residual_vector)


# ------------------------------------------------------ Hessian handles


@st.composite
def oracle_points(draw):
    """(problem, rows, lam, x, g, v) for a random oracle of any family.

    rows is the number of terms summed into one Hessian entry (data rows,
    or moments plus one), which scales the rounding bars below.  The
    reweighted family has no hessian_at, so its handle is the dense one.
    """
    family = draw(st.sampled_from(["quadratic", "logistic", "moment", "reweighted"]))
    if family == "moment":
        problem, lam, x, _ = draw(moment_points())
        rows = problem.hessian(x, lam).lowrank()[1].shape[1]
    else:
        p, rows = draw(st.integers(1, 25)), draw(st.integers(2, 60))
        seed = draw(st.integers(0, 2**16))
        lam = 10.0 ** draw(st.floats(-3.0, 3.0))
        scale = draw(st.sampled_from([0.1, 1.0, 16.0]))
        if family == "quadratic":
            problem = make_quadratic_ridge(*generate_synthetic_quadratic(rows, p, seed))
        else:
            X, y = generate_synthetic_logistic(rows, p, seed)
            make = make_logistic_ridge if family == "logistic" else make_logistic_reweighted
            problem = make(scale * X, y)
        x = scale * np.random.Generator(np.random.Philox(seed)).normal(size=p)
    # the reweighted Omega is only semidefinite
    assume(np.linalg.eigvalsh(problem.total_hess(x, lam))[0] > 0.0)
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**16))))
    return problem, rows, lam, x, rng.normal(size=problem.dim), rng.normal(size=problem.dim)


def handle_variants(problem):
    """The problem as given and with its structured handle switched off."""
    return problem, dataclasses.replace(problem, hessian_at=None)


class TestHessianHandles:
    """Every family's handle is hess F_lam(x) as the dense callables define it."""

    @PROPERTY_SETTINGS
    @given(oracle_points())
    def test_grad_and_matvec_are_the_callables(self, case):
        problem, _, lam, x, _, v = case
        handle = problem.hessian(x, lam)
        assert np.array_equal(handle.grad_f(), problem.f_grad(x))
        dense = problem.f_hessvec(x, v) + lam * problem.omega_hessvec(x, v)
        assert np.array_equal(handle.matvec(v), dense)

    @PROPERTY_SETTINGS
    @given(oracle_points())
    def test_solve_matches_cholesky_of_total_hess(self, case):
        problem, rows, lam, x, g, _ = case
        H = problem.total_hess(x, lam)
        res = problem.hessian(x, lam).solve(g)
        ref = solve_spd(H, g)
        y, dim = res.direction, problem.dim
        assert res.mode == "exact" and res.converged and res.inner_iterations == 0
        assert res.initial_residual == np.linalg.norm(g)
        assert res.residual_norm == np.linalg.norm(res.residual_vector)
        # the certificate is H y + g up to the rounding of either evaluation;
        # |H| entries are bounded by sqrt(H_ii H_jj), so || |H| |y| || <= sqrt(p) ||H||_F ||y||
        gamma = 2.0 * (rows + dim + 8) * EPS
        size = np.sqrt(dim) * np.linalg.norm(H)
        gnorm, ynorm, refnorm = (np.linalg.norm(v) for v in (g, y, ref.direction))
        recomputed = np.linalg.norm(H @ y + g)
        assert abs(res.residual_norm - recomputed) <= gamma * (size * ynorm + gnorm)
        # each direction lies within its true residual / lambda_min(H) of the exact one
        slack = gamma * (size * (ynorm + refnorm) + 2.0 * gnorm)
        distance = np.linalg.norm(y - ref.direction)
        assert distance <= (recomputed + ref.residual_norm + slack) / np.linalg.eigvalsh(H)[0]

    @PROPERTY_SETTINGS
    @given(oracle_points(), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    def test_nonfinite_input_raises_value_error(self, case, value, in_lam):
        problem, _, lam, x, g, _ = case
        if in_lam:
            lam = float("nan")
        else:
            g[len(g) // 2] = value
        for variant in handle_variants(problem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite") as info:
                    variant.hessian(x, lam).solve(g)
            assert not isinstance(info.value, NotPositiveDefiniteError)

    @PROPERTY_SETTINGS
    @given(oracle_points())
    def test_negative_definite_system_raises(self, case):
        problem, _, _, x, g, _ = case
        # hess Omega >= sigma_min I, so this lam leaves hess F_lam <= -I
        sigma_min = np.linalg.eigvalsh(problem.omega_hess(x))[0]
        assume(sigma_min > 1e-6)
        lam = -(np.linalg.norm(problem.f_hess(x), 2) + 1.0) / sigma_min
        for variant in handle_variants(problem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPositiveDefiniteError):
                    variant.hessian(x, lam).solve(g)

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.6, 0.4], [np.nan, 0.1], [np.inf, 0.1]])
    def test_out_of_domain_point_raises(self, bad):
        w, x_true = generate_synthetic_moment_data(2, 4)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 1))
        for variant in handle_variants(problem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    variant.hessian(np.array(bad), 1.0).solve(np.ones(2))

    def test_refinement_recovers_the_direction_near_the_face(self):
        # y = 0.9999 leaves 1 - sum y = 1e-4: the rank-one entropy term is 1e4
        # and Woodbury alone cancels to 2.5e-12 relative
        problem = make_moment_matching(np.array([[0.5]]), np.array([0.6]))
        y = np.array([0.9999])
        handle = problem.hessian(y, 1.0)
        g = handle.grad_f()
        ref = solve_spd(problem.total_hess(y, 1.0), g).direction
        assert np.linalg.norm(handle.solve(g).direction - ref) <= 1e-14 * np.linalg.norm(ref)


# --------------------------------------------------------- TheoryConstants


class TestTheoryConstants:
    def test_derived_fields(self):
        c = TheoryConstants.derive(mu=0.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.01, lambda_max=1.0)
        assert c.tau == pytest.approx((1.0 + 0.01) / (0.0 + 0.01 * 1.0), rel=1e-15)
        assert c.T_euler == pytest.approx(np.log(100.0), rel=1e-15)
        assert c.T_trap == pytest.approx(1.1 * np.log(100.0), rel=1e-15)
        assert c.mu_tilde == pytest.approx(0.01, rel=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateProblemError):
            TheoryConstants.derive(mu=0.0, sigma=0.0, L=1.0, G=1.0, lambda_min=0.1, lambda_max=1.0)
