"""Oracle correctness for the four problem families.

Closed-form expectations are hand-computed; derivative consistency is checked
against central finite differences at seeded interior points.
"""

import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from pathode import (
    DegenerateProblemError,
    DomainError,
    GridSearchConfig,
    NotPositiveDefiniteError,
    StepperConfig,
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
    stepsize,
)
from pathode.cli import min_feasible_K
from pathode.datasets import generate_synthetic_logistic, generate_synthetic_quadratic
from pathode import problems
from pathode.problems import GEMM_GRAM_MAX, SPLIT_GRAM_MIN, _on_halves, _sigmoid_of_negated

from conftest import with_dense_solve


def fd_gradient(fn, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def f_hess(problem, x):
    return problem.hessian(x).f_hess()


def omega_hess(problem, x):
    return problem.hessian(x).omega_hess()


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
        assert np.allclose(f_hess(p, x), [[1.0]])
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
        handle = problem.hessian(x)
        for _ in range(5):
            v = rng.normal(size=problem.dim)
            assert np.allclose(handle.matvec(v, 0.0), handle.f_hess() @ v, rtol=1e-12, atol=1e-12)

    def test_batch_gradients_match_loop(self, quad30):
        _, _, problem = quad30
        rng = np.random.Generator(np.random.Philox(79))
        X = rng.normal(size=(7, problem.dim))
        G = problem.f_grad(X)
        assert G.shape == X.shape
        for i in range(7):
            assert np.allclose(G[i], problem.f_grad(X[i]), rtol=1e-13, atol=1e-13)
        Go = problem.omega_grad(X)
        assert np.array_equal(Go, X)

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

    @pytest.mark.parametrize("n, p, seed, scale", [(30, 20, 1, 1.0), (30, 20, 1, 10.0), (50, 5, 4, 1.0)])
    def test_certified_constants_match_an_svd_reference(self, n, p, seed, scale):
        # one eigvalsh of A'A gives mu, L and ||A||_2 = sqrt(lambda_max(A'A))
        A, b = generate_synthetic_quadratic(n, p, seed)
        A, b = scale * A, scale * b
        x0 = np.full(p, 0.1)
        cons, f_gap = quadratic_theory_constants(A, b, x0, 0.01, 10.0)
        sv = np.linalg.svd(A, compute_uv=False)
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        f0 = 0.5 * np.linalg.norm(A @ x0 - b) ** 2
        fstar = 0.5 * np.linalg.norm(A @ x_ls - b) ** 2
        R, R_star = math.sqrt(2.0 * f0), math.sqrt(2.0 * fstar)
        g_omega = np.linalg.norm(x_ls) + (R + R_star) / sv[-1]
        reference = dict(mu=sv[-1] ** 2, L=max(sv[0] ** 2, 1.0), G=max(sv[0] * R, g_omega))
        for name, value in reference.items():
            assert getattr(cons, name) == pytest.approx(value, rel=1e-13, abs=0.0), name
        assert f_gap == pytest.approx(f0 - fstar, rel=1e-12)


# ------------------------------------------------------------ logistic ridge


class TestLogisticRidge:
    def test_single_row_at_zero(self):
        # one sample a=1, y=+1: f(0) = ln 2, f'(0) = -1/2, f''(0) = 1/4
        p = make_logistic_ridge(np.array([[1.0]]), np.array([1.0]))
        x = np.zeros(1)
        assert p.f_value(x) == pytest.approx(np.log(2.0), rel=1e-15)
        assert p.f_grad(x) == pytest.approx([-0.5], rel=1e-15)
        assert np.allclose(f_hess(p, x), [[0.25]], rtol=1e-14)

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
        handle = problem.hessian(x)
        v = rng.normal(size=problem.dim)
        assert np.allclose(handle.matvec(v, 0.0), handle.f_hess() @ v, rtol=1e-12, atol=1e-14)

    def test_batch_gradient_blocks_agree(self):
        # exercise the internal row blocking with a batch larger than one block
        X, y = generate_synthetic_logistic(40, 3, 9)
        problem = make_logistic_ridge(X, y)
        rng = np.random.Generator(np.random.Philox(82))
        P = rng.normal(size=(23, 3))
        G = problem.f_grad(P)
        assert G.shape == P.shape
        for i in (0, 11, 22):
            assert np.allclose(G[i], problem.f_grad(P[i]), rtol=1e-12, atol=1e-14)

    # the benchmark's logistic-sweep (x16) and logistic-large instances and the CLI default;
    # the fourth-moment term binds on each, well above the gradient term
    @pytest.mark.parametrize(
        "n, p, seed, scale, fourth, grad",
        [(200, 30, 11, 16.0, 1.603e7, 114.0), (1000, 250, 11, 1.0, 15823.0, 0.556), (569, 30, 0, 1.0, 240.0, 0.376)],
        ids=["logistic-sweep", "logistic-large", "cli-default"],
    )
    def test_lipschitz_is_the_largest_modulus(self, n, p, seed, scale, fourth, grad):
        X, y = generate_synthetic_logistic(n, p, seed)
        A = scale * X
        norms = np.linalg.norm(A, axis=1)
        terms = [
            float(np.mean(norms)),
            float(np.linalg.svd(A, compute_uv=False)[0]) ** 2 / (4.0 * n),
            float(np.mean(norms**3)) / (6.0 * math.sqrt(3.0)),
            float(np.mean(norms**4)) / 4.0,
        ]
        assert make_logistic_ridge(A, y).lipschitz == max(1.0, *terms)
        assert terms[3] == max(terms) == pytest.approx(fourth, rel=1e-3)
        assert terms[1] == pytest.approx(grad, rel=2e-3)

    def test_hessian_psd_floor(self, logistic_small):
        problem = logistic_small
        rng = np.random.Generator(np.random.Philox(83))
        x = rng.normal(size=problem.dim)
        evals = np.linalg.eigvalsh(f_hess(problem, x))
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

    @pytest.mark.parametrize("factory", [make_logistic_ridge, make_logistic_reweighted])
    @pytest.mark.parametrize(
        "features", [np.ones((5, 3)), np.ones(4)], ids=["label-count", "1-d-features"]
    )
    def test_design_shape_checked(self, factory, features):
        # both factories want 2-D features with one label per row
        with pytest.raises(ValueError, match="shape mismatch"):
            factory(features, np.array([1.0, -1.0, 1.0, -1.0]))

    def test_finite_difference_gradient(self):
        X, y = generate_synthetic_logistic(30, 4, 12)
        problem = make_logistic_reweighted(X, y)
        rng = np.random.Generator(np.random.Philox(84))
        for _ in range(10):
            x = 0.5 * rng.normal(size=4)
            g = problem.f_grad(x)
            gfd = fd_gradient(problem.f_value, x)
            assert np.linalg.norm(g - gfd) <= 1e-5 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("family", ["quadratic", "logistic", "reweighted"])
@pytest.mark.parametrize(
    "value, inside",
    [(0.25, True), (1e308, True), (math.nan, False), (math.inf, False), (-math.inf, False)],
    ids=["finite", "1e308", "nan", "+inf", "-inf"],
)
def test_unconstrained_domain_is_the_finite_points(family, value, inside):
    # the ridge and reweighted oracles accept every finite point and nothing else
    X, y = generate_synthetic_logistic(12, 3, 5)
    problem = {
        "quadratic": lambda: make_quadratic_ridge(*generate_synthetic_quadratic(12, 3, 5)),
        "logistic": lambda: make_logistic_ridge(X, y),
        "reweighted": lambda: make_logistic_reweighted(X, y),
    }[family]()
    x = np.full(3, 0.25)
    x[1] = value
    assert problem.domain_check(x) is inside


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
        assert np.allclose(omega_hess(problem, y), [[6.0, 3.0], [3.0, 6.0]], rtol=1e-12)

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
        assert not problem.domain_check(np.array([0.2, 0.3, 0.1]))  # wrong shape
        assert not problem.domain_check(np.array([[0.2, 0.3]]))  # row points, not a point

    def test_domain_errors_raised_exactly_off_domain(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        A, b = build_moment_problem(w, x_true, 1)
        problem = make_moment_matching(A, b)
        bad = np.array([-0.1, 0.5])
        for fn in (problem.omega_value, problem.omega_grad, problem.hessian):
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

    def test_overflowing_atom_powers_rejected_without_a_warning(self):
        # w ** 2 = 1e400 once printed three overflow warnings before the run failed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the atom powers w \*\* k, k <= 3, overflow"):
                build_moment_problem(np.array([1e200, 0.5, 0.0]), np.array([0.3, 0.3, 0.4]), 3)


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
            handle = problem.hessian(y)
            assert np.allclose(handle.f_hess(), Q, rtol=1e-12, atol=1e-14)
            assert np.allclose(handle.matvec(v, 0.0), Q @ v, rtol=1e-12, atol=1e-14)
        G = problem.f_grad(Y)
        assert G.shape == Y.shape
        for i, y in enumerate(Y):
            assert np.allclose(G[i], problem.f_grad(y), rtol=1e-12, atol=1e-14)

    def test_hessian_handle_checks_the_domain(self):
        w, x_true = generate_synthetic_moment_data(2, 4)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 1))
        for bad in ([-0.1, 0.5], [0.6, 0.4], [np.nan, 0.1]):
            with pytest.raises(DomainError):
                problem.hessian(np.array(bad))

    @pytest.mark.parametrize("bad", [[np.nan, 0.1], [0.0, 0.3], [0.6, 0.4], [0.7, 0.5]])
    def test_batch_omega_gradient_raises_where_a_point_does(self, bad):
        # a NaN row, a zero entry, a row summing to exactly 1 and one summing past it
        w, x_true = generate_synthetic_moment_data(2, 4)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 1))
        good = np.array([[0.2, 0.3], [0.4, 0.3]])
        assert np.array_equal(problem.omega_grad(good)[1], problem.omega_grad(good[1]))
        with pytest.raises(DomainError) as point:
            problem.omega_grad(np.array(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as batch:
                problem.omega_grad(np.array([good[0], bad, good[1]]))
        assert str(batch.value) == str(point.value)


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

    def test_matvec_has_the_bits_of_its_formula(self):
        # the CG product sums v by v.sum(), np.sum's bits without numpy's wrapper
        w, x_true = generate_synthetic_moment_data(12, 2)
        A, b = build_moment_problem(w, x_true, 5)
        problem = make_moment_matching(A, b)
        rng = np.random.Generator(np.random.Philox(95))
        for y in interior_moment_points(problem, rng, 4):
            handle, rest = problem.hessian(y), 1.0 - float(np.sum(y))
            for lam in (1e-3, 0.7, 40.0):
                v = rng.normal(size=12) * 10.0 ** rng.uniform(-3, 3, size=12)
                assert np.array_equal(handle.matvec(v, lam), A.T @ (A @ v) + lam * (v / y + np.sum(v) / rest))

    @PROPERTY_SETTINGS
    @given(moment_points())
    def test_factored_form_is_the_total_hessian(self, case):
        problem, lam, y, _ = case
        d, V = problem.hessian(y).lowrank(lam)
        H = problem.total_hess(y, lam)
        assert d.shape == (problem.dim,) and V.shape[0] == problem.dim
        assert np.linalg.norm(np.diag(d) + V @ V.T - H) <= 1e-12 * np.linalg.norm(H)

    @PROPERTY_SETTINGS
    @given(moment_points())
    def test_direction_matches_cholesky_within_conditioning(self, case):
        problem, lam, y, g = case
        H = problem.total_hess(y, lam)
        res = problem.hessian(y).solve(g, lam)
        ref = solve_spd(H, g).direction
        # Cholesky's forward error scales with cond(H); Woodbury's also with
        # the cancellation in D^-1 g - D^-1 V C^-1 V' D^-1 g, which grows with
        # the norm of the capacitance matrix C = I + V' D^-1 V
        evals = np.linalg.eigvalsh(H)
        kappa = evals[-1] / evals[0] if evals[0] > 0.0 else np.inf
        d, V = problem.hessian(y).lowrank(lam)
        cap = np.eye(V.shape[1]) + V.T @ (V / d[:, None])
        scale = max(kappa, np.linalg.norm(cap, 2))
        assert np.linalg.norm(res.direction - ref) <= 32.0 * scale * EPS * np.linalg.norm(ref)

    @PROPERTY_SETTINGS
    @given(moment_points())
    def test_certificate_is_the_dense_residual(self, case):
        problem, lam, y, g = case
        res = problem.hessian(y).solve(g, lam)
        d, V = problem.hessian(y).lowrank(lam)
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


# margins at the kernel's edges: the clip (709), past exp's overflow (709.78),
# past expit's underflow to 0 (745), the smallest normal and subnormals
SIGMOID_SPECIALS = [
    math.inf, -math.inf, math.nan, 800.0, -800.0, 709.5, -709.5, 709.0,
    2.2250738585072014e-308, 1e-310, 5e-324, -5e-324, 0.0, -0.0,
]  # fmt: skip


@st.composite
def logistic_instances(draw):
    """(problem, Ab, points) for a logistic ridge whose margins reach past the clip at scale 16."""
    p, rows = draw(st.integers(1, 25)), draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.sampled_from([0.1, 1.0, 16.0]))
    X, y = generate_synthetic_logistic(rows, p, seed)
    points = scale * np.random.Generator(np.random.Philox(seed)).normal(size=(3, p))
    return make_logistic_ridge(scale * X, y), y[:, None] * (scale * X), points


class TestSigmoidKernel:
    """The logistic family's one sigmoid is expit(-z) on numpy's exp, in place."""

    @PROPERTY_SETTINGS
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
            elements=st.one_of(st.sampled_from(SIGMOID_SPECIALS), st.floats()),
        )
    )
    def test_is_expit_of_negated_in_place(self, z):
        ref = expit(-z)
        given_z = z.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid_of_negated(given_z)
        assert out is given_z  # the input is overwritten: callers pass a fresh product
        nan = np.isnan(z)
        assert np.array_equal(np.isnan(out), nan)
        err, clipped = np.abs(out - ref), z > 709.0
        assert np.all(err[clipped] <= 2e-308)
        kept = ~nan & ~clipped
        assert np.all(err[kept] <= 4.0 * np.spacing(ref[kept]))

    @PROPERTY_SETTINGS
    @given(logistic_instances())
    def test_gradients_match_an_expit_reference(self, case):
        # the kernel is 4 ulp from expit (2e-308 past the clip), and each
        # product rounds within gamma |Ab|' s / n
        problem, Ab, points = case
        n, dim = Ab.shape
        gamma = 2.0 * (n + dim + 8) * EPS

        def bar(s):
            return gamma * np.linalg.norm(np.abs(Ab).T @ s) / n + 2e-308 * np.abs(Ab).sum() / n

        for x in points:
            s = expit(-(Ab @ x))
            assert np.linalg.norm(problem.f_grad(x) - (-(Ab.T @ s) / n)) <= bar(s)
        S = expit(-(points @ Ab.T))
        for row, ref, s in zip(problem.f_grad(points), -(S @ Ab) / n, S):
            assert np.linalg.norm(row - ref) <= bar(s)

    @PROPERTY_SETTINGS
    @given(logistic_instances())
    def test_value_has_the_bits_of_np_mean(self, case):
        problem, Ab, points = case
        for x in points:
            assert problem.f_value(x) == float(np.mean(np.logaddexp(0.0, -(Ab @ x))))


def gram_reference(kernel, Ab, w):
    """f'' = Ab' diag(w / n) Ab by the named kernel's own products, for comparing bits."""
    n = Ab.shape[0]
    if kernel == "gemm":
        return (np.ascontiguousarray(Ab.T) * (w / n)) @ Ab

    def syrk(rows):
        B = Ab[rows] * np.sqrt(w[rows] / n)[:, None]
        return B.T @ B

    if kernel == "syrk":
        return syrk(slice(None))
    return syrk(slice(0, n // 2)) + syrk(slice(n // 2, n))


class TestGramKernels:
    """f'' by gemm, syrk or two half syrks, forced on shapes either side of the rules, is
    A' diag(w / n) A within rounding; the oracle picks the kernel by n p^2."""

    KERNELS = ("gemm", "syrk", "split")

    @pytest.mark.parametrize("n, p, kernel", [(200, 30, "gemm"), (300, 80, "syrk"), (300, 170, "split")])
    def test_the_oracle_picks_the_kernel_by_shape(self, n, p, kernel):
        # logistic-sweep's 200 x 30 and the bit-pinned 300 x 80 stay whole, logistic-large splits
        assert 200 * 30 * 30 <= GEMM_GRAM_MAX < 300 * 80 * 80
        assert 300 * 80 * 80 < SPLIT_GRAM_MIN <= 300 * 170 * 170 < 1000 * 250 * 250
        X, y = generate_synthetic_logistic(n, p, 5)
        handle = make_logistic_ridge(X, y).hessian(np.random.Generator(np.random.Philox(92)).normal(size=p))
        H, Ab = handle.f_hess(), y[:, None] * X
        assert [k for k in self.KERNELS if np.array_equal(H, gram_reference(k, Ab, handle.w))] == [kernel]

    @pytest.mark.parametrize("n, p", [(60, 8), (200, 30), (300, 80), (50, 300)])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_each_kernel_gives_f_hess_and_a_certified_solve(self, monkeypatch, n, p, kernel):
        # (GEMM_GRAM_MAX, SPLIT_GRAM_MIN) that force the kernel on any shape
        gemm_max, split_min = {"gemm": (math.inf, math.inf), "syrk": (0, math.inf), "split": (0, 0)}[kernel]
        monkeypatch.setattr(problems, "GEMM_GRAM_MAX", gemm_max)
        monkeypatch.setattr(problems, "SPLIT_GRAM_MIN", split_min)
        X, y = generate_synthetic_logistic(n, p, 5)
        problem = make_logistic_ridge(X, y)
        Ab = y[:, None] * X
        rng = np.random.Generator(np.random.Philox(n + p))
        gamma = 2.0 * (n + 8) * EPS
        for lam in (1e-3, 1.0):
            handle = problem.hessian(rng.normal(size=p))
            H = handle.f_hess()
            assert np.array_equal(H, gram_reference(kernel, Ab, handle.w))
            absolute = np.einsum("ij,i,ik->jk", np.abs(X), handle.w / n, np.abs(X))
            ref = np.einsum("ij,i,ik->jk", X, handle.w / n, X)
            assert np.all(np.abs(H - ref) <= gamma * absolute)
            # an exact solve of H + lam I: the certificate is its residual, and Cholesky's is
            # within gamma_3p (|R'| |R| |y| + |g|) <= gamma_3p p (||H|| ||y|| + ||g||)
            g = rng.normal(size=p)
            res = handle.solve(g, lam)
            total = ref + lam * np.eye(p)
            ynorm, gnorm = np.linalg.norm(res.direction), np.linalg.norm(g)
            bar = 6.0 * p * p * EPS * (np.linalg.norm(total) * ynorm + gnorm)
            assert res.residual_norm <= bar
            recomputed = np.linalg.norm(total @ res.direction + g)
            assert abs(res.residual_norm - recomputed) <= gamma * np.sqrt(p) * np.linalg.norm(total) * ynorm + bar


# prints the CPUs it may run on and the SHA-256 of three results on TestTwoHalves' design;
# argv[1] is a CPU to confine the process to before pathode and numpy load, or "inherited"
_CPU_COUNT_SCRIPT = """
import hashlib, json, os, sys
if sys.argv[1] != "inherited":
    os.sched_setaffinity(0, {{int(sys.argv[1])}})
import numpy as np
from pathode import make_logistic_ridge
from pathode.datasets import generate_synthetic_logistic

X, y = generate_synthetic_logistic({n}, {p}, 5)
problem = make_logistic_ridge(X, y)
rng = np.random.Generator(np.random.Philox(94))
x, g = rng.normal(size={p}), rng.normal(size={p})
handle = problem.hessian(x)
P = rng.normal(size=(37, {p})) / np.sqrt({p})
outs = (handle.f_hess(), handle.solve(g, 0.1).direction, problem.f_grad(P))
digests = [hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() for out in outs]
print(json.dumps({{"cpus": len(os.sched_getaffinity(0)), "digests": digests}}))
"""


class TestTwoHalves:
    """From n p^2 = SPLIT_GRAM_MIN on, f'' and batched gradients are two half-design products."""

    N, P = 300, 170  # 8.67e6, just above SPLIT_GRAM_MIN

    def large(self):
        X, y = generate_synthetic_logistic(self.N, self.P, 5)
        return X, y, make_logistic_ridge(X, y)

    def test_f_hess_and_row_gradients_match_the_single_product(self):
        X, y, problem = self.large()
        n = self.N
        Ab = y[:, None] * X
        gamma = 2.0 * (n + 8) * EPS  # TestGramKernels' bound
        rng = np.random.Generator(np.random.Philox(93))
        handle = problem.hessian(rng.normal(size=self.P) / np.sqrt(self.P))
        absolute = np.einsum("ij,i,ik->jk", np.abs(X), handle.w / n, np.abs(X))
        ref = np.einsum("ij,i,ik->jk", X, handle.w / n, X)
        assert np.all(np.abs(handle.f_hess() - ref) <= gamma * absolute)
        # each margin within gamma |P| |Ab|', so each sigmoid within a quarter of that
        P = rng.normal(size=(37, self.P)) / np.sqrt(self.P)
        S = _sigmoid_of_negated(P @ Ab.T)
        bound = gamma * ((S + 0.25 * np.abs(P) @ np.abs(Ab).T) @ np.abs(Ab)) / n
        assert np.all(np.abs(problem.f_grad(P) - (-(S @ Ab) / n)) <= bound)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_the_bits_do_not_depend_on_the_cpu_count(self):
        # two fresh interpreters with one-thread OpenBLAS: one confined to a single CPU, one not
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = _CPU_COUNT_SCRIPT.format(n=self.N, p=self.P)
        runs = []
        for cpus in (str(min(os.sched_getaffinity(0))), "inherited"):
            proc = subprocess.run(
                [sys.executable, "-c", script, cpus], capture_output=True, text=True, timeout=120, env=env
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        assert runs[0]["cpus"] == 1 and len(runs[0]["digests"]) == 3
        assert runs[0]["digests"] == runs[1]["digests"]

    @pytest.mark.parametrize("failing", ["top", "bottom"])
    def test_a_failing_half_raises_after_the_other_finishes(self, failing):
        finished = []

        def fn(rows):
            if (rows.start == 0) == (failing == "top"):
                raise RuntimeError(failing)
            time.sleep(0.05)
            finished.append((rows, threading.current_thread() is threading.main_thread()))
            return rows

        with pytest.raises(RuntimeError, match=failing):
            _on_halves(fn, 0, 10)
        # the top half runs on the caller's thread, the bottom on the worker
        assert finished == ([(slice(5, 10), False)] if failing == "top" else [(slice(0, 5), True)])
        assert _on_halves(lambda rows: (rows.start, rows.stop), 3, 12) == ((3, 7), (7, 12))

    def test_callers_on_many_threads_share_the_worker(self):
        # more callers than CPUs, switching often: each batch keeps the bits of a lone call
        *_, problem = self.large()
        rng = np.random.Generator(np.random.Philox(96))
        batches = [rng.normal(size=(9, self.P)) / np.sqrt(self.P) for _ in range(4)]
        expected = [problem.f_grad(P) for P in batches]
        results = [[] for _ in batches]

        def caller(i):
            for _ in range(5):
                results[i].append(problem.f_grad(batches[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert len(got) == 5 and all(np.array_equal(g, want) for g in got)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_its_own_worker(self):
        # the parent's worker thread is not copied into the child; a child still holding the
        # parent's executor waits for it forever, and the alarm ends it with SIGALRM
        assert _on_halves(lambda rows: rows.stop, 0, 2) == (1, 2)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by its exit status
            signal.alarm(10)
            os._exit(0 if _on_halves(lambda rows: rows.stop, 0, 2) == (1, 2) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


def fd_jacobian(grad, x, h=1e-6):
    """Central differences of grad at x, one column per coordinate."""
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((grad(x + e) - grad(x - e)) / (2 * h))
    return np.column_stack(cols)


def _handle_fd_cases():
    rng = np.random.Generator(np.random.Philox(87))
    yield "quadratic", make_quadratic_ridge(*generate_synthetic_quadratic(30, 20, 1)), [
        rng.normal(size=20) for _ in range(3)
    ]
    yield "logistic", make_logistic_ridge(*generate_synthetic_logistic(50, 10, 3)), [
        0.5 * rng.normal(size=10) for _ in range(3)
    ]
    yield "reweighted", make_logistic_reweighted(*generate_synthetic_logistic(30, 4, 12)), [
        0.5 * rng.normal(size=4) for _ in range(3)
    ]
    w, x_true = generate_synthetic_moment_data(8, 5)
    moment = make_moment_matching(*build_moment_problem(w, x_true, 3))
    yield "moment", moment, interior_moment_points(moment, rng, 3)


HANDLE_FD_CASES = {name: (problem, points) for name, problem, points in _handle_fd_cases()}


@pytest.mark.parametrize("family", list(HANDLE_FD_CASES))
def test_handle_hessians_are_the_gradients_derivatives(family):
    problem, points = HANDLE_FD_CASES[family]
    for x in points:
        handle = problem.hessian(x)
        for H, grad in ((handle.f_hess(), problem.f_grad), (handle.omega_hess(), problem.omega_grad)):
            fd = fd_jacobian(grad, x)
            assert np.linalg.norm(H - fd) <= 1e-6 * (1.0 + np.linalg.norm(H))


@st.composite
def oracle_points(draw):
    """(problem, rows, lam, x, g, v) for a random oracle of any family.

    rows is the number of terms summed into one Hessian entry (data rows,
    or moments plus one), which scales the rounding bars below.
    """
    family = draw(st.sampled_from(["quadratic", "logistic", "moment", "reweighted"]))
    if family == "moment":
        problem, lam, x, _ = draw(moment_points())
        rows = problem.hessian(x).lowrank(lam)[1].shape[1]
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
    """The problem as given and with its handles solving the assembled total_hess."""
    return problem, with_dense_solve(problem)


class TestHessianHandles:
    """Every family's handle is hess F_lam(x) = f_hess() + lam omega_hess()."""

    @PROPERTY_SETTINGS
    @given(oracle_points())
    def test_grad_is_f_grad_and_matvec_is_total_hess(self, case):
        problem, rows, lam, x, _, v = case
        handle = problem.hessian(x)
        assert np.array_equal(handle.grad_f(), problem.f_grad(x))
        # both products round within gamma |A'| |A| |v| (or |H| |v|), and the
        # trace of the PSD f'' <= trace H bounds || |A'| |A| ||_2 <= sqrt(p) ||H||_F
        H = problem.total_hess(x, lam)
        gamma = 2.0 * (rows + problem.dim + 8) * EPS
        bar = gamma * np.sqrt(problem.dim) * np.linalg.norm(H) * np.linalg.norm(v)
        assert np.linalg.norm(handle.matvec(v, lam) - H @ v) <= bar
        # a row of a batch gradient is its point's gradient up to the rounding of a
        # differently blocked product, within gamma (sqrt(p) ||H_term|| ||y|| + ||g||);
        # the base point and the midpoint keep the moment rows inside the simplex
        base = problem.base_point()
        X = np.array([x, 0.5 * (x + base), base])
        for grad, term in ((problem.f_grad, "f_hess"), (problem.omega_grad, "omega_hess")):
            G = grad(X)
            assert G.shape == X.shape
            for row, y in zip(G, X):
                g, H_term = grad(y), getattr(problem.hessian(y), term)()
                size = np.sqrt(problem.dim) * np.linalg.norm(H_term) * np.linalg.norm(y)
                assert np.linalg.norm(row - g) <= gamma * (size + np.linalg.norm(g))

    @PROPERTY_SETTINGS
    @given(oracle_points(), st.data())
    def test_one_handle_answers_any_lambdas_like_fresh_handles(self, case, data):
        # a handle holds only its point's data: any sequence of lambdas, repeats and
        # any order included, gets from it the bits a fresh handle per call gives
        problem, _, lam, x, g, v = case
        pool = [lam, 10.0 ** data.draw(st.floats(-3.0, 3.0)), 10.0 ** data.draw(st.floats(-3.0, 3.0))]
        lams = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6), label="lams")
        handle = problem.hessian(x)
        for mu in lams:
            assert np.array_equal(handle.matvec(v, mu), problem.hessian(x).matvec(v, mu))
            try:
                res = handle.solve(g, mu)
            except NotPositiveDefiniteError as exc:  # the reweighted f'' + mu Omega'' may be singular
                with pytest.raises(NotPositiveDefiniteError, match=re.escape(str(exc))):
                    problem.hessian(x).solve(g, mu)
                continue
            fresh = problem.hessian(x).solve(g, mu)
            assert np.array_equal(res.direction, fresh.direction)
            assert np.array_equal(res.residual_vector, fresh.residual_vector)
            assert (res.residual_norm, res.initial_residual, res.converged) == (
                fresh.residual_norm, fresh.initial_residual, fresh.converged
            )

    @PROPERTY_SETTINGS
    @given(oracle_points())
    def test_solve_matches_cholesky_of_total_hess(self, case):
        problem, rows, lam, x, g, _ = case
        H = problem.total_hess(x, lam)
        res = problem.hessian(x).solve(g, lam)
        ref = solve_spd(H, g)
        y, dim = res.direction, problem.dim
        assert res.converged and res.inner_iterations == 0
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
                    variant.hessian(x).solve(g, lam)
            assert not isinstance(info.value, NotPositiveDefiniteError)

    @PROPERTY_SETTINGS
    @given(oracle_points())
    def test_negative_definite_system_raises(self, case):
        problem, _, _, x, g, _ = case
        # hess Omega >= sigma_min I, so this lam leaves hess F_lam <= -I
        sigma_min = np.linalg.eigvalsh(omega_hess(problem, x))[0]
        assume(sigma_min > 1e-6)
        lam = -(np.linalg.norm(f_hess(problem, x), 2) + 1.0) / sigma_min
        for variant in handle_variants(problem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPositiveDefiniteError):
                    variant.hessian(x).solve(g, lam)

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.6, 0.4], [np.nan, 0.1], [np.inf, 0.1]])
    def test_out_of_domain_point_raises(self, bad):
        w, x_true = generate_synthetic_moment_data(2, 4)
        problem = make_moment_matching(*build_moment_problem(w, x_true, 1))
        for variant in handle_variants(problem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    variant.hessian(np.array(bad)).solve(np.ones(2), 1.0)

    def test_refinement_recovers_the_direction_near_the_face(self):
        # y = 0.9999 leaves 1 - sum y = 1e-4: the rank-one entropy term is 1e4
        # and Woodbury alone cancels to 2.5e-12 relative
        problem = make_moment_matching(np.array([[0.5]]), np.array([0.6]))
        y = np.array([0.9999])
        handle = problem.hessian(y)
        g = handle.grad_f()
        ref = solve_spd(problem.total_hess(y, 1.0), g).direction
        assert np.linalg.norm(handle.solve(g, 1.0).direction - ref) <= 1e-14 * np.linalg.norm(ref)


# --------------------------------------------------------- TheoryConstants


class TestTheoryConstants:
    def test_derived_fields(self):
        c = TheoryConstants(mu=0.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.01, lambda_max=1.0)
        assert c.tau == pytest.approx((1.0 + 0.01) / (0.0 + 0.01 * 1.0), rel=1e-15)
        assert c.T_euler == pytest.approx(np.log(100.0), rel=1e-15)
        assert c.T_trap == pytest.approx(1.1 * np.log(100.0), rel=1e-15)
        assert c.mu_tilde == pytest.approx(0.01, rel=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateProblemError):
            TheoryConstants(mu=0.0, sigma=0.0, L=1.0, G=1.0, lambda_min=0.1, lambda_max=1.0)

    GOOD = dict(mu=0.5, sigma=1.0, L=2.0, G=3.0, lambda_min=0.1, lambda_max=10.0)

    @pytest.mark.parametrize(
        "bad",
        [
            # built raw, this record once made k_trapezoid divide by zero
            dict(mu=0, sigma=0, L=-1, G=3, lambda_min=5, lambda_max=1),
            dict(L=0.0),
            dict(L=-1.0),
            dict(G=-1.0),
            dict(mu=-0.5),
            dict(sigma=-1.0),
            dict(mu=0.0, sigma=0.0),
            dict(lambda_min=10.0),
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            TheoryConstants(**{**self.GOOD, **bad})

    def test_derived_fields_are_not_inputs(self):
        with pytest.raises(TypeError):
            TheoryConstants(**self.GOOD, tau=1.0, T_euler=1.0, T_trap=1.0, mu_tilde=1.0)

    def test_inputs_stored_as_float(self):
        c = TheoryConstants(mu=1, sigma=np.float64(1.0), L=2, G=3, lambda_min=1, lambda_max=10)
        assert all(type(v) is float for k, v in dataclasses.asdict(c).items() if k != "estimated")

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(["mu", "sigma", "L", "G", "lambda_min", "lambda_max"]),
        value=st.floats(0.05, 5.0),
    )
    def test_replace_rederives(self, field, value):
        # dataclasses.replace once kept the old tau, T_euler, T_trap and mu_tilde
        inputs = {**self.GOOD, field: value}
        assume(inputs["lambda_min"] < inputs["lambda_max"])
        c = dataclasses.replace(TheoryConstants(**self.GOOD, estimated=True), **{field: value})
        assert c == TheoryConstants(**inputs, estimated=True)
        assert c.mu_tilde == inputs["mu"] + inputs["lambda_min"] * inputs["sigma"]
        assert c.T_euler == math.log(inputs["lambda_max"] / inputs["lambda_min"])

    def test_replace_example(self):
        c = dataclasses.replace(TheoryConstants(**self.GOOD), lambda_min=0.01)
        assert c.mu_tilde == 0.5 + 0.01
        assert c.T_euler == math.log(1000.0)
        assert c.T_trap == 1.1 * math.log(1000.0)
        assert c.tau == max(1.01 / 0.51, 11.0 / 10.5)

    def test_frozen(self):
        c = TheoryConstants(**self.GOOD)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.mu_tilde = 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: make_quadratic_ridge(np.array([[1.0, v], [0.0, 1.0]]), np.ones(2)),
        lambda v: make_quadratic_ridge(np.eye(2), np.array([1.0, v])),
        lambda v: make_logistic_ridge(np.array([[1.0], [v]]), np.array([1.0, -1.0])),
        lambda v: make_logistic_reweighted(np.array([[1.0], [v]]), np.array([1.0, -1.0])),
        lambda v: build_moment_problem(np.array([0.5, v, 0.0]), np.full(3, 1 / 3), 2),
        lambda v: build_moment_problem(np.array([0.5, 0.2, 0.0]), np.array([0.5, 0.5, v]), 2),
        lambda v: make_moment_matching(np.array([[1.0, v]]), np.ones(1)),
        lambda v: make_moment_matching(np.ones((1, 2)), np.array([v])),
    ],
    ids=[
        "quadratic-A", "quadratic-b", "logistic", "logistic-reweighted", "moment-w", "moment-x",
        "moment-matching-A", "moment-matching-b",
    ],
)
def test_nonfinite_data_rejected(build, bad):
    # a NaN or infinite entry once reached the eigensolvers, or the simplex checks let it pass
    with pytest.raises(ValueError, match="must be finite"):
        build(bad)


# ------------------------------------------------------ least-squares term


class TestLeastSquaresTerm:
    """f = 0.5 ||A x - b||^2 of the quadratic and moment families, and the logistic design."""

    @pytest.mark.parametrize("factory", [make_quadratic_ridge, make_moment_matching])
    @pytest.mark.parametrize("shape", [(30, 20), (5, 40), (6, 6), (20, 30), (5, 8), (5, 12)])
    def test_gradient_goes_through_the_gram_matrix_while_p_is_below_2n(self, factory, shape):
        # p^2 flops per point through Q against 2 n p through A' and A; both forms
        # agree within the rounding of the factored products
        rng = np.random.Generator(np.random.Philox(90))
        A, b = rng.normal(size=shape), rng.normal(size=shape[0])
        problem = factory(A, b)

        def gram(X):
            return X @ (A.T @ A) - A.T @ b

        def factored(X):
            return (X @ A.T - b) @ A

        rule = gram if 2 * shape[0] > shape[1] else factored
        Y = rng.uniform(0.1, 0.9, size=(3, shape[1])) / shape[1]  # inside the simplex too
        assert np.array_equal(problem.f_grad(Y), rule(Y))
        assert np.array_equal(problem.f_grad(Y[0]), rule(Y[0]))
        bound = 2.0 * sum(shape) * EPS * ((np.abs(Y) @ np.abs(A).T + np.abs(b)) @ np.abs(A))
        assert np.all(np.abs(gram(Y) - factored(Y)) <= bound)
        r = A @ Y[0] - b
        assert problem.f_value(Y[0]) == 0.5 * float(r @ r)

    @pytest.mark.parametrize("factory", [make_quadratic_ridge, make_moment_matching])
    @pytest.mark.parametrize(
        "A, b", [([[1e200, 1.0]], [1.0]), ([[1.0], [1.0]], [1e308, 1e308])], ids=["AtA", "Atb"]
    )
    def test_overflowing_products_rejected_without_a_warning(self, factory, A, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="A'A and A'b must not overflow"):
                factory(np.array(A), np.array(b))

    @pytest.mark.parametrize("n, p, scale", [(60, 8, 1.0), (200, 30, 16.0), (300, 80, 1.0)])
    def test_logistic_handle_keeps_one_design_with_the_same_bits(self, n, p, scale):
        # the handle once held the unlabelled A beside Ab; each row enters f'' and
        # f'' v twice, so Ab gives A's bits, also from the CSV loader's strided view,
        # by the gemm kernel below GEMM_GRAM_MAX (the first two) and by syrk above it
        X, y = generate_synthetic_logistic(n, p, 11)
        data = np.hstack([y[:, None], scale * X])
        A = data[:, 1:]
        problem = make_logistic_ridge(A, data[:, 0])
        rng = np.random.Generator(np.random.Philox(91))
        for _ in range(3):
            handle = problem.hessian(rng.normal(size=p) / scale)
            assert not hasattr(handle, "A")
            kernel = "gemm" if n * p * p <= GEMM_GRAM_MAX else "syrk"
            assert np.array_equal(handle.f_hess(), gram_reference(kernel, A, handle.w))
            v = rng.normal(size=p)
            assert np.array_equal(handle.f_hessvec(v), A.T @ (handle.w * (A @ v)) / n)


class TestFrozenConfigs:
    CONFIGS = {
        "StepperConfig": lambda: StepperConfig("euler", 400, 0.01, 10.0),
        "GridSearchConfig": lambda: GridSearchConfig(5, "newton", 1e-8, 0.01, 10.0),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_assignment_raises(self, name):
        # StepperConfig's K once took a new value while h stayed at the old K's
        cfg = self.CONFIGS[name]()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lambda_min = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, "K" if name == "StepperConfig" else "num_points", 800)

    def test_replace_rederives_the_step_size(self):
        cfg = dataclasses.replace(self.CONFIGS["StepperConfig"](), K=800)
        assert cfg.h == stepsize("euler", 800, 0.01, 10.0)


# ------------------------------------------------------------ lambda range


class TestLambdaRange:
    """Every consumer of a path range rejects the same ranges with the same message."""

    ORDER = "need 0 < lambda_min < lambda_max < inf"
    RATIO = "lambda_max / lambda_min overflows"
    BAD = {
        "lambda_max=inf": (0.01, math.inf, ORDER),
        "lambda_min=nan": (math.nan, 10.0, ORDER),
        "lambda_max=nan": (0.01, math.nan, ORDER),
        "lambda_min=lambda_max": (10.0, 10.0, ORDER),
        "lambda_min>lambda_max": (10.0, 0.01, ORDER),
        "lambda_min=0": (0.0, 10.0, ORDER),
        "lambda_min<0": (-1.0, 10.0, ORDER),
        # a finite range whose ratio is not: its schedule's rho underflows to 0
        "ratio=inf": (1e-300, 1e300, RATIO),
    }
    CONSUMERS = {
        "StepperConfig": lambda lo, hi: StepperConfig("euler", 20, lo, hi),
        "GridSearchConfig": lambda lo, hi: GridSearchConfig(5, "newton", 1e-8, lo, hi),
        "TheoryConstants": lambda lo, hi: TheoryConstants(
            mu=1.0, sigma=1.0, L=1.0, G=1.0, lambda_min=lo, lambda_max=hi
        ),
        "min_feasible_K": lambda lo, hi: min_feasible_K("trapezoid", lo, hi),
    }

    @pytest.mark.parametrize("bad", list(BAD))
    @pytest.mark.parametrize("consumer", list(CONSUMERS))
    def test_rejected_with_one_message(self, consumer, bad):
        # StepperConfig("euler", 20, 0.01, inf) once got h = 1.0
        lo, hi, requirement = self.BAD[bad]
        message = f"{requirement}, got [{lo}, {hi}]"
        with pytest.raises(ValueError) as exc:
            self.CONSUMERS[consumer](lo, hi)
        assert str(exc.value) == message
