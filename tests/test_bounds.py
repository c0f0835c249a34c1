"""Iteration-bound calculators, per-step bound formulas, and estimators."""

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from pathode import (
    K_BOUNDS,
    TheoryConstants,
    estimate_constants,
    estimate_f_gap,
    k_euler,
    k_euler_approx,
    k_trapezoid,
    k_trapezoid_approx,
    make_logistic_ridge,
    step_bound_euler,
    step_bound_euler_approx,
    step_bound_trapezoid,
    step_bound_trapezoid_approx,
    stepsize_bounds,
)
from pathode.datasets import generate_synthetic_logistic


def tau_one_euler():
    """mu = sigma = 1 makes (1+lambda)/(mu+lambda sigma) = 1 identically, so
    tau = 1 regardless of the interval; lambda_max = e gives T_euler = 1."""
    return TheoryConstants(
        mu=1.0, sigma=1.0, L=1.0, G=1.0, lambda_min=1.0, lambda_max=math.e
    )


def unit_trap():
    """tau = 1 as above, mu_tilde = 2, T_trap = 1.1 ln(lambda_max) = 1."""
    return TheoryConstants(
        mu=1.0, sigma=1.0, L=1.0, G=1.0, lambda_min=1.0, lambda_max=math.exp(1.0 / 1.1)
    )


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu", "sigma", "L", "G", "lambda_max"])
    def test_rejects_nonfinite_constants(self, name, bad):
        # a NaN constant lost every comparison in the bounds' max, and an
        # infinite one overflowed math.ceil
        kwargs = dict(mu=1.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.1, lambda_max=1.0)
        kwargs[name] = bad
        with pytest.raises(ValueError, match="must be finite|lambda_max < inf"):
            TheoryConstants(**kwargs)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("method", list(K_BOUNDS))
    def test_every_calculator_rejects_bad_eps(self, method, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            K_BOUNDS[method](tau_one_euler(), eps, 0.0)

    @pytest.mark.parametrize("f_gap", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("calculator", list(K_BOUNDS.values()))
    def test_gap_calculators_reject_bad_f_gap(self, calculator, f_gap):
        # k_euler(c, nan, 0.0) once returned 29, and a NaN gap dropped its term;
        # the calculators without a gap term once ignored it
        with pytest.raises(ValueError, match="f_gap must be finite and nonnegative"):
            calculator(tau_one_euler(), 1e-3, f_gap)


    @pytest.mark.parametrize("method", list(K_BOUNDS))
    def test_overflowing_term_rejected(self, method):
        # an infinite binding term once ended in math.ceil's OverflowError
        c = TheoryConstants(mu=1.0, sigma=1.0, L=1e308, G=1e308, lambda_min=0.1, lambda_max=1.0)
        with pytest.raises(ValueError, match=rf"^{method} bound term \w+ = inf: the inputs overflow it$"):
            K_BOUNDS[method](c, 1e-3, 0.0)

    def test_nan_term_rejected(self):
        # tau = 1.01 / 1e-320 overflows, so tau G and f_gap tau are nan; the
        # horizon term once won the max over them and the report held nan
        c = TheoryConstants(mu=1e-320, sigma=0.0, L=1.0, G=0.0, lambda_min=0.01, lambda_max=10.0)
        with pytest.raises(ValueError, match="^euler bound term curvature = nan: the inputs"):
            k_euler(c, 1e-3, 0.0)


class TestKEuler:
    def test_unit_example(self):
        # tau = T = L = G = 1, f_gap = 0, eps = 1:
        # max{2, 1/sqrt(3), 0, 2*(1+1)} = 4
        rep = k_euler(tau_one_euler(), eps=1.0, f_gap=0.0)
        assert rep.K_required == 4
        assert rep.binding_term == "interpolation"
        assert rep.terms["curvature"] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_terms_match_hand_arithmetic(self):
        c = TheoryConstants(
            mu=0.0, sigma=1.0, L=3.0, G=2.0, lambda_min=0.5, lambda_max=5.0
        )
        eps, f_gap = 0.1, 0.7
        rep = k_euler(c, eps, f_gap)
        T = math.log(10.0)
        expect = {
            "horizon": 2.0 * T,
            "curvature": math.sqrt(3.0 * 2.0) * c.tau * T / math.sqrt(3.0),
            "objective_gap": 4.0 * f_gap * c.tau * 3.0 * T / eps,
            "interpolation": 2.0 * math.sqrt(3.0) * (c.tau * 2.0 + 1.0) * T / math.sqrt(eps),
        }
        for name, val in expect.items():
            assert rep.terms[name] == pytest.approx(val, rel=1e-13)
        assert rep.K_required == math.ceil(max(expect.values()))
        assert rep.binding_term == max(expect, key=expect.get)

    def test_eps_quarter_quadruples_when_gap_binds(self):
        c = tau_one_euler()
        K1 = k_euler(c, eps=1.0, f_gap=62.5).K_required  # gap term = 250
        K2 = k_euler(c, eps=0.25, f_gap=62.5).K_required  # gap term = 1000
        assert (K1, K2) == (250, 1000)

    def test_large_gap_example(self):
        # mu=0, sigma=1, lambda in [0.01, 1]: tau = 101, T = ln 100;
        # gap term 4 * 1 * 101 * ln(100) / 0.01 = 186048.9 binds
        c = TheoryConstants(mu=0.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.01, lambda_max=1.0)
        rep = k_euler(c, eps=0.01, f_gap=1.0)
        assert rep.K_required == 186049
        assert rep.binding_term == "objective_gap"

    def test_report_serialization(self):
        rep = k_euler(tau_one_euler(), eps=0.5, f_gap=1.0)
        payload = json.loads(rep.to_json())
        assert payload["K_required"] == rep.K_required
        assert payload["binding_term"] == rep.binding_term
        assert payload["inputs_echo"]["eps"] == 0.5
        assert payload["inputs_echo"]["constants"]["tau"] == pytest.approx(1.0)


class TestKTrapezoid:
    def test_unit_example(self):
        # max{10, 8, 6*2^{3/2}, 5*2^{4/3}} = max{10, 8, 16.97, 12.6} -> 17
        rep = k_trapezoid(unit_trap(), eps=1.0)
        assert rep.K_required == 17
        assert rep.binding_term == "third_order"
        assert rep.terms["conditioning"] == pytest.approx(8.0, rel=1e-12)

    def test_unit_example_small_eps(self):
        # same constants at eps = 1e-4: 6 * 2^{3/2} * 100 = 1697.06 -> 1698
        rep = k_trapezoid(unit_trap(), eps=1e-4)
        assert rep.K_required == 1698

    def test_eps_quarter_doubles_when_sqrt_term_binds(self):
        c = unit_trap()
        K1 = k_trapezoid(c, eps=1e-2).K_required  # 169.7 -> 170
        K2 = k_trapezoid(c, eps=0.25e-2).K_required  # 339.4 -> 340
        assert (K1, K2) == (170, 340)


class TestApproxBounds:
    def test_euler_approx_unit_example(self):
        # interpolation term 4 sqrt(L) (tau (G + eps) + 1) T / sqrt(eps)
        # = 4 * (1*2 + 1) = 12 at tau = G = eps = 1
        rep = k_euler_approx(tau_one_euler(), eps=1.0, f_gap=0.0)
        assert rep.K_required == 12
        assert rep.binding_term == "interpolation"

    def test_trapezoid_approx_unit_example(self):
        # (2+G) replaces (1+G): max{10, 12, 6*3^{3/2}, 6*3^{4/3}}
        # = max{10, 12, 31.18, 25.96} -> 32
        rep = k_trapezoid_approx(unit_trap(), eps=1.0)
        assert rep.K_required == 32
        assert rep.binding_term == "third_order"
        assert rep.terms["fourth_order"] == pytest.approx(6.0 * 3.0 ** (4.0 / 3.0), rel=1e-12)

    def test_gap_term_coefficient_doubles(self):
        # the approx gap term carries 8 where the exact one carries 4
        c = tau_one_euler()
        exact = k_euler(c, eps=1e-3, f_gap=50.0).K_required
        approx = k_euler_approx(c, eps=1e-3, f_gap=50.0).K_required
        assert approx == 2 * exact  # gap term binds for both at this eps

    def test_eps_above_mu_tilde_warns_but_evaluates(self):
        c = TheoryConstants(
            mu=0.0, sigma=1.0, L=1.0, G=1.0, lambda_min=0.01, lambda_max=1.0
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = k_euler_approx(c, eps=1.0, f_gap=0.0)  # eps > mu_tilde = 0.01
        assert rep.K_required >= 1
        assert rep.warnings
        assert any("mu" in str(w.message) for w in caught)


class TestStepsizeBounds:
    def test_equality_meets_the_cap(self):
        # tau^2 L G = 12 makes sqrt(3/(tau^2 L G)) = 1/2, meeting the cap
        c = TheoryConstants(
            mu=1.0, sigma=1.0, L=3.0, G=4.0, lambda_min=1.0, lambda_max=2.0
        )
        assert c.tau == pytest.approx(1.0)
        general, simplified = stepsize_bounds(c, 1.9)
        assert simplified == pytest.approx(0.5, rel=1e-15)
        assert 0.5 <= min(general, simplified) + 1e-15

    def test_half_cap(self):
        # both bounds are capped at 1/2, however mild L, G
        c = TheoryConstants(
            mu=1.0, sigma=1.0, L=1.0, G=1.0, lambda_min=1.0, lambda_max=2.0
        )
        assert stepsize_bounds(c, 1.9) == (0.5, 0.5)

    def test_curvature_shrinks_simplified_bound(self):
        c = TheoryConstants(
            mu=1.0, sigma=1.0, L=48.0, G=1.0, lambda_min=1.0, lambda_max=2.0
        )
        general, simplified = stepsize_bounds(c, 1.9)
        assert simplified == pytest.approx(0.25, rel=1e-15)
        # general uses mu + lambda sigma = 2.9
        assert general == pytest.approx(min(0.5, 2.9 * math.sqrt(3.0 / 48.0)), rel=1e-15)

    def test_rejects_nonpositive_lambda(self):
        c = TheoryConstants(
            mu=1.0, sigma=1.0, L=1.0, G=1.0, lambda_min=1.0, lambda_max=2.0
        )
        for lam in (0.0, -1.9, math.nan):
            with pytest.raises(ValueError):
                stepsize_bounds(c, lam)


class TestStepBounds:
    def test_euler_zero_inputs(self):
        assert step_bound_euler(0.0, 1.0, 0.9, 0.1, 1.0, 0.0) == 0.0

    def test_euler_worked_example(self):
        # 0.9 * 1 + 0.01 * 1 * (1 + 0.9)/2 * 1 = 0.9095; with lambda_{k+1}=1
        # (ratio still 0.9) the curvature factor is (1+1)/2 and the bound 0.91
        got = step_bound_euler(1.0, 1.0, 0.9, 0.1, 1.0, 1.0)
        assert got == pytest.approx(0.9 + 0.01 * 1.0 * (1.0 + 0.9) / 2.0, rel=1e-15)

    def test_trapezoid_worked_example(self):
        # r_k = 0: 3 h^3 L (1+G)^3 + 2 h^4 L^3 tau^2 (1+G)^4
        #        = 3e-3 * 8 + 2e-4 * 16 = 0.0272
        got = step_bound_trapezoid(0.0, 0.9, 0.1, 1.0, 1.0, 1.0)
        assert got == pytest.approx(0.0272, rel=1e-14)

    def test_euler_approx_adds_h_delta(self):
        base = step_bound_euler(1.0, 1.0, 0.9, 0.1, 1.0, 1.0)
        robust = step_bound_euler_approx(1.0, 1.0, 0.9, 0.1, 1.0, 1.0, 0.25)
        assert robust == pytest.approx(base + 0.1 * 0.25, rel=1e-14)

    def test_trapezoid_approx_worked_example(self):
        # (2+G) polynomials plus the stage-residual leakage:
        # 0.9*0.5 + 3e-3*27 + 2e-4*81 + (h/2)||d1-d2|| + (h^2/2)||d1||
        d1 = np.array([3e-3, 4e-3])  # norm 5e-3
        d2 = np.array([0.0, 0.0])
        robust = step_bound_trapezoid_approx(0.5, 0.9, 0.1, 1.0, 1.0, 1.0, d1, d2)
        expect = 0.45 + 3e-3 * 27.0 + 2e-4 * 81.0 + 0.05 * 5e-3 + 0.005 * 5e-3
        assert robust == pytest.approx(expect, rel=1e-14)

    def test_trapezoid_approx_uses_stage_difference(self):
        # equal stage residuals cancel in the ||d1 - d2|| term
        d = np.array([3e-3, 4e-3])
        same = step_bound_trapezoid_approx(0.0, 0.9, 0.1, 1.0, 1.0, 1.0, d, d)
        opposed = step_bound_trapezoid_approx(0.0, 0.9, 0.1, 1.0, 1.0, 1.0, d, -d)
        assert opposed - same == pytest.approx(0.05 * 2.0 * 5e-3, rel=1e-12)


class TestEstimators:
    def test_quadratic_L_matches_eigensolve(self, quad30):
        A, b, problem = quad30
        cons = estimate_constants(problem, (0.01, 10.0), sample_count=32, seed=3)
        true_L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert cons.L == pytest.approx(true_L, rel=1e-4)
        assert cons.estimated

    def test_L_is_not_biased_low(self):
        # the mean logistic Hessian is largest at x = 0, a sampled point; an
        # iterative norm estimate stopped at 1e-6 relative lands 1.4e-5 low here
        X, y = generate_synthetic_logistic(200, 30, 11)
        problem = make_logistic_ridge(X * 16.0, y)
        cons = estimate_constants(problem, (1e-2, 1e2), sample_count=64, seed=1)
        exact = float(np.linalg.norm(problem.hessian(np.zeros(30)).f_hess(), 2))
        assert cons.L >= exact * (1.0 - 1e-14)

    def test_sigma_identity_regularizer(self, quad30):
        _, _, problem = quad30
        cons = estimate_constants(problem, (0.01, 10.0), sample_count=8, seed=3)
        assert cons.sigma == pytest.approx(1.0, rel=1e-8)

    def test_monotone_in_sample_count(self, quad30):
        _, _, problem = quad30
        small = estimate_constants(problem, (0.01, 10.0), sample_count=8, seed=5)
        large = estimate_constants(problem, (0.01, 10.0), sample_count=32, seed=5)
        assert large.G >= small.G - 1e-12
        assert large.L >= small.L - 1e-12

    def test_deterministic_given_seed(self, quad30):
        _, _, problem = quad30
        a = estimate_constants(problem, (0.01, 10.0), sample_count=16, seed=9)
        b = estimate_constants(problem, (0.01, 10.0), sample_count=16, seed=9)
        assert asdict(a) == asdict(b)

    def test_f_gap_is_a_nonnegative_lower_bound(self, quad30, quad30_start):
        A, b, problem = quad30
        est = estimate_f_gap(problem, quad30_start, sample_count=32, seed=3)
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        analytic = problem.f_value(quad30_start) - problem.f_value(x_ls)
        assert 0.0 <= est <= analytic + 1e-12

    def test_f_gap_positive_from_a_bad_start(self, quad30):
        _, _, problem = quad30
        est = estimate_f_gap(problem, np.ones(20) * 3.0, sample_count=64, seed=3)
        assert est > 0.0

    def test_moment_estimation_respects_domain(self):
        from pathode import build_moment_problem, generate_synthetic_moment_data, make_moment_matching

        w, x_true = generate_synthetic_moment_data(6, 3)
        A, b = build_moment_problem(w, x_true, 3)
        problem = make_moment_matching(A, b)
        cons = estimate_constants(problem, (0.1, 1.0), sample_count=16, seed=2)
        assert np.isfinite(cons.L) and cons.L > 0.0
        assert cons.sigma >= 1.0 - 1e-9  # entropy Hessian dominates identity
