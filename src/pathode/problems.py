"""Problem oracles for parametric objectives F_lambda(x) = f(x) + lambda * Omega(x).

Each factory packages first- and second-order callables for a data-fitting
term f and a regularizer Omega together with certified curvature constants.
The path solvers consume only the ProblemOracle interface, so new problem
families plug in without touching the steppers.

Problem families
----------------
quadratic ridge      f = 0.5 ||A x - b||^2,        Omega = 0.5 ||x||^2
logistic ridge       f = mean log(1 + exp(-b a'x)), Omega = 0.5 ||x||^2
reweighted logistic  f, Omega = class-split logistic losses (sigma = 0)
moment matching      f = 0.5 ||A'y - b'||^2,       Omega = simplex entropy

Hessian handles
---------------
Exact and CG directions and the Newton loops reach hess F_lambda(x) only
through ProblemOracle.hessian(x, lam), a handle with grad_f(), solve(g) and
matvec(v) that does its per-point work once.  The reweighted family gets a
DenseHessian (total_hess and solve_spd); the others set hessian_at:
quadratic  one eigh of A'A per problem, then O(p^2) per solve
logistic   the sigmoid once per point; solve assembles B'B + lam I by syrk,
           B = A sqrt(w / n)
moment     Woodbury on diag(lam / y) + V V', V = [A' | sqrt(lam / (1 - sum y)) 1]
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .linsolve import DirectionResult, solve_diag_lowrank, solve_shifted_eigh, solve_spd

Array = np.ndarray


class DomainError(ValueError):
    """Raised when an oracle is evaluated outside the domain of Omega."""


class DegenerateProblemError(ValueError):
    """Raised when a problem lacks the curvature the solvers rely on."""


@dataclass(frozen=True)
class ProblemOracle:
    """Callable bundle for one parametric problem instance.

    All gradient/Hessian callables take a point x of shape (dim,).  The
    hessvec callables take (x, v).  The batch gradients take a matrix of row
    points, shape (m, dim), and return an (m, dim) matrix, so residuals over
    many path points run as matrix products instead of Python loops.

    mu and sigma are certified strong-convexity constants of f and Omega.
    lipschitz, when not None, is a single shared constant bounding the
    Lipschitz moduli of f, its gradient and Hessian, and Omega's; it may
    be None for families without a global certificate (entropy).

    hessian_at, when set, takes (x, lam) and returns a handle on
    H = f''(x) + lam Omega''(x) like DenseHessian's: grad_f() is f_grad(x),
    matvec(v) is H v, and solve(g) solves H y = -g with an explicit residual
    and solve_spd's failure contract.  It must raise DomainError where the
    Hessian callables do.
    """

    name: str
    dim: int
    f_value: Callable[[Array], float]
    f_grad: Callable[[Array], Array]
    f_hess: Callable[[Array], Array]
    f_hessvec: Callable[[Array, Array], Array]
    omega_value: Callable[[Array], float]
    omega_grad: Callable[[Array], Array]
    omega_hess: Callable[[Array], Array]
    omega_hessvec: Callable[[Array, Array], Array]
    domain_check: Callable[[Array], bool]
    omega_minimizer: Array | None
    mu: float
    sigma: float
    lipschitz: float | None
    f_grad_batch: Callable[[Array], Array]
    omega_grad_batch: Callable[[Array], Array]
    hessian_at: Callable[[Array, float], "DenseHessian"] | None = None

    def total_value(self, x: Array, lam: float) -> float:
        return self.f_value(x) + lam * self.omega_value(x)

    def total_grad(self, x: Array, lam: float) -> Array:
        return self.f_grad(x) + lam * self.omega_grad(x)

    def total_hess(self, x: Array, lam: float) -> Array:
        return self.f_hess(x) + lam * self.omega_hess(x)

    def base_point(self) -> Array:
        """A fresh copy of the Omega minimizer, or zero when the problem has none."""
        if self.omega_minimizer is None:
            return np.zeros(self.dim)
        return np.array(self.omega_minimizer, dtype=float, copy=True)

    def checked_start(self, x0: Array, allow_degenerate: bool) -> Array:
        """x0 as a float array, once it and the problem pass the path solvers' entry checks."""
        if self.sigma <= 0.0 and not allow_degenerate:
            raise DegenerateProblemError(
                "Omega is not strongly convex (sigma = 0); pass allow_degenerate=True "
                "to run anyway without the accompanying guarantees"
            )
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.dim},)")
        if not self.domain_check(x0):
            raise DomainError("x0 violates the problem domain")
        return x0

    def hessian(self, x: Array, lam: float) -> "DenseHessian":
        """The handle on hess F_lam(x): hessian_at's when set, else a DenseHessian."""
        if self.hessian_at is not None:
            return self.hessian_at(x, lam)
        return DenseHessian(self, x, lam)


class DenseHessian:
    """Handle on hess F_lam(x) built from the oracle's callables; solve assembles it."""

    def __init__(self, problem: ProblemOracle, x: Array, lam: float):
        self.problem, self.x, self.lam = problem, x, lam

    def grad_f(self) -> Array:
        return self.problem.f_grad(self.x)

    def solve(self, g: Array) -> DirectionResult:
        return solve_spd(self.problem.total_hess(self.x, self.lam), g)

    def matvec(self, v: Array) -> Array:
        return self.problem.f_hessvec(self.x, v) + self.lam * self.problem.omega_hessvec(self.x, v)


class _QuadraticHessian:
    """A'A + lam I, solved from the problem's one eigendecomposition of A'A."""

    def __init__(self, Q, Atb, eig, x, lam):
        self.Q, self.Atb, self.eig, self.x, self.lam = Q, Atb, eig, x, lam

    def grad_f(self):
        return self.Q @ self.x - self.Atb

    def solve(self, g):
        return solve_shifted_eigh(self.Q, *self.eig, self.lam, g)

    def matvec(self, v):
        return self.Q @ v + self.lam * v


class _LogisticHessian:
    """Mean logistic loss f'' = A' diag(w) A / n (+ lam I), with s and w = s (1 - s) taken once."""

    def __init__(self, A, Ab, x, lam=0.0):
        self.A, self.Ab, self.lam = A, Ab, lam
        self.s = expit(-(Ab @ x))
        self.w = self.s * (1.0 - self.s)

    def grad_f(self):
        return -(self.Ab.T @ self.s) / self.A.shape[0]

    def f_hess(self):
        B = self.A * np.sqrt(self.w / self.A.shape[0])[:, None]
        return B.T @ B  # a matrix times its own transpose: numpy calls BLAS syrk

    def f_hessvec(self, v):
        return self.A.T @ (self.w * (self.A @ v)) / self.A.shape[0]

    def solve(self, g):
        H = self.f_hess()
        H.flat[:: H.shape[0] + 1] += self.lam
        return solve_spd(H, g)

    def matvec(self, v):
        return self.f_hessvec(v) + self.lam * v


class _MomentHessian:
    """A'A + lam (diag(1/y) + 11'/rest), rest = 1 - sum y, domain checked once."""

    def __init__(self, A, b, V_base, y, lam):
        self.A, self.b, self.V_base, self.y, self.lam = A, b, V_base, y, lam
        self.rest = 1.0 - float(y.sum())

    def grad_f(self):
        return self.A.T @ (self.A @ self.y - self.b)

    def lowrank(self) -> tuple[Array, Array]:
        """(d, V) with this Hessian = diag(d) + V V'; at lam <= 0, d <= 0 fails the solve."""
        V = self.V_base.copy(order="F")
        V[:, -1] = math.sqrt(max(self.lam, 0.0) / self.rest)
        return self.lam / self.y, V

    def solve(self, g):
        return solve_diag_lowrank(*self.lowrank(), g)

    def matvec(self, v):
        return self.A.T @ (self.A @ v) + self.lam * (v / self.y + np.sum(v) / self.rest)


@dataclass(frozen=True)
class TheoryConstants:
    """Curvature constants plus the horizon quantities derived from them.

    Use ``derive`` to build a self-consistent record; direct construction
    is for exercising the bound formulas with hand-picked values.
    """

    mu: float
    sigma: float
    L: float
    G: float
    lambda_min: float
    lambda_max: float
    tau: float
    T_euler: float
    T_trap: float
    mu_tilde: float
    estimated: bool = False

    @classmethod
    def derive(
        cls,
        mu: float,
        sigma: float,
        L: float,
        G: float,
        lambda_min: float,
        lambda_max: float,
        estimated: bool = False,
    ) -> "TheoryConstants":
        if not (0.0 < lambda_min < lambda_max):
            raise ValueError(f"need 0 < lambda_min < lambda_max, got [{lambda_min}, {lambda_max}]")
        if mu < 0.0 or sigma < 0.0:
            raise ValueError("mu and sigma must be nonnegative")
        if L <= 0.0 or G < 0.0:
            raise ValueError("need L > 0 and G >= 0")
        mu_tilde = mu + lambda_min * sigma
        if mu_tilde <= 0.0:
            raise DegenerateProblemError(
                "mu + lambda_min * sigma must be positive; this problem has no "
                "strong convexity anywhere on the path"
            )
        tau = max(
            (1.0 + lambda_min) / (mu + lambda_min * sigma),
            (1.0 + lambda_max) / (mu + lambda_max * sigma),
        )
        T_euler = math.log(lambda_max / lambda_min)
        return cls(
            mu=float(mu),
            sigma=float(sigma),
            L=float(L),
            G=float(G),
            lambda_min=float(lambda_min),
            lambda_max=float(lambda_max),
            tau=float(tau),
            T_euler=float(T_euler),
            T_trap=float(1.1 * T_euler),
            mu_tilde=float(mu_tilde),
            estimated=estimated,
        )

    def as_dict(self) -> dict:
        return asdict(self)


def _spectral_norm(M: Array) -> float:
    return float(np.linalg.norm(M, 2))


def _ridge_omega(p: int) -> dict:
    """The ProblemOracle fields of Omega = 0.5 ||x||^2 on all of R^p (sigma = 1)."""
    eye = np.eye(p)

    def copy(x: Array) -> Array:
        return np.array(x, dtype=float, copy=True)

    return dict(
        omega_value=lambda x: 0.5 * float(x @ x),
        omega_grad=copy,
        omega_hess=lambda x: eye,
        omega_hessvec=lambda x, v: copy(v),
        omega_grad_batch=copy,
        domain_check=lambda x: bool(np.all(np.isfinite(x))),
        omega_minimizer=np.zeros(p),
        sigma=1.0,
    )


# ---------------------------------------------------------------------------
# quadratic ridge


def make_quadratic_ridge(A: Array, b: Array) -> ProblemOracle:
    """Least squares f with an l2 ball regularizer.

    mu is the smallest eigenvalue of A'A (clipped at zero for rank-deficient
    designs), sigma = 1, and the shared Lipschitz constant is
    max(||A'A||_2, 1): the Hessians are constant so only the gradient
    moduli bind.  Both come from the one eigh of A'A that backs the
    hessian_at solves.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    n, p = A.shape
    Q = A.T @ A
    Atb = A.T @ b
    eig = np.linalg.eigh(Q)
    mu = max(0.0, float(eig[0][0]))
    L = max(float(np.abs(eig[0]).max()), 1.0)

    def f_value(x: Array) -> float:
        r = A @ x - b
        return 0.5 * float(r @ r)

    def f_grad(x: Array) -> Array:
        return Q @ x - Atb

    def f_grad_batch(X: Array) -> Array:
        return X @ Q - Atb

    return ProblemOracle(
        name="quadratic",
        dim=p,
        f_value=f_value,
        f_grad=f_grad,
        f_hess=lambda x: Q,
        f_hessvec=lambda x, v: Q @ v,
        mu=mu,
        lipschitz=L,
        f_grad_batch=f_grad_batch,
        hessian_at=lambda x, lam: _QuadraticHessian(Q, Atb, eig, x, lam),
        **_ridge_omega(p),
    )


def quadratic_path_point(A: Array, b: Array, lam: float) -> Array:
    """Closed-form minimizer (A'A + lam I)^-1 A'b of the ridge objective."""
    A = np.asarray(A, dtype=float)
    p = A.shape[1]
    return np.linalg.solve(A.T @ A + lam * np.eye(p), A.T @ np.asarray(b, dtype=float))


def quadratic_theory_constants(
    A: Array, b: Array, x0: Array, lambda_min: float, lambda_max: float
) -> tuple[TheoryConstants, float]:
    """Analytic constants for a full-rank quadratic ridge instance.

    Returns (constants, f_gap) where f_gap = f(x0) - min f.  The gradient
    bound G certifies both gradients on the level set {f <= f(x0)}: with
    R = sqrt(2 f(x0)) we get ||grad f|| <= ||A|| R, and full column rank
    gives ||x|| <= ||x*|| + (R + R*) / sqrt(mu) for the Omega gradient.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    Q = A.T @ A
    mu = float(np.linalg.eigvalsh(Q)[0])
    if mu <= 0.0:
        raise ValueError("analytic gradient bound needs full column rank (mu > 0)")
    L = max(_spectral_norm(Q), 1.0)
    x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
    r0 = A @ x0 - b
    f0 = 0.5 * float(r0 @ r0)
    r_star = A @ x_star - b
    f_star = 0.5 * float(r_star @ r_star)
    f_gap = max(0.0, f0 - f_star)
    R = math.sqrt(2.0 * f0)
    R_star = math.sqrt(2.0 * f_star)
    g_f = _spectral_norm(A) * R
    g_omega = float(np.linalg.norm(x_star)) + (R + R_star) / math.sqrt(mu)
    constants = TheoryConstants.derive(
        mu=mu,
        sigma=1.0,
        L=L,
        G=max(g_f, g_omega),
        lambda_min=lambda_min,
        lambda_max=lambda_max,
    )
    return constants, f_gap


# ---------------------------------------------------------------------------
# logistic ridge


def _logistic_constants(A: Array) -> dict[str, float]:
    # Mean logistic loss over rows a_i: derivative bounds of the sigmoid give
    # |l'| <= 1, |l''| <= 1/4, |l'''| <= 1/(6 sqrt 3), |l''''| <= 1/4.
    n = A.shape[0]
    norms = np.linalg.norm(A, axis=1)
    return {
        "value": float(np.mean(norms)),
        "grad": _spectral_norm(A.T @ A) / (4.0 * n),
        "hess": float(np.mean(norms**3)) / (6.0 * math.sqrt(3.0)),
        "third": float(np.mean(norms**4)) / 4.0,
    }


def _logistic_pieces(A: Array, labels: Array):
    """Closures for the mean logistic loss of a labelled design."""
    n = A.shape[0]
    Ab = labels[:, None] * A  # rows b_i a_i

    def value(x: Array) -> float:
        z = -(Ab @ x)
        return float(np.mean(np.logaddexp(0.0, z)))

    def grad(x: Array) -> Array:
        s = expit(-(Ab @ x))
        return -(Ab.T @ s) / n

    def hess(x: Array) -> Array:
        return _LogisticHessian(A, Ab, x).f_hess()

    def hessvec(x: Array, v: Array) -> Array:
        return _LogisticHessian(A, Ab, x).f_hessvec(v)

    def grad_batch(X: Array) -> Array:
        # blocked so the (rows, n) sigmoid intermediate stays bounded
        rows = max(1, (1 << 22) // max(1, n))
        out = np.empty((X.shape[0], A.shape[1]))
        for start in range(0, X.shape[0], rows):
            S = expit(-(X[start : start + rows] @ Ab.T))  # (rows, n)
            out[start : start + rows] = -(S @ Ab) / n
        return out

    # the handle of the ridge oracle, Omega = 0.5 ||x||^2
    return value, grad, hess, hessvec, grad_batch, lambda x, lam: _LogisticHessian(A, Ab, x, lam)


def _check_labels(labels: Array) -> Array:
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    return labels


def make_logistic_ridge(features: Array, labels: Array) -> ProblemOracle:
    """Mean logistic loss with an l2 ball regularizer; mu = 0, sigma = 1."""
    A = np.asarray(features, dtype=float)
    labels = _check_labels(labels)
    if A.ndim != 2 or A.shape[0] != labels.shape[0]:
        raise ValueError(f"shape mismatch: features {A.shape}, labels {labels.shape}")
    n, p = A.shape
    value, grad, hess, hessvec, grad_batch, hessian_at = _logistic_pieces(A, labels)
    cs = _logistic_constants(A)
    L = max(1.0, cs["value"], cs["grad"], cs["hess"], cs["third"])
    return ProblemOracle(
        name="logistic",
        dim=p,
        f_value=value,
        f_grad=grad,
        f_hess=hess,
        f_hessvec=hessvec,
        mu=0.0,
        lipschitz=L,
        f_grad_batch=grad_batch,
        hessian_at=hessian_at,
        **_ridge_omega(p),
    )


def logistic_gradient_bound(features: Array) -> float:
    """Global bound on ||grad f|| for the mean logistic loss: mean ||a_i||."""
    A = np.asarray(features, dtype=float)
    return float(np.mean(np.linalg.norm(A, axis=1)))


def make_logistic_reweighted(features: Array, labels: Array) -> ProblemOracle:
    """Class-split logistic pair: f over the +1 rows, Omega over the -1 rows.

    Omega is not strongly convex, so sigma = 0 and the path solvers refuse
    this oracle unless explicitly overridden.  There is no closed-form
    Omega minimizer either (the infimum sits at infinity), so
    omega_minimizer is None.
    """
    A = np.asarray(features, dtype=float)
    labels = _check_labels(labels)
    pos = labels > 0
    neg = ~pos
    if not pos.any() or not neg.any():
        raise ValueError("need at least one row of each class")
    p = A.shape[1]
    fv, fg, fh, fhv, fgb, _ = _logistic_pieces(A[pos], labels[pos])
    ov, og, oh, ohv, ogb, _ = _logistic_pieces(A[neg], labels[neg])
    cs_pos = _logistic_constants(A[pos])
    cs_neg = _logistic_constants(A[neg])
    L = max(*cs_pos.values(), *cs_neg.values())

    return ProblemOracle(
        name="logistic-reweighted",
        dim=p,
        f_value=fv,
        f_grad=fg,
        f_hess=fh,
        f_hessvec=fhv,
        omega_value=ov,
        omega_grad=og,
        omega_hess=oh,
        omega_hessvec=ohv,
        domain_check=lambda x: bool(np.all(np.isfinite(x))),
        omega_minimizer=None,
        mu=0.0,
        sigma=0.0,
        lipschitz=L,
        f_grad_batch=fgb,
        omega_grad_batch=ogb,
    )


# ---------------------------------------------------------------------------
# moment matching on the simplex interior


MAX_MOMENTS = 30  # Vandermonde columns beyond this are numerically rank-degenerate


def build_moment_problem(w: Array, x_true: Array, n_moments: int) -> tuple[Array, Array]:
    """Reduced design (A', b') for moment matching against a known mixture.

    The raw design has A[i, j] = w_j^(i+1) for the first n_moments power
    moments and b = A x_true.  Eliminating the simplex-closing coordinate
    (whose atom is pinned at zero) subtracts the last column from the rest
    and from b, leaving a free problem over the first p coordinates.
    """
    w = np.asarray(w, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if w.ndim != 1 or x_true.shape != w.shape:
        raise ValueError("w and x_true must be 1-d arrays of equal length")
    if w.shape[0] < 2:
        raise ValueError("need at least two atoms")
    if w[-1] != 0.0:
        raise ValueError("last atom must sit at zero (it closes the simplex)")
    if np.any(x_true < 0.0) or abs(float(np.sum(x_true)) - 1.0) > 1e-12:
        raise ValueError("x_true must lie on the probability simplex")
    if not (1 <= n_moments <= MAX_MOMENTS):
        raise ValueError(f"n_moments must be in [1, {MAX_MOMENTS}]")
    powers = np.arange(1, n_moments + 1)[:, None]
    A = w[None, :] ** powers
    b = A @ x_true
    A_red = A[:, :-1] - A[:, -1:]
    b_red = b - A[:, -1]
    return A_red, b_red


def generate_synthetic_moment_data(p: int, seed: int) -> tuple[Array, Array]:
    """Random atoms and mixture weights for a (p+1)-atom moment problem.

    Counter-based stream (Philox, one seed): first p + 1 uniforms feed a
    softmax for x_true, the next p uniforms are the free atom locations,
    and the closing atom is pinned at zero.
    """
    if p < 1:
        raise ValueError("p must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.uniform(size=p + 1)
    ez = np.exp(z - np.max(z))
    x_true = ez / np.sum(ez)
    w = np.concatenate([rng.uniform(size=p), [0.0]])
    return w, x_true


def make_moment_matching(A_reduced: Array, b_reduced: Array) -> ProblemOracle:
    """Quadratic fit over the open simplex interior with entropy regularizer.

    Omega(y) = sum y_j ln y_j + (1 - sum y) ln(1 - sum y) on the domain
    {y > 0, sum y < 1}.  Its Hessian diag(1/y) + 11'/(1 - sum y) dominates
    the identity because every 1/y_j > 1 there, so sigma = 1 holds on the
    whole domain.  The entropy Hessian has no global Lipschitz constant,
    hence lipschitz is None; estimate constants numerically downstream.

    A'A has rank at most n_moments, so mu = 0 exactly when there are fewer
    moments than coordinates.  The f side is applied in factored form,
    O(p n_moments) per point; the p x p Q = A'A backs only f_hess.  The total
    Hessian is diag(lam / y) + V V' with V = [A' | sqrt(lam / (1 - sum y)) 1],
    which hessian_at's handle solves by Woodbury.
    """
    A = np.asarray(A_reduced, dtype=float)
    b = np.asarray(b_reduced, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    n, p = A.shape
    Q = A.T @ A
    mu = max(0.0, float(np.linalg.eigvalsh(Q)[0])) if n >= p else 0.0
    # column-major, so the per-call copy and the write of its last column stay contiguous
    V_base = np.asfortranarray(np.hstack([A.T, np.ones((p, 1))]))

    def domain_check(y: Array) -> bool:
        y = np.asarray(y)
        if y.shape != (p,):
            return False
        # min > 0 fails on a NaN or -inf entry, and sum < 1 on +inf
        return bool(y.min() > 0.0 and y.sum() < 1.0)

    def _require_domain(y: Array) -> Array:
        y = np.asarray(y, dtype=float)
        if not domain_check(y):
            raise DomainError("point leaves the open simplex interior {y > 0, sum y < 1}")
        return y

    def omega_value(y: Array) -> float:
        y = _require_domain(y)
        rest = 1.0 - float(np.sum(y))
        return float(np.sum(y * np.log(y))) + rest * math.log(rest)

    def omega_grad(y: Array) -> Array:
        y = _require_domain(y)
        rest = 1.0 - float(np.sum(y))
        return np.log(y / rest)

    def omega_hess(y: Array) -> Array:
        y = _require_domain(y)
        rest = 1.0 - float(np.sum(y))
        return np.diag(1.0 / y) + np.ones((p, p)) / rest

    def omega_hessvec(y: Array, v: Array) -> Array:
        y = _require_domain(y)
        rest = 1.0 - float(np.sum(y))
        return v / y + np.sum(v) / rest

    def omega_grad_batch(Y: Array) -> Array:
        Y = np.asarray(Y, dtype=float)
        if np.any(Y <= 0.0):
            raise DomainError("batch point leaves the open simplex interior")
        rest = 1.0 - np.sum(Y, axis=1, keepdims=True)
        if np.any(rest <= 0.0):
            raise DomainError("batch point leaves the open simplex interior")
        return np.log(Y / rest)

    def f_value(y: Array) -> float:
        r = A @ y - b
        return 0.5 * float(r @ r)

    return ProblemOracle(
        name="moment",
        dim=p,
        f_value=f_value,
        f_grad=lambda y: A.T @ (A @ y - b),
        f_hess=lambda y: Q,
        f_hessvec=lambda y, v: A.T @ (A @ v),
        omega_value=omega_value,
        omega_grad=omega_grad,
        omega_hess=omega_hess,
        omega_hessvec=omega_hessvec,
        domain_check=domain_check,
        omega_minimizer=np.full(p, 1.0 / (p + 1)),
        mu=mu,
        sigma=1.0,
        lipschitz=None,
        f_grad_batch=lambda Y: (np.asarray(Y, dtype=float) @ A.T - b) @ A,
        omega_grad_batch=omega_grad_batch,
        hessian_at=lambda y, lam: _MomentHessian(A, b, V_base, _require_domain(y), lam),
    )
