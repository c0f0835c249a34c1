"""Problem oracles for parametric objectives F_lambda(x) = f(x) + lambda * Omega(x).

Each factory packages value callables for a data-fitting term f and a
regularizer Omega, one gradient per term that takes a point or row points,
a Hessian handle and certified curvature constants.  The path solvers use
only the ProblemOracle interface, so new families need no stepper changes.

Problem families
----------------
quadratic ridge      f = 0.5 ||A x - b||^2,        Omega = 0.5 ||x||^2
logistic ridge       f = mean log(1 + exp(-b a'x)), Omega = 0.5 ||x||^2
reweighted logistic  f, Omega = class-split logistic losses (sigma = 0)
moment matching      f = 0.5 ||A'y - b'||^2,       Omega = simplex entropy

Hessian handles
---------------
Every second-order use reaches hess F_lambda(x) only through
ProblemOracle.hessian(x, lam), a handle with grad_f(), solve(g), matvec(v),
f_hess() and omega_hess() that does its per-point work once:
quadratic    one eigh of A'A per problem, then O(p^2) per solve
logistic     the sigmoid once per point, by the in-place kernel
             _sigmoid_of_negated (numpy's exp, margins clipped at 709) that
             the gradients share; solve assembles B'B + lam I by syrk,
             B = A sqrt(w / n)
reweighted   two logistic handles (the +1 rows as f, the -1 rows as Omega);
             solve assembles their sum
moment       Woodbury on diag(lam / y) + V V', V = [A' | sqrt(lam / (1 - sum y)) 1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .linsolve import solve_diag_lowrank, solve_shifted_eigh, solve_spd

Array = np.ndarray


class DomainError(ValueError):
    """Raised when an oracle is evaluated outside the domain of Omega."""


class DegenerateProblemError(ValueError):
    """Raised when a problem lacks the curvature the solvers rely on."""


def check_lambda_range(lambda_min: float, lambda_max: float) -> None:
    """Raise ValueError unless 0 < lambda_min < lambda_max < inf (NaN fails) with a finite ratio."""
    if not (0.0 < lambda_min < lambda_max < math.inf):
        raise ValueError(f"need 0 < lambda_min < lambda_max < inf, got [{lambda_min}, {lambda_max}]")
    if lambda_max / lambda_min == math.inf:
        raise ValueError(f"lambda_max / lambda_min overflows, got [{lambda_min}, {lambda_max}]")


@dataclass(frozen=True)
class ProblemOracle:
    """Callable bundle for one parametric problem instance.

    The value callables and domain_check take a point x of shape (dim,).
    f_grad and omega_grad take either a point or a matrix of row points,
    shape (m, dim), and return the same shape, so residuals over many path
    points run as matrix products instead of Python loops.

    mu and sigma are certified strong-convexity constants of f and Omega.
    lipschitz, when not None, is a single shared constant bounding the
    Lipschitz moduli of f, its gradient and Hessian, and Omega's; it may
    be None for families without a global certificate (entropy).

    hessian(x, lam) returns the handle on H = f''(x) + lam Omega''(x), the
    oracle's only second-order interface: grad_f() is f_grad(x), matvec(v)
    is H v, f_hess() and omega_hess() are the dense f''(x) and Omega''(x),
    and solve(g) solves H y = -g with an explicit residual and solve_spd's
    failure contract.  It raises DomainError outside the domain.
    """

    name: str
    dim: int
    f_value: Callable[[Array], float]
    f_grad: Callable[[Array], Array]
    omega_value: Callable[[Array], float]
    omega_grad: Callable[[Array], Array]
    domain_check: Callable[[Array], bool]
    omega_minimizer: Array | None
    mu: float
    sigma: float
    lipschitz: float | None
    hessian: Callable[[Array, float], Any]

    def total_grad(self, x: Array, lam: float | Array) -> Array:
        """grad F_lam at a point, or at row points with lam a column of shape (m, 1)."""
        return self.f_grad(x) + lam * self.omega_grad(x)

    def total_hess(self, x: Array, lam: float) -> Array:
        hess = self.hessian(x, lam)
        return hess.f_hess() + lam * hess.omega_hess()

    def base_point(self) -> Array:
        """A fresh copy of the Omega minimizer, or zero when the problem has none."""
        if self.omega_minimizer is None:
            return np.zeros(self.dim)
        return np.array(self.omega_minimizer, dtype=float, copy=True)

    def checked_start(self, x0: Array, allow_degenerate: bool) -> Array:
        """A fresh float copy of x0, once it and the problem pass the path solvers' entry checks."""
        if self.sigma <= 0.0 and not allow_degenerate:
            raise DegenerateProblemError(
                "Omega is not strongly convex (sigma = 0); pass allow_degenerate=True "
                "to run anyway without the accompanying guarantees"
            )
        x0 = np.array(x0, dtype=float)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.dim},)")
        if not self.domain_check(x0):
            raise DomainError("x0 violates the problem domain")
        return x0


class _QuadraticHessian:
    """A'A + lam I, solved from the problem's one eigendecomposition of A'A."""

    def __init__(self, Q, eig, f_grad, x, lam):
        self.Q, self.eig, self.f_grad, self.x, self.lam = Q, eig, f_grad, x, lam

    def grad_f(self):
        return self.f_grad(self.x)

    def f_hess(self):
        return self.Q

    def omega_hess(self):
        return np.eye(self.Q.shape[0])

    def solve(self, g):
        return solve_shifted_eigh(self.Q, *self.eig, self.lam, g)

    def matvec(self, v):
        return self.Q @ v + self.lam * v


def _sigmoid_of_negated(z: Array) -> Array:
    """1 / (1 + e^z) = expit(-z), computed in z's own storage: pass a fresh product.

    numpy's SIMD exp is about 3x faster than scipy's expit loop.  Clipping z at
    709 keeps e^z finite, so no overflow warning needs an errstate: for z > 709
    the result is 1 / (1 + e^709) ~ 1.2e-308 where expit gives 0 to 1.2e-308.
    """
    np.minimum(z, 709.0, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


class _LogisticHessian:
    """Mean logistic loss f'' = A' diag(w) A / n (+ lam I), with s and w = s (1 - s) taken once."""

    def __init__(self, Ab, x, lam):
        # f'' and f'' v take each labelled row b_i a_i twice, so its sign cancels exactly
        self.Ab, self.lam = Ab, lam
        self.s = _sigmoid_of_negated(Ab @ x)
        self.w = self.s * (1.0 - self.s)

    def grad_f(self):
        return -(self.Ab.T @ self.s) / self.Ab.shape[0]

    def f_hess(self):
        B = self.Ab * np.sqrt(self.w / self.Ab.shape[0])[:, None]
        return B.T @ B  # a matrix times its own transpose: numpy calls BLAS syrk

    def omega_hess(self):
        return np.eye(self.Ab.shape[1])

    def f_hessvec(self, v):
        return self.Ab.T @ (self.w * (self.Ab @ v)) / self.Ab.shape[0]

    def solve(self, g):
        H = self.f_hess()
        H.flat[:: H.shape[0] + 1] += self.lam
        return solve_spd(H, g)

    def matvec(self, v):
        return self.f_hessvec(v) + self.lam * v


class _ReweightedHessian:
    """f'' + lam Omega'' of the class-split pair, each side a _LogisticHessian; solve assembles."""

    def __init__(self, f, omega, lam):
        self.f, self.omega, self.lam = f, omega, lam
        self.grad_f, self.f_hess, self.omega_hess = f.grad_f, f.f_hess, omega.f_hess

    def solve(self, g):
        return solve_spd(self.f_hess() + self.lam * self.omega_hess(), g)

    def matvec(self, v):
        return self.f.f_hessvec(v) + self.lam * self.omega.f_hessvec(v)


class _MomentHessian:
    """A'A + lam (diag(1/y) + 11'/rest), rest = 1 - sum y, domain checked once."""

    def __init__(self, A, Q, V_base, f_grad, y, lam):
        self.A, self.Q, self.V_base, self.f_grad, self.y, self.lam = A, Q, V_base, f_grad, y, lam
        self.rest = 1.0 - float(y.sum())

    def grad_f(self):
        return self.f_grad(self.y)

    def f_hess(self):
        return self.Q

    def omega_hess(self):
        return np.diag(1.0 / self.y) + np.ones((len(self.y), len(self.y))) / self.rest

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

    The constructor checks the inputs, stores them as floats and derives
    tau, T_euler, T_trap and mu_tilde, so a record (dataclasses.replace
    included) always agrees with its inputs.
    """

    mu: float
    sigma: float
    L: float
    G: float
    lambda_min: float
    lambda_max: float
    tau: float = field(init=False)
    T_euler: float = field(init=False)
    T_trap: float = field(init=False)
    mu_tilde: float = field(init=False)
    estimated: bool = False

    def __post_init__(self):
        check_lambda_range(self.lambda_min, self.lambda_max)
        for name in ("mu", "sigma", "L", "G", "lambda_min", "lambda_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        mu, sigma, L, G = self.mu, self.sigma, self.L, self.G
        lo, hi = self.lambda_min, self.lambda_max
        if not all(map(math.isfinite, (mu, sigma, L, G))):
            raise ValueError(f"mu, sigma, L and G must be finite, got {mu}, {sigma}, {L}, {G}")
        if mu < 0.0 or sigma < 0.0:
            raise ValueError("mu and sigma must be nonnegative")
        if L <= 0.0 or G < 0.0:
            raise ValueError("need L > 0 and G >= 0")
        mu_tilde = mu + lo * sigma
        if mu_tilde <= 0.0:
            raise DegenerateProblemError(
                "mu + lambda_min * sigma must be positive; this problem has no "
                "strong convexity anywhere on the path"
            )
        T_euler = math.log(hi / lo)
        for name, value in (
            ("tau", max((1.0 + lo) / mu_tilde, (1.0 + hi) / (mu + hi * sigma))),
            ("T_euler", T_euler),
            ("T_trap", 1.1 * T_euler),
            ("mu_tilde", mu_tilde),
        ):
            object.__setattr__(self, name, value)


def _spectral_norm(M: Array) -> float:
    return float(np.linalg.norm(M, 2))


def _ridge_omega(p: int) -> dict:
    """The ProblemOracle fields of Omega = 0.5 ||x||^2 on all of R^p (sigma = 1)."""
    return dict(
        omega_value=lambda x: 0.5 * float(x @ x),
        omega_grad=lambda x: np.array(x, dtype=float, copy=True),
        domain_check=lambda x: bool(np.all(np.isfinite(x))),
        omega_minimizer=np.zeros(p),
        sigma=1.0,
    )


def _least_squares(A: Array, b: Array):
    """(A, Q = A'A, A'b, value, grad) of f = 0.5 ||A x - b||^2, once Q and A'b are finite.

    A NaN or inf in A reaches Q's diagonal, one in b all of A'b.  grad takes a point or row
    points, through Q (p^2 per point) when A has more rows than columns, else A' and A (2 n p).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        Q, Atb = A.T @ A, A.T @ b
    if not (np.isfinite(Q).all() and np.isfinite(Atb).all()):
        raise ValueError("A and b must be finite, and A'A and A'b must not overflow")

    def value(x: Array) -> float:
        r = A @ x - b
        return 0.5 * float(r @ r)

    if A.shape[0] > A.shape[1]:
        def grad(X: Array) -> Array:
            return X @ Q - Atb  # Q is symmetric, so this is Q x - A'b for a point too
    else:
        def grad(X: Array) -> Array:
            return (X @ A.T - b) @ A

    return A, Q, Atb, value, grad


# ---------------------------------------------------------------------------
# quadratic ridge


def make_quadratic_ridge(A: Array, b: Array) -> ProblemOracle:
    """Least squares f with an l2 ball regularizer.

    mu is the smallest eigenvalue of A'A (clipped at zero for rank-deficient
    designs), sigma = 1, and the shared Lipschitz constant is
    max(||A'A||_2, 1): the Hessians are constant so only the gradient
    moduli bind.  Both come from the one eigh of A'A that backs the
    handle's solves.
    """
    _, Q, _, f_value, f_grad = _least_squares(A, b)
    p = Q.shape[0]
    eig = np.linalg.eigh(Q)
    mu = max(0.0, float(eig[0][0]))
    L = max(float(np.abs(eig[0]).max()), 1.0)
    return ProblemOracle(
        name="quadratic",
        dim=p,
        f_value=f_value,
        f_grad=f_grad,
        mu=mu,
        lipschitz=L,
        hessian=lambda x, lam: _QuadraticHessian(Q, eig, f_grad, x, lam),
        **_ridge_omega(p),
    )


def quadratic_path_point(A: Array, b: Array, lam: float) -> Array:
    """Closed-form minimizer (A'A + lam I)^-1 A'b of the ridge objective."""
    _, Q, Atb, _, _ = _least_squares(A, b)
    return np.linalg.solve(Q + lam * np.eye(Q.shape[0]), Atb)


def quadratic_theory_constants(
    A: Array, b: Array, x0: Array, lambda_min: float, lambda_max: float
) -> tuple[TheoryConstants, float]:
    """Analytic constants for a full-rank quadratic ridge instance.

    Returns (constants, f_gap) where f_gap = f(x0) - min f.  The gradient
    bound G certifies both gradients on the level set {f <= f(x0)}: with
    R = sqrt(2 f(x0)) we get ||grad f|| <= ||A|| R, and full column rank
    gives ||x|| <= ||x*|| + (R + R*) / sqrt(mu) for the Omega gradient.
    """
    A, Q, _, f_value, _ = _least_squares(A, b)
    mu = float(np.linalg.eigvalsh(Q)[0])
    if mu <= 0.0:
        raise ValueError("analytic gradient bound needs full column rank (mu > 0)")
    L = max(_spectral_norm(Q), 1.0)
    x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
    f0, f_star = f_value(np.asarray(x0, dtype=float)), f_value(x_star)
    f_gap = max(0.0, f0 - f_star)
    R = math.sqrt(2.0 * f0)
    R_star = math.sqrt(2.0 * f_star)
    g_f = _spectral_norm(A) * R
    g_omega = float(np.linalg.norm(x_star)) + (R + R_star) / math.sqrt(mu)
    constants = TheoryConstants(
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
        return float(np.logaddexp(0.0, z).sum()) / n  # np.mean's bits without its wrapper

    def grad(X: Array) -> Array:
        if np.ndim(X) == 1:
            return -(Ab.T @ _sigmoid_of_negated(Ab @ X)) / n
        # row points, blocked so the (rows, n) sigmoid intermediate stays bounded
        rows = max(1, (1 << 22) // max(1, n))
        out = np.empty((X.shape[0], A.shape[1]))
        for start in range(0, X.shape[0], rows):
            S = _sigmoid_of_negated(X[start : start + rows] @ Ab.T)  # (rows, n)
            out[start : start + rows] = -(S @ Ab) / n
        return out

    # the handle of the ridge oracle, Omega = 0.5 ||x||^2
    return value, grad, lambda x, lam: _LogisticHessian(Ab, x, lam)


def _check_design(features: Array, labels: Array) -> tuple[Array, Array]:
    """(A, labels) as float arrays, once A is 2-D and finite with one +1 or -1 label per row."""
    A = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if A.ndim != 2 or labels.shape != (A.shape[0],):
        raise ValueError(f"shape mismatch: features {A.shape}, labels {labels.shape}")
    if not np.isfinite(A).all():
        raise ValueError("features must be finite")
    return A, labels


def make_logistic_ridge(features: Array, labels: Array) -> ProblemOracle:
    """Mean logistic loss with an l2 ball regularizer; mu = 0, sigma = 1."""
    A, labels = _check_design(features, labels)
    p = A.shape[1]
    value, grad, hessian = _logistic_pieces(A, labels)
    cs = _logistic_constants(A)
    L = max(1.0, cs["value"], cs["grad"], cs["hess"], cs["third"])
    return ProblemOracle(
        name="logistic",
        dim=p,
        f_value=value,
        f_grad=grad,
        mu=0.0,
        lipschitz=L,
        hessian=hessian,
        **_ridge_omega(p),
    )


def make_logistic_reweighted(features: Array, labels: Array) -> ProblemOracle:
    """Class-split logistic pair: f over the +1 rows, Omega over the -1 rows.

    Omega is not strongly convex, so sigma = 0 and the path solvers refuse
    this oracle unless explicitly overridden.  There is no closed-form
    Omega minimizer either (the infimum sits at infinity), so
    omega_minimizer is None.
    """
    A, labels = _check_design(features, labels)
    pos = labels > 0
    neg = ~pos
    if not pos.any() or not neg.any():
        raise ValueError("need at least one row of each class")
    p = A.shape[1]
    fv, fg, fh = _logistic_pieces(A[pos], labels[pos])
    ov, og, oh = _logistic_pieces(A[neg], labels[neg])
    cs_pos = _logistic_constants(A[pos])
    cs_neg = _logistic_constants(A[neg])
    L = max(*cs_pos.values(), *cs_neg.values())

    return ProblemOracle(
        name="logistic-reweighted",
        dim=p,
        f_value=fv,
        f_grad=fg,
        omega_value=ov,
        omega_grad=og,
        domain_check=lambda x: bool(np.all(np.isfinite(x))),
        omega_minimizer=None,
        mu=0.0,
        sigma=0.0,
        lipschitz=L,
        hessian=lambda x, lam: _ReweightedHessian(fh(x, 0.0), oh(x, 0.0), lam),
    )


# ---------------------------------------------------------------------------
# moment matching on the simplex interior


MAX_MOMENTS = 30  # Vandermonde columns beyond this are numerically rank-degenerate
OFF_SIMPLEX = "point leaves the open simplex interior {y > 0, sum y < 1}"


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
    if not (np.isfinite(w).all() and np.isfinite(x_true).all()):
        raise ValueError("w and x_true must be finite")
    if w.shape[0] < 2:
        raise ValueError("need at least two atoms")
    if w[-1] != 0.0:
        raise ValueError("last atom must sit at zero (it closes the simplex)")
    if np.any(x_true < 0.0) or abs(float(np.sum(x_true)) - 1.0) > 1e-12:
        raise ValueError("x_true must lie on the probability simplex")
    if not (1 <= n_moments <= MAX_MOMENTS):
        raise ValueError(f"n_moments must be in [1, {MAX_MOMENTS}]")
    with np.errstate(over="ignore"):
        A = w[None, :] ** np.arange(1, n_moments + 1)[:, None]
    if not np.isfinite(A).all():
        raise ValueError(f"the atom powers w ** k, k <= {n_moments}, overflow")
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
    moments than coordinates.  Up to p moments _least_squares applies the f
    side in factored form, O(p n_moments) per point, and Q = A'A backs only
    the handle's f_hess.  The total Hessian is diag(lam / y) + V V' with
    V = [A' | sqrt(lam / (1 - sum y)) 1], which the handle solves by Woodbury.
    """
    A, Q, _, f_value, f_grad = _least_squares(A_reduced, b_reduced)
    n, p = A.shape
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
            raise DomainError(OFF_SIMPLEX)
        return y

    def omega_value(y: Array) -> float:
        y = _require_domain(y)
        rest = 1.0 - float(np.sum(y))
        return float(np.sum(y * np.log(y))) + rest * math.log(rest)

    def omega_grad(Y: Array) -> Array:
        # a point or row points; a NaN entry fails both comparisons
        Y = np.asarray(Y, dtype=float)
        rest = 1.0 - np.sum(Y, axis=-1, keepdims=True)
        if not (Y.shape[-1] == p and np.all(Y > 0.0) and np.all(rest > 0.0)):
            raise DomainError(OFF_SIMPLEX)
        return np.log(Y / rest)

    return ProblemOracle(
        name="moment",
        dim=p,
        f_value=f_value,
        f_grad=f_grad,
        omega_value=omega_value,
        omega_grad=omega_grad,
        domain_check=domain_check,
        omega_minimizer=np.full(p, 1.0 / (p + 1)),
        mu=mu,
        sigma=1.0,
        lipschitz=None,
        hessian=lambda y, lam: _MomentHessian(A, Q, V_base, f_grad, _require_domain(y), lam),
    )
