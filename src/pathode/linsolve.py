"""SPD linear solves and warm-started conjugate gradients for step directions.

Every entry point solves H y = -g and returns the direction together with an
explicitly computed residual certificate ||H y + g||; callers never have to
trust a recurrence or a factorization.  solve_spd factors an assembled H,
solve_diag_lowrank takes H = diag(d) + V V' in factored form,
solve_shifted_eigh takes H + lam I from H's eigendecomposition, and cg_solve
needs only products with H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

RECOMPUTE_EVERY = 50  # CG refreshes the true residual this often
# solve_diag_lowrank refines once when ||r|| > REFINE_FLOOR ||g||: four times the
# largest residual of the moment benchmark's directions (470 eps), a fifth of
# the 1.1e4 eps that cancellation leaves near the simplex face
REFINE_FLOOR = 2048 * np.finfo(float).eps


class NotPositiveDefiniteError(ValueError):
    """The assembled Hessian failed the Cholesky or curvature test."""


@dataclass
class DirectionResult:
    """A computed step direction with its residual certificate.

    direction solves (or approximates) H y = -g.  residual_norm is the
    explicitly evaluated ||H y + g||.  inner_iterations is 0 for exact
    solves and the CG iteration count otherwise.  initial_residual is
    ||H y0 + g|| at the warm start (equal to ||g|| from a cold start).
    """

    direction: np.ndarray
    residual_norm: float
    inner_iterations: int
    initial_residual: float
    converged: bool
    residual_vector: np.ndarray


def solve_spd(H: np.ndarray, g: np.ndarray) -> DirectionResult:
    """Cholesky solve of H y = -g for symmetric positive definite H.

    LAPACK potrf reads only the lower triangle of H and works on a copy, so
    H (often a problem's shared matrix) is never written.  A non-finite
    entry anywhere in H or g reaches the residual H y + g, so the O(p^2)
    finiteness scan runs only when the factorization fails or the residual
    norm is not finite.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be a square matrix, got shape {H.shape}")
    c, info = lapack.dpotrf(H, lower=1, clean=0)
    if info == 0:
        y, _ = lapack.dpotrs(c, -g, lower=1)
        with np.errstate(invalid="ignore", over="ignore"):  # inf/NaN in H meets y here
            residual = H @ y + g
        rnorm = _norm(residual)
    if info != 0 or not math.isfinite(rnorm):
        _reject((H, g), info > 0 and f"Cholesky factorization failed: {info}-th leading minor "
                "of the array is not positive definite")
    return _exact(y, residual, rnorm, _norm(g))


def _exact(y, residual, rnorm, gnorm) -> DirectionResult:
    return DirectionResult(y, rnorm, 0, gnorm, True, residual)


def _reject(arrays, message) -> None:
    """Failure contract: ValueError on non-finite input, else NotPositiveDefiniteError(message)."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite entries in linear system")
    if message:
        raise NotPositiveDefiniteError(message)


def solve_diag_lowrank(d: np.ndarray, V: np.ndarray, g: np.ndarray) -> DirectionResult:
    """Woodbury solve of (diag(d) + V V') y = -g for positive d and V of shape (p, k).

    With D = diag(d) the capacitance matrix C = I + V' D^-1 V is k x k and
    SPD, and y = -(D^-1 g - D^-1 V C^-1 V' D^-1 g) costs O(p k^2) instead of
    the O(p^3) of factoring the assembled matrix (Golub & Van Loan, Matrix
    Computations, 2.1.4).  C is factored by the LAPACK calls solve_spd makes,
    and the certificate is the explicitly evaluated residual
    r = d * y + V (V' y) + g.  That subtraction cancels when C is ill
    conditioned (near the simplex face for the moment family), so when
    ||r|| > REFINE_FLOOR ||g|| one refinement step y += solve(r) is taken
    (Golub & Van Loan, 3.5.3).  The failure contract is solve_spd's: a non-finite
    entry of d, V or g raises ValueError, and d <= 0 or a failed capacitance
    factorization raises NotPositiveDefiniteError; the finiteness scan runs
    only when one of those checks fails.  Inputs are never written.
    """
    d = np.asarray(d, dtype=float)
    V = np.asarray(V, dtype=float)
    g = np.asarray(g, dtype=float)
    if d.ndim != 1 or V.ndim != 2 or V.shape[0] != d.shape[0]:
        raise ValueError(f"need d of shape (p,) and V of shape (p, k), got {d.shape} and {V.shape}")
    positive = d.min() > 0.0  # False on a NaN as well
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dinv = 1.0 / d
        W = V * dinv[:, None]  # D^-1 V
        cap = V.T @ W
        cap.flat[:: cap.shape[0] + 1] += 1.0
        c, info = lapack.dpotrf(cap, lower=1, clean=0, overwrite_a=1)
        if positive and info == 0:

            def solve(r):  # -(D + V V')^-1 r
                z = dinv * r
                t, _ = lapack.dpotrs(c, V.T @ z, lower=1)
                return W @ t - z

            gnorm = _norm(g)
            y = solve(g)
            residual = d * y + V @ (V.T @ y) + g
            rnorm = _norm(residual)
            if rnorm > REFINE_FLOOR * gnorm:
                y += solve(residual)
                residual = d * y + V @ (V.T @ y) + g
                rnorm = _norm(residual)
    if not positive or info != 0 or not math.isfinite(rnorm):
        message = "diagonal part has a nonpositive entry" if not positive else info > 0 and (
            f"Cholesky factorization of the capacitance matrix failed at its {info}-th "
            "leading minor")
        _reject((d, V, g), message)
    return _exact(y, residual, rnorm, gnorm)


def solve_shifted_eigh(H, evals, evecs, lam: float, g: np.ndarray) -> DirectionResult:
    """Solve (H + lam I) y = -g from H's ascending eigendecomposition (numpy.linalg.eigh).

    y = -evecs diag(1 / (evals + lam)) evecs' g is two O(p^2) products, and
    the certificate is the explicitly evaluated H y + lam y + g.  solve_spd's
    failure contract is checked before any product: non-finite lam or g
    raises ValueError, and evals[0] + lam <= 0 NotPositiveDefiniteError.
    """
    g = np.asarray(g, dtype=float)
    gnorm = _norm(g)
    if not (math.isfinite(gnorm) and math.isfinite(lam) and evals[0] + lam > 0.0):
        _reject((g, lam), "shifted matrix has a nonpositive eigenvalue")
    y = evecs @ ((evecs.T @ g) / (-lam - evals))
    residual = H @ y + lam * y + g
    return _exact(y, residual, _norm(residual), gnorm)


def _norm(v) -> float:
    return math.sqrt(float(v @ v))


def cg_solve(
    hessvec,
    g: np.ndarray,
    warm_start: np.ndarray,
    delta: float,
    max_iters: int,
) -> DirectionResult:
    """Conjugate gradients on H y = -g from warm_start, stopping at ||H y + g|| <= delta.

    hessvec(v) must apply the SPD operator H.  Termination is decided only
    on explicitly recomputed residuals: the recurrence residual triggers a
    candidate check, and every RECOMPUTE_EVERY iterations the true residual
    replaces the recurrence to stop drift.  Exhausting max_iters returns the
    best iterate with converged=False rather than raising.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    g = np.asarray(g, dtype=float)
    y = np.array(warm_start, dtype=float, copy=True)
    if y.shape != g.shape:
        raise ValueError(f"warm start shape {y.shape} does not match {g.shape}")

    def true_residual():
        return -g - hessvec(y)  # residual of H y = -g

    r = -g.copy() if not y.any() else true_residual()
    rnorm = float(np.linalg.norm(r))
    initial = rnorm
    if rnorm <= delta:
        return DirectionResult(y, rnorm, 0, initial, True, -r)

    p = r.copy()
    rs = float(r @ r)
    iters = 0
    while iters < max_iters:
        Hp = hessvec(p)
        pHp = float(p @ Hp)
        if not math.isfinite(pHp) or pHp <= 0.0:
            raise NotPositiveDefiniteError(
                f"CG met nonpositive curvature p'Hp = {pHp:.3e}; operator is not SPD"
            )
        alpha = rs / pHp
        y += alpha * p
        r -= alpha * Hp
        iters += 1
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= delta or iters % RECOMPUTE_EVERY == 0:
            r = true_residual()
            rs_new = float(r @ r)
            if math.sqrt(rs_new) <= delta:
                return DirectionResult(y, math.sqrt(rs_new), iters, initial, True, -r)
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new

    r = true_residual()
    rnorm = float(np.linalg.norm(r))
    return DirectionResult(y, rnorm, iters, initial, rnorm <= delta, -r)


def cg_iteration_bound(kappa: float, initial_residual: float, delta: float) -> int:
    """Worst-case CG iterations to reduce the residual from initial_residual to delta.

    ceil((sqrt(kappa) + 1) / 2 * ln(2 sqrt(kappa) initial / delta)), clamped
    at zero when the start already satisfies the tolerance.
    """
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if initial_residual <= delta:
        return 0
    return math.ceil((math.sqrt(kappa) + 1.0) / 2.0 * math.log(2.0 * math.sqrt(kappa) * initial_residual / delta))
