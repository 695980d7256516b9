"""Generalized Golub-Kahan solver loop behind CRAIG and nsCRAIG.

One loop serves both solvers. CRAIG orthogonalizes each new right vector
against the previous one only (three-term recurrence) and updates both
iterates by short recurrences. nsCRAIG orthogonalizes it against the whole
stored right basis (modified Gram-Schmidt in the N inner product), whose
coefficients form the Hessenberg columns, and defers solution assembly until
the stopping rule fires: one Hessenberg solve and one bidiagonal back
substitution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BreakdownError, InsufficientHistoryError, ZeroRhsError
from .gkb import BREAKDOWN_TOL, assemble_bidiagonal, assemble_hessenberg
from .linops import SpdPreconditioner
from .system import ConvergenceRecord, SolveResult, SolverConfig


@dataclass
class HessenbergFactors:
    """Assembled small factors of a nsCRAIG run."""

    B: np.ndarray
    H: np.ndarray

    @classmethod
    def assemble(cls, alphas, betas, h_columns, k):
        return cls(assemble_bidiagonal(alphas, betas, k), assemble_hessenberg(h_columns, betas, k))

    def lower_factor(self):
        """Unit lower triangular L with H = B^T L^T, extracted by triangular solve."""
        return scipy.linalg.solve_triangular(self.B.T, self.H, lower=True).T


def assemble_solution(alphas, betas, h_columns, beta1, method="triangular"):
    """Solve for the small coefficient vector y with B y = -z, H z = beta_1 e1.

    'triangular' exploits H = B^T L^T (forward substitution for the chi
    recursion, one back substitution with L^T); 'dense' solves the assembled
    Hessenberg with row-pivoted elimination as a cross-check.
    """
    k = len(alphas)
    factors = HessenbergFactors.assemble(alphas, betas, h_columns, k)
    if method == "dense":
        e1 = np.zeros(k)
        e1[0] = beta1
        try:
            z = np.linalg.solve(factors.H, e1)
        except np.linalg.LinAlgError as exc:
            raise BreakdownError(f"singular Hessenberg block: {exc}") from exc
    else:
        x = np.empty(k)
        x[0] = beta1 / alphas[0]
        for i in range(1, k):
            x[i] = -(betas[i] / alphas[i]) * x[i - 1]
        z = scipy.linalg.solve_triangular(factors.lower_factor().T, x, lower=False)
    return scipy.linalg.solve_triangular(factors.B, -z, lower=False)


def gkb_solve(sys, N, cfg, full_mgs):
    """Run the generalized Golub-Kahan loop; full_mgs selects nsCRAIG over CRAIG.

    Without full_mgs (CRAIG) only the latest q, v, r, s, t vectors are
    retained unless cfg.reorthogonalize or cfg.keep_iterates needs the right
    basis. cfg.reorthogonalize adds one more MGS pass over the stored basis in
    both modes. Under cfg.keep_iterates every iterate is formed (nsCRAIG:
    assembled each iteration) and kept with the right basis Q.
    """
    cfg = cfg or SolverConfig()
    if not np.any(sys.b):
        raise ZeroRhsError("b must be nonzero")
    N = N or SpdPreconditioner.identity(sys.n)
    A, C, Mmat, M = sys.A, sys.C, sys.Mmat, sys.M
    t0 = time.perf_counter()

    q = N.solve(sys.b)
    beta1 = float(np.sqrt(max(q @ sys.b, 0.0)))
    if beta1 == 0.0:
        raise ZeroRhsError("b has zero N^{-1}-norm")
    q = q / beta1
    nq = N.apply(q)
    store_basis = full_mgs or cfg.reorthogonalize or cfg.keep_iterates
    Q, NQ = ([q], [nq]) if store_basis else (None, None)
    w = M.solve(A.matvec(q))
    r = q.copy()
    s = C.matvec(r)
    alpha = float(np.sqrt(max(w @ Mmat.matvec(w) + r @ s, 0.0)))

    alphas, betas, scalars = [alpha], [beta1], []
    h_columns = [] if full_mgs else None
    history = []
    u_list = [] if cfg.keep_iterates else None
    p_list = [] if cfg.keep_iterates else None

    if alpha <= BREAKDOWN_TOL * max(beta1, 1.0):
        return SolveResult(np.zeros(sys.m), np.zeros(sys.n), "breakdown", history, beta1=beta1)

    v = w / alpha
    t = s / alpha
    zeta = beta1 / alpha
    scalars.append(zeta)
    if not full_mgs:
        u = zeta * v
        p = -(zeta / alpha) * r

    def assemble_iterate(k):
        y = assemble_solution(alphas[:k], betas, h_columns, beta1)
        p = np.column_stack(Q[:k]) @ y
        return -M.solve(A.matvec(p)), p

    passes = int(full_mgs) + int(cfg.reorthogonalize)
    k = 1
    termination = "max-iterations"
    fired = None
    while True:
        if full_mgs:
            g = N.solve(A.rmatvec(v) + t)
        else:
            g = N.solve(A.rmatvec(v) + t - alphas[-1] * nq)
        h = np.zeros(k)
        for _ in range(passes):
            for j in range(k):
                c = NQ[j] @ g
                g = g - c * Q[j]
                h[j] += c
        if full_mgs:
            h_columns.append(h)
        beta = float(np.sqrt(max(g @ N.apply(g), 0.0)))
        betas.append(beta)

        if cfg.keep_iterates:
            ui, pi = assemble_iterate(k) if full_mgs else (u, p)
            u_list.append(ui)
            p_list.append(pi)

        res_rel = (beta / beta1) * abs(zeta)
        err_est = None
        if cfg.wants_error_estimate and k >= cfg.error_delay:
            if full_mgs:
                L = HessenbergFactors.assemble(alphas, betas, h_columns, k).lower_factor()
                ratio = nscraig_error_estimate(scalars, L, k, cfg.error_delay)
            else:
                ratio = craig_error_estimate(scalars, k, cfg.error_delay)
            err_est = float(np.sqrt(abs(ratio)))
        history.append(ConvergenceRecord(k, res_rel, err_est, alphas[-1], beta, zeta,
                                         time.perf_counter() - t0))

        if beta <= BREAKDOWN_TOL * beta1:
            termination = "exact-termination"
            break
        if cfg.wants_residual and res_rel < cfg.tolerance:
            termination, fired = "converged", "relative-residual"
            break
        if cfg.wants_error_estimate and err_est is not None and err_est < cfg.tolerance:
            termination, fired = "converged", "error-estimate"
            break
        if k >= cfg.max_iterations:
            termination = "max-iterations"
            break

        q = g / beta
        nq = N.apply(q)
        if store_basis:
            Q.append(q)
            NQ.append(nq)
        w = M.solve(A.matvec(q) - beta * Mmat.matvec(v))
        r = q - (beta / alphas[-1]) * r
        s = C.matvec(r)
        alpha = float(np.sqrt(max(w @ Mmat.matvec(w) + r @ s, 0.0)))
        if alpha <= BREAKDOWN_TOL * alphas[0]:
            termination = "breakdown"
            break
        alphas.append(alpha)
        v = w / alpha
        t = s / alpha
        zeta = -(beta / alpha) * zeta
        scalars.append(zeta)
        if not full_mgs:
            u = u + zeta * v
            p = p - (zeta / alpha) * r
        k += 1

    if full_mgs:
        u, p = (u_list[-1], p_list[-1]) if cfg.keep_iterates else assemble_iterate(k)
    return SolveResult(u, p, termination, history, fired_criterion=fired, beta1=beta1,
                       h_columns=h_columns, u_iterates=u_list, p_iterates=p_list,
                       Q=Q if cfg.keep_iterates else None)


def nscraig_solve(sys, N=None, cfg=None):
    """Run nsCRAIG; symmetric instances are accepted and match craig's iterates.

    Iterates are assembled only on termination unless cfg.keep_iterates turns
    on the eager mode (every iteration, for replay diagnostics).
    """
    return gkb_solve(sys, N, cfg, full_mgs=True)


def _check_window(scalars, k, d):
    if d < 1:
        raise ValueError("delay d must be >= 1")
    if k < d or len(scalars) < k:
        raise InsufficientHistoryError(f"need k >= d and {k} recorded scalars")


def craig_error_estimate(zetas, k, d):
    """Squared delayed relative energy-error estimate from the zeta history.

    Returns sum(zeta_i^2, i = k-d+1..k) / sum(zeta_i^2, i = 1..k); the square
    root estimates the relative energy error d steps back.
    """
    _check_window(zetas, k, d)
    z = np.asarray(zetas[:k], dtype=float)
    total = float(z @ z)
    if total == 0.0:
        raise ValueError("all-zero zeta history")
    window = z[k - d:]
    return float(window @ window) / total


def nscraig_error_estimate(chis, lower_factor, k, d):
    """Squared delayed relative energy-error estimate for nsCRAIG.

    Solves L^T z = x by back substitution (x holds chi_1..chi_k) and returns
    sum(chi_i z_i, i = k-d+1..k) / sum(chi_i z_i, i = 1..k). The ratio can be
    negative or exceed 1: no minimization property holds here. The solver
    monitors the square root of its magnitude, as CRAIG does.
    """
    _check_window(chis, k, d)
    L = np.asarray(lower_factor, dtype=float)
    if L.shape != (k, k):
        raise InsufficientHistoryError(f"lower factor must be {k} x {k}")
    x = np.asarray(chis[:k], dtype=float)
    z = scipy.linalg.solve_triangular(L.T, x, lower=False)
    terms = x * z
    total = float(terms.sum())
    if total == 0.0:
        raise ValueError("zero denominator in error estimate")
    return float(terms[k - d:].sum()) / total


@dataclass
class ResidualCheckReport:
    """Replay diagnostics: recomputed residuals against the recurrence values.

    dual_defects[i] = |explicit N^{-1}-norm residual - beta_{k+1}|scalar_k|| / beta_1,
    upper_ratios[i] = ||M u + A p|| / (||A||_F ||p||),
    orth_defects[i] = max_j |residual . q_j| (None when no basis was stored).
    """

    dual_defects: list[float]
    upper_ratios: list[float]
    orth_defects: list[float] | None
    beta1: float


def residual_check(sys, N, result):
    """Recompute every recorded residual explicitly and report the defects."""
    if result.u_iterates is None or result.p_iterates is None or not result.history:
        raise InsufficientHistoryError("solve must be run with keep_iterates=True")
    N = N or SpdPreconditioner.identity(sys.n)
    beta1 = result.beta1
    a_norm = float(np.linalg.norm(sys.A.values))
    dual, upper, orth = [], [], []
    Q = result.Q
    for rec, u, p in zip(result.history, result.u_iterates, result.p_iterates):
        resid = sys.b - sys.A.rmatvec(u) + sys.C.matvec(p)
        explicit = N.inv_norm(resid)
        dual.append(abs(explicit - rec.beta_next * abs(rec.scalar)) / beta1)
        block = np.linalg.norm(sys.Mmat.matvec(u) + sys.A.matvec(p))
        upper.append(block / max(a_norm * np.linalg.norm(p), 1e-300))
        if Q is not None:
            orth.append(max(abs(resid @ qj) for qj in Q[: rec.k]))
    return ResidualCheckReport(dual, upper, orth if Q is not None else None, beta1)


# Both solvers run the same loop and fill the same result fields.
craig_residual_check = nscraig_residual_check = residual_check
