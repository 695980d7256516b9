"""Oracle and comparison solvers.

Schur complement reduction with inner CG or FOM, block-diagonally
preconditioned MINRES/GMRES on the full system, and a dense direct solver.
The Krylov codes are textbook formulations written against the same
containers as the production solvers so iterate histories line up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BreakdownError,
    GspError,
    NotSpdError,
    SingularOperatorError,
    WrongSolverError,
    ZeroRhsError,
)
from .linops import FactorizedOperator, SpdPreconditioner
from .system import ConvergenceRecord, SolveResult, SolverConfig

EXACT_TOL = 1e-14


@dataclass(frozen=True)
class SchurOperator:
    """Matrix-free S = A^T M^{-1} A + C."""

    sys: object

    def apply(self, x):
        s = self.sys
        return s.A.rmatvec(s.M.solve(s.A.matvec(x))) + s.C.matvec(x)

    def dense(self):
        s = self.sys
        Ad = s.A.to_dense()
        return Ad.T @ np.column_stack([s.M.solve(Ad[:, j]) for j in range(s.n)]) + s.C.to_dense()


@dataclass(frozen=True)
class BlockDiagPreconditioner:
    """blkdiag(M, N) applied inverse-blockwise."""

    Msolve: FactorizedOperator
    Nsolve: SpdPreconditioner

    def solve(self, z):
        m = self.Msolve.dimension
        return np.concatenate([self.Msolve.solve(z[:m]), self.Nsolve.solve(z[m:])])


def scr_cg_solve(sys, N=None, cfg=None):
    """Schur complement reduction with preconditioned CG on S p = -b.

    p iterates are recorded each step (kept when cfg.keep_iterates); u is
    recovered once at termination by a single M-solve.
    """
    cfg = cfg or SolverConfig()
    if not sys.symmetric:
        raise WrongSolverError("scr-cg requires a symmetric leading block")
    if not np.any(sys.b):
        raise ZeroRhsError("b must be nonzero")
    N = N or SpdPreconditioner.identity(sys.n)
    S = SchurOperator(sys)
    t0 = time.perf_counter()

    p = np.zeros(sys.n)
    r = -sys.b
    z = N.solve(r)
    rho = float(r @ z)
    beta1 = float(np.sqrt(max(rho, 0.0)))
    d = z.copy()
    history = []
    p_list = [] if cfg.keep_iterates else None
    termination = "max-iterations"

    k = 0
    while k < cfg.max_iterations:
        k += 1
        w = S.apply(d)
        dw = float(d @ w)
        if dw <= 0.0:
            termination = "breakdown"
            k -= 1
            break
        eta = rho / dw
        p = p + eta * d
        r = r - eta * w
        z = N.solve(r)
        rho_next = max(float(r @ z), 0.0)
        res_rel = float(np.sqrt(rho_next)) / beta1
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if cfg.keep_iterates:
            p_list.append(p.copy())
        if rho_next <= (EXACT_TOL * beta1) ** 2:
            termination = "exact-termination"
            break
        if res_rel < cfg.tolerance:
            termination = "converged"
            break
        d = z + (rho_next / rho) * d
        rho = rho_next

    u = -sys.M.solve(sys.A.matvec(p))
    return SolveResult(u, p, termination, history, p_iterates=p_list, beta1=beta1)


def scr_fom_solve(sys, N=None, cfg=None):
    """Schur complement reduction with the full orthogonalization method.

    Arnoldi runs in the N inner product on N^{-1} S (equivalent to the
    centered-preconditioned operator without forming square roots); each step
    solves the small Hessenberg system for the Galerkin iterate.
    """
    cfg = cfg or SolverConfig()
    if not np.any(sys.b):
        raise ZeroRhsError("b must be nonzero")
    N = N or SpdPreconditioner.identity(sys.n)
    S = SchurOperator(sys)
    t0 = time.perf_counter()

    r0 = -sys.b
    z0 = N.solve(r0)
    beta1 = float(np.sqrt(max(r0 @ z0, 0.0)))
    Q = [z0 / beta1]
    NQ = [N.apply(Q[0])]
    maxit = min(cfg.max_iterations, sys.n)
    Hbar = np.zeros((maxit + 1, maxit))
    history = []
    p_list = [] if cfg.keep_iterates else None
    p = np.zeros(sys.n)
    termination = "max-iterations"

    k = 0
    for j in range(maxit):
        k = j + 1
        w = N.solve(S.apply(Q[j]))
        for i in range(k):
            c = float(NQ[i] @ w)
            w = w - c * Q[i]
            Hbar[i, j] = c
        hnext = float(np.sqrt(max(w @ N.apply(w), 0.0)))
        Hbar[k, j] = hnext
        e1 = np.zeros(k)
        e1[0] = beta1
        try:
            y = np.linalg.solve(Hbar[:k, :k], e1)
        except np.linalg.LinAlgError as exc:
            raise BreakdownError(f"singular Hessenberg block in FOM: {exc}") from exc
        p = np.column_stack(Q[:k]) @ y
        res_rel = hnext * abs(y[-1]) / beta1
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if cfg.keep_iterates:
            p_list.append(p.copy())
        if hnext <= EXACT_TOL * beta1:
            termination = "exact-termination"
            break
        if res_rel < cfg.tolerance:
            termination = "converged"
            break
        Q.append(w / hnext)
        NQ.append(N.apply(Q[-1]))

    u = -sys.M.solve(sys.A.matvec(p))
    return SolveResult(u, p, termination, history, p_iterates=p_list, beta1=beta1)


def pminres_solve(sys, N=None, cfg=None):
    """MINRES on the full system with the SPD preconditioner blkdiag(M, N).

    Mathematically equivalent to running MINRES on the centered-preconditioned
    system; the recurrence monitors the preconditioner-weighted residual norm,
    which is monotone nonincreasing by construction.
    """
    cfg = cfg or SolverConfig()
    if not sys.symmetric:
        raise WrongSolverError("pminres requires a symmetric leading block")
    if not np.any(sys.b):
        raise ZeroRhsError("b must be nonzero")
    N = N or SpdPreconditioner.identity(sys.n)
    D0 = BlockDiagPreconditioner(sys.M, N)
    t0 = time.perf_counter()

    mn = sys.m + sys.n
    f = np.concatenate([np.zeros(sys.m), sys.b])
    x = np.zeros(mn)
    r1 = f.copy()
    y = D0.solve(r1)
    beta1_sq = float(f @ y)
    if beta1_sq <= 0.0:
        raise NotSpdError("block preconditioner is not positive definite")
    beta1 = float(np.sqrt(beta1_sq))

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(mn)
    w2 = np.zeros(mn)
    r2 = r1
    history = []
    termination = "max-iterations"

    k = 0
    while k < cfg.max_iterations:
        k += 1
        v = y / beta
        y = sys.matvec(v)
        if k >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = D0.solve(r2)
        oldb = beta
        beta_sq = float(r2 @ y)
        if beta_sq < 0.0:
            raise NotSpdError("block preconditioner is not positive definite")
        beta = float(np.sqrt(beta_sq))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(float(np.hypot(gbar, beta)), 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        res_rel = phibar / beta1
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if beta <= EXACT_TOL * beta1:
            termination = "exact-termination"
            break
        if res_rel < cfg.tolerance:
            termination = "converged"
            break

    return SolveResult(x[:sys.m], x[sys.m:], termination, history, beta1=beta1)


def pgmres_solve(sys, N=None, cfg=None):
    """Right-preconditioned GMRES (MGS Arnoldi, no restarts) on the full system.

    Minimizes the unpreconditioned 2-norm residual over the right-
    preconditioned Krylov space; the final iterate needs one blockwise solve.
    """
    cfg = cfg or SolverConfig()
    if not np.any(sys.b):
        raise ZeroRhsError("b must be nonzero")
    N = N or SpdPreconditioner.identity(sys.n)
    D0 = BlockDiagPreconditioner(sys.M, N)
    t0 = time.perf_counter()

    mn = sys.m + sys.n
    f = np.concatenate([np.zeros(sys.m), sys.b])
    beta = float(np.linalg.norm(f))
    maxit = min(cfg.max_iterations, mn)
    V = [f / beta]
    R = np.zeros((maxit + 1, maxit))
    g = np.zeros(maxit + 1)
    g[0] = beta
    rotations = []
    history = []
    termination = "max-iterations"

    def extract(j):
        y = scipy.linalg.solve_triangular(R[:j, :j], g[:j], lower=False)
        return D0.solve(np.column_stack(V[:j]) @ y)

    k = 0
    for j in range(maxit):
        k = j + 1
        w = sys.matvec(D0.solve(V[j]))
        for i in range(k):
            R[i, j] = float(V[i] @ w)
            w = w - R[i, j] * V[i]
        hnext = float(np.linalg.norm(w))
        for (c, s), i in zip(rotations, range(j)):
            tmp = c * R[i, j] + s * R[i + 1, j]
            R[i + 1, j] = -s * R[i, j] + c * R[i + 1, j]
            R[i, j] = tmp
        denom = max(float(np.hypot(R[j, j], hnext)), 1e-300)
        c, s = R[j, j] / denom, hnext / denom
        rotations.append((c, s))
        R[j, j] = denom
        g[j + 1] = -s * g[j]
        g[j] = c * g[j]

        res_rel = abs(g[j + 1]) / beta
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if hnext <= EXACT_TOL * beta:
            termination = "exact-termination"
            break
        if res_rel < cfg.tolerance:
            termination = "converged"
            break
        V.append(w / hnext)

    x = extract(k)
    return SolveResult(x[:sys.m], x[sys.m:], termination, history, beta1=beta)


def direct_solve(sys):
    """Dense LU (partial pivoting) on the assembled full system; test oracle."""
    m, n = sys.m, sys.n
    if m + n > 5000:
        raise GspError("direct solve capped at m + n <= 5000")
    K = np.zeros((m + n, m + n))
    K[:m, :m] = sys.Mmat.to_dense()
    Ad = sys.A.to_dense()
    K[:m, m:] = Ad
    K[m:, :m] = Ad.T
    K[m:, m:] = -sys.C.to_dense()
    f = np.concatenate([np.zeros(m), sys.b])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(K, check_finite=False)
    piv_diag = np.abs(np.diag(lu[0]))
    if piv_diag.min() <= 1e-14 * max(piv_diag.max(), 1e-300):
        raise SingularOperatorError("full system matrix is numerically singular")
    z = scipy.linalg.lu_solve(lu, f, check_finite=False)
    resid = np.linalg.norm(K @ z - f)
    if resid > 1e-8 * np.linalg.norm(f):
        raise GspError("full system too ill-conditioned for the dense oracle")
    return z[:m], z[m:]
