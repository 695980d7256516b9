"""Oracle and comparison solvers.

Schur complement reduction with inner CG or FOM, block-diagonally
preconditioned MINRES/GMRES on the full system, and a sparse direct solver.
The Krylov codes are textbook formulations written against the same
containers as the production solvers so iterate histories line up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DimensionError, GspError, SingularOperatorError
from .linops import DENSE_EIG_LIMIT, spd_inner
from .system import (BREAKDOWN_TOL, ConvergenceRecord, History, SolveResult, grown, mgs_step,
                     rhs_norm, solver_inputs)


@dataclass(frozen=True)
class SchurOperator:
    """Matrix-free S = A^T M^{-1} A + C."""

    sys: object

    def apply(self, x):
        s = self.sys
        return s.A.rmatvec(s.M.solve(s.A.matvec(x))) + s.C.matvec(x)

    def dense(self):
        """S as a dense n x n array: A densified and n M-solves, so m is capped."""
        s = self.sys
        if s.m > DENSE_EIG_LIMIT:  # before any allocation or solve
            raise DimensionError(f"SchurOperator.dense densifies A: m is capped at "
                                 f"{DENSE_EIG_LIMIT}")
        Ad = s.A.to_dense()
        return Ad.T @ np.column_stack([s.M.solve(Ad[:, j]) for j in range(s.n)]) + s.C.to_dense()


def scr_cg_solve(sys, N=None, cfg=None):
    """Schur complement reduction with preconditioned CG on S p = -b.

    u is recovered once at termination by a single M-solve.
    """
    N, cfg = solver_inputs("scr-cg", sys, N, cfg)
    S = SchurOperator(sys)
    t0 = time.perf_counter()

    p = np.zeros(sys.n)
    r = -sys.b
    z = N.solve(r)
    rho = float(r @ z)
    beta1 = rhs_norm(r, z)
    d = z.copy()
    history = History()

    k = 0
    while True:
        k += 1
        w = S.apply(d)
        dw = spd_inner(d, w, "the Schur complement")
        if dw <= 0.0:
            stop = "breakdown", None
            break
        eta = rho / dw
        p = p + eta * d
        r = r - eta * w
        z = N.solve(r)
        rho_next = spd_inner(r, z)
        res_rel = float(np.sqrt(rho_next)) / beta1
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if stop := cfg.stop(k, res_rel, rho_next <= (BREAKDOWN_TOL * beta1) ** 2):
            break
        d = z + (rho_next / rho) * d
        rho = rho_next

    u = -sys.M.solve(sys.A.matvec(p))
    termination, fired = stop
    return SolveResult(u, p, termination, history, fired, beta1)


def scr_fom_solve(sys, N=None, cfg=None):
    """Schur complement reduction with the full orthogonalization method.

    Arnoldi runs in the N inner product on N^{-1} S (equivalent to the
    centered-preconditioned operator without forming square roots); each step
    solves the small Hessenberg system, whose last coefficient gives the
    residual estimate, and the Galerkin iterate is formed once, on termination.
    """
    N, cfg = solver_inputs("scr-fom", sys, N, cfg)
    cfg = replace(cfg, max_iterations=min(cfg.max_iterations, sys.n))
    S = SchurOperator(sys)
    t0 = time.perf_counter()

    r0 = -sys.b
    z0 = N.solve(r0)
    beta1 = rhs_norm(r0, z0)
    Q = [z0 / beta1]
    NQ = [N.apply(Q[0])]
    Hbar = np.zeros((2, 1))
    history = History()

    for j in range(cfg.max_iterations):  # cfg.stop ends the last step at the latest
        k = j + 1
        Hbar = grown(Hbar, (k + 1, k))
        w = mgs_step(N.solve(S.apply(Q[j])), Q, NQ, Hbar[:, j])
        nw = N.apply(w)
        hnext = float(np.sqrt(spd_inner(w, nw)))
        Hbar[k, j] = hnext
        e1 = np.zeros(k)
        e1[0] = beta1
        try:
            y = np.linalg.solve(Hbar[:k, :k], e1)
        except np.linalg.LinAlgError:  # no Galerkin iterate: end on the previous one
            stop, k = ("breakdown", None), j
            break
        res_rel = hnext * abs(y[-1]) / beta1
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if stop := cfg.stop(k, res_rel, hnext <= BREAKDOWN_TOL * beta1):
            break
        Q.append(w / hnext)
        NQ.append(nw / hnext)

    p = np.column_stack(Q[:k]) @ y if k else np.zeros(sys.n)
    u = -sys.M.solve(sys.A.matvec(p))
    termination, fired = stop
    return SolveResult(u, p, termination, history, fired, beta1)


def _blockdiag_solve(sys, N, z):
    """blkdiag(M, N)^{-1} z, the preconditioner of pminres and pgmres."""
    return np.concatenate([sys.M.solve(z[:sys.m]), N.solve(z[sys.m:])])


def pminres_solve(sys, N=None, cfg=None):
    """MINRES on the full system with the SPD preconditioner blkdiag(M, N).

    Mathematically equivalent to running MINRES on the centered-preconditioned
    system; the recurrence monitors the preconditioner-weighted residual norm,
    which is monotone nonincreasing by construction.
    """
    N, cfg = solver_inputs("pminres", sys, N, cfg)
    t0 = time.perf_counter()

    mn = sys.m + sys.n
    f = np.concatenate([np.zeros(sys.m), sys.b])
    x = np.zeros(mn)
    r1 = f.copy()
    y = _blockdiag_solve(sys, N, r1)
    beta1 = rhs_norm(f, y, "blkdiag(M, N)")

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(mn)
    w2 = np.zeros(mn)
    r2 = r1
    history = History()

    k = 0
    while True:
        k += 1
        v = y / beta
        y = sys.matvec(v)
        if k >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = _blockdiag_solve(sys, N, r2)
        oldb = beta
        beta = float(np.sqrt(spd_inner(r2, y, "blkdiag(M, N)")))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        if (gamma := float(np.hypot(gbar, beta))) <= 1e-300:  # no rotation: keep x
            stop = "breakdown", None
            break
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
        if stop := cfg.stop(k, res_rel, beta <= BREAKDOWN_TOL * beta1):
            break

    termination, fired = stop
    return SolveResult(x[:sys.m], x[sys.m:], termination, history, fired, beta1)


def pgmres_solve(sys, N=None, cfg=None):
    """Right-preconditioned GMRES (MGS Arnoldi, no restarts) on the full system.

    Minimizes the unpreconditioned 2-norm residual over the right-
    preconditioned Krylov space; the final iterate needs one blockwise solve.
    """
    N, cfg = solver_inputs("pgmres", sys, N, cfg)
    cfg = replace(cfg, max_iterations=min(cfg.max_iterations, sys.m + sys.n))
    t0 = time.perf_counter()

    f = np.concatenate([np.zeros(sys.m), sys.b])
    beta = rhs_norm(f, f)
    V = [f / beta]
    R = np.zeros((2, 1))
    g = np.array([beta, 0.0])
    rotations = []
    history = History()

    for j in range(cfg.max_iterations):  # cfg.stop ends the last step at the latest
        k = j + 1
        R, g = grown(R, (k + 1, k)), grown(g, (k + 1,))
        w = mgs_step(sys.matvec(_blockdiag_solve(sys, N, V[j])), V, V, R[:, j])
        hnext = float(np.linalg.norm(w))
        for (c, s), i in zip(rotations, range(j)):
            tmp = c * R[i, j] + s * R[i + 1, j]
            R[i + 1, j] = -s * R[i, j] + c * R[i + 1, j]
            R[i, j] = tmp
        if (denom := float(np.hypot(R[j, j], hnext))) <= 1e-300:  # no rotation: keep j steps
            stop, k = ("breakdown", None), j
            break
        c, s = R[j, j] / denom, hnext / denom
        rotations.append((c, s))
        R[j, j] = denom
        g[j + 1] = -s * g[j]
        g[j] = c * g[j]

        res_rel = abs(g[j + 1]) / beta
        history.append(ConvergenceRecord(k, res_rel, wall_time_s=time.perf_counter() - t0))
        if stop := cfg.stop(k, res_rel, hnext <= BREAKDOWN_TOL * beta):
            break
        V.append(w / hnext)

    y = scipy.linalg.solve_triangular(R[:k, :k], g[:k], lower=False)
    x = _blockdiag_solve(sys, N, np.column_stack(V[:k]) @ y) if k else np.zeros(sys.m + sys.n)
    termination, fired = stop
    return SolveResult(x[:sys.m], x[sys.m:], termination, history, fired, beta)


def direct_solve(sys):
    """Sparse LU of the assembled K with no size cap; the test oracle.

    SuperLU keeps its defaults (COLAMD, partial pivoting): factorize's
    minimum-degree order on K^T + K, chosen for M, fills catastrophically here.
    """
    import scipy.sparse.linalg  # here, as in linops._sparse_factor: loaded only when used

    A = sys.A.csr
    K = scipy.sparse.block_array([[sys.Mmat.csr, A], [A.T, -sys.C.csr]], format="csc")
    f = np.concatenate([np.zeros(sys.m), sys.b])
    try:
        lu = scipy.sparse.linalg.splu(K)
    except RuntimeError as exc:  # SuperLU found an exactly zero pivot
        raise SingularOperatorError(f"full system matrix is singular: {exc}") from exc
    piv_diag = np.abs(lu.U.diagonal())
    if piv_diag.min() <= 1e-14 * max(piv_diag.max(), 1e-300):
        raise SingularOperatorError("full system matrix is numerically singular")
    z = lu.solve(f)
    resid = np.linalg.norm(K @ z - f)
    if resid > 1e-8 * np.linalg.norm(f):
        raise GspError("full system too ill-conditioned for the direct oracle")
    return z[:sys.m], z[sys.m:]
