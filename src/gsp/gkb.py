"""The Golub-Kahan bidiagonalization oracle for saddle point systems with C = 0.

bidiagonalize runs the generalized bidiagonalization of A in the M and N inner
products fully orthogonalized, for any M (on a symmetric M it is Arioli's
three-term process in exact arithmetic), and stores full bases so that
verify_decomposition can check the factorization identities. augment() turns
C = E^T diag(w) E into the equivalent C = 0 system
(blkdiag(M, diag(w)^{-1}), [A; E], 0, b); the solvers never form E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .baselines import SchurOperator
from .errors import BreakdownError, DimensionError, WrongSolverError, ZeroRhsError
from .linops import DENSE_EIG_LIMIT, SparseMatrix, spd_inner, spsd_factor
from .system import BREAKDOWN_TOL, SaddleSystem, check_n, grown, mgs_step, rhs_norm


def augment(sys):
    """The C = 0 system (blkdiag(M, diag(w)^{-1}), [A; E], 0, b), C = E^T diag(w) E.

    E and w come from spsd_factor, so a C of numerical rank 0 adds no rows and
    gives (M, A, 0, b). factorize reads the kind of the augmented leading block.
    """
    E, w = spsd_factor(sys.C)
    lead = scipy.sparse.block_diag((sys.Mmat.csr, scipy.sparse.diags_array(1.0 / w)),
                                   format="csr")
    coupling = scipy.sparse.vstack((sys.A.csr, E), format="csr")
    return SaddleSystem.from_matrices(SparseMatrix(lead), SparseMatrix(coupling),
                                      SparseMatrix.zeros(sys.n, sys.n), sys.b)


@dataclass
class Bidiagonalization:
    """k steps of the generalized Golub-Kahan bidiagonalization of A, as arrays.

    Q holds rows q_1..q_{k+1} (q_{k+1} is missing when beta_{k+1} broke
    down) and V rows v_1..v_k; alphas holds alpha_1..alpha_k and betas
    beta_1..beta_{k+1}. B is the upper bidiagonal B_k and H the upper
    Hessenberg H_k, with A Q_k = M V_k B_k and
    A^T V_k = N Q_k H_k + beta_{k+1} N q_{k+1} e_k^T; L is the lower
    triangle of V_k^T M V_k, and H_k = B_k^T L^T. H = B^T and L = I
    hold in exact arithmetic on a symmetric M, and to roundoff in a run.
    """

    Q: np.ndarray
    V: np.ndarray
    alphas: list[float]
    betas: list[float]
    B: np.ndarray
    H: np.ndarray
    L: np.ndarray

    @property
    def k(self):
        return len(self.alphas)


def assemble_bidiagonal(alphas, betas, k=None):
    """Upper bidiagonal B_k: alphas on the diagonal, beta_2..beta_k above it."""
    k = k or len(alphas)
    B = np.diag(np.asarray(alphas[:k], dtype=float))
    if k > 1:
        B += np.diag(np.asarray(betas[1:k], dtype=float), 1)
    return B


def bidiagonalize(sys, N, steps):
    """Bidiagonalize A of a C = 0 system in the M and N inner products.

    One modified Gram-Schmidt pass in the N inner product orthogonalizes each
    new right vector against all previous ones; its coefficients and
    beta_{k+1} form H. The first step runs the loop's head from M v_0 = 0.
    Stops early once beta_{k+1} falls below BREAKDOWN_TOL * beta_1; a
    vanishing alpha, the sign of an inconsistent b, raises BreakdownError.
    Stored C entries raise WrongSolverError, and an N that check_n refuses
    raises its error before any solve.
    """
    if sys.C.nnz:
        raise WrongSolverError("the oracle needs C = 0: pass augment(sys)")
    n = sys.n
    if not 1 <= steps <= n:
        raise DimensionError(f"steps must be in [1, {n}]")
    check_n(N, n, product=True)
    b = sys.b
    if not np.any(b):
        raise ZeroRhsError("b must be nonzero")
    A, M = sys.A, sys.M

    g = N.solve(b)
    beta = beta1 = rhs_norm(g, b)
    Q, NQ, V, alphas, betas = [], [], [], [], [beta1]
    H = np.zeros((1, 0))
    mv = np.zeros(sys.m)
    alpha_floor = BREAKDOWN_TOL * max(beta1, 1.0)

    for k in range(1, steps + 1):
        q = g / beta
        Q.append(q)
        NQ.append(N.apply(q))
        w = M.solve(A.matvec(q) - beta * mv)
        alpha = float(np.sqrt(max(w @ M.apply(w), 0.0)))
        if alpha <= alpha_floor:
            raise BreakdownError("alpha_1 vanished: b is outside Range(A^T)" if k == 1
                                 else f"alpha_{k} = {alpha} below breakdown tolerance")
        if k == 1:
            alpha_floor = BREAKDOWN_TOL * alpha
        alphas.append(alpha)
        v = w / alpha
        V.append(v)
        mv = M.apply(v)

        H = grown(H, (k + 1, k))
        g = mgs_step(N.solve(A.rmatvec(v)), Q, NQ, H[:, k - 1])
        beta = float(np.sqrt(spd_inner(g, N.apply(g))))
        betas.append(beta)
        H[k, k - 1] = beta
        if beta <= BREAKDOWN_TOL * beta1:
            break
    else:
        Q.append(g / beta)

    V = np.array(V)
    Vk = np.ascontiguousarray(V.T)  # m x k: another layout changes L's bits
    L = np.tril(Vk.T @ _apply_columns(M, Vk))
    return Bidiagonalization(np.array(Q), V, alphas, betas,
                             assemble_bidiagonal(alphas, betas), H[:k, :k], L)


def _apply_columns(K, X):
    """K X, one K.apply per column of X."""
    return np.column_stack([K.apply(x) for x in X.T])


@dataclass
class DecompositionReport:
    """Frobenius residuals of the factorization identities (absolute)."""

    factor_residual: float
    transpose_residual: float
    q_orthogonality: float
    v_orthogonality: float
    schur_residual: float | None
    scale: float


def verify_decomposition(sys, N, gkb):
    """Evaluate the factorization identities of a Bidiagonalization of a C = 0 system.

    Returns the Frobenius residuals of A Q = M V B and
    A^T V = N Q H + beta_{k+1} N q_{k+1} e_k^T, of Q^T N Q = I and of
    V^T M V = L; when the decomposition ran to full
    length, H B is also compared against the preconditioned Schur complement
    A^T M^{-1} A expressed in the right basis (formed densely). A is densified,
    so m is capped at DENSE_EIG_LIMIT (DimensionError).
    """
    if sys.m > DENSE_EIG_LIMIT:
        raise DimensionError(f"verify_decomposition densifies A: m is capped at {DENSE_EIG_LIMIT}")
    k = gkb.k
    Qk, Vk = gkb.Q[:k].T, gkb.V.T
    Ad = sys.A.to_dense()
    NQ, MV = _apply_columns(N, Qk), _apply_columns(sys.M, Vk)

    factor_residual = float(np.linalg.norm(Ad @ Qk - MV @ gkb.B))

    rhs = NQ @ gkb.H
    if len(gkb.Q) > k:
        rhs = rhs + gkb.betas[k] * np.outer(N.apply(gkb.Q[k]), np.eye(k)[k - 1])
    transpose_residual = float(np.linalg.norm(Ad.T @ Vk - rhs))

    q_orth = float(np.linalg.norm(Qk.T @ NQ - np.eye(k)))
    v_orth = float(np.linalg.norm(Vk.T @ MV - gkb.L))

    schur_residual = None
    if k == sys.n:
        S = SchurOperator(sys).dense()
        schur_residual = float(np.linalg.norm(gkb.H @ gkb.B - Qk.T @ S @ Qk))

    return DecompositionReport(factor_residual, transpose_residual, q_orth, v_orth,
                               schur_residual, float(np.linalg.norm(Ad)))
