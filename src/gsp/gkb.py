"""Golub-Kahan bidiagonalization oracles for saddle point systems with C = 0.

Arioli's generalized Golub-Kahan bidiagonalization of A in the M and N inner
products, storing full bases so the factorization identities can be verified
directly. augment() turns a system with C = E^T diag(w) E into the equivalent
C = 0 system (blkdiag(M, diag(w)^{-1}), [A; E], 0, b); the production solvers
reproduce the same scalar sequences without ever forming E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .baselines import SchurOperator
from .errors import BreakdownError, DimensionError, WrongSolverError, ZeroRhsError
from .linops import SparseMatrix, spsd_factor
from .system import BREAKDOWN_TOL, SaddleSystem, check_n, grown, rhs_norm


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
    triangle of V_k^T M V_k, and H_k = B_k^T L^T. A symmetric run has
    H = B^T and L = I.
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


def _init_step(sys, N):
    check_n(N, sys.n)
    b = sys.b
    if not np.any(b):
        raise ZeroRhsError("b must be nonzero")
    q = N.solve(b)
    beta1 = rhs_norm(q, b)
    q = q / beta1
    w = sys.M.solve(sys.A.matvec(q))
    alpha1 = float(np.sqrt(max(w @ sys.M.apply(w), 0.0)))
    if alpha1 <= BREAKDOWN_TOL * max(beta1, 1.0):
        raise BreakdownError("alpha_1 vanished: b is outside Range(A^T)")
    return q, beta1, w / alpha1, alpha1


def _bidiagonalize(sys, N, steps, full_mgs, reorthogonalize):
    """Shared oracle loop: three-term orthogonalization, or full MGS when full_mgs.

    reorthogonalize adds one more MGS pass over the stored right basis. Returns
    the bases Q and V as arrays of rows, alphas, betas and H_k under full_mgs:
    a (k+1) x k array takes each step's MGS coefficients and beta_{k+1} below
    them, and its leading k x k block is returned. Stored C entries raise
    WrongSolverError, and an N that check_n refuses raises its error before
    any solve.
    """
    if sys.C.nnz:
        raise WrongSolverError("the oracle needs C = 0: pass augment(sys)")
    n = sys.n
    if not 1 <= steps <= n:
        raise DimensionError(f"steps must be in [1, {n}]")
    A, M = sys.A, sys.M

    q, beta1, v, alpha = _init_step(sys, N)
    Q, NQ, V = [q], [N.apply(q)], [v]
    alphas, betas = [alpha], [beta1]
    H = np.zeros((1, 0))
    passes = int(full_mgs) + int(reorthogonalize)

    for k in range(1, steps + 1):
        g = A.rmatvec(v)
        g = N.solve(g if full_mgs else g - alphas[-1] * NQ[-1])
        H = grown(H, (k + 1, k))
        for _ in range(passes):
            for j in range(k):
                c = NQ[j] @ g
                g = g - c * Q[j]
                H[j, k - 1] += c
        beta = float(np.sqrt(max(g @ N.apply(g), 0.0)))
        betas.append(beta)
        H[k, k - 1] = beta
        if beta <= BREAKDOWN_TOL * beta1:
            break
        q = g / beta
        Q.append(q)
        NQ.append(N.apply(q))
        if k == steps:
            break
        w = M.solve(A.matvec(q) - beta * M.apply(v))
        alpha = float(np.sqrt(max(w @ M.apply(w), 0.0)))
        if alpha <= BREAKDOWN_TOL * alphas[0]:
            raise BreakdownError(f"alpha_{k + 1} = {alpha} below breakdown tolerance")
        alphas.append(alpha)
        v = w / alpha
        V.append(v)

    return np.array(Q), np.array(V), alphas, betas, H[:k, :k]


def gkb_symmetric(sys, N, steps, reorthogonalize=False):
    """Bidiagonalize A of a C = 0 system with a symmetric leading block.

    Returns the Bidiagonalization, with H = B^T and L = I: the three-term
    recurrence assumes both. Stops early (fewer than `steps` factors) once
    beta_{k+1} falls below BREAKDOWN_TOL * beta_1; a vanishing alpha raises
    BreakdownError instead, since it signals an inconsistent right-hand side.
    """
    Q, V, alphas, betas, _ = _bidiagonalize(sys, N, steps, False, reorthogonalize)
    B = assemble_bidiagonal(alphas, betas)
    return Bidiagonalization(Q, V, alphas, betas, B, B.T, np.eye(len(alphas)))


def gkb_nonsymmetric(sys, N, steps, reorthogonalize=False):
    """Decompose A of a C = 0 system with a (possibly) nonsymmetric leading block.

    The new right vector is orthogonalized against all previous ones with
    modified Gram-Schmidt in the N inner product (twice under
    reorthogonalize); the projection coefficients form H. L is the lower
    triangle of the left Gram matrix V^T M V (unit lower triangular in exact
    arithmetic).
    """
    Q, V, alphas, betas, H = _bidiagonalize(sys, N, steps, True, reorthogonalize)
    Vk = np.ascontiguousarray(V.T)  # m x k, the layout the Gram product has always read
    L = np.tril(Vk.T @ _apply_columns(sys.M, Vk))
    return Bidiagonalization(Q, V, alphas, betas, assemble_bidiagonal(alphas, betas), H, L)


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
    A^T M^{-1} A expressed in the right basis (formed densely).
    """
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
