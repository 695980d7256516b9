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

from .errors import BreakdownError, DimensionError, WrongSolverError, ZeroRhsError
from .linops import SparseMatrix, spsd_factor
from .system import BREAKDOWN_TOL, SaddleSystem, check_n, rhs_norm


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
class GkbBasis:
    """Right basis Q (length-n vectors) and left basis V (length-m vectors)."""

    Q: list[np.ndarray]
    V: list[np.ndarray]

    def q_matrix(self, k=None):
        return np.column_stack(self.Q[: k or len(self.Q)])

    def v_matrix(self, k=None):
        return np.column_stack(self.V[: k or len(self.V)])


@dataclass
class BidiagFactors:
    """Scalars of the (bi)diagonalization plus the nonsymmetric extras.

    betas holds beta_1 .. beta_{k+1}; alphas holds alpha_1 .. alpha_k.
    hessenberg_columns / lower_factor are populated by the nonsymmetric run.
    """

    alphas: list[float]
    betas: list[float]
    hessenberg_columns: list[np.ndarray] | None = None
    lower_factor: np.ndarray | None = None

    @property
    def k(self):
        return len(self.alphas)

    def bidiagonal(self, k=None):
        return assemble_bidiagonal(self.alphas, self.betas, k)

    def hessenberg(self, k=None):
        if self.hessenberg_columns is None:
            raise ValueError("no Hessenberg columns recorded (symmetric run)")
        return assemble_hessenberg(self.hessenberg_columns, self.betas, k)


def assemble_bidiagonal(alphas, betas, k=None):
    """Upper bidiagonal B_k: alphas on the diagonal, beta_2..beta_k above it."""
    k = k or len(alphas)
    B = np.diag(np.asarray(alphas[:k], dtype=float))
    if k > 1:
        B += np.diag(np.asarray(betas[1:k], dtype=float), 1)
    return B


def assemble_hessenberg(h_columns, betas, k=None):
    """Upper Hessenberg H_k from orthogonalization columns and subdiagonal betas.

    H is stored column-major: each column is written contiguously, and
    LAPACK's solves read it without a copy.
    """
    k = k or len(h_columns)
    H = np.zeros((k, k), order="F")
    for j in range(k):
        col = np.asarray(h_columns[j], dtype=float)
        H[: j + 1, j] = col[: j + 1]
    for j in range(1, k):
        H[j, j - 1] = betas[j]
    return H


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
    the basis, alphas, betas and the MGS coefficient columns, which are the
    Hessenberg columns under full_mgs. Stored C entries raise WrongSolverError,
    and an N that check_n refuses raises its error before any solve.
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
    h_columns = []
    passes = int(full_mgs) + int(reorthogonalize)

    for k in range(1, steps + 1):
        g = A.rmatvec(v)
        g = N.solve(g if full_mgs else g - alphas[-1] * NQ[-1])
        h = np.zeros(k)
        for _ in range(passes):
            for j in range(k):
                c = NQ[j] @ g
                g = g - c * Q[j]
                h[j] += c
        h_columns.append(h)
        beta = float(np.sqrt(max(g @ N.apply(g), 0.0)))
        betas.append(beta)
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

    return GkbBasis(Q, V), alphas, betas, h_columns


def gkb_symmetric(sys, N, steps, reorthogonalize=False):
    """Bidiagonalize A of a C = 0 system with a symmetric leading block.

    Returns (GkbBasis, BidiagFactors) satisfying the two-sided factorization
    identities. Stops early (fewer than `steps` factors) once beta_{k+1}
    falls below BREAKDOWN_TOL * beta_1; a vanishing alpha raises
    BreakdownError instead, since it signals an inconsistent right-hand side.
    """
    basis, alphas, betas, _ = _bidiagonalize(sys, N, steps, False, reorthogonalize)
    return basis, BidiagFactors(alphas, betas)


def gkb_nonsymmetric(sys, N, steps, reorthogonalize=False):
    """Decompose A of a C = 0 system with a (possibly) nonsymmetric leading block.

    The new right vector is orthogonalized against all previous ones with
    modified Gram-Schmidt in the N inner product (twice under
    reorthogonalize); the projection coefficients form the Hessenberg
    columns. The left Gram matrix V^T M V (unit lower triangular in exact
    arithmetic) is returned as the lower factor.
    """
    basis, alphas, betas, h_columns = _bidiagonalize(sys, N, steps, True, reorthogonalize)
    k = len(alphas)
    Vk = basis.v_matrix(k)
    gram = Vk.T @ _apply_columns(sys.M, Vk)
    return basis, BidiagFactors(alphas, betas, h_columns[:k], np.tril(gram))


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


def verify_decomposition(sys, N, basis, factors):
    """Evaluate the factorization identities for a computed basis of a C = 0 system.

    Returns the Frobenius residuals of A Q = M V B and A^T V = N Q B^T (N Q H
    for a nonsymmetric run, one that recorded Hessenberg columns) and the
    orthogonality defects; when the decomposition ran to full length the
    reduced matrix is also compared against the preconditioned Schur
    complement A^T M^{-1} A expressed in the right basis (formed densely).
    """
    k = factors.k
    Qk, Vk = basis.q_matrix(k), basis.v_matrix(k)
    B = factors.bidiagonal()
    Ad = sys.A.to_dense()
    NQ, MV = _apply_columns(N, Qk), _apply_columns(sys.M, Vk)

    factor_residual = float(np.linalg.norm(Ad @ Qk - MV @ B))

    reduced = B.T if factors.hessenberg_columns is None else factors.hessenberg()
    rhs = NQ @ reduced
    beta_next = factors.betas[k] if len(factors.betas) > k else 0.0
    if len(basis.Q) > k and beta_next:
        rhs = rhs + beta_next * np.outer(N.apply(basis.Q[k]), np.eye(k)[k - 1])
    transpose_residual = float(np.linalg.norm(Ad.T @ Vk - rhs))

    q_orth = float(np.linalg.norm(Qk.T @ NQ - np.eye(k)))
    target = factors.lower_factor if factors.lower_factor is not None else np.eye(k)
    v_orth = float(np.linalg.norm(Vk.T @ MV - target))

    schur_residual = None
    if k == sys.n:
        S = Ad.T @ np.column_stack([sys.M.solve(a) for a in Ad.T])
        schur_residual = float(np.linalg.norm(reduced @ B - Qk.T @ S @ Qk))

    return DecompositionReport(factor_residual, transpose_residual, q_orth, v_orth,
                               schur_residual, float(np.linalg.norm(Ad)))
