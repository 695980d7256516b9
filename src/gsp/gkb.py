"""Golub-Kahan bidiagonalization of the augmented off-diagonal block.

Oracle implementations that work on the explicitly augmented system (leading
block blkdiag(M, F^{-1}), off-diagonal block [A; E] with C = E^T F E). They
store full bases so the factorization identities can be verified directly;
the production solvers reproduce the same scalar sequences without ever
forming E or F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, DegenerateBlockError, DimensionError, ZeroRhsError
from .linops import FactorizedOperator, SparseMatrix, SpdPreconditioner, factorize, spsd_factor

BREAKDOWN_TOL = 1e-14


@dataclass(frozen=True)
class AugmentedSystem:
    """Explicit augmented form of a generalized saddle point instance."""

    M: FactorizedOperator
    F: np.ndarray
    Finv: FactorizedOperator
    A: SparseMatrix
    E: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        l = self.l
        if l < 1:
            raise DegenerateBlockError("augmented form needs rank(C) >= 1")
        if self.E.shape[1] != n:
            raise DimensionError("E must be l x n")
        if self.F.shape != (l, l) or self.Finv.dimension != l:
            raise DimensionError("F must be l x l")
        if self.M.dimension != m:
            raise DimensionError("M must be m x m")
        if self.b.shape != (n,):
            raise DimensionError("b must have length n")

    @property
    def m(self):
        return self.A.rows

    @property
    def n(self):
        return self.A.cols

    @property
    def l(self):
        return self.E.shape[0]


def augment(sys, rank_tolerance=1e-12):
    """Build the augmented form of a SaddleSystem via the SPSD factorization of C."""
    E, F, l = spsd_factor(sys.C, rank_tolerance)
    if l == 0:
        raise DegenerateBlockError("C has numerical rank 0; use the direct solvers instead")
    Finv = factorize("diagonal", F)
    return AugmentedSystem(sys.M, F, Finv, sys.A, E, sys.b)


@dataclass
class GkbBasis:
    """Right basis Q (length-n vectors) and split left basis (Vx, Vc)."""

    Q: list[np.ndarray]
    Vx: list[np.ndarray]
    Vc: list[np.ndarray]

    def q_matrix(self, k=None):
        return np.column_stack(self.Q[: k or len(self.Q)])

    def vx_matrix(self, k=None):
        return np.column_stack(self.Vx[: k or len(self.Vx)])

    def vc_matrix(self, k=None):
        return np.column_stack(self.Vc[: k or len(self.Vc)])


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
    """Upper Hessenberg H_k from orthogonalization columns and subdiagonal betas."""
    k = k or len(h_columns)
    H = np.zeros((k, k))
    for j in range(k):
        col = np.asarray(h_columns[j], dtype=float)
        H[: j + 1, j] = col[: j + 1]
    for j in range(1, k):
        H[j, j - 1] = betas[j]
    return H


def _init_step(aug, N):
    b = aug.b
    if not np.any(b):
        raise ZeroRhsError("b must be nonzero")
    q = N.solve(b)
    beta1 = float(np.sqrt(max(q @ b, 0.0)))
    if beta1 == 0.0:
        raise ZeroRhsError("b has zero N^{-1}-norm")
    q = q / beta1
    wx = aug.M.solve(aug.A.matvec(q))
    wc = aug.F @ (aug.E @ q)
    alpha1 = float(np.sqrt(max(wx @ aug.M.apply(wx) + wc @ aug.Finv.solve(wc), 0.0)))
    if alpha1 <= BREAKDOWN_TOL * max(beta1, 1.0):
        raise BreakdownError("alpha_1 vanished: b is outside Range([A^T C])")
    return q, beta1, wx / alpha1, wc / alpha1, alpha1


def _bidiagonalize(aug, N, steps, full_mgs, reorthogonalize):
    """Shared oracle loop: three-term orthogonalization, or full MGS when full_mgs.

    reorthogonalize adds one more MGS pass over the stored right basis. Returns
    the basis, alphas, betas and the MGS coefficient columns, which are the
    Hessenberg columns under full_mgs.
    """
    n = aug.n
    if not 1 <= steps <= n:
        raise DimensionError(f"steps must be in [1, {n}]")
    Ad, Ed, Fd = aug.A, aug.E, aug.F

    q, beta1, vx, vc, alpha = _init_step(aug, N)
    Q, NQ = [q], [N.apply(q)]
    Vx, Vc = [vx], [vc]
    alphas, betas = [alpha], [beta1]
    h_columns = []
    passes = int(full_mgs) + int(reorthogonalize)

    for k in range(1, steps + 1):
        g = Ad.rmatvec(vx) + Ed.T @ vc
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
        wx = aug.M.solve(Ad.matvec(q) - beta * aug.M.apply(vx))
        wc = Fd @ (Ed @ q - beta * aug.Finv.solve(vc))
        alpha = float(np.sqrt(max(wx @ aug.M.apply(wx) + wc @ aug.Finv.solve(wc), 0.0)))
        if alpha <= BREAKDOWN_TOL * alphas[0]:
            raise BreakdownError(f"alpha_{k + 1} = {alpha} below breakdown tolerance")
        alphas.append(alpha)
        vx, vc = wx / alpha, wc / alpha
        Vx.append(vx)
        Vc.append(vc)

    return GkbBasis(Q, Vx, Vc), alphas, betas, h_columns


def gkb_symmetric(aug, N, steps, reorthogonalize=False):
    """Bidiagonalize the augmented block with a symmetric leading block.

    Returns (GkbBasis, BidiagFactors) satisfying the two-sided factorization
    identities. Stops early (fewer than `steps` factors) once beta_{k+1}
    falls below BREAKDOWN_TOL * beta_1; a vanishing alpha raises
    BreakdownError instead, since it signals an inconsistent right-hand side.
    """
    basis, alphas, betas, _ = _bidiagonalize(aug, N, steps, False, reorthogonalize)
    return basis, BidiagFactors(alphas, betas)


def gkb_nonsymmetric(aug, N, steps, reorthogonalize=False):
    """Decompose the augmented block with a (possibly) nonsymmetric leading block.

    The new right vector is orthogonalized against all previous ones with
    modified Gram-Schmidt in the N inner product (twice under
    reorthogonalize); the projection coefficients form the Hessenberg
    columns. The left Gram matrix (unit lower triangular in exact arithmetic)
    is returned as the lower factor.
    """
    basis, alphas, betas, h_columns = _bidiagonalize(aug, N, steps, True, reorthogonalize)
    k = len(alphas)
    gram = _left_gram(aug, basis.Vx, basis.Vc, k)
    return basis, BidiagFactors(alphas, betas, h_columns[:k], np.tril(gram))


def _left_gram(aug, Vx, Vc, k):
    VX = np.column_stack(Vx[:k])
    VC = np.column_stack(Vc[:k])
    MX = np.column_stack([aug.M.apply(VX[:, j]) for j in range(k)])
    FC = np.column_stack([aug.Finv.solve(VC[:, j]) for j in range(k)])
    return VX.T @ MX + VC.T @ FC


@dataclass
class DecompositionReport:
    """Frobenius residuals of the factorization identities (absolute)."""

    factor_residual: float
    transpose_residual: float
    q_orthogonality: float
    v_orthogonality: float
    schur_residual: float | None
    scale: float


def verify_decomposition(aug, N, basis, factors, symmetric):
    """Evaluate the factorization identities for a computed basis.

    Returns the Frobenius residuals of both block identities and the
    orthogonality defects; when the decomposition ran to full length the
    reduced matrix is also compared against the preconditioned Schur
    complement expressed in the right basis (formed densely).
    """
    k = factors.k
    n = aug.n
    Qk = basis.q_matrix(k)
    VX = basis.vx_matrix(k)
    VC = basis.vc_matrix(k)
    B = factors.bidiagonal()
    Ad = aug.A.to_dense()
    Ed, Fd = aug.E, aug.F
    NQ = np.column_stack([N.apply(Qk[:, j]) for j in range(k)])
    MVX = np.column_stack([aug.M.apply(VX[:, j]) for j in range(k)])
    FiVC = np.column_stack([aug.Finv.solve(VC[:, j]) for j in range(k)])

    res_x = Ad @ Qk - MVX @ B
    res_c = Ed @ Qk - FiVC @ B
    factor_residual = float(np.sqrt(np.linalg.norm(res_x) ** 2 + np.linalg.norm(res_c) ** 2))

    reduced = B.T if symmetric else factors.hessenberg()
    rhs = NQ @ reduced
    beta_next = factors.betas[k] if len(factors.betas) > k else 0.0
    if len(basis.Q) > k and beta_next:
        rhs = rhs + beta_next * np.outer(N.apply(basis.Q[k]), _unit(k))
    transpose_residual = float(np.linalg.norm(Ad.T @ VX + Ed.T @ VC - rhs))

    q_orth = float(np.linalg.norm(Qk.T @ NQ - np.eye(k)))
    gram = VX.T @ MVX + VC.T @ FiVC
    target = factors.lower_factor if factors.lower_factor is not None else np.eye(k)
    v_orth = float(np.linalg.norm(gram - target))

    schur_residual = None
    if k == n:
        S = Ad.T @ np.column_stack([aug.M.solve(Ad[:, j]) for j in range(n)]) + Ed.T @ Fd @ Ed
        reduced_full = B.T @ B if symmetric else factors.hessenberg() @ B
        schur_residual = float(np.linalg.norm(reduced_full - Qk.T @ S @ Qk))

    scale = float(np.linalg.norm(Ad) + np.linalg.norm(Ed))
    return DecompositionReport(
        factor_residual, transpose_residual, q_orth, v_orth, schur_residual, scale
    )


def _unit(k):
    e = np.zeros(k)
    e[k - 1] = 1.0
    return e
