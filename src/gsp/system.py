"""Problem and solver-run containers shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError, NotSpsdError, WrongSolverError
from .linops import FactorizedOperator, SparseMatrix, factorize

CRITERION_RESIDUAL = "relative-residual"
CRITERION_ERROR = "error-estimate"
CRITERION_BOTH = "both"


@dataclass(frozen=True)
class SaddleSystem:
    """Immutable instance of the block system [[M, A], [A^T, -C]] [u; p] = [0; b].

    M is held twice: factorized (for M^{-1} applications) and as an explicit
    sparse matrix (for M v products inside the bidiagonalization updates).
    """

    M: FactorizedOperator
    Mmat: SparseMatrix
    A: SparseMatrix
    C: SparseMatrix
    b: np.ndarray
    symmetric: bool

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if not (1 <= n <= m):
            raise DimensionError(f"need 1 <= n <= m, got m={m}, n={n}")
        if self.Mmat.shape != (m, m) or self.M.dimension != m:
            raise DimensionError("M blocks must be m x m")
        if self.C.shape != (n, n):
            raise DimensionError("C must be n x n")
        if self.b.shape != (n,):
            raise DimensionError("b must have length n")
        for name, values in (("b", self.b), ("M", self.Mmat.values), ("A", self.A.values),
                             ("C", self.C.values)):
            if not np.isfinite(values).all():
                raise NonFiniteError(f"{name} holds a NaN or an infinity")
        c_dense = self.C.to_dense()
        c_scale = max(np.abs(c_dense).max() if self.C.nnz else 0.0, 1e-300)
        if np.abs(c_dense - c_dense.T).max() > 1e-12 * c_scale:
            raise NotSpsdError("C must be symmetric")
        if self.symmetric:
            m_dense = self.Mmat.to_dense()
            m_scale = max(np.abs(m_dense).max(), 1e-300)
            if np.abs(m_dense - m_dense.T).max() > 1e-12 * m_scale:
                raise WrongSolverError("symmetric flag set but M is not symmetric")

    @property
    def m(self):
        return self.A.rows

    @property
    def n(self):
        return self.A.cols

    @classmethod
    def from_matrices(cls, Mmat, A, C, b, symmetric=None):
        """Build a system from raw blocks, factorizing M (Cholesky or LU)."""
        if not isinstance(Mmat, SparseMatrix):
            Mmat = SparseMatrix.from_dense(Mmat)
        if not isinstance(A, SparseMatrix):
            A = SparseMatrix.from_dense(A)
        if not isinstance(C, SparseMatrix):
            C = SparseMatrix.from_dense(C)
        md = Mmat.to_dense()
        scale = max(np.abs(md).max(), 1e-300)
        is_sym = bool(np.abs(md - md.T).max() <= 1e-12 * scale)
        if symmetric is None:
            symmetric = is_sym
        elif symmetric and not is_sym:
            raise WrongSolverError("symmetric flag set but M is not symmetric")
        kind = "cholesky-spd" if symmetric else "lu-general"
        M = factorize(kind, Mmat)
        return cls(M, Mmat, A, C, np.asarray(b, dtype=float), symmetric)


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver configuration.

    criterion selects the stopping rule: 'relative-residual' monitors
    (beta_{k+1}/beta_1)|zeta_k| (or the chi analogue), 'error-estimate' the
    delayed energy-error estimate with window error_delay, 'both' stops on
    whichever fires first. reorthogonalize adds one more modified Gram-Schmidt
    pass over the stored right basis (CRAIG: its only pass; nsCRAIG: a second
    one). keep_iterates retains per-iteration (u, p) and the right basis for
    replay diagnostics.
    """

    tolerance: float = 1e-6
    max_iterations: int = 3000
    criterion: str = CRITERION_RESIDUAL
    error_delay: int = 5
    reorthogonalize: bool = False
    keep_iterates: bool = False

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.criterion not in (CRITERION_RESIDUAL, CRITERION_ERROR, CRITERION_BOTH):
            raise ValueError(f"unknown criterion '{self.criterion}'")
        if self.criterion in (CRITERION_ERROR, CRITERION_BOTH) and self.error_delay < 1:
            raise ValueError("error_delay must be >= 1")

    @property
    def wants_error_estimate(self):
        return self.criterion in (CRITERION_ERROR, CRITERION_BOTH)

    @property
    def wants_residual(self):
        return self.criterion in (CRITERION_RESIDUAL, CRITERION_BOTH)


@dataclass
class ConvergenceRecord:
    """One iteration of a solve.

    scalar is zeta_k for CRAIG, chi_k for nsCRAIG, and None for baselines;
    res_rel is the solver's own relative residual estimate, bit-for-bit the
    value used in the stopping test.
    """

    k: int
    res_rel: float
    err_est: float | None = None
    alpha: float | None = None
    beta_next: float | None = None
    scalar: float | None = None
    wall_time_s: float = 0.0


@dataclass
class SolveResult:
    """Final iterates and per-iteration history of one solver run.

    The bidiagonalization scalars live in the history records only; alphas,
    betas and scalars read them back. beta1 is the N^{-1}-norm of b (baselines
    store their own initial residual norm there). h_columns holds nsCRAIG's
    Hessenberg columns; u_iterates, p_iterates and the right basis Q are kept
    only under keep_iterates (baselines record p_iterates alone).
    """

    u: np.ndarray
    p: np.ndarray
    termination: str  # converged | max-iterations | breakdown | exact-termination
    history: list[ConvergenceRecord] = field(default_factory=list)
    fired_criterion: str | None = None
    beta1: float | None = None
    h_columns: list[np.ndarray] | None = None
    u_iterates: list[np.ndarray] | None = None
    p_iterates: list[np.ndarray] | None = None
    Q: list[np.ndarray] | None = None

    @property
    def iterations(self):
        return len(self.history)

    @property
    def alphas(self):
        """alpha_1 .. alpha_k."""
        return [rec.alpha for rec in self.history]

    @property
    def betas(self):
        """beta_1 .. beta_{k+1}."""
        return [self.beta1] + [rec.beta_next for rec in self.history]

    @property
    def scalars(self):
        """zeta_1 .. zeta_k for CRAIG, chi_1 .. chi_k for nsCRAIG."""
        return [rec.scalar for rec in self.history]

    @property
    def converged(self):
        return self.termination in ("converged", "exact-termination")

    def final_vector(self):
        return np.concatenate([self.u, self.p])
