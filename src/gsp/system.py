"""Problem and solver-run containers shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError, NotSpsdError, WrongSolverError
from .linops import FactorizedOperator, SparseMatrix, as_sparse, factorize

CRITERION_RESIDUAL = "relative-residual"
CRITERION_ERROR = "error-estimate"
CRITERION_BOTH = "both"


@dataclass(frozen=True)
class SaddleSystem:
    """Immutable instance of the block system K [u; p] = [0; b], K = [[M, A], [A^T, -C]].

    M is stored once, as its factorization: Mmat (the sparse matrix, for
    residual checks, the full-system baselines and oracles, and file output)
    is the matrix the factor was built from, and symmetric says whether that
    factor is a Cholesky one. Neither can disagree with M. The Golub-Kahan
    loop only solves with M; matvec forms the full product K z.
    """

    M: FactorizedOperator
    A: SparseMatrix
    C: SparseMatrix
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if not (1 <= n <= m):
            raise DimensionError(f"need 1 <= n <= m, got m={m}, n={n}")
        if self.M.dimension != m:
            raise DimensionError("M must be m x m")
        if self.C.shape != (n, n):
            raise DimensionError("C must be n x n")
        if self.b.shape != (n,):
            raise DimensionError("b must have length n")
        for name, values in (("b", self.b), ("M", self.Mmat.values), ("A", self.A.values),
                             ("C", self.C.values)):
            if not np.isfinite(values).all():
                raise NonFiniteError(f"{name} holds a NaN or an infinity")
        if not self.C.is_symmetric():
            raise NotSpsdError("C must be symmetric")

    @property
    def m(self):
        return self.A.rows

    @property
    def n(self):
        return self.A.cols

    @property
    def Mmat(self):
        return self.M.matrix

    @property
    def symmetric(self):
        """True when M is Cholesky-factored (factorize refuses a nonsymmetric input)."""
        return self.M.kind == "cholesky-spd"

    def matvec(self, z):
        """K z for z = [x; y]."""
        x, y = z[:self.m], z[self.m:]
        return np.concatenate([self.Mmat.matvec(x) + self.A.matvec(y),
                               self.A.rmatvec(x) - self.C.matvec(y)])

    @classmethod
    def from_matrices(cls, Mmat, A, C, b, symmetric=None):
        """Build a system from raw blocks, factorizing M (Cholesky or LU)."""
        Mmat, A, C = as_sparse(Mmat), as_sparse(A), as_sparse(C)
        if symmetric is None:
            symmetric = Mmat.is_symmetric()
        elif symmetric and not Mmat.is_symmetric():
            raise WrongSolverError("symmetric flag set but M is not symmetric")
        M = factorize("cholesky-spd" if symmetric else "lu-general", Mmat)
        return cls(M, A, C, b)


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver configuration.

    criterion selects the stopping rule: 'relative-residual' monitors
    (beta_{k+1}/beta_1)|zeta_k| (or the chi analogue), 'error-estimate' the
    delayed energy-error estimate with window error_delay, 'both' stops on
    whichever fires first. reorthogonalize adds one explicit classical
    Gram-Schmidt pass per step over the stored right basis, at the cost of one
    more N product (CRAIG: its only pass; nsCRAIG: one more after its lagged
    CGS2, over the final rows). keep_iterates retains per-iteration (u, p),
    the right basis and nsCRAIG's Hessenberg columns for replay diagnostics.
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


@dataclass(slots=True)
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
    store their own initial residual norm there). nsCRAIG's Hessenberg columns
    h_columns, u_iterates, p_iterates and the right basis Q (rows q_1..q_k)
    are kept only under keep_iterates (baselines record p_iterates alone), so
    a result without them is O(k + m + n) in size.
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
