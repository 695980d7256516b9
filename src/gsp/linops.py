"""Sparse matrices, weighted inner products, and exact factorizations.

SparseMatrix stores one canonical scipy.sparse CSR array: rows in order,
strictly increasing columns within a row, no duplicates. scipy's CSR kernels
sum each output entry's terms in storage order (row-major, ascending column),
for A x and, through the transposed view, for A^T y, so repeated runs are
bit-reproducible. Factorizations are desk-scale: they densify their input
(dimension capped at 5000) and the SPSD factorization uses a full symmetric
eigendecomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionError, NotSpdError, NotSpsdError, SingularOperatorError

DENSE_FACTOR_LIMIT = 5000


def _as_float_vector(x, length=None, name="x"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be a vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise DimensionError(f"{name} has length {v.shape[0]}, expected {length}")
    return v


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable matrix held as one canonical scipy.sparse CSR array.

    Duplicate (row, col) entries are forbidden; explicit zeros are allowed.
    The transposed view used by rmatvec shares the CSR arrays.
    """

    csr: scipy.sparse.csr_array
    _transposed: scipy.sparse.csc_array = field(init=False, repr=False)

    def __post_init__(self):
        csr = self.csr
        try:
            csr.check_format(full_check=True)
        except ValueError as exc:
            raise DimensionError(f"invalid CSR storage: {exc}") from exc
        if not csr.has_canonical_format:
            raise DimensionError("col indices must strictly increase within each row")
        object.__setattr__(self, "_transposed", csr.T)

    @classmethod
    def from_csr(cls, rows, cols, row_offsets, col_indices, values):
        """Build from raw CSR arrays, refusing malformed ones with DimensionError."""
        values, row_offsets = np.asarray(values, dtype=float), np.asarray(row_offsets)
        try:
            if len(row_offsets) and row_offsets[-1] != len(values):
                raise ValueError("row offsets must end at the number of values")
            csr = scipy.sparse.csr_array((values, col_indices, row_offsets), shape=(rows, cols))
        except ValueError as exc:
            raise DimensionError(f"invalid CSR storage: {exc}") from exc
        return cls(csr)

    @classmethod
    def from_dense(cls, a):
        return cls(scipy.sparse.csr_array(np.atleast_2d(np.asarray(a, dtype=float))))

    @classmethod
    def from_coo(cls, rows, cols, i, j, v):
        v = np.asarray(v, dtype=float)
        try:
            csr = scipy.sparse.coo_array((v, (i, j)), shape=(rows, cols)).tocsr()
        except ValueError as exc:
            raise DimensionError(f"invalid coordinates: {exc}") from exc
        if csr.nnz != len(v):  # tocsr sums duplicates
            raise DimensionError("duplicate (row, col) entries are forbidden")
        return cls(csr)

    @classmethod
    def identity(cls, n):
        return cls(scipy.sparse.eye_array(n, format="csr"))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(scipy.sparse.csr_array((rows, cols)))

    @property
    def rows(self):
        return self.csr.shape[0]

    @property
    def cols(self):
        return self.csr.shape[1]

    @property
    def shape(self):
        return self.csr.shape

    @property
    def nnz(self):
        return self.csr.nnz

    @property
    def values(self):
        return self.csr.data

    def to_dense(self):
        return self.csr.toarray()

    def matvec(self, x):
        return self.csr @ _as_float_vector(x, self.cols)

    def rmatvec(self, x):
        return self._transposed @ _as_float_vector(x, self.rows)

    def is_symmetric(self):
        """max|K - K^T| <= 1e-12 max|K|, computed from the stored entries only."""
        if self.rows != self.cols:
            return False
        gap = abs(self.csr - self._transposed)
        scale = np.abs(self.values).max() if self.nnz else 0.0
        return bool((gap.max() if gap.nnz else 0.0) <= 1e-12 * max(scale, 1e-300))

    def is_diagonal(self):
        """True when every stored entry off the diagonal is zero."""
        coo = self.csr.tocoo()
        return not np.any(coo.data[coo.row != coo.col])

    def __array__(self, dtype=None, copy=None):
        d = self.to_dense()
        return d if dtype is None else d.astype(dtype, copy=False)


@dataclass(frozen=True)
class FactorizedOperator:
    """Square operator K with exact apply (K x) and solve (K^{-1} b).

    kind is one of 'cholesky-spd', 'lu-general', 'diagonal'. matrix is the
    SparseMatrix the factor was built from; apply() multiplies by it, so K is
    stored once, next to its factor.
    """

    kind: str
    matrix: SparseMatrix
    _chol: tuple | None = field(default=None, repr=False)
    _lu: tuple | None = field(default=None, repr=False)
    _diag: np.ndarray | None = field(default=None, repr=False)

    @property
    def dimension(self):
        return self.matrix.rows

    def apply(self, x):
        if self.kind == "diagonal":
            return self._diag * _as_float_vector(x, self.dimension)
        return self.matrix.matvec(x)

    def solve(self, b):
        b = _as_float_vector(b, self.dimension)
        if self.kind == "diagonal":
            return b / self._diag
        if self.kind == "cholesky-spd":
            return scipy.linalg.cho_solve(self._chol, b, check_finite=False)
        return scipy.linalg.lu_solve(self._lu, b, check_finite=False)


def as_sparse(K):
    """Return K itself if it is a SparseMatrix, else its CSR form."""
    return K if isinstance(K, SparseMatrix) else SparseMatrix.from_dense(K)


def factorize(kind, K):
    """Factorize a square matrix for repeated exact solves.

    cholesky-spd requires symmetric input and fails on a nonpositive pivot;
    lu-general fails on a (numerically) zero pivot; diagonal accepts only
    diagonal input. The Cholesky and LU factors are dense: K is densified once,
    as their input.
    """
    K = as_sparse(K)
    n = K.rows
    if K.rows != K.cols:
        raise DimensionError("factorize requires a square matrix")
    if n > DENSE_FACTOR_LIMIT:
        raise DimensionError(f"dense factorization capped at dimension {DENSE_FACTOR_LIMIT}")

    if kind == "diagonal":
        if not K.is_diagonal():
            raise DimensionError("diagonal kind requires a diagonal matrix")
        d = K.csr.diagonal()
        if np.any(d == 0.0):
            raise SingularOperatorError("zero entry on the diagonal")
        return FactorizedOperator(kind, K, _diag=d)

    if kind == "cholesky-spd":
        if not K.is_symmetric():
            raise NotSpdError("cholesky-spd requires symmetric input")
        try:
            chol = scipy.linalg.cho_factor(K.to_dense(), lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpdError(f"matrix is not positive definite: {exc}") from exc
        return FactorizedOperator(kind, K, _chol=chol)

    if kind == "lu-general":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(K.to_dense(), check_finite=False)
        piv_diag = np.abs(np.diag(lu[0]))
        if n and piv_diag.min() <= 1e-13 * max(piv_diag.max(), 1e-300):
            raise SingularOperatorError("zero pivot in LU factorization")
        return FactorizedOperator(kind, K, _lu=lu)

    raise ValueError(f"unknown factorization kind '{kind}'")


def weighted_inner(W, x, y):
    """Return x^T W y for a FactorizedOperator, SparseMatrix, or dense W."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("weighted_inner needs two vectors of equal length")
    if np.any(np.isnan(x)) or np.any(np.isnan(y)):
        raise ValueError("NaN in weighted_inner input")
    wy = W.apply(y) if isinstance(W, FactorizedOperator) else as_sparse(W).matvec(y)
    if wy.shape != x.shape:
        raise DimensionError("weight dimension does not match the vectors")
    return float(x @ wy)


def weighted_norm(W, x):
    """Return sqrt(x^T W x), clamping roundoff-level negative radicands to 0."""
    val = weighted_inner(W, x, x)
    if val < 0.0:
        floor = -1e-12 * float(np.dot(x, x))
        if val < floor:
            raise NotSpdError(f"negative radicand {val} in weighted norm")
        return 0.0
    return float(np.sqrt(val))


def spsd_factor(C, rank_tolerance=1e-12):
    """Factor an SPSD matrix as C = E^T F E with F = diag of positive eigenvalues.

    E holds the corresponding eigenvectors as rows (l x n). Eigenvalues at or
    below rank_tolerance * lambda_max are truncated; an eigenvalue below
    -rank_tolerance * lambda_max raises NotSpsdError.
    """
    dense = np.asarray(C, dtype=float)
    n = dense.shape[0]
    if dense.shape != (n, n):
        raise DimensionError("spsd_factor requires a square matrix")
    if n > 2000:
        raise DimensionError("dense eigendecomposition capped at dimension 2000")
    norm_c = np.linalg.norm(dense)
    if np.linalg.norm(dense - dense.T) > 1e-12 * max(norm_c, 1e-300):
        raise NotSpsdError("matrix is not symmetric")
    if norm_c == 0.0:
        return np.zeros((0, n)), np.zeros((0, 0)), 0
    w, v = np.linalg.eigh(dense)
    lam_max = float(w.max())
    cutoff = rank_tolerance * max(lam_max, 0.0)
    if float(w.min()) < -cutoff:
        raise NotSpsdError(f"negative eigenvalue {w.min()} below -{cutoff}")
    keep = w > cutoff
    return v[:, keep].T, np.diag(w[keep]), int(keep.sum())


@dataclass(frozen=True)
class SpdPreconditioner:
    """SPD operator N defining the weighted inner products used by the solvers."""

    operator: FactorizedOperator

    def __post_init__(self):
        if self.operator.kind not in ("cholesky-spd", "diagonal"):
            raise NotSpdError("preconditioner must be cholesky-spd or diagonal")
        if self.operator.kind == "diagonal" and np.any(self.operator._diag <= 0.0):
            raise NotSpdError("diagonal preconditioner must be positive")

    @property
    def dimension(self):
        return self.operator.dimension

    @classmethod
    def identity(cls, n):
        return cls(factorize("diagonal", SparseMatrix.identity(n)))

    @classmethod
    def from_diagonal(cls, d):
        d = np.asarray(d, dtype=float)
        return cls(factorize("diagonal", SparseMatrix(scipy.sparse.diags_array(d, format="csr"))))

    @classmethod
    def from_matrix(cls, K):
        K = as_sparse(K)
        return cls(factorize("diagonal" if K.is_diagonal() else "cholesky-spd", K))

    def apply(self, x):
        return self.operator.apply(x)

    def solve(self, b):
        return self.operator.solve(b)

    def inner(self, x, y):
        return weighted_inner(self.operator, x, y)

    def norm(self, x):
        return weighted_norm(self.operator, x)

    def inv_norm(self, y):
        """sqrt(y^T N^{-1} y), clamped like weighted_norm."""
        y = _as_float_vector(y, self.dimension, "y")
        val = float(y @ self.operator.solve(y))
        if val < 0.0:
            if val < -1e-12 * float(y @ y):
                raise NotSpdError(f"negative radicand {val} in inverse-weighted norm")
            return 0.0
        return float(np.sqrt(val))
