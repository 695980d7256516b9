"""Sparse matrices, weighted inner products, and exact factorizations.

SparseMatrix stores one canonical scipy.sparse CSR array: rows in order,
strictly increasing columns within a row, no duplicates. A partly stored
matrix multiplies through scipy's CSR kernels, which sum each output entry's
terms in storage order (row-major, ascending column), for A x and, through
the transposed view, for A^T y. A fully stored matrix (all rows x cols
entries) multiplies by BLAS gemv on a view of csr.data, which in canonical
CSR order is already the row-major dense matrix, so no second copy exists.
Repeated runs are bit-reproducible: the CSR kernels always, gemv for a fixed
BLAS build and thread count. from_dense copies dense input into that CSR
storage by index arithmetic (a fully nonzero array is its own row-major data
with column indices 0..cols-1 in every row), byte-identical to scipy's
dense -> CSR conversion at about the cost of one copy. is_symmetric tests a
fully stored matrix on its dense view and a partly stored one on K - K^T in
CSR form, by the same rule.

factorize factors a sparsely stored matrix with SuperLU, straight from its
CSR arrays and with no size cap, and a densely stored one with LAPACK on a
dense copy (capped at DENSE_FACTOR_LIMIT); see factorize for the choice and
its known limitation. The SPSD factorization of C stays a full symmetric
eigendecomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (DimensionError, NonFiniteError, NotSpdError, NotSpsdError,
                     SingularOperatorError)

DENSE_FACTOR_LIMIT = 5000
DENSE_FACTOR_DENSITY = 0.2  # stored fraction of the m^2 entries above which LAPACK runs


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
    The transposed view used by rmatvec shares the CSR arrays. When every
    entry is stored, _full is csr.data viewed as the rows x cols row-major
    matrix, and matvec/rmatvec run BLAS gemv on it; otherwise it is None and
    they run scipy's CSR/CSC kernels.
    """

    csr: scipy.sparse.csr_array
    _transposed: scipy.sparse.csc_array = field(init=False, repr=False)
    _full: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        csr = self.csr
        try:
            csr.check_format(full_check=True)
        except ValueError as exc:
            raise DimensionError(f"invalid CSR storage: {exc}") from exc
        if not csr.has_canonical_format:
            raise DimensionError("col indices must strictly increase within each row")
        object.__setattr__(self, "_transposed", csr.T)
        # Canonical storage holds a full row only as columns 0..cols-1 in order.
        full = csr.nnz == csr.shape[0] * csr.shape[1] > 0
        object.__setattr__(self, "_full", csr.data.reshape(csr.shape) if full else None)

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
        """CSR storage of the nonzero entries of a 2-D (or 1-D, as one row) array.

        The CSR arrays are built by index arithmetic, byte-identical to
        scipy.sparse.csr_array(a) (same index dtype, -0.0 dropped, NaN kept)
        without its dense -> COO -> CSR scan. When every entry is nonzero,
        data is a row-major copy of a and the column indices repeat
        0..cols-1; otherwise a boolean mask selects the entries. Either way
        data is a copy: writing to a afterwards leaves the matrix unchanged.
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.ndim != 2:
            raise DimensionError(f"from_dense needs a 1-D or 2-D array, got shape {a.shape}")
        rows, cols = a.shape
        nnz = np.count_nonzero(a)
        idx = np.int32 if max(rows, cols, nnz) <= np.iinfo(np.int32).max else np.int64
        if nnz == a.size > 0:
            data = a.flatten()  # always a copy, in row-major order
            indices = np.tile(np.arange(cols, dtype=idx), rows)
            indptr = np.arange(0, nnz + 1, cols, dtype=idx)
        else:
            keep = a != 0
            data = a[keep]
            indices = np.broadcast_to(np.arange(cols, dtype=idx), a.shape)[keep]
            indptr = np.zeros(rows + 1, dtype=idx)
            np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        return cls(scipy.sparse.csr_array((data, indices, indptr), shape=(rows, cols)))

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
        """Dense copy in Fortran order, which LAPACK factors in place.

        A fully stored matrix copies its view (np.array always copies, where
        np.asfortranarray would return a 1 x n or n x 1 view itself and let
        the factor overwrite csr.data). Otherwise the COO scatter writes
        Fortran order directly; CSR's toarray(order="F") would first build a
        CSC copy of every stored entry.
        """
        if self._full is not None:
            return np.array(self._full, order="F")
        return self.csr.tocoo().toarray(order="F")

    def matvec(self, x):
        x = _as_float_vector(x, self.cols)
        return self.csr @ x if self._full is None else self._full @ x

    def rmatvec(self, x):
        x = _as_float_vector(x, self.rows)
        return self._transposed @ x if self._full is None else x @ self._full

    def is_symmetric(self):
        """max|K - K^T| <= 1e-12 max|K|, computed from the stored entries only.

        A fully stored K is tested on its dense view; a partly stored one
        on the sparse difference of its CSR arrays.
        """
        if self.rows != self.cols:
            return False
        if self._full is not None:
            full = self._full
            gap = full - full.T
            scale = max(full.max(), -full.min())  # max|K| without a temporary
            return bool(np.abs(gap, out=gap).max() <= 1e-12 * max(scale, 1e-300))
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
    stored once, next to its factor. _factor is the diagonal (diagonal kind),
    a SuperLU factor of K^T (sparse path), or LAPACK's (factor, flag/pivots)
    pair (dense path).
    """

    kind: str
    matrix: SparseMatrix
    _factor: object = field(repr=False)

    @property
    def dimension(self):
        return self.matrix.rows

    def apply(self, x):
        if self.kind == "diagonal":
            return self._factor * _as_float_vector(x, self.dimension)
        return self.matrix.matvec(x)

    def solve(self, b):
        b = _as_float_vector(b, self.dimension)
        f = self._factor
        if self.kind == "diagonal":
            return b / f
        if not isinstance(f, tuple):  # a SuperLU factor of K^T
            return f.solve(b, trans="T")
        # LAPACK directly: scipy's cho_solve/lu_solve wrappers cost more than
        # the triangular solves at the dimensions the dense path serves.
        if self.kind == "cholesky-spd":
            x, info = scipy.linalg.lapack.dpotrs(f[0], b, lower=f[1])
        else:
            x, info = scipy.linalg.lapack.dgetrs(f[0], f[1], b)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of the LAPACK solve")
        return x


def as_sparse(K):
    """Return K itself if it is a SparseMatrix, else its CSR form."""
    return K if isinstance(K, SparseMatrix) else SparseMatrix.from_dense(K)


def _refuse_small_pivots(pivots):
    """SingularOperatorError when min |pivot| <= 1e-13 max |pivot|."""
    piv = np.abs(pivots)
    if len(piv) and piv.min() <= 1e-13 * max(piv.max(), 1e-300):
        raise SingularOperatorError("zero pivot in LU factorization")


def _dense_factor(kind, K):
    """LAPACK factor of a dense copy of K, which the factor overwrites."""
    if K.rows > DENSE_FACTOR_LIMIT:
        raise DimensionError(f"dense factorization capped at dimension {DENSE_FACTOR_LIMIT}")
    if kind == "cholesky-spd":
        try:
            return scipy.linalg.cho_factor(K.to_dense(), lower=True, overwrite_a=True,
                                           check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpdError(f"matrix is not positive definite: {exc}") from exc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(K.to_dense(), overwrite_a=True, check_finite=False)
    _refuse_small_pivots(np.diag(lu[0]))
    return lu


def _sparse_factor(kind, K):
    """SuperLU factor of K^T, whose CSC arrays are K's CSR arrays (no copy).

    Both kinds order the columns by minimum degree on the structure of
    K^T + K, which on a structurally symmetric stencil (the Oseen channel's
    convection-diffusion M) fills in less than SuperLU's default COLAMD.
    lu-general keeps partial pivoting. cholesky-spd asks for diagonal pivots;
    a symmetric K is positive definite exactly when SuperLU kept every pivot
    on the diagonal (perm_r == perm_c) and all of them are positive.
    """
    import scipy.sparse.linalg  # here, so a dense-only run never loads SuperLU (about 2 MB)

    spd = kind == "cholesky-spd"
    options = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)) if spd else {}
    try:
        lu = scipy.sparse.linalg.splu(K.csr.T, permc_spec="MMD_AT_PLUS_A", **options)
    except RuntimeError as exc:  # SuperLU found an exactly zero pivot
        if spd:
            raise NotSpdError(f"matrix is not positive definite: {exc}") from exc
        raise SingularOperatorError(f"zero pivot in LU factorization: {exc}") from exc
    pivots = lu.U.diagonal()
    if not spd:
        _refuse_small_pivots(pivots)
    elif not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > 0.0)):
        raise NotSpdError("matrix is not positive definite: nonpositive or off-diagonal pivot")
    return lu


def factorize(kind, K):
    """Factorize a square matrix for repeated exact solves.

    cholesky-spd requires symmetric input and fails on a nonpositive pivot;
    lu-general fails on a (numerically) zero pivot; diagonal accepts only
    diagonal input.

    A K that stores more than DENSE_FACTOR_DENSITY of its entries is
    densified once, and a LAPACK Cholesky/LU overwrites that copy (dimension
    capped at DENSE_FACTOR_LIMIT): at full density a dense factor is several
    times faster to build than SuperLU's. Any other K is factored by SuperLU
    from its sparse storage, with no size cap and no dense copy, after a
    minimum-degree ordering of K^T + K (lu-general keeps partial pivoting).
    Known limitation: random (expander-like) sparsity fills in almost
    completely under any ordering, so such a K below the threshold factors
    and solves slower under SuperLU than it would dense; grid stencils such
    as the Stokes/Oseen channel stay sparse.
    """
    K = as_sparse(K)
    n = K.rows
    if K.rows != K.cols:
        raise DimensionError("factorize requires a square matrix")
    if not np.isfinite(K.values).all():
        raise NonFiniteError("cannot factorize a matrix holding a NaN or an infinity")

    if kind == "diagonal":
        if not K.is_diagonal():
            raise DimensionError("diagonal kind requires a diagonal matrix")
        d = K.csr.diagonal()
        if np.any(d == 0.0):
            raise SingularOperatorError("zero entry on the diagonal")
        return FactorizedOperator(kind, K, d)

    if kind not in ("cholesky-spd", "lu-general"):
        raise ValueError(f"unknown factorization kind '{kind}'")
    if kind == "cholesky-spd" and not K.is_symmetric():
        raise NotSpdError("cholesky-spd requires symmetric input")
    factor = _dense_factor if K.nnz > DENSE_FACTOR_DENSITY * n * n else _sparse_factor
    return FactorizedOperator(kind, K, factor(kind, K))


def weighted_inner(W, x, y):
    """Return x^T W y for a FactorizedOperator, SparseMatrix, or dense W."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("weighted_inner needs two vectors of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("NaN or infinity in weighted_inner input")
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
        if self.operator.kind == "diagonal" and np.any(self.operator._factor <= 0.0):
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
