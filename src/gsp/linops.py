"""Sparse matrices and the exact factorizations behind M and N.

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
fully stored matrix on its dense view, one block of rows of K - K^T at a
time, and a partly stored one on K - K^T in CSR form, by the same rule.

factorize reads the factor kind off the matrix (diagonal, Cholesky or LU)
and factors a sparsely stored matrix with SuperLU, straight from its CSR
arrays and with no size cap, and a densely stored one with LAPACK on a dense
copy (capped at DENSE_FACTOR_LIMIT); see factorize for the choice and its
known limitation. The SPSD factorization of C stays a full symmetric
eigendecomposition (capped at DENSE_EIG_LIMIT).

M and N are both FactorizedOperators, and the solvers rely on one protocol
for them: kind, dimension, apply (K x) and solve (K^{-1} b), plus inv_norm
(sqrt(y^T K^{-1} y)) for an SPD kind. N must be SPD (any kind but
lu-general) and n x n; gsp.system.check_n refuses any other N, for every
solver and for the gsp.gkb oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (DimensionError, NonFiniteError, NotSpdError, NotSpsdError,
                     SingularOperatorError)

DENSE_FACTOR_LIMIT = 5000
DENSE_FACTOR_DENSITY = 0.2  # stored fraction of the m^2 entries above which LAPACK runs
DENSE_EIG_LIMIT = 2000  # dimension cap of the dense eigen/singular value checks
SYMMETRY_BLOCK = 2**15  # entries of K - K^T that is_symmetric holds at once (256 KB)


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

        A fully stored K is tested on its dense view, SYMMETRY_BLOCK entries
        of K - K^T at a time, stopping at the first block over the bound; a
        partly stored one on the sparse difference of its CSR arrays. The
        matrix is immutable, so the verdict is computed once and kept.
        """
        return self._symmetric

    @cached_property
    def _symmetric(self):
        if self.rows != self.cols:
            return False
        if self._full is not None:
            full = self._full
            scale = max(full.max(), -full.min())  # max|K| without a temporary
            bound = 1e-12 * max(scale, 1e-300)
            step = min(self.rows, max(1, SYMMETRY_BLOCK // self.cols))
            buf = np.empty((step, self.cols))  # one row block of K - K^T, reused
            for r in range(0, self.rows, step):
                gap = np.subtract(full[r:r + step], full[:, r:r + step].T,
                                  out=buf[:min(step, self.rows - r)])
                if not np.abs(gap, out=gap).max() <= bound:  # a NaN fails too
                    return False
            return True
        gap = abs(self.csr - self._transposed)
        scale = np.abs(self.values).max() if self.nnz else 0.0
        return bool((gap.max() if gap.nnz else 0.0) <= 1e-12 * max(scale, 1e-300))

    def is_diagonal(self):
        """True when every stored entry off the diagonal is zero; computed once."""
        return self._diagonal

    @cached_property
    def _diagonal(self):
        return np.count_nonzero(self.csr.diagonal()) == np.count_nonzero(self.values)

    def __array__(self, dtype=None, copy=None):
        d = self.to_dense()
        return d if dtype is None else d.astype(dtype, copy=False)


@dataclass(frozen=True)
class FactorizedOperator:
    """Square operator K with exact apply (K x) and solve (K^{-1} b): the type of M and N.

    kind is one of 'cholesky-spd', 'lu-general', 'diagonal', as factorize read
    it off the matrix; only 'lu-general' is nonsymmetric. matrix is the
    SparseMatrix the factor was built from; apply() multiplies by it, so K is
    stored once, next to its factor. _factor is the diagonal (diagonal kind),
    a SuperLU factor of K^T (sparse path), or LAPACK's (factor, flag/pivots)
    pair (dense path).
    """

    kind: str
    matrix: SparseMatrix
    _factor: object = field(repr=False)

    @classmethod
    def identity(cls, n):
        return factorize(SparseMatrix.identity(n))

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

    def inv_norm(self, y):
        """sqrt(y^T K^{-1} y); a negative radicand at roundoff level (>= -1e-12 y^T y) gives 0."""
        y = _as_float_vector(y, self.dimension, "y")
        val = float(y @ self.solve(y))
        if val < 0.0:
            if val < -1e-12 * float(y @ y):
                raise NotSpdError(f"negative radicand {val} in inverse-weighted norm")
            return 0.0
        return float(np.sqrt(val))


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


def factorize(K):
    """Factorize a square matrix for repeated exact solves, reading the kind off K.

    A diagonal K gets the diagonal kind, any other symmetric K (is_symmetric)
    cholesky-spd, and a nonsymmetric K lu-general. The first two require K
    positive definite and raise NotSpdError on a nonpositive diagonal entry
    or pivot; lu-general fails on a (numerically) zero pivot with
    SingularOperatorError.

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

    dense = K.nnz > DENSE_FACTOR_DENSITY * n * n
    if dense and n > DENSE_FACTOR_LIMIT:  # refused before any O(nnz) symmetry test
        raise DimensionError(f"dense factorization capped at dimension {DENSE_FACTOR_LIMIT}")

    if K.is_diagonal():  # hence symmetric
        d = K.csr.diagonal()
        if np.any(d <= 0.0):
            raise NotSpdError("diagonal matrix has a nonpositive entry")
        return FactorizedOperator("diagonal", K, d)
    kind = "cholesky-spd" if K.is_symmetric() else "lu-general"
    factor = _dense_factor if dense else _sparse_factor
    return FactorizedOperator(kind, K, factor(kind, K))


# Relative eigenvalue cutoff of spsd_factor: C's numerical rank.
_RANK_TOLERANCE = 1e-12


def spsd_factor(C):
    """Factor an SPSD matrix as C = E^T diag(w) E; returns (E, w).

    w holds the eigenvalues above _RANK_TOLERANCE * lambda_max and E the
    corresponding eigenvectors as rows (len(w) x n), so a zero C gives a
    0 x n E. A C that fails is_symmetric, the rule SaddleSystem applies to
    C, or an eigenvalue below -_RANK_TOLERANCE * lambda_max raises NotSpsdError.
    """
    C = as_sparse(C)
    if C.rows != C.cols:
        raise DimensionError("spsd_factor requires a square matrix")
    if C.rows > DENSE_EIG_LIMIT:  # before densifying
        raise DimensionError(f"dense eigendecomposition capped at dimension {DENSE_EIG_LIMIT}")
    if not C.is_symmetric():
        raise NotSpsdError("matrix is not symmetric")
    w, v = np.linalg.eigh(C.to_dense())
    cutoff = _RANK_TOLERANCE * max(float(w.max()), 0.0)
    if float(w.min()) < -cutoff:
        raise NotSpsdError(f"negative eigenvalue {w.min()} below -{cutoff}")
    keep = w > cutoff
    return v[:, keep].T, w[keep]


# bench/workloads.py builds its N as gsp.linops.SpdPreconditioner.identity(n).
SpdPreconditioner = FactorizedOperator
