"""Kernels, factorizations, and the SPD preconditioner."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from gsp import (
    SaddleSystem,
    SparseMatrix,
    StokesSpec,
    factorize,
    gen_stokes_channel,
    spsd_factor,
)
from gsp.errors import (
    DimensionError,
    NonFiniteError,
    NotSpdError,
    NotSpsdError,
    SingularOperatorError,
)
from gsp.linops import DENSE_FACTOR_DENSITY, DENSE_FACTOR_LIMIT, FactorizedOperator
from gsp.system import SOLVER_RULES, solver_inputs


def _dense_inputs():
    """A seeded sweep of from_dense inputs: shapes, densities, special values, layouts."""
    rng = np.random.default_rng(2024)
    cases = {}
    for rows, cols in [(1, 1), (1, 9), (9, 1), (0, 4), (4, 0), (17, 13)]:
        shape = f"{rows}x{cols}"
        cases[f"zeros-{shape}"] = np.zeros((rows, cols))
        cases[f"full-{shape}"] = rng.standard_normal((rows, cols))
        half = rng.standard_normal((rows, cols))
        half[rng.random((rows, cols)) < 0.5] = 0.0
        cases[f"half-{shape}"] = half
    special = rng.standard_normal((6, 5))
    special[0, 0], special[1, 2], special[2, 1], special[3, 3] = -0.0, np.nan, np.inf, -np.inf
    cases["signed-zero-nan-inf"] = special
    cases["nan-inf-fully-stored"] = np.where(special == 0.0, np.nan, special)
    cases["int"] = rng.integers(-2, 3, size=(7, 6))
    cases["int-fully-stored"] = rng.integers(1, 4, size=(3, 4))
    cases["bool"] = rng.random((5, 4)) < 0.5
    cases["list"] = [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]]
    cases["list-1d"] = [0.0, 1.5, -2.0]
    cases["scalar"] = 2.5
    wide = rng.standard_normal((8, 12))
    cases["fortran-full"] = np.asfortranarray(wide)
    cases["strided-full"] = wide[:, ::2]
    wide = wide * (rng.random((8, 12)) < 0.5)
    cases["fortran-half"] = np.asfortranarray(wide)
    cases["strided-half"] = wide[:, ::2]
    return cases


class TestSparseMatrix:
    def test_matvec_identity(self):
        A = SparseMatrix.identity(2)
        assert A.matvec([3.0, 4.0]).tolist() == [3.0, 4.0]

    def test_matvec_permutation(self):
        A = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        assert A.matvec([3.0, 4.0]).tolist() == [4.0, 3.0]

    def test_matvec_row_sums(self):
        A = SparseMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        assert A.matvec([1.0, 1.0]).tolist() == [3.0, 7.0]

    def test_matvec_dimension_mismatch(self):
        A = SparseMatrix.identity(2)
        with pytest.raises(DimensionError):
            A.matvec([1.0, 2.0, 3.0])

    def test_transpose_matvec_identity(self):
        A = SparseMatrix.identity(2)
        assert A.rmatvec([5.0, 6.0]).tolist() == [5.0, 6.0]

    def test_transpose_matvec_column_sum(self):
        A = SparseMatrix.from_dense([[1.0], [1.0]])
        assert A.rmatvec([1.0, 1.0]).tolist() == [2.0]

    def test_transpose_matvec_first_row(self):
        A = SparseMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        assert A.rmatvec([1.0, 0.0]).tolist() == [1.0, 2.0]

    def test_transpose_agrees_with_explicit_transpose(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m, n = rng.integers(1, 12, size=2)
            a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
            A = SparseMatrix.from_dense(a)
            At = SparseMatrix.from_dense(a.T)
            x = rng.standard_normal(m)
            got = A.rmatvec(x)
            want = At.matvec(x)
            assert np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want), 1.0)

    def test_invariant_violations(self):
        with pytest.raises(DimensionError):
            SparseMatrix.from_csr(2, 2, [0, 1], [0], [1.0])  # offsets too short
        with pytest.raises(DimensionError):
            SparseMatrix.from_csr(1, 2, [0, 1], [5], [1.0])  # col out of range
        with pytest.raises(DimensionError):
            SparseMatrix.from_csr(1, 3, [0, 2], [1, 1], [1.0, 2.0])  # non-increasing cols
        with pytest.raises(DimensionError):
            SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])  # duplicates

    def test_products_sum_in_storage_order(self):
        """A partly stored A sums A x and A^T y left to right, row-major by column.

        A fully stored A runs BLAS gemv instead (test below), so every trial
        leaves at least one entry unstored.
        """
        rng = np.random.default_rng(7)
        order_sensitive = False
        for trial in range(20):
            m, n = rng.integers(1, 25, size=2)
            a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-15, 16, size=(m, n))
            a *= rng.random((m, n)) < 0.6
            a[rng.integers(m), rng.integers(n)] = 0.0
            x, y = rng.standard_normal(n), rng.standard_normal(m)
            ax, aty, ax_reversed = np.zeros(m), np.zeros(n), np.zeros(m)
            for i in range(m):
                for j in range(n):
                    if a[i, j] != 0.0:
                        ax[i] += a[i, j] * x[j]
                        aty[j] += a[i, j] * y[i]
                for j in reversed(range(n)):
                    if a[i, j] != 0.0:
                        ax_reversed[i] += a[i, j] * x[j]
            A = SparseMatrix.from_dense(a)
            assert A._full is None
            assert A.matvec(x).tobytes() == ax.tobytes()
            assert A.rmatvec(y).tobytes() == aty.tobytes()
            order_sensitive |= ax_reversed.tobytes() != ax.tobytes()
        assert order_sensitive  # the data can tell summation orders apart

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (40, 30)])
    def test_full_storage_products_use_blas_view(self, shape):
        """A fully stored A multiplies by gemv on csr.data viewed as the dense matrix."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal(shape)
        x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
        A = SparseMatrix.from_dense(a)
        assert np.shares_memory(A._full, A.csr.data)
        assert A.matvec(x).tobytes() == (a @ x).tobytes()
        assert A.rmatvec(y).tobytes() == (y @ a).tobytes()
        a[-1, 0] = 0.0  # from_dense drops the zero: one entry unstored
        assert SparseMatrix.from_dense(a)._full is None

    @pytest.mark.parametrize("name, a", list(_dense_inputs().items()))
    def test_from_dense_matches_scipy_csr_bytewise(self, name, a):
        """Index arithmetic gives the arrays and index dtype scipy's dense path gives."""
        want = scipy.sparse.csr_array(np.atleast_2d(np.asarray(a, dtype=float)))
        A = SparseMatrix.from_dense(a)
        assert A.shape == want.shape
        for part in ("data", "indices", "indptr"):
            got, ref = getattr(A.csr, part), getattr(want, part)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()
        rows, cols = A.shape
        assert (A._full is not None) == (A.nnz == rows * cols > 0)

    @pytest.mark.parametrize("density", [1.0, 0.5])
    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (8, 5)])
    def test_from_dense_copies_its_input(self, shape, density):
        # A plain ravel() of a C-contiguous float array would alias it.
        rng = np.random.default_rng(3)
        a = rng.standard_normal(shape) * (rng.random(shape) < density)
        A = SparseMatrix.from_dense(a)
        kept = A.csr.data.copy()
        a[...] = 7.0
        assert A.csr.data.tobytes() == kept.tobytes()

    def test_from_dense_refuses_three_dimensions(self):
        with pytest.raises(DimensionError, match="1-D or 2-D"):
            SparseMatrix.from_dense(np.ones((2, 3, 4)))

    @pytest.mark.parametrize("n", [2, 9, 400])  # 400: five row blocks of the dense scan
    @pytest.mark.parametrize("factor, symmetric",
                             [(0.0, True), (0.9, True), (1.0, True), (1.1, False)])
    def test_dense_view_symmetry_agrees_with_csr_path(self, n, factor, symmetric):
        """A fully stored K is tested on its dense view by the CSR path's rule.

        K padded with a zero row and column has the same max|K| and max|K - K^T|
        but is partly stored, so it runs the CSR path. The gap x = factor times
        the bound 1e-12 max|K| is exact (2x - x = x) and sits in the last two
        rows, so the dense scan finds it only in its last row block.
        """
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        k = g + g.T
        if factor:
            k[-2, -1] = k[-1, -2] = 0.0
            x = factor * (1e-12 * np.abs(k).max())
            k[-2, -1], k[-1, -2] = x, 2.0 * x
        padded = np.zeros((n + 1, n + 1))
        padded[:n, :n] = k
        K, P = SparseMatrix.from_dense(k), SparseMatrix.from_dense(padded)
        assert K._full is not None and P._full is None
        assert K.is_symmetric() is symmetric
        assert P.is_symmetric() is symmetric

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_dense_view_symmetry_holds_no_m_by_m_temporary(self, symmetric):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((500, 500))
        K = SparseMatrix.from_dense(g + g.T if symmetric else g)
        tracemalloc.start()
        try:
            assert K.is_symmetric() is symmetric
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500**2 * 8 / 4

    def test_dense_view_symmetry_refuses_non_square(self):
        a = np.ones((3, 4))
        padded = np.zeros((4, 5))
        padded[:3, :4] = a
        assert SparseMatrix.from_dense(a)._full is not None
        assert not SparseMatrix.from_dense(a).is_symmetric()
        assert not SparseMatrix.from_dense(padded).is_symmetric()

    def test_is_diagonal_ignores_stored_zeros_off_the_diagonal(self):
        K = SparseMatrix.from_coo(3, 3, [0, 0, 1, 2, 2], [0, 2, 1, 0, 2],
                                  [2.0, 0.0, 3.0, -0.0, 4.0])
        assert K.nnz == 5 and K.is_diagonal()
        assert factorize(K).kind == "diagonal"
        assert not SparseMatrix.from_coo(3, 3, [0, 2], [0, 1], [1.0, 1e-300]).is_diagonal()

    def test_round_trip_dense(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3)) * (rng.random((5, 3)) < 0.5)
        assert np.array_equal(SparseMatrix.from_dense(a).to_dense(), a)


@pytest.mark.parametrize("call, fragment", [
    (lambda: SparseMatrix.from_csr(1, 1, [0, 2], [0], [1.0]),
     "row offsets must end at the number of values"),
    (lambda: SparseMatrix.from_coo(2, 2, [0, 2], [0, 1], [1.0, 2.0]), "invalid coordinates"),
    (lambda: factorize(np.ones((2, 3))), "factorize requires a square matrix"),
    (lambda: spsd_factor(np.ones((2, 3))), "spsd_factor requires a square matrix"),
    (lambda: FactorizedOperator.identity(2).solve(np.ones((2, 1))),
     "x must be a vector, got shape (2, 1)"),
], ids=["csr-offsets-past-values", "coo-index-out-of-range", "factorize-non-square",
        "spsd-factor-non-square", "solve-of-a-matrix"])
def test_malformed_input_is_refused_with_dimension_error(call, fragment):
    with pytest.raises(DimensionError) as info:
        call()
    assert fragment in str(info.value)


class TestWeightedInner:
    """The N-weighted product x^T N y (as x @ N.apply(y)) and the N^-1-weighted norm inv_norm."""

    def test_identity(self):
        N = FactorizedOperator.identity(2)
        assert np.array([1.0, 1.0]) @ N.apply([1.0, 1.0]) == 2.0
        assert N.inv_norm([3.0, 4.0]) == 5.0

    def test_diagonal(self):
        N = factorize(np.diag([2.0, 3.0]))
        assert np.array([1.0, 1.0]) @ N.apply([1.0, 1.0]) == 5.0
        assert N.inv_norm([2.0, 3.0]) == 5.0 ** 0.5

    def test_scalar_norm(self):
        N = factorize(np.diag([4.0]))
        assert np.array([1.0]) @ N.apply([1.0]) == 4.0
        assert N.inv_norm([4.0]) == 2.0

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(1, 9))
            g = rng.standard_normal((n, n))
            N = factorize(SparseMatrix.from_dense(g @ g.T + n * np.eye(n)))
            x, y, z = rng.standard_normal((3, n))
            a, b = rng.standard_normal(2)
            lhs = (a * x + b * z) @ N.apply(y)
            rhs = a * (x @ N.apply(y)) + b * (z @ N.apply(y))
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-13 * scale
            sym_gap = abs(x @ N.apply(y) - y @ N.apply(x))
            assert sym_gap <= 1e-13 * scale


class TestFactorize:
    def test_diagonal(self):
        op = factorize(np.diag([2.0, 4.0]))
        assert op.kind == "diagonal"
        assert op.solve([2.0, 4.0]).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("d", [[2.0, 0.0], [2.0, -1.0], [0.0]])
    @pytest.mark.parametrize("stored", ["dense", "sparse"])
    def test_diagonal_refuses_nonpositive_entry(self, d, stored):
        K = np.diag(d) if stored == "dense" else SparseMatrix(scipy.sparse.diags_array(
            np.asarray(d), format="csr"))
        with pytest.raises(NotSpdError):
            factorize(K)

    def test_cholesky_solve(self):
        op = factorize(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert op.kind == "cholesky-spd"
        assert np.allclose(op.solve([4.0, 2.0]), [1.0, 0.0], atol=1e-14)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cholesky_rejects_asymmetric(self):
        # a nonsymmetric K is not refused: it gets an LU factor
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        op = factorize(a)
        assert op.kind == "lu-general"
        assert np.allclose(a @ op.solve([1.0, 2.0]), [1.0, 2.0], rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("kind, a", [
        ("cholesky-spd", [[4.0, 1.0], [1.0, 2.0]]),
        ("lu-general", [[-2.0, 1.0], [0.5, 3.0]]),
        ("cholesky-spd", [[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]]),
        ("lu-general", [[1.0, 2.0, 3.0], [0.5, 4.0, 1.0], [2.0, 1.0, 5.0]]),
    ])
    def test_dense_factor_leaves_full_storage_intact(self, kind, a):
        """The dense factor overwrites a copy, never the csr.data it densified."""
        K = SparseMatrix.from_dense(a)
        stored = K.csr.data.copy()
        op = factorize(K)
        assert op.kind == kind
        assert np.array_equal(K.csr.data, stored)
        b = np.arange(1.0, K.rows + 1)
        assert np.allclose(np.asarray(a) @ op.solve(b), b, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("kind", ["cholesky-spd", "lu-general"])
    def test_dense_solve_matches_scipy_wrappers(self, kind):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((30, 30))
        a = g @ g.T + 30.0 * np.eye(30) if kind == "cholesky-spd" else g
        b = rng.standard_normal(30)
        op = factorize(a)
        assert op.kind == kind
        if kind == "cholesky-spd":
            expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        else:
            expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
        assert op.solve(b).tobytes() == expected.tobytes()

    def test_lu_singular(self):
        with pytest.raises(SingularOperatorError):
            factorize(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_solve_residual_on_random_rhs(self):
        rng = np.random.default_rng(3)
        n = 30
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spd = (q * rng.uniform(1e-4, 1e4, n)) @ q.T  # condition <= 1e8
        spd = (spd + spd.T) / 2
        general = spd + 0.3 * rng.standard_normal((n, n))
        for kind, mat in [("cholesky-spd", spd), ("lu-general", general)]:
            op = factorize(mat)
            assert op.kind == kind
            for _ in range(100):
                b = rng.standard_normal(n)
                x = op.solve(b)
                assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_sparse_cholesky_refuses_zero_diagonal(self):
        # [[0, 1], [1, 0]] blocks: the only pivots available lie off the diagonal
        K = SparseMatrix.from_dense(scipy.linalg.block_diag(*[[[0.0, 1.0], [1.0, 0.0]]] * 10))
        with pytest.raises(NotSpdError):
            factorize(K)

    def test_sparse_cholesky_refuses_indefinite_with_positive_diagonal(self):
        K = SparseMatrix.from_dense(scipy.linalg.block_diag(*[[[1.0, 2.0], [2.0, 1.0]]] * 10))
        with pytest.raises(NotSpdError):
            factorize(K)

    def test_sparse_cholesky_refuses_exactly_singular(self):
        # Symmetric, not diagonal and sparse enough (12 of 100 entries) for SuperLU,
        # whose second pivot in the [[1, 1], [1, 1]] block is exactly zero.
        d = np.eye(10)
        d[:2, :2] = 1.0
        K = SparseMatrix.from_dense(d)
        with pytest.raises(NotSpdError, match="Factor is exactly singular"):
            factorize(K)

    @pytest.mark.parametrize("eps", [0.0, 1e-15])
    def test_sparse_lu_refuses_nearly_singular(self, eps):
        blocks = [[[2.0, 1.0], [0.5, 3.0]]] * 9 + [[[1.0, 1.0], [1.0, 1.0 + eps]]]
        K = SparseMatrix.from_dense(scipy.linalg.block_diag(*blocks))
        with pytest.raises(SingularOperatorError):
            factorize(K)

    def test_sparse_paths_solve_exactly(self):
        rng = np.random.default_rng(7)
        n = 60
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        general = np.diag(4.0 + rng.random(n)) + np.diag(lower, -1) + np.diag(upper, 1)
        spd = np.diag(4.0 + rng.random(n)) + np.diag(lower, -1) + np.diag(lower, 1)
        for kind, mat in [("lu-general", general), ("cholesky-spd", spd)]:
            op = factorize(SparseMatrix.from_dense(mat))
            assert op.kind == kind
            assert isinstance(op._factor, scipy.sparse.linalg.SuperLU)
            b = rng.standard_normal(n)
            want = np.linalg.solve(mat, b)
            assert np.linalg.norm(op.solve(b) - want) <= 1e-13 * np.linalg.norm(want)

    def test_oseen_lu_uses_minimum_degree_ordering(self):
        # The oseen32 convection-diffusion M (1984 unknowns, 9668 entries):
        # SuperLU's default COLAMD ordering filled L + U to 70,298 entries,
        # minimum degree on M^T + M to 44,566.
        M = gen_stokes_channel(StokesSpec(nx=32, ny=32, viscosity=1e-3,
                                          oseen_wind="poiseuille")).Mmat
        op = factorize(M)
        assert op.kind == "lu-general"
        assert op._factor.L.nnz + op._factor.U.nnz <= 45_000
        b = np.random.default_rng(8).standard_normal(M.rows)
        assert np.linalg.norm(M.matvec(op.solve(b)) - b) <= 1e-12 * np.linalg.norm(b)

    def test_sparse_path_has_no_size_cap_and_does_not_densify(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the sparse path densified its input")

        monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
        n = DENSE_FACTOR_LIMIT + 1
        op = factorize(SparseMatrix(scipy.sparse.diags_array(
            [-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1],
            format="csr")))
        x = np.linspace(-1.0, 1.0, n)
        assert np.linalg.norm(op.solve(op.apply(x)) - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["cholesky-spd", "lu-general", "diagonal"])
    @pytest.mark.parametrize("n", [2, 30])  # dense and sparse storage
    def test_non_finite_refused(self, kind, n):
        """A NaN is refused whichever kind the rest of the matrix would get."""
        mat = np.eye(n)
        if kind != "diagonal":
            mat[0, 1] = 0.5
            mat[1, 0] = 0.5 if kind == "cholesky-spd" else 0.0
        mat[1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            factorize(mat)

    def test_dense_stored_matrix_above_cap_refused(self):
        n = DENSE_FACTOR_LIMIT + 1
        per_row = int(DENSE_FACTOR_DENSITY * n) + 1  # just above the density threshold
        indptr = np.arange(n + 1, dtype=np.int32) * per_row
        indices = np.tile(np.arange(per_row, dtype=np.int32), n)
        K = SparseMatrix.from_csr(n, n, indptr, indices, np.ones(n * per_row))
        with pytest.raises(DimensionError):
            factorize(K)

    def test_solve_apply_round_trip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        op = factorize(spd)
        x = rng.standard_normal(8)
        assert np.linalg.norm(op.solve(op.apply(x)) - x) <= 1e-12 * np.linalg.norm(x)


class TestSpsdFactor:
    def test_diagonal_rank_one(self):
        E, w = spsd_factor(SparseMatrix.from_dense(np.diag([2.0, 0.0])))
        assert len(w) == 1
        assert np.allclose(w, [2.0])
        assert np.allclose(np.abs(E), [[1.0, 0.0]])
        assert np.allclose((E.T * w) @ E, np.diag([2.0, 0.0]))

    def test_identity_full_rank(self):
        E, w = spsd_factor(SparseMatrix.identity(2))
        assert len(w) == 2
        assert np.allclose((E.T * w) @ E, np.eye(2), atol=1e-14)

    def test_rank_one_ones(self):
        E, w = spsd_factor(SparseMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]]))
        assert len(w) == 1
        assert np.allclose(w, [2.0])
        assert np.allclose(np.abs(E), [[2**-0.5, 2**-0.5]])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpsdError):
            spsd_factor(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpsdError):
            spsd_factor(SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))

    def test_round_trip_all_ranks(self):
        rng = np.random.default_rng(5)
        n = 7
        for l in range(1, n + 1):
            q, _ = np.linalg.qr(rng.standard_normal((n, l)))
            c = (q * rng.uniform(0.5, 3.0, l)) @ q.T
            c = (c + c.T) / 2
            E, w = spsd_factor(SparseMatrix.from_dense(c))
            assert len(w) == l
            recon = (E.T * w) @ E
            assert np.linalg.norm(recon - c) <= 1e-10 * np.linalg.norm(c)

    def test_zero_matrix(self):
        E, w = spsd_factor(SparseMatrix.zeros(3, 3))
        assert E.shape == (0, 3) and w.shape == (0,)

    def test_zero_matrix_with_stored_zeros(self):
        # eigh of an exactly zero C returns exact zeros, which the cutoff drops
        E, w = spsd_factor(SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [0.0, 0.0, 0.0]))
        assert E.shape == (0, 3) and w.shape == (0,)

    def test_cap_checked_before_densifying(self, monkeypatch):
        def refuse(self):
            raise AssertionError("densified a matrix the cap refuses")

        monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
        with pytest.raises(DimensionError):
            spsd_factor(SparseMatrix.identity(2001))


class TestSpdPreconditioner:
    """N is an SPD FactorizedOperator; solver_inputs refuses any other kind."""

    def test_symmetry_and_positivity_probes(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        N = factorize(a @ a.T + 6 * np.eye(6))
        for _ in range(20):
            x, y = rng.standard_normal((2, 6))
            gap = abs(x @ N.apply(y) - y @ N.apply(x))
            assert gap <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y) + 1.0)
            assert x @ N.apply(x) > 0.0

    def test_rejects_lu_kind(self):
        op = factorize(np.array([[1.0, 2.0], [0.0, 1.0]]))
        sys = SaddleSystem.from_matrices(np.eye(2), np.eye(2), np.zeros((2, 2)), np.ones(2))
        for name in SOLVER_RULES:
            with pytest.raises(NotSpdError):
                solver_inputs(name, sys, op, None)

    def test_inv_norm(self):
        N = factorize(np.diag([4.0]))
        assert N.inv_norm([2.0]) == 1.0

    def test_inv_norm_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            FactorizedOperator.identity(2).inv_norm([1.0])

    def test_inv_norm_tiny_negative_radicand_clamped(self):
        # factorize refuses a nonpositive diagonal, so build the operator directly.
        def diagonal(d):
            return FactorizedOperator("diagonal", SparseMatrix.from_dense([[d]]), np.array([d]))

        assert diagonal(-1e14).inv_norm([1.0]) == 0.0
        with pytest.raises(NotSpdError):
            diagonal(-1.0).inv_norm([1.0])

