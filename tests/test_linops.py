"""Kernels, factorizations, and weighted products."""

import numpy as np
import pytest

from gsp import (
    SparseMatrix,
    SpdPreconditioner,
    factorize,
    spsd_factor,
    weighted_inner,
    weighted_norm,
)
from gsp.errors import (
    DimensionError,
    NotSpdError,
    NotSpsdError,
    SingularOperatorError,
)


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
        """A x and A^T y add each entry's terms left to right, row-major by column."""
        rng = np.random.default_rng(7)
        order_sensitive = False
        for trial in range(20):
            m, n = rng.integers(1, 25, size=2)
            a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-15, 16, size=(m, n))
            a *= rng.random((m, n)) < 0.6
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
            assert A.matvec(x).tobytes() == ax.tobytes()
            assert A.rmatvec(y).tobytes() == aty.tobytes()
            order_sensitive |= ax_reversed.tobytes() != ax.tobytes()
        assert order_sensitive  # the data can tell summation orders apart

    def test_round_trip_dense(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3)) * (rng.random((5, 3)) < 0.5)
        assert np.array_equal(SparseMatrix.from_dense(a).to_dense(), a)


class TestWeightedInner:
    def test_identity(self):
        assert weighted_inner(SparseMatrix.identity(2), [1.0, 1.0], [1.0, 1.0]) == 2.0

    def test_diagonal(self):
        W = SparseMatrix.from_dense(np.diag([2.0, 3.0]))
        assert weighted_inner(W, [1.0, 1.0], [1.0, 1.0]) == 5.0

    def test_scalar_norm(self):
        W = SparseMatrix.from_dense([[4.0]])
        assert weighted_inner(W, [1.0], [1.0]) == 4.0
        assert weighted_norm(W, [1.0]) == 2.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            weighted_inner(SparseMatrix.identity(2), [np.nan, 0.0], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_inner(SparseMatrix.identity(2), [1.0, 2.0], [1.0])

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(1, 9))
            W = rng.standard_normal((n, n))
            W = SparseMatrix.from_dense(W + W.T)
            x, y, z = rng.standard_normal((3, n))
            a, b = rng.standard_normal(2)
            lhs = weighted_inner(W, a * x + b * z, y)
            rhs = a * weighted_inner(W, x, y) + b * weighted_inner(W, z, y)
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-13 * scale
            sym_gap = abs(weighted_inner(W, x, y) - weighted_inner(W, y, x))
            assert sym_gap <= 1e-13 * scale

    def test_tiny_negative_radicand_clamped(self):
        W = SparseMatrix.from_dense([[-1e-14]])
        assert weighted_norm(W, [1.0]) == 0.0
        with pytest.raises(NotSpdError):
            weighted_norm(SparseMatrix.from_dense([[-1.0]]), [1.0])


class TestFactorize:
    def test_diagonal(self):
        op = factorize("diagonal", np.diag([2.0, 4.0]))
        assert op.solve([2.0, 4.0]).tolist() == [1.0, 1.0]

    def test_cholesky_solve(self):
        op = factorize("cholesky-spd", np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(op.solve([4.0, 2.0]), [1.0, 0.0], atol=1e-14)

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            factorize("cholesky-spd", np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cholesky_rejects_asymmetric(self):
        with pytest.raises(NotSpdError):
            factorize("cholesky-spd", np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_lu_singular(self):
        with pytest.raises(SingularOperatorError):
            factorize("lu-general", np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_diagonal_rejects_offdiagonal(self):
        with pytest.raises(DimensionError):
            factorize("diagonal", np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_solve_residual_on_random_rhs(self):
        rng = np.random.default_rng(3)
        n = 30
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spd = (q * rng.uniform(1e-4, 1e4, n)) @ q.T  # condition <= 1e8
        spd = (spd + spd.T) / 2
        general = spd + 0.3 * rng.standard_normal((n, n))
        for kind, mat in [("cholesky-spd", spd), ("lu-general", general)]:
            op = factorize(kind, mat)
            for _ in range(100):
                b = rng.standard_normal(n)
                x = op.solve(b)
                assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_solve_apply_round_trip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        op = factorize("cholesky-spd", spd)
        x = rng.standard_normal(8)
        assert np.linalg.norm(op.solve(op.apply(x)) - x) <= 1e-12 * np.linalg.norm(x)


class TestSpsdFactor:
    def test_diagonal_rank_one(self):
        E, F, l = spsd_factor(SparseMatrix.from_dense(np.diag([2.0, 0.0])))
        assert l == 1
        assert np.allclose(F, [[2.0]])
        assert np.allclose(np.abs(E), [[1.0, 0.0]])
        assert np.allclose(E.T @ F @ E, np.diag([2.0, 0.0]))

    def test_identity_full_rank(self):
        E, F, l = spsd_factor(SparseMatrix.identity(2))
        assert l == 2
        assert np.allclose(E.T @ F @ E, np.eye(2), atol=1e-14)

    def test_rank_one_ones(self):
        E, F, l = spsd_factor(SparseMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]]))
        assert l == 1
        assert np.allclose(F, [[2.0]])
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
            E, F, got = spsd_factor(SparseMatrix.from_dense(c))
            assert got == l
            recon = E.T @ F @ E
            assert np.linalg.norm(recon - c) <= 1e-10 * np.linalg.norm(c)

    def test_zero_matrix(self):
        E, F, l = spsd_factor(SparseMatrix.zeros(3, 3))
        assert l == 0 and E.shape == (0, 3)


class TestSpdPreconditioner:
    def test_symmetry_and_positivity_probes(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        N = SpdPreconditioner.from_matrix(a @ a.T + 6 * np.eye(6))
        for _ in range(20):
            x, y = rng.standard_normal((2, 6))
            gap = abs(N.inner(x, N.apply(y)) - N.inner(y, N.apply(x)))
            assert gap <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y) + 1.0)
            assert N.inner(x, x) > 0.0

    def test_rejects_lu_kind(self):
        op = factorize("lu-general", np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSpdError):
            SpdPreconditioner(op)

    def test_inv_norm(self):
        N = SpdPreconditioner.from_diagonal([4.0])
        assert N.inv_norm([2.0]) == 1.0

