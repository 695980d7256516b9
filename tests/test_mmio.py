"""Matrix Market serialization and the system manifest."""

import numpy as np
import pytest

from gsp import SparseMatrix, load_system, read_matrix_market, save_system, write_matrix_market
from gsp.errors import ParseError
from gsp.mmio import read_vector, write_vector

from conftest import random_system


class TestRoundTrip:
    def test_identity_bit_identical(self, tmp_path):
        A = SparseMatrix.identity(2)
        path = tmp_path / "eye.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert np.array_equal(A.values, B.values)
        assert np.array_equal(A.csr.indices, B.csr.indices)
        assert np.array_equal(A.csr.indptr, B.csr.indptr)

    def test_many_random_matrices_lossless(self, tmp_path):
        rng = np.random.default_rng(80)
        for trial in range(100):
            m, n = rng.integers(1, 10, size=2)
            dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
            dense *= 10.0 ** rng.integers(-12, 12)
            A = SparseMatrix.from_dense(dense)
            path = tmp_path / f"a{trial}.mtx"
            write_matrix_market(path, A)
            B = read_matrix_market(path)
            assert B.shape == A.shape
            assert np.array_equal(A.values, B.values)
            assert np.array_equal(A.csr.indices, B.csr.indices)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.0, -2.5, 3e-17])
        path = tmp_path / "v.mtx"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_empty_matrix_round_trip(self, tmp_path):
        A = SparseMatrix.zeros(3, 2)
        path = tmp_path / "z.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert B.shape == (3, 2) and B.nnz == 0


class TestSymmetricFormat:
    def test_lower_triangle_mirrored(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 4.0\n"
            "2 1 2.0\n"
            "2 2 3.0\n")
        A = read_matrix_market(path)
        assert np.array_equal(A.to_dense(), [[4.0, 2.0], [2.0, 3.0]])

    def test_symmetric_array_format(self, tmp_path):
        path = tmp_path / "sa.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "4.0\n2.0\n0.0\n3.0\n")
        A = read_matrix_market(path)
        assert np.array_equal(A.to_dense(), [[4.0, 2.0], [2.0, 3.0]])


class TestParseErrors:
    def test_complex_field_rejected(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert "complex" in str(err.value)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "h.mtx"
        path.write_text("%%NotMatrixMarket\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 1

    def test_index_out_of_bounds_reports_line(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    def test_non_real_entry_reports_line(self, tmp_path):
        path = tmp_path / "n.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 abc\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 4

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c2.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n"
            "1 1 1\n"
            "1 1 2.5\n")
        assert read_matrix_market(path).to_dense()[0, 0] == 2.5


def test_system_manifest_round_trip(tmp_path):
    sys = random_system(8, 4, skew=0.3, c_rank=2, seed=81)
    manifest = save_system(tmp_path / "out", sys)
    back = load_system(manifest)
    assert back.symmetric == sys.symmetric
    assert np.array_equal(back.Mmat.values, sys.Mmat.values)
    assert np.array_equal(back.A.values, sys.A.values)
    assert np.array_equal(back.C.values, sys.C.values)
    assert np.array_equal(back.b, sys.b)
