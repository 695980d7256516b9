"""Matrix Market serialization and the system manifest."""

import errno
import json
import os

import numpy as np
import pytest

import gsp.mmio

from gsp import (SolverConfig, SparseMatrix, StokesSpec, craig_solve, gen_stokes_channel_detailed,
                 load_system, read_matrix_market, save_system, write_matrix_market)
from gsp.errors import LoadError, NotSpdError, ParseError
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

    def test_vector_round_trip_keeps_signed_zeros(self, tmp_path):
        v = np.array([-0.0, 0.0, 5e-324, -1.0])
        path = tmp_path / "v0.mtx"
        write_vector(path, v)
        assert read_vector(path).tobytes() == v.tobytes()

    def test_coordinate_vector(self, tmp_path):
        path = tmp_path / "vc.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 1 2\n1 1 2.0\n3 1 -1.0\n")
        assert read_vector(path).tolist() == [2.0, 0.0, -1.0]

    def test_coordinate_vector_keeps_signed_zero(self, tmp_path):
        path = tmp_path / "vz.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 1 2\n1 1 -0.0\n2 1 1.0\n")
        v = read_vector(path)
        assert v.tolist() == [0.0, 1.0] and np.signbit(v[0])

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
            "4.0\n2.0\n3.0\n")
        A = read_matrix_market(path)
        assert np.array_equal(A.to_dense(), [[4.0, 2.0], [2.0, 3.0]])


class TestParseErrors:
    def test_symmetric_array_must_be_square(self, tmp_path):
        path = tmp_path / "sv.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n3 1\n1.0\n2.0\n3.0\n")
        for read in (read_matrix_market, read_vector):
            with pytest.raises(ParseError) as err:
                read(path)
            assert err.value.line == 2

    # scipy reads all of these; gsp refuses them at the header.
    @pytest.mark.parametrize("field, symmetry", [
        ("integer", "general"), ("pattern", "general"), ("complex", "general"),
        ("real", "skew-symmetric"), ("real", "hermitian")])
    def test_complex_field_rejected(self, tmp_path, field, symmetry):
        entry = {"integer": "2 1 1", "pattern": "2 1", "complex": "2 1 1 0"}.get(field, "2 1 1.0")
        path = tmp_path / "c.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n2 2 1\n{entry}\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 1
        assert (symmetry if field == "real" else field) in str(err.value)

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

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(ParseError):
            read_matrix_market(path)

    def test_extra_entry_reports_line(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 4

    def test_duplicate_coordinates_rejected(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n")
        for read in (read_matrix_market, read_vector):
            with pytest.raises(ParseError, match="duplicate"):
                read(path)

    def test_missing_file(self, tmp_path):
        for read in (read_matrix_market, read_vector):
            with pytest.raises(LoadError):
                read(tmp_path / "absent.mtx")

    def test_directory_is_a_load_error(self, tmp_path):
        for read in (read_matrix_market, read_vector):
            with pytest.raises(LoadError, match="is a directory"):
                read(tmp_path)


def test_system_manifest_round_trip(tmp_path):
    sys = random_system(8, 4, skew=0.3, c_rank=2, seed=81)
    manifest = save_system(tmp_path / "out", sys)
    back = load_system(manifest)
    assert back.M.spd == sys.M.spd
    assert np.array_equal(back.Mmat.values, sys.Mmat.values)
    assert np.array_equal(back.A.values, sys.A.values)
    assert np.array_equal(back.C.values, sys.C.values)
    assert np.array_equal(back.b, sys.b)


def test_array_layout_b_loads(tmp_path):
    sys = random_system(8, 4, c_rank=2, seed=83)
    manifest = save_system(tmp_path, sys)
    (tmp_path / "b.mtx").write_text("%%MatrixMarket matrix array real general\n4 1\n"
                                    + "".join(f"{float(x)!r}\n" for x in sys.b))
    assert load_system(manifest).b.tobytes() == sys.b.tobytes()


@pytest.mark.parametrize("body", ["array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n",
                                  "coordinate real general\n2 2 1\n1 2 1.0\n"],
                         ids=["array", "coordinate"])
def test_two_column_b_refused(tmp_path, body):
    path = tmp_path / "b.mtx"
    path.write_text("%%MatrixMarket matrix " + body)
    with pytest.raises(ParseError, match="single-column vector, got 2 columns"):
        read_vector(path)


def test_manifest_naming_a_directory_is_a_load_error(tmp_path):
    manifest = save_system(tmp_path, random_system(8, 4, seed=82))
    (tmp_path / "blocks").mkdir()
    text = (tmp_path / "system.json").read_text()
    (tmp_path / "system.json").write_text(text.replace('"A.mtx"', '"blocks"'))
    with pytest.raises(LoadError, match="is a directory"):
        load_system(manifest)


@pytest.mark.parametrize("flag, wind, kind", [(True, "poiseuille", "lu-general"),
                                               (False, None, "cholesky-spd")])
def test_older_manifest_symmetric_key_is_ignored(tmp_path, flag, wind, kind):
    # Older manifests carried a "symmetric" key; the kind is read off M alone.
    sys = gen_stokes_channel_detailed(StokesSpec(nx=6, ny=6, viscosity=0.1, oseen_wind=wind)).system
    manifest = save_system(tmp_path, sys)
    doc = json.loads((tmp_path / "system.json").read_text())
    assert "symmetric" not in doc
    doc["symmetric"] = flag
    (tmp_path / "system.json").write_text(json.dumps(doc))
    loaded = load_system(manifest)
    assert loaded.M.kind == kind and loaded.M.spd is not flag
    if loaded.M.spd:
        assert craig_solve(loaded, None, SolverConfig(tolerance=1e-10)).converged


def test_symmetric_indefinite_m_refused_whatever_an_older_manifest_says(tmp_path):
    # "symmetric": false used to send any M to LU; a symmetric M now gets Cholesky.
    write_matrix_market(tmp_path / "M.mtx", SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))
    write_matrix_market(tmp_path / "A.mtx", SparseMatrix.identity(2))
    write_matrix_market(tmp_path / "C.mtx", SparseMatrix.zeros(2, 2))
    write_vector(tmp_path / "b.mtx", np.ones(2))
    doc = {"m_file": "M.mtx", "a_file": "A.mtx", "c_file": "C.mtx", "b_file": "b.mtx",
           "symmetric": False}
    (tmp_path / "system.json").write_text(json.dumps(doc))
    with pytest.raises(NotSpdError):
        load_system(tmp_path / "system.json")


def test_load_tests_each_block_symmetry_once(tmp_path, monkeypatch):
    # factorize asks whether M is symmetric and SaddleSystem whether C is;
    # the immutable SparseMatrix would answer any second question from cache.
    sys = gen_stokes_channel_detailed(StokesSpec(nx=8, ny=8)).system
    path = save_system(tmp_path / "stokes", sys)
    shapes = []
    cache = vars(SparseMatrix)["is_symmetric"]  # the functools.cached_property
    verdict = cache.func

    def counted(K):
        shapes.append(K.shape)
        return verdict(K)

    monkeypatch.setattr(cache, "func", counted)
    loaded = load_system(path)
    assert loaded.M.spd
    assert shapes == [(sys.m, sys.m), (sys.n, sys.n)]  # M once, then C


def snapshot(directory):
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def test_save_that_fails_leaves_no_block_behind(tmp_path):
    # A.mtx is a directory, so A cannot be written: M.mtx must not be left without system.json.
    out = tmp_path / "out"
    (out / "A.mtx").mkdir(parents=True)
    with pytest.raises(IsADirectoryError) as exc:
        save_system(out, random_system(8, 4, seed=86))
    assert exc.value.filename == str(out / "A.mtx")
    assert snapshot(out) == {"A.mtx": None} and not any((out / "A.mtx").iterdir())


def test_save_that_fails_keeps_an_older_system_intact(tmp_path, monkeypatch):
    old = random_system(8, 4, seed=87)
    save_system(tmp_path, old)
    before = snapshot(tmp_path)
    (tmp_path / "blocked.json").mkdir()  # the manifest, written last, cannot land
    with monkeypatch.context() as patch, pytest.raises(IsADirectoryError):
        patch.setattr(gsp.mmio, "MANIFEST_NAME", "blocked.json")
        save_system(tmp_path, random_system(10, 5, seed=88))

    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(gsp.mmio, "write_vector", full)  # b, written after M, A and C
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        save_system(tmp_path, random_system(10, 5, seed=88))
    assert snapshot(tmp_path) == {**before, "blocked.json": None}
    assert np.array_equal(load_system(tmp_path / "system.json").b, old.b)
