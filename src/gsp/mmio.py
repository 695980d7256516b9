"""Matrix Market serialization and the on-disk system manifest.

Files go through scipy.io (fast_matrix_market), imported where it is used so
runs that never touch a file do not load it. Reads take the real field,
general or symmetric symmetry, coordinate or array layout; a symmetric file
stores the lower triangle (column by column in the array layout) and is
mirrored. Writes are coordinate real general with the shortest decimal that
reads back to the same float64, so read(write(A)) equals A bit for bit.
Vectors are written as coordinate files listing every entry, because the
array-layout reader drops the sign of -0.0. Malformed content raises
ParseError, with the 1-based line wherever scipy names one.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import shutil
import tempfile

import numpy as np

from .errors import DimensionError, LoadError, ParseError
from .linops import SparseMatrix
from .system import SaddleSystem

_SCIPY_LINE = re.compile(r"Line (\d+): (.*)", re.DOTALL)


def write_matrix_market(path, A):
    """Write a SparseMatrix in coordinate real general format to exactly path."""
    import scipy.io

    with open(path, "wb") as fh:  # given a name, mmwrite appends .mtx and skips a directory
        scipy.io.mmwrite(fh, A.csr, symmetry="general")


def write_vector(path, v):
    """Write a vector as an n x 1 coordinate file that lists every entry, zeros included."""
    v = np.asarray(v, dtype=float)
    rows = np.arange(v.shape[0])
    write_matrix_market(path, SparseMatrix.from_coo(v.shape[0], 1, rows, np.zeros_like(rows), v))


def _size_line(path):
    """1-based number of the first line after the header that is not blank or a comment."""
    with open(path) as fh:
        for no, line in enumerate(fh, start=1):
            if no > 1 and line.strip() and not line.startswith("%"):
                return no


def _read(path):
    """Read a file as a dense ndarray (array layout) or a SparseMatrix (coordinate).

    Duplicate coordinates are refused. Indices are int32 unless a dimension
    needs more, as in a generated block, so save/load is bitwise.
    """
    import scipy.io

    if os.path.isdir(path):
        # mminfo reads a directory as a file without a banner ("Line 1").
        raise LoadError(f"cannot read {path}: is a directory")
    try:
        rows, cols, _, _, field, symmetry = scipy.io.mminfo(path)
        if field != "real" or symmetry not in ("general", "symmetric"):
            raise ParseError(f"unsupported field '{field}' or symmetry '{symmetry}' "
                             "(only real, general or symmetric)", line=1)
        if symmetry == "symmetric" and rows != cols:
            # scipy reads such a file without complaint and returns garbage.
            raise ParseError("symmetric layout needs a square matrix", line=_size_line(path))
        entries = scipy.io.mmread(path, spmatrix=False)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        found = _SCIPY_LINE.match(str(exc))
        if found:
            raise ParseError(found[2], line=int(found[1])) from exc
        raise ParseError(str(exc)) from exc
    if isinstance(entries, np.ndarray):
        return entries
    try:
        return SparseMatrix.from_coo(rows, cols, entries.row, entries.col, entries.data)
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc


def read_matrix_market(path):
    """Read a real coordinate/array file as a SparseMatrix."""
    entries = _read(path)
    return SparseMatrix.from_dense(entries) if isinstance(entries, np.ndarray) else entries


def read_vector(path):
    """Read a vector (n x 1 array or coordinate file).

    Coordinate entries are scattered by assignment rather than summed into
    zeros, so a stored -0.0 keeps its sign.
    """
    entries = _read(path)
    if entries.shape[1] != 1:
        raise ParseError(f"expected a single-column vector, got {entries.shape[1]} columns")
    if isinstance(entries, np.ndarray):
        return entries[:, 0]
    coo = entries.csr.tocoo()
    v = np.zeros(entries.rows)
    v[coo.row] = coo.data
    return v


MANIFEST_NAME = "system.json"


@contextlib.contextmanager
def staged_files(directory):
    """Write a set of files into directory all or nothing.

    Yields a staging directory inside directory (made if missing) to write
    the files into. When the block ends, each staged file replaces its
    namesake in directory, in name order; if the block raises, or a final
    name is taken by a directory (IsADirectoryError naming it), no file in
    directory changes, and an OSError that names a staged file names its
    final path instead. The staging directory is removed either way.
    """
    os.makedirs(directory, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".staging-", dir=directory)
    try:
        yield stage
        names = sorted(os.listdir(stage))
        for name in names:
            final = os.path.join(directory, name)
            if os.path.isdir(final):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), final)
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(directory, name))
    except OSError as exc:  # name the file the caller asked for, not its staged copy
        if isinstance(exc.filename, str) and os.path.dirname(exc.filename) == stage:
            exc.filename = os.path.join(directory, os.path.basename(exc.filename))
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def save_system(directory, sys):
    """Write the four blocks plus the JSON manifest, all or nothing; returns the manifest path.

    A write that fails leaves directory as it was, an earlier system included.
    """
    names = {"m_file": "M.mtx", "a_file": "A.mtx", "c_file": "C.mtx", "b_file": "b.mtx"}
    with staged_files(directory) as stage:
        write_matrix_market(os.path.join(stage, names["m_file"]), sys.Mmat)
        write_matrix_market(os.path.join(stage, names["a_file"]), sys.A)
        write_matrix_market(os.path.join(stage, names["c_file"]), sys.C)
        write_vector(os.path.join(stage, names["b_file"]), sys.b)
        with open(os.path.join(stage, MANIFEST_NAME), "w") as fh:
            json.dump(names, fh, indent=2)
            fh.write("\n")
    return os.path.join(directory, MANIFEST_NAME)


def load_system(manifest_path):
    """Rebuild a SaddleSystem from a manifest written by save_system; other keys are ignored."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read manifest {manifest_path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(manifest_path))
    try:
        m_file, a_file, c_file, b_file = [os.path.join(base, manifest[key]) for key in
                                          ("m_file", "a_file", "c_file", "b_file")]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"bad manifest {manifest_path}: missing or invalid key {exc}") from exc
    M = read_matrix_market(m_file)
    A = read_matrix_market(a_file)
    C = read_matrix_market(c_file)
    b = read_vector(b_file)
    return SaddleSystem.from_matrices(M, A, C, b)
