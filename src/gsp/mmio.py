"""Matrix Market serialization and the on-disk system manifest.

Coordinate and array formats, real field only, general or symmetric layout.
Writes use 17 significant digits so read(write(A)) reproduces every float64
bit-exactly; parse failures report the offending 1-based line.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionError, LoadError, ParseError
from .linops import SparseMatrix
from .system import SaddleSystem

_HEADER = "%%MatrixMarket"


def write_matrix_market(path, A):
    """Write a SparseMatrix in coordinate real general format."""
    lines = [f"{_HEADER} matrix coordinate real general"]
    lines.append(f"{A.rows} {A.cols} {A.nnz}")
    coo = A.csr.tocoo()
    for i, j, v in zip(coo.row, coo.col, coo.data):
        lines.append(f"{i + 1} {j + 1} {v:.16e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vector(path, v):
    """Write a vector in array real general format (n x 1)."""
    v = np.asarray(v, dtype=float)
    lines = [f"{_HEADER} matrix array real general", f"{v.shape[0]} 1"]
    lines.extend(f"{x:.16e}" for x in v)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(line):
    tokens = line.strip().split()
    if len(tokens) != 5 or tokens[0].lower() != _HEADER.lower() or tokens[1].lower() != "matrix":
        raise ParseError(f"malformed header: {line.strip()!r}", line=1)
    layout, field, symmetry = (t.lower() for t in tokens[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported layout '{layout}'", line=1)
    if field != "real":
        raise ParseError(f"unsupported field '{field}' (only real)", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry '{symmetry}'", line=1)
    return layout, symmetry


def _data_lines(raw):
    for no, line in enumerate(raw, start=1):
        if no == 1:
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield no, stripped


def _read(path):
    """Parse a real coordinate/array file; symmetric entries are mirrored.

    An array file gives a dense ndarray. A coordinate file gives a
    SparseMatrix built from index arrays of the dtype scipy gives a generated
    block of that size (int32 unless a dimension needs more), so a saved and
    loaded block equals the original bit for bit.
    """
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise ParseError("empty file", line=1)
    layout, symmetry = _parse_header(raw[0])
    data = _data_lines(raw)

    try:
        no, size_line = next(data)
    except StopIteration:
        raise ParseError("missing size line", line=len(raw)) from None
    parts = size_line.split()

    if layout == "coordinate":
        if len(parts) != 3:
            raise ParseError("coordinate size line needs 'rows cols nnz'", line=no)
        try:
            rows, cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad size line {size_line!r}", line=no) from None
        ii, jj, vv = [], [], []
        count = 0
        for no, entry in data:
            fields = entry.split()
            if len(fields) != 3:
                raise ParseError(f"entry needs 'i j value', got {entry!r}", line=no)
            try:
                i, j = int(fields[0]) - 1, int(fields[1]) - 1
                v = float(fields[2])
            except ValueError:
                raise ParseError(f"non-real entry {entry!r}", line=no) from None
            if not (0 <= i < rows and 0 <= j < cols):
                raise ParseError(f"index ({i + 1}, {j + 1}) out of bounds", line=no)
            ii.append(i)
            jj.append(j)
            vv.append(v)
            if symmetry == "symmetric" and i != j:
                ii.append(j)
                jj.append(i)
                vv.append(v)
            count += 1
        if count != nnz:
            raise ParseError(f"expected {nnz} entries, found {count}", line=len(raw))
        index = np.int32 if max(rows, cols) <= np.iinfo(np.int32).max else np.int64
        try:
            return SparseMatrix.from_coo(rows, cols, np.array(ii, dtype=index),
                                         np.array(jj, dtype=index), vv)
        except DimensionError as exc:
            raise ParseError(str(exc)) from exc

    if len(parts) != 2:
        raise ParseError("array size line needs 'rows cols'", line=no)
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad size line {size_line!r}", line=no) from None
    if symmetry == "symmetric" and rows != cols:
        raise ParseError("symmetric layout needs a square matrix", line=no)
    vals = []
    for no, entry in data:
        for tok in entry.split():
            try:
                vals.append(float(tok))
            except ValueError:
                raise ParseError(f"non-real entry {tok!r}", line=no) from None
    if len(vals) != rows * cols:
        raise ParseError(f"expected {rows * cols} values, found {len(vals)}", line=len(raw))
    a = np.array(vals).reshape((rows, cols), order="F")
    if symmetry == "symmetric":
        a = np.tril(a) + np.tril(a, -1).T
    return a


def read_matrix_market(path):
    """Read a real coordinate/array file as a SparseMatrix."""
    entries = _read(path)
    return SparseMatrix.from_dense(entries) if isinstance(entries, np.ndarray) else entries


def read_vector(path):
    """Read a vector (n x 1 array or coordinate file)."""
    entries = _read(path)
    if entries.shape[1] != 1:
        raise ParseError(f"expected a single-column vector, got {entries.shape[1]} columns")
    if isinstance(entries, np.ndarray):
        return entries[:, 0]
    return entries.csr.toarray()[:, 0]


MANIFEST_NAME = "system.json"


def save_system(directory, sys, manifest_name=MANIFEST_NAME):
    """Write the four blocks plus the JSON manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    names = {"m_file": "M.mtx", "a_file": "A.mtx", "c_file": "C.mtx", "b_file": "b.mtx"}
    write_matrix_market(os.path.join(directory, names["m_file"]), sys.Mmat)
    write_matrix_market(os.path.join(directory, names["a_file"]), sys.A)
    write_matrix_market(os.path.join(directory, names["c_file"]), sys.C)
    write_vector(os.path.join(directory, names["b_file"]), sys.b)
    manifest = dict(names, symmetric=bool(sys.symmetric))
    path = os.path.join(directory, manifest_name)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_system(manifest_path):
    """Rebuild a SaddleSystem from a manifest written by save_system."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read manifest {manifest_path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(manifest_path))
    try:
        m_file, a_file, c_file, b_file = [os.path.join(base, manifest[key]) for key in
                                          ("m_file", "a_file", "c_file", "b_file")]
        symmetric = bool(manifest["symmetric"])
    except (KeyError, TypeError) as exc:
        raise LoadError(f"bad manifest {manifest_path}: missing or invalid key {exc}") from exc
    M = read_matrix_market(m_file)
    A = read_matrix_market(a_file)
    C = read_matrix_market(c_file)
    b = read_vector(b_file)
    return SaddleSystem.from_matrices(M, A, C, b, symmetric=symmetric)
