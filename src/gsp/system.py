"""Problem and solver-run containers shared by all solvers."""

from __future__ import annotations

import math
import numbers
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from sys import float_info

import numpy as np

from .errors import (DimensionError, NonFiniteError, NotSpdError, NotSpsdError, WrongSolverError,
                     ZeroRhsError)
from .linops import FactorizedOperator, SparseMatrix, as_sparse, factorize, spd_inner

CRITERION_RESIDUAL = "relative-residual"
CRITERION_ERROR = "error-estimate"
CRITERION_BOTH = "both"

BREAKDOWN_TOL = 1e-14  # relative threshold at or below which an alpha or a beta ends a run


_KINDS = {bool: (bool, "true or false"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"), str: (str, "a string"),
          dict: (dict, "a JSON object"), list: (list, "a JSON array")}


def _checked(name, value, kind):
    if kind is tuple:
        try:
            lo, hi = value
        except (TypeError, ValueError):
            raise TypeError(f"'{name}' must be a pair of numbers, got {value!r}") from None
        return _checked(name, lo, float), _checked(name, hi, float)
    base, what = _KINDS[kind]
    if not isinstance(value, base) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"'{name}' must be {what}, got {value!r}")
    if kind is float and not abs(value) <= float_info.max:  # inf, NaN, 10**400
        raise ValueError(f"'{name}' must be finite, got {value!r}")
    return kind(value)


def check_fields(obj, **kinds):
    """Type-check fields of a dataclass and store them normalized, before any range check.

    kinds maps a field name to int (a count: any Integral but bool, np.int64
    too, stored as int), float (a finite real: any Real but bool, stored as
    float), bool (a flag), tuple (a pair of finite reals, stored as a tuple),
    or str, dict or list (a JSON string, object or array). A wrong type
    raises TypeError, a non-finite real ValueError; both messages name the
    field and the value.
    """
    for name, kind in kinds.items():
        object.__setattr__(obj, name, _checked(name, getattr(obj, name), kind))


@dataclass(frozen=True)
class SaddleSystem:
    """Immutable instance of the block system K [u; p] = [0; b], K = [[M, A], [A^T, -C]].

    M is stored once, as its factorization: Mmat (the sparse matrix, for
    residual checks, the full-system baselines and oracles, and file output)
    is the matrix the factor was built from, and symmetric says whether
    factorize read M as symmetric (M.spd). Neither can
    disagree with M. The Golub-Kahan loop only solves with M; matvec forms
    the full product K z.
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
        """M.spd: factorize reads only a nonsymmetric M as not SPD."""
        return self.M.spd

    def matvec(self, z):
        """K z for z = [x; y]."""
        x, y = z[:self.m], z[self.m:]
        return np.concatenate([self.Mmat.matvec(x) + self.A.matvec(y),
                               self.A.rmatvec(x) - self.C.matvec(y)])

    @classmethod
    def from_matrices(cls, Mmat, A, C, b):
        """Build a system from raw blocks, factorizing M (factorize reads the kind off M)."""
        return cls(factorize(Mmat), as_sparse(A), as_sparse(C), b)


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver configuration.

    criterion selects the stopping rule: 'relative-residual' monitors
    (beta_{k+1}/beta_1)|zeta_k| (or the chi analogue), 'error-estimate' the
    delayed energy-error estimate with window error_delay, 'both' stops on
    whichever fires first. keep_basis retains what a rerun cannot give back,
    the right basis and nsCRAIG's Hessenberg matrix; earlier iterates come
    from gsp.nscraig.replay, the same run capped at each step count. A fully
    orthogonalized run is a solver, not a field: nsCRAIG, on a symmetric M too.
    Every field is type-checked on construction (check_fields), then range-checked.
    """

    tolerance: float = 1e-6
    max_iterations: int = 3000
    criterion: str = CRITERION_RESIDUAL
    error_delay: int = 5
    keep_basis: bool = False

    def __post_init__(self):
        check_fields(self, tolerance=float, max_iterations=int, criterion=str, error_delay=int,
                     keep_basis=bool)
        if self.tolerance <= 0.0:
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

    def stop(self, k, res_rel, exact, err_est=None):
        """(termination, fired rule) if step k ends the run, else None: every solver's ladder.

        In order: a non-finite res_rel or err_est raises NonFiniteError; exact
        (the loop's own exact-termination test) ends the run with no rule; the
        relative residual (unless the criterion is 'error-estimate'), then
        err_est, when the loop computed one, converge below the tolerance;
        step max_iterations ends the run with no rule.
        """
        if not math.isfinite(res_rel):
            raise NonFiniteError(f"res_rel is {res_rel} at iteration {k}")
        if err_est is not None and not math.isfinite(err_est):
            raise NonFiniteError(f"err_est is {err_est} at iteration {k}")
        if exact:
            return "exact-termination", None
        if self.criterion != CRITERION_ERROR and res_rel < self.tolerance:
            return "converged", CRITERION_RESIDUAL
        if err_est is not None and err_est < self.tolerance:
            return "converged", CRITERION_ERROR
        if k >= self.max_iterations:
            return "max-iterations", None
        return None


@dataclass(frozen=True)
class SolverRule:
    """A solver's domain: whether it needs a symmetric M, has an error estimate, multiplies by N."""

    needs_symmetric: bool
    error_estimate: bool
    needs_n_product: bool


# One entry per solver name gsp run accepts; solver_inputs enforces it.
SOLVER_RULES = {
    "craig": SolverRule(needs_symmetric=True, error_estimate=True, needs_n_product=False),
    "nscraig": SolverRule(needs_symmetric=False, error_estimate=True, needs_n_product=True),
    "scr-cg": SolverRule(needs_symmetric=True, error_estimate=False, needs_n_product=False),
    "scr-fom": SolverRule(needs_symmetric=False, error_estimate=False, needs_n_product=True),
    "pminres": SolverRule(needs_symmetric=True, error_estimate=False, needs_n_product=False),
    "pgmres": SolverRule(needs_symmetric=False, error_estimate=False, needs_n_product=False),
}


def check_n(N, n, product):
    """The N protocol of gsp.linops, shared by the solvers and the gsp.gkb oracle.

    WrongSolverError naming the first member N lacks of dimension, spd, solve
    and, if the caller multiplies by N (product), apply. NotSpdError unless
    N.spd, DimensionError if N is not n x n.
    """
    for member in ("dimension", "spd", "solve") + (("apply",) if product else ()):
        if not hasattr(N, member):
            raise WrongSolverError(f"N has no {member}")
    if not N.spd:
        raise NotSpdError("N must be symmetric positive definite")
    if N.dimension != n:
        raise DimensionError(f"N is {N.dimension} x {N.dimension}, expected n = {n}")


def solver_inputs(name, sys, N, cfg):
    """(N, cfg) for solver name on sys, defaulted, or the refusal SOLVER_RULES names.

    N defaults to the identity and cfg to SolverConfig(). WrongSolverError if
    the solver needs a symmetric M and sys's is not, or if cfg's criterion is
    'error-estimate' and the solver has no estimate (under 'both' it stops on
    the relative residual); check_n's refusal of N; ZeroRhsError if b is zero.
    """
    rule = SOLVER_RULES[name]
    cfg = SolverConfig() if cfg is None else cfg
    N = FactorizedOperator.identity(sys.n) if N is None else N
    if rule.needs_symmetric and not sys.symmetric:
        raise WrongSolverError(f"{name} needs a symmetric M; use nscraig")
    if cfg.criterion == CRITERION_ERROR and not rule.error_estimate:
        raise WrongSolverError(f"{name} has no error estimate; use criterion "
                               f"'{CRITERION_RESIDUAL}' or '{CRITERION_BOTH}'")
    check_n(N, sys.n, rule.needs_n_product)
    if not np.any(sys.b):
        raise ZeroRhsError("b must be nonzero")
    return N, cfg


def rhs_norm(r, z, what="N"):
    """sqrt(r . z), z the preconditioned r: a solver's initial residual norm.

    spd_inner reads r . z, refusing a what that is not SPD. ZeroRhsError if
    the norm is 0, as for a nonzero b whose norm underflows; a NaN passes through.
    """
    norm = float(np.sqrt(spd_inner(r, z, what)))
    if norm == 0.0:
        raise ZeroRhsError("the norm of b underflows to 0")
    return norm


def grown(a, shape, order="C"):
    """a itself if it spans shape; else a in the leading corner of a zero array of that order.

    Every axis of a shorter than shape's grows to twice its length, or to
    shape's if that is more, so an array that a solver loop grows by one step
    at a time is copied O(log k) times and is sized by the steps taken.
    """
    if all(map(operator.ge, a.shape, shape)):  # one call a step: kept cheap
        return a
    new = np.zeros([max(2 * have, want) if have < want else have
                    for have, want in zip(a.shape, shape)], order=order)
    new[tuple(map(slice, a.shape))] = a
    return new


def mgs_step(w, vectors, weights, column):
    """w after one modified Gram-Schmidt pass against vectors; column[i] = weights[i] . w_i."""
    for i, (q, wq) in enumerate(zip(vectors, weights)):
        c = column[i] = float(wq @ w)  # w_i: w less its components along vectors[:i]
        w = w - c * q
    return w


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


HISTORY_FIELDS = tuple(f.name for f in fields(ConvergenceRecord))[1:]  # all but k


class History(Sequence):
    """The ConvergenceRecords of one solve, stored as one float64 row per step.

    Row i holds the HISTORY_FIELDS of step k = i + 1 in one array('d'), 48 B
    a step where a ConvergenceRecord object costs about 220 B. A field the
    solver left None is stored as NaN and reads back as None; a returned
    solve holds no other NaN (cfg.stop refuses a NaN res_rel or err_est, and
    the Golub-Kahan loop a NaN alpha or beta). An index, a slice or iteration
    builds the records on read, so changing one changes nothing stored.
    """

    __slots__ = ("_data",)
    _WIDTH = len(HISTORY_FIELDS)

    def __init__(self, records=()):
        self._data = array("d")
        for rec in records:
            self.append(rec)

    def append(self, rec):
        """Store rec, which must be step len(self) + 1."""
        if rec.k != len(self) + 1:
            raise ValueError(f"step {rec.k} recorded after step {len(self)}")
        self._data.extend([math.nan if (x := getattr(rec, name)) is None else x
                           for name in HISTORY_FIELDS])

    def __len__(self):
        return len(self._data) // self._WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"step index {index} out of range for {size} steps")
        row = self._data[self._WIDTH * i: self._WIDTH * (i + 1)]
        return ConvergenceRecord(i + 1, *(None if math.isnan(x) else x for x in row))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self):
        return f"History({len(self)} steps)"

    def column(self, name):
        """One HISTORY_FIELDS field of every step, as a new contiguous float64 array."""
        j = HISTORY_FIELDS.index(name)
        return np.frombuffer(self._data[j::self._WIDTH])

    def values(self, name):
        """column(name) as a list of Python floats, None where the solver recorded none."""
        return [None if math.isnan(x) else x for x in self.column(name).tolist()]


@dataclass
class SolveResult:
    """Final iterates and per-iteration history of one solver run.

    The bidiagonalization scalars live in the history only; alphas, betas and
    scalars read its columns back. beta1 is the N^{-1}-norm of b (baselines
    store their own initial residual norm there). The right basis Q (k x n,
    rows q_1..q_k) and nsCRAIG's Hessenberg H (k x k, H_k) are kept only
    under keep_basis, so a result without them is O(k + m + n) in size.
    """

    u: np.ndarray
    p: np.ndarray
    termination: str  # converged | max-iterations | breakdown | exact-termination
    history: History = field(default_factory=History)
    fired_criterion: str | None = None
    beta1: float | None = None
    H: np.ndarray | None = None
    Q: np.ndarray | None = None

    @property
    def iterations(self):
        return len(self.history)

    @property
    def alphas(self):
        """alpha_1 .. alpha_k."""
        return self.history.values("alpha")

    @property
    def betas(self):
        """beta_1 .. beta_{k+1}."""
        return [self.beta1] + self.history.values("beta_next")

    @property
    def scalars(self):
        """zeta_1 .. zeta_k for CRAIG, chi_1 .. chi_k for nsCRAIG."""
        return self.history.values("scalar")

    @property
    def converged(self):
        return self.termination in ("converged", "exact-termination")

    def final_vector(self):
        return np.concatenate([self.u, self.p])
