"""Problem generation and right-hand-side compression.

Random instances honor the block hypotheses by construction (leading block
positive definite, full-column-rank coupling block, SPSD stabilization); the
Stokes/Oseen channel generator is a staggered-grid finite-difference analogue
of stabilized mixed discretizations, with a manufactured Poiseuille solution
wired through the discrete operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotSpdError, RankRepairError
from .linops import (DENSE_EIG_LIMIT, DENSE_FACTOR_LIMIT, FactorizedOperator, SparseMatrix,
                     as_sparse, factorize, spsd_factor)
from .system import SaddleSystem, check_fields


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for a random generalized saddle point instance, checked on construction.

    M is stored fully, so m is capped at DENSE_FACTOR_LIMIT before anything is allocated.
    """

    m: int
    n: int
    density: float = 1.0
    spectrum: tuple[float, float] = (1.0, 2.0)
    skew_strength: float = 0.0
    c_rank: int = 0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, m=int, n=int, density=float, spectrum=tuple, skew_strength=float,
                     c_rank=int, seed=int)
        if not 1 <= self.n <= self.m:
            raise ValueError("need 1 <= n <= m")
        if self.m > DENSE_FACTOR_LIMIT:
            raise ValueError(f"m must be at most {DENSE_FACTOR_LIMIT} (M is stored dense), "
                             f"got {self.m}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        lo, hi = self.spectrum
        if not (0.0 < lo <= hi):
            raise ValueError("spectrum bounds must satisfy 0 < lo <= hi")
        if not 0 <= self.c_rank <= self.n:
            raise ValueError("c_rank must be in [0, n]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def gen_random(spec):
    """Deterministic random instance: same seed, bit-identical system.

    M and C (and a rank-repaired A) go through LAPACK and BLAS, so their bits
    hold for a fixed BLAS build and thread count: one thread and two give
    different M at m = 600.

    Every m x m temporary is dropped as soon as it is used and each
    elementwise step runs in place, with the bits of the out-of-place
    expression; M and A go to CSR storage once final, so no dense copy of
    either outlives its construction.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    lo, hi = spec.spectrum

    Qm = np.linalg.qr(rng.standard_normal((m, m)))[0]
    lam = rng.uniform(lo, hi, m)
    Md = (Qm * lam) @ Qm.T
    del Qm
    Md = Md + Md.T  # (Md + Md^T) / 2 with one m x m temporary
    Md /= 2.0
    if spec.skew_strength != 0.0:
        mask = rng.random((m, m)) < spec.density
        K = rng.standard_normal((m, m))
        K *= mask
        del mask
        K = K - K.T
        K *= spec.skew_strength
        Md += K
        del K
    Mmat = SparseMatrix.from_dense(Md)
    del Md

    per_col = int(np.ceil(spec.density * m))  # >= 1: density is in (0, 1] and m >= 1
    Ad = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=per_col, replace=False)
        Ad[rows, j] = rng.standard_normal(per_col)
    sv = np.linalg.svd(Ad, compute_uv=False)
    if sv[0] == 0.0:
        raise RankRepairError("coupling block is identically zero")
    if np.any(sv < 1e-10 * sv[0]):
        U, sv, Vt = np.linalg.svd(Ad, full_matrices=False)  # singular vectors only to repair
        deficient = sv < 1e-10 * sv[0]
        sv = np.where(deficient, 1e-2 * sv[0], sv)
        Ad = (U * sv) @ Vt
        if np.linalg.matrix_rank(Ad) < n:
            raise RankRepairError("rank repair failed at this sparsity")
    A = SparseMatrix.from_dense(Ad)
    del Ad

    if spec.c_rank == 0:
        Cd = np.zeros((n, n))
    else:
        Qc, _ = np.linalg.qr(rng.standard_normal((n, spec.c_rank)))
        lam_c = rng.uniform(1.0, 2.0, spec.c_rank)
        Cd = (Qc * lam_c) @ Qc.T
        Cd = (Cd + Cd.T) / 2.0

    b = rng.standard_normal(n)
    return SaddleSystem.from_matrices(Mmat, A, Cd, b)


def validate_system(sys):
    """Check the block hypotheses explicitly on dense copies; returns nothing, raises on a failure.

    NotSpdError unless M's symmetric part is positive definite, RankRepairError
    unless A has full column rank, and spsd_factor's NotSpsdError unless C is
    SPSD by its rule, the one augment applies. m is capped at DENSE_EIG_LIMIT.
    """
    if sys.m > DENSE_EIG_LIMIT:
        raise DimensionError(f"validate_system densifies M: m is capped at {DENSE_EIG_LIMIT}")
    md = sys.Mmat.to_dense()
    sym_part = (md + md.T) / 2.0
    min_eig_m = float(np.linalg.eigvalsh(sym_part).min())
    if min_eig_m <= 0.0:
        raise NotSpdError(f"symmetric part of M has min eigenvalue {min_eig_m}")
    sv = np.linalg.svd(sys.A.to_dense(), compute_uv=False)
    if sv.min() <= 1e-12 * sv.max():
        raise RankRepairError("A is numerically rank deficient")
    spsd_factor(sys.C)


# The channel's wind profiles, functions of y; the manufactured velocity is
# the Poiseuille one.
_WIND_PROFILES = {None: np.zeros_like, "poiseuille": lambda y: 4.0 * y * (1.0 - y),
                  "constant": np.ones_like}


@dataclass(frozen=True)
class StokesSpec:
    """MAC channel [0, L] x [0, 1] with nx x ny pressure cells, checked on construction."""

    nx: int
    ny: int
    length: float = 1.0
    viscosity: float = 1.0
    gamma: float = 0.25
    oseen_wind: str | None = None  # a key of _WIND_PROFILES

    def __post_init__(self):
        check_fields(self, nx=int, ny=int, length=float, viscosity=float, gamma=float)
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need nx, ny >= 2")
        size = (self.nx - 1) * self.ny + self.nx * (self.ny - 1) + self.nx * self.ny - 1
        if size > np.iinfo(np.int32).max:
            raise ValueError(f"grid nx={self.nx}, ny={self.ny} has m + n = {size} unknowns, "
                             "past the generator's int32 indices")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if self.oseen_wind not in tuple(_WIND_PROFILES):
            raise ValueError(f"unknown wind selector '{self.oseen_wind}'")


@dataclass(frozen=True)
class StokesProblem:
    """Generated system plus its oracle data."""

    system: SaddleSystem
    preconditioner: FactorizedOperator
    w0: np.ndarray            # velocity shift absorbed by the RHS compression
    velocity: np.ndarray      # manufactured interior velocity (original problem)
    pressure: np.ndarray      # manufactured pressure, pinned dof removed


def _halves(a, axis):
    """Views of a without its first and without its last slice along axis."""
    lead = (slice(None),) * axis
    return a[lead + (slice(1, None),)], a[lead + (slice(None, -1),)]


def _stencil(ids, diag, links):
    """COO triplets of a (2d+1)-point stencil on the d-dimensional index grid ids.

    Row ids[k] holds diag and couples to its lower and upper neighbours along
    axis a with links[a] = (lower, upper), each a scalar or an array over the
    rows that have that neighbour; neighbours outside the grid are skipped.
    """
    pairs = [(ids, ids, diag)]
    for (head, tail), (lower, upper) in zip((_halves(ids, a) for a in range(ids.ndim)), links):
        pairs += [(head, tail, lower), (tail, head, upper)]
    return tuple(np.concatenate(t) for t in zip(*[
        (r.ravel(), c.ravel(), np.broadcast_to(v, r.shape).ravel()) for r, c, v in pairs]))


def gen_stokes_channel_detailed(spec):
    """Assemble the MAC discretization and the manufactured Poiseuille data.

    m = (nx-1) ny + nx (ny-1) interior faces and n = nx ny - 1 cells, cell 0
    pinned. An oseen_wind adds first-order upwind convection, making M NSPD;
    every wind blows in +x and is nonnegative, so the upwind neighbour is i-1.
    """
    nx, ny, nu = spec.nx, spec.ny, spec.viscosity
    h = hx, hy = spec.length / nx, 1.0 / ny
    link = [nu / s**2 for s in h]
    n_u, n_v = (nx - 1) * ny, nx * (ny - 1)
    m, n = n_u + n_v, nx * ny - 1

    # Index grids: u face (i, j) sits at x = i hx (i >= 1), v face (i, j) at
    # y = j hy (j >= 1), cell (i, j) is pressure p_ids[i, j]. int32 is the CSR
    # index type scipy picks for these sizes.
    u_ids = np.arange(n_u, dtype=np.int32).reshape(nx - 1, ny)
    v_ids = np.arange(n_u, m, dtype=np.int32).reshape(nx, ny - 1)
    p_ids = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny)
    y_u = (np.arange(ny) + 0.5) * hy

    def momentum(ids, normal, y):
        """Viscous rows of the face family normal to axis `normal`, plus the upwind wind."""
        wind = np.broadcast_to(_WIND_PROFILES[spec.oseen_wind](y) / hx, ids.shape)
        diag = np.full(ids.shape, sum(2.0 * nu / s**2 for s in h))
        for axis in [a for a in range(ids.ndim) if a != normal]:  # walls parallel to the normal
            np.moveaxis(diag, axis, 0)[[0, -1]] += link[axis]  # ghost terms, half a cell away
        links = [(-link[0] - wind[1:], -link[0])] + [(-k, -k) for k in link[1:]]  # upwind: i-1
        return _stencil(ids, diag + wind, links)

    triplets = (momentum(u_ids, 0, y_u), momentum(v_ids, 1, np.arange(1, ny) * hy))
    Mmat = SparseMatrix.from_coo(m, m, *map(np.concatenate, zip(*triplets)))
    A = SparseMatrix.from_coo(
        m, n + 1, np.concatenate([u_ids, u_ids, v_ids, v_ids], axis=None),
        np.concatenate([*_halves(p_ids, 0), *_halves(p_ids, 1)], axis=None),
        np.repeat([1.0 / hx, -(1.0 / hx), 1.0 / hy, -(1.0 / hy)], [n_u, n_u, n_v, n_v]))
    C = SparseMatrix.zeros(n + 1, n + 1)
    if spec.gamma > 0.0:
        t = [spec.gamma * hx * hy * (1.0 / s**2) for s in h]
        diag = np.zeros((nx, ny))
        for axis, ta in enumerate(t):
            for half in _halves(diag, axis):
                half += ta
        C = SparseMatrix.from_coo(n + 1, n + 1, *_stencil(p_ids, diag, [(-ta, -ta) for ta in t]))

    # Pin pressure cell 0: drop its column of A, its row and column of C and its value.
    A, C = SparseMatrix(A.csr[:, 1:]), SparseMatrix(C.csr[1:, 1:])
    p_full = np.repeat(-8.0 * nu * (np.arange(nx) + 0.5) * hx, ny)
    p_star = p_full[1:] - p_full[0]
    vel = np.concatenate([np.tile(_WIND_PROFILES["poiseuille"](y_u), nx - 1), np.zeros(n_v)])
    system, w0 = compress_rhs(Mmat, A, C, Mmat.matvec(vel) + A.matvec(p_star),
                              A.rmatvec(vel) - C.matvec(p_star))
    precond = factorize(SparseMatrix.from_coo(  # the pressure mass, over nu when M is NSPD
        n, n, np.arange(n), np.arange(n), np.full(n, hx * hy / (1.0 if system.M.spd else nu))))
    return StokesProblem(system, precond, w0, vel, p_star)


def compress_rhs(Mmat, A, C, b1, b2):
    """Fold a general right-hand side (b1; b2) into the canonical (0; b) form.

    Returns the compressed system and the shift w0 = M^{-1} b1; the original
    upper solution is recovered as recover_w(u, w0).
    """
    M, A = factorize(Mmat), as_sparse(A)
    w0 = M.solve(np.asarray(b1, dtype=float))
    return SaddleSystem(M, A, as_sparse(C), np.asarray(b2, dtype=float) - A.rmatvec(w0)), w0


def recover_w(u, w0):
    return np.asarray(u, dtype=float) + np.asarray(w0, dtype=float)
