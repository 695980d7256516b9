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

from .errors import NotSpdError, NotSpsdError, RankRepairError
from .linops import SparseMatrix, SpdPreconditioner, factorize
from .system import SaddleSystem


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for a random generalized saddle point instance."""

    m: int
    n: int
    density: float = 1.0
    spectrum: tuple[float, float] = (1.0, 2.0)
    skew_strength: float = 0.0
    c_rank: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= self.m:
            raise ValueError("need 1 <= n <= m")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        lo, hi = self.spectrum
        if not (0.0 < lo <= hi):
            raise ValueError("spectrum bounds must satisfy 0 < lo <= hi")
        if not 0 <= self.c_rank <= self.n:
            raise ValueError("c_rank must be in [0, n]")


def gen_random(spec):
    """Deterministic random instance: same seed, bit-identical system."""
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    lo, hi = spec.spectrum

    Qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(lo, hi, m)
    Md = (Qm * lam) @ Qm.T
    Md = (Md + Md.T) / 2.0
    if spec.skew_strength != 0.0:
        mask = rng.random((m, m)) < spec.density
        K = rng.standard_normal((m, m)) * mask
        Md = Md + spec.skew_strength * (K - K.T)

    per_col = int(np.ceil(spec.density * m))
    if per_col < 1:
        raise RankRepairError("density too low to give every column an entry")
    Ad = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=per_col, replace=False)
        Ad[rows, j] = rng.standard_normal(per_col)
    U, sv, Vt = np.linalg.svd(Ad, full_matrices=False)
    if sv[0] == 0.0:
        raise RankRepairError("coupling block is identically zero")
    deficient = sv < 1e-10 * sv[0]
    if np.any(deficient):
        sv = np.where(deficient, 1e-2 * sv[0], sv)
        Ad = (U * sv) @ Vt
        if np.linalg.matrix_rank(Ad) < n:
            raise RankRepairError("rank repair failed at this sparsity")

    if spec.c_rank == 0:
        Cd = np.zeros((n, n))
    else:
        Qc, _ = np.linalg.qr(rng.standard_normal((n, spec.c_rank)))
        lam_c = rng.uniform(1.0, 2.0, spec.c_rank)
        Cd = (Qc * lam_c) @ Qc.T
        Cd = (Cd + Cd.T) / 2.0

    b = rng.standard_normal(n)
    return SaddleSystem.from_matrices(Md, Ad, Cd, b, symmetric=(spec.skew_strength == 0.0))


def validate_system(sys):
    """Check the block hypotheses explicitly; returns the measured margins."""
    md = sys.Mmat.to_dense()
    sym_part = (md + md.T) / 2.0
    min_eig_m = float(np.linalg.eigvalsh(sym_part).min())
    if min_eig_m <= 0.0:
        raise NotSpdError(f"symmetric part of M has min eigenvalue {min_eig_m}")
    sv = np.linalg.svd(sys.A.to_dense(), compute_uv=False)
    if sv.min() <= 1e-12 * sv.max():
        raise RankRepairError("A is numerically rank deficient")
    eig_c = np.linalg.eigvalsh(sys.C.to_dense())
    if eig_c.min() < -1e-10 * max(eig_c.max(), 1.0):
        raise NotSpsdError(f"C has negative eigenvalue {eig_c.min()}")
    return {"min_eig_m": min_eig_m, "sigma_min_a": float(sv.min()),
            "min_eig_c": float(eig_c.min())}


@dataclass(frozen=True)
class StokesSpec:
    """Staggered-grid channel on [0, L] x [0, 1] with nx x ny pressure cells."""

    nx: int
    ny: int
    length: float = 1.0
    viscosity: float = 1.0
    gamma: float = 0.25
    oseen_wind: str | None = None  # None | 'poiseuille' | 'constant'

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need nx, ny >= 2")
        if self.viscosity <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if self.oseen_wind not in (None, "poiseuille", "constant"):
            raise ValueError(f"unknown wind selector '{self.oseen_wind}'")


@dataclass(frozen=True)
class StokesProblem:
    """Generated system plus its oracle data."""

    system: SaddleSystem
    preconditioner: SpdPreconditioner
    w0: np.ndarray            # velocity shift absorbed by the RHS compression
    velocity: np.ndarray      # manufactured interior velocity (original problem)
    pressure: np.ndarray      # manufactured pressure, pinned dof removed
    hx: float
    hy: float


def _wind_at(selector, x, y):
    if selector == "poiseuille":
        return 4.0 * y * (1.0 - y), 0.0
    return 1.0, 0.0  # constant


def gen_stokes_channel(spec):
    """Return just the SaddleSystem of the channel analogue."""
    return gen_stokes_channel_detailed(spec).system


def gen_stokes_channel_detailed(spec):
    """Assemble the MAC discretization and the manufactured Poiseuille data.

    m = (nx-1) ny + nx (ny-1) interior velocity faces; one pressure cell is
    pinned, n = nx ny - 1. With oseen_wind set the momentum block gains a
    first-order upwind convection term and becomes NSPD.
    """
    nx, ny, nu = spec.nx, spec.ny, spec.viscosity
    hx = spec.length / nx
    hy = 1.0 / ny
    n_u = (nx - 1) * ny
    n_v = nx * (ny - 1)
    m = n_u + n_v
    n = nx * ny - 1

    def id_u(i, j):
        return (i - 1) * ny + j

    def id_v(i, j):
        return n_u + i * (ny - 1) + (j - 1)

    def id_p(i, j):
        return i * ny + j  # full pressure index; 0 is the pinned cell

    Md = np.zeros((m, m))
    for i in range(1, nx):
        for j in range(ny):
            row = id_u(i, j)
            Md[row, row] += 2.0 * nu / hx**2 + 2.0 * nu / hy**2
            if i - 1 >= 1:
                Md[row, id_u(i - 1, j)] -= nu / hx**2
            if i + 1 <= nx - 1:
                Md[row, id_u(i + 1, j)] -= nu / hx**2
            if j - 1 >= 0:
                Md[row, id_u(i, j - 1)] -= nu / hy**2
            else:
                Md[row, row] += nu / hy**2  # wall ghost at y = 0
            if j + 1 <= ny - 1:
                Md[row, id_u(i, j + 1)] -= nu / hy**2
            else:
                Md[row, row] += nu / hy**2  # wall ghost at y = 1
    for i in range(nx):
        for j in range(1, ny):
            row = id_v(i, j)
            Md[row, row] += 2.0 * nu / hx**2 + 2.0 * nu / hy**2
            if i - 1 >= 0:
                Md[row, id_v(i - 1, j)] -= nu / hx**2
            else:
                Md[row, row] += nu / hx**2
            if i + 1 <= nx - 1:
                Md[row, id_v(i + 1, j)] -= nu / hx**2
            else:
                Md[row, row] += nu / hx**2
            if j - 1 >= 1:
                Md[row, id_v(i, j - 1)] -= nu / hy**2
            if j + 1 <= ny - 1:
                Md[row, id_v(i, j + 1)] -= nu / hy**2

    if spec.oseen_wind is not None:
        for i in range(1, nx):
            for j in range(ny):
                row = id_u(i, j)
                wx, wy = _wind_at(spec.oseen_wind, i * hx, (j + 0.5) * hy)
                if wx > 0.0:
                    Md[row, row] += wx / hx
                    if i - 1 >= 1:
                        Md[row, id_u(i - 1, j)] -= wx / hx
                elif wx < 0.0:
                    Md[row, row] -= wx / hx
                    if i + 1 <= nx - 1:
                        Md[row, id_u(i + 1, j)] += wx / hx
                if wy > 0.0:
                    Md[row, row] += wy / hy
                    if j - 1 >= 0:
                        Md[row, id_u(i, j - 1)] -= wy / hy
                elif wy < 0.0:
                    Md[row, row] -= wy / hy
                    if j + 1 <= ny - 1:
                        Md[row, id_u(i, j + 1)] += wy / hy
        for i in range(nx):
            for j in range(1, ny):
                row = id_v(i, j)
                wx, wy = _wind_at(spec.oseen_wind, (i + 0.5) * hx, j * hy)
                if wx > 0.0:
                    Md[row, row] += wx / hx
                    if i - 1 >= 0:
                        Md[row, id_v(i - 1, j)] -= wx / hx
                elif wx < 0.0:
                    Md[row, row] -= wx / hx
                    if i + 1 <= nx - 1:
                        Md[row, id_v(i + 1, j)] += wx / hx
                if wy > 0.0:
                    Md[row, row] += wy / hy
                    if j - 1 >= 1:
                        Md[row, id_v(i, j - 1)] -= wy / hy
                elif wy < 0.0:
                    Md[row, row] -= wy / hy
                    if j + 1 <= ny - 1:
                        Md[row, id_v(i, j + 1)] += wy / hy

    Ad = np.zeros((m, n + 1))  # full pressure columns; pinned one dropped below
    for i in range(1, nx):
        for j in range(ny):
            row = id_u(i, j)
            Ad[row, id_p(i, j)] += 1.0 / hx
            Ad[row, id_p(i - 1, j)] -= 1.0 / hx
    for i in range(nx):
        for j in range(1, ny):
            row = id_v(i, j)
            Ad[row, id_p(i, j)] += 1.0 / hy
            Ad[row, id_p(i, j - 1)] -= 1.0 / hy
    Ad = Ad[:, 1:]

    Cd = np.zeros((n + 1, n + 1))
    if spec.gamma > 0.0:
        for i in range(nx):
            for j in range(ny):
                c = id_p(i, j)
                for di, dj, wgt in ((1, 0, 1.0 / hx**2), (-1, 0, 1.0 / hx**2),
                                    (0, 1, 1.0 / hy**2), (0, -1, 1.0 / hy**2)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < nx and 0 <= jj < ny:
                        Cd[c, c] += spec.gamma * hx * hy * wgt
                        Cd[c, id_p(ii, jj)] -= spec.gamma * hx * hy * wgt
    Cd = Cd[1:, 1:]

    vel = np.zeros(m)
    for i in range(1, nx):
        for j in range(ny):
            y = (j + 0.5) * hy
            vel[id_u(i, j)] = 4.0 * y * (1.0 - y)
    p_full = np.array([-8.0 * nu * (i + 0.5) * hx for i in range(nx) for j in range(ny)])
    p_star = p_full - p_full[0]
    p_star = p_star[1:]

    symmetric = spec.oseen_wind is None
    Mmat = SparseMatrix.from_dense(Md)
    M = factorize("cholesky-spd" if symmetric else "lu-general", Mmat)
    b1 = Md @ vel + Ad @ p_star
    b2 = Ad.T @ vel - Cd @ p_star
    w0 = M.solve(b1)
    b = b2 - Ad.T @ w0

    system = SaddleSystem(M, Mmat, SparseMatrix.from_dense(Ad), SparseMatrix.from_dense(Cd),
                          b, symmetric)
    mass = hx * hy * np.ones(n)
    if not symmetric:
        mass = mass / nu
    precond = SpdPreconditioner.from_diagonal(mass)
    return StokesProblem(system, precond, w0, vel, p_star, hx, hy)


def compress_rhs(Mmat, A, C, b1, b2, symmetric=None):
    """Fold a general right-hand side (b1; b2) into the canonical (0; b) form.

    Returns the compressed system and the shift w0 = M^{-1} b1; the original
    upper solution is recovered as recover_w(u, w0).
    """
    sys = SaddleSystem.from_matrices(Mmat, A, C, np.zeros(np.shape(b2)), symmetric)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    w0 = sys.M.solve(b1)
    b = b2 - sys.A.rmatvec(w0)
    return SaddleSystem(sys.M, sys.Mmat, sys.A, sys.C, b, sys.symmetric), w0


def recover_w(u, w0):
    return np.asarray(u, dtype=float) + np.asarray(w0, dtype=float)


def schur_condition_number(sys):
    """Dense 2-norm condition number of S = A^T M^{-1} A + C (diagnostic)."""
    Ad = sys.A.to_dense()
    S = Ad.T @ np.column_stack([sys.M.solve(Ad[:, j]) for j in range(sys.n)])
    S = S + sys.C.to_dense()
    return float(np.linalg.cond(S))
