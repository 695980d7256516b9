"""Problem generation and right-hand-side compression.

Random instances honor the block hypotheses by construction (leading block
positive definite, full-column-rank coupling block, SPSD stabilization); the
Stokes/Oseen channel generator is a staggered-grid finite-difference analogue
of stabilized mixed discretizations, with a manufactured Poiseuille solution
wired through the discrete operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baselines import SchurOperator
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


def gen_stokes_channel(spec):
    """Return just the SaddleSystem of the channel analogue."""
    return gen_stokes_channel_detailed(spec).system


def _five_point(ids, diag, west, east, south, north):
    """COO triplets of a 5-point stencil on the 2-D index grid ids[i, j].

    Row ids[i, j] holds diag and couples to ids[i-1, j] (west), ids[i+1, j]
    (east), ids[i, j-1] (south) and ids[i, j+1] (north); neighbours outside
    the grid are skipped. Each coefficient is a scalar or an array over the
    rows that have that neighbour.
    """
    pairs = ((ids, ids, diag), (ids[1:], ids[:-1], west), (ids[:-1], ids[1:], east),
             (ids[:, 1:], ids[:, :-1], south), (ids[:, :-1], ids[:, 1:], north))
    rows, cols, vals = zip(*[(r.ravel(), c.ravel(), np.broadcast_to(v, r.shape).ravel())
                             for r, c, v in pairs])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def gen_stokes_channel_detailed(spec):
    """Assemble the MAC discretization and the manufactured Poiseuille data.

    m = (nx-1) ny + nx (ny-1) interior velocity faces; one pressure cell is
    pinned, n = nx ny - 1. With oseen_wind set the momentum block gains a
    first-order upwind convection term and becomes NSPD. Both winds blow in +x
    and are nonnegative on every face (4y(1-y) with 0 < y < 1, or 1), so the
    upwind neighbour is always the one at i-1.
    """
    nx, ny, nu = spec.nx, spec.ny, spec.viscosity
    hx = spec.length / nx
    hy = 1.0 / ny
    n_u = (nx - 1) * ny
    n_v = nx * (ny - 1)
    m = n_u + n_v
    n = nx * ny - 1

    # Index grids: u face (i, j) sits at x = i hx (i >= 1), v face (i, j) at
    # y = j hy (j >= 1); cell (i, j) has pressure index p_ids[i, j], -1 for the
    # pinned cell. int32 is the CSR index type scipy picks for these sizes.
    u_ids = np.arange(n_u, dtype=np.int32).reshape(nx - 1, ny)
    v_ids = n_u + np.arange(n_v, dtype=np.int32).reshape(nx, ny - 1)
    p_ids = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny) - 1
    y_u = (np.arange(ny) + 0.5) * hy
    profile = 4.0 * y_u * (1.0 - y_u)

    def momentum(ids, y, wall_x, wall_y):
        """Viscous rows of one face family plus the upwind wind; wall_* add ghost terms."""
        if spec.oseen_wind is None:
            wind = np.zeros(ids.shape)
        elif spec.oseen_wind == "constant":
            wind = np.full(ids.shape, 1.0 / hx)
        else:
            wind = np.broadcast_to(4.0 * y * (1.0 - y) / hx, ids.shape)
        diag = np.full(ids.shape, 2.0 * nu / hx**2 + 2.0 * nu / hy**2)
        if wall_x:
            diag[0] += nu / hx**2
            diag[-1] += nu / hx**2
        if wall_y:
            diag[:, 0] += nu / hy**2
            diag[:, -1] += nu / hy**2
        return _five_point(ids, diag + wind, -(nu / hx**2) - wind[1:], -(nu / hx**2),
                           -(nu / hy**2), -(nu / hy**2))

    u_rows = momentum(u_ids, y_u, False, True)
    v_rows = momentum(v_ids, np.arange(1, ny) * hy, True, False)
    Mmat = SparseMatrix.from_coo(m, m, *(np.concatenate(t) for t in zip(u_rows, v_rows)))

    rows = np.concatenate([u_ids, u_ids, v_ids, v_ids], axis=None)
    cols = np.concatenate([p_ids[1:], p_ids[:-1], p_ids[:, 1:], p_ids[:, :-1]], axis=None)
    vals = np.repeat([1.0 / hx, -(1.0 / hx), 1.0 / hy, -(1.0 / hy)], [n_u, n_u, n_v, n_v])
    keep = cols >= 0
    A = SparseMatrix.from_coo(m, n, rows[keep], cols[keep], vals[keep])

    if spec.gamma > 0.0:
        tx = spec.gamma * hx * hy * (1.0 / hx**2)
        ty = spec.gamma * hx * hy * (1.0 / hy**2)
        diag = np.zeros((nx, ny))
        diag[:-1] += tx
        diag[1:] += tx
        diag[:, :-1] += ty
        diag[:, 1:] += ty
        rows, cols, vals = _five_point(p_ids, diag, -tx, -tx, -ty, -ty)
        keep = (rows >= 0) & (cols >= 0)
        C = SparseMatrix.from_coo(n, n, rows[keep], cols[keep], vals[keep])
    else:
        C = SparseMatrix.zeros(n, n)

    vel = np.concatenate([np.tile(profile, nx - 1), np.zeros(n_v)])
    p_full = np.repeat(-8.0 * nu * (np.arange(nx) + 0.5) * hx, ny)
    p_star = (p_full - p_full[0])[1:]

    M = factorize("cholesky-spd" if spec.oseen_wind is None else "lu-general", Mmat)
    w0 = M.solve(Mmat.matvec(vel) + A.matvec(p_star))
    b = A.rmatvec(vel) - C.matvec(p_star) - A.rmatvec(w0)

    system = SaddleSystem(M, A, C, b)
    mass = hx * hy * np.ones(n)
    if not system.symmetric:
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
    return replace(sys, b=b), w0


def recover_w(u, w0):
    return np.asarray(u, dtype=float) + np.asarray(w0, dtype=float)


def schur_condition_number(sys):
    """Dense 2-norm condition number of S = A^T M^{-1} A + C (diagnostic)."""
    return float(np.linalg.cond(SchurOperator(sys).dense()))
