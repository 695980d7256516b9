"""Acceptance suite: one test per criterion, each printing a PASS line.

Instances for the equivalence suites are built well-conditioned (orthogonal
factors with tight singular-value ranges) so the solvers converge in a few
dozen steps; trajectory-level agreement between mathematically equivalent
methods degrades with iteration count in floating point, and the stated
tolerances presume conditioning that keeps runs short.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import random_preconditioner, random_system
from gsp import (
    SaddleSystem,
    SolverConfig,
    SparseMatrix,
    StokesSpec,
    augment,
    compress_rhs,
    craig_residual_check,
    craig_solve,
    direct_solve,
    factorize,
    gen_stokes_channel_detailed,
    gkb_nonsymmetric,
    gkb_symmetric,
    nscraig_residual_check,
    nscraig_solve,
    pgmres_solve,
    pminres_solve,
    read_matrix_market,
    recover_w,
    replay,
    scr_cg_solve,
    scr_fom_solve,
    verify_decomposition,
    write_matrix_market,
)
from gsp.baselines import SchurOperator
from gsp.gkb import assemble_bidiagonal


def well_conditioned_instance(m, n, c_rank, seed, skew=0.0):
    """Random instance with tightly clustered spectra (kappa(S) of order 5)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    Md = (q * rng.uniform(1.0, 1.5, m)) @ q.T
    Md = (Md + Md.T) / 2
    if skew:
        K = rng.standard_normal((m, m)) / math.sqrt(m)
        Md = Md + skew * (K - K.T)
    qu, _ = np.linalg.qr(rng.standard_normal((m, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Ad = (qu * rng.uniform(1.0, 1.3, n)) @ qv.T
    if c_rank == 0:
        Cd = np.zeros((n, n))
    else:
        qc, _ = np.linalg.qr(rng.standard_normal((n, c_rank)))
        Cd = (qc * rng.uniform(1.0, 1.5, c_rank)) @ qc.T
        Cd = (Cd + Cd.T) / 2
    b = rng.standard_normal(n)
    return SaddleSystem.from_matrices(Md, Ad, Cd, b)


def suite_specs():
    for i in range(20):
        m = 50 if i % 2 == 0 else 200
        n = m // 2
        c_rank = (0, n // 2, n)[i % 3]
        yield m, n, c_rank, 1000 + i


@pytest.fixture(scope="module")
def suite1():
    """20 symmetric instances: craig and scr-cg runs replayed at every step count."""
    t0 = time.perf_counter()
    cfg = SolverConfig(tolerance=1e-6)
    runs = []
    for m, n, c_rank, seed in suite_specs():
        sys = well_conditioned_instance(m, n, c_rank, seed)
        runs.append((sys, replay(craig_solve, sys, None, cfg),
                     replay(scr_cg_solve, sys, None, cfg)))
    return {"runs": runs, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def suite2():
    """20 NSPD instances (skew 0.5): nscraig and scr-fom runs replayed at every step count."""
    t0 = time.perf_counter()
    cfg = SolverConfig(tolerance=1e-6)
    runs = []
    for m, n, c_rank, seed in suite_specs():
        sys = well_conditioned_instance(m, n, c_rank, 2000 + seed, skew=0.5)
        runs.append((sys, replay(nscraig_solve, sys, None, cfg),
                     replay(scr_fom_solve, sys, None, cfg)))
    return {"runs": runs, "seconds": time.perf_counter() - t0}


def max_iterate_gap(runs_a, runs_b):
    gap = 0.0
    for ra, rb in zip(runs_a, runs_b):
        gap = max(gap, np.linalg.norm(ra.p - rb.p) / max(np.linalg.norm(rb.p), 1e-300))
    return gap


def test_criterion_01_craig_equals_scr_cg(suite1):
    worst = 0.0
    for sys, rc, rg in suite1["runs"]:
        assert rc[-1].converged and rg[-1].converged
        worst = max(worst, max_iterate_gap(rc, rg))
    assert worst <= 1e-9
    assert suite1["seconds"] < 10.0
    print(f"\ncriterion 01 craig/scr-cg iterate equivalence: PASS "
          f"(max gap {worst:.2e}, {suite1['seconds']:.2f}s)")


def test_criterion_02_nscraig_equals_scr_fom(suite2):
    worst = 0.0
    for sys, rn, rf in suite2["runs"]:
        assert rn[-1].converged and rf[-1].converged
        worst = max(worst, max_iterate_gap(rn, rf))
    assert worst <= 1e-8
    assert suite2["seconds"] < 20.0
    print(f"\ncriterion 02 nscraig/scr-fom iterate equivalence: PASS "
          f"(max gap {worst:.2e}, {suite2['seconds']:.2f}s)")


def test_criterion_03_residual_recurrence_identity(suite1, suite2):
    worst_dual, worst_upper = 0.0, 0.0
    cfg = SolverConfig(tolerance=1e-6)
    for sys, _, _ in suite1["runs"]:
        rep = craig_residual_check(sys, None, craig_solve, cfg)
        worst_dual = max(worst_dual, max(rep.dual_defects))
        worst_upper = max(worst_upper, max(rep.upper_ratios))
    for sys, _, _ in suite2["runs"]:
        rep = nscraig_residual_check(sys, None, nscraig_solve, cfg)
        worst_dual = max(worst_dual, max(rep.dual_defects))
        worst_upper = max(worst_upper, max(rep.upper_ratios))
    assert worst_dual <= 1e-8   # |explicit - beta|scalar|| / beta_1
    assert worst_upper <= 1e-9  # ||M u + A p|| / (||A|| ||p||)
    print(f"\ncriterion 03 residual recurrences: PASS "
          f"(dual {worst_dual:.2e}, upper {worst_upper:.2e})")


def _energy_lhs(sys, u_star, p_star, u_k, p_k):
    du = u_star - u_k
    dp = p_star - p_k
    return float(du @ sys.Mmat.matvec(du) + dp @ sys.C.matvec(dp))


def test_criterion_04_energy_error_identity():
    worst = 0.0
    # symmetric: tail sums of zeta^2
    sys = random_system(48, 24, c_rank=12, seed=90, spectrum=(1.0, 1e4))
    cfg = SolverConfig(tolerance=1e-300, max_iterations=24, reorthogonalize=True)
    runs = replay(craig_solve, sys, None, cfg)
    res = runs[-1]
    assert res.iterations == 24
    u_star, p_star = direct_solve(sys)
    z = np.array(res.scalars)
    total = float(z @ z)
    for k in range(res.iterations):
        lhs = _energy_lhs(sys, u_star, p_star, runs[k].u, runs[k].p)
        rhs = float(z[k + 1:] @ z[k + 1:])
        worst = max(worst, abs(lhs - rhs) / total)
    assert worst <= 1e-7

    # nonsymmetric: tail sums of chi*zeta with zeta = L^{-T} chi
    sys_n = random_system(48, 24, skew=0.5, c_rank=12, seed=91, spectrum=(1.0, 1e3))
    cfg_n = SolverConfig(tolerance=1e-300, max_iterations=24, keep_basis=True,
                         reorthogonalize=True)
    runs_n = replay(nscraig_solve, sys_n, None, cfg_n)
    res_n = runs_n[-1]
    assert res_n.iterations == 24
    u_star, p_star = direct_solve(sys_n)
    k_full = len(res_n.alphas)
    B = assemble_bidiagonal(res_n.alphas, res_n.betas, k_full)
    H = res_n.H
    Lt = scipy.linalg.solve_triangular(B.T, H, lower=True)
    zeta = scipy.linalg.solve_triangular(Lt, np.array(res_n.scalars), lower=False)
    terms = np.array(res_n.scalars) * zeta
    total_n = float(terms.sum())
    worst_n = 0.0
    for k in range(res_n.iterations):
        lhs = _energy_lhs(sys_n, u_star, p_star, runs_n[k].u, runs_n[k].p)
        rhs = float(terms[k + 1:].sum())  # terms[i-1] holds chi_i * zeta_i
        worst_n = max(worst_n, abs(lhs - rhs) / abs(total_n))
    assert worst_n <= 1e-7
    print(f"\ncriterion 04 energy-error identity: PASS "
          f"(sym {worst:.2e}, nonsym {worst_n:.2e})")


def test_criterion_05_scalar_sequence_equivalence():
    worst = 0.0
    for i in range(10):
        m = (12, 24)[i % 2]
        n = m // 2
        c_rank = max(1, (1, n // 2, n)[i % 3])
        sys = random_system(m, n, c_rank=c_rank, seed=300 + i)
        N = random_preconditioner(n, seed=300 + i)
        gkb = gkb_symmetric(augment(sys), N, steps=n)
        res = craig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=n))
        worst = max(worst, _scalar_gap(gkb, res))
    for i in range(10):
        m = (12, 24)[i % 2]
        n = m // 2
        c_rank = max(1, (1, n // 2, n)[i % 3])
        sys = random_system(m, n, skew=0.5, c_rank=c_rank, seed=400 + i)
        N = random_preconditioner(n, seed=400 + i)
        gkb = gkb_nonsymmetric(augment(sys), N, steps=n)
        res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=n))
        worst = max(worst, _scalar_gap(gkb, res))
    assert worst <= 1e-10
    print(f"\ncriterion 05 scalar-sequence equivalence: PASS (max gap {worst:.2e})")


def _scalar_gap(gkb, res):
    """Largest relative difference over alpha_1..alpha_k, beta_1..beta_k.

    beta_{k+1} (the entry that triggers termination) is excluded: both routes
    compute it by cancellation at the roundoff floor, where relative
    comparison is meaningless.
    """
    gap = 0.0
    k = min(len(gkb.alphas), len(res.alphas))
    for a, b in zip(gkb.alphas[:k], res.alphas[:k]):
        gap = max(gap, abs(a - b) / abs(b))
    for a, b in zip(gkb.betas[:k], res.betas[:k]):
        gap = max(gap, abs(a - b) / max(abs(b), 1e-300))
    return gap


def test_criterion_06_decomposition_identities():
    cases = [(12, 6, 3, 0.0, 500), (16, 8, 8, 0.0, 501),
             (12, 6, 3, 0.5, 502), (16, 8, 4, 0.5, 503)]
    for m, n, c_rank, skew, seed in cases:
        sys = random_system(m, n, skew=skew, c_rank=c_rank, seed=seed)
        N = random_preconditioner(n, seed=seed)
        aug = augment(sys)
        symmetric = skew == 0.0
        if symmetric:
            gkb = gkb_symmetric(aug, N, steps=n, reorthogonalize=True)
        else:
            gkb = gkb_nonsymmetric(aug, N, steps=n)
        rep = verify_decomposition(aug, N, gkb)
        assert rep.factor_residual <= 1e-9 * rep.scale
        assert rep.transpose_residual <= 1e-9 * rep.scale
        assert rep.q_orthogonality <= 1e-8
        k = len(gkb.alphas)
        B = gkb.B
        if not symmetric:
            H, L = gkb.H, gkb.L
            assert np.abs(H - B.T @ L.T).max() <= 1e-10 * max(np.abs(H).max(), 1.0)
            reduced = H @ B
        else:
            reduced = B.T @ B
        assert k == n
        assert rep.schur_residual <= 1e-8 * np.linalg.norm(reduced)
    print("\ncriterion 06 decomposition identities: PASS")


def test_criterion_07_early_termination_on_eigenvector_rhs():
    # symmetric
    sys = random_system(12, 5, c_rank=3, seed=600)
    nd = np.random.default_rng(600).uniform(0.5, 2.0, 5)
    N = factorize(np.diag(nd))
    S = SchurOperator(sys).dense()
    lam, V = scipy.linalg.eigh(S / np.outer(np.sqrt(nd), np.sqrt(nd)))
    b = np.sqrt(nd) * V[:, 1]
    sys_eig = SaddleSystem(sys.M, sys.A, sys.C, b)
    res = craig_solve(sys_eig, N)
    z_star = np.concatenate(direct_solve(sys_eig))
    err_sym = np.linalg.norm(res.final_vector() - z_star) / np.linalg.norm(z_star)
    assert res.iterations == 1 and err_sym <= 1e-10

    # nonsymmetric (odd n guarantees a real eigenpair of S N^{-1})
    sys_n = random_system(12, 5, skew=0.5, c_rank=3, seed=601)
    Sn = SchurOperator(sys_n).dense()
    w, Vn = np.linalg.eig(Sn)
    ix = int(np.argmin(np.abs(w.imag)))
    b_n = np.real(Vn[:, ix])
    assert np.linalg.norm(Sn @ b_n - w[ix].real * b_n) <= 1e-10
    sys_n_eig = SaddleSystem(sys_n.M, sys_n.A, sys_n.C, b_n)
    res_n = nscraig_solve(sys_n_eig, None)
    z_star = np.concatenate(direct_solve(sys_n_eig))
    err_nsym = np.linalg.norm(res_n.final_vector() - z_star) / np.linalg.norm(z_star)
    assert res_n.iterations == 1 and err_nsym <= 1e-10
    print(f"\ncriterion 07 eigenvector early termination: PASS "
          f"(ERR {err_sym:.2e} / {err_nsym:.2e})")


def test_criterion_08_exact_full_length_termination():
    sys = random_system(24, 12, c_rank=6, seed=700, spectrum=(1.0, 100.0))
    cfg = SolverConfig(tolerance=1e-300, max_iterations=12, reorthogonalize=True)
    res = craig_solve(sys, None, cfg)
    assert res.termination != "breakdown"
    assert len(res.alphas) == 12
    assert res.betas[12] <= 1e-8 * res.betas[0]

    sys_n = random_system(24, 12, skew=0.5, c_rank=6, seed=701, spectrum=(1.0, 100.0))
    res_n = nscraig_solve(sys_n, None, SolverConfig(tolerance=1e-300, max_iterations=12,
                                                    reorthogonalize=True))
    assert res_n.termination != "breakdown"
    assert len(res_n.alphas) == 12
    assert res_n.betas[12] <= 1e-8 * res_n.betas[0]
    print(f"\ncriterion 08 full-length termination: PASS "
          f"(beta ratios {res.betas[12] / res.betas[0]:.2e}, "
          f"{res_n.betas[12] / res_n.betas[0]:.2e})")


def test_criterion_09_stokes_iteration_counts(tmp_path):
    cfg = SolverConfig(tolerance=1e-6)
    stokes = gen_stokes_channel_detailed(StokesSpec(nx=16, ny=16, gamma=0.25))
    rc = craig_solve(stokes.system, stokes.preconditioner, cfg)
    rm = pminres_solve(stokes.system, stokes.preconditioner, cfg)
    assert rc.converged and rm.converged
    assert rc.iterations < rm.iterations

    oseen = gen_stokes_channel_detailed(StokesSpec(nx=16, ny=16, gamma=0.25,
                                                   viscosity=0.1,
                                                   oseen_wind="poiseuille"))
    rn = nscraig_solve(oseen.system, oseen.preconditioner, cfg)
    rg = pgmres_solve(oseen.system, oseen.preconditioner, cfg)
    assert rn.converged and rg.converged
    assert rn.iterations < rg.iterations

    # the comparison table renders '-' for a run that did not converge
    import json

    from gsp.cli import main

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "problem": {"source": "generate-stokes", "nx": 8, "ny": 8, "gamma": 0.25},
        "solvers": ["craig", "pminres"],
        "config": {"tolerance": 1e-6, "max_iterations": 2},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["compare", str(manifest)]) == 2
    table = (tmp_path / "out" / "compare.txt").read_text()
    assert "-" in table.splitlines()[1]
    print(f"\ncriterion 09 stokes counts: PASS (craig {rc.iterations} < "
          f"pminres {rm.iterations}; nscraig {rn.iterations} < pgmres {rg.iterations})")


def test_criterion_10_monotonicity(suite1):
    for sys, rc, _ in suite1["runs"]:
        _, p_star = direct_solve(sys)
        S = SchurOperator(sys).dense()
        errs = [math.sqrt(max((p_star - run.p) @ S @ (p_star - run.p), 0.0))
                for run in rc]
        assert all(b < a for a, b in zip(errs, errs[1:]))
    for sys, rc, _ in suite1["runs"][:4]:
        rm = pminres_solve(sys, None, SolverConfig(tolerance=1e-10))
        rels = [rec.res_rel for rec in rm.history]
        assert all(b <= a for a, b in zip(rels, rels[1:]))
    print("\ncriterion 10 monotonicity: PASS")


def test_criterion_11_constrained_minimization():
    # candidates tied by the first block equation, p free over span(Q_k); the
    # literal independent-span reading is falsified by a hand counterexample
    # (see the decisions ledger) and every other constrained reading collapses
    # to the single iterate, so this is the coherent nontrivial program.
    worst = 0.0
    for n, seed in [(2, 800), (3, 801), (4, 802)]:
        sys = random_system(2 * n + 2, n, c_rank=max(1, n // 2), seed=seed)
        N = random_preconditioner(n, seed=seed)
        cfg = SolverConfig(tolerance=1e-300, max_iterations=n, keep_basis=True,
                           reorthogonalize=True)
        runs = replay(craig_solve, sys, N, cfg)
        res = runs[-1]
        u_star, p_star = direct_solve(sys)
        Md, Cd, Ad = sys.Mmat.to_dense(), sys.C.to_dense(), sys.A.to_dense()

        def objective(u, p):
            du, dp = u_star - u, p_star - p
            return math.sqrt(du @ Md @ du + dp @ Cd @ dp)

        for k in range(1, res.iterations + 1):
            Q = np.column_stack(res.Q[:k])
            U = -np.column_stack([sys.M.solve(Ad @ Q[:, j]) for j in range(k)])
            H = U.T @ Md @ U + Q.T @ Cd @ Q
            g = U.T @ Md @ u_star + Q.T @ Cd @ p_star
            y_min = np.linalg.solve(H, g)
            obj_min = objective(U @ y_min, Q @ y_min)
            obj_craig = objective(runs[k - 1].u, runs[k - 1].p)
            worst = max(worst, abs(obj_craig - obj_min) / (1.0 + obj_min))
            resid = sys.b - Ad.T @ (U @ y_min) + Cd @ (Q @ y_min)
            assert np.linalg.norm(Q.T @ resid) <= 1e-8 * res.betas[0]
    assert worst <= 1e-8
    print(f"\ncriterion 11 constrained minimization: PASS (max gap {worst:.2e})")


def test_criterion_12_io_round_trip(tmp_path):
    rng = np.random.default_rng(900)
    for trial in range(100):
        m, n = rng.integers(1, 12, size=2)
        dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
        dense *= 10.0 ** rng.integers(-9, 10)
        A = SparseMatrix.from_dense(dense)
        path = tmp_path / f"t{trial}.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert B.shape == A.shape
        assert np.array_equal(A.values, B.values)
        assert np.array_equal(A.csr.indices, B.csr.indices)
        assert np.array_equal(A.csr.indptr, B.csr.indptr)

    sys_full = well_conditioned_instance(12, 6, 3, seed=901)
    b1 = rng.standard_normal(12)
    b2 = rng.standard_normal(6)
    comp, w0 = compress_rhs(sys_full.Mmat, sys_full.A, sys_full.C, b1, b2)
    u, p = direct_solve(comp)
    w = recover_w(u, w0)
    K = np.block([[sys_full.Mmat.to_dense(), sys_full.A.to_dense()],
                  [sys_full.A.to_dense().T, -sys_full.C.to_dense()]])
    z_star = np.linalg.solve(K, np.concatenate([b1, b2]))
    gap = np.linalg.norm(np.concatenate([w, p]) - z_star) / np.linalg.norm(z_star)
    assert gap <= 1e-9
    print(f"\ncriterion 12 io round trip: PASS (compress gap {gap:.2e})")
