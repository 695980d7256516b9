"""SCR, MINRES/GMRES baselines, and the dense direct oracle."""

import numpy as np
import pytest

from conftest import random_preconditioner, random_system
from gsp import (
    SaddleSystem,
    SolverConfig,
    SparseMatrix,
    SpdPreconditioner,
    craig_solve,
    direct_solve,
    nscraig_solve,
    pgmres_solve,
    pminres_solve,
    scr_cg_solve,
    scr_fom_solve,
)
from gsp.baselines import BlockDiagPreconditioner, SchurOperator
from gsp.errors import WrongSolverError


class TestSchurOperator:
    def test_matches_dense_formation(self):
        sys = random_system(20, 10, c_rank=5, seed=60)
        S = SchurOperator(sys)
        Sd = S.dense()
        rng = np.random.default_rng(60)
        for _ in range(10):
            x = rng.standard_normal(10)
            assert np.linalg.norm(S.apply(x) - Sd @ x) <= 1e-10 * np.linalg.norm(Sd @ x)

    def test_symmetric_on_probes(self):
        sys = random_system(16, 8, c_rank=4, seed=61)
        S = SchurOperator(sys)
        rng = np.random.default_rng(61)
        for _ in range(10):
            x, y = rng.standard_normal((2, 8))
            gap = abs(x @ S.apply(y) - y @ S.apply(x))
            assert gap <= 1e-10 * (np.linalg.norm(x) * np.linalg.norm(y))


class TestScrCg:
    def test_hand_instance_one_step(self, hand_system):
        res = scr_cg_solve(hand_system, None)
        assert res.iterations == 1
        assert np.allclose(res.p, [-1.0 / 3.0], atol=1e-14)
        assert np.allclose(res.u, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_rejects_nonsymmetric(self, hand_system_nonsym):
        with pytest.raises(WrongSolverError):
            scr_cg_solve(hand_system_nonsym, None)

    def test_matches_craig_iterates(self):
        sys = random_system(20, 8, c_rank=4, seed=62)
        N = random_preconditioner(8, seed=62)
        cfg = SolverConfig(keep_iterates=True)
        rg = scr_cg_solve(sys, N, cfg)
        rc = craig_solve(sys, N, cfg)
        for pk_g, pk_c in zip(rg.p_iterates, rc.p_iterates):
            assert np.linalg.norm(pk_g - pk_c) <= 1e-9 * np.linalg.norm(pk_g)

    def test_zero_c_identity_preconditioner_matches_textbook_cg(self):
        sys = random_system(12, 6, c_rank=0, seed=63)
        res = scr_cg_solve(sys, None, SolverConfig(tolerance=1e-12, keep_iterates=True))
        # independent plain CG on A^T M^{-1} A p = -b
        Sd = SchurOperator(sys).dense()
        p = np.zeros(6)
        r = -sys.b
        d = r.copy()
        rho = r @ r
        for pk in res.p_iterates:
            w = Sd @ d
            eta = rho / (d @ w)
            p = p + eta * d
            r = r - eta * w
            rho_next = r @ r
            d = r + (rho_next / rho) * d
            rho = rho_next
            assert np.linalg.norm(pk - p) <= 1e-10 * max(np.linalg.norm(p), 1e-30)


class TestScrFom:
    def test_symmetric_instance_matches_cg(self):
        sys = random_system(20, 8, c_rank=4, seed=64)
        N = random_preconditioner(8, seed=64)
        cfg = SolverConfig(keep_iterates=True)
        rf = scr_fom_solve(sys, N, cfg)
        rg = scr_cg_solve(sys, N, cfg)
        for pf, pg in zip(rf.p_iterates, rg.p_iterates):
            assert np.linalg.norm(pf - pg) <= 1e-9 * max(np.linalg.norm(pg), 1e-30)

    def test_matches_nscraig_iterates(self):
        sys = random_system(20, 8, skew=0.5, c_rank=4, seed=65)
        N = random_preconditioner(8, seed=65)
        cfg = SolverConfig(keep_iterates=True)
        rf = scr_fom_solve(sys, N, cfg)
        rn = nscraig_solve(sys, N, cfg)
        assert rf.iterations == rn.iterations
        for pf, pn in zip(rf.p_iterates, rn.p_iterates):
            assert np.linalg.norm(pf - pn) <= 1e-9 * max(np.linalg.norm(pn), 1e-30)

    def test_eigenvector_rhs_one_step(self):
        sys = random_system(12, 5, skew=0.5, c_rank=3, seed=66)
        Sd = SchurOperator(sys).dense()
        w, V = np.linalg.eig(Sd)
        ix = int(np.argmin(np.abs(w.imag)))
        b = np.real(V[:, ix])
        assert np.linalg.norm(Sd @ b - w[ix].real * b) <= 1e-10
        sys_eig = SaddleSystem(sys.M, sys.A, sys.C, b)
        res = scr_fom_solve(sys_eig, None, SolverConfig(tolerance=1e-10))
        assert res.iterations == 1
        u_star, p_star = direct_solve(sys_eig)
        assert np.linalg.norm(res.p - p_star) <= 1e-9 * np.linalg.norm(p_star)


class TestPminres:
    def test_hand_instance_solution(self, hand_system):
        res = pminres_solve(hand_system, None, SolverConfig(tolerance=1e-10))
        z = res.final_vector()
        assert np.allclose(z, [1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0], atol=1e-9)
        assert res.history[-1].res_rel <= 1e-10

    def test_rejects_nonsymmetric(self, hand_system_nonsym):
        with pytest.raises(WrongSolverError):
            pminres_solve(hand_system_nonsym, None)

    def test_monotone_preconditioned_residual(self):
        sys = random_system(24, 12, c_rank=6, seed=67)
        N = random_preconditioner(12, seed=67)
        res = pminres_solve(sys, N, SolverConfig(tolerance=1e-10))
        rels = [rec.res_rel for rec in res.history]
        assert all(b <= a + 1e-16 for a, b in zip(rels, rels[1:]))
        z = res.final_vector()
        resid = np.concatenate([
            sys.Mmat.matvec(res.u) + sys.A.matvec(res.p),
            sys.A.rmatvec(res.u) - sys.C.matvec(res.p) - sys.b,
        ])
        assert np.linalg.norm(resid) <= 1e-7 * np.linalg.norm(sys.b)

    def test_tiny_spectrum_converges_fast(self):
        # C = O, A orthogonal, M = N = I: two distinct eigenvalues
        rng = np.random.default_rng(68)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        sys = SaddleSystem.from_matrices(np.eye(4), Q, np.zeros((4, 4)),
                                         rng.standard_normal(4))
        res = pminres_solve(sys, None, SolverConfig(tolerance=1e-10))
        assert res.iterations <= 3
        z_star = np.concatenate(direct_solve(sys))
        assert np.linalg.norm(res.final_vector() - z_star) <= 1e-8 * np.linalg.norm(z_star)


class TestPgmres:
    def test_hand_instance_solution(self, hand_system):
        res = pgmres_solve(hand_system, None, SolverConfig(tolerance=1e-12))
        z = res.final_vector()
        assert np.allclose(z, [1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0], atol=1e-10)

    def test_krylov_dimension_bound(self, hand_system):
        res = pgmres_solve(hand_system, None, SolverConfig(tolerance=1e-12))
        assert res.iterations <= 3  # m + n = 3

    def test_monotone_two_norm_residual(self):
        sys = random_system(20, 10, skew=0.5, c_rank=5, seed=69)
        N = random_preconditioner(10, seed=69)
        res = pgmres_solve(sys, N, SolverConfig(tolerance=1e-10))
        rels = [rec.res_rel for rec in res.history]
        assert all(b <= a + 1e-16 for a, b in zip(rels, rels[1:]))
        resid = np.concatenate([
            sys.Mmat.matvec(res.u) + sys.A.matvec(res.p),
            sys.A.rmatvec(res.u) - sys.C.matvec(res.p) - sys.b,
        ])
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(sys.b)


class TestDirectSolve:
    def test_hand_instance(self, hand_system):
        u, p = direct_solve(hand_system)
        assert np.allclose(u, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        assert np.allclose(p, [-1.0 / 3.0], atol=1e-14)

    def test_zero_a_block_still_solvable(self):
        # A = 0 violates the solver hypotheses but the full matrix is regular
        sys = SaddleSystem.from_matrices(np.eye(2), np.zeros((2, 1)), np.eye(1),
                                         np.array([1.0]))
        u, p = direct_solve(sys)
        assert np.allclose(u, [0.0, 0.0]) and np.allclose(p, [-1.0])

    def test_random_self_check(self):
        sys = random_system(18, 9, skew=0.3, c_rank=4, seed=70)
        u, p = direct_solve(sys)
        r1 = sys.Mmat.matvec(u) + sys.A.matvec(p)
        r2 = sys.A.rmatvec(u) - sys.C.matvec(p) - sys.b
        scale = np.linalg.norm(sys.b)
        assert np.linalg.norm(np.concatenate([r1, r2])) <= 1e-10 * scale


def test_block_diag_preconditioner_blockwise():
    sys = random_system(10, 5, c_rank=2, seed=71)
    N = random_preconditioner(5, seed=71)
    D0 = BlockDiagPreconditioner(sys.M, N)
    rng = np.random.default_rng(71)
    z = rng.standard_normal(15)
    got = D0.solve(z)
    assert np.allclose(got[:10], sys.M.solve(z[:10]))
    assert np.allclose(got[10:], N.solve(z[10:]))
