"""SCR, MINRES/GMRES baselines, and the sparse direct oracle."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from conftest import LoggedSolves, cholesky_preconditioner, random_preconditioner, random_system
from gsp import (
    SaddleSystem,
    SolverConfig,
    StokesSpec,
    craig_solve,
    direct_solve,
    gen_stokes_channel_detailed,
    nscraig_solve,
    pgmres_solve,
    pminres_solve,
    recover_w,
    replay,
    scr_cg_solve,
    scr_fom_solve,
)
from gsp.baselines import SchurOperator
from gsp.cli import SOLVERS
from gsp.errors import SingularOperatorError, WrongSolverError
from gsp.system import HISTORY_FIELDS, grown


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
        cfg = SolverConfig()
        rg = replay(scr_cg_solve, sys, N, cfg)
        rc = replay(craig_solve, sys, N, cfg)
        for g, c in zip(rg, rc):
            assert np.linalg.norm(g.p - c.p) <= 1e-9 * np.linalg.norm(g.p)

    def test_matches_craig_iterates_with_cholesky_preconditioner(self):
        # A non-diagonal N: CRAIG carries N q as N g / beta instead of applying
        # N, and every N the other checks use is diagonal.
        sys = random_system(40, 16, c_rank=8, seed=62, spectrum=(1.0, 20.0))
        N = cholesky_preconditioner(16, seed=62)
        rg = replay(scr_cg_solve, sys, N, SolverConfig(tolerance=1e-10))
        rc = replay(craig_solve, sys, N, SolverConfig(tolerance=1e-10))
        assert rg[-1].iterations == rc[-1].iterations >= 10
        for g, c in zip(rg, rc):
            assert np.linalg.norm(g.p - c.p) <= 1e-9 * np.linalg.norm(g.p)

    def test_zero_c_identity_preconditioner_matches_textbook_cg(self):
        sys = random_system(12, 6, c_rank=0, seed=63)
        runs = replay(scr_cg_solve, sys, None, SolverConfig(tolerance=1e-12))
        # independent plain CG on A^T M^{-1} A p = -b
        Sd = SchurOperator(sys).dense()
        p = np.zeros(6)
        r = -sys.b
        d = r.copy()
        rho = r @ r
        for run in runs:
            w = Sd @ d
            eta = rho / (d @ w)
            p = p + eta * d
            r = r - eta * w
            rho_next = r @ r
            d = r + (rho_next / rho) * d
            rho = rho_next
            assert np.linalg.norm(run.p - p) <= 1e-10 * max(np.linalg.norm(p), 1e-30)


class TestScrFom:
    def test_symmetric_instance_matches_cg(self):
        sys = random_system(20, 8, c_rank=4, seed=64)
        N = random_preconditioner(8, seed=64)
        cfg = SolverConfig()
        rf = replay(scr_fom_solve, sys, N, cfg)
        rg = replay(scr_cg_solve, sys, N, cfg)
        for f, g in zip(rf, rg):
            assert np.linalg.norm(f.p - g.p) <= 1e-9 * max(np.linalg.norm(g.p), 1e-30)

    def test_matches_nscraig_iterates(self):
        sys = random_system(20, 8, skew=0.5, c_rank=4, seed=65)
        N = random_preconditioner(8, seed=65)
        cfg = SolverConfig()
        rf = replay(scr_fom_solve, sys, N, cfg)
        rn = replay(nscraig_solve, sys, N, cfg)
        assert rf[-1].iterations == rn[-1].iterations
        for f, n in zip(rf, rn):
            assert np.linalg.norm(f.p - n.p) <= 1e-9 * max(np.linalg.norm(n.p), 1e-30)

    def test_matches_nscraig_iterates_with_cholesky_preconditioner(self):
        sys = random_system(40, 16, skew=0.5, c_rank=8, seed=65, spectrum=(1.0, 20.0))
        N = cholesky_preconditioner(16, seed=65)
        rf = replay(scr_fom_solve, sys, N, SolverConfig(tolerance=1e-10))
        rn = replay(nscraig_solve, sys, N, SolverConfig(tolerance=1e-10))
        assert rf[-1].iterations == rn[-1].iterations >= 10
        for f, n in zip(rf, rn):
            assert np.linalg.norm(f.p - n.p) <= 1e-9 * max(np.linalg.norm(n.p), 1e-30)

    def test_one_n_product_per_step(self):
        # N w gives h_{k+1} and, over it, N q_{k+1}: one apply a step, plus N q_1's.
        sys = random_system(40, 20, seed=3)
        calls = []
        N = cholesky_preconditioner(20, seed=3)

        class Counted:
            dimension, spd, solve = N.dimension, N.spd, N.solve

            def apply(self, x):
                calls.append(len(x))
                return N.apply(x)

        res = scr_fom_solve(sys, Counted(), SolverConfig(tolerance=1e-10))
        assert res.iterations == 20
        assert len(calls) == 21

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


def test_grown_doubles_each_short_axis_and_keeps_contents_and_order():
    a = np.arange(6.0).reshape(2, 3)
    assert grown(a, (2, 3)) is a and grown(a, (1, 2)) is a
    rows = grown(a, (3, 3))
    assert rows.shape == (4, 3) and np.array_equal(rows[:2], a) and not rows[2:].any()
    both = grown(a, (5, 4))  # axis 0 past twice its length: to 5; axis 1 doubles to 6
    assert both.shape == (5, 6) and np.array_equal(both[:2, :3], a)
    assert np.count_nonzero(both) == np.count_nonzero(a) and both.flags.c_contiguous
    f = grown(np.asfortranarray(a), (2, 4), "F")
    assert f.shape == (2, 6) and f.flags.f_contiguous and np.array_equal(f[:, :3], a)
    assert grown(np.zeros((2, 0), order="F"), (2, 1), "F").shape == (2, 1)


class TestPerStepArrays:
    """SCR(FOM)'s and GMRES's Hessenbergs grow with the steps taken, not with max_iterations."""

    @staticmethod
    def oseen(nx):
        return gen_stokes_channel_detailed(StokesSpec(nx=nx, ny=nx, viscosity=1e-2,
                                                      oseen_wind="poiseuille"))

    @staticmethod
    def traced_peak(solve, prob, cfg):
        solve(prob.system, prob.preconditioner, cfg)  # first-call imports stay out of the count
        gc.collect()
        tracemalloc.start()
        try:
            solve(prob.system, prob.preconditioner, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("solve, nx, bound_mb", [
        # A (cap+1) x cap Hessenberg at cap = m + n = 735 (pgmres) or n = 575 (scr-fom) peaks
        # at 6.1 and 3.8 MB; grown by the 140 and 80 steps taken, at 2.3 and 1.3 MB.
        (pgmres_solve, 16, 3.0),
        (scr_fom_solve, 24, 2.0),
    ], ids=["pgmres-oseen16", "scr-fom-oseen24"])
    def test_peak_memory_does_not_follow_max_iterations(self, solve, nx, bound_mb):
        cfg = SolverConfig(tolerance=1e-6, max_iterations=10**6)
        peak = self.traced_peak(solve, self.oseen(nx), cfg)
        assert peak <= bound_mb * 1e6, f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("solve", [scr_fom_solve, pgmres_solve])
    def test_results_do_not_depend_on_max_iterations(self, solve):
        prob = self.oseen(16)
        runs = [solve(prob.system, prob.preconditioner,
                      SolverConfig(tolerance=1e-8, max_iterations=cap)) for cap in (3000, 10**6)]
        steps = runs[0].iterations
        runs.append(solve(prob.system, prob.preconditioner,
                          SolverConfig(tolerance=1e-8, max_iterations=steps)))
        columns = [name for name in HISTORY_FIELDS if name != "wall_time_s"]
        for run in runs:
            assert run.termination == "converged" and run.iterations == steps
            assert run.u.tobytes() == runs[0].u.tobytes()
            assert run.p.tobytes() == runs[0].p.tobytes()
            for name in columns:
                assert run.history.column(name).tobytes() == runs[0].history.column(name).tobytes()


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

    def test_stokes48_matches_manufactured_solution(self):
        # m + n = 6815: the oracle has no size cap.
        prob = gen_stokes_channel_detailed(StokesSpec(nx=48, ny=48))
        u, p = direct_solve(prob.system)
        vel = recover_w(u, prob.w0)
        assert np.linalg.norm(vel - prob.velocity) <= 1e-10 * np.linalg.norm(prob.velocity)
        assert np.linalg.norm(p - prob.pressure) <= 1e-10 * np.linalg.norm(prob.pressure)

    @pytest.mark.parametrize("scale", [0.0, 1e-20], ids=["exact", "numerical"])
    def test_singular_system_refused(self, scale):
        # C = 0 and a (nearly) zero column of A leave K a (nearly) zero column.
        A = np.array([[1.0, 0.0], [0.0, scale], [1.0, 0.0]])
        sys = SaddleSystem.from_matrices(np.eye(3), A, np.zeros((2, 2)), np.ones(2))
        with pytest.raises(SingularOperatorError):
            direct_solve(sys)


def test_block_diag_preconditioner_blockwise():
    # pminres and pgmres precondition with blkdiag(M, N): each application is one
    # M-solve of the first m entries and one N-solve of the last n, never a mix.
    sys = random_system(10, 5, c_rank=2, seed=71)
    N = random_preconditioner(5, seed=71)
    for solve in (pminres_solve, pgmres_solve):
        m_lengths, n_lengths = [], []
        logged = dataclasses.replace(sys, M=LoggedSolves(sys.M, m_lengths))
        res = solve(logged, LoggedSolves(N, n_lengths), SolverConfig(tolerance=1e-10))
        assert res.converged
        assert m_lengths == [10] * len(n_lengths) and n_lengths == [5] * (res.iterations + 1)
        plain = solve(sys, N, SolverConfig(tolerance=1e-10))
        assert np.array_equal(plain.u, res.u) and np.array_equal(plain.p, res.p)


BASELINES = [scr_cg_solve, scr_fom_solve, pminres_solve, pgmres_solve]
# Each solver at max_iterations = 2; scr-fom also at its own cap, the dimension
# n = 5 (tolerance 1e-300: its step-5 residual is 3.4e-16).
CAPPED = random_system(40, 20, c_rank=10, seed=71)
CAPS = [pytest.param(solve, CAPPED, SolverConfig(tolerance=1e-4, max_iterations=2), 2,
                     id=solve.__name__) for solve in SOLVERS.values()]
CAPS.append(pytest.param(scr_fom_solve, random_system(10, 5, c_rank=2, seed=1),
                         SolverConfig(tolerance=1e-300, max_iterations=50), 5,
                         id="scr_fom_solve-dimension-cap"))


class TestStoppingRule:
    """Every solver stops by SolverConfig.stop; the baselines on the relative residual only."""

    @pytest.mark.parametrize("solve", BASELINES)
    def test_error_estimate_criterion_refused(self, solve):
        sys = random_system(12, 6, c_rank=3, seed=72)
        with pytest.raises(WrongSolverError, match="no error estimate"):
            solve(sys, None, SolverConfig(criterion="error-estimate"))

    @pytest.mark.parametrize("criterion", ["relative-residual", "both"])
    @pytest.mark.parametrize("solve", SOLVERS.values())
    def test_fired_criterion_is_the_residual(self, solve, criterion):
        sys = random_system(40, 20, c_rank=10, seed=71)
        res = solve(sys, None, SolverConfig(tolerance=1e-4, criterion=criterion))
        assert res.termination == "converged"
        assert res.fired_criterion == "relative-residual"

    def test_no_solver_converges_when_b_is_outside_the_range_of_a_transpose(
            self, inconsistent_system):
        # pminres and pgmres meet a Givens rotation with hypot 0 at step 1, and SCR-FOM a
        # singular 1 x 1 Hessenberg block: each ends the run with the zero iterate.
        results = {name: solve(inconsistent_system) for name, solve in SOLVERS.items()}
        assert not any(res.converged for res in results.values())
        for name, res in results.items():
            assert (res.termination, res.iterations) == ("breakdown", 0), name
            assert not np.any(res.final_vector()), name

    @pytest.mark.parametrize("solve, sys, cfg, steps", CAPS)
    def test_no_rule_fires_at_the_iteration_cap(self, solve, sys, cfg, steps):
        res = solve(sys, None, cfg)
        assert res.iterations == steps
        assert res.termination == "max-iterations"
        assert res.fired_criterion is None
