"""nsCRAIG solver: hand values, deferred assembly, estimates, equivalences."""

import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gsp.nscraig

from conftest import cholesky_preconditioner, random_preconditioner, random_system
from gsp import (
    SaddleSystem,
    SolverConfig,
    StokesSpec,
    augment,
    bidiagonalize,
    craig_error_estimate,
    craig_solve,
    direct_solve,
    gen_stokes_channel_detailed,
    nscraig_error_estimate,
    nscraig_solve,
    pgmres_solve,
    pminres_solve,
    replay,
    residual_check,
    scr_cg_solve,
    scr_fom_solve,
)
from gsp.errors import InsufficientHistoryError, NonFiniteError, WrongSolverError, ZeroRhsError
from gsp.gkb import assemble_bidiagonal
from gsp.nscraig import IncrementalLowerFactor, assemble_solution


def dense_reference(res, k):
    """B, H, L with H = B^T L^T and the coefficients y of a run's first k steps.

    Built by dense solves from the kept Hessenberg matrix: H z = beta_1 e1,
    B y = -z and L^T = B^{-T} H.
    """
    B = assemble_bidiagonal(res.history.column("alpha"), res.history.column("beta_next"), k)
    H = res.H[:k, :k]
    e1 = np.zeros(k)
    e1[0] = res.beta1
    y = np.linalg.solve(B, -np.linalg.solve(H, e1))
    return B, H, np.linalg.solve(B.T, H).T, y


def grown_factor(res, k):
    """The solver's incremental factor after k steps, replayed from a kept run."""
    lower = IncrementalLowerFactor()
    alphas, chis = res.history.column("alpha"), res.history.column("scalar")
    betas = np.concatenate(([res.beta1], res.history.column("beta_next")))
    for i in range(k):
        lower.append(alphas[i], betas[i], chis[i], res.H[:i + 1, i])
    return lower


class TestHandInstances:
    def test_symmetric_input_matches_craig(self, hand_system):
        res = nscraig_solve(hand_system, None)
        assert res.iterations == 1
        assert res.termination == "exact-termination"
        assert res.beta1 == 1.0
        assert abs(res.history.column("alpha")[0] - math.sqrt(3.0)) <= 1e-14
        assert np.allclose(res.p, [-1.0 / 3.0], atol=1e-14)
        assert np.allclose(res.u, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_nonsymmetric_instance(self, hand_system_nonsym):
        res = nscraig_solve(hand_system_nonsym, None)
        assert abs(res.history.column("alpha")[0] - math.sqrt(2.6)) <= 1e-14
        assert res.iterations == 1
        assert np.allclose(res.p, [-1.0 / 2.6], atol=1e-12)
        assert np.allclose(res.u, [0.4 / 2.6, 1.2 / 2.6], atol=1e-12)

    def test_zero_rhs(self, hand_system_nonsym):
        sys0 = SaddleSystem(hand_system_nonsym.M, hand_system_nonsym.A,
                            hand_system_nonsym.C, np.zeros(1))
        with pytest.raises(ZeroRhsError):
            nscraig_solve(sys0, None)


def test_random_nspd_residual_identity():
    sys = random_system(12, 5, skew=0.5, c_rank=3, seed=41)
    N = random_preconditioner(5, seed=41)
    res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-12))
    explicit = N.inv_norm(sys.b - sys.A.rmatvec(res.u) + sys.C.matvec(res.p))
    assert explicit / res.beta1 <= 1e-10
    rec = res.history[-1]
    assert abs(explicit - rec.beta_next * abs(rec.scalar)) <= 1e-8 * res.beta1


def test_matches_craig_scalars_on_symmetric_input():
    sys = random_system(14, 7, c_rank=4, seed=42)
    N = random_preconditioner(7, seed=42)
    cfg = SolverConfig(tolerance=1e-300, max_iterations=7)
    rn = nscraig_solve(sys, N, cfg)
    rc = craig_solve(sys, N, cfg)
    a, b = rn.history.column("alpha"), rc.history.column("alpha")
    assert (np.abs(a - b) <= 1e-10 * np.abs(b)).all()
    assert abs(rn.beta1 - rc.beta1) <= 1e-10 * rc.beta1
    a, b = rn.history.column("beta_next")[:-1], rc.history.column("beta_next")[:-1]
    assert (np.abs(a - b) <= 1e-10 * np.maximum(np.abs(b), 1e-300)).all()
    assert np.linalg.norm(rn.p - rc.p) <= 1e-10 * np.linalg.norm(rc.p)


@pytest.mark.parametrize("m, n, c_rank, seed, kappa, craig_steps", [
    (80, 40, 10, 5, 1e4, 68), (60, 30, 7, 3, 1e6, 82)])
def test_nscraig_is_the_fully_orthogonalized_craig(m, n, c_rank, seed, kappa, craig_steps):
    # On an ill-conditioned symmetric system CRAIG loses orthogonality and runs
    # past n steps; nsCRAIG ends at n, on the direct solution, with CRAIG's
    # early iterates. The counts hold under one and two BLAS threads.
    sys = random_system(m, n, c_rank=c_rank, seed=seed, spectrum=(1.0, kappa))
    cfg = SolverConfig(tolerance=1e-10)
    full = nscraig_solve(sys, None, cfg)
    assert craig_solve(sys, None, cfg).iterations == craig_steps
    assert full.iterations == n
    _, p_star = direct_solve(sys)
    assert np.linalg.norm(full.p - p_star) <= 1e-10 * np.linalg.norm(p_star)
    five = SolverConfig(tolerance=1e-10, max_iterations=5)
    for rn, rc in zip(replay(nscraig_solve, sys, None, five), replay(craig_solve, sys, None, five),
                      strict=True):
        assert np.linalg.norm(rn.p - rc.p) <= 1e-12 * np.linalg.norm(rc.p)
        assert np.linalg.norm(rn.u - rc.u) <= 1e-12 * np.linalg.norm(rc.u)


def test_deferred_and_eager_assembly_agree():
    for sys in (random_system(12, 6, skew=0.5, c_rank=3, seed=43),
                random_system(40, 20, skew=0.8, c_rank=10, seed=56, spectrum=(1.0, 20.0))):
        lazy = nscraig_solve(sys, None, SolverConfig(tolerance=1e-10))
        eager = nscraig_solve(sys, None, SolverConfig(tolerance=1e-10, keep_basis=True))
        runs = replay(nscraig_solve, sys, None, SolverConfig(tolerance=1e-10))
        assert lazy.iterations == eager.iterations
        # Both runs grow one factor and assemble from it, so keep_basis
        # changes nothing in the returned iterate.
        assert np.array_equal(lazy.p, eager.p) and np.array_equal(lazy.u, eager.u)
        assert lazy.H is None and eager.H.shape == (eager.iterations,) * 2
        assert len(runs) == eager.iterations
        assert np.allclose(runs[-1].u, lazy.u, rtol=1e-12, atol=0.0)
        assert np.allclose(runs[-1].p, lazy.p, rtol=1e-12, atol=0.0)
        Q = np.array(eager.Q)
        for k, run in enumerate(runs, start=1):
            y = dense_reference(eager, k)[3]
            assert np.linalg.norm(run.p - y @ Q[:k]) <= 1e-12 * np.linalg.norm(run.p)


def test_iterate_formed_only_on_termination(monkeypatch):
    # One assembly and one M-solve per step plus the assembly's, with the basis kept or not.
    sys = random_system(40, 20, skew=0.8, c_rank=10, seed=56, spectrum=(1.0, 20.0))
    assemblies, solves = [], []
    assemble, solve = gsp.nscraig.assemble_solution, type(sys.M).solve
    monkeypatch.setattr(gsp.nscraig, "assemble_solution",
                        lambda lower: assemblies.append(lower.k) or assemble(lower))
    monkeypatch.setattr(type(sys.M), "solve",
                        lambda op, b: solves.append(op is sys.M) or solve(op, b))
    for keep_basis in (False, True):
        assemblies.clear()
        solves.clear()
        res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-10, keep_basis=keep_basis))
        assert assemblies == [res.iterations] > [1]
        assert sum(solves) == res.iterations + 1


def test_triangular_and_dense_assembly_cross_check():
    sys = random_system(12, 6, skew=0.5, c_rank=3, seed=44)
    res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-300, max_iterations=5,
                                                keep_basis=True))
    k = res.iterations
    y_tri = assemble_solution(grown_factor(res, k))
    y_dense = dense_reference(res, k)[3]
    assert np.linalg.norm(y_tri - y_dense) <= 1e-11 * np.linalg.norm(y_dense)


class TestErrorEstimate:
    def test_single_term(self):
        assert nscraig_error_estimate([1.0], np.eye(1), 1, 1) == 1.0

    def test_symmetric_reduction_matches_craig(self):
        zetas = [0.9, -0.4, 0.2, -0.05]
        for k, d in [(2, 1), (3, 2), (4, 1), (4, 4)]:
            got = nscraig_error_estimate(zetas, np.eye(k), k, d)
            want = craig_error_estimate(zetas, k, d)
            assert abs(got - want) <= 1e-14

    def test_hand_back_substitution(self):
        L = np.array([[1.0, 0.0], [0.5, 1.0]])
        est = nscraig_error_estimate([1.0, 1.0], L, 2, 1)
        assert abs(est - 2.0 / 3.0) <= 1e-14

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            nscraig_error_estimate([1.0], np.eye(1), 1, 2)

    @pytest.mark.parametrize("call, refusal, fragment", [
        (lambda: craig_error_estimate([1.0], 1, 0), ValueError, "delay d must be >= 1"),
        (lambda: craig_error_estimate([0.0, 0.0], 2, 1), ValueError, "all-zero zeta history"),
        (lambda: nscraig_error_estimate([1.0, 1.0], np.eye(3), 2, 1),
         InsufficientHistoryError, "lower factor must be 2 x 2"),
        (lambda: nscraig_error_estimate([0.0], np.eye(1), 1, 1), ValueError,
         "zero denominator in error estimate"),
    ], ids=["craig-delay-zero", "craig-all-zero-zetas", "nscraig-factor-wrong-shape",
            "nscraig-zero-denominator"])
    def test_refusals(self, call, refusal, fragment):
        with pytest.raises(refusal, match=fragment):
            call()

    def test_estimate_mode_runs(self):
        sys = random_system(16, 8, skew=0.5, c_rank=4, seed=45)
        cfg = SolverConfig(tolerance=1e-8, criterion="error-estimate", error_delay=2)
        res = nscraig_solve(sys, None, cfg)
        assert res.termination in ("converged", "exact-termination")

    @pytest.mark.parametrize("make", [
        lambda: random_system(120, 60, c_rank=30, seed=3, spectrum=(1.0, 50.0)),
        lambda: random_system(120, 60, skew=0.5, c_rank=30, seed=3, spectrum=(1.0, 50.0)),
        lambda: random_system(120, 60, skew=0.8, c_rank=30, seed=3, spectrum=(1.0, 50.0)),
        lambda: gen_stokes_channel_detailed(StokesSpec(nx=16, ny=16, viscosity=1e-2,
                                                       oseen_wind="poiseuille")).system,
    ], ids=["symmetric", "skew-0.5", "skew-0.8", "oseen16"])
    def test_estimate_stop_meets_tolerance(self, make):
        # The delayed ratio is a squared energy norm; stopping on the ratio
        # itself rather than its root fired at k=30 on the symmetric system
        # with error 1e-5. On the nonsymmetric ones the error was 0.003, 0.003
        # and 0.011 times tol: the delayed estimate does not fire early.
        sys = make()
        tol = 1e-8
        cfg = SolverConfig(tolerance=tol, criterion="error-estimate", error_delay=5)
        res = nscraig_solve(sys, None, cfg)
        assert res.fired_criterion == "error-estimate"
        z_star = np.concatenate(direct_solve(sys))
        assert np.linalg.norm(res.final_vector() - z_star) <= 100 * tol * np.linalg.norm(z_star)

    def test_incremental_lower_factor_matches_rebuild(self):
        sys = random_system(30, 15, skew=0.5, c_rank=7, seed=53, spectrum=(1.0, 50.0))
        res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-300, max_iterations=12,
                                                    keep_basis=True))
        lower = IncrementalLowerFactor()  # no rows, grown five times to 16
        alphas, chis = res.history.column("alpha"), res.history.column("scalar")
        betas = np.concatenate(([res.beta1], res.history.column("beta_next")))
        for k in range(1, res.iterations + 1):
            lower.append(alphas[k - 1], betas[k - 1], chis[k - 1], res.H[:k, k - 1])
            cap = 1 << (k - 1).bit_length()  # 1, 2, 4, 8, 16: the capacities _upper_solve names
            assert lower.Lt.shape == (cap, cap) and lower.band.shape == (2, cap)
            assert lower.Lt.flags.f_contiguous and lower.band.flags.f_contiguous
            assert len(lower.x) == len(lower.w) == cap
            L = dense_reference(res, k)[2]
            # Only the lower triangle is defined; above it the rebuild holds roundoff.
            assert np.abs(np.tril(lower.lower_factor() - L)).max() <= 1e-12 * np.abs(L).max()

    def test_history_matches_rebuilt_factor(self):
        # Stops at k = 27, as the rebuild of B, H and L^T on every step did.
        sys = random_system(60, 30, skew=0.5, c_rank=15, seed=53, spectrum=(1.0, 50.0))
        tol, d = 1e-6, 3
        res = nscraig_solve(sys, None, SolverConfig(tolerance=tol, criterion="error-estimate",
                                                    error_delay=d, keep_basis=True))
        assert res.fired_criterion == "error-estimate" and res.iterations == 27
        rebuilt, chis = [], res.history.column("scalar")
        for k in range(d, res.iterations + 1):
            L = dense_reference(res, k)[2]
            rebuilt.append(math.sqrt(abs(nscraig_error_estimate(chis, L, k, d))))
        recorded = [rec.err_est for rec in res.history[d - 1:]]
        assert np.allclose(recorded, rebuilt, rtol=1e-10, atol=0.0)
        assert [e < tol for e in rebuilt].index(True) + d == res.iterations


class TestResidualCheck:
    def test_defects_small(self):
        sys = random_system(14, 7, skew=0.5, c_rank=3, seed=46)
        N = random_preconditioner(7, seed=46)
        rep = residual_check(sys, N, nscraig_solve, SolverConfig(keep_basis=True))
        assert max(rep.dual_defects) <= 1e-8
        assert max(rep.upper_ratios) <= 1e-9
        assert max(rep.orth_defects) <= 1e-8 * rep.beta1

    def test_estimates_available_before_assembly(self):
        sys = random_system(14, 7, skew=0.5, c_rank=3, seed=47)
        res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-8))
        assert all(rec.res_rel >= 0.0 for rec in res.history)
        assert res.Q is None and res.H is None  # nothing kept per step

    def test_symmetric_input_matches_craig_defects(self):
        sys = random_system(12, 6, c_rank=3, seed=48)
        N = random_preconditioner(6, seed=48)
        cfg = SolverConfig(tolerance=1e-300, max_iterations=6)
        rn = residual_check(sys, N, nscraig_solve, cfg)
        rc = residual_check(sys, N, craig_solve, cfg)
        for a, b in zip(rn.dual_defects, rc.dual_defects):
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("solve", [scr_cg_solve, scr_fom_solve, pminres_solve, pgmres_solve])
    def test_solve_without_golub_kahan_scalars_refused_before_the_replay(self, solve):
        caps = []

        def logged(sys, N, cfg):
            caps.append(cfg.max_iterations)
            return solve(sys, N, cfg)

        with pytest.raises(WrongSolverError, match="records no beta_next and scalar"):
            residual_check(random_system(40, 20, seed=3), None, logged,
                           SolverConfig(tolerance=1e-10))
        assert caps == [1]  # the one-step probe only


def test_hessenberg_factors_lower_extraction():
    sys = random_system(10, 5, skew=0.5, c_rank=2, seed=49)
    res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-300, max_iterations=5,
                                                keep_basis=True))
    k = res.iterations
    B, H, _, _ = dense_reference(res, k)
    L = grown_factor(res, k).lower_factor()
    assert np.abs(np.triu(L, 1)).max() <= 1e-12
    assert np.abs(np.diag(L) - 1.0).max() <= 1e-10
    assert np.abs(H - B.T @ L.T).max() <= 1e-10 * max(np.abs(H).max(), 1.0)


class TestKeptHessenberg:
    """A kept run's H is B^T L^T, read off its incremental factor once, at termination."""

    def test_is_the_factors_hessenberg(self, monkeypatch):
        factors = []

        class Recorded(IncrementalLowerFactor):
            def __init__(self):
                super().__init__()
                factors.append(self)

        monkeypatch.setattr(gsp.nscraig, "IncrementalLowerFactor", Recorded)
        sys = random_system(30, 15, skew=0.5, c_rank=7, seed=53)
        res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-10, keep_basis=True))
        (lower,) = factors
        assert lower.k == res.iterations and np.array_equal(res.H, lower.hessenberg())

    @pytest.mark.parametrize("m, n, c_rank, skew, seed", [
        (24, 12, 5, 0.5, 1), (30, 15, 0, 0.5, 2), (40, 20, 7, 0.8, 3), (16, 8, 8, 0.3, 4)])
    def test_matches_the_oracle(self, m, n, c_rank, skew, seed):
        # The oracle forms H from its own MGS coefficients on the augmented
        # C = 0 system, independently of the solver's factor; the gap was at
        # most 3e-14 on these cases.
        sys = random_system(m, n, skew=skew, c_rank=c_rank, seed=seed)
        N = cholesky_preconditioner(n, seed=seed)
        k = n - 2
        res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=k,
                                                 keep_basis=True))
        gkb = bidiagonalize(augment(sys), N, k)
        assert res.H.shape == gkb.H.shape == (k, k)
        assert np.linalg.norm(res.H - gkb.H) <= 1e-10 * np.linalg.norm(gkb.H)

    def test_kept_run_costs_at_most_its_kept_arrays(self):
        # 86 steps on a 255-pressure Oseen channel. A per-step (k+1) x k
        # Hessenberg, doubled as it grew and copied on return, put the extra
        # peak at 1.32 times Q.nbytes + H.nbytes; forming H once put it at
        # 0.76, and trimming the loop's own Q rather than copying it at 0.39.
        prob = gen_stokes_channel_detailed(StokesSpec(nx=16, ny=16, viscosity=1e-2,
                                                      oseen_wind="poiseuille"))
        peaks = {}
        for keep in (False, True):
            cfg = SolverConfig(tolerance=1e-10, keep_basis=keep)
            nscraig_solve(prob.system, prob.preconditioner, cfg)  # first-call imports
            gc.collect()
            tracemalloc.start()
            try:
                res = nscraig_solve(prob.system, prob.preconditioner, cfg)
                peaks[keep] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.iterations == 86
        assert res.Q.shape == (86, prob.system.n) and res.Q.base is None
        assert peaks[True] - peaks[False] <= 0.5 * (res.Q.nbytes + res.H.nbytes)

    def test_shape_after_zero_and_one_steps(self, inconsistent_system):
        res = nscraig_solve(inconsistent_system, None, SolverConfig(keep_basis=True))
        assert res.termination == "breakdown" and res.iterations == 0
        assert res.H.shape == (0, 0) and res.Q.shape == (0, 2)
        sys = random_system(12, 6, skew=0.5, c_rank=3, seed=43)
        res = nscraig_solve(sys, None, SolverConfig(max_iterations=1, keep_basis=True))
        assert res.iterations == 1 and res.H.shape == (1, 1)
        alpha1 = res.history.column("alpha")[0]
        assert abs(res.H[0, 0] - alpha1) <= 1e-12 * alpha1  # h_11 = alpha_1 l_11


def test_arnoldi_identity_at_partial_length():
    # H_k B_k equals Q_k^T S Q_k already for k < n, not just at exhaustion
    sys = random_system(14, 7, skew=0.5, c_rank=3, seed=51)
    N = random_preconditioner(7, seed=51)
    res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=4,
                                             keep_basis=True))
    from gsp.baselines import SchurOperator

    k = res.iterations
    HB = res.H[:k, :k] @ assemble_bidiagonal(res.history.column("alpha"),
                                             res.history.column("beta_next"))
    Q = np.column_stack(res.Q[:k])
    Sd = SchurOperator(sys).dense()
    assert np.linalg.norm(HB - Q.T @ Sd @ Q) <= 1e-8 * np.linalg.norm(HB)


def test_no_monotonicity_assumed_but_converges():
    # residual history may oscillate; only final convergence is contractual
    sys = random_system(30, 15, skew=0.8, c_rank=8, seed=50, spectrum=(1.0, 50.0))
    res = nscraig_solve(sys, None, SolverConfig(tolerance=1e-8))
    assert res.converged
    explicit = np.linalg.norm(sys.b - sys.A.rmatvec(res.u) + sys.C.matvec(res.p))
    assert explicit <= 1e-6 * np.linalg.norm(sys.b)


def test_cgs2_keeps_basis_orthogonal():
    # Modified Gram-Schmidt, one pass per step, reached max|Q^T N Q - I| = 0.30 here.
    sys = gen_stokes_channel_detailed(StokesSpec(nx=12, ny=12, viscosity=1e-2,
                                                 oseen_wind="poiseuille")).system
    N = random_preconditioner(sys.n, seed=5)
    res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=120,
                                             keep_basis=True))
    assert res.iterations == 120
    Q = np.array(res.Q)
    NQ = np.array([N.apply(q) for q in Q])
    assert np.abs(Q @ NQ.T - np.eye(len(Q))).max() <= 1e-12


def test_lagged_cgs2_keeps_long_oseen_basis_orthogonal():
    # 320 steps on a 575-pressure Oseen channel with a non-identity N. Skipping
    # the lagged second pass (one classical Gram-Schmidt pass per step) leaves
    # max|Q^T N Q - I| at 1.0 here.
    sys = gen_stokes_channel_detailed(StokesSpec(nx=24, ny=24, viscosity=1e-3,
                                                 oseen_wind="poiseuille")).system
    N = random_preconditioner(sys.n, seed=6)
    res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=320,
                                             keep_basis=True))
    assert res.iterations == 320
    Q = np.array(res.Q)
    NQ = np.array([N.apply(q) for q in Q])
    assert np.abs(Q @ NQ.T - np.eye(len(Q))).max() <= 1e-12


def test_lagged_cgs2_keeps_basis_orthogonal_under_cholesky_preconditioner():
    # A dense, Cholesky-factored N: the carried N q~ and N g (right-hand
    # sides of its triangular solves) must stay within rounding of N.apply.
    sys = gen_stokes_channel_detailed(StokesSpec(nx=12, ny=12, viscosity=1e-2,
                                                 oseen_wind="poiseuille")).system
    N = cholesky_preconditioner(sys.n, seed=5)
    res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=120,
                                             keep_basis=True))
    assert res.iterations == 120
    NQ = np.array([N.apply(q) for q in res.Q])
    assert np.abs(res.Q @ NQ.T - np.eye(len(res.Q))).max() <= 1e-12


@pytest.mark.parametrize("solve, skew", [(craig_solve, 0.0), (nscraig_solve, 0.5)])
def test_kept_basis_holds_exactly_k_rows(solve, skew):
    # The stored basis doubles to 64 rows at step 33; the result keeps 33.
    sys = random_system(80, 40, skew=skew, c_rank=20, seed=58, spectrum=(1.0, 100.0))
    res = solve(sys, None, SolverConfig(tolerance=1e-300, max_iterations=33, keep_basis=True))
    assert res.iterations == 33
    assert res.Q.shape == (33, sys.n) and res.Q.base is None  # trimmed in place, not a view


@pytest.mark.parametrize("solve, skew", [(craig_solve, 0.0), (nscraig_solve, 0.5)])
def test_replay_keeps_arrays_on_its_last_run_only(solve, skew):
    # Run k's Q and H are prefixes of the last run's, so only the last keeps any.
    sys = random_system(40, 20, skew=skew, c_rank=7, seed=2)
    N = random_preconditioner(20, seed=2)
    runs = replay(solve, sys, N, SolverConfig(tolerance=1e-8, keep_basis=True))
    assert len(runs) > 3 and all(run.Q is None and run.H is None for run in runs[:-1])
    last = runs[-1]
    for k in (1, len(runs) // 2, len(runs) - 1):
        kept = solve(sys, N, SolverConfig(tolerance=1e-8, max_iterations=k, keep_basis=True))
        assert np.array_equal(last.Q[:k], kept.Q)
        if solve is nscraig_solve:
            assert np.array_equal(last.H[:k, :k], kept.H)


class _MismatchedProducts:
    """N's solves, but products with another SPD matrix P: N.apply is no longer N.solve's inverse."""

    def __init__(self, N, P):
        self._N = N
        self._P = P

    def solve(self, x):
        return self._N.solve(x)

    def apply(self, x):
        return self._P.apply(x)

    def __getattr__(self, name):
        return getattr(self._N, name)


def test_lost_lagged_pass_ends_in_breakdown(monkeypatch):
    # With products by a P far from N (diagonals in [0.01, 100] against
    # [0.5, 2]), the carried N q~_2 = P g / beta_2 puts q~_2 inside span(q_1)
    # in the mixed inner product: a . a = 4.7, so 1 - a.a <= 0 at step 2. The
    # run stops there and returns the step-1 iterate, whose basis row is final.
    sys = random_system(12, 6, skew=0.5, c_rank=3, seed=57)
    N = _MismatchedProducts(random_preconditioner(6, seed=57),
                            random_preconditioner(6, seed=1057, lo=0.01, hi=100.0))
    steps = []
    lagged = gsp.nscraig._lagged_cgs2

    def spy(*args):
        steps.append(lagged(*args))
        return steps[-1]

    monkeypatch.setattr(gsp.nscraig, "_lagged_cgs2", spy)
    res = nscraig_solve(sys, N, SolverConfig(tolerance=1e-12, keep_basis=True))
    assert res.termination == "breakdown" and not res.converged
    assert len(steps) == 2 and steps[-1] is None
    assert res.iterations == 1 and len(res.Q) == 1 and res.H.shape == (1, 1)
    first = nscraig_solve(sys, N, SolverConfig(max_iterations=1))
    assert np.array_equal(res.u, first.u) and np.array_equal(res.p, first.p)


class _NanFromFourthSolve:
    """Preconditioner whose solve returns NaN from its fourth call on."""

    def __init__(self, N):
        self._N = N
        self.calls = 0

    def solve(self, x):
        self.calls += 1
        y = self._N.solve(x)
        return y if self.calls < 4 else np.full_like(y, np.nan)

    def __getattr__(self, name):
        return getattr(self._N, name)


# The error each solver raises when the fourth N-solve returns NaN: the CRAIGs
# check beta_4, the baselines the first residual the NaN reaches (pgmres
# makes its first N-solve inside step 1, the others one before it).
NAN_REFUSALS = {
    craig_solve: "beta_4 is nan at iteration 3",
    nscraig_solve: "beta_4 is nan at iteration 3",
    scr_cg_solve: "res_rel is nan at iteration 3",
    scr_fom_solve: "res_rel is nan at iteration 3",
    pminres_solve: "res_rel is nan at iteration 3",
    pgmres_solve: "res_rel is nan at iteration 4",
}


@pytest.mark.parametrize("solve, skew", [(craig_solve, 0.0), (nscraig_solve, 0.5),
                                         (scr_cg_solve, 0.0), (scr_fom_solve, 0.5),
                                         (pminres_solve, 0.0), (pgmres_solve, 0.5)])
def test_non_finite_beta_is_refused(solve, skew):
    sys = random_system(12, 6, skew=skew, c_rank=3, seed=52)
    N = _NanFromFourthSolve(random_preconditioner(6, seed=52))
    with pytest.raises(NonFiniteError, match=NAN_REFUSALS[solve]):
        solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=500))


class _Counted:
    """Forwards every attribute to target; the named methods also log each call."""

    def __init__(self, target, label, log, *methods):
        self._target = target
        for name in methods:
            def counted(*args, _fn=getattr(target, name), _key=f"{label}.{name}"):
                out = _fn(*args)
                log.append((_key, args, out))
                return out
            setattr(self, name, counted)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class _System(_Counted):
    """A saddle system whose blocks log every product and solve."""

    def __init__(self, sys, log):
        super().__init__(sys, "sys", log)
        self.M = _Counted(sys.M, "M", log, "solve", "apply")
        self.Mmat = _Counted(sys.Mmat, "Mmat", log, "matvec", "rmatvec")
        self.A = _Counted(sys.A, "A", log, "matvec", "rmatvec")
        self.C = _Counted(sys.C, "C", log, "matvec")


def _kernel_windows(monkeypatch, solve, skew, cfg):
    """Counters of the logged kernel calls before step 1, between consecutive records
    and after the last record."""
    sys = random_system(40, 20, skew=skew, c_rank=10, seed=54, spectrum=(1.0, 20.0))
    log, marks = [], []
    record = gsp.nscraig.ConvergenceRecord

    def marked(*args):
        marks.append(len(log))
        return record(*args)

    monkeypatch.setattr(gsp.nscraig, "ConvergenceRecord", marked)
    N = _Counted(random_preconditioner(20, seed=54), "N", log, "solve", "apply")
    res = solve(_System(sys, log), N, cfg)
    assert res.converged and res.iterations > 5
    assert not [key for key, _, _ in log if key.startswith("Mmat.") or key == "M.apply"]
    start = next(i for i, (key, _, _) in enumerate(log) if key == "A.rmatvec")  # step 1
    windows = [Counter(key for key, _, _ in log[a:b]) for a, b in zip(marks, marks[1:])]
    assert len(windows) == res.iterations - 1
    tail = Counter(key for key, _, _ in log[marks[-1]:])
    return Counter(key for key, _, _ in log[:start]), windows, tail


# Before step 1: N q_1 = b / beta_1 needs no N product.
SETUP = {"N.solve": 1, "A.matvec": 1, "M.solve": 1, "C.matvec": 1}
N_PRODUCTS = {craig_solve: 0, nscraig_solve: 1}  # per step


@pytest.mark.parametrize("solve, skew", [(craig_solve, 0.0), (nscraig_solve, 0.5)])
def test_one_kernel_application_each_per_iteration(monkeypatch, solve, skew):
    # Both solvers make one N-solve per step, whose right-hand side is N g.
    # CRAIG carries it and makes no N product; nsCRAIG's Gram-Schmidt changes
    # g, so it makes one, and its lagged second pass needs no second.
    setup, windows, _ = _kernel_windows(monkeypatch, solve, skew, SolverConfig(tolerance=1e-10))
    one_each = Counter({"A.matvec": 1, "A.rmatvec": 1, "M.solve": 1, "C.matvec": 1,
                        "N.solve": 1, "N.apply": N_PRODUCTS[solve]})
    assert setup == SETUP
    assert all(window == one_each for window in windows)


@pytest.mark.parametrize("solve, skew", [(craig_solve, 0.0), (nscraig_solve, 0.5)])
def test_velocity_is_one_m_solve_after_the_last_record(monkeypatch, solve, skew):
    # No step updates u: both modes form u = -M^{-1} A p once, on termination.
    _, _, tail = _kernel_windows(monkeypatch, solve, skew, SolverConfig(tolerance=1e-10))
    assert tail == Counter({"A.matvec": 1, "M.solve": 1})


def _velocity_cases(solve):
    if solve is craig_solve:
        return [random_system(40, 20, c_rank=10, seed=57),
                gen_stokes_channel_detailed(StokesSpec(nx=8, ny=8)).system]
    return [random_system(40, 20, skew=0.8, c_rank=10, seed=57),
            gen_stokes_channel_detailed(StokesSpec(nx=8, ny=8, viscosity=1e-2,
                                                   oseen_wind="poiseuille")).system]


@pytest.mark.parametrize("solve", [craig_solve, nscraig_solve])
def test_velocity_is_recovered_from_p(solve):
    # An alpha_1 breakdown, whose zero p gives the zero u, is checked for every
    # solver by test_baselines' inconsistent_system test.
    for sys in _velocity_cases(solve):
        res = solve(sys, None, SolverConfig(tolerance=1e-10))
        assert res.converged and res.iterations > 5
        assert np.array_equal(res.u, -sys.M.solve(sys.A.matvec(res.p)))


def test_carried_n_q_matches_explicit_product():
    # CRAIG's step k solves N g = A^T v_k + t_k - alpha_k N q_k with N q_k
    # carried as the previous right-hand side over beta_k (b / beta_1 for
    # k = 1), never formed by N.apply.
    sys = random_system(40, 20, c_rank=10, seed=55, spectrum=(1.0, 20.0))
    log = []
    N = _Counted(cholesky_preconditioner(20, seed=55), "N", log, "solve", "apply")
    res = craig_solve(_System(sys, log), N, SolverConfig(tolerance=1e-10, keep_basis=True))
    assert res.iterations > 5 and not [key for key, _, _ in log if key == "N.apply"]
    rhs = [args[0] for key, args, _ in log if key == "N.solve"]
    aty = [out for key, _, out in log if key == "A.rmatvec"]
    cr = [out for key, _, out in log if key == "C.matvec"]
    for k, alpha in enumerate(res.history.column("alpha"), start=1):
        carried = (aty[k - 1] + cr[k - 1] / alpha - rhs[k]) / alpha
        expected = N.apply(res.Q[k - 1])
        assert np.linalg.norm(carried - expected) <= 1e-12 * np.linalg.norm(expected)


def test_carried_m_v_matches_explicit_product():
    # Step k + 1 solves M w = A q_{k+1} - beta_{k+1} M v_k with M v_k carried
    # as the previous right-hand side over alpha_k, never formed by Mmat.
    sys = random_system(40, 20, skew=0.8, c_rank=10, seed=55, spectrum=(1.0, 20.0))
    log = []
    res = nscraig_solve(_System(sys, log), None, SolverConfig(tolerance=1e-10))
    aq = [out for key, _, out in log if key == "A.matvec"]
    solves = [(args[0], out) for key, args, out in log if key == "M.solve"]
    assert res.iterations > 5
    alphas, beta_next = res.history.column("alpha"), res.history.column("beta_next")
    for j in range(1, res.iterations):
        mv = sys.Mmat.matvec(solves[j - 1][1] / alphas[j - 1])
        expected = aq[j] - beta_next[j - 1] * mv
        assert np.linalg.norm(solves[j][0] - expected) <= 1e-13 * np.linalg.norm(expected)
