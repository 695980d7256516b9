"""CRAIG solver: hand values, stopping rules, identities, minimization."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_preconditioner, random_system
from gsp import (
    FactorizedOperator,
    History,
    SaddleSystem,
    SolverConfig,
    SparseMatrix,
    StokesSpec,
    compress_rhs,
    craig_error_estimate,
    craig_residual_check,
    craig_solve,
    direct_solve,
    factorize,
    gen_stokes_channel,
    load_system,
    replay,
    save_system,
    scr_cg_solve,
)
from gsp.baselines import SchurOperator
from gsp.errors import (
    InsufficientHistoryError,
    NonFiniteError,
    NotSpdError,
    NotSpsdError,
    WrongSolverError,
    ZeroRhsError,
)


class TestContainers:
    def test_system_rejects_asymmetric_c(self):
        with pytest.raises(NotSpsdError):
            SaddleSystem.from_matrices(np.eye(2), np.ones((2, 2)),
                                       np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2))

    def test_diagonal_m_or_n_with_nonpositive_entry_refused(self):
        for d in ([1.0, 0.0], [1.0, -2.0]):
            with pytest.raises(NotSpdError):
                SaddleSystem.from_matrices(np.diag(d), np.eye(2), np.zeros((2, 2)), np.ones(2))
            with pytest.raises(NotSpdError):
                factorize(np.diag(d))

    def test_diagonal_m_gets_the_diagonal_kind_and_craig_matches_scr_cg(self):
        rng = np.random.default_rng(11)
        A, C = rng.standard_normal((12, 5)), np.diag([1.0, 0.5, 0.0, 0.0, 0.0])
        sys = SaddleSystem.from_matrices(np.diag(rng.uniform(1.0, 3.0, 12)), A, C,
                                         rng.standard_normal(5))
        assert sys.M.kind == "diagonal" and sys.symmetric
        cfg = SolverConfig(tolerance=1e-10)
        runs = replay(craig_solve, sys, None, cfg), replay(scr_cg_solve, sys, None, cfg)
        assert len(runs[0]) == len(runs[1]) >= 5
        for rc, rg in zip(*runs):
            assert np.linalg.norm(rc.p - rg.p) <= 1e-10 * np.linalg.norm(rg.p)

    def test_fully_stored_blocks_checked_on_dense_view(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((3, 3))
        spd = g @ g.T + 3.0 * np.eye(3)
        bent = spd.copy()
        bent[0, 1] += 1e-9 * np.abs(spd).max()
        assert SparseMatrix.from_dense(bent)._full is not None
        A = rng.standard_normal((3, 3))
        with pytest.raises(NotSpsdError):
            SaddleSystem.from_matrices(spd, A, bent, np.ones(3))
        assert SaddleSystem.from_matrices(spd, A, spd, np.ones(3)).symmetric

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["Mmat", "A", "C", "b"])
    def test_system_rejects_non_finite(self, hand_system, block, bad):
        if block == "b":
            value = np.array([bad])
        else:
            dense = getattr(hand_system, block).to_dense()
            dense[0, 0] = bad
            value = SparseMatrix.from_dense(dense)
        if block == "Mmat":  # Mmat is read off the factor
            block, value = "M", dataclasses.replace(hand_system.M, matrix=value)
        with pytest.raises(NonFiniteError):
            dataclasses.replace(hand_system, **{block: value})

    def test_every_construction_path_derives_mmat_and_symmetric_from_m(self, tmp_path):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 6))
        spd, A, C = g @ g.T + 6.0 * np.eye(6), rng.standard_normal((6, 3)), np.eye(3)
        oseen = StokesSpec(nx=4, ny=4, viscosity=0.1, oseen_wind="poiseuille")
        systems = [SaddleSystem.from_matrices(M, A, C, np.ones(3))
                   for M in (spd, spd + np.triu(g, 1), np.diag(np.diag(spd)))]
        systems += [random_system(12, 5, skew=skew, seed=2) for skew in (0.0, 0.5)]
        systems += [gen_stokes_channel(StokesSpec(nx=4, ny=4)), gen_stokes_channel(oseen)]
        systems.append(load_system(save_system(str(tmp_path), systems[-1])))
        systems.append(compress_rhs(spd, A, C, np.ones(6), np.ones(3))[0])
        for sys in systems:
            assert sys.Mmat is sys.M.matrix
            assert sys.symmetric == (sys.M.kind != "lu-general")
        assert [sys.M.kind for sys in systems] == (
            ["cholesky-spd", "lu-general", "diagonal", "cholesky-spd", "lu-general",
             "cholesky-spd", "lu-general", "lu-general", "cholesky-spd"])
        assert [f.name for f in dataclasses.fields(SaddleSystem)] == ["M", "A", "C", "b"]

    @pytest.mark.parametrize("skew", [0.0, 0.5])
    def test_validation_does_not_densify(self, monkeypatch, skew):
        sys = random_system(30, 12, skew=skew, c_rank=5, seed=4, density=0.3)
        calls = []
        to_dense = SparseMatrix.to_dense

        def counting(self):
            calls.append(self.shape)
            return to_dense(self)

        monkeypatch.setattr(SparseMatrix, "to_dense", counting)
        SaddleSystem(sys.M, sys.A, sys.C, sys.b)
        factorize(SparseMatrix.from_dense(np.diag(np.arange(1.0, 13.0))))
        assert calls == []
        built = SaddleSystem.from_matrices(sys.Mmat, sys.A, sys.C, sys.b)
        assert calls == [(30, 30)]  # the dense factor's input only
        assert built.symmetric == (skew == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(criterion="error-estimate", error_delay=0)
        with pytest.raises(ValueError):
            SolverConfig(criterion="nonsense")

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # An infinite tolerance stopped nsCRAIG after one step as "converged".
        with pytest.raises(ValueError):
            SolverConfig(tolerance=tolerance)


class TestHandInstance:
    def test_exact_termination_and_solution(self, hand_system):
        res = craig_solve(hand_system, FactorizedOperator.identity(1))
        assert res.iterations == 1
        assert res.termination == "exact-termination"
        assert np.allclose(res.u, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        assert np.allclose(res.p, [-1.0 / 3.0], atol=1e-14)
        assert res.betas[0] == 1.0
        assert abs(res.alphas[0] - math.sqrt(3.0)) <= 1e-14
        assert abs(res.scalars[0] - 1.0 / math.sqrt(3.0)) <= 1e-14
        assert len(res.history) == res.iterations

    def test_wrong_solver(self, hand_system_nonsym):
        with pytest.raises(WrongSolverError):
            craig_solve(hand_system_nonsym, None)

    def test_zero_rhs(self, hand_system):
        sys0 = SaddleSystem(hand_system.M, hand_system.A, hand_system.C, np.zeros(1))
        with pytest.raises(ZeroRhsError):
            craig_solve(sys0, None)


def test_eigenvector_rhs_terminates_in_one_step():
    sys = random_system(8, 4, c_rank=2, seed=21)
    nd = np.random.default_rng(21).uniform(0.5, 2.0, 4)
    N = factorize(np.diag(nd))
    S = SchurOperator(sys).dense()
    lam, V = scipy.linalg.eigh(S / np.outer(np.sqrt(nd), np.sqrt(nd)))
    b = np.sqrt(nd) * V[:, 2]  # any eigenvector of S N^{-1}
    sys_eig = SaddleSystem(sys.M, sys.A, sys.C, b)
    res = craig_solve(sys_eig, N)
    assert res.iterations == 1
    assert res.termination == "exact-termination"
    z_star = np.concatenate(direct_solve(sys_eig))
    err = np.linalg.norm(res.final_vector() - z_star) / np.linalg.norm(z_star)
    assert err <= 1e-10


def _reference_craig_c_zero(Md, Ad, b, steps):
    """Independent CRAIG recurrence for C = O, N = I (prior-work algorithm)."""
    Msolve = np.linalg.solve
    beta1 = np.linalg.norm(b)
    q = b / beta1
    w = Msolve(Md, Ad @ q)
    alpha = math.sqrt(w @ Md @ w)
    v = w / alpha
    r = q.copy()
    zeta = beta1 / alpha
    u = zeta * v
    p = -(zeta / alpha) * r
    us, ps = [u.copy()], [p.copy()]
    for _ in range(steps - 1):
        g = Ad.T @ v - alpha * q
        beta = np.linalg.norm(g)
        if beta <= 1e-14 * beta1:
            break
        q = g / beta
        w = Msolve(Md, Ad @ q - beta * (Md @ v))
        r = q - (beta / alpha) * r
        alpha = math.sqrt(w @ Md @ w)
        v = w / alpha
        zeta = -(beta / alpha) * zeta
        u = u + zeta * v
        p = p - (zeta / alpha) * r
        us.append(u.copy())
        ps.append(p.copy())
    return us, ps


def test_zero_c_matches_prior_recurrence_and_direct_solve():
    sys = random_system(8, 4, c_rank=0, seed=22)
    cfg = SolverConfig(tolerance=1e-300, max_iterations=4)
    runs = replay(craig_solve, sys, None, cfg)
    res = runs[-1]
    us, ps = _reference_craig_c_zero(sys.Mmat.to_dense(), sys.A.to_dense(), sys.b, 4)
    for k in range(min(len(us), res.iterations)):
        assert np.linalg.norm(runs[k].u - us[k]) <= 1e-12 * np.linalg.norm(us[k])
        assert np.linalg.norm(runs[k].p - ps[k]) <= 1e-12 * np.linalg.norm(ps[k])
    z_star = np.concatenate(direct_solve(sys))
    assert np.linalg.norm(res.final_vector() - z_star) <= 1e-9 * np.linalg.norm(z_star)


class TestErrorEstimate:
    def test_single_term(self):
        assert craig_error_estimate([1.0], 1, 1) == 1.0

    def test_two_equal_terms(self):
        assert craig_error_estimate([1.0, 1.0], 2, 1) == 0.5

    def test_window_covers_everything(self):
        assert craig_error_estimate([3.0, 4.0], 2, 2) == 1.0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            craig_error_estimate([1.0], 1, 2)

    def test_estimate_mode_stops(self):
        sys = random_system(16, 8, c_rank=4, seed=23)
        cfg = SolverConfig(tolerance=1e-8, criterion="error-estimate", error_delay=2)
        res = craig_solve(sys, None, cfg)
        assert res.termination in ("converged", "exact-termination")
        if res.termination == "converged":
            assert res.fired_criterion == "error-estimate"
            assert res.history[-1].err_est < 1e-8


class TestResidualCheck:
    def test_defects_small_on_converged_run(self):
        sys = random_system(12, 6, c_rank=3, seed=24)
        N = random_preconditioner(6, seed=24)
        rep = craig_residual_check(sys, N, craig_solve, SolverConfig())
        assert max(rep.dual_defects) <= 1e-8
        assert max(rep.upper_ratios) <= 1e-9

    def test_hand_instance_zero_residual(self, hand_system):
        rep = craig_residual_check(hand_system, None, craig_solve, SolverConfig())
        assert rep.dual_defects[0] <= 1e-14

    def test_corrupted_scalar_detected(self):
        sys = random_system(12, 6, c_rank=3, seed=25)
        res = craig_solve(sys, None, SolverConfig())
        k = res.iterations // 2
        expected = res.history[k - 1].beta_next * abs(res.history[k - 1].scalar) / res.betas[0]

        def corrupted(s, N, cfg):  # doubles step k's stored scalar in every run that reaches it
            run = craig_solve(s, N, cfg)
            if run.iterations >= k:
                rec = run.history[k - 1]
                run.history = History([*run.history[:k - 1],
                                       dataclasses.replace(rec, scalar=2.0 * rec.scalar),
                                       *run.history[k:]])
            return run

        rep = craig_residual_check(sys, None, corrupted, SolverConfig())
        assert abs(rep.dual_defects[k - 1] - expected) <= 1e-8 + 1e-6 * expected
        assert rep.dual_defects[k - 1] > 1e-10

    def test_missing_history_rejected(self):
        # A = 0 and C = 0: alpha_1 vanishes, so the run ends before recording a step.
        sys = random_system(8, 4, seed=26)
        sys0 = SaddleSystem(sys.M, SparseMatrix.zeros(8, 4), SparseMatrix.zeros(4, 4), sys.b)
        assert craig_solve(sys0, None).iterations == 0
        with pytest.raises(InsufficientHistoryError):
            craig_residual_check(sys0, None, craig_solve)


def test_matches_preconditioned_cg(hand_system):
    sys = random_system(20, 10, c_rank=5, seed=27)
    N = random_preconditioner(10, seed=27)
    cfg = SolverConfig(tolerance=1e-10)
    rc = replay(craig_solve, sys, N, cfg)
    rg = replay(scr_cg_solve, sys, N, cfg)
    assert rc[-1].iterations == rg[-1].iterations
    for c, g in zip(rc, rg):
        assert np.linalg.norm(c.p - g.p) <= 1e-9 * np.linalg.norm(g.p)
        want_u = -sys.M.solve(sys.A.matvec(c.p))
        assert np.linalg.norm(c.u - want_u) <= 1e-9 * max(np.linalg.norm(want_u), 1e-30)


def test_energy_error_identity_full_length():
    sys = random_system(16, 8, c_rank=4, seed=28, spectrum=(1.0, 1e3))
    N = random_preconditioner(8, seed=28)
    cfg = SolverConfig(tolerance=1e-300, max_iterations=8, reorthogonalize=True)
    runs = replay(craig_solve, sys, N, cfg)
    res = runs[-1]
    u_star, p_star = direct_solve(sys)
    Md, Cd = sys.Mmat.to_dense(), sys.C.to_dense()
    z = np.array(res.scalars)
    total = float(z @ z)
    for k in range(res.iterations):
        du = u_star - runs[k].u
        dp = p_star - runs[k].p
        lhs = du @ Md @ du + dp @ Cd @ dp
        rhs = float(z[k + 1:] @ z[k + 1:])
        assert abs(lhs - rhs) <= 1e-8 * total


def test_schur_norm_error_strictly_decreases():
    sys = random_system(16, 8, c_rank=4, seed=29)
    runs = replay(craig_solve, sys, None, SolverConfig())
    _, p_star = direct_solve(sys)
    S = SchurOperator(sys).dense()
    errs = [math.sqrt((p_star - run.p) @ S @ (p_star - run.p)) for run in runs]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_residual_orthogonal_to_basis_with_reorthogonalization():
    sys = random_system(14, 7, c_rank=3, seed=30)
    N = random_preconditioner(7, seed=30)
    rep = craig_residual_check(sys, N, craig_solve,
                               SolverConfig(keep_basis=True, reorthogonalize=True))
    assert max(rep.orth_defects) <= 1e-8 * rep.beta1


def test_constrained_minimization_property():
    # Candidates live in the Krylov spans and are tied by the first block
    # equation (u = -M^{-1} A p, so M u + A p = 0 as every iterate satisfies);
    # the iterate attains the energy-error minimum over that set and the
    # residual-orthogonality condition characterizes the argmin.
    sys = random_system(6, 3, c_rank=2, seed=31)
    N = random_preconditioner(3, seed=31)
    cfg = SolverConfig(tolerance=1e-300, max_iterations=3, keep_basis=True,
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
        # f(y) = ||u* - U y||_M^2 + (p* - Q y)^T C (p* - Q y), y in R^k
        H = U.T @ Md @ U + Q.T @ Cd @ Q
        g = U.T @ Md @ u_star + Q.T @ Cd @ p_star
        y_min = np.linalg.solve(H, g)
        obj_min = objective(U @ y_min, Q @ y_min)
        obj_craig = objective(runs[k - 1].u, runs[k - 1].p)
        assert abs(obj_craig - obj_min) <= 1e-8 * (1.0 + obj_min)
        # the argmin satisfies the Galerkin orthogonality of the lower residual
        resid = sys.b - Ad.T @ (U @ y_min) + Cd @ (Q @ y_min)
        assert np.linalg.norm(Q.T @ resid) <= 1e-8 * res.betas[0]
        # randomly perturbing the coefficients never does better
        rng = np.random.default_rng(100 + k)
        for _ in range(25):
            y = y_min + rng.standard_normal(k) * 0.3
            assert objective(U @ y, Q @ y) >= obj_min - 1e-10


def test_both_criteria_records_first_fired():
    sys = random_system(16, 8, c_rank=4, seed=32)
    cfg = SolverConfig(tolerance=1e-6, criterion="both", error_delay=2)
    res = craig_solve(sys, None, cfg)
    if res.termination == "converged":
        assert res.fired_criterion in ("relative-residual", "error-estimate")


def test_max_iterations_termination():
    sys = random_system(20, 10, c_rank=5, seed=33, spectrum=(1.0, 1e4))
    res = craig_solve(sys, None, SolverConfig(tolerance=1e-30, max_iterations=3))
    assert res.termination == "max-iterations"
    assert res.iterations == 3
    assert len(res.history) == 3


def test_stored_basis_outgrows_initial_capacity():
    # Ill-conditioned CRAIG without reorthogonalization runs past n steps; the
    # stored basis starts at one row and doubles seven times, to 128 rows.
    sys = random_system(40, 20, c_rank=10, seed=7, spectrum=(1.0, 1e6))
    res = craig_solve(sys, None, SolverConfig(tolerance=1e-300, max_iterations=80,
                                              keep_basis=True))
    assert res.iterations == 80 > 2 * (sys.n + 1)
    assert len(res.Q) == 80
