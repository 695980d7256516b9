"""The bidiagonalization oracle on C = 0 systems and on the augmented form of the others."""

import math

import numpy as np
import pytest

from conftest import LoggedSolves, random_preconditioner, random_system
from gsp import (
    FactorizedOperator,
    SparseMatrix,
    augment,
    bidiagonalize,
    factorize,
    verify_decomposition,
)
from gsp.craig import craig_solve
from gsp.errors import (BreakdownError, DimensionError, NotSpdError, WrongSolverError,
                        ZeroRhsError)
from gsp.nscraig import nscraig_solve
from gsp.system import SaddleSystem, SolverConfig


def full_length_config(n):
    return SolverConfig(tolerance=1e-300, max_iterations=n)


# (m, n, c_rank, seed) of every symmetric random system that TestSymmetric and
# TestZeroC bidiagonalize to full length, and of the one below
SYMMETRIC = [(8, 4, 2, 7), (6, 3, 3, 8), (6, 3, 2, 9), (10, 5, 3, 10), (8, 4, 2, 11),
             (12, 6, 0, 600), (24, 12, 0, 601)]

# Each refusal of the oracle is checked on a symmetric M (skew 0) and on a nonsymmetric
# one (skew 0.5); the ids name the two kinds of run.
M_KINDS = pytest.mark.parametrize("skew", [0.0, 0.5], ids=["gkb_symmetric", "gkb_nonsymmetric"])


def skewed(sys, skew):
    """sys with skew * (e0 e1^T - e1 e0^T) added to M; skew = 0 returns sys."""
    if skew == 0.0:
        return sys
    M = sys.Mmat.to_dense()
    M[0, 1] += skew
    M[1, 0] -= skew
    return SaddleSystem.from_matrices(M, sys.A, sys.C, sys.b)


class TestSymmetric:
    def test_hand_instance_terminates_after_one_step(self, hand_system):
        aug = augment(hand_system)
        N = FactorizedOperator.identity(1)
        gkb = bidiagonalize(aug, N, steps=1)
        assert gkb.betas[0] == 1.0
        assert np.allclose(gkb.Q[0], [1.0])
        assert abs(gkb.alphas[0] - math.sqrt(3.0)) <= 1e-14
        assert gkb.betas[1] <= 1e-14  # early termination

    def test_stored_c_refused(self, hand_system):
        with pytest.raises(WrongSolverError, match="augment"):
            bidiagonalize(hand_system, FactorizedOperator.identity(1), steps=1)

    def test_augment_takes_every_c_saddle_system_takes(self):
        # C = e0 e0^T plus 0.9e-12 at (1, 2): inside is_symmetric's bound 1e-12 max|C|,
        # outside a Frobenius-norm bound sqrt(2) 0.9e-12 > 1e-12 ||C||_F.
        base = random_system(10, 5, c_rank=0, seed=15)
        C = SparseMatrix.from_coo(5, 5, [0, 1], [0, 2], [1.0, 0.9e-12])
        aug = augment(SaddleSystem(base.M, base.A, C, base.b))
        assert (aug.m, aug.n, aug.C.nnz) == (11, 5, 0)
        assert np.array_equal(np.abs(aug.A.to_dense()[10]), [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_zero_rhs_rejected(self, hand_system):
        sys0 = SaddleSystem(hand_system.M, hand_system.A, hand_system.C, np.zeros(1))
        with pytest.raises(ZeroRhsError):
            bidiagonalize(augment(sys0), FactorizedOperator.identity(1), steps=1)

    @pytest.mark.parametrize("case, refusal", [("nonsymmetric", NotSpdError),
                                               ("dimension-n-plus-1", DimensionError)])
    @M_KINDS
    def test_n_refused_before_any_solve(self, skew, case, refusal):
        sys = random_system(40, 20, skew=skew, c_rank=0, seed=3)
        K = 2.0 * np.eye(20) + np.eye(20, k=1) if case == "nonsymmetric" else np.eye(21)
        solves = []
        with pytest.raises(refusal):
            bidiagonalize(sys, LoggedSolves(factorize(K), solves), steps=5)
        assert solves == []

    @pytest.mark.parametrize("steps", [0, 6])
    @M_KINDS
    def test_steps_outside_one_to_n_refused(self, skew, steps):
        aug = augment(random_system(10, 5, skew=skew, c_rank=0, seed=3))
        with pytest.raises(DimensionError, match=r"steps must be in \[1, 5\]"):
            bidiagonalize(aug, FactorizedOperator.identity(5), steps=steps)

    def test_full_length_identities(self):
        sys = random_system(8, 4, c_rank=2, seed=7)
        N = random_preconditioner(4, seed=7)
        aug = augment(sys)
        gkb = bidiagonalize(aug, N, steps=4)
        assert gkb.betas[-1] <= 1e-9 * gkb.betas[0]
        rep = verify_decomposition(aug, N, gkb)
        assert rep.factor_residual <= 1e-9 * rep.scale
        assert rep.transpose_residual <= 1e-9 * rep.scale
        assert rep.q_orthogonality <= 1e-8
        assert rep.v_orthogonality <= 1e-8

    def test_schur_residual_at_full_length(self):
        sys = random_system(6, 3, c_rank=3, seed=8)
        N = random_preconditioner(3, seed=8)
        aug = augment(sys)
        gkb = bidiagonalize(aug, N, steps=3)
        rep = verify_decomposition(aug, N, gkb)
        B = gkb.B
        assert rep.schur_residual is not None
        assert rep.schur_residual <= 1e-9 * np.linalg.norm(B.T @ B)

    def test_perturbed_basis_reports_defect(self):
        sys = random_system(6, 3, c_rank=2, seed=9)
        N = random_preconditioner(3, seed=9)
        aug = augment(sys)
        gkb = bidiagonalize(aug, N, steps=3)
        gkb.Q[1] = 1.01 * gkb.Q[1]
        rep = verify_decomposition(aug, N, gkb)
        assert 1.5e-2 <= rep.q_orthogonality <= 3e-2

    def test_scalars_match_craig(self):
        sys = random_system(10, 5, c_rank=3, seed=10)
        N = random_preconditioner(5, seed=10)
        gkb = bidiagonalize(augment(sys), N, steps=5)
        result = craig_solve(sys, N, full_length_config(5))
        for a, b in zip(gkb.alphas, result.alphas):
            assert abs(a - b) <= 1e-10 * abs(b)
        for a, b in zip(gkb.betas[:-1], result.betas[:-1]):
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300)


class TestNonsymmetric:
    def test_hand_instance_alpha(self, hand_system_nonsym):
        aug = augment(hand_system_nonsym)
        N = FactorizedOperator.identity(1)
        gkb = bidiagonalize(aug, N, steps=1)
        assert gkb.betas[0] == 1.0
        assert abs(gkb.alphas[0] - math.sqrt(2.6)) <= 1e-14

    def test_symmetric_input_reduces_to_symmetric_factors(self, hand_system):
        # Nothing assumes H = B^T and L = I: on a symmetric M they hold to roundoff.
        runs = [(augment(hand_system), FactorizedOperator.identity(1), 1)]
        runs += [(augment(random_system(m, n, c_rank=c_rank, seed=seed)),
                  random_preconditioner(n, seed=seed), n) for m, n, c_rank, seed in SYMMETRIC]
        for aug, N, steps in runs:
            gkb = bidiagonalize(aug, N, steps=steps)
            assert np.abs(gkb.H - gkb.B.T).max() <= 1e-10 * np.abs(gkb.B).max()
            assert np.abs(gkb.L - np.eye(gkb.k)).max() <= 1e-10

    def test_full_length_identities_and_hessenberg_product(self):
        sys = random_system(8, 4, skew=0.5, c_rank=2, seed=12)
        N = random_preconditioner(4, seed=12)
        aug = augment(sys)
        gkb = bidiagonalize(aug, N, steps=4)
        rep = verify_decomposition(aug, N, gkb)
        assert rep.factor_residual <= 1e-9 * rep.scale
        assert rep.transpose_residual <= 1e-9 * rep.scale
        assert rep.q_orthogonality <= 1e-8
        assert rep.v_orthogonality <= 1e-8
        H, B, L = gkb.H, gkb.B, gkb.L
        assert np.abs(H - B.T @ L.T).max() <= 1e-10 * max(np.abs(H).max(), 1.0)

    def test_preconditioned_schur_eigenvalues(self):
        sys = random_system(8, 4, skew=0.5, c_rank=2, seed=13)
        N = random_preconditioner(4, seed=13)
        aug = augment(sys)
        gkb = bidiagonalize(aug, N, steps=4)
        HB = gkb.H @ gkb.B
        Ad = sys.A.to_dense()
        S = Ad.T @ np.column_stack([sys.M.solve(Ad[:, j]) for j in range(4)]) + sys.C.to_dense()
        d = np.sqrt(N.matrix.csr.diagonal())
        centered = S / np.outer(d, d)
        got = np.sort_complex(np.linalg.eigvals(HB))
        want = np.sort_complex(np.linalg.eigvals(centered))
        assert np.abs(got - want).max() <= 1e-8 * max(np.abs(want).max(), 1.0)

    def test_scalars_match_nscraig(self):
        sys = random_system(10, 5, skew=0.5, c_rank=3, seed=14)
        N = random_preconditioner(5, seed=14)
        gkb = bidiagonalize(augment(sys), N, steps=5)
        result = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=5))
        for a, b in zip(gkb.alphas, result.alphas):
            assert abs(a - b) <= 1e-10 * abs(b)
        for a, b in zip(gkb.betas[:-1], result.betas[:-1]):
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300)


ZERO_C = [(12, 0.0, 600), (24, 0.0, 601), (12, 0.5, 602), (24, 0.5, 603)]


class TestZeroC:
    """C = 0 (rank 0) systems: augment adds no rows and the oracle runs on them."""

    @pytest.mark.parametrize("m,skew,seed", ZERO_C)
    def test_augment_adds_no_rows(self, m, skew, seed):
        sys = random_system(m, m // 2, skew=skew, c_rank=0, seed=seed)
        aug = augment(sys)
        assert (aug.m, aug.n, aug.C.nnz) == (m, m // 2, 0)
        assert aug.M.kind == sys.M.kind
        assert np.array_equal(aug.A.to_dense(), sys.A.to_dense())

    @pytest.mark.parametrize("m,skew,seed", ZERO_C)
    def test_scalars_match_production_solvers(self, m, skew, seed):
        n = m // 2
        sys = random_system(m, n, skew=skew, c_rank=0, seed=seed)
        N = random_preconditioner(n, seed=seed)
        solve = craig_solve if skew == 0.0 else nscraig_solve
        # the oracle orthogonalizes fully and CRAIG not at all; at n <= 12 steps both
        # solvers stay within these bounds
        gkb = bidiagonalize(augment(sys), N, steps=n)
        result = solve(sys, N, full_length_config(n))
        assert len(gkb.alphas) == len(result.alphas) == n
        for a, b in zip(gkb.alphas, result.alphas):
            assert abs(a - b) <= 1e-10 * abs(b)
        for a, b in zip(gkb.betas[:n], result.betas[:n]):  # beta_{n+1} is roundoff
            assert abs(a - b) <= 1e-10 * abs(b)

    @pytest.mark.parametrize("m,skew,seed", ZERO_C)
    def test_full_length_identities(self, m, skew, seed):
        n = m // 2
        sys = random_system(m, n, skew=skew, c_rank=0, seed=seed)
        N = random_preconditioner(n, seed=seed)
        aug = augment(sys)
        gkb = bidiagonalize(aug, N, steps=n)
        assert gkb.k == n
        rep = verify_decomposition(aug, N, gkb)
        assert rep.factor_residual <= 1e-9 * rep.scale
        assert rep.transpose_residual <= 1e-9 * rep.scale
        assert rep.q_orthogonality <= 1e-8
        assert rep.v_orthogonality <= 1e-8
        assert rep.schur_residual <= 1e-8 * np.linalg.norm(gkb.H @ gkb.B)


@M_KINDS
def test_oracle_refuses_b_outside_the_range_of_a_transpose(skew, inconsistent_system):
    N = FactorizedOperator.identity(inconsistent_system.n)
    with pytest.raises(BreakdownError, match=r"^alpha_1 vanished: b is outside Range\(A\^T\)$"):
        bidiagonalize(skewed(inconsistent_system, skew), N, steps=1)


@M_KINDS
def test_oracle_refuses_a_vanishing_alpha_mid_run(skew, inconsistent_system):
    # b = (1, 1) has a component in Range(A^T), so alpha_1 is fine, but A's zero
    # second column leaves nothing for step 2: alpha_2 is rounding error (about 2e-16).
    sys = skewed(SaddleSystem(inconsistent_system.M, inconsistent_system.A,
                              inconsistent_system.C, np.ones(2)), skew)
    N = FactorizedOperator.identity(sys.n)
    with pytest.raises(BreakdownError, match=r"^alpha_2 = .* below breakdown tolerance$"):
        bidiagonalize(sys, N, steps=2)
