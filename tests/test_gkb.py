"""Bidiagonalization oracles on the explicitly augmented system."""

import math

import numpy as np
import pytest

from conftest import random_preconditioner, random_system
from gsp import (
    SpdPreconditioner,
    augment,
    gkb_nonsymmetric,
    gkb_symmetric,
    verify_decomposition,
)
from gsp.craig import craig_solve
from gsp.errors import DegenerateBlockError, ZeroRhsError
from gsp.nscraig import nscraig_solve
from gsp.system import SaddleSystem, SolverConfig


def full_length_config(n):
    return SolverConfig(tolerance=1e-300, max_iterations=n, reorthogonalize=True)


class TestSymmetric:
    def test_hand_instance_terminates_after_one_step(self, hand_system):
        aug = augment(hand_system)
        N = SpdPreconditioner.identity(1)
        basis, factors = gkb_symmetric(aug, N, steps=1)
        assert factors.betas[0] == 1.0
        assert np.allclose(basis.Q[0], [1.0])
        assert abs(factors.alphas[0] - math.sqrt(3.0)) <= 1e-14
        assert factors.betas[1] <= 1e-14  # early termination

    def test_zero_c_rejected(self, hand_system):
        sys0 = SaddleSystem(hand_system.M, hand_system.A, type(hand_system.C).zeros(1, 1),
                            hand_system.b)
        with pytest.raises(DegenerateBlockError):
            augment(sys0)

    def test_zero_rhs_rejected(self, hand_system):
        sys0 = SaddleSystem(hand_system.M, hand_system.A, hand_system.C, np.zeros(1))
        with pytest.raises(ZeroRhsError):
            gkb_symmetric(augment(sys0), SpdPreconditioner.identity(1), steps=1)

    def test_full_length_identities(self):
        sys = random_system(8, 4, c_rank=2, seed=7)
        N = random_preconditioner(4, seed=7)
        aug = augment(sys)
        basis, factors = gkb_symmetric(aug, N, steps=4)
        assert factors.betas[-1] <= 1e-9 * factors.betas[0]
        rep = verify_decomposition(aug, N, basis, factors, symmetric=True)
        assert rep.factor_residual <= 1e-9 * rep.scale
        assert rep.transpose_residual <= 1e-9 * rep.scale
        assert rep.q_orthogonality <= 1e-8
        assert rep.v_orthogonality <= 1e-8

    def test_schur_residual_at_full_length(self):
        sys = random_system(6, 3, c_rank=3, seed=8)
        N = random_preconditioner(3, seed=8)
        aug = augment(sys)
        basis, factors = gkb_symmetric(aug, N, steps=3)
        rep = verify_decomposition(aug, N, basis, factors, symmetric=True)
        B = factors.bidiagonal()
        assert rep.schur_residual is not None
        assert rep.schur_residual <= 1e-9 * np.linalg.norm(B.T @ B)

    def test_perturbed_basis_reports_defect(self):
        sys = random_system(6, 3, c_rank=2, seed=9)
        N = random_preconditioner(3, seed=9)
        aug = augment(sys)
        basis, factors = gkb_symmetric(aug, N, steps=3)
        basis.Q[1] = 1.01 * basis.Q[1]
        rep = verify_decomposition(aug, N, basis, factors, symmetric=True)
        assert 1.5e-2 <= rep.q_orthogonality <= 3e-2

    def test_scalars_match_craig(self):
        sys = random_system(10, 5, c_rank=3, seed=10)
        N = random_preconditioner(5, seed=10)
        _, factors = gkb_symmetric(augment(sys), N, steps=5)
        result = craig_solve(sys, N, full_length_config(5))
        for a, b in zip(factors.alphas, result.alphas):
            assert abs(a - b) <= 1e-10 * abs(b)
        for a, b in zip(factors.betas[:-1], result.betas[:-1]):
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300)


class TestNonsymmetric:
    def test_hand_instance_alpha(self, hand_system_nonsym):
        aug = augment(hand_system_nonsym)
        N = SpdPreconditioner.identity(1)
        basis, factors = gkb_nonsymmetric(aug, N, steps=1)
        assert factors.betas[0] == 1.0
        assert abs(factors.alphas[0] - math.sqrt(2.6)) <= 1e-14

    def test_symmetric_input_reduces_to_symmetric_factors(self):
        sys = random_system(8, 4, c_rank=2, seed=11)
        N = random_preconditioner(4, seed=11)
        aug = augment(sys)
        basis_n, factors_n = gkb_nonsymmetric(aug, N, steps=4)
        basis_s, factors_s = gkb_symmetric(aug, N, steps=4)
        L = factors_n.lower_factor
        assert np.abs(L - np.eye(len(factors_n.alphas))).max() <= 1e-10
        H = factors_n.hessenberg()
        B = factors_n.bidiagonal()
        assert np.abs(H - B.T).max() <= 1e-10 * np.abs(B).max()
        for a, b in zip(factors_n.alphas, factors_s.alphas):
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_full_length_identities_and_hessenberg_product(self):
        sys = random_system(8, 4, skew=0.5, c_rank=2, seed=12)
        N = random_preconditioner(4, seed=12)
        aug = augment(sys)
        basis, factors = gkb_nonsymmetric(aug, N, steps=4)
        rep = verify_decomposition(aug, N, basis, factors, symmetric=False)
        assert rep.factor_residual <= 1e-9 * rep.scale
        assert rep.transpose_residual <= 1e-9 * rep.scale
        assert rep.q_orthogonality <= 1e-8
        assert rep.v_orthogonality <= 1e-8
        H, B, L = factors.hessenberg(), factors.bidiagonal(), factors.lower_factor
        assert np.abs(H - B.T @ L.T).max() <= 1e-10 * max(np.abs(H).max(), 1.0)

    def test_preconditioned_schur_eigenvalues(self):
        sys = random_system(8, 4, skew=0.5, c_rank=2, seed=13)
        N = random_preconditioner(4, seed=13)
        aug = augment(sys)
        _, factors = gkb_nonsymmetric(aug, N, steps=4)
        HB = factors.hessenberg() @ factors.bidiagonal()
        Ad = sys.A.to_dense()
        S = Ad.T @ np.column_stack([sys.M.solve(Ad[:, j]) for j in range(4)]) + sys.C.to_dense()
        d = np.sqrt(N.operator.matrix.csr.diagonal())
        centered = S / np.outer(d, d)
        got = np.sort_complex(np.linalg.eigvals(HB))
        want = np.sort_complex(np.linalg.eigvals(centered))
        assert np.abs(got - want).max() <= 1e-8 * max(np.abs(want).max(), 1.0)

    def test_scalars_match_nscraig(self):
        sys = random_system(10, 5, skew=0.5, c_rank=3, seed=14)
        N = random_preconditioner(5, seed=14)
        _, factors = gkb_nonsymmetric(augment(sys), N, steps=5)
        result = nscraig_solve(sys, N, SolverConfig(tolerance=1e-300, max_iterations=5))
        for a, b in zip(factors.alphas, result.alphas):
            assert abs(a - b) <= 1e-10 * abs(b)
        for a, b in zip(factors.betas[:-1], result.betas[:-1]):
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300)
