"""Generators, RHS compression, and problem validators."""

import numpy as np
import pytest

from gsp import (
    RandomSpec,
    SparseMatrix,
    StokesSpec,
    compress_rhs,
    direct_solve,
    gen_random,
    gen_stokes_channel,
    gen_stokes_channel_detailed,
    load_system,
    recover_w,
    save_system,
    schur_condition_number,
    validate_system,
)


class TestGenRandom:
    def test_deterministic_in_seed(self):
        spec = RandomSpec(m=10, n=5, density=0.7, skew_strength=0.3, c_rank=2, seed=3)
        a = gen_random(spec)
        b = gen_random(spec)
        assert np.array_equal(a.Mmat.values, b.Mmat.values)
        assert np.array_equal(a.A.values, b.A.values)
        assert np.array_equal(a.C.values, b.C.values)
        assert np.array_equal(a.b, b.b)

    def test_symmetric_instance_properties(self):
        sys = gen_random(RandomSpec(m=8, n=4, spectrum=(1.0, 2.0), c_rank=2, seed=7))
        assert sys.symmetric
        eigs = np.linalg.eigvalsh(sys.Mmat.to_dense())
        assert eigs.min() >= 1.0 - 1e-12
        assert np.linalg.matrix_rank(sys.C.to_dense(), tol=1e-10) == 2
        validate_system(sys)

    def test_skew_instance_keeps_definite_symmetric_part(self):
        sys = gen_random(RandomSpec(m=8, n=4, skew_strength=0.5, c_rank=2, seed=7))
        assert not sys.symmetric
        md = sys.Mmat.to_dense()
        sym_eigs = np.linalg.eigvalsh((md + md.T) / 2)
        assert sym_eigs.min() > 0.0
        validate_system(sys)

    def test_zero_c_rank(self):
        sys = gen_random(RandomSpec(m=6, n=3, c_rank=0, seed=1))
        assert sys.C.nnz == 0
        validate_system(sys)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomSpec(m=4, n=5)
        with pytest.raises(ValueError):
            RandomSpec(m=4, n=2, density=0.0)
        with pytest.raises(ValueError):
            RandomSpec(m=4, n=2, c_rank=3)
        with pytest.raises(ValueError):
            RandomSpec(m=4, n=2, spectrum=(0.0, 1.0))

    def test_full_rank_at_low_density(self):
        sys = gen_random(RandomSpec(m=30, n=10, density=0.1, c_rank=5, seed=5))
        sv = np.linalg.svd(sys.A.to_dense(), compute_uv=False)
        assert sv.min() > 1e-10 * sv.max()


class TestGenStokes:
    def test_dimension_formula(self):
        sys = gen_stokes_channel(StokesSpec(nx=4, ny=4))
        assert sys.m == 3 * 4 + 4 * 3 == 24
        assert sys.n == 15

    def test_zero_gamma_gives_zero_c(self):
        sys = gen_stokes_channel(StokesSpec(nx=3, ny=3, gamma=0.0))
        assert sys.C.nnz == 0

    def test_manufactured_solution_recovered(self):
        prob = gen_stokes_channel_detailed(StokesSpec(nx=6, ny=4, viscosity=0.7))
        u, p = direct_solve(prob.system)
        assert np.linalg.norm(p - prob.pressure) <= 1e-8 * np.linalg.norm(prob.pressure)
        w = recover_w(u, prob.w0)
        assert np.linalg.norm(w - prob.velocity) <= 1e-8 * max(np.linalg.norm(prob.velocity), 1.0)

    def test_hypotheses_hold(self):
        validate_system(gen_stokes_channel(StokesSpec(nx=5, ny=3)))
        validate_system(gen_stokes_channel(StokesSpec(nx=5, ny=3, viscosity=0.1,
                                                      oseen_wind="poiseuille")))

    def test_oseen_wind_makes_nonsymmetric(self):
        sys = gen_stokes_channel(StokesSpec(nx=4, ny=4, viscosity=0.2,
                                            oseen_wind="poiseuille"))
        assert not sys.symmetric
        md = sys.Mmat.to_dense()
        assert np.abs(md - md.T).max() > 1e-8

    def test_aspect_ratio_worsens_schur_conditioning(self):
        long_cond = schur_condition_number(gen_stokes_channel(StokesSpec(nx=8, ny=8, length=8.0)))
        square_cond = schur_condition_number(gen_stokes_channel(StokesSpec(nx=8, ny=8, length=1.0)))
        assert long_cond > square_cond

    @pytest.mark.parametrize("wind", [None, "poiseuille"])
    def test_m_stored_once(self, tmp_path, wind):
        sys = gen_stokes_channel(StokesSpec(nx=4, ny=3, viscosity=0.2, oseen_wind=wind))
        loaded = load_system(save_system(tmp_path, sys))
        for s in (sys, loaded):
            assert s.M.matrix is s.Mmat

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StokesSpec(nx=1, ny=4)
        with pytest.raises(ValueError):
            StokesSpec(nx=4, ny=4, viscosity=0.0)
        with pytest.raises(ValueError):
            StokesSpec(nx=4, ny=4, oseen_wind="vortex")


class TestCompressRhs:
    def test_hand_example(self):
        sys, w0 = compress_rhs(np.eye(2), np.array([[1.0], [1.0]]), np.array([[1.0]]),
                               b1=[1.0, 0.0], b2=[2.0])
        assert np.allclose(w0, [1.0, 0.0])
        assert np.allclose(sys.b, [1.0])

    def test_zero_b1_is_identity(self):
        sys, w0 = compress_rhs(np.eye(2), np.array([[1.0], [1.0]]), np.array([[1.0]]),
                               b1=[0.0, 0.0], b2=[2.0])
        assert np.allclose(w0, 0.0)
        assert np.allclose(sys.b, [2.0])
        assert np.allclose(recover_w(np.array([3.0, 4.0]), w0), [3.0, 4.0])

    def test_round_trip_against_block_direct_solve(self):
        rng = np.random.default_rng(9)
        m, n = 10, 4
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        Md = (q * rng.uniform(1.0, 2.0, m)) @ q.T
        Md = (Md + Md.T) / 2
        Ad = rng.standard_normal((m, n))
        qc, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        Cd = qc @ qc.T
        Cd = (Cd + Cd.T) / 2
        b1 = rng.standard_normal(m)
        b2 = rng.standard_normal(n)
        sys, w0 = compress_rhs(Md, Ad, Cd, b1, b2)
        u, p = direct_solve(sys)
        w = recover_w(u, w0)
        K = np.block([[Md, Ad], [Ad.T, -Cd]])
        z_star = np.linalg.solve(K, np.concatenate([b1, b2]))
        got = np.concatenate([w, p])
        assert np.linalg.norm(got - z_star) <= 1e-9 * np.linalg.norm(z_star)
