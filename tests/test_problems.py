"""Generators, RHS compression, and problem validators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from gsp import (
    FactorizedOperator,
    RandomSpec,
    SaddleSystem,
    SchurOperator,
    SolverConfig,
    SparseMatrix,
    StokesSpec,
    bidiagonalize,
    compress_rhs,
    craig_solve,
    direct_solve,
    factorize,
    gen_random,
    gen_stokes_channel,
    gen_stokes_channel_detailed,
    load_system,
    recover_w,
    save_system,
    schur_condition_number,
    validate_system,
    verify_decomposition,
)
from gsp.errors import DimensionError, NotSpdError, NotSpsdError, RankRepairError
from gsp.linops import DENSE_FACTOR_DENSITY


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

    def test_rank_repair_restores_full_rank(self):
        # One entry per column (per_col = 1); seed 1 puts two columns on the
        # same row, so A is rank deficient until the repair mixes the columns.
        sys = gen_random(RandomSpec(m=6, n=4, density=0.1, seed=1))
        assert sys.A.nnz > sys.n  # repaired: no longer one entry per column
        assert np.linalg.matrix_rank(sys.A.to_dense()) == sys.n

    # RandomSpec fields, then sha256 digests of what no LAPACK or BLAS call
    # touches, so they hold on every host: the CSR pattern (indices, indptr)
    # of M, A and C, A's values outside the rank-repair branch, and b. Each
    # array adds its dtype string, then its bytes. Taken from the generator
    # as it was before it ran in place.
    RANDOM_PINS = {
        "random600-seed1": (
            dict(m=600, n=300, skew_strength=0.5, c_rank=150, seed=1),
            ("d104dbf2f6f79e10084c840ffe3fbbcbaa39065308219986b0c1722d5e1ec8e3",
             "6a7bd773e50589876e1d5dd5ab86550f29259e90af817ad6a3c11b00c18cc3bd",
             "c709e675c02f1fa5468757ac319b1c56e6efcf2aaafd0301314095a80c5ac00e",
             "0ac34e631573367fca6d0626dbed84abc4c0ba3f564123a9f030fa18e42792b7")),
        "random600-seed7": (
            dict(m=600, n=300, skew_strength=0.5, c_rank=150, seed=7),
            ("d104dbf2f6f79e10084c840ffe3fbbcbaa39065308219986b0c1722d5e1ec8e3",
             "1e5bc7a845cd4d146e1f5ac8579e8a2df85b61752a19ab4f3202f43356cef5a3",
             "c709e675c02f1fa5468757ac319b1c56e6efcf2aaafd0301314095a80c5ac00e",
             "11010df4b6709418c65cfd25ea70913f54848b4149b1f38e917d919a30d600d1")),
        "rank-repair": (
            dict(m=6, n=4, density=0.1, seed=1),
            ("d68558317348510a2a0ea571e386ea9c8613ef45b9101dcca41cfebf41e42641",
             "e6b54d811426ec98e19cf806c8664eea2bf2c4a2c0cc5eff21cfd22ad893ba43",
             "6f9f77974b91b7a7639193cd9a3e11c9ed8ce5a0724d87e9f330e238481ec724",
             "8f793c4e2001c61e2925d71ee2f56a8828f59ea29373077d2ac03c55a9576784")),
    }

    @pytest.mark.parametrize("name", list(RANDOM_PINS))
    def test_blas_free_outputs_are_pinned(self, name):
        fields, pins = self.RANDOM_PINS[name]
        sys = gen_random(RandomSpec(**fields))
        repaired = name == "rank-repair"
        digests = (_digest(sys.Mmat.csr.indices, sys.Mmat.csr.indptr),
                   _digest(*([] if repaired else [sys.A.csr.data]),
                           sys.A.csr.indices, sys.A.csr.indptr),
                   _digest(sys.C.csr.indices, sys.C.csr.indptr),
                   _digest(sys.b))
        assert digests == pins

    @pytest.mark.parametrize("name", list(RANDOM_PINS))
    def test_blocks_match_the_out_of_place_generator(self, name):
        # Both run in this process, so the BLAS build and thread count act
        # on both sides alike and the comparison holds on any host.
        spec = RandomSpec(**self.RANDOM_PINS[name][0])
        sys, ref = gen_random(spec), _out_of_place_random(spec)
        for S, R in ((sys.Mmat, ref.Mmat), (sys.A, ref.A), (sys.C, ref.C)):
            for got, want in ((S.csr.data, R.csr.data), (S.csr.indices, R.csr.indices),
                              (S.csr.indptr, R.csr.indptr)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(sys.b, ref.b)

    def test_generation_peak_memory(self):
        # The bound sits between this generator's 4.4 m^2 doubles and the
        # 8.0 of one that keeps QR's factors, the skew temporaries and the
        # dense M alive until the system is built.
        spec = RandomSpec(m=400, n=200, skew_strength=0.5, c_rank=100, seed=1)
        tracemalloc.start()
        try:
            gen_random(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * spec.m**2 * 8


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _out_of_place_random(spec):
    """gen_random as it read before its steps ran in place: the same RNG calls
    in the same order, each step a new array, every block dense until built."""
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    Qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(*spec.spectrum, m)
    Md = (Qm * lam) @ Qm.T
    Md = (Md + Md.T) / 2.0
    if spec.skew_strength != 0.0:
        mask = rng.random((m, m)) < spec.density
        K = rng.standard_normal((m, m)) * mask
        Md = Md + spec.skew_strength * (K - K.T)
    per_col = int(np.ceil(spec.density * m))
    Ad = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=per_col, replace=False)
        Ad[rows, j] = rng.standard_normal(per_col)
    sv = np.linalg.svd(Ad, compute_uv=False)
    if np.any(sv < 1e-10 * sv[0]):
        U, sv, Vt = np.linalg.svd(Ad, full_matrices=False)
        Ad = (U * np.where(sv < 1e-10 * sv[0], 1e-2 * sv[0], sv)) @ Vt
    if spec.c_rank == 0:
        Cd = np.zeros((n, n))
    else:
        Qc, _ = np.linalg.qr(rng.standard_normal((n, spec.c_rank)))
        lam_c = rng.uniform(1.0, 2.0, spec.c_rank)
        Cd = (Qc * lam_c) @ Qc.T
        Cd = (Cd + Cd.T) / 2.0
    b = rng.standard_normal(n)
    return SaddleSystem.from_matrices(Md, Ad, Cd, b)


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

    def test_validation_capped_before_densifying(self, monkeypatch):
        sys = gen_stokes_channel(StokesSpec(nx=33, ny=32))  # m = 2047

        def refuse(self):
            raise AssertionError("densified a system the cap refuses")

        monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
        with pytest.raises(DimensionError, match="capped at 2000"):
            validate_system(sys)

    @pytest.mark.parametrize("call, fragment", [
        (lambda sys, N, gkb: SchurOperator(sys).dense(), "SchurOperator.dense"),
        (lambda sys, N, gkb: schur_condition_number(sys), "SchurOperator.dense"),
        (lambda sys, N, gkb: verify_decomposition(sys, N, gkb), "verify_decomposition"),
    ], ids=["schur-dense", "schur-condition-number", "verify-decomposition"])
    def test_dense_schur_checks_capped_before_densifying(self, monkeypatch, call, fragment):
        sys = gen_stokes_channel(StokesSpec(nx=33, ny=32, gamma=0.0))  # m = 2047; C = 0
        N = FactorizedOperator.identity(sys.n)
        gkb = bidiagonalize(sys, N, steps=1)
        solves = []

        def refuse(self):
            raise AssertionError("densified a system the cap refuses")

        monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
        monkeypatch.setattr(type(sys.M), "solve", lambda M, x: solves.append(x))
        with pytest.raises(DimensionError, match=f"^{fragment} densifies A: m is capped at 2000$"):
            call(sys, N, gkb)
        assert not solves

    @pytest.mark.parametrize("M, A, C, exc, fragment", [
        # Nonsymmetric, so factorize takes it by LU; its symmetric part has eigenvalues -0.5 and 1.
        ([[1.0, 2.0], [0.0, -0.5]], [[1.0], [1.0]], [[1.0]], NotSpdError,
         "symmetric part of M has min eigenvalue"),
        (np.eye(3), np.ones((3, 2)), np.eye(2), RankRepairError, "A is numerically rank deficient"),
        (np.eye(2), [[1.0], [1.0]], [[-1.0]], NotSpsdError, "C has negative eigenvalue -1.0"),
    ], ids=["m-indefinite", "a-rank-deficient", "c-negative"])
    def test_validation_refuses_each_broken_hypothesis(self, M, A, C, exc, fragment):
        sys = SaddleSystem.from_matrices(np.array(M), np.array(A), np.array(C),
                                         np.ones(len(C)))
        with pytest.raises(exc, match=f"^{fragment}"):
            validate_system(sys)

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

    def test_craig_beyond_the_dense_cap(self):
        # m = 8064 was refused with DimensionError while every M was factored dense
        prob = gen_stokes_channel_detailed(StokesSpec(nx=64, ny=64))
        assert prob.system.m == 8064
        tol = 1e-8
        res = craig_solve(prob.system, prob.preconditioner, SolverConfig(tolerance=tol))
        assert res.converged
        w = recover_w(res.u, prob.w0)
        assert np.linalg.norm(w - prob.velocity) <= 100 * tol * np.linalg.norm(prob.velocity)
        assert np.linalg.norm(res.p - prob.pressure) <= 100 * tol * np.linalg.norm(prob.pressure)

    @pytest.mark.parametrize("spec", [
        StokesSpec(nx=4, ny=3),
        StokesSpec(nx=4, ny=3, gamma=0.0),
        StokesSpec(nx=6, ny=5, viscosity=0.1, oseen_wind="poiseuille"),
    ])
    def test_save_load_is_bitwise(self, tmp_path, spec):
        sys = gen_stokes_channel(spec)
        loaded = load_system(save_system(tmp_path, sys))
        for name in ("Mmat", "A", "C"):
            want, got = getattr(sys, name).csr, getattr(loaded, name).csr
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(want, attr), getattr(got, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, attr)
        assert sys.b.dtype == loaded.b.dtype and sys.b.tobytes() == loaded.b.tobytes()

    @pytest.mark.parametrize("wind", [None, "poiseuille"])
    def test_m_stored_once(self, tmp_path, wind):
        sys = gen_stokes_channel(StokesSpec(nx=4, ny=3, viscosity=0.2, oseen_wind=wind))
        loaded = load_system(save_system(tmp_path, sys))
        for s in (sys, loaded):
            assert s.M.matrix is s.Mmat

    # sha256 of (indptr, indices, data) as little-endian int64/int64/float64,
    # recorded from the dense loop assembly the sparse one replaced.
    BLOCK_DIGESTS = [
        (StokesSpec(nx=4, ny=3),
         "45b86bb8821647df757451bc34215b9b2d8f8e4c06d887af1a9debc9880049cb",
         "987f939c62a428cc50f8f49356d400947e0d122653ae161bab9f5f9fc758253a",
         "c8731e9d54bd8547df36cdba019cce3e167161092ce638cba7ad9cb860e9f380"),
        (StokesSpec(nx=4, ny=3, gamma=0.0),
         "45b86bb8821647df757451bc34215b9b2d8f8e4c06d887af1a9debc9880049cb",
         "987f939c62a428cc50f8f49356d400947e0d122653ae161bab9f5f9fc758253a",
         "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4"),
        (StokesSpec(nx=4, ny=3, viscosity=0.1, oseen_wind="poiseuille"),
         "0baf1252711243a6035cf5cc4ccc23c56c18770a67327a48e65ca7479fb62989",
         "987f939c62a428cc50f8f49356d400947e0d122653ae161bab9f5f9fc758253a",
         "c8731e9d54bd8547df36cdba019cce3e167161092ce638cba7ad9cb860e9f380"),
        (StokesSpec(nx=4, ny=3, length=3.0, oseen_wind="constant"),
         "342e4a79d26e50ae9ac998a0bd7f34f9accc594a493543c5a8f674fecd555fbf",
         "18455da3a09f869a564518b8d1a76d1a3a27412518a4ca3056305805d13b183e",
         "331f24a4c133d6fb8965f71ba47c46bb557c4beb83f065be9f623e0fe7143f12"),
        (StokesSpec(nx=32, ny=32, viscosity=1e-3, oseen_wind="poiseuille"),
         "9c38d994196a1a44ff36761c0fbb24797bd3aeb200c3197ccf06241357257524",
         "ba0c8f85e8ac68af68d58457962970a6503b80e919a184f09f739ed7d3ac89d7",
         "628d4068c08a59942efcc1f6d881b4f02ac50c1e2a9bfc2b2c8016352b743701"),
    ]

    @pytest.mark.parametrize("spec, m_digest, a_digest, c_digest", BLOCK_DIGESTS)
    def test_blocks_are_pinned_bitwise(self, spec, m_digest, a_digest, c_digest):
        def digest(S):
            h = hashlib.sha256()
            csr = S.csr
            for arr, dtype in ((csr.indptr, "<i8"), (csr.indices, "<i8"), (csr.data, "<f8")):
                h.update(arr.astype(dtype).tobytes())
            return h.hexdigest()

        sys = gen_stokes_channel(spec)
        assert (digest(sys.Mmat), digest(sys.A), digest(sys.C)) == (m_digest, a_digest, c_digest)

    # _digest of the manufactured velocity and pressure and of N's diagonal on
    # the BLOCK_DIGESTS specs, plus a windless one at viscosity 0.1, where N is
    # hx hy, not hx hy / viscosity. b and w0 go through SuperLU, so the test
    # checks them in-process against compress_rhs rather than pinning them.
    ORACLE_DIGESTS = [
        (StokesSpec(nx=4, ny=3),
         "2d8088bdaaff278f2d6c64990659bc7a5dba21b95242f10dfd201168160ac4bb",
         "714a505886935601461a7c3f18a60b1a2aad18447a979237d2a341f8803a96a4",
         "0f46e840f6dc72652c8a91b8a58794c41be88dc8109e86b11fdde20cd315f729"),
        (StokesSpec(nx=4, ny=3, gamma=0.0),
         "2d8088bdaaff278f2d6c64990659bc7a5dba21b95242f10dfd201168160ac4bb",
         "714a505886935601461a7c3f18a60b1a2aad18447a979237d2a341f8803a96a4",
         "0f46e840f6dc72652c8a91b8a58794c41be88dc8109e86b11fdde20cd315f729"),
        (StokesSpec(nx=4, ny=3, viscosity=0.1, oseen_wind="poiseuille"),
         "2d8088bdaaff278f2d6c64990659bc7a5dba21b95242f10dfd201168160ac4bb",
         "a614c6057094463e263fc803163445502202a87eb15eddd650d1aa9df8ddd689",
         "596b3e62444d25d7ab773872725738c77c4eee6bbdf79ad9afe61a0179600e61"),
        (StokesSpec(nx=4, ny=3, length=3.0, oseen_wind="constant"),
         "2d8088bdaaff278f2d6c64990659bc7a5dba21b95242f10dfd201168160ac4bb",
         "fa0a251c3b430a0f4e9834ca073a4d42496afaeb405ac30fddf06e0924a0a57e",
         "e96aedbb9e7606b87910103ecc0f6340dec93a47dd87e22e1bd960908d4469cf"),
        (StokesSpec(nx=32, ny=32, viscosity=1e-3, oseen_wind="poiseuille"),
         "15729d3c198ea45b887697f645c17b35c56ec5f9dd03caac1f88207593f6a39e",
         "b6a555c5eef438509313caf49a6fb48db2e1cbf3741662d6dd47f63a4cc359cd",
         "bdbc92500d6fbf3045d0bcc3ec6778331df19fa68ebba752dc53daa0aee54631"),
        (StokesSpec(nx=5, ny=4, viscosity=0.1),
         "2cb189671664b818d73809db152f650a9011a3885e2f834dec7b02cfc90626b6",
         "b506478d04efed848f298f0561124c5052fb61dbadd5c350d1080490949e5423",
         "6f7e2a0aefa59d8d40c5c370048f4d323dc45a527ef9981f368c40649db425fc"),
    ]

    @pytest.mark.parametrize("spec, vel_digest, p_digest, n_digest", ORACLE_DIGESTS)
    def test_oracle_data_is_pinned_bitwise(self, spec, vel_digest, p_digest, n_digest):
        prob = gen_stokes_channel_detailed(spec)
        N = prob.preconditioner
        assert N.kind == "diagonal"
        assert (_digest(prob.velocity), _digest(prob.pressure),
                _digest(N.matrix.csr.diagonal())) == (vel_digest, p_digest, n_digest)
        sys = prob.system
        want, w0 = compress_rhs(sys.Mmat, sys.A, sys.C,
                                sys.Mmat.matvec(prob.velocity) + sys.A.matvec(prob.pressure),
                                sys.A.rmatvec(prob.velocity) - sys.C.matvec(prob.pressure))
        assert _digest(sys.b, prob.w0) == _digest(want.b, w0)

    @pytest.mark.parametrize("spec", [
        StokesSpec(nx=48, ny=48),
        StokesSpec(nx=32, ny=32, viscosity=1e-3, oseen_wind="poiseuille"),
    ])
    def test_benchmark_channel_blocks_are_not_fully_stored(self, spec):
        sys = gen_stokes_channel(spec)
        assert [S._full for S in (sys.Mmat, sys.A, sys.C)] == [None, None, None]  # CSR kernels

    @pytest.mark.parametrize("wind", [None, "poiseuille"])
    def test_generation_does_not_densify(self, monkeypatch, wind):
        calls = []
        to_dense, from_dense = SparseMatrix.to_dense, SparseMatrix.from_dense.__func__

        def counting_to_dense(self):
            calls.append(("to_dense", self.shape))
            return to_dense(self)

        def counting_from_dense(cls, a):
            calls.append(("from_dense", np.shape(a)))
            return from_dense(cls, a)

        monkeypatch.setattr(SparseMatrix, "to_dense", counting_to_dense)
        monkeypatch.setattr(SparseMatrix, "from_dense", classmethod(counting_from_dense))
        prob = gen_stokes_channel_detailed(StokesSpec(nx=5, ny=4, viscosity=0.2, oseen_wind=wind))
        assert prob.system.Mmat.nnz <= DENSE_FACTOR_DENSITY * prob.system.m**2
        assert calls == []  # M is sparse, so SuperLU factors it from its CSR arrays

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StokesSpec(nx=1, ny=4)
        with pytest.raises(ValueError):
            StokesSpec(nx=4, ny=4, viscosity=0.0)
        with pytest.raises(ValueError):
            StokesSpec(nx=4, ny=4, oseen_wind="vortex")


class TestCompressRhs:
    def test_stokes48_builds_one_system(self, monkeypatch):
        built = []
        post_init = SaddleSystem.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SaddleSystem, "__post_init__", counting_post_init)
        sys = gen_stokes_channel(StokesSpec(nx=48, ny=48))
        assert len(built) == 1 and built[0] is sys

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


class TestFieldChecks:
    """Each spec and SolverConfig checks its own fields, naming the field and the value."""

    @pytest.mark.parametrize("build, exc, fragment", [
        (lambda: SolverConfig(max_iterations=2.9), TypeError,
         "'max_iterations' must be an integer, got 2.9"),
        (lambda: SolverConfig(max_iterations=True), TypeError,
         "'max_iterations' must be an integer, got True"),
        (lambda: SolverConfig(tolerance=True), TypeError, "'tolerance' must be a number, got True"),
        (lambda: SolverConfig(criterion="error-estimate", error_delay=2.5), TypeError,
         "'error_delay' must be an integer, got 2.5"),
        (lambda: SolverConfig(criterion=5), TypeError, "'criterion' must be a string, got 5"),
        (lambda: SolverConfig(keep_basis=1), TypeError,
         "'keep_basis' must be true or false, got 1"),
        (lambda: StokesSpec(nx=4.5, ny=4), TypeError, "'nx' must be an integer, got 4.5"),
        (lambda: StokesSpec(nx=4, ny=4, length=-1), ValueError, "length must be positive"),
        (lambda: StokesSpec(nx=4, ny=4, length=np.inf), ValueError,
         "'length' must be finite, got inf"),
        (lambda: StokesSpec(nx=4, ny=4, viscosity=np.nan), ValueError,
         "'viscosity' must be finite, got nan"),
        (lambda: RandomSpec(m=10.0, n=5), TypeError, "'m' must be an integer, got 10.0"),
        (lambda: RandomSpec(m=10, n=5, seed=1.5), TypeError, "'seed' must be an integer, got 1.5"),
        (lambda: RandomSpec(m=10, n=5, seed=-1), ValueError, "seed must be nonnegative"),
        (lambda: RandomSpec(m=10, n=5, spectrum=(1, np.inf)), ValueError,
         "'spectrum' must be finite, got inf"),
        (lambda: RandomSpec(m=10, n=5, spectrum=5), TypeError,
         "'spectrum' must be a pair of numbers, got 5"),
        (lambda: SolverConfig(max_iterations=0), ValueError, "max_iterations must be at least 1"),
        (lambda: StokesSpec(nx=4, ny=4, gamma=-1.0), ValueError, "gamma must be nonnegative"),
    ], ids=["max-iterations-float", "max-iterations-true", "tolerance-true", "error-delay-float",
            "criterion-int", "keep-basis-int", "nx-float", "length-negative",
            "length-infinity", "viscosity-nan", "m-float", "seed-float", "seed-negative",
            "spectrum-infinity", "spectrum-number", "max-iterations-zero", "gamma-negative"])
    def test_refusal_names_field_and_value(self, build, exc, fragment):
        with pytest.raises(exc) as info:
            build()
        assert fragment in str(info.value)

    @pytest.mark.parametrize("m", [10**30, 5001], ids=["huge", "over-cap"])
    def test_random_m_over_dense_cap_refused_before_allocating(self, m):
        # M = Qm diag Qm^T is stored fully, so factorize would refuse it only
        # after several m x m arrays exist.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"m must be at most 5000 .*got {m}$"):
                RandomSpec(m=m, n=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("nx, ny", [(10**21, 4), (40000, 40000), (429496731, 2)],
                             ids=["huge", "square", "one-past"])
    def test_stokes_grid_past_int32_indices_refused_before_allocating(self, nx, ny):
        # The index grids are int32: m + n = (nx-1) ny + nx (ny-1) + nx ny - 1
        # must stay below 2**31. At ny = 2 it is 5 nx - 3.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^grid nx={nx}, ny={ny} has m \\+ n = "):
                StokesSpec(nx=nx, ny=ny)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_stokes_grid_at_int32_limit_accepted(self):
        assert StokesSpec(nx=429496730, ny=2).nx == 429496730  # m + n = 2**31 - 1

    @pytest.mark.parametrize("shape, m_dim, c_dim, b_len, fragment", [
        ((2, 3), 2, 3, 3, "need 1 <= n <= m, got m=2, n=3"),
        ((4, 2), 3, 2, 2, "M must be m x m"),
        ((4, 2), 4, 3, 2, "C must be n x n"),
        ((4, 2), 4, 2, 3, "b must have length n"),
    ], ids=["n-above-m", "m-mis-sized", "c-mis-sized", "b-mis-sized"])
    def test_system_refuses_mismatched_blocks(self, shape, m_dim, c_dim, b_len, fragment):
        with pytest.raises(DimensionError, match=f"^{fragment}$"):
            SaddleSystem(factorize(SparseMatrix.identity(m_dim)),
                         SparseMatrix.from_dense(np.ones(shape)), SparseMatrix.zeros(c_dim, c_dim),
                         np.ones(b_len))

    def test_numpy_counts_accepted_as_int(self):
        spec = RandomSpec(m=np.int64(10), n=np.int64(5), density=np.float64(1.0),
                          c_rank=np.int64(2), seed=np.int64(3))
        assert all(type(getattr(spec, f)) is int for f in ("m", "n", "c_rank", "seed"))
        assert type(spec.density) is float
        assert spec == RandomSpec(m=10, n=5, c_rank=2, seed=3)
        cfg = SolverConfig(max_iterations=np.int64(7), error_delay=np.int32(2))
        assert type(cfg.max_iterations) is int and type(cfg.error_delay) is int
        stokes = StokesSpec(nx=np.int64(4), ny=np.int16(3))
        assert (type(stokes.nx), type(stokes.ny)) == (int, int)
