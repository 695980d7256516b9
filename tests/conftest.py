"""Shared builders for the test suite."""

import numpy as np
import pytest

from gsp import RandomSpec, SaddleSystem, factorize, gen_random


def random_system(m, n, *, skew=0.0, c_rank=None, seed=0, spectrum=(1.0, 2.0), density=1.0):
    if c_rank is None:
        c_rank = n // 2
    return gen_random(RandomSpec(m=m, n=n, density=density, spectrum=spectrum,
                                 skew_strength=skew, c_rank=c_rank, seed=seed))


def random_preconditioner(n, seed=0, lo=0.5, hi=2.0):
    rng = np.random.default_rng(seed)
    return factorize(np.diag(rng.uniform(lo, hi, n)))


def cholesky_preconditioner(n, seed=0, lo=0.5, hi=2.0):
    """A dense SPD N = V diag(lambda) V^T with a random orthogonal V: Cholesky-factored."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = (V * rng.uniform(lo, hi, n)) @ V.T
    N = factorize((K + K.T) / 2.0)
    assert N.kind == "cholesky-spd"
    return N


def indefinite_m_system():
    """m=40, n=20, C = 0, b in Range(A^T): M = diag(I, -I) + 0.1 (G - G^T) is neither SPD nor
    NSPD (its symmetric part is diag(I, -I)), outside CRAIG's and nsCRAIG's hypotheses."""
    rng = np.random.default_rng(3)
    G = rng.standard_normal((40, 40))
    M = np.diag(np.repeat([1.0, -1.0], 20)) + 0.1 * (G - G.T)
    A = rng.standard_normal((40, 20))
    return SaddleSystem.from_matrices(M, A, np.zeros((20, 20)), A.T @ rng.standard_normal(40))


def indefinite_c_system(c):
    """m=40, n=20: SPD M = Q diag(U(1, 2)) Q^T and C = diag(1 x 10, c x 10), so for c < 0
    C is not SPSD; at c = -50 the Schur complement A^T M^{-1} A + C is indefinite too."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    M = (Q * rng.uniform(1.0, 2.0, 40)) @ Q.T
    A = rng.standard_normal((40, 20))
    return SaddleSystem.from_matrices((M + M.T) / 2.0, A, np.diag(np.repeat([1.0, c], 10)),
                                      rng.standard_normal(20))


class LoggedSolves:
    """Forwards to target, logging the length of every vector its solve is given."""

    def __init__(self, target, lengths):
        self._target, self._lengths = target, lengths

    def solve(self, b):
        self._lengths.append(len(b))
        return self._target.solve(b)

    def __getattr__(self, name):
        return getattr(self._target, name)


class InverseOnly:
    """An N known by its inverse alone: target's dimension and solve, and no apply."""

    spd = True

    def __init__(self, target):
        self.dimension, self.solve = target.dimension, target.solve


@pytest.fixture
def hand_system():
    """m=2, n=1: M=I, A=[1;1], C=[1], b=(1); Schur complement S = 3."""
    return SaddleSystem.from_matrices(
        np.eye(2), np.array([[1.0], [1.0]]), np.array([[1.0]]), np.array([1.0]))


@pytest.fixture
def inconsistent_system():
    """m=3, n=2: A's second column is zero and b = (0, 1) is outside Range(A^T), so K z = f
    has no solution."""
    return SaddleSystem.from_matrices(np.diag([2.0, 3.0, 4.0]), [[1, 0], [0, 0], [1, 0]],
                                      np.zeros((2, 2)), [0.0, 1.0])


@pytest.fixture
def hand_system_nonsym():
    """Same blocks but M = [[1, .5], [-.5, 1]]; S = 2.6."""
    return SaddleSystem.from_matrices(
        np.array([[1.0, 0.5], [-0.5, 1.0]]), np.array([[1.0], [1.0]]),
        np.array([[1.0]]), np.array([1.0]))
