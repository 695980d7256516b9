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


class LoggedSolves:
    """Forwards to target, logging the length of every vector its solve is given."""

    def __init__(self, target, lengths):
        self._target, self._lengths = target, lengths

    def solve(self, b):
        self._lengths.append(len(b))
        return self._target.solve(b)

    def __getattr__(self, name):
        return getattr(self._target, name)


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
