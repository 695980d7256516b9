"""The benchmark's tracer keeps finding, and restores, every name it patches.

bench/tracing.py swaps module attributes of gsp (solver records, nsCRAIG's
solution assembly, factorizations, CSR conversions) while a traced run is
active; a refactor that moves one of them breaks ``bench/run.py --trace 1``.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

import gsp.cli
import gsp.craig
import gsp.linops
import gsp.mmio
import gsp.nscraig
import gsp.problems
import gsp.system
from conftest import random_preconditioner, random_system
from gsp import SaddleSystem, SolverConfig, SparseMatrix

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
PATCHED_OWNERS = (gsp.cli, gsp.craig, gsp.linops, gsp.mmio, gsp.nscraig, gsp.problems,
                  gsp.system, SparseMatrix, SaddleSystem)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return {(owner.__name__, name): value
            for owner in PATCHED_OWNERS for name, value in vars(owner).items()}


@pytest.mark.parametrize("name, skew", [("craig", 0.0), ("nscraig", 0.5)])
def test_traced_solve_marks_every_iteration(tracing, name, skew):
    system = random_system(12, 6, skew=skew, c_rank=3, seed=60)
    N = random_preconditioner(6, seed=60)
    cfg = SolverConfig(tolerance=1e-10)
    solve = getattr(getattr(gsp, name), f"{name}_solve")
    before = attributes()
    tracer = tracing.Tracer("test")
    with tracer.installed():
        result = tracer.solver(name, solve)(system, N, cfg)
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    assert result.iterations > 1
    assert len(tracer.marks) == len(result.history) == result.iterations
    (root,) = tracer.roots(name)
    assert len(tracer.per_iteration_counts(root)) == result.iterations - 1
    assembled = tracer.roots("nscraig.assemble_solution")
    assert len(assembled) == (1 if name == "nscraig" else 0)
    plain = solve(system, N, cfg)
    assert np.array_equal(plain.u, result.u) and np.array_equal(plain.p, result.p)
