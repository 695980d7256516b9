"""The three benchmark workloads: inputs, one setup, one solve, the oracle.

Every workload is a closed loop (one process, one solve at a time) and stops
on the relative-residual rule; bench/NOTES.md says why each was chosen and
why the error-estimate rule is not used. The seed affects only
random600-nscraig; the two channel workloads are deterministic.

Module functions are looked up at call time (``gsp.problems.gen_random``, not
``from gsp.problems import gen_random``) so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter as _now

import numpy as np

import gsp.baselines
import gsp.cli
import gsp.craig
import gsp.linops
import gsp.mmio
import gsp.nscraig
import gsp.problems
from gsp.system import SolverConfig

# Correctness gate, as multiples of the workload's tolerance: the explicitly
# recomputed residual may exceed the tolerance the recurrence met by a factor
# of 10 (finite-precision drift, Greenbaum 1997), and the error against the
# oracle by a factor of 100 (the residual bounds the error only up to the
# conditioning of the system).
RESIDUAL_FACTOR = 10.0
ERROR_FACTOR = 100.0
MAX_ITERATIONS = 3000


@dataclass
class Problem:
    """A ready system, its preconditioner N and the workload's oracle data."""

    system: object
    N: object
    oracle_data: object = None


class Workload:
    name = ""
    solver = ""  # "craig" or "nscraig"
    tolerance = 0.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = SolverConfig(tolerance=self.tolerance, max_iterations=MAX_ITERATIONS)

    def solver_fn(self):
        module = gsp.craig if self.solver == "craig" else gsp.nscraig
        return getattr(module, f"{self.solver}_solve")

    def setup(self):
        """Inputs to a ready SaddleSystem plus preconditioner."""
        raise NotImplementedError

    def solve(self, problem, solve):
        """One solve with the solver function ``solve``; returns (result, seconds)."""
        t0 = _now()
        result = solve(problem.system, problem.N, self.config)
        return result, _now() - t0

    def oracle(self, problem):
        """Reference solution, computed outside every timed region."""
        return np.concatenate(gsp.baselines.direct_solve(problem.system))

    def oracle_errors(self, problem, reference, result):
        """{label: relative error} of one result against the oracle."""
        z = np.concatenate([result.u, result.p])
        return {"err": float(np.linalg.norm(z - reference) / np.linalg.norm(reference))}


class Stokes48Craig(Workload):
    name = "stokes48-craig"
    solver = "craig"
    tolerance = 1e-8
    spec = gsp.problems.StokesSpec(nx=48, ny=48)

    def setup(self):
        prob = gsp.problems.gen_stokes_channel_detailed(self.spec)
        return Problem(prob.system, prob.preconditioner, prob)

    def oracle(self, problem):
        # direct_solve refuses m + n > 5000; the manufactured Poiseuille flow
        # is the exact solution of the discrete system instead.
        return problem.oracle_data

    def oracle_errors(self, problem, reference, result):
        vel = gsp.problems.recover_w(result.u, reference.w0)
        return {
            "err_velocity": float(np.linalg.norm(vel - reference.velocity)
                                  / np.linalg.norm(reference.velocity)),
            "err_pressure": float(np.linalg.norm(result.p - reference.pressure)
                                  / np.linalg.norm(reference.pressure)),
        }


class Random600NsCraig(Workload):
    name = "random600-nscraig"
    solver = "nscraig"
    tolerance = 1e-8

    def setup(self):
        spec = gsp.problems.RandomSpec(m=600, n=300, density=1.0, skew_strength=0.5,
                                       c_rank=150, seed=self.seed)
        system = gsp.problems.gen_random(spec)
        return Problem(system, gsp.linops.SpdPreconditioner.identity(system.n))


class Oseen32NsCraig(Workload):
    """The documented ``gsp gen`` -> ``gsp run`` path.

    The system is written once as Matrix Market files; setup is the library
    load (the same call ``gsp run`` makes), and each solve is one
    ``gsp run`` whose solve time is the one the CLI reports in summary.csv.
    """

    name = "oseen32-nscraig"
    solver = "nscraig"
    tolerance = 1e-10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        system_dir = os.path.join(workdir, "system")
        self.output_dir = os.path.join(workdir, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = gsp.cli.main(["gen", "stokes", "--nx", "32", "--ny", "32",
                                 "--viscosity", "1e-3", "--oseen-wind", "poiseuille",
                                 "-o", system_dir])
        if code != 0:
            raise RuntimeError(f"gsp gen stokes exited with {code}")
        self.system_manifest = os.path.join(system_dir, gsp.mmio.MANIFEST_NAME)
        self.run_manifest = os.path.join(workdir, "run.json")
        with open(self.run_manifest, "w") as fh:
            json.dump({
                "problem": {"source": "load", "path": self.system_manifest},
                "solvers": [self.solver],
                "preconditioner": "identity",
                "config": {"tolerance": self.tolerance, "max_iterations": MAX_ITERATIONS},
                "output_dir": self.output_dir,
            }, fh)

    def setup(self):
        system = gsp.mmio.load_system(self.system_manifest)
        return Problem(system, gsp.linops.SpdPreconditioner.identity(system.n))

    def solve(self, problem, solve):
        captured = []

        def capture(system, N, cfg):
            captured.append(solve(system, N, cfg))
            return captured[-1]

        saved = gsp.cli.SOLVERS[self.solver]
        gsp.cli.SOLVERS[self.solver] = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = gsp.cli.main(["run", self.run_manifest])
        finally:
            gsp.cli.SOLVERS[self.solver] = saved
        result = captured[0]
        with open(os.path.join(self.output_dir, "summary.csv")) as fh:
            (row,) = csv.DictReader(fh)
        with open(os.path.join(self.output_dir, f"{self.solver}_history.csv")) as fh:
            history_rows = sum(1 for _ in fh) - 1
        if (code != 0 or int(row["iterations"]) != result.iterations
                or row["termination"] != result.termination
                or history_rows != len(result.history)):
            raise RuntimeError(f"gsp run output disagrees with its solve: exit {code}, {row}")
        return result, float(row["solve_time_s"])


WORKLOADS = {w.name: w for w in (Stokes48Craig, Oseen32NsCraig, Random600NsCraig)}


def check(workload, problem, reference, result):
    """Correctness gate for one finished solve; returns (passed, figures).

    The residual is recomputed from (u, p), not read from the recurrence:
    ``res_true`` is the N^{-1}-norm of b - A^T u + C p over that of b (the
    norm the stopping rule estimates), ``res_gap`` its distance to the
    recurrence value, and ``res_2norm`` the unweighted relative residual of
    the full block system.
    """
    s, N = problem.system, problem.N
    r1 = s.Mmat.matvec(result.u) + s.A.matvec(result.p)
    r2 = s.b - s.A.rmatvec(result.u) + s.C.matvec(result.p)
    res_true = N.inv_norm(r2) / N.inv_norm(s.b)
    res_rec = result.history[-1].res_rel if result.history else float("nan")
    figures = {
        "res_true": res_true,
        "res_gap": abs(res_true - res_rec),
        "res_2norm": float(np.linalg.norm(np.concatenate([r1, r2])) / np.linalg.norm(s.b)),
    }
    errors = workload.oracle_errors(problem, reference, result)
    figures.update(errors)
    tol = workload.tolerance
    passed = (result.termination in ("converged", "exact-termination")
              and res_true <= RESIDUAL_FACTOR * tol
              and all(e <= ERROR_FACTOR * tol for e in errors.values()))
    return passed, figures
