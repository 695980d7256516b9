"""Step counts of CRAIG and nsCRAIG on the channel ladder, pinned as upper bounds.

CRAIG runs the Stokes channel (tol 1e-8) at gamma 0 and 0.25; nsCRAIG the Oseen
channel with the Poiseuille wind and the default gamma (tol 1e-10) at three
viscosities. Each cell runs with the identity N and with the generator's
pressure-mass N, and the two counts must be equal: on a uniform grid the
pressure-mass matrix is a multiple of the identity, and a scaled N leaves the
iterates unchanged. Under pytest -s each cell prints one 'ladder' line.
"""

import pytest

from gsp import SolverConfig, StokesSpec, craig_solve, nscraig_solve
from gsp.linops import FactorizedOperator
from gsp.problems import gen_stokes_channel_detailed

# (solver, spec fields, tolerance) -> {nx: bound on the steps}; nx = ny. The Oseen
# nu = 1e-3 cell at nx = 64 (673 steps) is left out for time.
WIND = ("oseen_wind", "poiseuille")
LADDER = {
    ("craig", (("gamma", 0.0),), 1e-8): {16: 17, 32: 20, 64: 22},
    ("craig", (("gamma", 0.25),), 1e-8): {16: 33, 32: 38, 64: 42},
    ("nscraig", (("viscosity", 1e-1), WIND), 1e-10): {16: 33, 32: 37, 64: 40},
    ("nscraig", (("viscosity", 1e-2), WIND), 1e-10): {16: 86, 32: 113, 64: 135},
    ("nscraig", (("viscosity", 1e-3), WIND), 1e-10): {16: 170, 32: 386},
}
CELLS = [(solver, dict(fields), tol, nx, bound)
         for (solver, fields, tol), bounds in LADDER.items() for nx, bound in bounds.items()]
SOLVE = {"craig": craig_solve, "nscraig": nscraig_solve}


@pytest.mark.parametrize("solver, fields, tol, nx, bound", CELLS,
                         ids=[f"{s}-{'-'.join(map(str, f.values()))}-{nx}"
                              for s, f, _, nx, _ in CELLS])
def test_steps_within_bound_and_equal_under_both_n(solver, fields, tol, nx, bound):
    prob = gen_stokes_channel_detailed(StokesSpec(nx=nx, ny=nx, **fields))
    cfg = SolverConfig(tolerance=tol)
    runs = {name: SOLVE[solver](prob.system, N, cfg) for name, N in (
        ("identity", FactorizedOperator.identity(prob.system.n)),
        ("pressure-mass", prob.preconditioner))}
    steps = {name: res.iterations for name, res in runs.items()}
    print(f"ladder {solver} {fields} nx={nx}: steps {steps} bound {bound}")
    assert all(res.termination == "converged" for res in runs.values())
    assert steps["identity"] == steps["pressure-mass"] <= bound
