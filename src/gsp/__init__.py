"""Krylov solvers for generalized saddle point systems [[M, A], [A^T, -C]].

CRAIG (symmetric leading block) and nsCRAIG (nonsymmetric) built on
Golub-Kahan bidiagonalization of the augmented off-diagonal block, plus
Schur-complement-reduction and preconditioned MINRES/GMRES baselines.
"""

from .baselines import (
    SchurOperator,
    direct_solve,
    pgmres_solve,
    pminres_solve,
    scr_cg_solve,
    scr_fom_solve,
)
from .craig import craig_solve
from .gkb import (
    Bidiagonalization,
    augment,
    bidiagonalize,
    verify_decomposition,
)
from .linops import (
    FactorizedOperator,
    SparseMatrix,
    factorize,
    spsd_factor,
)
from .mmio import load_system, read_matrix_market, save_system, write_matrix_market
from .nscraig import (
    craig_error_estimate,
    nscraig_error_estimate,
    nscraig_solve,
    replay,
    residual_check,
)
from .problems import (
    RandomSpec,
    StokesSpec,
    compress_rhs,
    gen_random,
    gen_stokes_channel,
    gen_stokes_channel_detailed,
    recover_w,
    schur_condition_number,
    validate_system,
)
from .system import ConvergenceRecord, History, SaddleSystem, SolveResult, SolverConfig

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
