"""CRAIG solver for symmetric generalized saddle point systems.

Works directly on (M, A, C, b) with an SPD preconditioner N, never forming
the SPSD factorization of C. It is the three-term mode of the Golub-Kahan
loop in gsp.nscraig: short recurrences update both iterates; the relative
residual (beta_{k+1}/beta_1)|zeta_k| and a delayed energy-error estimate are
available as stopping rules.
"""

from __future__ import annotations

from .nscraig import gkb_solve
from .system import solver_inputs

# Re-exported containers: this module owns their contracts, and the
# benchmark's tracer (bench/tracing.py) patches ConvergenceRecord here.
from .system import ConvergenceRecord, SaddleSystem  # noqa: F401


def craig_solve(sys, N=None, cfg=None):
    """Run CRAIG on a symmetric instance.

    A step makes one N-solve and no N product (one under cfg.reorthogonalize,
    which stores Q for one classical Gram-Schmidt pass per step). Only the
    latest q, v, r, s, t vectors are retained unless that or cfg.keep_basis
    (return Q) is set. Earlier iterates come from gsp.nscraig.replay.
    """
    N, cfg = solver_inputs("craig", sys, N, cfg)
    return gkb_solve(sys, N, cfg, full_orth=False)
