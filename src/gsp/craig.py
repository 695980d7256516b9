"""CRAIG solver for symmetric generalized saddle point systems.

Works directly on (M, A, C, b) with an SPD preconditioner N, never forming
the SPSD factorization of C. It is the three-term mode of the Golub-Kahan
loop in gsp.nscraig: a short recurrence updates p, u = -M^{-1} A p is formed
once at the end, and the relative residual (beta_{k+1}/beta_1)|zeta_k| and a
delayed energy-error estimate are available as stopping rules.
"""

from __future__ import annotations

from .nscraig import gkb_solve
from .system import solver_inputs

# Re-exported containers: this module owns their contracts, and the
# benchmark's tracer (bench/tracing.py) patches ConvergenceRecord here.
from .system import ConvergenceRecord, SaddleSystem  # noqa: F401


def craig_solve(sys, N=None, cfg=None):
    """Run CRAIG on a symmetric instance.

    One N-solve a step and no N product (one under cfg.reorthogonalize, full
    reorthogonalization over a stored Q). Only the latest q, v, r, s, t and p
    are kept unless that or cfg.keep_basis (return Q) is set; u is one M-solve
    at the end. Earlier iterates come from gsp.nscraig.replay.
    """
    N, cfg = solver_inputs("craig", sys, N, cfg)
    return gkb_solve(sys, N, cfg, full_orth=False)
