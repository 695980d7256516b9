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

# Unused here: kept only because the benchmark's tracer (bench/tracing.py) reads
# vars(gsp.craig)["ConvergenceRecord"] and patches it.
from .system import ConvergenceRecord  # noqa: F401


def craig_solve(sys, N=None, cfg=None):
    """Run CRAIG on a symmetric instance.

    One N-solve a step and no N product. Only the latest q, v, r, s, t and p
    are kept unless cfg.keep_basis (return Q) is set; u is one M-solve at the
    end. Earlier iterates come from gsp.nscraig.replay. The fully
    orthogonalized run on a symmetric M is nscraig_solve, whose iterates are
    CRAIG's in exact arithmetic.
    """
    N, cfg = solver_inputs("craig", sys, N, cfg)
    return gkb_solve(sys, N, cfg, full_orth=False)
