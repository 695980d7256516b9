"""Generalized Golub-Kahan solver loop behind CRAIG and nsCRAIG.

One loop serves both solvers. CRAIG orthogonalizes each new right vector
against the previous one only (three-term recurrence) and updates p by a
short recurrence. nsCRAIG orthogonalizes it against the whole stored right
basis in the N inner product by classical Gram-Schmidt run twice (CGS2,
which keeps the basis orthogonal to working precision), with each vector's
second pass lagged into the next step's projection (DCGS2): a step reads the
stored basis twice, in one product that forms the coefficients of both passes
and one that subtracts them. The projection coefficients form the Hessenberg
columns. Every step appends one column of the lower factor L^T of
H = B^T L^T (one banded solve with B^T), and p is assembled once the stopping
rule fires: one triangular solve with that L^T and one bidiagonal back
substitution. Both modes then form u = -M^{-1} A p, as the baselines do.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import InsufficientHistoryError, NonFiniteError
from .linops import FactorizedOperator, spd_inner
from .system import (BREAKDOWN_TOL, ConvergenceRecord, History, SolveResult, SolverConfig,
                     grown, rhs_norm, solver_inputs)

_dtbtrs = scipy.linalg.lapack.dtbtrs
_dtrtrs = scipy.linalg.lapack.dtrtrs


class IncrementalLowerFactor:
    """L^T of H = B^T L^T and x with B^T x = beta_1 e1, grown by one step at a time.

    Column k of L^T depends only on B_k and the k leading entries of the
    Hessenberg column h_k, so each step costs one banded solve with the
    bidiagonal B^T instead of rebuilding B, H and the whole factor. B^T is
    stored as the LAPACK lower band, column i holding (alpha_i, beta_{i+1}).
    x holds chi_1..chi_k, which the loop passes in (its zetas), and
    w = L^{-1} x grows by one forward-substitution entry per step: x . w is
    the denominator of the delayed error estimate.
    """

    def __init__(self):
        # The four arrays share one capacity, len(x). Band and L^T are Fortran-
        # ordered: the band's leading k columns are the (2, k) LAPACK band that
        # dtbtrs reads in place, and each new column of L^T is one contiguous write.
        self.k = 0
        self.band, self.Lt = np.zeros((2, 0), order="F"), np.zeros((0, 0), order="F")
        self.x, self.w = np.zeros(0), np.zeros(0)

    def append(self, alpha, beta, chi, h):
        """Add alpha_k, beta_k (below alpha_{k-1} in B^T; beta_1 for k = 1), chi_k and h_k."""
        k = self.k + 1
        if k > len(self.x):
            self.band, self.Lt = grown(self.band, (2, k), "F"), grown(self.Lt, (k, k), "F")
            self.x, self.w = grown(self.x, (k,)), grown(self.w, (k,))
        self.k = k
        band, x, w = self.band, self.x, self.w
        band[0, k - 1] = alpha
        if k > 1:
            band[1, k - 2] = beta
        col = self._bidiagonal_solve(h, "N")
        self.Lt[:k, k - 1] = col
        x[k - 1] = chi
        w[k - 1] = (chi - col[: k - 1] @ w[: k - 1]) / col[k - 1]

    def _bidiagonal_solve(self, rhs, trans):
        """B^T y = rhs (trans 'N') or B y = rhs (trans 'T'), O(k) for the current k."""
        y, _ = _dtbtrs(self.band[:, : self.k], rhs, "L", trans)  # f2py keywords cost ~1 us
        return y

    def lower_factor(self):
        """The k x k unit lower triangular L (a view)."""
        return self.Lt[: self.k, : self.k].T

    def hessenberg(self):
        """H_k = B_k^T L_k^T: row i is alpha_i times row i of L^T plus beta_i times row i - 1."""
        Lt = self.Lt[: self.k, : self.k]
        H = self.band[0, : self.k, None] * Lt
        H[1:] += self.band[1, : self.k - 1, None] * Lt[:-1]
        return H

    def error_ratio(self, d):
        """nscraig_error_estimate at the current k, without a k x k solve.

        The denominator sum(chi_i z_i) with L^T z = x is x . (L^{-1} x); the
        window needs only the trailing d entries of z, which the trailing
        d x d block of L^T determines.
        """
        k = self.k
        _check_window(self.x, k, d)
        total = float(self.x[:k] @ self.w[:k])
        if total == 0.0:
            raise ValueError("zero denominator in error estimate")
        x = self.x[k - d:k]
        z = _upper_solve(self.Lt[k - d:k, k - d:k], x)
        return float(x @ z) / total

    def coefficients(self):
        """y with B y = -z, L^T z = x: the current iterate's coordinates in q_1..q_k."""
        k = self.k
        z = _upper_solve(self.Lt[:k, :k], self.x[:k])
        return self._bidiagonal_solve(-z, "T")


def _upper_solve(Lt, rhs):
    """Lt z = rhs for upper triangular Lt, as LAPACK's transposed solve with L = Lt^T.

    Always this one LAPACK call: scipy.linalg.solve_triangular would switch
    to the untransposed upper solve, which sums in another order, whenever
    the view of the Fortran-ordered factor happens to be contiguous (k equal
    to its capacity), so z would depend on the capacity.
    """
    z, info = _dtrtrs(Lt.T, rhs, 1, 1)  # lower, trans
    if info > 0:
        raise scipy.linalg.LinAlgError(f"singular matrix: zero diagonal entry {info - 1}")
    return z


def _finite(value, name, index, k):
    if not math.isfinite(value):
        raise NonFiniteError(f"{name}_{index} is {value} at iteration {k}")
    return value


def _lagged_cgs2(Q, k, nq, g, ng):
    """Step k of nsCRAIG's Gram-Schmidt: CGS2 in two sweeps over the stored basis.

    Rows Q[:k-1] are final. Q[k-1] holds q~_k, the vector after one pass,
    normalized in the N norm, that drove the step-k recurrences; nq = N q~_k
    and ng = N g. One product gives q~_k's second-pass coefficients a, g's
    first-pass coefficients b and q~_k . N g; one more subtracts Q a and Q b.
    q_k = (q~_k - Q a)/rho with rho = sqrt(1 - a . a) replaces row k-1, and
    g loses its q_k component d = (q~_k . N g - a . b)/rho with no further N
    product. g's own second pass is lagged to step k + 1 (DCGS2: Swirydowicz,
    Langou, Ananthan, Yang and Thomas, NLAA 2021). Returns (g, h) with the
    Hessenberg column h = [b, d], or None when 1 - a . a <= 0, i.e. q~_k has
    no N-norm left outside the final basis.
    """
    coef = np.array([nq, ng]) @ Q[:k].T
    ab = coef[:, : k - 1]
    a, b = ab
    rho2 = 1.0 - a @ a
    if rho2 <= 0.0:
        return None
    rho = math.sqrt(rho2)
    pair = np.array([Q[k - 1], g]) - ab @ Q[: k - 1]
    q = Q[k - 1] = pair[0] / rho
    h = coef[1].copy()  # b, then q~_k . N g until it is replaced by d
    h[k - 1] = (h[k - 1] - a @ b) / rho
    return pair[1] - h[k - 1] * q, h


def assemble_solution(lower):
    """The coefficients y of nsCRAIG's iterate in q_1..q_k, from the grown factor.

    y solves B y = -z with H z = beta_1 e1; lower (an IncrementalLowerFactor)
    holds L^T of H = B^T L^T and chi with B^T chi = beta_1 e1, so y costs one
    back substitution with L^T and one with B: O(k^2).
    """
    return lower.coefficients()


def gkb_solve(sys, N, cfg, full_orth):
    """Run the generalized Golub-Kahan loop; full_orth selects nsCRAIG over CRAIG.

    N and cfg are as solver_inputs returns them; every entry point calls it
    first. A step applies A, A^T, C, the M-solve and the N-solve once each. It
    carries M v and N g as the right-hand sides of those solves (Arioli,
    SIMAX 2013): M w = A q - beta M v gives w . M w in alpha and, over alpha,
    the next M v; N g = A^T v + t (minus alpha N q for CRAIG) gives g . N g in
    beta and, over beta, the next N q, from N q_1 = b / beta_1. So no step
    multiplies by M and no CRAIG step by N; nsCRAIG's Gram-Schmidt changes g,
    and its step makes one N product to recompute N g. The fully orthogonalized
    loop is nsCRAIG's, on a symmetric M too; CRAIG projects on no basis.
    The right basis Q, rows q_1, q_2, ..., doubles when a step outgrows it;
    CRAIG stores it only for cfg.keep_basis. nsCRAIG orthogonalizes by CGS2
    with the second pass lagged one step (_lagged_cgs2): step k drives its
    recurrences with q~_k, the vector after one pass, and finishes q_k in row
    k-1 while projecting the new vector, so the rows a step reads are final.
    If the lagged pass finds 1 - a . a <= 0, the run ends with termination
    "breakdown" and the previous step's iterate.
    nsCRAIG grows its IncrementalLowerFactor every step; the error-estimate
    rule reads it each step and assemble_solution once, on termination, where
    CRAIG's p comes from a short recurrence. Neither carries a velocity: both
    end with u = -M^{-1} A p. cfg.keep_basis returns the loop's own Q, trimmed
    in place to k x n, and nsCRAIG's H_k = B_k^T L_k^T, formed once from its
    factor; replay gives earlier iterates. A NaN or infinite alpha or beta raises
    NonFiniteError, a squared beta no SPD N gives NotSpdError (spd_inner).
    """
    A, C, M = sys.A, sys.C, sys.M
    t0 = time.perf_counter()

    ng = sys.b  # N g for g = N^{-1} b, so q_1 = g / beta_1
    g = N.solve(ng)
    beta = beta1 = _finite(rhs_norm(g, ng), "beta", 1, 0)
    store_basis = full_orth or cfg.keep_basis
    Q = np.zeros((1, sys.n)) if store_basis else None
    lower = IncrementalLowerFactor() if full_orth else None
    history = History()
    # Step 0's state: the first pass through the loop's head is step 1's, with
    # M v_0 = 0, r_0 = 0 and zeta_0 = -1. p stays zero if alpha_1 breaks down.
    p, mv, r = np.zeros(sys.n), np.zeros(sys.m), np.zeros(sys.n)
    alpha, zeta = 1.0, -1.0
    alpha_floor = BREAKDOWN_TOL * max(beta1, 1.0)  # then BREAKDOWN_TOL * alpha_1

    k = 0
    while True:
        q = g / beta
        nq = ng / beta
        if store_basis:
            Q = grown(Q, (k + 1, sys.n))
            Q[k] = q
        mw = A.matvec(q) - beta * mv
        w = M.solve(mw)
        r = q - (beta / alpha) * r
        s = C.matvec(r)
        alpha = _finite(float(np.sqrt(max(w @ mw + r @ s, 0.0))), "alpha", k + 1, k + 1)
        if alpha <= alpha_floor:
            stop = "breakdown", None
            break
        if k == 0:
            alpha_floor = BREAKDOWN_TOL * alpha
        k += 1
        v = w / alpha
        mv = mw / alpha
        t = s / alpha
        zeta = -(beta / alpha) * zeta
        if not full_orth:
            p = p - (zeta / alpha) * r

        ng = A.rmatvec(v) + t
        if not full_orth:
            ng = ng - alpha * nq
        g = N.solve(ng)
        if full_orth:
            step = _lagged_cgs2(Q, k, nq, g, ng)
            if step is None:
                stop = "breakdown", None
                k -= 1
                break
            g, h = step
            ng = N.apply(g)
            lower.append(alpha, beta, zeta, h)
        beta = _finite(float(np.sqrt(spd_inner(g, ng))), "beta", k + 1, k)

        res_rel = (beta / beta1) * abs(zeta)
        err_est = None
        if cfg.wants_error_estimate and k >= cfg.error_delay:
            if full_orth:
                ratio = lower.error_ratio(cfg.error_delay)
            else:
                zetas = np.append(history.column("scalar"), zeta)
                ratio = craig_error_estimate(zetas, k, cfg.error_delay)
            err_est = float(np.sqrt(abs(ratio)))
        history.append(ConvergenceRecord(k, res_rel, err_est, alpha, beta, zeta,
                                         time.perf_counter() - t0))
        if stop := cfg.stop(k, res_rel, beta <= BREAKDOWN_TOL * beta1, err_est):
            break

    termination, fired = stop
    if full_orth and k:
        p = assemble_solution(lower) @ Q[:k]
    u = -M.solve(A.matvec(p))
    if cfg.keep_basis:  # safe: Q never leaves here, and every view of it died with its statement
        Q.resize((k, sys.n), refcheck=False)
    return SolveResult(u, p, termination, history, fired_criterion=fired, beta1=beta1,
                       H=lower.hessenberg() if full_orth and cfg.keep_basis else None,
                       Q=Q if cfg.keep_basis else None)


def nscraig_solve(sys, N=None, cfg=None):
    """Run nsCRAIG; symmetric instances are accepted and match craig's iterates.

    The iterate is assembled only on termination.
    """
    N, cfg = solver_inputs("nscraig", sys, N, cfg)
    return gkb_solve(sys, N, cfg, full_orth=True)


def _check_window(scalars, k, d):
    if d < 1:
        raise ValueError("delay d must be >= 1")
    if k < d or len(scalars) < k:
        raise InsufficientHistoryError(f"need k >= d and {k} recorded scalars")


def craig_error_estimate(zetas, k, d):
    """Squared delayed relative energy-error estimate from the zeta history.

    Returns sum(zeta_i^2, i = k-d+1..k) / sum(zeta_i^2, i = 1..k); the square
    root estimates the relative energy error d steps back.
    """
    _check_window(zetas, k, d)
    z = np.asarray(zetas[:k], dtype=float)
    total = float(z @ z)
    if total == 0.0:
        raise ValueError("all-zero zeta history")
    window = z[k - d:]
    return float(window @ window) / total


def nscraig_error_estimate(chis, lower_factor, k, d):
    """Squared delayed relative energy-error estimate for nsCRAIG (reference form).

    The solver computes the same ratio per step with
    IncrementalLowerFactor.error_ratio. This form solves L^T z = x by back
    substitution (x holds chi_1..chi_k) and returns
    sum(chi_i z_i, i = k-d+1..k) / sum(chi_i z_i, i = 1..k). The ratio can be
    negative or exceed 1: no minimization property holds here. The solver
    monitors the square root of its magnitude, as CRAIG does.
    """
    _check_window(chis, k, d)
    L = np.asarray(lower_factor, dtype=float)
    if L.shape != (k, k):
        raise InsufficientHistoryError(f"lower factor must be {k} x {k}")
    x = np.asarray(chis[:k], dtype=float)
    z = scipy.linalg.solve_triangular(L.T, x, lower=False)
    terms = x * z
    total = float(terms.sum())
    if total == 0.0:
        raise ValueError("zero denominator in error estimate")
    return float(terms[k - d:].sum()) / total


@dataclass
class ResidualCheckReport:
    """Replay diagnostics: recomputed residuals against the recurrence values.

    dual_defects[i] = |explicit N^{-1}-norm residual - beta_{k+1}|scalar_k|| / beta_1,
    upper_ratios[i] = ||M u + A p|| / (||A||_F ||p||),
    orth_defects[i] = max_j |residual . q_j| (None without cfg.keep_basis).
    """

    dual_defects: list[float]
    upper_ratios: list[float]
    orth_defects: list[float] | None
    beta1: float


def replay(solve, sys, N, cfg=None):
    """Runs of solve capped at k = 1..K steps; the last is the uncapped run, of K steps.

    The loops are deterministic, so run k ends on the uncapped run's iterate k
    bit for bit: every iterate without storing any, at O(K^2) steps. Only the
    last keeps cfg.keep_basis's arrays: run k's are its Q[:k] and H[:k, :k].
    """
    cfg = cfg or SolverConfig()
    last = solve(sys, N, cfg)
    capped = [solve(sys, N, replace(cfg, max_iterations=k, keep_basis=False))
              for k in range(1, last.iterations)]
    return capped + [last]


def residual_check(sys, N, solve, cfg=None):
    """Recompute each replayed run's final residual explicitly against its last record."""
    runs = replay(solve, sys, N, cfg)
    if not runs[-1].history:
        raise InsufficientHistoryError("the solve recorded no iteration")
    if N is None:
        N = FactorizedOperator.identity(sys.n)
    a_norm = float(np.linalg.norm(sys.A.values))
    Q = runs[-1].Q
    dual, upper, orth = [], [], [] if Q is not None else None
    for run in runs:
        rec, u, p = run.history[-1], run.u, run.p
        resid = sys.b - sys.A.rmatvec(u) + sys.C.matvec(p)
        explicit = float(np.sqrt(spd_inner(resid, N.solve(resid))))
        dual.append(abs(explicit - rec.beta_next * abs(rec.scalar)) / run.beta1)
        block = np.linalg.norm(sys.Mmat.matvec(u) + sys.A.matvec(p))
        upper.append(block / max(a_norm * np.linalg.norm(p), 1e-300))
        if Q is not None:
            orth.append(max(abs(resid @ qj) for qj in Q[: rec.k]))
    return ResidualCheckReport(dual, upper, orth, runs[-1].beta1)
