"""Low-rank factorized solver for max trace(YX) s.t. X >= 0, X_ii = 1.

Independent cross-check of the certificate verdicts: ascend the factorized
objective trace(Y R R^T) over unit-norm rows of R (projected gradient with
row-normalization retraction; a Barzilai-Borwein trial step, then Armijo
backtracking) and round the top eigenvector of R R^T to signs. The rank-one
dual that verifies optimality of the rounded point is computed on first
read of ``SolveReport.dual``. The step and the stopping scale come from the
largest absolute row sum of Y, an upper bound on ||Y|| that needs no
eigensolve.

A fixed step contracts near the optimum by about 1 - step * lambda2(D - Y)
per iteration, and lambda2(D - Y) is the certificate gap that closes at the
recovery threshold; the Barzilai-Borwein step (Barzilai & Borwein 1988; on
constraint manifolds, Wen & Yin 2013) adapts to that curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .certificates import CertificateReport, certify_rank_one
from .eig import SymmetricMatrix, eigendecompose
from .ensembles import RngStream

ARMIJO_C = 1e-4
#: Iteration cap of bm_solve's ascent.
MAX_ITERS = 1000
#: Stop once the Riemannian gradient norm is <= GRAD_TOL * (1 + ||y||_inf),
#: for the largest absolute row sum ||y||_inf >= ||y||.
GRAD_TOL = 1e-6


@dataclass(frozen=True)
class SolveReport:
    """``dual`` is the rank-one certificate at the rounded point: with
    D_ii = sum_j Y_ij x_i x_j, trace(D) = x^T Y x identically, so
    ``dual.feasible`` makes x x^T optimal and ``dual.tight`` unique. It is
    computed from the stored ``y`` on first read, and kept."""

    rounded_x: np.ndarray
    rounded_objective: float
    iterations: int
    converged: bool
    y: SymmetricMatrix = field(repr=False)
    objective_trace: list = field(default_factory=list, repr=False)

    @cached_property
    def dual(self) -> CertificateReport:
        return certify_rank_one(self.y, self.rounded_x)


def default_rank(n: int) -> int:
    """ceil(sqrt(2n)): generically no spurious local optima at this rank."""
    return max(2, math.ceil(math.sqrt(2.0 * n)))


def _normalize_rows(r: np.ndarray) -> np.ndarray:
    """Scale the rows of the fresh array ``r`` to unit norm, in place."""
    r /= np.sqrt(np.einsum("ij,ij->i", r, r))[:, None]
    return r


def _objective(y: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    yr = y @ r
    return float(np.vdot(yr, r)), yr


def _bb_step(s: np.ndarray, d: np.ndarray, step0: float) -> float:
    """Barzilai-Borwein step s^T s / -s^T d, for the last accepted moves s
    of R and d of the gradient; ``step0`` where the objective does not curve
    down along s (s^T d >= 0)."""
    sd = float(np.vdot(s, d))
    return float(np.vdot(s, s)) / -sd if sd < 0.0 else step0


def bm_solve(
    y: SymmetricMatrix,
    rng: RngStream,
    k: Optional[int] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve the factorized relaxation and round; returns the factor R,
    with unit-norm rows so that X = R R^T has unit diagonal, and a report.

    Rows are initialized iid uniform on the unit sphere from ``rng``. Each
    iteration tries the Barzilai-Borwein step of ``_bb_step`` first, and
    the fixed step0 = 0.5 / ||y||_inf only on the first iteration and where
    the objective does not curve down along the last move; Armijo
    backtracking halves it until the ascent is sufficient. ||y||_inf is the
    largest absolute row sum, an upper bound on ||y||. The accepted-step
    objective sequence is nondecreasing; termination when the Riemannian
    gradient norm drops below GRAD_TOL * (1 + ||y||_inf) or after MAX_ITERS
    iterations (the report is still returned, flagged converged=False).
    """
    n = y.n
    if k is None:
        k = default_rank(n)
    if k < 2:
        raise ValueError("rank k must be >= 2")
    a = y.array
    ynorm = float(np.linalg.norm(a, np.inf))
    scale = GRAD_TOL * (1.0 + ynorm)
    # Half the inverse norm: the worst-case local curvature of the row-sphere
    # objective is 2||y||, and starting exactly at the 1/||y|| stability edge
    # makes near-rank-one instances ping-pong instead of contract.
    step0 = 0.5 / max(ynorm, 1e-12)

    r = _normalize_rows(rng.normal((n, k)))
    f, yr = _objective(a, r)
    trace = [f]
    iters = 0
    converged = False
    r_prev = grad_prev = None
    while iters < MAX_ITERS:
        # Riemannian gradient: project 2YR onto the row-sphere tangents.
        grad = yr - np.einsum("ij,ij->i", yr, r)[:, None] * r
        grad *= 2.0
        g2 = float(np.vdot(grad, grad))
        if g2 <= scale * scale:
            converged = True
            break
        step = step0 if r_prev is None else _bb_step(r - r_prev, grad - grad_prev, step0)
        accepted = False
        for _ in range(60):
            cand = _normalize_rows(r + step * grad)
            f_new, yr_new = _objective(a, cand)
            if f_new >= f + ARMIJO_C * step * g2:
                r_prev, grad_prev = r, grad
                r, f, yr = cand, f_new, yr_new
                accepted = True
                break
            step *= 0.5
        iters += 1
        trace.append(f)
        if not accepted:
            # Step underflow: no ascent direction at float resolution.
            break
    x = round_rank_one(r)
    return r, SolveReport(
        rounded_x=x,
        rounded_objective=float(x @ (a @ x)),
        iterations=iters,
        converged=converged,
        y=y,
        objective_trace=trace,
    )


def round_rank_one(r: np.ndarray) -> np.ndarray:
    """Signs of the top eigenvector of R R^T; exact zeros round to +1.

    The top eigenvector is recovered from the k x k Gram matrix R^T R, so
    the cost is independent of n beyond one matrix-vector product. Ties in
    the small eigenproblem resolve by stable deflation order.
    """
    gram = SymmetricMatrix._owning(r.T @ r)
    spec = eigendecompose(gram, want_vectors=True)
    top = spec.eigenvectors[:, -1]
    v = r @ top
    return np.where(v >= 0.0, 1.0, -1.0)
