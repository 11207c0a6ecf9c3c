"""Low-rank factorized solver for max trace(YX) s.t. X >= 0, X_ii = 1.

Independent cross-check of the certificate verdicts: ascend the factorized
objective trace(Y R R^T) over unit-norm rows of R (projected gradient with
row-normalization retraction and Armijo backtracking), round the top
eigenvector of R R^T to signs, then verify optimality of the rounded point
with the rank-one dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .certificates import CertificateReport, certify_rank_one
from .eig import SymmetricMatrix, eigendecompose, spectral_norm
from .ensembles import RngStream

ARMIJO_C = 1e-4
#: Iteration cap of bm_solve's ascent.
MAX_ITERS = 1000
#: Stop once the Riemannian gradient norm is <= GRAD_TOL * (1 + ||y||).
GRAD_TOL = 1e-6


@dataclass(frozen=True)
class SolveReport:
    """``dual`` is the rank-one certificate at the rounded point: with
    D_ii = sum_j Y_ij x_i x_j, trace(D) = x^T Y x identically, so
    ``dual.feasible`` makes x x^T optimal and ``dual.tight`` unique."""

    rounded_x: np.ndarray
    rounded_objective: float
    iterations: int
    converged: bool
    dual: CertificateReport
    objective_trace: list = field(default_factory=list, repr=False)


def default_rank(n: int) -> int:
    """ceil(sqrt(2n)): generically no spurious local optima at this rank."""
    return max(2, math.ceil(math.sqrt(2.0 * n)))


def _normalize_rows(r: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(r * r, axis=1, keepdims=True))
    return r / norms


def _objective(y: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    yr = y @ r
    return float(np.sum(yr * r)), yr


def bm_solve(
    y: SymmetricMatrix,
    rng: RngStream,
    k: Optional[int] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve the factorized relaxation and round; returns the factor R,
    with unit-norm rows so that X = R R^T has unit diagonal, and a report.

    Rows are initialized iid uniform on the unit sphere from ``rng``. The
    accepted-step objective sequence is nondecreasing; termination when the
    Riemannian gradient norm drops below GRAD_TOL * (1 + ||y||) or after
    MAX_ITERS iterations (the report is still returned, flagged
    converged=False).
    """
    n = y.n
    if k is None:
        k = default_rank(n)
    if k < 2:
        raise ValueError("rank k must be >= 2")
    a = y.array
    ynorm = spectral_norm(y)
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
    while iters < MAX_ITERS:
        # Riemannian gradient: project 2YR onto the row-sphere tangents.
        radial = np.sum(yr * r, axis=1, keepdims=True)
        grad = 2.0 * (yr - radial * r)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= scale:
            converged = True
            break
        step = step0
        g2 = gnorm * gnorm
        accepted = False
        for _ in range(60):
            cand = _normalize_rows(r + step * grad)
            f_new, yr_new = _objective(a, cand)
            if f_new >= f + ARMIJO_C * step * g2:
                r, f, yr = cand, f_new, yr_new
                accepted = True
                break
            step *= 0.5
        iters += 1
        trace.append(f)
        if not accepted:
            # Step underflow: no ascent direction at float resolution.
            converged = gnorm <= scale
            break
    x = round_rank_one(r)
    return r, SolveReport(
        rounded_x=x,
        rounded_objective=float(x @ (a @ x)),
        iterations=iters,
        converged=converged,
        dual=certify_rank_one(y, x),
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
