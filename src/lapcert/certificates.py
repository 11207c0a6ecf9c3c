"""Tightness and recovery certification.

The rank-one dual certificate: for Y symmetric and x in {+-1}^n, take the
diagonal D with D_ii = sum_j Y_ij x_i x_j. Then trace(D) = x^T Y x and
(D - Y)x = 0 identically, so whenever lambda_2(D - Y) > 0 the matrix x x^T
is the unique optimum of max trace(YX) over {X >= 0, X_ii = 1}, and the
corresponding combinatorial problem is solved exactly by the relaxation.

Every certificate is this D - Y: the per-model certifiers only choose
(Y, x), the sign measurements and planted signs for synchronization and
the signed adjacency and labels for two communities. Conjugated by
diag(x) the discrete matrices are Laplacians (L_G - 2 L_H, resp.
2 Gamma + 11^T), and the condition is positivity of the second-smallest
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eig import (
    SymmetricMatrix,
    eigenvalue_k,
    eigenvalues_selected,
    lanczos,
    largest_eigenvalue,
    proves_max_below,
    spectral_norm,
)
from .ensembles import GraphSample, SyncInstance, as_sign_vector
from .errors import (
    DomainError,
    MissingLabels,
    NonLaplacian,
    NonPositiveDiagonalMax,
    RequiresDiscreteInstance,
)
from .laplacians import (
    centered_gap_diagonal,
    centered_partition_gap,
    graph_laplacian,
    signed_adjacency,
)

#: Positivity dead band, relative to 1 + ||certificate matrix||. Strict
#: inequalities in exact arithmetic need a tolerance in floating point;
#: instances inside the band are classified "boundary". A tau below n eps
#: is raised to it (``CertificateReport``).
TAU_POS = 1e-9

SIDE_ABOVE = "above"
SIDE_BELOW = "below"
SIDE_BOUNDARY = "boundary"

_EPS = float(np.finfo(np.float64).eps)
#: Lanczos steps of the Ritz bound that rank_one_side reads before its accept.
_RITZ_STEPS = 6


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a rank-one dual-certificate evaluation.

    ``band`` is the positivity dead band max(tau, n eps) (1 + ||D - Y||)
    against which ``lambda2`` is compared, and ``tight`` is true exactly
    when lambda2 > band. The floor n eps covers eigvalsh's rounding of a
    zero lambda_2, so a float "above" or "below" holds also at tau = 0; it
    is below the default tau for every n < 4.5e6. ``feasible`` (lambda1 >=
    -band) makes D the dual that certifies x x^T optimal, unique or not.
    """

    d_diag: np.ndarray
    lambda1: float
    lambda2: float
    residual_null: float
    band: float

    @property
    def tight(self) -> bool:
        return self.side == SIDE_ABOVE

    @property
    def feasible(self) -> bool:
        return self.lambda1 >= -self.band

    @property
    def side(self) -> str:
        if self.lambda2 > self.band:
            return SIDE_ABOVE
        if self.lambda2 < -self.band:
            return SIDE_BELOW
        return SIDE_BOUNDARY


class RatioReport(NamedTuple):
    ratio: float
    max_diag: float
    lam_max: float


def dual_diagonal(y: SymmetricMatrix, x) -> np.ndarray:
    """Candidate dual diagonal D_ii = sum_j Y_ij x_i x_j."""
    x = as_sign_vector(x, y.n)
    return x * (y.array @ x)


def _certificate(y: SymmetricMatrix, x):
    """(x, D, D - Y): the one builder of the discrete certificate matrix."""
    d = dual_diagonal(y, x)  # checks x, once
    x = np.asarray(x, dtype=np.float64)
    # diag(d) - Y entry by entry: 0.0 - Y off the diagonal, not -Y, which
    # would put -0.0 where Y is zero, and d - Y_ii on it.
    cert = np.subtract(0.0, y.array, order="C")
    np.fill_diagonal(cert, d - y.array.diagonal())
    return x, d, cert


def _report(x: np.ndarray, d: np.ndarray, cert: np.ndarray,
            tau: float) -> CertificateReport:
    sm = SymmetricMatrix._owning(cert)
    # (lambda_1, lambda_2, lambda_n) from one decomposition
    lam = [cert[0, 0]] * 3 if sm.n == 1 else eigenvalues_selected(sm, (1, 2, sm.n))
    lam1, lam2, lamn = (float(v) for v in lam)
    band = max(tau, sm.n * _EPS) * (1.0 + max(abs(lam1), abs(lamn)))
    return CertificateReport(
        d_diag=d,
        lambda1=lam1,
        lambda2=lam2,
        residual_null=float(np.linalg.norm(cert @ x)),
        band=band,
    )


def certify_rank_one(
    y: SymmetricMatrix, x, tau: float = TAU_POS
) -> CertificateReport:
    """Certify x x^T as the unique SDP optimum for coefficient matrix Y.

    Builds D - Y with the constructed dual diagonal and reports lambda_1,
    lambda_2 and the null-direction residual ||(D - Y)x||.
    """
    return _report(*_certificate(y, x), tau)


def rank_one_side(y: SymmetricMatrix, x, tau: float = TAU_POS) -> str:
    """``certify_rank_one(y, x, tau).side``, without a spectrum of C = D - Y
    where a factorization or a smaller spectrum settles it.

    Where tau is finite and >= 0 and C x = 0 holds exactly in floating
    point, take t = 2 (tau + n eps)(1 + ||C||_inf): at least twice the
    dead band max(tau, n eps)(1 + ||C||), and at least that band plus the
    rounding of eigvalsh. On the blocked nodes K = {i : C_ii < 0}, Cauchy
    interlacing gives lambda_2(C) <= lambda_2(C[K, K]), so if that is
    below -t the side is "below". Without blocked nodes, C + ((t + 1)/n) x x^T has the
    eigenvalue t + 1 on x and the rest of C's spectrum off it, so where
    ``proves_max_below`` proves that its negation has lambda_max < -t,
    lambda_2(C) > t and the side is "above". That proof covers the
    rounding of the factorization, so it holds for every tau >= 0. (A
    blocked node makes C indefinite, and its negative eigenvalue lies off
    x, so no such proof exists.) The factorization is skipped where a Ritz
    value of C off x is already <= t, which shows lambda_2(C) <= t: it
    would fail, as it does on most trials near the threshold. Every other
    case is decided by ``certify_rank_one``'s spectrum.
    """
    x, d, cert = _certificate(y, x)
    n = y.n
    if n >= 2 and math.isfinite(tau) and tau >= 0.0 and not np.any(cert @ x):
        t = 2.0 * (tau + n * _EPS) * (1.0 + float(np.linalg.norm(cert, np.inf)))
        blocked = np.flatnonzero(np.diagonal(cert) < 0.0)
        if len(blocked) >= 2:
            sub = SymmetricMatrix._owning(cert[np.ix_(blocked, blocked)])
            if eigenvalue_k(sub, 2) < -t:
                return SIDE_BELOW
        elif not len(blocked) and _weak_node_ritz(cert, x) > t:
            # -(C + ((t + 1)/n) x x^T), built fresh and handed over
            lifted = np.outer(x, x * (-(t + 1.0) / n))
            lifted -= cert
            if proves_max_below(SymmetricMatrix._owning(lifted), -t, overwrite=True):
                return SIDE_ABOVE
    return _report(x, d, cert, tau).side


def _weak_node_ritz(cert: np.ndarray, x: np.ndarray) -> float:
    """Smallest Ritz value of C on the complement of x, from _RITZ_STEPS
    Lanczos steps started at the node with the smallest C_ii.

    It is the Rayleigh quotient of some w orthogonal to x, and with C x = 0
    every v = a x + b w has v^T C v = b^2 w^T C w, so Courant-Fischer on
    span(x, w) gives lambda_2(C) <= max(0, that value). Rounding here can
    only cost a skipped or a failed factorization, never change a side.
    """
    n = len(x)
    i = int(np.argmin(np.diagonal(cert)))
    q = x * (-x[i] / n)
    q[i] += 1.0  # e_i less its component along x
    return float(lanczos(SymmetricMatrix._owning(cert), q, _RITZ_STEPS)[0][0])


def certify_z2sync(inst: SyncInstance, tau: float = TAU_POS) -> CertificateReport:
    """Exact-recovery certificate for a synchronization instance.

    Discrete instances (and sigma = 0): ``certify_rank_one(y, z)``, whose
    matrix D - Y conjugated by diag(z) is L_G - 2 L_H. Gaussian instances:
    the same D - Y, with z z^T added. That moves the null eigenvalue on z
    to n and keeps the rest of the spectrum, so lambda2 = lambda_1(D - Y +
    z z^T) is exact while the certificate holds and a lower bound once it
    has failed; lambda1 = min(0, lambda2). ``tight`` agrees with
    certify_rank_one, but the side of a failed certificate need not: where
    D - Y has exactly one negative eigenvalue, this report reads "below"
    and certify_rank_one, whose lambda2 is then the null eigenvalue 0,
    reads "boundary".
    """
    if inst.is_discrete or inst.sigma == 0.0:
        return certify_rank_one(inst.y, inst.z, tau)
    z, d, cert = _certificate(inst.y, inst.z)
    residual = float(np.linalg.norm(cert @ z))
    cert += np.outer(z, z)
    lam = eigenvalues_selected(SymmetricMatrix._owning(cert), (1, inst.n))
    lam2, lamn = float(lam[0]), float(lam[1])
    lam1 = min(0.0, lam2)
    return CertificateReport(
        d_diag=d,
        lambda1=lam1,
        lambda2=lam2,
        residual_null=residual,
        band=max(tau, inst.n * _EPS) * (1.0 + max(abs(lam1), lamn)),
    )


def certify_sbm(g: GraphSample, tau: float = TAU_POS) -> CertificateReport:
    """Exact-recovery certificate for a labeled two-community sample.

    ``certify_rank_one(B, labels)`` with B the signed adjacency: its matrix
    D - B equals 2 (D_+ - D_- - A) + 11^T, whose second-smallest eigenvalue
    being positive makes g g^T the unique optimum of the relaxation.
    """
    if g.labels is None:
        raise MissingLabels("sample has no planted labels")
    return certify_rank_one(signed_adjacency(g), g.labels, tau)


def sbm_sufficient_condition(g: GraphSample, p: float, q: float) -> bool:
    """Mean-deviation sufficient condition for SBM tightness.

    With lhs = lambda_max(E[Gamma] - Gamma), where Gamma = D_+ - D_- - A
    and E[Gamma] is taken under SBM(n, p, q), and rhs = (n/2)(p - q),
    lhs < rhs implies the certificate holds. The verdict is
    ``proves_max_below``'s proof of lhs < s, s just below rhs, from at most
    one Cholesky factorization and no spectrum. Unbalanced labels raise
    DomainError.
    """
    n = g.n
    rhs = (n / 2) * (p - q)
    # Strict inequality with a dead band: exact ties (an empty graph hits
    # lhs == rhs analytically) only bound lambda_2 >= 0 and must not be
    # claimed as sufficient. The rule lhs < rhs - tau (1 + |lhs| + |rhs|)
    # reads f(lhs) < t with f(x) = x + tau |x|, strictly increasing, and
    # t = rhs - tau (1 + |rhs|). So it holds exactly when lhs < s = f^-1(t),
    # that is when lambda_max(E[Gamma] - Gamma) < s.
    t = rhs - TAU_POS * (1.0 + abs(rhs))
    s = t / (1.0 + TAU_POS) if t >= 0.0 else t / (1.0 - TAU_POS)
    # The diagonal of s I - (E[Gamma] - Gamma), in the bits of the matrix
    # below, is known from deg_in - deg_out alone: an entry <= 0 answers
    # "no" before the n x n build, as proves_max_below would after it.
    if not (s - centered_gap_diagonal(g, p, q)).min() > 0.0:
        return False
    dev = SymmetricMatrix._owning(centered_partition_gap(g, p, q))
    return proves_max_below(dev, s, overwrite=True)


def connectivity_spectral(g: GraphSample) -> bool:
    """Graph connectivity via lambda_2 of the graph Laplacian."""
    if g.n == 1:
        return True
    return eigenvalue_k(graph_laplacian(g), 2) > TAU_POS * g.n


def connectivity_unionfind(g: GraphSample) -> bool:
    """Exact connectivity by breadth-first search from node 0.

    Each level is one reduction: the nodes adjacent to the frontier, OR-ed
    over the frontier's adjacency rows, less the nodes already reached.
    """
    a = g.adjacency
    n = g.n
    reached = np.zeros(n, dtype=bool)
    reached[:1] = True
    frontier = np.flatnonzero(reached)
    count = frontier.size
    while frontier.size and count < n:
        new = np.logical_or.reduce(a[frontier], axis=0) & ~reached
        reached |= new
        frontier = np.flatnonzero(new)
        count += frontier.size
    return 0 < count == n


def flip_oracle_z2(inst: SyncInstance) -> int:
    """Single-node flip statistic min_i(deg_+(i) - deg_-(i)).

    The statistic deg_G(i) - 2 deg_H(i) is the certificate's own dual
    diagonal D_ii = sum_j y_ij z_i z_j, exact in floating point for +-1
    entries. A negative minimum means flipping that node strictly improves
    the likelihood, so the maximum-likelihood estimate cannot equal the
    ground truth and exact recovery is blocked.
    """
    if not inst.is_discrete:
        raise RequiresDiscreteInstance("flip oracle needs a sign-flip instance")
    return int(dual_diagonal(inst.y, inst.z).min())


def flip_oracle_sbm(g: GraphSample) -> int:
    """Single-node degree statistic min_i(deg_in(i) - deg_out(i)).

    Reported as-is: a negative minimum is the standard impossibility
    statistic for balanced two-community recovery.
    """
    return int(g.degree_gap.min())


def spectral_diag_ratio(l: SymmetricMatrix, overwrite: bool = False) -> RatioReport:
    """lambda_max(L) / max_i L_ii for a Laplacian with positive peak diagonal.

    lambda_max is ``largest_eigenvalue``'s proved Lanczos value; with
    ``overwrite`` the caller hands l over to be factorized in place.
    """
    a = l.array
    n = l.n
    row_tol = 1e-9 * n * (1.0 + l.max_abs())
    if float(np.max(np.abs(a.sum(axis=1)))) > row_tol:
        raise NonLaplacian("row sums do not vanish within tolerance")
    max_diag = float(np.max(np.diag(a)))
    if max_diag <= 0.0:
        raise NonPositiveDiagonalMax("largest diagonal entry must be positive")
    lam_max = largest_eigenvalue(l, overwrite)[0]
    return RatioReport(ratio=lam_max / max_diag, max_diag=max_diag, lam_max=lam_max)


def norm_bound_check(x: SymmetricMatrix, sigma: float, t: float) -> bool:
    """Whether ||X|| <= 3 sigma + t for the ensemble's row scale sigma."""
    if t < 0.0 or math.isnan(t):
        raise DomainError("t must be >= 0")
    return spectral_norm(x) <= 3.0 * sigma + t
