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
#: is raised to it (``_report``).
TAU_POS = 1e-9

SIDE_ABOVE = "above"
SIDE_BELOW = "below"
SIDE_BOUNDARY = "boundary"

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a rank-one dual-certificate evaluation.

    ``band`` is the positivity dead band max(tau, n eps) (1 + ||D - Y||)
    against which ``lambda2`` is compared, and ``tight`` is true exactly
    when lambda2 > band. The floor n eps covers eigvalsh's rounding of a
    zero lambda_2, so a float "above" or "below" holds also at tau = 0; it
    is below the default tau for every n < 4.5e6. ``feasible`` (lambda1 >=
    -band) makes D the dual that certifies x x^T optimal, unique or not;
    D itself is ``dual_diagonal(y, x)``.
    """

    lambda1: float
    lambda2: float
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
    """(x, D - Y): the one builder of the discrete certificate matrix."""
    d = dual_diagonal(y, x)  # checks x, once
    x = np.asarray(x, dtype=np.float64)
    # diag(d) - Y entry by entry: 0.0 - Y off the diagonal, not -Y, which
    # would put -0.0 where Y is zero, and d - Y_ii on it.
    cert = np.subtract(0.0, y.array, order="C")
    np.fill_diagonal(cert, d - y.array.diagonal())
    return x, cert


def _extremes(cert: np.ndarray) -> tuple[float, float, float]:
    """(lambda_1, lambda_2, lambda_n) of D - Y, from one decomposition."""
    n = cert.shape[0]
    lam = [cert[0, 0]] * 3 if n == 1 else \
        eigenvalues_selected(SymmetricMatrix._owning(cert), (1, 2, n))
    return tuple(float(v) for v in lam)


def _report(lam1: float, lam2: float, lamn: float, n: int,
            tau: float) -> CertificateReport:
    """The one builder of a report, and the one home of its dead band."""
    band = max(tau, n * _EPS) * (1.0 + max(abs(lam1), abs(lamn)))
    return CertificateReport(lambda1=lam1, lambda2=lam2, band=band)


def certify_rank_one(
    y: SymmetricMatrix, x, tau: float = TAU_POS
) -> CertificateReport:
    """Certify x x^T as the unique SDP optimum for coefficient matrix Y.

    Builds D - Y with the constructed dual diagonal and reports its
    lambda_1 and lambda_2 against the dead band.
    """
    return _report(*_extremes(_certificate(y, x)[1]), y.n, tau)


def rank_one_side(y: SymmetricMatrix, x, tau: float = TAU_POS) -> str:
    """``certify_rank_one(y, x, tau).side``, without a spectrum of C = D - Y
    where one of two interlacing bounds, each true of every symmetric C,
    proves it.

    Where 0 <= tau < 1, t = 2 (tau + n eps)(1 + ||C||_inf) is at
    least twice the dead band max(tau, n eps)(1 + ||C||), so at least the
    band plus eigvalsh's rounding: lambda_2(C) < -t reads "below" and
    lambda_2(C) > t reads "above". The reject: on the blocked nodes
    K = {i : C_ii < 0}, Cauchy interlacing gives lambda_2(C) <=
    lambda_2(C[K, K]), so if that is below -t the side is "below". The
    accept, tried when no node is blocked: rank-one Weyl interlacing gives
    lambda_2(C) >= lambda_1(C + c x x^T) for every c >= 0, so where
    ``proves_max_below`` proves lambda_max(-(C + ((t + 1)/n) x x^T)) < -t,
    under the factorization's rounding and so for every tau >= 0, the side
    is "above". Every other case reads ``certify_rank_one``'s spectrum; at
    tau >= 1 that is every case, since the band max(tau, n eps)(1 + max
    |lambda|) then exceeds |lambda_2| and the side is "boundary" (and t, for
    a tau near the float maximum, would overflow).
    """
    x, cert = _certificate(y, x)
    n = y.n
    if n >= 2 and 0.0 <= tau < 1.0:
        t = 2.0 * (tau + n * _EPS) * (1.0 + float(np.linalg.norm(cert, np.inf)))
        blocked = np.flatnonzero(np.diagonal(cert) < 0.0)
        if len(blocked) >= 2:
            sub = SymmetricMatrix._owning(cert[np.ix_(blocked, blocked)])
            if eigenvalue_k(sub, 2) < -t:
                return SIDE_BELOW
        elif not len(blocked):
            # -(C + ((t + 1)/n) x x^T), built fresh and handed over
            lifted = np.outer(x, x * (-(t + 1.0) / n))
            lifted -= cert
            if proves_max_below(SymmetricMatrix._owning(lifted), -t, overwrite=True):
                return SIDE_ABOVE
    return _report(*_extremes(cert), n, tau).side


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
    z, cert = _certificate(inst.y, inst.z)
    cert += np.outer(z, z)
    lam = eigenvalues_selected(SymmetricMatrix._owning(cert), (1, inst.n))
    lam2, lamn = float(lam[0]), float(lam[1])
    return _report(min(0.0, lam2), lam2, lamn, inst.n, tau)


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
