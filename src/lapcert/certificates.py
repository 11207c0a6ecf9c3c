"""Tightness and recovery certification.

The rank-one dual certificate: for Y symmetric and x in {+-1}^n, take the
diagonal D with D_ii = sum_j Y_ij x_i x_j. Then trace(D) = x^T Y x and
(D - Y)x = 0 identically, so whenever lambda_2(D - Y) > 0 the matrix x x^T
is the unique optimum of max trace(YX) over {X >= 0, X_ii = 1}, and the
corresponding combinatorial problem is solved exactly by the relaxation.

The per-model certifiers specialize this to the synchronization and
two-community matrices, where the certificate matrix is (a conjugation of)
a Laplacian and the condition becomes positivity of its second-smallest
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eig import SymmetricMatrix, eigenvalue_k, eigenvalues_selected, spectral_norm
from .ensembles import EnsembleProfile, GraphSample, SyncInstance
from .errors import (
    MissingLabels,
    MissingParams,
    NonLaplacian,
    NonPositiveDiagonalMax,
    NonSignVector,
    RequiresDiscreteInstance,
)
from .laplacians import (
    degree_split,
    graph_laplacian,
    laplacian_of,
    partition_gap_matrix,
    sync_laplacian,
)

#: Positivity dead band, relative to 1 + ||certificate matrix||. Strict
#: inequalities in exact arithmetic need a tolerance in floating point;
#: instances inside the band are classified "boundary".
TAU_POS = 1e-9

SIDE_ABOVE = "above"
SIDE_BELOW = "below"
SIDE_BOUNDARY = "boundary"


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a rank-one dual-certificate evaluation.

    ``margin`` equals ``lambda2``; ``band`` is the positivity dead band
    tau * (1 + ||D - Y||) against which it was compared, and ``tight`` is
    true exactly when lambda2 > band.
    """

    d_diag: np.ndarray
    lambda1: float
    lambda2: float
    residual_null: float
    tight: bool
    margin: float
    band: float

    @property
    def side(self) -> str:
        if self.lambda2 > self.band:
            return SIDE_ABOVE
        if self.lambda2 < -self.band:
            return SIDE_BELOW
        return SIDE_BOUNDARY


@dataclass(frozen=True)
class RecoveryVerdict:
    """Single-node oracle measurement for one instance."""

    oracle_block: bool
    min_stat: float
    threshold_side: str


class RatioReport(NamedTuple):
    ratio: float
    max_diag: float
    lam_max: float


class SufficiencyReport(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _as_sign_vector(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
        raise NonSignVector("x must be a length-n vector of +-1")
    return x


def dual_diagonal(y: SymmetricMatrix, x) -> np.ndarray:
    """Candidate dual diagonal D_ii = sum_j Y_ij x_i x_j."""
    x = _as_sign_vector(x, y.n)
    return x * (y.array @ x)


def _selected_three(m: np.ndarray) -> tuple[float, float, float]:
    """(lambda_1, lambda_2, lambda_n) from one decomposition."""
    sm = SymmetricMatrix(m)
    n = sm.n
    if n == 1:
        v = float(m[0, 0])
        return v, v, v
    lam = eigenvalues_selected(sm, (1, 2, n))
    return float(lam[0]), float(lam[1]), float(lam[2])


def _report_from_matrix(
    cert: np.ndarray, d: np.ndarray, x: np.ndarray, tau: float
) -> CertificateReport:
    lam1, lam2, lamn = _selected_three(cert)
    norm = max(abs(lam1), abs(lamn))
    band = tau * (1.0 + norm)
    residual = float(np.linalg.norm(cert @ x))
    return CertificateReport(
        d_diag=d,
        lambda1=lam1,
        lambda2=lam2,
        residual_null=residual,
        tight=lam2 > band,
        margin=lam2,
        band=band,
    )


def certify_rank_one(
    y: SymmetricMatrix, x, tau: float = TAU_POS
) -> CertificateReport:
    """Certify x x^T as the unique SDP optimum for coefficient matrix Y.

    Builds D - Y with the constructed dual diagonal and reports lambda_1,
    lambda_2 and the null-direction residual ||(D - Y)x||.
    """
    x = _as_sign_vector(x, y.n)
    d = dual_diagonal(y, x)
    cert = -y.array.copy()
    idx = np.arange(y.n)
    cert[idx, idx] += d
    return _report_from_matrix(cert, d, x, tau)


def certify_z2sync(inst: SyncInstance, tau: float = TAU_POS) -> CertificateReport:
    """Exact-recovery certificate for a synchronization instance.

    Discrete instances: the certificate matrix conjugated by diag(z) is
    L_G - 2 L_H, so the report is computed on that Laplacian with the
    all-ones null vector. Gaussian instances: tightness is equivalent to
    lambda_max of the Laplacian of -W staying below n / sigma; the report
    is stated on the D - Y scale (margin still equals lambda2), where the
    reported lambda2 = n - sigma * lambda_max is exact in the feasible
    regime and a lower bound once the certificate has failed. Verdicts
    agree with certify_rank_one on both paths.
    """
    n = inst.n
    if inst.is_discrete:
        lsync = sync_laplacian(inst)
        d = np.diag(lsync.array).copy()
        ones = np.ones(n)
        return _report_from_matrix(lsync.array.copy(), d, ones, tau)
    sigma = inst.params.sigma
    if sigma == 0.0:
        return certify_rank_one(inst.y, inst.z, tau)
    z = inst.z
    # Conjugated noise: W' = diag(z) W diag(z), same distribution as W.
    wprime = (z[:, None] * inst.y.array * z[None, :] - 1.0) / sigma
    np.fill_diagonal(wprime, 0.0)
    lneg = laplacian_of(SymmetricMatrix(-wprime))
    lam = eigenvalues_selected(lneg, (1, lneg.n))
    mu1, mun = float(lam[0]), float(lam[1])
    lam2 = n - sigma * mun
    lam1 = min(0.0, lam2)
    norm = max(abs(min(0.0, n - sigma * mun)), max(0.0, n - sigma * mu1))
    band = tau * (1.0 + norm)
    d = dual_diagonal(inst.y, z)
    cert_apply = d * z - inst.y.array @ z
    return CertificateReport(
        d_diag=d,
        lambda1=lam1,
        lambda2=lam2,
        residual_null=float(np.linalg.norm(cert_apply)),
        tight=lam2 > band,
        margin=lam2,
        band=band,
    )


def certify_sbm(g: GraphSample, tau: float = TAU_POS) -> CertificateReport:
    """Exact-recovery certificate for a labeled two-community sample.

    Evaluates 2 (D_+ - D_- - A) + 11^T, whose second-smallest eigenvalue
    being positive makes g g^T the unique optimum of the relaxation.
    """
    if g.labels is None:
        raise MissingLabels("sample has no planted labels")
    gap = partition_gap_matrix(g)
    cert = 2.0 * gap.array + 1.0
    labels = g.labels.astype(np.float64)
    d = np.diag(cert).copy()
    return _report_from_matrix(cert, d, labels, tau)


def sbm_sufficient_condition(g: GraphSample) -> SufficiencyReport:
    """Mean-deviation sufficient condition for SBM tightness.

    Computes lhs = lambda_max(E[Gamma] - Gamma) and rhs = (n/2)(p - q) where
    Gamma = D_+ - D_- - A; lhs < rhs implies the certificate holds.
    """
    if g.labels is None:
        raise MissingLabels("sample has no planted labels")
    if g.params is None or g.params.p is None or g.params.q is None:
        raise MissingParams("sample carries no (p, q) ensemble parameters")
    n, p, q = g.n, g.params.p, g.params.q
    gamma = partition_gap_matrix(g).array
    same = np.equal.outer(g.labels, g.labels)
    e_adj = np.where(same, p, q)
    np.fill_diagonal(e_adj, 0.0)
    e_gamma = -e_adj
    np.fill_diagonal(e_gamma, (n / 2 - 1) * p - (n / 2) * q)
    dev = SymmetricMatrix(e_gamma - gamma)
    lhs = float(eigenvalues_selected(dev, (dev.n,))[0])
    rhs = (n / 2) * (p - q)
    # Strict inequality with a dead band: exact ties (an empty graph hits
    # lhs == rhs analytically) only bound lambda_2 >= 0 and must not be
    # claimed as sufficient.
    guard = TAU_POS * (1.0 + abs(lhs) + abs(rhs))
    return SufficiencyReport(lhs=lhs, rhs=rhs, holds=lhs < rhs - guard)


def connectivity_spectral(g: GraphSample, tau: float = TAU_POS) -> bool:
    """Graph connectivity via lambda_2 of the graph Laplacian."""
    if g.n == 1:
        return True
    return eigenvalue_k(graph_laplacian(g), 2) > tau * g.n


def connectivity_unionfind(g: GraphSample) -> bool:
    """Exact connectivity by disjoint-set union over the edge list."""
    n = g.n
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    components = n
    rows, cols = np.divmod(np.flatnonzero(np.asarray(g.adjacency) != 0), n)
    upper = rows < cols
    for a, b in zip(rows[upper].tolist(), cols[upper].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            components -= 1
            if components == 1:
                return True
    return components == 1


def _oracle_verdict(min_stat: int) -> RecoveryVerdict:
    if min_stat > 0:
        side = SIDE_ABOVE
    elif min_stat < 0:
        side = SIDE_BELOW
    else:
        side = SIDE_BOUNDARY
    return RecoveryVerdict(
        oracle_block=min_stat < 0,
        min_stat=float(min_stat),
        threshold_side=side,
    )


def flip_oracle_z2(inst: SyncInstance) -> RecoveryVerdict:
    """Single-node flip statistic min_i(deg_+(i) - deg_-(i)).

    A negative minimum means flipping that node strictly improves the
    likelihood, so the maximum-likelihood estimate cannot equal the ground
    truth and exact recovery is blocked.
    """
    if not inst.is_discrete:
        raise RequiresDiscreteInstance("flip oracle needs a sign-flip instance")
    deg_g = inst.g_edges.sum(axis=1, dtype=np.int64)
    deg_h = inst.h_edges.sum(axis=1, dtype=np.int64)
    stat = deg_g - 2 * deg_h
    return _oracle_verdict(int(stat.min()))


def flip_oracle_sbm(g: GraphSample) -> RecoveryVerdict:
    """Single-node degree statistic min_i(deg_in(i) - deg_out(i)).

    Reported as-is: a negative minimum is the standard impossibility
    statistic for balanced two-community recovery.
    """
    din, dout = degree_split(g)
    stat = din - dout
    return _oracle_verdict(int(stat.min()))


def spectral_diag_ratio(l: SymmetricMatrix) -> RatioReport:
    """lambda_max(L) / max_i L_ii for a Laplacian with positive peak diagonal."""
    a = l.array
    n = l.n
    row_tol = 1e-9 * n * (1.0 + l.max_abs())
    if float(np.max(np.abs(a.sum(axis=1)))) > row_tol:
        raise NonLaplacian("row sums do not vanish within tolerance")
    max_diag = float(np.max(np.diag(a)))
    if max_diag <= 0.0:
        raise NonPositiveDiagonalMax("largest diagonal entry must be positive")
    lam_max = float(eigenvalues_selected(l, (n,))[0])
    return RatioReport(ratio=lam_max / max_diag, max_diag=max_diag, lam_max=lam_max)


def norm_bound_check(x: SymmetricMatrix, profile: EnsembleProfile, t: float) -> bool:
    """Whether ||X|| <= 3 sigma_row + t for the ensemble's row scale."""
    if t < 0.0 or math.isnan(t):
        raise ValueError("t must be >= 0")
    return spectral_norm(x) <= 3.0 * profile.sigma + t
