"""Matrix constructions: Laplacians, degree splits, signed adjacency.

A Laplacian here is any symmetric matrix with vanishing row sums (not
necessarily positive semidefinite): L_X = D_X - X where (D_X)_ii is the
off-diagonal row sum of X.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .eig import SymmetricMatrix
from .ensembles import GraphSample, SyncInstance
from .errors import MissingLabels, RequiresDiscreteInstance


class DegreeSplit(NamedTuple):
    """Per-node same-cluster and cross-cluster degree counts."""

    deg_in: np.ndarray
    deg_out: np.ndarray


def laplacian_of(x: SymmetricMatrix) -> SymmetricMatrix:
    """L_X = D_X - X with (D_X)_ii = sum_{j != i} x_ij.

    The diagonal of x never enters, so L is bit-identical for x and
    x + diag(d); row sums vanish up to accumulated rounding.
    """
    b = x.array.copy()
    np.fill_diagonal(b, 0.0)
    l = -b
    np.fill_diagonal(l, b.sum(axis=1))
    return SymmetricMatrix(l)


def graph_laplacian(g: GraphSample) -> SymmetricMatrix:
    """Standard graph Laplacian D - A; positive semidefinite, L1 = 0."""
    a = g.adjacency.astype(np.float64)
    deg = g.adjacency.sum(axis=1, dtype=np.int64)
    l = -a
    np.fill_diagonal(l, deg.astype(np.float64))
    return SymmetricMatrix(l)


def centered_laplacian(g: GraphSample, p: float) -> SymmetricMatrix:
    """Deviation E[L_G] - L_G of an ER(n, p) graph Laplacian from its mean.

    Row sums vanish; the diagonal entries are (n-1)p - deg(i).
    """
    n = g.n
    x = np.full((n, n), float(p))
    np.fill_diagonal(x, 0.0)
    x -= g.adjacency
    return laplacian_of(SymmetricMatrix(x))


def sync_laplacian(inst: SyncInstance) -> SymmetricMatrix:
    """L_G - 2 L_H for a discrete synchronization instance.

    Diagonal entries are deg(i) - 2 deg_H(i), i.e. clean minus corrupted
    incident measurements.
    """
    if not inst.is_discrete:
        raise RequiresDiscreteInstance("sync_laplacian needs a sign-flip instance")
    lg = graph_laplacian(GraphSample(inst.n, inst.g_edges))
    lh = graph_laplacian(GraphSample(inst.n, inst.h_edges))
    return SymmetricMatrix(lg.array - 2.0 * lh.array)


def partition_gap_matrix(g: GraphSample) -> SymmetricMatrix:
    """diag(deg_in - deg_out) - A for a labeled two-community sample.

    Conjugating by the labels turns it into a Laplacian (zero row sums).
    """
    din, dout = degree_split(g)
    m = -g.adjacency.astype(np.float64)
    np.fill_diagonal(m, (din - dout).astype(np.float64))
    return SymmetricMatrix(m)


def centered_partition_gap(g: GraphSample, p: float, q: float) -> SymmetricMatrix:
    """Deviation E[Gamma] - Gamma of the partition gap matrix
    Gamma = diag(deg_in - deg_out) - A of an SBM(n, p, q) sample."""
    n = g.n
    gamma = partition_gap_matrix(g).array
    e_gamma = -np.where(np.equal.outer(g.labels, g.labels), p, q)
    np.fill_diagonal(e_gamma, (n / 2 - 1) * p - (n / 2) * q)
    return SymmetricMatrix(e_gamma - gamma)


def signed_adjacency(g: GraphSample) -> SymmetricMatrix:
    """B = 2A - (11^T - I): +1 for edges, -1 for non-edges, zero diagonal."""
    b = 2.0 * g.adjacency - 1.0
    np.fill_diagonal(b, 0.0)
    return SymmetricMatrix(b)


def degree_split(g: GraphSample) -> DegreeSplit:
    """Same-cluster and cross-cluster degrees of a labeled sample."""
    if g.labels is None:
        raise MissingLabels("sample has no planted labels")
    same = np.equal.outer(g.labels, g.labels)
    deg = g.adjacency.sum(axis=1, dtype=np.int64)
    deg_in = (g.adjacency * same).sum(axis=1, dtype=np.int64)
    return DegreeSplit(deg_in=deg_in, deg_out=deg - deg_in)
