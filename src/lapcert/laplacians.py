"""Matrix constructions: Laplacians, signed adjacency, E[Gamma] - Gamma.

A Laplacian here is any symmetric matrix with vanishing row sums (not
necessarily positive semidefinite): L_X = D_X - X where (D_X)_ii is the
off-diagonal row sum of X.

The certificate matrices themselves are not built here: every discrete
certificate is ``certificates.certify_rank_one``'s D - Y for the model's
coefficient matrix Y (``signed_adjacency`` for SBM, the sign measurements
for synchronization) and planted signs x.
"""

from __future__ import annotations

import numpy as np

from .eig import SymmetricMatrix
from .ensembles import GraphSample
from .errors import MissingLabels


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


def degree_gap(g: GraphSample) -> np.ndarray:
    """deg_in - deg_out = labels * (A labels) (int64) of a labeled sample:
    the dual diagonal of (A, labels), the diagonal of Gamma and the
    statistic the SBM flip oracle reads."""
    if g.labels is None:
        raise MissingLabels("sample has no planted labels")
    labels = g.labels.astype(np.int64)
    return labels * (g.adjacency @ labels)


def centered_partition_gap(g: GraphSample, p: float, q: float) -> np.ndarray:
    """A fresh array E[Gamma] - Gamma: the deviation of the partition gap
    matrix Gamma = diag(deg_in - deg_out) - A of an SBM(n, p, q) sample
    from its mean."""
    stat = degree_gap(g)
    n = g.n
    dev = np.where(np.equal.outer(g.labels, g.labels), p, q)
    np.negative(dev, out=dev)
    dev += g.adjacency  # -E[Gamma] - (-A) off the diagonal, in those bits
    np.fill_diagonal(dev, ((n / 2 - 1) * p - (n / 2) * q) - stat)
    return dev


def signed_adjacency(g: GraphSample) -> SymmetricMatrix:
    """B = 2A - (11^T - I): +1 for edges, -1 for non-edges, zero diagonal."""
    b = 2.0 * g.adjacency - 1.0
    np.fill_diagonal(b, 0.0)
    return SymmetricMatrix(b)
