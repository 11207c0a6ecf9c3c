"""Matrix constructions: Laplacians, signed adjacency, E[Gamma] - Gamma.

A Laplacian here is any symmetric matrix with vanishing row sums (not
necessarily positive semidefinite): L_X = D_X - X where (D_X)_ii is the
off-diagonal row sum of X. Every Laplacian built here comes from one
in-place core, which each builder hands -X in a fresh array.

The certificate matrices themselves are not built here: every
certificate is ``certificates.certify_rank_one``'s D - Y for the model's
coefficient matrix Y (``signed_adjacency`` for SBM, the sign measurements
for synchronization) and planted signs x. The SBM mean E[Gamma] is
spelled out once, in ``centered_gap_diagonal``.
"""

from __future__ import annotations

import numpy as np

from .eig import SymmetricMatrix
from .ensembles import GraphSample
from .errors import DomainError


def _laplacian_in(a: np.ndarray) -> SymmetricMatrix:
    """L_X built in a, a fresh C-ordered symmetric array that holds -X off
    the diagonal, and handed over: -X is kept there, and the diagonal
    becomes 0.0 minus the off-diagonal row sum of -X. Negation commutes
    exactly with the row sum, so that is X's row sum bit for bit, and
    ``0.0 -`` keeps +0.0 where it is zero."""
    np.fill_diagonal(a, 0.0)
    deg = a.sum(axis=1)
    np.fill_diagonal(a, np.subtract(0.0, deg, out=deg))
    return SymmetricMatrix._owning(a)


def laplacian_of(x: SymmetricMatrix) -> SymmetricMatrix:
    """L_X = D_X - X with (D_X)_ii = sum_{j != i} x_ij.

    The diagonal of x never enters, so L is bit-identical for x and
    x + diag(d); row sums vanish up to accumulated rounding.
    """
    return _laplacian_in(np.negative(x.array, order="C"))


def negated_laplacian(w: SymmetricMatrix, overwrite: bool = False) -> SymmetricMatrix:
    """L_{-W} = -L_W = laplacian_of(-W), bit for bit: w off the diagonal,
    and on it 0.0 minus w's off-diagonal row sum.

    With ``overwrite`` the caller hands w over and L is built in its buffer.
    """
    a = w.array
    if overwrite:
        a.setflags(write=True)
    else:
        a = a.copy()
    return _laplacian_in(a)


def graph_laplacian(g: GraphSample) -> SymmetricMatrix:
    """Standard graph Laplacian D - A; positive semidefinite, L1 = 0."""
    return _laplacian_in(np.negative(g.adjacency, dtype=np.float64, order="C"))


def centered_laplacian(g: GraphSample, p: float) -> SymmetricMatrix:
    """Deviation E[L_G] - L_G of an ER(n, p) graph Laplacian from its mean.

    Row sums vanish; the diagonal entries are (n-1)p - deg(i). The core
    gets -(p - A), not A - p: the two differ in the sign of every zero,
    p - A at a non-edge of p = 0 or an edge of p = 1.
    """
    a = np.subtract(p, g.adjacency, dtype=np.float64, order="C")
    return _laplacian_in(np.negative(a, out=a))


def centered_gap_diagonal(g: GraphSample, p: float, q: float) -> np.ndarray:
    """The diagonal of E[Gamma] - Gamma for an SBM(n, p, q) sample:
    E[Gamma]_ii = (n/2 - 1) p - (n/2) q, the balanced mean, less
    deg_in - deg_out. Labels that do not sum to 0 raise DomainError."""
    stat = g.degree_gap
    if np.sum(g.labels) != 0:
        raise DomainError("labels must be balanced: as many +1 as -1")
    n = g.n
    return ((n / 2 - 1) * p - (n / 2) * q) - stat


def centered_partition_gap(g: GraphSample, p: float, q: float) -> np.ndarray:
    """A fresh array E[Gamma] - Gamma: the deviation of the partition gap
    matrix Gamma = diag(deg_in - deg_out) - A of an SBM(n, p, q) sample
    from its mean."""
    diag = centered_gap_diagonal(g, p, q)
    dev = np.where(np.equal.outer(g.labels, g.labels), p, q)
    np.negative(dev, out=dev)
    dev += g.adjacency  # -E[Gamma] - (-A) off the diagonal, in those bits
    np.fill_diagonal(dev, diag)
    return dev


def signed_adjacency(g: GraphSample) -> SymmetricMatrix:
    """B = 2A - (11^T - I): +1 for edges, -1 for non-edges, zero diagonal."""
    b = 2.0 * g.adjacency - 1.0
    np.fill_diagonal(b, 0.0)
    return SymmetricMatrix._owning(b)
