"""Dense symmetric eigenvalues on LAPACK.

``SymmetricMatrix`` is the validated input type; the spectra come from
numpy's LAPACK drivers (``syevd``). The certificate sweeps only need the
second-smallest or largest eigenvalue, which is read off the full spectrum.
A positive-definiteness test needs no spectrum: it is one Cholesky
factorization (``potrf``), skipped when a diagonal entry is not positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import IndexOutOfRange, NonConvergence


class SymmetricMatrix:
    """Immutable dense real symmetric matrix.

    Entries (i, j) and (j, i) compare equal by construction and the backing
    array is read-only, so instances can be shared across threads. NaN and
    infinite entries are rejected from outside the package; its builders
    hand over the fresh array they filled through ``_owning``, unchecked.
    """

    __slots__ = ("_a",)

    def __init__(self, array):
        a = np.array(array, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-d array")
        if a.shape[0] == 0:
            raise ValueError("empty matrix")
        if not np.array_equal(a, a.T):
            raise ValueError("array is not symmetric")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _owning(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Wrap, without a copy or a check, a fresh finite float64 array that
        is exactly symmetric by construction."""
        a.setflags(write=False)
        m = object.__new__(cls)
        m._a = a
        return m

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._a)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymmetricMatrix(n={self.n})"


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, eigenvalues ascending.

    ``eigenvectors`` column j pairs with ``eigenvalues[j]``. ``residual`` is
    the largest column residual ||M v - lambda v||_2, reported only when
    eigenvectors were computed.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None
    residual: Optional[float] = None


def _lapack(routine, m: SymmetricMatrix):
    """Run a ``numpy.linalg`` eigen routine on ``m``; LinAlgError becomes
    NonConvergence (exit code 3 on the command line)."""
    try:
        return routine(m.array)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(
            f"LAPACK {routine.__name__} failed at n={m.n}: {exc}"
        ) from exc


def eigendecompose(m: SymmetricMatrix, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a symmetric matrix, ascending.

    Raises NonConvergence if LAPACK fails to converge.
    """
    if not want_vectors:
        return Spectrum(_lapack(np.linalg.eigvalsh, m))
    vals, vecs = _lapack(np.linalg.eigh, m)
    res = m.array @ vecs - vecs * vals[np.newaxis, :]
    residual = float(np.max(np.sqrt(np.sum(res * res, axis=0))))
    return Spectrum(vals, vecs, residual)


def eigenvalue_k(m: SymmetricMatrix, k: int) -> float:
    """k-th smallest eigenvalue (1-indexed, with multiplicity)."""
    return float(eigenvalues_selected(m, (k,))[0])


def eigenvalues_selected(m: SymmetricMatrix, ks: Sequence[int]) -> np.ndarray:
    """Selected eigenvalues by 1-based index, from one decomposition."""
    for k in ks:
        if not 1 <= k <= m.n:
            raise IndexOutOfRange(f"k={k} outside 1..{m.n}")
    return _lapack(np.linalg.eigvalsh, m)[np.asarray(ks, dtype=np.intp) - 1]


def is_positive_definite(m: SymmetricMatrix) -> bool:
    """Whether m is positive definite, from one Cholesky factorization.

    LAPACK ``potrf`` stops at the first pivot that is not positive, so a
    ``LinAlgError`` here is the answer "no", not a convergence failure. A
    diagonal entry <= 0 answers "no" without factorizing: ``potrf`` only
    subtracts sums of squares from a pivot, which cannot make it positive.
    """
    if not np.diagonal(m.array).min() > 0.0:
        return False
    try:
        np.linalg.cholesky(m.array)
    except np.linalg.LinAlgError:
        return False
    return True


def spectral_norm(m: SymmetricMatrix) -> float:
    """Spectral norm max(|lambda_1|, |lambda_n|)."""
    lam = eigenvalues_selected(m, (1, m.n))
    return float(np.max(np.abs(lam)))
