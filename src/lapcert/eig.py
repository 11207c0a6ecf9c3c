"""Dense symmetric eigenvalues on LAPACK.

``SymmetricMatrix`` is the validated input type. Full spectra and selected
eigenvalues come from numpy's LAPACK ``syevd`` (``eigvalsh``/``eigh``).
Where only one side of an extreme eigenvalue matters, one Cholesky
factorization decides it and no spectrum is computed. ``proves_max_below``
is the one place that does: it proves lambda_max(M) < s by factorizing
(s - delta) I - M, with delta Demmel's backward-error slack, through
``_factorizes``, numpy's bundled LAPACKE ``dpotrf`` run in place. Every
such verdict goes through it: the proof of ``largest_eigenvalue``'s
Lanczos guess, and, in ``certificates``, ``rank_one_side``'s accept and
the SBM sufficient condition. ``lanczos`` multiplies through CBLAS
``dsymv``, which reads only the upper triangle, where n >= 512 and the
array is C-contiguous, and through ``a @ q`` elsewhere. This module is
the one that binds numpy's OpenBLAS, every entry point through one table,
``_ENTRY_POINTS``, and one cached resolver, ``_openblas``: that
``dpotrf``, that ``dsymv``, the ``<verb>_num_threads`` entry points,
which the sweep's workers set and the samplers read as their thread
budget, and ``blas_thread_shutdown_``. A forked worker's
``openblas_set_num_threads(1)`` first rebuilds the server threads that
OpenBLAS's fork handler stopped, and they busy-wait, with no work, through
OpenBLAS's thread timeout; ``pin_blas_threads`` stops them again. On two
workers and two cores that spin took 50-70 ms of CPU per worker and sweep:
the first trials of a fresh worker ran at a quarter of their warm speed.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, IndexOutOfRange, NonConvergence


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
        return float(max(self._a.max(), -self._a.min()))

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


def spectral_norm(m: SymmetricMatrix) -> float:
    """Spectral norm max(|lambda_1|, |lambda_n|)."""
    lam = eigenvalues_selected(m, (1, m.n))
    return float(np.max(np.abs(lam)))


def lanczos(m: SymmetricMatrix, start: np.ndarray, steps: int,
            rtol: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Ritz values of m on the Krylov space of ``start``, ascending, and the
    residual ||m y - theta y|| of each Ritz pair (theta, y), read off the
    tridiagonal as beta_k |s_k| for the last entry s_k of its eigenvector.

    Lanczos with full reorthogonalization (two classical Gram-Schmidt
    passes), for at most ``steps`` steps. It stops early when the space is
    invariant, its Ritz values then exact. Where rtol > 0 it tests the
    largest Ritz value at every ``_CHECK_EVERY``-th step, each test an
    ``eigh`` of the tridiagonal, and returns the values of the first step
    whose residual is at most rtol |theta|. With rtol = 0 only the last
    step is decomposed. The products read only the upper triangle of m
    (OpenBLAS ``dsymv``) at n >= ``_SYMV_MIN_N``.

    Raises DomainError, before any product, for steps < 1 and for a start
    that is not n values with a finite, non-zero norm.
    """
    a, n = m.array, m.n
    if steps < 1:
        raise DomainError(f"lanczos needs steps >= 1, got {steps}")
    start = np.asarray(start, dtype=np.float64)
    norm = np.linalg.norm(start)  # NaN, inf or 0 unless start is a direction
    if start.shape != (n,) or not 0.0 < norm < np.inf:
        raise DomainError(f"lanczos needs a start of {n} values with a finite, non-zero norm")
    steps = min(steps, n)
    q = np.empty((steps, n))
    q[0] = start / norm
    alpha, beta = np.zeros(steps), np.zeros(steps)
    symv = (_openblas("dsymv") if n >= _SYMV_MIN_N and a.flags.c_contiguous else ())[:1]
    if symv:
        w = np.zeros(n)
        a_ptr, q_ptr, w_ptr = a.ctypes.data, q.ctypes.data, w.ctypes.data
    for k in range(steps):
        if symv:
            symv[0](_CBLAS_ROW_MAJOR, _CBLAS_UPPER, n, 1.0, a_ptr, n,
                    q_ptr + k * q.strides[0], 1, 0.0, w_ptr, 1)
        else:
            w = a @ q[k]
        basis = q[:k + 1]
        h = basis @ w
        alpha[k] = h[k]
        w -= basis.T @ h
        w -= basis.T @ (basis @ w)
        beta[k] = np.linalg.norm(w)
        last = k + 1 == steps or not beta[k] > 0.0
        if last or (rtol > 0.0 and (k + 1) % _CHECK_EVERY == 0):
            t = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(t)
            res = beta[k] * np.abs(s[-1])
            if last or res[-1] <= rtol * abs(theta[-1]):
                return theta, res
        q[k + 1] = w / beta[k]


@functools.cache
def _openblas_libraries() -> tuple:
    """Each OpenBLAS mapped into this process, loaded once per process from
    one read of ``/proc/self/maps``; empty where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return ()
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


def _num_threads(verb: str) -> tuple:
    return tuple(f"{prefix}openblas_{verb}_num_threads{suffix}"
                 for prefix in ("", "scipy_") for suffix in ("", "64_"))


_INT, _I64, _PTR, _DBL = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
#: Every OpenBLAS entry point ``eig`` calls: its spellings, tried in order,
#: its ``argtypes`` and its ``restype``. numpy's wheels rename the thread
#: counts (``scipy_openblas_set_num_threads64_``) but export
#: ``blas_thread_shutdown_`` unprefixed. Only the ILP64 build's ``64_``
#: LAPACKE and CBLAS symbols are bound: their integers are 64 bits, and
#: the layout (and for dsymv the triangle) a C int.
_ENTRY_POINTS = {
    "get_num_threads": (_num_threads("get"), [], _INT),
    "set_num_threads": (_num_threads("set"), [_INT], None),
    "blas_thread_shutdown_": (("blas_thread_shutdown_",), [], _INT),
    "dpotrf": (("scipy_LAPACKE_dpotrf64_", "LAPACKE_dpotrf64_"),
               [_INT, ctypes.c_char, _I64, _PTR, _I64], _I64),
    "dsymv": (("scipy_cblas_dsymv64_", "cblas_dsymv64_"),
              [_INT, _INT, _I64, _DBL, _PTR, _I64, _PTR, _I64, _DBL, _PTR, _I64], None),
}


@functools.cache
def _openblas(name: str) -> tuple:
    """The ``_ENTRY_POINTS`` entry ``name``, typed, of each OpenBLAS mapped
    into this process that exports one of its spellings, resolved once per
    process; empty where none does."""
    spellings, argtypes, restype = _ENTRY_POINTS[name]
    found = []
    for lib in _openblas_libraries():
        fn = next((getattr(lib, s) for s in spellings if hasattr(lib, s)), None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            found.append(fn)
    return tuple(found)


def pin_blas_threads() -> None:
    """Run each OpenBLAS in this process on one thread, the calling one;
    do nothing where none is found.

    In a forked child, setting the count first rebuilds the server threads
    that OpenBLAS's fork handler shut down in the parent: one fewer than
    the parent's count, which get no work at one thread but busy-wait
    through OpenBLAS's thread timeout. ``blas_thread_shutdown_``, OpenBLAS's
    own fork-prepare routine, then stops them, and at one thread no later
    call starts them again. That call is safe only while no other thread
    is inside BLAS, as in a pool's initializer; where the symbol is absent,
    the server threads are left to time out.
    """
    for set_threads in _openblas("set_num_threads"):
        set_threads(1)
    for shutdown in _openblas("blas_thread_shutdown_"):
        shutdown()


def blas_threads() -> int:
    """Threads the OpenBLAS in this process runs, read on every call (the
    most any of them reports); 1 where none is found. A pool worker pinned
    by ``pin_blas_threads`` reads 1."""
    return max((get_threads() for get_threads in _openblas("get_num_threads")), default=1)


_LAPACK_COL_MAJOR = 102
_CBLAS_ROW_MAJOR, _CBLAS_UPPER = 101, 121
#: Smallest n at which ``lanczos`` multiplies through ``dsymv``. Per
#: product, ``a @ q`` (dgemv) against dsymv on two OpenBLAS threads: 1.5
#: against 2.1 us at n = 120, where the ctypes call costs more than it
#: saves; 9.2 against 5.7 us at n = 300; 117 against 44 us at n = 1000.
#: Below the cut-off a step saves a few us at most, and small matrices keep
#: the dgemv bits of their products.
_SYMV_MIN_N = 512
#: Steps between ``lanczos``'s convergence tests where rtol > 0.
_CHECK_EVERY = 4


def _factorizes(a: np.ndarray) -> bool:
    """Whether Cholesky runs to completion on the symmetric C-contiguous
    float64 array ``a``, which it may overwrite.

    ``dpotrf`` stops at the first pivot that is not positive, so a failure
    is the answer "no". It runs in place, column-major with uplo 'L' on the
    row-major buffer, so it reads and writes only the upper triangle and
    the diagonal. Where the symbol is absent, ``numpy.linalg.cholesky``
    factorizes a copy instead.
    """
    potrf = _openblas("dpotrf")
    if not potrf:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    n = a.shape[0]
    return potrf[0](_LAPACK_COL_MAJOR, b"L", n, a.ctypes.data, n) == 0


_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
#: Relative Lanczos residual at which the top Ritz value is taken as λ_max's
#: guess, and the most steps spent reaching it.
_LANCZOS_RTOL = 1e-13
_LANCZOS_STEPS = 300


def _cholesky_slack(n: int, trace: float) -> float:
    """2 gamma_{n+2} tr(A), gamma_k = k u / (1 - k u): where floating-point
    Cholesky of the rounded A = fl(s I - L) runs to completion,
    lambda_max(L) < s + this (Demmel 1989; Rump 2006, BIT 46). Its factor
    R has R^T R = A + E with |E| <= gamma_{n+1} |R^T| |R|, so
    ||E||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr(A); the diagonal's
    rounding adds at most u max_i A_ii."""
    k = (n + 2) * _UNIT_ROUNDOFF
    return 2.0 * k / (1.0 - k) * trace


def proves_max_below(m: SymmetricMatrix, s: float, overwrite: bool = False) -> bool:
    """Whether one Cholesky factorization proves lambda_max(m) < s.

    It factorizes (s - delta) I - m, with delta the backward-error slack
    ``_cholesky_slack`` of s I - m and s - delta rounded down. Where that
    runs to completion, lambda_max(m) < s - delta + delta' <= s, delta' the
    slack of the matrix factorized, whose trace is at most that of s I - m.
    So a "yes" is a proof in floating point, and an exactly singular
    s I - m is never taken for a definite one.

    A diagonal entry <= 0 answers "no" without touching m: ``potrf`` only
    subtracts sums of squares from a pivot, which cannot make it positive.
    With ``overwrite`` the caller hands m over, and where the answer is not
    decided by the diagonal, m's C-contiguous buffer is made writeable and
    holds the factorization (``_factorizes`` writes only the upper triangle
    and the diagonal; the strict lower triangle holds -m). Otherwise one
    n x n copy is factorized.
    """
    a, n = m.array, m.n
    gap = s - np.diagonal(a)
    shift = np.nextafter(s - _cholesky_slack(n, max(float(gap.sum()), 0.0)), -np.inf)
    diag = shift - np.diagonal(a)
    if not diag.min() > 0.0:
        return False
    if overwrite and a.flags.c_contiguous:  # dpotrf reads lda = n
        a.setflags(write=True)
        np.negative(a, out=a)
    else:
        a = np.negative(a, order="C")
    a.flat[:: n + 1] = diag
    return _factorizes(a)


def largest_eigenvalue(m: SymmetricMatrix, overwrite: bool = False) -> Tuple[float, float]:
    """(theta, upper): the largest eigenvalue of m, and an upper bound on it.

    theta is the top Ritz value of Lanczos started at the centered
    diagonal, run until its residual r is about 1e-13 |theta|. It is
    returned only once ``proves_max_below`` proves lambda_max < upper =
    theta + r + 2 delta, with delta the Cholesky backward-error slack of
    (theta + r) I - m. theta is a Rayleigh quotient, below lambda_max up to
    rounding. Where ``dpotrf`` is absent or the factorization fails, the
    answer is eigvalsh's lambda_max, with upper equal to it: the numpy
    fallback, which copies the matrix, is not tried.

    With ``overwrite`` the caller hands m over and it is factorized in its
    own buffer, which is left undefined; otherwise one n x n copy is made.
    """
    a, n = m.array, m.n
    diag = np.diagonal(a).copy()
    start = diag - diag.mean()
    if _openblas("dpotrf") and np.any(start):
        theta, res = lanczos(m, start, _LANCZOS_STEPS, _LANCZOS_RTOL)
        theta, r = float(theta[-1]), float(res[-1])
        if r <= _LANCZOS_RTOL * abs(theta):
            base = theta + r
            upper = base + 2.0 * _cholesky_slack(n, max(n * base - float(diag.sum()), 0.0))
            if proves_max_below(m, upper, overwrite):
                return theta, upper
            if a.flags.writeable:
                # factorized in m's own buffer: its strict lower triangle still
                # holds -m, and eigvalsh (UPLO="L", its default) reads only
                # that and the diagonal
                np.negative(a, out=a)
                a.flat[:: n + 1] = diag
    lam = float(_lapack(np.linalg.eigvalsh, m)[-1])
    return lam, lam
