"""Seeded, reproducible samplers for every random model used here.

Every sampler is a pure function of its parameters and an RngStream, so a
trial is fully addressed by (master_seed, stream_id) and can be replayed or
scheduled on any worker without changing the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .eig import SymmetricMatrix
from .errors import InvalidProbability, OddDimension, UnknownEnsemble

_MASK64 = (1 << 64) - 1
_STREAM_TWEAK = 0xD2B74407B1CE6E93


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer; mixes seeds into well-separated 64-bit states."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Deterministic random substream addressed by (master_seed, stream_id).

    The same pair yields the same sequence of raw 64-bit words on every
    platform. Distinct stream ids derived from one master seed are mixed
    through a 64-bit finalizer before seeding, giving statistically
    independent streams. A stream is single-owner: parallel trials must each
    derive their own.
    """

    __slots__ = ("master_seed", "stream_id", "_bg", "_gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        mixed = _splitmix64(
            _splitmix64(self.master_seed) ^ _splitmix64(self.stream_id ^ _STREAM_TWEAK)
        )
        self._bg = np.random.PCG64(mixed)
        self._gen = np.random.Generator(self._bg)

    def clone(self) -> "RngStream":
        """Snapshot with identical state; resampling reproduces bit-exactly."""
        other = object.__new__(RngStream)
        other.master_seed = self.master_seed
        other.stream_id = self.stream_id
        other._bg = np.random.PCG64()
        other._bg.state = self._bg.state
        other._gen = np.random.Generator(other._bg)
        return other

    def u64(self, size=None):
        """Raw 64-bit uniform words."""
        return self._gen.integers(0, 1 << 64, size=size, dtype=np.uint64)

    def uniform(self, size=None):
        """Uniform float64 in [0, 1)."""
        return self._gen.random(size)

    def bernoulli(self, p: float, size=None):
        return self.uniform(size) < p

    def normal(self, size=None):
        """Standard normals via the polar (Marsaglia) rejection method."""
        n = 1 if size is None else int(np.prod(size))
        chunks = []
        got = 0
        while got < n:
            pairs = max(16, (n - got) * 7 // 10 + 8)
            u = 2.0 * self.uniform(pairs) - 1.0
            v = 2.0 * self.uniform(pairs) - 1.0
            s = u * u + v * v
            ok = (s > 0.0) & (s < 1.0)
            s = s[ok]
            f = np.sqrt(-2.0 * np.log(s) / s)
            out = np.empty(2 * len(s))
            out[0::2] = u[ok] * f
            out[1::2] = v[ok] * f
            chunks.append(out)
            got += out.size
        z = np.concatenate(chunks)[:n] if len(chunks) > 1 else chunks[0][:n]
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


def derive_stream(master_seed: int, stream_id: int) -> RngStream:
    """Independent stream for one (seed, trial) address."""
    return RngStream(master_seed, stream_id)


@dataclass(frozen=True)
class EnsembleParams:
    """Name plus the scalar parameters of the generating model."""

    name: str
    p: Optional[float] = None
    q: Optional[float] = None
    eps: Optional[float] = None
    sigma: Optional[float] = None


@dataclass(frozen=True)
class GraphSample:
    """Simple graph with optional planted balanced labels.

    ``adjacency`` is a read-only symmetric 0/1 uint8 array with zero
    diagonal; ``labels`` (when present) is a +-1 vector with exactly n/2
    positive entries, +1 on the first half by construction.
    """

    n: int
    adjacency: np.ndarray
    labels: Optional[np.ndarray] = None
    params: Optional[EnsembleParams] = None


@dataclass(frozen=True)
class SyncInstance:
    """Pairwise sign measurements with ground truth.

    Discrete variant: y_ij = z_i z_j on clean edges of G, -z_i z_j on the
    corrupted subgraph H, zero off G and on the diagonal. Gaussian variant:
    y = z z^T + sigma * W with H empty and G complete.
    """

    n: int
    y: SymmetricMatrix
    z: np.ndarray
    g_edges: np.ndarray
    h_edges: np.ndarray
    params: EnsembleParams

    @property
    def is_discrete(self) -> bool:
        return self.params.name == "z2-er"


@dataclass(frozen=True)
class EnsembleProfile:
    """Row deviation scale and entrywise sup bound of a centered ensemble.

    sigma^2 is the common per-row value sum_{j != i} E L_ij^2; sigma_inf is
    max_{i != j} ||L_ij||_inf (math.inf for unbounded ensembles).
    """

    sigma: float
    sigma_inf: float
    n: int


@lru_cache(maxsize=8)
def _triu_pairs(n: int):
    return np.triu_indices(n, k=1)


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise InvalidProbability(f"{name}={value} outside [0, 1]")
    return value


def _check_sign_vector(z, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n,) or not np.all(np.abs(z) == 1.0):
        from .errors import NonSignVector

        raise NonSignVector("z must be a length-n vector of +-1")
    return z


def _edge_pairs(n: int, mask: np.ndarray):
    """Row-major (i, j), i < j, of the set entries of a mask over the
    upper triangle, laid out as ``np.triu_indices(n, 1)`` lays it out.

    Row i starts at flat index i(2n - i - 1)/2, so each set index is
    placed by a search over the n row starts, never over all n^2 pairs.
    """
    k = np.flatnonzero(mask)
    rows = np.arange(n, dtype=np.int64)
    start = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(start, k, side="right") - 1
    return i, k - start[i] + i + 1


def _adjacency_from_pairs(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.uint8)
    a[i, j] = 1
    a[j, i] = 1
    a.setflags(write=False)
    return a


def sample_wigner(n: int, rng: RngStream) -> SymmetricMatrix:
    """Symmetric matrix with iid N(0,1) entries on and above the diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = rng.normal(n * (n + 1) // 2)
    if n == 1:
        vals = np.atleast_1d(vals)
    return SymmetricMatrix.from_upper(n, vals)


def sample_er(n: int, p: float, rng: RngStream) -> GraphSample:
    """Erdos-Renyi graph: each of the (n choose 2) edges present w.p. p."""
    p = _check_prob(p, "p")
    mask = rng.bernoulli(p, n * (n - 1) // 2)
    adj = _adjacency_from_pairs(n, *_edge_pairs(n, mask))
    return GraphSample(n, adj, labels=None, params=EnsembleParams("er", p=p))


def sample_sbm(n: int, p: float, q: float, rng: RngStream) -> GraphSample:
    """Balanced two-community block model.

    Labels are fixed to +1 on nodes 0..n/2-1 and -1 on the rest; edges are
    Bernoulli(p) within a community and Bernoulli(q) across.
    """
    if n % 2 != 0 or n < 2:
        raise OddDimension("SBM requires an even node count >= 2")
    p = _check_prob(p, "p")
    q = _check_prob(q, "q")
    labels = np.concatenate(
        [np.ones(n // 2, dtype=np.int8), -np.ones(n // 2, dtype=np.int8)]
    )
    labels.setflags(write=False)
    iu, ju = _triu_pairs(n)
    same = labels[iu] == labels[ju]
    thresholds = np.where(same, p, q)
    mask = rng.uniform(len(thresholds)) < thresholds
    adj = _adjacency_from_pairs(n, *_edge_pairs(n, mask))
    return GraphSample(n, adj, labels=labels, params=EnsembleParams("sbm", p=p, q=q))


def sample_z2sync_er(
    n: int, p: float, eps: float, z, rng: RngStream
) -> SyncInstance:
    """Sign-synchronization instance on an ER measurement graph.

    Each pair enters G independently w.p. p; each G-edge is corrupted
    (flipped into H) independently w.p. eps < 1/2.
    """
    p = _check_prob(p, "p")
    eps = float(eps)
    if not 0.0 <= eps < 0.5:
        raise InvalidProbability(f"eps={eps} outside [0, 1/2)")
    z = _check_sign_vector(z, n)
    npairs = n * (n - 1) // 2
    g_mask = rng.bernoulli(p, npairs)
    flipped = rng.bernoulli(eps, npairs)[g_mask]
    i, j = _edge_pairs(n, g_mask)
    g_adj = _adjacency_from_pairs(n, i, j)
    h_adj = _adjacency_from_pairs(n, i[flipped], j[flipped])
    signs = z[i] * z[j] * (1.0 - 2.0 * flipped)
    y = np.zeros((n, n))
    y[i, j] = signs
    y[j, i] = signs
    return SyncInstance(
        n=n,
        y=SymmetricMatrix(y),
        z=z,
        g_edges=g_adj,
        h_edges=h_adj,
        params=EnsembleParams("z2-er", p=p, eps=eps),
    )


def sample_z2sync_gaussian(
    n: int, sigma: float, z, rng: RngStream
) -> SyncInstance:
    """Gaussian-noise synchronization: y = z z^T + sigma * W."""
    sigma = float(sigma)
    if sigma < 0.0 or math.isnan(sigma):
        raise ValueError("sigma must be >= 0")
    z = _check_sign_vector(z, n)
    w = sample_wigner(n, rng)
    y = np.outer(z, z) + sigma * w.array
    complete = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(complete, 0)
    complete.setflags(write=False)
    empty = np.zeros((n, n), dtype=np.uint8)
    empty.setflags(write=False)
    return SyncInstance(
        n=n,
        y=SymmetricMatrix(y),
        z=z,
        g_edges=complete,
        h_edges=empty,
        params=EnsembleParams("z2-gaussian", sigma=sigma),
    )


def _centered_atoms(name: str, p=None, q=None, eps=None):
    """Per-entry (value, probability) atoms of the centered off-diagonals."""
    if name == "centered-er":
        p = _check_prob(p, "p")
        return [[(1.0 - p, p), (-p, 1.0 - p)]]
    if name == "centered-sbm":
        p = _check_prob(p, "p")
        q = _check_prob(q, "q")
        return [[(1.0 - p, p), (-p, 1.0 - p)], [(1.0 - q, q), (-q, 1.0 - q)]]
    if name == "centered-z2er":
        p = _check_prob(p, "p")
        eps = float(eps)
        if not 0.0 <= eps < 0.5:
            raise InvalidProbability(f"eps={eps} outside [0, 1/2)")
        c = p * (1.0 - 2.0 * eps)
        return [[(-1.0 + c, p * (1.0 - eps)), (1.0 + c, p * eps), (c, 1.0 - p)]]
    raise UnknownEnsemble(name)


def ensemble_profile(
    name: str,
    n: int,
    *,
    p: Optional[float] = None,
    q: Optional[float] = None,
    eps: Optional[float] = None,
) -> EnsembleProfile:
    """Exact analytic (sigma, sigma_inf) of a recognized centered ensemble.

    Recognized names: ``wigner`` (sigma_inf unbounded), ``centered-er``,
    ``centered-sbm`` and ``centered-z2er``. Degenerate parameters (a.s.
    constant entries) yield sigma_inf = 0 rather than the formal bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if name == "wigner":
        return EnsembleProfile(sigma=math.sqrt(max(n - 1, 0)), sigma_inf=math.inf, n=n)
    atom_sets = _centered_atoms(name, p=p, q=q, eps=eps)
    sigma_inf = 0.0
    for atoms in atom_sets:
        for value, prob in atoms:
            if prob > 0.0:
                sigma_inf = max(sigma_inf, abs(value))
    if name == "centered-sbm":
        if n % 2 != 0:
            raise OddDimension("centered-sbm profile requires even n")
        var_p = sum(prob * value * value for value, prob in atom_sets[0])
        var_q = sum(prob * value * value for value, prob in atom_sets[1])
        sigma2 = (n / 2 - 1) * var_p + (n / 2) * var_q
    else:
        var = sum(prob * value * value for value, prob in atom_sets[0])
        sigma2 = (n - 1) * var
    return EnsembleProfile(sigma=math.sqrt(max(sigma2, 0.0)), sigma_inf=sigma_inf, n=n)
