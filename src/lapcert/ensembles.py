"""Seeded, reproducible samplers for every random model used here.

Every sampler is a pure function of its parameters and an RngStream, so a
trial is fully addressed by (master_seed, stream_id) and can be replayed or
scheduled on any worker without changing the output.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import eig
from .eig import SymmetricMatrix
from .errors import (DomainError, InvalidAdjacency, InvalidMeasurements, InvalidProbability,
                     MissingLabels, NonSignVector, OddDimension)

_MASK64 = (1 << 64) - 1
_STREAM_TWEAK = 0xD2B74407B1CE6E93


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer; mixes seeds into well-separated 64-bit states."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


#: Uniform pairs per chunk of a normal draw round (2 x 32 KB).
_NORMAL_CHUNK = 1 << 12


class RngStream:
    """Deterministic random substream addressed by (master_seed, stream_id).

    The same pair yields the same sequence of raw 64-bit words on every
    platform. Distinct stream ids derived from one master seed are mixed
    through a 64-bit finalizer before seeding, giving statistically
    independent streams. Parallel trials each derive their own stream. One
    draw may still be split across threads: PCG64 jumps a copy of the state
    any number of draws ahead (``_ahead``), so each thread fills its part
    from a copy that starts where that part starts, and the stream itself is
    then advanced past the whole draw; the numbers, and the state after,
    are those of one draw on one thread.
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

    def uniform(self, size=None):
        """Uniform float64 in [0, 1)."""
        return self._gen.random(size)

    def bernoulli(self, p: float, size=None):
        return self.uniform(size) < p

    def normal(self, size=None):
        """Standard normals via the polar (Marsaglia) rejection method."""
        n = 1 if size is None else int(np.prod(size))
        z = np.empty(n)
        got = 0
        for chunk in self._normal_chunks(n):
            z[got:got + chunk.size] = chunk
            got += chunk.size
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def _normal_chunks(self, count: int):
        """Yield ``normal(count)``'s values in order, a chunk at a time, and
        leave the stream where ``normal(count)`` leaves it.

        Each draw round takes ``pairs`` uniforms u, then ``pairs`` uniforms
        v, and keeps the pairs inside the unit disc. A second PCG64, moved
        ``pairs`` draws past the u block, yields the v block alongside it,
        ``_NORMAL_CHUNK`` pairs at a time, so no round-sized array is held;
        the stream resumes at that generator's end state. The consumer must
        exhaust the iterator.
        """
        got = 0
        while got < count:
            pairs = max(16, (count - got) * 7 // 10 + 8)
            v_gen = self._ahead(pairs)
            drawn = 0
            while drawn < pairs and got < count:
                size = min(_NORMAL_CHUNK, pairs - drawn)
                u = self._gen.random(size)
                u *= 2.0
                u -= 1.0
                v = v_gen.random(size)
                v *= 2.0
                v -= 1.0
                drawn += size
                s = u * u
                s += v * v
                ok = (s > 0.0) & (s < 1.0)
                u, v, s = u[ok], v[ok], s[ok]
                f = np.log(s)
                f *= -2.0
                f /= s
                np.sqrt(f, out=f)
                u *= f
                v *= f
                del s, f
                out = np.empty(min(2 * u.size, count - got))
                out[0::2] = u[:(out.size + 1) // 2]
                out[1::2] = v[:out.size // 2]
                got += out.size
                yield out
            v_gen.bit_generator.advance(pairs - drawn)
            self._bg.state = v_gen.bit_generator.state

    def _ahead(self, draws: int) -> np.random.Generator:
        """A generator on a copy of this stream moved ``draws`` uniforms
        ahead (PCG64 jumps there in O(log draws)); this stream stays put."""
        bg = np.random.PCG64()
        bg.state = self._bg.state
        bg.advance(draws)
        return np.random.Generator(bg)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


def derive_stream(master_seed: int, stream_id: int) -> RngStream:
    """Independent stream for one (seed, trial) address."""
    return RngStream(master_seed, stream_id)


def as_sign_vector(x, n: int) -> np.ndarray:
    """x as a float64 vector, checked to hold n entries, each +1 or -1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
        raise NonSignVector(f"expected a length-{n} vector of +-1")
    return x


@dataclass(frozen=True)
class GraphSample:
    """Simple graph with optional planted balanced labels.

    ``adjacency`` is a square symmetric 0/1 array with zero diagonal and
    ``labels`` (when present) a length-n +-1 vector, checked here; the
    samplers' samples are valid by construction and built by ``_owning``.
    The model parameters that drew a sample are not stored: callers pass
    them. ``degree_gap`` is computed on first read, and kept.
    """

    adjacency: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if not (a.ndim == 2 and a.shape[0] == a.shape[1] and np.all((a == 0) | (a == 1))
                and not np.diagonal(a).any() and np.array_equal(a, a.T)):
            raise InvalidAdjacency("adjacency must be a square symmetric 0/1 array "
                                   "with a zero diagonal")
        if self.labels is not None:
            as_sign_vector(self.labels, a.shape[0])

    @classmethod
    def _owning(cls, adjacency: np.ndarray, labels=None) -> "GraphSample":
        """A sample of arrays that are valid by construction, unchecked."""
        g = object.__new__(cls)
        g.__dict__.update(adjacency=adjacency, labels=labels)
        return g

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def degree_gap(self) -> np.ndarray:
        """deg_in - deg_out = labels * (A labels), read-only float64: the dual
        diagonal of (A, labels), the diagonal of Gamma and the statistic the
        SBM flip oracle reads. The product runs in float64 BLAS and is exact,
        its sums of 0/1 times +-1 terms far below 2^53."""
        if self.labels is None:
            raise MissingLabels("sample has no planted labels")
        labels = np.asarray(self.labels, dtype=np.float64)
        gap = labels * (self.adjacency @ labels)
        gap.setflags(write=False)
        return gap


@dataclass(frozen=True)
class SyncInstance:
    """Pairwise sign measurements with ground truth.

    Sign-flip variant (``sigma is None``): y_ij = z_i z_j on clean edges of
    the measurement graph G, -z_i z_j on the corrupted subgraph H, zero off
    G and on the diagonal; G and H are read off y and z. Gaussian variant:
    y = z z^T + sigma * W. A hand-built instance is checked here: y holds
    entries in {-1, 0, 1} with a zero diagonal (sign-flip), z is n signs and
    sigma is finite and >= 0; the samplers' instances are built by
    ``_owning``.
    """

    y: SymmetricMatrix
    z: np.ndarray
    sigma: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.y, SymmetricMatrix):
            raise TypeError("y must be a SymmetricMatrix")
        as_sign_vector(self.z, self.y.n)
        if self.sigma is not None:
            _check_sigma(self.sigma)
            return
        a = self.y.array
        if not (np.all((a == 0) | (np.abs(a) == 1)) and not np.diagonal(a).any()):
            raise InvalidMeasurements("sign-flip measurements must be -1, 0 or 1 "
                                      "with a zero diagonal")

    @classmethod
    def _owning(cls, y: SymmetricMatrix, z: np.ndarray, sigma=None) -> "SyncInstance":
        """An instance of arrays that are valid by construction, unchecked."""
        inst = object.__new__(cls)
        inst.__dict__.update(y=y, z=z, sigma=sigma)
        return inst

    @property
    def n(self) -> int:
        return self.y.n

    @property
    def is_discrete(self) -> bool:
        return self.sigma is None


@dataclass(frozen=True)
class EnsembleProfile:
    """Row deviation scale and entrywise sup bound of a centered ensemble.

    sigma^2 is the common per-row value sum_{j != i} E L_ij^2; sigma_inf is
    max_{i != j} ||L_ij||_inf (math.inf for unbounded ensembles).
    """

    sigma: float
    sigma_inf: float


def _check_count(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise DomainError(f"sigma must be a finite number >= 0, got {sigma}")
    return sigma


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise InvalidProbability(f"{name}={value} outside [0, 1]")
    return value


#: Uniforms per chunk of a Bernoulli draw over the vertex pairs (512 KB).
_DRAW_CHUNK = 1 << 16


def _bernoulli_indices(rng: RngStream, p, size: int) -> np.ndarray:
    """Sorted flat indices k < size with u_k < p, where u is what one
    ``rng.uniform(size)`` call returns, and the stream left where that call
    leaves it; p is a scalar, or per-index thresholds that ``p[start:stop]``
    slices (an array, or ``_Runs``).

    The uniforms are drawn in chunks, the same numbers in the same order,
    so no size-long array of uniforms is held. A draw of two chunks or more
    is cut at chunk boundaries into up to ``eig.blas_threads()`` contiguous
    slices, drawn at once: slice t on a copy of the stream moved to its
    start, the first on the calling thread and each other on its own
    thread (numpy releases the GIL while it fills and compares). The scratch
    each slice draws into is allocated here, on the calling thread.
    """
    chunks = -(-size // _DRAW_CHUNK)
    slices = min(eig.blas_threads(), chunks) if chunks > 1 else 1
    cuts = [min(size, chunks * t // slices * _DRAW_CHUNK) for t in range(slices + 1)]
    # Scratch of half a chunk per slice keeps two slices within one chunk;
    # narrower widths would add loop turns that hold the GIL.
    width = max(1, min(size, _DRAW_CHUNK if slices == 1 else _DRAW_CHUNK // 2))
    u = np.empty((slices, width))
    below = np.empty((slices, width), dtype=bool)
    hits = [[np.empty(0, dtype=np.int64)] for _ in range(slices)]
    failed: list = []

    def draw(t: int, gen: np.random.Generator) -> None:
        try:
            for start in range(cuts[t], cuts[t + 1], width):
                m = min(width, cuts[t + 1] - start)
                ut, bt = u[t, :m], below[t, :m]
                gen.random(out=ut)
                np.less(ut, p if np.isscalar(p) else p[start:start + m], out=bt)
                hits[t].append(np.flatnonzero(bt) + start)
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    others = [threading.Thread(target=draw, args=(t, rng._ahead(cuts[t])))
              for t in range(1, slices)]
    for thread in others:
        thread.start()
    draw(0, rng._gen)
    for thread in others:
        thread.join()
    if others:
        rng._bg.advance(size - cuts[1])
    if failed:
        raise failed[0]
    return np.concatenate([k for found in hits for k in found])


class _Runs:
    """Per-index thresholds stored as runs: ``values[r]`` repeated
    ``lengths[r]`` times. ``runs[start:stop]`` builds the thresholds of
    those indices alone, so no per-index array of the whole draw is held."""

    def __init__(self, values: np.ndarray, lengths: np.ndarray):
        self.values = values
        self.lengths = lengths
        self.ends = np.cumsum(lengths)

    def __getitem__(self, window: slice) -> np.ndarray:
        start, stop = window.start, window.stop
        # the runs holding start and stop - 1, and those between
        a = int(np.searchsorted(self.ends, start, side="right"))
        b = int(np.searchsorted(self.ends, stop - 1, side="right")) + 1
        ends = self.ends[a:b]
        lengths = np.minimum(ends, stop) - np.maximum(ends - self.lengths[a:b], start)
        return np.repeat(self.values[a:b], lengths)


def _edge_pairs(n: int, k: np.ndarray):
    """Row-major (i, j), i < j, of the sorted flat indices k into the upper
    triangle, laid out as ``np.triu_indices(n, 1)`` lays it out.

    Row i starts at flat index i(2n - i - 1)/2, so each index is placed by
    a search over the n row starts, never over all n^2 pairs.
    """
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


def _wigner_buffer(n: int, rng: RngStream) -> np.ndarray:
    """A fresh n x n array of sample_wigner's entries: the normals fill the
    upper triangle row by row, each mirrored below, as they are drawn."""
    _check_count(n)
    a = np.empty((n, n))
    i = j = 0
    for chunk in rng._normal_chunks(n * (n + 1) // 2):
        at = 0
        while at < chunk.size:
            k = min(n - j, chunk.size - at)
            a[i, j:j + k] = a[j:j + k, i] = chunk[at:at + k]
            at += k
            j += k
            if j == n:
                i += 1
                j = i
    return a


def sample_wigner(n: int, rng: RngStream) -> SymmetricMatrix:
    """Symmetric matrix with iid N(0,1) entries on and above the diagonal."""
    return SymmetricMatrix._owning(_wigner_buffer(n, rng))


def sample_er(n: int, p: float, rng: RngStream) -> GraphSample:
    """Erdos-Renyi graph: each of the (n choose 2) edges present w.p. p."""
    _check_count(n)
    p = _check_prob(p, "p")
    k = _bernoulli_indices(rng, p, n * (n - 1) // 2)
    adj = _adjacency_from_pairs(n, *_edge_pairs(n, k))
    return GraphSample._owning(adj)


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
    # In row-major upper-triangle order, row i < h holds h - 1 - i pairs
    # inside the first community, then h pairs across; the rows of the
    # second community hold its h (h - 1) / 2 inner pairs.
    h = n // 2
    runs = np.append(np.column_stack((h - 1 - np.arange(h), np.full(h, h))), h * (h - 1) // 2)
    thresholds = _Runs(np.append(np.tile([p, q], h), p), runs)
    k = _bernoulli_indices(rng, thresholds, n * (n - 1) // 2)
    adj = _adjacency_from_pairs(n, *_edge_pairs(n, k))
    return GraphSample._owning(adj, labels)


def sample_z2sync_er(
    n: int, p: float, eps: float, z, rng: RngStream
) -> SyncInstance:
    """Sign-synchronization instance on an ER measurement graph.

    Each pair enters G independently w.p. p; each G-edge is corrupted
    (flipped into H) independently w.p. eps < 1/2.
    """
    _check_count(n)
    p = _check_prob(p, "p")
    eps = float(eps)
    if not 0.0 <= eps < 0.5:
        raise InvalidProbability(f"eps={eps} outside [0, 1/2)")
    z = as_sign_vector(z, n)
    npairs = n * (n - 1) // 2
    k = _bernoulli_indices(rng, p, npairs)
    # the flips are a second pass over all pairs, read at the G-edges
    flipped = np.isin(k, _bernoulli_indices(rng, eps, npairs))
    i, j = _edge_pairs(n, k)
    signs = z[i] * z[j] * (1.0 - 2.0 * flipped)
    y = np.zeros((n, n))
    y[i, j] = signs
    y[j, i] = signs
    return SyncInstance._owning(SymmetricMatrix._owning(y), z)


def sample_z2sync_gaussian(
    n: int, sigma: float, z, rng: RngStream
) -> SyncInstance:
    """Gaussian-noise synchronization: y = z z^T + sigma * W, built in W's
    own buffer: y_ij = sigma w_ij + z_i z_j, the sum of the same two terms."""
    _check_count(n)
    sigma = _check_sigma(sigma)
    z = as_sign_vector(z, n)
    y = _wigner_buffer(n, rng)
    y *= sigma
    for i in range(n):
        y[i] += z[i] * z
    return SyncInstance._owning(SymmetricMatrix._owning(y), z, sigma)


def centered_er_profile(n: int, p: float) -> EnsembleProfile:
    """Exact (sigma, sigma_inf) of the centered ER(n, p) adjacency, whose
    off-diagonal entries are 1 - p w.p. p and -p w.p. 1 - p. Degenerate p
    (a.s. constant entries) yields sigma_inf = 0 rather than the formal
    bound."""
    _check_count(n)
    p = _check_prob(p, "p")
    # the per-atom sum of prob * value^2, in those bits
    var = p * (1.0 - p) * (1.0 - p) + (1.0 - p) * -p * -p
    sigma_inf = max(1.0 - p, p) if 0.0 < p < 1.0 else 0.0
    return EnsembleProfile(sigma=math.sqrt(max((n - 1) * var, 0.0)), sigma_inf=sigma_inf)
