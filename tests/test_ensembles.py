import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from _oracles import z2sync_er_graphs
from lapcert import (
    centered_er_profile,
    derive_stream,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    sample_z2sync_gaussian,
    spectral_norm,
)
from lapcert import eig
from lapcert.ensembles import _DRAW_CHUNK, _NORMAL_CHUNK, _Runs, _bernoulli_indices, _edge_pairs
from lapcert.errors import (
    DomainError,
    InvalidProbability,
    NonSignVector,
    OddDimension,
)


class TestStreams:
    def test_same_address_same_words(self):
        a = derive_stream(42, 0).uniform(10)
        b = derive_stream(42, 0).uniform(10)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = derive_stream(42, 0).uniform(1)
        b = derive_stream(42, 1).uniform(1)
        assert a[0] != b[0]

    def test_distinct_seeds_differ(self):
        assert derive_stream(42, 3).uniform(1)[0] != derive_stream(43, 3).uniform(1)[0]

    def test_clone_resamples_bit_exactly(self):
        rng = derive_stream(42, 7)
        rng.uniform(123)  # advance off the seed point
        snap = rng.clone()
        g1 = sample_sbm(20, 0.5, 0.1, rng)
        g2 = sample_sbm(20, 0.5, 0.1, snap)
        assert np.array_equal(g1.adjacency, g2.adjacency)

    def test_normals_reproducible_and_standard(self):
        rng = derive_stream(5, 5)
        z1 = rng.normal(5000)
        z2 = derive_stream(5, 5).normal(5000)
        assert np.array_equal(z1, z2)
        assert abs(z1.mean()) < 4.0 / math.sqrt(5000)
        assert abs(z1.std() - 1.0) < 0.05


def _polar_normals(rng, n):
    """The polar loop RngStream.normal ran before it drew in chunks: each
    round draws all its u, then all its v, and keeps the whole round."""
    chunks = []
    got = 0
    while got < n:
        pairs = max(16, (n - got) * 7 // 10 + 8)
        u = 2.0 * rng.uniform(pairs) - 1.0
        v = 2.0 * rng.uniform(pairs) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        s = s[ok]
        f = np.sqrt(-2.0 * np.log(s) / s)
        out = np.empty(2 * len(s))
        out[0::2] = u[ok] * f
        out[1::2] = v[ok] * f
        chunks.append(out)
        got += out.size
    return np.concatenate(chunks)[:n], len(chunks)


class TestChunkedNormals:
    """normal() draws its rounds in chunks of _NORMAL_CHUNK pairs, with the
    v block read by a second generator; values and the stream's end state
    are those of the polar loop that drew each round whole."""

    # (size, seed, rounds): (64, 255), (126, 88) and (300, 7) fall short in
    # their first round; 40,000 and 100,001 span several chunks
    @pytest.mark.parametrize("size, seed, rounds", [
        (1, 0, 1), (2, 3, 1), (10, 1, 1), (1000, 2, 1),
        (64, 255, 2), (126, 88, 2), (300, 7, 2),
        (40_000, 4, 1), (100_001, 5, 1),
    ])
    def test_same_values_and_end_state(self, size, seed, rounds):
        ref_rng, rng = derive_stream(seed, 1), derive_stream(seed, 1)
        expected, ref_rounds = _polar_normals(ref_rng, size)
        assert ref_rounds == rounds
        if 0.7 * size > 2 * _NORMAL_CHUNK:
            assert rounds == 1  # a round of several chunks
        assert np.array_equal(rng.normal(size), expected)
        assert rng._bg.state == ref_rng._bg.state
        assert rng.uniform() == ref_rng.uniform()

    def test_chunks_concatenate_to_normal(self):
        rng = derive_stream(6, 1)
        chunks = list(rng._normal_chunks(50_000))
        assert len(chunks) > 1
        assert np.array_equal(np.concatenate(chunks), derive_stream(6, 1).normal(50_000))

    def test_scalar(self):
        assert derive_stream(8, 1).normal() == _polar_normals(derive_stream(8, 1), 1)[0][0]


class TestWigner:
    def test_n1_single_draw(self):
        w = sample_wigner(1, derive_stream(0, 0))
        assert w.array.shape == (1, 1)
        assert np.isfinite(w.array[0, 0])

    def test_symmetry_bitwise(self):
        w = sample_wigner(30, derive_stream(2, 0)).array
        assert np.array_equal(w, w.T)

    def test_offdiag_mean_clt(self):
        n = 200
        npairs = n * (n - 1) // 2
        bound = 4.0 / math.sqrt(npairs)
        hits = 0
        for seed in range(40):
            w = sample_wigner(n, derive_stream(seed, 0)).array
            mean = w[np.triu_indices(n, 1)].mean()
            hits += abs(mean) <= bound
        assert hits >= 38

    @pytest.mark.slow
    def test_norm_scale(self):
        n = 300
        hits = 0
        for seed in range(15):
            w = sample_wigner(n, derive_stream(100 + seed, 0))
            hits += 1.8 * math.sqrt(n) <= spectral_norm(w) <= 2.2 * math.sqrt(n)
        assert hits >= 14


class TestEr:
    def test_p_zero_empty(self):
        g = sample_er(10, 0.0, derive_stream(1, 0))
        assert g.adjacency.sum() == 0

    def test_p_one_complete(self):
        g = sample_er(10, 1.0, derive_stream(1, 0))
        deg = g.adjacency.sum(axis=1)
        assert np.all(deg == 9)

    def test_no_self_loops(self):
        g = sample_er(50, 0.5, derive_stream(3, 1))
        assert np.all(np.diag(g.adjacency) == 0)

    def test_edge_count_binomial(self):
        n, p = 100, 0.3
        npairs = n * (n - 1) // 2
        sd = math.sqrt(npairs * p * (1 - p))
        hits = 0
        for seed in range(40):
            g = sample_er(n, p, derive_stream(seed, 9))
            edges = g.adjacency.sum() // 2
            hits += abs(edges - p * npairs) <= 4 * sd
        assert hits >= 39

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            sample_er(5, 1.5, derive_stream(0, 0))


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("sample", [
    lambda n, rng: sample_wigner(n, rng),
    lambda n, rng: sample_er(n, 0.5, rng),
    lambda n, rng: sample_z2sync_er(n, 0.5, 0.1, np.ones(0), rng),
    lambda n, rng: sample_z2sync_gaussian(n, 1.0, np.ones(0), rng),
], ids=["wigner", "er", "z2sync_er", "z2sync_gaussian"])
def test_sampler_rejects_n_below_one(sample, n):
    with pytest.raises(DomainError, match="n must be >= 1"):
        sample(n, derive_stream(0, 0))


class TestEdgePairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
    @pytest.mark.parametrize("kind", ["none", "all", "random"])
    def test_matches_triu_indices(self, n, kind):
        npairs = n * (n - 1) // 2
        if kind == "none":
            mask = np.zeros(npairs, dtype=bool)
        elif kind == "all":
            mask = np.ones(npairs, dtype=bool)
        else:
            mask = np.random.default_rng(n).random(npairs) < 0.3
        iu, ju = np.triu_indices(n, 1)
        i, j = _edge_pairs(n, np.flatnonzero(mask))
        assert i.dtype == j.dtype == np.int64
        np.testing.assert_array_equal(i, iu[mask])
        np.testing.assert_array_equal(j, ju[mask])


class TestBernoulliIndices:
    """The chunked draw returns what one full-length draw would, across
    chunk boundaries, and leaves the stream where that draw leaves it."""

    size = 3 * _DRAW_CHUNK + 5

    @pytest.mark.parametrize("p", [
        0.3,
        np.random.default_rng(5).random(3 * _DRAW_CHUNK + 5),
        0.0,
        1.0,
    ], ids=["scalar", "per-pair", "zero", "one"])
    def test_matches_one_full_draw(self, p):
        rng = derive_stream(11, 2)
        ref = rng.clone()
        k = _bernoulli_indices(rng, p, self.size)
        assert k.dtype == np.int64
        np.testing.assert_array_equal(k, np.flatnonzero(ref.uniform(self.size) < p))
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    @pytest.mark.parametrize("size", [1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1,
                                      2 * _DRAW_CHUNK, 3 * _DRAW_CHUNK + 5, 7 * _DRAW_CHUNK + 3])
    @pytest.mark.parametrize("per_pair", [False, True], ids=["scalar", "per-pair"])
    def test_thread_budget_cannot_change_output(self, monkeypatch, threads, size, per_pair):
        monkeypatch.setattr(eig, "blas_threads", lambda: threads)
        p = np.random.default_rng(size).random(size) if per_pair else 0.3
        rng = derive_stream(11, 2)
        ref = rng.clone()
        running = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            k = _bernoulli_indices(rng, p, size)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(k, np.flatnonzero(ref.uniform(size) < p))
        assert rng.uniform() == ref.uniform()
        assert threading.active_count() == running

    def test_a_failure_on_a_drawing_thread_is_raised(self, monkeypatch):
        # thresholds for the first of the two slices only: the second
        # slice's comparison fails on its own thread
        monkeypatch.setattr(eig, "blas_threads", lambda: 2)
        running = threading.active_count()
        with pytest.raises(ValueError):
            _bernoulli_indices(derive_stream(11, 2), np.zeros(_DRAW_CHUNK), 2 * _DRAW_CHUNK)
        assert threading.active_count() == running


class TestRuns:
    def test_slices_match_the_repeated_array(self):
        values = np.arange(1.0, 8.0)
        lengths = np.array([3, 0, 5, 1, 0, 0, 4])
        full = np.repeat(values, lengths)
        runs = _Runs(values, lengths)
        for start in range(full.size):
            for stop in range(start + 1, full.size + 1):
                np.testing.assert_array_equal(runs[start:stop], full[start:stop])


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestSampleDigests:
    """Sampler outputs pinned bit for bit, so a change in how the matrices
    are assembled cannot change what a seed draws."""

    @pytest.mark.parametrize("n, p, seed, digest", [
        (1, 0.5, 0, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
        (2, 1.0, 1, "d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c"),
        (7, 0.5, 3, "53143dfd51f708649261d031e26f1bb579da384c1f1b6ef1e174db060bee713b"),
        (64, 0.1, 5, "8c063471efc9ae9490ffc1a4b092b27c149c538110823217522a9426716fbcb4"),
        (257, 0.05, 11, "8e24443f039fad8eef3ad3484b726dc43680204378ed7426743d171bb2e400db"),
        # 179,700 pairs: the draw spans several chunks
        (600, 0.01, 13, "555b1864ffccaa5fdb63bfbea991cfc94f1e8238c2994f4bbb9b5fefe4599d58"),
    ])
    def test_er(self, n, p, seed, digest):
        g = sample_er(n, p, derive_stream(seed, 9))
        assert g.adjacency.dtype == np.uint8
        assert _sha256(g.adjacency) == digest

    @pytest.mark.parametrize("n, p, q, seed, digest", [
        (2, 1.0, 0.0, 2, "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
        (30, 0.6, 0.1, 4, "64d16639c3d1c2ba8d3dc0e6b48402716c2aec39ca897951292545124d64e376"),
        (100, 0.2, 0.05, 8, "f9bb8eec2a6add1116ed523a9e35d0e1c5e183f96a322c0949c2ee6b903e8df3"),
        (600, 0.02, 0.005, 14,
         "7fd1784c3d07d96d2ece8ee69e3f54c3bdd8b7fac334dcb43347c8f21473b5ef"),
    ])
    def test_sbm(self, n, p, q, seed, digest):
        g = sample_sbm(n, p, q, derive_stream(seed, 9))
        assert _sha256(g.adjacency) == digest

    # y fixes the measurement graph G and its corrupted part H given z
    @pytest.mark.parametrize("n, p, eps, seed, y", [
        (1, 0.5, 0.1, 0,
         "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        (9, 0.7, 0.3, 6,
         "7d4ceac9ec5fe7d0900dee4db47215651f5345c362ca48e482a6930c74f9d7dd"),
        (120, 0.4, 0.1, 42,
         "ac344f77e93861a1c88ea4215591faef42316315387bb033d352c7c9b6311904"),
        (600, 0.03, 0.2, 15,
         "f80c8c622a8dcd842240f3b9b3b7108171a5cb2b171ed6f1ed206ea3c293024a"),
    ])
    def test_z2sync_er(self, n, p, eps, seed, y):
        z = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        inst = sample_z2sync_er(n, p, eps, z, derive_stream(seed, 9))
        assert _sha256(inst.y.array) == y

    @pytest.mark.parametrize("n, seed, digest", [
        (1, 0, "b7ad88165f9ce9a9dcf52d961d114e0a2a9171bf8813dc4f79ccc5ce06b29d81"),
        (2, 1, "21666c8303af3b9b4064c7611eb8ba2773d777c8309445019b46823dc2ee2a71"),
        (7, 3, "29280c6ae079aeaa536a33e6dc83258859f9222d1f0ef55e0ad2dc8fbcedbaf8"),
        (64, 5, "d49176844b2ddcbffdf578dad12688f8a5eab1ca9ea757fd8ccd1aac784182a5"),
        (257, 11, "8984133dcaf8fff34740b853ccdb14829250ddfdc2ad4660dfc6c4543ab41649"),
    ])
    def test_wigner(self, n, seed, digest):
        w = sample_wigner(n, derive_stream(seed, 9))
        assert _sha256(w.array) == digest

    @pytest.mark.parametrize("n, sigma, seed, y", [
        (1, 0.5, 0, "5d6ee90afc316a70b6a562691272f5f7b26aec1ed9cdedb187aab5485085d4a8"),
        (9, 1.3, 6, "1de9542263a41a6018a256668f4400148d9040ce1115c620d781d7b421d834ab"),
        (120, 2.0, 42, "321ffea0d80422baa5f85c3acc93495065fdbbbd89ae105bec1e1eb1a2126e35"),
    ])
    def test_z2sync_gaussian(self, n, sigma, seed, y):
        z = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        inst = sample_z2sync_gaussian(n, sigma, z, derive_stream(seed, 9))
        assert _sha256(inst.y.array) == y


class TestSbm:
    # each drawing thread adds its own scratch, so the budget is fixed here
    @pytest.mark.parametrize("threads", [1, 2])
    def test_thresholds_are_built_a_chunk_at_a_time(self, monkeypatch, threads):
        monkeypatch.setattr(eig, "blas_threads", lambda: threads)
        n = 2000
        sample_sbm(n, 0.01, 0.002, derive_stream(1, 0))  # warm the caches
        tracemalloc.start()
        try:
            sample_sbm(n, 0.01, 0.002, derive_stream(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x n uint8 adjacency is 4 MB; a per-pair threshold array
        # held for the whole draw was 16 MB more
        assert peak <= 5e6

    def test_deterministic_limits(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        expect = np.zeros((4, 4), dtype=np.uint8)
        expect[0, 1] = expect[1, 0] = 1
        expect[2, 3] = expect[3, 2] = 1
        assert np.array_equal(g.adjacency, expect)
        from _oracles import partition_gap_certificate
        from lapcert import flip_oracle_sbm

        # deg_in - deg_out = 1 at every node, read off 2 Gamma + J
        cert = partition_gap_certificate(g.adjacency, g.labels)
        assert np.all(np.diag(cert) == 3.0)
        assert flip_oracle_sbm(g) == 1.0

    def test_complete_bipartite(self):
        g = sample_sbm(4, 0.0, 1.0, derive_stream(0, 0))
        assert g.adjacency.sum() == 2 * 4  # K_{2,2} has 4 edges
        assert g.adjacency[0, 1] == 0 and g.adjacency[0, 2] == 1

    def test_labels_balanced_first_half(self):
        g = sample_sbm(12, 0.3, 0.1, derive_stream(5, 0))
        assert g.labels.sum() == 0
        assert np.all(g.labels[:6] == 1) and np.all(g.labels[6:] == -1)

    def test_intra_count_binomial(self):
        n, p, q = 200, 0.5, 0.1
        intra_pairs = 2 * (n // 2) * (n // 2 - 1) // 2
        sd = math.sqrt(intra_pairs * p * (1 - p))
        hits = 0
        for seed in range(40):
            g = sample_sbm(n, p, q, derive_stream(seed, 2))
            same = np.equal.outer(g.labels, g.labels)
            intra = int((g.adjacency * same).sum()) // 2
            hits += abs(intra - p * intra_pairs) <= 4 * sd
        assert hits >= 39

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            sample_sbm(5, 0.5, 0.1, derive_stream(0, 0))

    def test_cluster_preserving_relabel_statistics(self):
        # permuting nodes within clusters leaves intra/inter counts invariant
        n, p, q = 40, 0.4, 0.1
        rng = np.random.default_rng(0)
        for seed in range(200):
            g = sample_sbm(n, p, q, derive_stream(seed, 4))
            perm = np.concatenate(
                [rng.permutation(n // 2), n // 2 + rng.permutation(n // 2)]
            )
            adj_p = g.adjacency[np.ix_(perm, perm)]
            same = np.equal.outer(g.labels, g.labels)
            assert (adj_p * same).sum() == (g.adjacency * same).sum()
            assert adj_p.sum() == g.adjacency.sum()


def _measurement_graphs(inst):
    """Adjacency of G and of its corrupted part H, read off y and z."""
    conj = inst.y.array * np.outer(inst.z, inst.z)
    return conj != 0.0, conj < 0.0


class TestZ2SyncEr:
    def test_noiseless_complete(self):
        z = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        inst = sample_z2sync_er(5, 1.0, 0.0, z, derive_stream(0, 0))
        off = ~np.eye(5, dtype=bool)
        assert np.array_equal(inst.y.array[off], np.outer(z, z)[off])
        assert _measurement_graphs(inst)[1].sum() == 0

    def test_empty_graph(self):
        z = np.ones(4)
        inst = sample_z2sync_er(4, 0.0, 0.0, z, derive_stream(0, 0))
        assert np.all(inst.y.array == 0.0)
        assert _measurement_graphs(inst)[0].sum() == 0

    def test_h_subset_of_g(self):
        # conjugated entries are +1 (clean), -1 (corrupted) or 0 (off G), so
        # H = {-1} lies inside G = {nonzero}; the diagonal is off G
        z = np.where(np.arange(60) % 2 == 0, 1.0, -1.0)
        inst = sample_z2sync_er(60, 0.5, 0.3, z, derive_stream(8, 1))
        conj = inst.y.array * np.outer(z, z)
        assert set(np.unique(conj)) == {-1.0, 0.0, 1.0}
        assert np.all(np.diagonal(conj) == 0.0)

    def test_flip_fraction(self):
        n, p, eps = 100, 0.5, 0.1
        hits = 0
        for seed in range(40):
            inst = sample_z2sync_er(n, p, eps, np.ones(n), derive_stream(seed, 3))
            g, h = _measurement_graphs(inst)
            ng = g.sum() // 2
            nh = h.sum() // 2
            sd = math.sqrt(ng * eps * (1 - eps))
            hits += abs(nh - eps * ng) <= 4 * sd
        assert hits >= 39

    def test_reconstruction_identity(self):
        # y = diag(z) (A_G - 2 A_H) diag(z) entrywise, with G and H replayed
        # from the stream
        for seed in range(25):
            rng = derive_stream(seed, 6)
            z = np.where(rng.uniform(30) < 0.5, 1.0, -1.0)
            a_g, a_h = z2sync_er_graphs(30, 0.4, 0.2, rng.clone())
            inst = sample_z2sync_er(30, 0.4, 0.2, z, rng)
            expect = z[:, None] * (a_g - 2.0 * a_h) * z[None, :]
            assert np.array_equal(inst.y.array, expect)

    def test_eps_range(self):
        with pytest.raises(InvalidProbability):
            sample_z2sync_er(4, 0.5, 0.5, np.ones(4), derive_stream(0, 0))

    def test_sign_vector_check(self):
        with pytest.raises(NonSignVector):
            sample_z2sync_er(3, 0.5, 0.1, np.array([1.0, 0.0, 1.0]), derive_stream(0, 0))


class TestZ2SyncGaussian:
    def test_sigma_zero_exact(self):
        z = np.array([1.0, -1.0, -1.0, 1.0])
        inst = sample_z2sync_gaussian(4, 0.0, z, derive_stream(0, 0))
        assert np.array_equal(inst.y.array, np.outer(z, z))

    def test_n1_diagonal(self):
        rng = derive_stream(1, 1)
        w = rng.clone().normal(1)
        inst = sample_z2sync_gaussian(1, 1.0, np.ones(1), rng)
        assert inst.y.array[0, 0] == 1.0 + w

    def test_complete_measurement_graph(self):
        inst = sample_z2sync_gaussian(5, 1.0, np.ones(5), derive_stream(2, 2))
        assert np.all(inst.y.array != 0.0)
        assert not inst.is_discrete

    def test_peak_is_one_buffer(self):
        # y is built in W's own buffer: no outer(z, z) and no sigma * W copy
        n = 400
        z = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        sample_z2sync_gaussian(n, 2.0, z, derive_stream(1, 0))  # warm the caches
        tracemalloc.start()
        try:
            sample_z2sync_gaussian(n, 2.0, z, derive_stream(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * n * n

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_sigma(self, sigma):
        with pytest.raises(DomainError):
            sample_z2sync_gaussian(4, sigma, np.ones(4), derive_stream(0, 0))

    def test_noise_norm_scale(self):
        n = 300
        hits = 0
        for seed in range(10):
            z = np.ones(n)
            inst = sample_z2sync_gaussian(n, 1.0, z, derive_stream(seed, 5))
            from lapcert import SymmetricMatrix

            noise = SymmetricMatrix(inst.y.array - np.outer(z, z))
            hits += 1.8 * math.sqrt(n) <= spectral_norm(noise) <= 2.2 * math.sqrt(n)
        assert hits >= 9


class TestProfiles:
    def test_centered_er_exact(self):
        prof = centered_er_profile(101, 0.5)
        assert prof.sigma**2 == pytest.approx(25.0, rel=1e-12)
        assert prof.sigma_inf == 0.5

    def test_p_zero_degenerate(self):
        prof = centered_er_profile(10, 0.0)
        assert prof.sigma == 0.0
        assert prof.sigma_inf == 0.0

    def test_bounded_ensembles_satisfy_row_bound(self):
        for p in (0.1, 0.4, 0.9):
            prof = centered_er_profile(30, p)
            assert prof.sigma <= prof.sigma_inf * math.sqrt(29) + 1e-12

