import hashlib
import math

import numpy as np
import pytest

from lapcert import (
    derive_stream,
    ensemble_profile,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    sample_z2sync_gaussian,
    spectral_norm,
)
from lapcert.ensembles import _edge_pairs
from lapcert.errors import (
    InvalidProbability,
    NonSignVector,
    OddDimension,
    UnknownEnsemble,
)


class TestStreams:
    def test_same_address_same_words(self):
        a = derive_stream(42, 0).u64(10)
        b = derive_stream(42, 0).u64(10)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = derive_stream(42, 0).u64(1)
        b = derive_stream(42, 1).u64(1)
        assert a[0] != b[0]

    def test_distinct_seeds_differ(self):
        assert derive_stream(42, 3).u64(1)[0] != derive_stream(43, 3).u64(1)[0]

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
        i, j = _edge_pairs(n, mask)
        assert i.dtype == j.dtype == np.int64
        np.testing.assert_array_equal(i, iu[mask])
        np.testing.assert_array_equal(j, ju[mask])


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
    ])
    def test_er(self, n, p, seed, digest):
        g = sample_er(n, p, derive_stream(seed, 9))
        assert g.adjacency.dtype == np.uint8
        assert _sha256(g.adjacency) == digest

    @pytest.mark.parametrize("n, p, q, seed, digest", [
        (2, 1.0, 0.0, 2, "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
        (30, 0.6, 0.1, 4, "64d16639c3d1c2ba8d3dc0e6b48402716c2aec39ca897951292545124d64e376"),
        (100, 0.2, 0.05, 8, "f9bb8eec2a6add1116ed523a9e35d0e1c5e183f96a322c0949c2ee6b903e8df3"),
    ])
    def test_sbm(self, n, p, q, seed, digest):
        g = sample_sbm(n, p, q, derive_stream(seed, 9))
        assert _sha256(g.adjacency) == digest

    @pytest.mark.parametrize("n, p, eps, seed, y, g_edges, h_edges", [
        (1, 0.5, 0.1, 0,
         "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
         "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
         "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
        (9, 0.7, 0.3, 6,
         "7d4ceac9ec5fe7d0900dee4db47215651f5345c362ca48e482a6930c74f9d7dd",
         "0efd52d29164aa5e5970a52022244dd1873cd4b293fb25c652f8f583a3f27c11",
         "1633bbb660a9fcece3cc68d74f369a3b45c8bde9b9a1a5337a75df52b6aa93d8"),
        (120, 0.4, 0.1, 42,
         "ac344f77e93861a1c88ea4215591faef42316315387bb033d352c7c9b6311904",
         "de4f78d40521b263f955d52b5a91804de65a0cd3181f3483a90f2ab237613bcf",
         "38df80878e1c33f7a504a6d5fa1014ece3cc6e301939e90f5e92c77f6d0df6b5"),
    ])
    def test_z2sync_er(self, n, p, eps, seed, y, g_edges, h_edges):
        z = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        inst = sample_z2sync_er(n, p, eps, z, derive_stream(seed, 9))
        assert _sha256(inst.y.array) == y
        assert _sha256(inst.g_edges) == g_edges
        assert _sha256(inst.h_edges) == h_edges


class TestSbm:
    def test_deterministic_limits(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        expect = np.zeros((4, 4), dtype=np.uint8)
        expect[0, 1] = expect[1, 0] = 1
        expect[2, 3] = expect[3, 2] = 1
        assert np.array_equal(g.adjacency, expect)
        from lapcert import degree_split

        din, dout = degree_split(g)
        assert np.all(din - dout == 1)

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


class TestZ2SyncEr:
    def test_noiseless_complete(self):
        z = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        inst = sample_z2sync_er(5, 1.0, 0.0, z, derive_stream(0, 0))
        off = ~np.eye(5, dtype=bool)
        assert np.array_equal(inst.y.array[off], np.outer(z, z)[off])
        assert inst.h_edges.sum() == 0

    def test_empty_graph(self):
        z = np.ones(4)
        inst = sample_z2sync_er(4, 0.0, 0.0, z, derive_stream(0, 0))
        assert np.all(inst.y.array == 0.0)
        assert inst.g_edges.sum() == 0

    def test_h_subset_of_g(self):
        z = np.ones(60)
        inst = sample_z2sync_er(60, 0.5, 0.3, z, derive_stream(8, 1))
        assert np.all(inst.h_edges <= inst.g_edges)

    def test_flip_fraction(self):
        n, p, eps = 100, 0.5, 0.1
        hits = 0
        for seed in range(40):
            inst = sample_z2sync_er(n, p, eps, np.ones(n), derive_stream(seed, 3))
            ng = inst.g_edges.sum() // 2
            nh = inst.h_edges.sum() // 2
            sd = math.sqrt(ng * eps * (1 - eps))
            hits += abs(nh - eps * ng) <= 4 * sd
        assert hits >= 39

    def test_reconstruction_identity(self):
        # y = diag(z) (A_G - 2 A_H) diag(z) entrywise
        for seed in range(25):
            rng = derive_stream(seed, 6)
            z = np.where(rng.uniform(30) < 0.5, 1.0, -1.0)
            inst = sample_z2sync_er(30, 0.4, 0.2, z, rng)
            expect = (
                z[:, None]
                * (inst.g_edges.astype(float) - 2.0 * inst.h_edges.astype(float))
                * z[None, :]
            )
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
        assert inst.g_edges.sum() == 5 * 4
        assert inst.h_edges.sum() == 0
        assert not inst.is_discrete

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
        prof = ensemble_profile("centered-er", 101, p=0.5)
        assert prof.sigma**2 == pytest.approx(25.0, rel=1e-12)
        assert prof.sigma_inf == 0.5

    def test_p_zero_degenerate(self):
        prof = ensemble_profile("centered-er", 10, p=0.0)
        assert prof.sigma == 0.0
        assert prof.sigma_inf == 0.0

    def test_centered_sbm_degenerate_instance(self):
        # (n/2 - 1) p (1 - p) + (n/2) q (1 - q) vanishes at p=1, q=0
        prof = ensemble_profile("centered-sbm", 4, p=1.0, q=0.0)
        assert prof.sigma == 0.0

    def test_centered_sbm_formula(self):
        n, p, q = 10, 0.3, 0.1
        prof = ensemble_profile("centered-sbm", n, p=p, q=q)
        want = (n / 2 - 1) * p * (1 - p) + (n / 2) * q * (1 - q)
        assert prof.sigma**2 == pytest.approx(want, rel=1e-12)
        assert prof.sigma_inf == 0.9

    def test_wigner_unbounded(self):
        prof = ensemble_profile("wigner", 10)
        assert prof.sigma == pytest.approx(3.0)
        assert math.isinf(prof.sigma_inf)

    def test_z2er_matches_simulation_moments(self):
        n, p, eps = 2, 0.3, 0.2
        prof = ensemble_profile("centered-z2er", n, p=p, eps=eps)
        c = p * (1 - 2 * eps)
        var = p * (1 - eps) * (-1 + c) ** 2 + p * eps * (1 + c) ** 2 + (1 - p) * c**2
        assert prof.sigma**2 == pytest.approx((n - 1) * var, rel=1e-12)
        assert prof.sigma_inf == pytest.approx(1 + c)

    def test_bounded_ensembles_satisfy_row_bound(self):
        for p in (0.1, 0.4, 0.9):
            prof = ensemble_profile("centered-er", 30, p=p)
            assert prof.sigma <= prof.sigma_inf * math.sqrt(29) + 1e-12

    def test_unknown_ensemble(self):
        with pytest.raises(UnknownEnsemble):
            ensemble_profile("levy", 10, p=0.5)
