import hashlib
from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest

from _oracles import null_residual, partition_gap_certificate, sync_certificate
from lapcert import (
    SweepConfig,
    SymmetricMatrix,
    centered_gap_diagonal,
    centered_laplacian,
    centered_partition_gap,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    derive_stream,
    dual_diagonal,
    eigendecompose,
    flip_oracle_sbm,
    flip_oracle_z2,
    graph_laplacian,
    laplacian_of,
    largest_eigenvalue,
    negated_laplacian,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    signed_adjacency,
)
from lapcert import sweeps
from lapcert.ensembles import GraphSample, SyncInstance
from lapcert.errors import MissingLabels, RequiresDiscreteInstance


def sym(a):
    return SymmetricMatrix(np.asarray(a, dtype=np.float64))


def graph_from_edges(n, edges):
    a = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    a.setflags(write=False)
    return GraphSample(a)


def assert_certificate_is(rep, ref, y, x):
    """``rep`` of (y, x) was computed on exactly the matrix ``ref``: the
    dual diagonal of (y, x) is ref's, and lambda_1 and lambda_2 are ref's,
    bit for bit."""
    lam = np.linalg.eigvalsh(ref)
    assert np.array_equal(dual_diagonal(y, x), np.diag(ref))
    assert rep.lambda1 == lam[0] and rep.lambda2 == lam[1]


class TestLaplacianOf:
    def test_all_ones(self):
        l = laplacian_of(sym(np.ones((3, 3))))
        expect = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert np.array_equal(l.array, expect)
        vals = eigendecompose(l).eigenvalues
        assert np.max(np.abs(vals - [0.0, 3.0, 3.0])) < 1e-12

    def test_zero(self):
        l = laplacian_of(sym(np.zeros((4, 4))))
        assert np.all(l.array == 0.0)

    def test_diagonal_invariance_bit_exact(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((8, 8))
        x = sym(b + b.T)
        shifted = sym(x.array + np.diag(rng.standard_normal(8)))
        assert np.array_equal(laplacian_of(x).array, laplacian_of(shifted).array)

    def test_row_sums_vanish_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            b = rng.standard_normal((n, n))
            x = sym(b + b.T)
            l = laplacian_of(x)
            tol = 1e-12 * n * max(np.max(np.abs(x.array)), 1.0)
            assert np.max(np.abs(l.array @ np.ones(n))) <= tol


class TestMemoryOrder:
    """A builder sums rows of a C-ordered array, whatever the layout of its
    input: numpy sums a Fortran-ordered row in another order, with other
    bits."""

    def test_laplacian_of(self):
        w = sample_wigner(64, derive_stream(5, 9))
        fortran = sym(np.asfortranarray(w.array))
        assert fortran.array.flags.f_contiguous
        assert laplacian_of(fortran).array.tobytes() == laplacian_of(w).array.tobytes()

    def test_centered_laplacian(self):
        g = sample_er(64, 0.3, derive_stream(4, 9))
        fortran = GraphSample(np.asfortranarray(g.adjacency))
        assert fortran.adjacency.flags.f_contiguous
        assert centered_laplacian(fortran, 0.3).array.tobytes() == \
            centered_laplacian(g, 0.3).array.tobytes()


class TestNegatedLaplacian:
    """negated_laplacian(w) is laplacian_of(-w) bit for bit, signed zeros
    included, built in a copy or, handed over, in w's own buffer."""

    @pytest.mark.parametrize("x", [
        lambda: sample_wigner(12, derive_stream(2, 9)),
        lambda: _rounded_wigner(1, 0),
        lambda: _rounded_wigner(12, 2),
        lambda: _rounded_wigner(64, 5),
        lambda: sym([[5.0, -0.0, 1.0, -1.0], [-0.0, 0.0, 0.0, -0.0],
                     [1.0, 0.0, -2.0, 0.5], [-1.0, -0.0, 0.5, -0.0]]),
        lambda: sym(np.zeros((5, 5))),
    ], ids=["wigner-12", "rounded-1", "rounded-12", "rounded-64", "hand", "zeros"])
    def test_bits_of_laplacian_of_minus_w(self, x):
        w = x()
        expected = laplacian_of(sym(-w.array)).array.tobytes()
        before = w.array.tobytes()
        assert negated_laplacian(w).array.tobytes() == expected
        assert w.array.tobytes() == before  # kept: built in a copy
        owned = sym(w.array)
        assert negated_laplacian(owned, overwrite=True).array.tobytes() == expected


class TestGraphLaplacian:
    def test_path3(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        expect = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.array_equal(graph_laplacian(g).array, expect)

    def test_empty(self):
        g = graph_from_edges(3, [])
        assert np.all(graph_laplacian(g).array == 0.0)

    def test_complete_k4(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        vals = eigendecompose(graph_laplacian(g)).eigenvalues
        assert np.max(np.abs(vals - [0.0, 4.0, 4.0, 4.0])) < 1e-12


class TestCenteredLaplacian:
    def test_empty_graph_p_zero(self):
        g = graph_from_edges(3, [])
        assert np.all(centered_laplacian(g, 0.0).array == 0.0)

    def test_complete_graph_p_one(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert np.max(np.abs(centered_laplacian(g, 1.0).array)) < 1e-12

    def test_hand_3x3(self):
        # single edge (0,1), p = 1/2: diagonal is (n-1)p - deg
        g = graph_from_edges(3, [(0, 1)])
        l = centered_laplacian(g, 0.5).array
        assert np.allclose(np.diag(l), [0.0, 0.0, 1.0])
        assert np.max(np.abs(l @ np.ones(3))) < 1e-12
        assert l[0, 1] == pytest.approx(0.5)  # edge: -(p - 1) ... A - p = 0.5
        assert l[0, 2] == pytest.approx(-0.5)

    def test_max_diag_formula(self):
        rng = derive_stream(11, 0)
        g = sample_er(40, 0.3, rng)
        deg = g.adjacency.sum(axis=1)
        l = centered_laplacian(g, 0.3)
        assert np.max(np.diag(l.array)) == pytest.approx(
            np.max(39 * 0.3 - deg), rel=1e-12
        )


class TestSyncLaplacian:
    """certify_z2sync on a discrete instance with planted signs all +1
    evaluates L_G - 2 L_H, the reference ``sync_certificate``."""

    def _instance(self, n, p, eps, seed):
        return sample_z2sync_er(n, p, eps, np.ones(n), derive_stream(seed, 0))

    @staticmethod
    def _graphs(inst):
        """G and H of an instance with planted signs all +1: y is +1 on
        clean edges and -1 on corrupted ones."""
        y = inst.y.array
        return (y != 0.0).astype(np.uint8), (y < 0.0).astype(np.uint8)

    def _hand_instance(self, g, h):
        # y = G - 2H: +1 on clean edges, -1 on corrupted ones
        y = sym(g.adjacency.astype(float) - 2.0 * h.adjacency)
        return SyncInstance(y, np.ones(g.n))

    def test_h_empty_equals_lg(self):
        inst = self._instance(20, 0.5, 0.0, 3)
        g_edges, h_edges = self._graphs(inst)
        ref = sync_certificate(g_edges, h_edges)
        lg = graph_laplacian(GraphSample(g_edges))
        assert np.array_equal(ref, lg.array)
        assert_certificate_is(certify_z2sync(inst), ref, inst.y, inst.z)

    def test_h_equals_g_negates(self):
        # every edge corrupted
        g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        ref = sync_certificate(g.adjacency, g.adjacency)
        assert np.array_equal(ref, -graph_laplacian(g).array)
        inst = self._hand_instance(g, g)
        assert_certificate_is(certify_z2sync(inst), ref, inst.y, inst.z)

    def test_triangle_one_corrupted(self):
        tri = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        h = graph_from_edges(3, [(0, 1)])
        inst = self._hand_instance(tri, h)
        assert dual_diagonal(inst.y, inst.z).tolist() == [0.0, 0.0, 2.0]
        assert_certificate_is(certify_z2sync(inst), sync_certificate(tri.adjacency, h.adjacency),
                              inst.y, inst.z)

    def test_consistency_with_laplacian_of(self):
        for seed in range(40):
            inst = self._instance(25, 0.4, 0.25, seed)
            g_edges, h_edges = self._graphs(inst)
            ref = sync_certificate(g_edges, h_edges)
            via = laplacian_of(
                sym(g_edges.astype(float) - 2.0 * h_edges.astype(float))
            ).array
            assert np.array_equal(ref, via)
            assert_certificate_is(certify_z2sync(inst), ref, inst.y, inst.z)
            # random planted signs conjugate the matrix: same dual diagonal,
            # same spectrum up to rounding
            rng = derive_stream(seed, 1)
            z = np.where(rng.uniform(25) < 0.5, 1.0, -1.0)
            inst = sample_z2sync_er(25, 0.4, 0.25, z, derive_stream(seed, 0))
            rep = certify_z2sync(inst)
            assert np.array_equal(dual_diagonal(inst.y, inst.z), np.diag(ref))
            lam = np.linalg.eigvalsh(ref)
            assert rep.lambda1 == pytest.approx(lam[0], abs=1e-9)
            assert rep.lambda2 == pytest.approx(lam[1], abs=1e-9)

    def test_rejects_gaussian(self):
        # the flip statistic counts sign disagreements, which a Gaussian
        # instance does not have
        from lapcert import sample_z2sync_gaussian

        inst = sample_z2sync_gaussian(4, 1.0, np.ones(4), derive_stream(0, 0))
        with pytest.raises(RequiresDiscreteInstance):
            flip_oracle_z2(inst)


class TestPartitionGap:
    """certify_sbm evaluates 2 Gamma + 11^T, the reference
    ``partition_gap_certificate`` built from the adjacency and labels."""

    def test_deterministic_blocks(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        ref = partition_gap_certificate(g.adjacency, g.labels)
        vals = eigendecompose(sym(ref)).eigenvalues
        assert np.max(np.abs(vals - [0.0, 4.0, 4.0, 4.0])) < 1e-12
        assert_certificate_is(certify_sbm(g), ref, signed_adjacency(g), g.labels)

    def test_empty_graph(self):
        g = GraphSample(np.zeros((4, 4), dtype=np.uint8),
                        labels=np.array([1, 1, -1, -1], dtype=np.int8))
        ref = partition_gap_certificate(g.adjacency, g.labels)
        assert np.all(ref == 1.0)  # Gamma = 0
        assert_certificate_is(certify_sbm(g), ref, signed_adjacency(g), g.labels)

    def test_complete_bipartite(self):
        g = sample_sbm(4, 0.0, 1.0, derive_stream(0, 0))
        ref = partition_gap_certificate(g.adjacency, g.labels)
        assert np.all(np.diag(ref) == -3.0)  # deg_in - deg_out = -2
        assert ref[0, 2] == -1.0 and ref[0, 1] == 1.0
        assert_certificate_is(certify_sbm(g), ref, signed_adjacency(g), g.labels)

    def test_conjugated_row_sums_vanish(self):
        for seed in range(60):
            g = sample_sbm(30, 0.5, 0.2, derive_stream(seed, 1))
            ref = partition_gap_certificate(g.adjacency, g.labels)
            lab = g.labels.astype(float)
            conj = lab[:, None] * ref * lab[None, :]
            assert np.max(np.abs(conj @ np.ones(30))) < 1e-9
            assert null_residual(signed_adjacency(g), lab) == 0.0
            assert_certificate_is(certify_sbm(g), ref, signed_adjacency(g), g.labels)

    def test_certificate_identity(self):
        # 2 Gamma + J == D_[diag(g) B diag(g)] - B entrywise
        for seed in range(60):
            g = sample_sbm(16, 0.6, 0.2, derive_stream(seed, 2))
            b = signed_adjacency(g)
            lab = g.labels.astype(float)
            conj = lab[:, None] * b.array * lab[None, :]
            ref = partition_gap_certificate(g.adjacency, g.labels)
            assert np.array_equal(ref, np.diag(conj.sum(axis=1)) - b.array)
            assert_certificate_is(certify_sbm(g), ref, b, g.labels)
            assert_certificate_is(certify_rank_one(b, lab), ref, b, lab)

    def test_missing_labels(self):
        g = graph_from_edges(4, [(0, 1)])
        with pytest.raises(MissingLabels):
            centered_partition_gap(g, 0.5, 0.2)
        with pytest.raises(MissingLabels):
            flip_oracle_sbm(g)


class TestCenteredPartitionGap:
    def test_deterministic_blocks_have_no_deviation(self):
        g = sample_sbm(6, 1.0, 0.0, derive_stream(0, 0))
        assert np.all(centered_partition_gap(g, 1.0, 0.0) == 0.0)

    def test_conjugated_deviation_is_laplacian(self):
        # E[Gamma] - Gamma conjugated by the labels has vanishing row sums.
        for seed in range(20):
            g = sample_sbm(30, 0.5, 0.2, derive_stream(seed, 1))
            dev = centered_partition_gap(g, 0.5, 0.2)
            lab = g.labels.astype(float)
            conj = lab[:, None] * dev * lab[None, :]
            assert np.max(np.abs(conj @ np.ones(30))) < 1e-9

    @pytest.mark.parametrize("p, q", [(0.5, 0.2), (1.0, 0.0), (0.0, 1.0), (0.3, 0.3)])
    def test_bits_of_the_mean_minus_gamma(self, p, q):
        # E[Gamma] - Gamma with the entry bits, signed zeros included, of
        # -E - (-Gamma) built from its definition
        n = 24
        g = sample_sbm(n, p, q, derive_stream(3, 0))
        lab = g.labels.astype(np.int64)
        gamma = -g.adjacency.astype(np.float64)
        np.fill_diagonal(gamma, lab * (g.adjacency @ lab))
        mean = -np.where(np.equal.outer(lab, lab), p, q)
        np.fill_diagonal(mean, (n / 2 - 1) * p - (n / 2) * q)
        ref = mean - gamma
        dev = centered_partition_gap(g, p, q)
        assert np.array_equal(dev, ref)
        assert np.array_equal(np.signbit(dev), np.signbit(ref))

    @pytest.mark.parametrize("p, q", [(0.5, 0.2), (1.0, 0.0), (0.3, 0.3)])
    def test_gap_diagonal_is_the_matrix_diagonal(self, p, q):
        g = sample_sbm(24, p, q, derive_stream(4, 0))
        diag = centered_gap_diagonal(g, p, q)
        assert diag.tobytes() == np.diagonal(centered_partition_gap(g, p, q)).tobytes()
        with pytest.raises(MissingLabels):
            centered_gap_diagonal(GraphSample(g.adjacency), p, q)


class TestSignedAdjacency:
    def test_complete(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        expect = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(signed_adjacency(g).array, expect)

    def test_empty(self):
        g = graph_from_edges(3, [])
        expect = -(np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(signed_adjacency(g).array, expect)

    def test_path3(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        expect = np.array([[0.0, 1, -1], [1, 0, 1], [-1, 1, 0]])
        assert np.array_equal(signed_adjacency(g).array, expect)


class TestDegreeSplit:
    """flip_oracle_sbm and centered_partition_gap read deg_in - deg_out,
    the reference ``partition_gap_certificate``'s (diagonal - 1) / 2."""

    def test_deterministic_blocks(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        ref = partition_gap_certificate(g.adjacency, g.labels)
        assert np.all((np.diag(ref) - 1.0) / 2.0 == 1.0)
        assert flip_oracle_sbm(g) == 1.0

    def test_complete_bipartite(self):
        g = sample_sbm(4, 0.0, 1.0, derive_stream(0, 0))
        ref = partition_gap_certificate(g.adjacency, g.labels)
        assert np.all((np.diag(ref) - 1.0) / 2.0 == -2.0)
        assert flip_oracle_sbm(g) == -2.0

    def test_split_sums_to_degree(self):
        n, p, q = 50, 0.4, 0.2
        g = sample_sbm(n, p, q, derive_stream(9, 0))
        stat = (np.diag(partition_gap_certificate(g.adjacency, g.labels)) - 1.0) / 2.0
        deg = g.adjacency.sum(axis=1)
        # deg_in - deg_out has the parity of the degree and lies within it
        assert np.all(np.abs(stat) <= deg) and np.all((deg - stat) % 2 == 0)
        assert flip_oracle_sbm(g) == stat.min()
        dev = centered_partition_gap(g, p, q)
        assert np.array_equal(np.diag(dev), (n / 2 - 1) * p - (n / 2) * q - stat)

    def test_degree_gap_is_labels_times_a_labels(self):
        g = sample_sbm(60, 0.4, 0.2, derive_stream(10, 0))
        labels = g.labels.astype(np.int64)
        gap = g.degree_gap
        assert gap.dtype == np.float64 and not gap.flags.writeable
        assert np.array_equal(gap, labels * (g.adjacency.astype(np.int64) @ labels))
        assert g.degree_gap is gap
        with pytest.raises(FrozenInstanceError):
            g.degree_gap = gap
        with pytest.raises(MissingLabels):
            GraphSample(g.adjacency).degree_gap

    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    def test_one_degree_gap_per_sbm_trial(self, monkeypatch, alpha):
        # the sufficient condition's pre-check, its matrix and the flip
        # oracle all read the sample's one degree gap
        evaluations = []
        compute = GraphSample.degree_gap.func
        counted = cached_property(lambda g: evaluations.append(1) or compute(g))
        counted.__set_name__(GraphSample, "degree_gap")
        monkeypatch.setattr(GraphSample, "degree_gap", counted)
        cfg = SweepConfig(experiment="sbm", n=[300], grids={"alpha": [alpha], "beta": [2.0]},
                          trials=5, master_seed=42)
        cell = sweeps.run_sweep(cfg).cells[0]
        assert len(evaluations) == 5
        assert cell["freq_sufficient"] > 0.0 or alpha == 2.0


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _rounded_wigner(n, seed):
    """A Wigner sample rounded to halves: +0.0 and -0.0 entries, and rows
    whose off-diagonal sum cancels to zero."""
    return sym(np.round(2.0 * sample_wigner(n, derive_stream(seed, 9)).array) / 2.0)


class TestBuilderDigests:
    """Every matrix builder pinned bit for bit, signed zeros included, so a
    change in how a matrix is assembled cannot change a single entry."""

    @pytest.mark.parametrize("x, digest", [
        (lambda: sample_wigner(12, derive_stream(2, 9)),
         "23ffd5ac0275f1c43c9d50b6933e736612b6649518a168e2b3ce6a37ee2ceb63"),
        (lambda: sample_wigner(64, derive_stream(5, 9)),
         "31df248541a3408b0aaa483e7436aedb8ec9cbb9ae305e7016c47fce33da14d2"),
        (lambda: _rounded_wigner(1, 0),
         "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        (lambda: _rounded_wigner(12, 2),
         "dd124ae5d834b89d8c62a01a32411296eba44c3e8e9396b0450e434c4195da53"),
        (lambda: _rounded_wigner(64, 5),
         "fbf2c14c4cd99d4be99fbfc4a6e2f0a6530e29cd01014a22d128457fe0298930"),
        (lambda: sym([[5.0, -0.0, 1.0, -1.0], [-0.0, 0.0, 0.0, -0.0],
                      [1.0, 0.0, -2.0, 0.5], [-1.0, -0.0, 0.5, -0.0]]),
         "c9b2415e309a6fb2ae21fa956cc9b4fd7130f11fd306298ce6da29724d29585b"),
        (lambda: sym(np.zeros((5, 5))),
         "4aafdf1ea3781214849d6cc26e516b05227624e0c5cec252c9d0715d1c853677"),
    ], ids=["wigner-12", "wigner-64", "rounded-1", "rounded-12", "rounded-64", "hand",
            "zeros"])
    def test_laplacian_of(self, x, digest):
        assert _sha256(laplacian_of(x()).array) == digest

    @pytest.mark.parametrize("n, p, seed, graph, centered", [
        (1, 0.5, 0, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
         "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
        (30, 0.3, 4, "ac0162c86bbe3584402a578a9e780d04583e2a7454a40095f190f984e438bf79",
         "5f950a5de4dbcc063a22ed7c069ec02e697018e358eb639adb53d5fd38453bc1"),
        (64, 0.1, 5, "8fd31f186311b68e6573fa3725a20afb04b8594eca7bb56c94841127df3fd9f5",
         "28b0e4f3622182ff8fc65966a87a9b54fce13c44247f563d7427b167b853b00d"),
        # p = 0 and p = 1: every off-diagonal p - A is exactly 0, whose sign
        # A - p would flip
        (12, 0.0, 6, "0b9ac6d45f2e044c5f6e0c8ca21702af204d9eea9d5352f9f3d38935ad4ebdfa",
         "0b9ac6d45f2e044c5f6e0c8ca21702af204d9eea9d5352f9f3d38935ad4ebdfa"),
        (12, 1.0, 7, "cd9e1c54f4d0fa72ef3a81003ba165d6b88c2d8b8a874f51fcf48545decf63e8",
         "0b9ac6d45f2e044c5f6e0c8ca21702af204d9eea9d5352f9f3d38935ad4ebdfa"),
    ])
    def test_graph_and_centered_laplacian(self, n, p, seed, graph, centered):
        g = sample_er(n, p, derive_stream(seed, 9))
        assert _sha256(graph_laplacian(g).array) == graph
        assert _sha256(centered_laplacian(g, p).array) == centered

    @pytest.mark.parametrize("n, p, q, seed, signed, gap", [
        (2, 1.0, 0.0, 2, "24cc908a4ef61eb71d1f811b447b0defc382d05c4d7c327a0436b1f6faf9326b",
         "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
        (30, 0.6, 0.1, 4, "a5052521fefb3bc02a53a8ea4668bff9d4b56bb4c74bd0a5829a259f84e0e00c",
         "e11a01508c297fab746488b3a79a90d4e2c83fcafdc53e860bcb85d1d88a8996"),
        (40, 0.3, 0.3, 8, "9e8ec273787cda29b5316b3a0975d11a75508f0018ea3a77c61b6d8cb856e1bb",
         "91e07037ef7bf358a038c125a6dd8746979479523e686a848ea5a0fc70566881"),
    ])
    def test_signed_adjacency_and_partition_gap(self, n, p, q, seed, signed, gap):
        g = sample_sbm(n, p, q, derive_stream(seed, 9))
        assert _sha256(signed_adjacency(g).array) == signed
        assert _sha256(centered_partition_gap(g, p, q)) == gap

    @pytest.mark.parametrize("ensemble, cell, digest, ratio", [
        ("wigner-neg-laplacian", {"n": 30},
         "1f5501e9c69685180bbdac2f3f511bb36f34a4736626f69e8b2978216870253f",
         1.2696097949534648),
        ("centered-er", {"n": 30, "p": 0.2},
         "0bf3ea2ac7f3144ae27d46c0fe7a214b4c18766188744e19ea6034b4f00aa2af",
         1.1696071970310844),
        ("centered-sbm", {"n": 30, "p": 0.5, "q": 0.1},
         "f459ccbc05a461cea643b677bd629dd5a271ad13acdf59a65f838074fa5129ca",
         1.1838846613634944),
    ])
    def test_ratio_trial_laplacian(self, monkeypatch, ensemble, cell, digest, ratio):
        seen = []
        ratio_of = sweeps.spectral_diag_ratio

        def capture(l, **kwargs):
            seen.append(l.array.copy())
            return ratio_of(l, **kwargs)

        monkeypatch.setattr(sweeps, "spectral_diag_ratio", capture)
        cfg = SweepConfig(experiment="ratio", n=[cell["n"]], grids={}, trials=1,
                          master_seed=7, ensemble=ensemble)
        assert sweeps._eval_ratio(cfg, cell, derive_stream(7, 3), 3) == {"ratio": ratio}
        assert _sha256(seen[0]) == digest
        # the ratio is the Lanczos value, and its proved bracket holds eigvalsh's
        theta, upper = largest_eigenvalue(SymmetricMatrix(seen[0]))
        lam = np.linalg.eigvalsh(seen[0])[-1]
        assert ratio == theta / np.diagonal(seen[0]).max()
        assert theta < upper and theta * (1.0 - 1e-13) <= lam <= upper
