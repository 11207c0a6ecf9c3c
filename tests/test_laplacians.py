import numpy as np
import pytest

from lapcert import (
    SymmetricMatrix,
    centered_laplacian,
    centered_partition_gap,
    degree_split,
    derive_stream,
    eigendecompose,
    graph_laplacian,
    laplacian_of,
    partition_gap_matrix,
    sample_er,
    sample_sbm,
    sample_z2sync_er,
    signed_adjacency,
    sync_laplacian,
)
from lapcert.ensembles import GraphSample
from lapcert.errors import MissingLabels, RequiresDiscreteInstance


def sym(a):
    return SymmetricMatrix(np.asarray(a, dtype=np.float64))


def graph_from_edges(n, edges):
    a = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    a.setflags(write=False)
    return GraphSample(n, a)


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
    def _instance(self, n, p, eps, seed):
        rng = derive_stream(seed, 0)
        z = np.where(rng.uniform(n) < 0.5, 1.0, -1.0)
        return sample_z2sync_er(n, p, eps, z, rng)

    def test_h_empty_equals_lg(self):
        inst = self._instance(20, 0.5, 0.0, 3)
        lg = graph_laplacian(GraphSample(20, inst.g_edges))
        assert np.array_equal(sync_laplacian(inst).array, lg.array)

    def test_h_equals_g_negates(self):
        # eps -> flip every edge: build manually
        n = 5
        g = graph_from_edges(n, [(0, 1), (1, 2), (3, 4)])
        inst_like = sample_z2sync_er(n, 0.0, 0.0, np.ones(n), derive_stream(0, 0))
        inst = type(inst_like)(
            n=n,
            y=inst_like.y,
            z=inst_like.z,
            g_edges=g.adjacency,
            h_edges=g.adjacency,
            params=inst_like.params,
        )
        lg = graph_laplacian(g)
        assert np.array_equal(sync_laplacian(inst).array, -lg.array)

    def test_triangle_one_corrupted(self):
        n = 3
        tri = graph_from_edges(n, [(0, 1), (1, 2), (0, 2)])
        h = graph_from_edges(n, [(0, 1)])
        inst_like = sample_z2sync_er(n, 0.0, 0.0, np.ones(n), derive_stream(0, 0))
        inst = type(inst_like)(
            n=n,
            y=inst_like.y,
            z=inst_like.z,
            g_edges=tri.adjacency,
            h_edges=h.adjacency,
            params=inst_like.params,
        )
        diag = np.diag(sync_laplacian(inst).array)
        assert diag.tolist() == [0.0, 0.0, 2.0]

    def test_consistency_with_laplacian_of(self):
        for seed in range(40):
            inst = self._instance(25, 0.4, 0.25, seed)
            direct = sync_laplacian(inst).array
            via = laplacian_of(
                sym(inst.g_edges.astype(float) - 2.0 * inst.h_edges.astype(float))
            ).array
            assert np.array_equal(direct, via)

    def test_rejects_gaussian(self):
        from lapcert import sample_z2sync_gaussian

        inst = sample_z2sync_gaussian(4, 1.0, np.ones(4), derive_stream(0, 0))
        with pytest.raises(RequiresDiscreteInstance):
            sync_laplacian(inst)


class TestPartitionGap:
    def test_deterministic_blocks(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        gap = partition_gap_matrix(g)
        cert = 2.0 * gap.array + 1.0
        vals = eigendecompose(sym(cert)).eigenvalues
        assert np.max(np.abs(vals - [0.0, 4.0, 4.0, 4.0])) < 1e-12

    def test_empty_graph(self):
        g = GraphSample(4, np.zeros((4, 4), dtype=np.uint8),
                        labels=np.array([1, 1, -1, -1], dtype=np.int8))
        assert np.all(partition_gap_matrix(g).array == 0.0)

    def test_complete_bipartite(self):
        g = sample_sbm(4, 0.0, 1.0, derive_stream(0, 0))
        gap = partition_gap_matrix(g).array
        assert np.allclose(np.diag(gap), -2.0)
        assert gap[0, 2] == -1.0 and gap[0, 1] == 0.0

    def test_conjugated_row_sums_vanish(self):
        for seed in range(60):
            g = sample_sbm(30, 0.5, 0.2, derive_stream(seed, 1))
            gap = partition_gap_matrix(g).array
            lab = g.labels.astype(float)
            conj = lab[:, None] * gap * lab[None, :]
            assert np.max(np.abs(conj @ np.ones(30))) < 1e-9

    def test_certificate_identity(self):
        # 2 Gamma + J == D_[diag(g) B diag(g)] - B entrywise
        for seed in range(60):
            g = sample_sbm(16, 0.6, 0.2, derive_stream(seed, 2))
            b = signed_adjacency(g)
            lab = g.labels.astype(float)
            conj = lab[:, None] * b.array * lab[None, :]
            d = np.diag(conj.sum(axis=1))
            lhs = 2.0 * partition_gap_matrix(g).array + 1.0
            rhs = d - b.array
            assert np.array_equal(lhs, rhs)

    def test_missing_labels(self):
        g = graph_from_edges(4, [(0, 1)])
        with pytest.raises(MissingLabels):
            partition_gap_matrix(g)


class TestCenteredPartitionGap:
    def test_deterministic_blocks_have_no_deviation(self):
        g = sample_sbm(6, 1.0, 0.0, derive_stream(0, 0))
        assert np.all(centered_partition_gap(g, 1.0, 0.0).array == 0.0)

    def test_conjugated_deviation_is_laplacian(self):
        # E[Gamma] - Gamma conjugated by the labels has vanishing row sums.
        for seed in range(20):
            g = sample_sbm(30, 0.5, 0.2, derive_stream(seed, 1))
            dev = centered_partition_gap(g, 0.5, 0.2).array
            lab = g.labels.astype(float)
            conj = lab[:, None] * dev * lab[None, :]
            assert np.max(np.abs(conj @ np.ones(30))) < 1e-9


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
    def test_deterministic_blocks(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        din, dout = degree_split(g)
        assert np.all(din == 1) and np.all(dout == 0)

    def test_complete_bipartite(self):
        g = sample_sbm(4, 0.0, 1.0, derive_stream(0, 0))
        din, dout = degree_split(g)
        assert np.all(din == 0) and np.all(dout == 2)

    def test_split_sums_to_degree(self):
        g = sample_sbm(50, 0.4, 0.2, derive_stream(9, 0))
        din, dout = degree_split(g)
        assert np.array_equal(din + dout, g.adjacency.sum(axis=1))
