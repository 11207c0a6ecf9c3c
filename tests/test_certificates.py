import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from _oracles import exact_side, z2sync_er_graphs, z2sync_gaussian_report
from lapcert import (
    SymmetricMatrix,
    centered_er_profile,
    centered_partition_gap,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    connectivity_spectral,
    connectivity_unionfind,
    derive_stream,
    dual_diagonal,
    eigenvalues_selected,
    flip_oracle_sbm,
    flip_oracle_z2,
    graph_laplacian,
    laplacian_of,
    norm_bound_check,
    sample_er,
    sample_sbm,
    sample_z2sync_er,
    sample_z2sync_gaussian,
    sbm_sufficient_condition,
    sigma_star,
    signed_adjacency,
    spectral_diag_ratio,
)
from lapcert import certificates, eig
from lapcert.certificates import TAU_POS
from lapcert.ensembles import GraphSample, SyncInstance
from lapcert.errors import (
    DomainError,
    InvalidAdjacency,
    InvalidMeasurements,
    LapcertError,
    MissingLabels,
    NonLaplacian,
    NonPositiveDiagonalMax,
    NonSignVector,
)


def sym(a):
    return SymmetricMatrix(np.asarray(a, dtype=np.float64))


def one_edge(value, dtype=np.uint8):
    """A 4-node adjacency whose one edge (0, 1) holds ``value``."""
    a = np.zeros((4, 4), dtype=dtype)
    a[0, 1] = a[1, 0] = value
    return a


def random_signs(rng, n):
    return np.where(rng.uniform(n) < 0.5, 1.0, -1.0)


class TestDualDiagonal:
    def test_rank_one_gives_n(self):
        z = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        d = dual_diagonal(sym(np.outer(z, z)), z)
        assert np.array_equal(d, np.full(5, 5.0))

    def test_all_ones_alternating(self):
        d = dual_diagonal(sym(np.ones((2, 2))), np.array([1.0, -1.0]))
        assert np.array_equal(d, np.zeros(2))

    def test_zero_matrix(self):
        assert np.all(dual_diagonal(sym(np.zeros((3, 3))), np.ones(3)) == 0.0)

    def test_rejects_non_sign(self):
        with pytest.raises(NonSignVector):
            dual_diagonal(sym(np.eye(2)), np.array([1.0, 0.5]))


class TestCertifyRankOne:
    def test_noiseless_tight(self):
        z = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        rep = certify_rank_one(sym(np.outer(z, z)), z)
        assert rep.tight
        assert rep.lambda2 == pytest.approx(5.0, abs=1e-9)
        assert abs(rep.lambda1) <= 1e-9
        assert rep.side == "above"

    def test_all_ones_wrong_signs_boundary(self):
        rep = certify_rank_one(sym(np.ones((2, 2))), np.array([1.0, -1.0]))
        assert not rep.tight
        assert rep.lambda1 == pytest.approx(-2.0, abs=1e-9)
        assert abs(rep.lambda2) <= rep.band

    def test_zero_matrix_not_tight(self):
        rep = certify_rank_one(sym(np.zeros((4, 4))), np.ones(4))
        assert not rep.tight
        assert rep.side == "boundary"

    def test_null_residual_invariant(self):
        rng = derive_stream(100, 0)
        for _ in range(500):
            n = int(rng.uniform() * 28) + 2
            b = rng.normal((n, n))
            y = sym(b + b.T)
            x = random_signs(rng, n)
            rep = certify_rank_one(y, x)
            assert rep.residual_null <= 1e-10 * n * max(y.max_abs(), 1e-30)

    def test_scaling_verdict_invariance(self):
        rng = derive_stream(101, 0)
        for _ in range(60):
            n = int(rng.uniform() * 20) + 3
            b = rng.normal((n, n))
            y = sym(b + b.T)
            x = random_signs(rng, n)
            base = certify_rank_one(y, x)
            for c in (1e-3, 7.0, 1e4):
                scaled = certify_rank_one(sym(c * y.array), x)
                assert scaled.tight == base.tight


class TestCertifyZ2Sync:
    def test_noiseless_connected_tight(self):
        rng = derive_stream(0, 1)
        z = random_signs(rng, 12)
        inst = sample_z2sync_er(12, 1.0, 0.0, z, rng)
        rep = certify_z2sync(inst)
        assert rep.tight
        assert rep.lambda2 == pytest.approx(12.0, abs=1e-8)

    def test_disconnected_graph_not_tight(self):
        inst = sample_z2sync_er(6, 0.0, 0.0, np.ones(6), derive_stream(0, 0))
        assert not certify_z2sync(inst).tight

    def test_sigma_zero_tight(self):
        for n in (2, 5, 9):
            inst = sample_z2sync_gaussian(n, 0.0, np.ones(n), derive_stream(0, n))
            rep = certify_z2sync(inst)
            assert rep.tight
            assert rep.lambda2 == pytest.approx(n, abs=1e-9)

    def test_discrete_path_matches_rank_one(self):
        rng = derive_stream(55, 0)
        for trial in range(500):
            n = int(rng.uniform() * 25) + 4
            p = 0.2 + 0.8 * rng.uniform()
            eps = 0.45 * rng.uniform()
            z = random_signs(rng, n)
            inst = sample_z2sync_er(n, p, eps, z, rng)
            a = certify_z2sync(inst)
            b = certify_rank_one(inst.y, inst.z)
            assert a.tight == b.tight
            assert a.lambda2 == pytest.approx(b.lambda2, abs=1e-8 * (1 + n))

    def test_gaussian_path_matches_rank_one(self):
        rng = derive_stream(56, 0)
        for trial in range(60):
            n = int(rng.uniform() * 30) + 4
            sigma = 0.05 + 2.0 * rng.uniform()
            z = random_signs(rng, n)
            inst = sample_z2sync_gaussian(n, sigma, z, rng)
            a = certify_z2sync(inst)
            b = certify_rank_one(inst.y, inst.z)
            assert a.tight == b.tight
            # fast-path lambda2 is exact while the noise Laplacian has a
            # positive top eigenvalue, a lower bound otherwise
            assert a.lambda2 <= b.lambda2 + 1e-7 * (1 + n)
            if 0.0 < a.lambda2 < n * (1 - 1e-9):
                assert a.lambda2 == pytest.approx(
                    b.lambda2, rel=1e-6, abs=1e-7 * (1 + n)
                )


    def test_gaussian_matches_conjugated_noise_reference(self):
        # D - Y + z z^T against n - sigma mu of the Laplacian of the
        # conjugated noise, over sigma from 0.05 to 4 times sqrt(n / (2 log n))
        rng = derive_stream(57, 0)
        sides = set()
        for trial in range(240):
            n = int(rng.uniform() * 57) + 4
            sigma = (0.05 + 3.95 * rng.uniform()) * math.sqrt(n / (2.0 * math.log(n)))
            z = random_signs(rng, n)
            inst = sample_z2sync_gaussian(n, sigma, z, rng)
            rep = certify_z2sync(inst)
            lam1, lam2, band, residual, d = z2sync_gaussian_report(inst.y.array, z, sigma,
                                                                   TAU_POS)
            ref = certificates.CertificateReport(d, lam1, lam2, residual, band)
            assert (rep.side, rep.tight) == (ref.side, ref.tight)
            tol = 1e-10 * (1 + n)
            assert abs(rep.lambda1 - lam1) <= tol
            assert abs(rep.lambda2 - lam2) <= tol
            assert abs(rep.band - band) <= tol
            assert rep.residual_null == residual
            assert np.array_equal(rep.d_diag, d)
            sides.add(rep.side)
        assert sides == {"above", "below"}

    def test_gaussian_side_of_a_failed_certificate_differs_from_rank_one(self):
        # Where D - Y has exactly one negative eigenvalue, lambda_2(D - Y)
        # is the null eigenvalue on z: certify_rank_one reads "boundary",
        # the Gaussian report lambda_1(D - Y + z z^T) < 0 reads "below".
        n = 30
        sigma = 1.15 * math.sqrt(n / (2.0 * math.log(n)))
        pairs = []
        for seed in range(200):
            inst = sample_z2sync_gaussian(n, sigma, np.ones(n), derive_stream(seed, 0))
            a, b = certify_z2sync(inst), certify_rank_one(inst.y, inst.z)
            assert a.tight == b.tight
            pairs.append((a.side, b.side))
            if seed == 0:
                assert a.lambda2 == pytest.approx(-3.7628, abs=1e-4)
                assert abs(b.lambda2) < 1e-12 and b.lambda1 < -b.band
        assert pairs.count(("below", "boundary")) == 83
        assert all(a == b for a, b in pairs if (a, b) != ("below", "boundary"))

class TestHandBuiltSamples:
    """A sample is its arrays: one built by hand from a sampler's arrays
    gives the sampler's results, and its size is read off those arrays."""

    def test_samples_hold_only_arrays(self):
        assert [f.name for f in dataclasses.fields(GraphSample)] == ["adjacency", "labels"]
        assert [f.name for f in dataclasses.fields(SyncInstance)] == ["y", "z", "sigma"]
        assert GraphSample(np.zeros((7, 7), dtype=np.uint8)).n == 7
        inst = SyncInstance(sym(np.zeros((3, 3))), np.ones(3))
        assert inst.n == 3 and inst.is_discrete
        assert not SyncInstance(sym(np.eye(3)), np.ones(3), 0.5).is_discrete

    def test_partition_gap_and_sufficiency(self):
        held = set()
        for seed, (n, p, q) in enumerate([(30, 0.6, 0.1), (40, 0.9, 0.05),
                                          (40, 0.3, 0.25), (4, 1.0, 0.0)]):
            g = sample_sbm(n, p, q, derive_stream(70, seed))
            hand = GraphSample(g.adjacency.copy(), labels=g.labels.copy())
            assert hand.n == n
            assert np.array_equal(centered_partition_gap(hand, p, q),
                                  centered_partition_gap(g, p, q))
            holds = sbm_sufficient_condition(hand, p, q)
            assert holds is sbm_sufficient_condition(g, p, q)
            held.add(holds)
        assert held == {False, True}

    @pytest.mark.parametrize("fn", [centered_partition_gap, sbm_sufficient_condition])
    def test_unbalanced_labels_are_refused(self, fn):
        # the balanced mean (n/2 - 1) p - (n/2) q is not E[Gamma] here
        g = GraphSample(np.zeros((6, 6), np.uint8), labels=[1, 1, 1, 1, -1, -1])
        with pytest.raises(DomainError, match="balanced"):
            fn(g, 0.5, 0.2)

    def test_gaussian_certificate(self):
        rng = derive_stream(71, 0)
        for n, sigma in [(4, 0.3), (20, 0.5), (20, 3.0), (35, 1.0)]:
            z = random_signs(rng, n)
            inst = sample_z2sync_gaussian(n, sigma, z, rng)
            hand = SyncInstance(sym(inst.y.array.copy()), z.copy(), sigma)
            a, b = certify_z2sync(inst), certify_z2sync(hand)
            assert (a.lambda1, a.lambda2, a.band, a.residual_null) == \
                (b.lambda1, b.lambda2, b.band, b.residual_null)
            assert np.array_equal(a.d_diag, b.d_diag)

    def test_gaussian_size_is_the_matrix_size(self):
        # lambda2 = n - sigma lambda_max reads n off y: a 4 x 4 instance
        # is certified on the 4 x 4 scale
        rng = derive_stream(72, 0)
        inst = sample_z2sync_gaussian(4, 0.3, np.ones(4), rng)
        rep = certify_z2sync(SyncInstance(inst.y, inst.z, 0.3))
        assert rep.tight and rep.lambda2 < 4.0
        assert rep.lambda2 == pytest.approx(certify_rank_one(inst.y, inst.z).lambda2,
                                            abs=1e-9)

    def test_union_find_connectivity(self):
        seen = set()
        for seed in range(12):
            n = 10 + 5 * seed
            g = sample_er(n, 1.2 * math.log(n) / n, derive_stream(73, seed))
            hand = GraphSample(g.adjacency.copy())
            assert hand.n == n
            assert connectivity_unionfind(hand) == connectivity_unionfind(g) \
                == connectivity_spectral(g)
            seen.add(connectivity_unionfind(hand))
        assert seen == {False, True}
        # a 10-node path is connected
        a = np.zeros((10, 10), dtype=np.uint8)
        a[np.arange(9), np.arange(1, 10)] = a[np.arange(1, 10), np.arange(9)] = 1
        assert connectivity_unionfind(GraphSample(a))

    @pytest.mark.parametrize("adjacency", [
        np.triu(one_edge(value=1), 1),
        np.triu(np.ones((4, 4), dtype=np.uint8), 1),
        one_edge(value=2),
        one_edge(value=-1, dtype=np.int64),
        one_edge(value=0.5, dtype=np.float64),
        one_edge(value=np.nan, dtype=np.float64),
        np.eye(4, dtype=np.uint8),
        np.zeros((4, 5), dtype=np.uint8),
        np.zeros(4, dtype=np.uint8),
    ], ids=["one-sided-edge", "upper-triangle", "two", "minus-one", "half", "nan",
            "diagonal", "non-square", "one-d"])
    def test_invalid_adjacency_fails_at_construction(self, adjacency):
        # unchecked, a one-sided edge made certify_sbm fail with a bare
        # "array is not symmetric" and flip_oracle_sbm return 0, and an
        # entry of 2 made certify_sbm read "boundary"
        with pytest.raises(InvalidAdjacency, match="symmetric 0/1") as info:
            GraphSample(adjacency, labels=np.array([1, 1, -1, -1], dtype=np.int8))
        assert isinstance(info.value, LapcertError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("labels", [
        np.array([1, 1, -1, -1, 1, -1]), np.array([1, -1, 1]),
        np.array([1, 0, -1, -1]), np.array([1.0, 1.0, -1.0, np.nan]),
        np.array([[1, 1, -1, -1]]),
    ], ids=["six", "three", "zero", "nan", "two-d"])
    def test_invalid_labels_fail_at_construction(self, labels):
        # six labels on a 4 x 4 adjacency reached flip_oracle_sbm and died
        # there in a bare numpy matmul error
        with pytest.raises(NonSignVector):
            GraphSample(np.zeros((4, 4), dtype=np.uint8), labels=labels)

    @pytest.mark.parametrize("y, z, sigma, error", [
        ([[0, 0.5], [0.5, 0]], [1, 1], None, InvalidMeasurements),
        ([[0, 2], [2, 0]], [1, 1], None, InvalidMeasurements),
        ([[1, 1], [1, 0]], [1, 1], None, InvalidMeasurements),
        ([[0, 1], [1, 0]], [1, 1, 1], None, NonSignVector),
        ([[0, 1], [1, 0]], [1, 0], None, NonSignVector),
        ([[1, 0.5], [0.5, 1]], [1, 0], 0.5, NonSignVector),
        ([[1, 0.5], [0.5, 1]], [1, 1], -1.0, DomainError),
        ([[1, 0.5], [0.5, 1]], [1, 1], math.inf, DomainError),
        ([[1, 0.5], [0.5, 1]], [1, 1], math.nan, DomainError),
    ], ids=["half", "two", "diagonal", "three-signs", "zero-sign", "gaussian-zero-sign",
            "negative-sigma", "infinite-sigma", "nan-sigma"])
    def test_invalid_sync_instance_fails_at_construction(self, y, z, sigma, error):
        # unchecked, y = [[0, .5], [.5, 0]] read "boundary" from
        # flip_oracle_z2 and "above" from certify_z2sync
        with pytest.raises(error) as info:
            SyncInstance(sym(y), np.array(z, dtype=np.float64), sigma)
        assert isinstance(info.value, LapcertError) and isinstance(info.value, ValueError)

    def test_sync_instance_needs_a_symmetric_matrix(self):
        with pytest.raises(TypeError, match="SymmetricMatrix"):
            SyncInstance(np.zeros((2, 2)), np.ones(2))

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
    def test_valid_adjacency_of_any_dtype_behaves_as_sampled(self, dtype):
        for seed, (n, p, q) in enumerate([(20, 0.6, 0.1), (30, 0.3, 0.25)]):
            g = sample_sbm(n, p, q, derive_stream(74, seed))
            hand = GraphSample(g.adjacency.astype(dtype), labels=g.labels.astype(np.float64))
            assert hand.adjacency.dtype == dtype and hand.n == n
            a, b = certify_sbm(hand), certify_sbm(g)
            assert np.array_equal(a.d_diag, b.d_diag)
            assert (a.lambda1, a.lambda2, a.band, a.residual_null) == \
                (b.lambda1, b.lambda2, b.band, b.residual_null)
            assert flip_oracle_sbm(hand) == flip_oracle_sbm(g)
            assert sbm_sufficient_condition(hand, p, q) == sbm_sufficient_condition(g, p, q)
            assert np.array_equal(centered_partition_gap(hand, p, q),
                                  centered_partition_gap(g, p, q))
            for build in (graph_laplacian, signed_adjacency):
                assert build(hand).array.tobytes() == build(g).array.tobytes()
            assert connectivity_unionfind(hand) == connectivity_unionfind(g) \
                == connectivity_spectral(hand)


class TestRankOneSide:
    """rank_one_side decides certify_rank_one's side; a Cholesky factorization
    or the blocked nodes' spectrum settles the clear cases, whether or not
    C x = 0 holds in floating point."""

    @staticmethod
    def spy_eigvalsh(monkeypatch, limit=None):
        """Record the size of every eigvalsh input; raise at size >= limit."""
        sizes = []
        original = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            sizes.append(a.shape[0])
            if limit is not None and a.shape[0] >= limit:
                raise AssertionError(f"spectrum of a {a.shape[0]}x{a.shape[0]} matrix")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        return sizes

    @staticmethod
    def spy_factorizes(monkeypatch):
        """Record (input copy, verdict) of every Cholesky factorization."""
        seen = []
        factorizes = eig._factorizes

        def spy(a):
            seen.append((a.copy(), factorizes(a)))
            return seen[-1][1]

        monkeypatch.setattr(eig, "_factorizes", spy)
        return seen

    @staticmethod
    def sbm_instance(rng):
        n = 2 * (int(rng.uniform() * 141) + 10)  # 20..300
        alpha = 2.0 + 8.0 * rng.uniform()
        logn = math.log(n)
        g = sample_sbm(n, min(1.0, alpha * logn / n), logn / n, rng)
        return signed_adjacency(g), g.labels

    @staticmethod
    def z2er_instance(rng):
        n = int(rng.uniform() * 131) + 20  # 20..150
        p = 0.1 + 0.7 * rng.uniform()
        eps = 0.45 * rng.uniform()
        inst = sample_z2sync_er(n, p, eps, random_signs(rng, n), rng)
        return inst.y, inst.z

    @classmethod
    def float_instance(cls, rng):
        """A z2gauss instance at sigma-factor 0.5..1.5, or an sbm signed
        adjacency with a positive diagonal: C x != 0 in floating point."""
        if rng.uniform() < 0.5:
            n = int(rng.uniform() * 131) + 20  # 20..150
            sigma = (0.5 + rng.uniform()) * sigma_star(n)
            inst = sample_z2sync_gaussian(n, sigma, random_signs(rng, n), rng)
            return inst.y, inst.z
        y, x = cls.sbm_instance(rng)
        return sym(y.array + np.diag(0.1 + rng.uniform(y.n))), x

    @pytest.mark.parametrize("model, seed", [("sbm", 71), ("z2er", 72), ("float", 77)])
    def test_matches_spectrum_side(self, model, seed):
        rng = derive_stream(seed, 0)
        instance = {"sbm": self.sbm_instance, "z2er": self.z2er_instance,
                    "float": self.float_instance}[model]
        sides = []
        for _ in range(300):
            y, x = instance(rng)
            side = certificates.rank_one_side(y, x)
            assert side == certify_rank_one(y, x).side
            sides.append(side)
        assert set(sides) == {"above", "below", "boundary"}

    def test_tau_zero_matches_spectrum_side(self):
        rng = derive_stream(73, 0)
        for _ in range(100):
            for y, x in (self.sbm_instance(rng), self.z2er_instance(rng)):
                assert (certificates.rank_one_side(y, x, 0.0)
                        == certify_rank_one(y, x, 0.0).side)

    def test_tau_zero_accept_is_shifted_by_the_slack(self, monkeypatch):
        # at tau = 0, t = 2 n eps (1 + ||C||_inf) is below Cholesky's
        # backward error: the accept factorizes C + ((t + 1)/n) x x^T less
        # (t + delta) I, delta the slack of that matrix less t I
        n = 200
        logn = math.log(n)
        g = sample_sbm(n, 12.0 * logn / n, logn / n, derive_stream(75, 0))
        b, x = signed_adjacency(g), g.labels.astype(np.float64)
        cert = np.diag(dual_diagonal(b, x)) - b.array
        assert np.diagonal(cert).min() >= 0.0  # no blocked node
        seen = self.spy_factorizes(monkeypatch)
        assert certificates.rank_one_side(b, x, 0.0) == "above"
        assert certify_rank_one(b, x, 0.0).side == "above"
        t = 2.0 * n * float(np.finfo(np.float64).eps) * (1.0 + np.linalg.norm(cert, np.inf))
        lifted = cert + np.outer(x, x) * ((t + 1.0) / n)
        delta = eig._cholesky_slack(n, float(np.trace(lifted)) - n * t)
        assert delta > 10.0 * t
        shift = np.diagonal(lifted) - np.diagonal(seen[0][0])
        assert shift == pytest.approx(np.full(n, t + delta), rel=1e-3)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(seen[0][0][off], lifted[off])

    def test_empty_graph_boundary(self, monkeypatch):
        # C = 11^T, lambda_2 = 0: the accept fails and the full spectrum decides
        g = sample_sbm(20, 0.0, 0.0, derive_stream(0, 0))
        sizes = self.spy_eigvalsh(monkeypatch)
        seen = self.spy_factorizes(monkeypatch)
        assert certificates.rank_one_side(signed_adjacency(g), g.labels) == "boundary"
        assert [verdict for _, verdict in seen] == [False]
        assert sizes == [20]

    @pytest.mark.parametrize("seed, side", [(3, "boundary"), (4, "below")])
    def test_near_threshold_failed_accept_falls_back(self, monkeypatch, seed, side):
        # alpha = 5 at n = 300, no blocked node and lambda_2 <= t: the one
        # factorization fails and the side is the spectrum's
        n = 300
        logn = math.log(n)
        g = sample_sbm(n, 5.0 * logn / n, logn / n, derive_stream(9090, seed))
        b = signed_adjacency(g)
        rep = certify_rank_one(b, g.labels)
        assert rep.side == side and np.all(rep.d_diag > 0.0)
        seen = self.spy_factorizes(monkeypatch)
        assert certificates.rank_one_side(b, g.labels) == side
        assert [verdict for _, verdict in seen] == [False]

    def test_single_bad_node_falls_back(self, monkeypatch):
        # two 6-cliques, and node 0 wired to the other community instead of its own
        labels = np.repeat([1, -1], 6).astype(np.int8)
        a = np.equal.outer(labels, labels).astype(np.uint8)
        np.fill_diagonal(a, 0)
        a[0, :6] = a[:6, 0] = 0
        a[0, 6:] = a[6:, 0] = 1
        b, x = signed_adjacency(GraphSample(a, labels=labels)), labels
        rep = certify_rank_one(b, x)
        assert rep.d_diag[0] < 0 and np.count_nonzero(rep.d_diag < 0) == 1
        sizes = self.spy_eigvalsh(monkeypatch)
        assert certificates.rank_one_side(b, x) == rep.side
        assert sizes[0] == 12

    @pytest.mark.parametrize("y, x, side", [
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], "above"),
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0], "boundary"),
        ([[0.0, 0.0], [0.0, 0.0]], [1.0, -1.0], "boundary"),
        ([[3.0]], [-1.0], "boundary"),
    ])
    def test_small_n(self, y, x, side):
        assert certify_rank_one(sym(y), x).side == side
        assert certificates.rank_one_side(sym(y), x) == side

    def test_nonzero_diagonal_takes_no_full_spectrum(self, monkeypatch):
        # both proofs hold for every symmetric C: a clear instance with
        # C x != 0 in floating point is decided without C's spectrum
        n = 200
        logn = math.log(n)
        g = sample_sbm(n, 12.0 * logn / n, logn / n, derive_stream(74, 0))
        b = signed_adjacency(g)
        y = sym(b.array + np.diag(0.1 + derive_stream(74, 1).uniform(n)))
        rep = certify_rank_one(y, g.labels)
        assert rep.residual_null > 0.0 and rep.side == "above"
        self.spy_eigvalsh(monkeypatch, limit=n)
        assert certificates.rank_one_side(y, g.labels) == "above"

    @pytest.mark.parametrize("alpha, side", [(12.0, "above"), (1.5, "below")])
    def test_clear_sides_take_no_full_spectrum(self, monkeypatch, alpha, side):
        n = 200
        logn = math.log(n)
        g = sample_sbm(n, alpha * logn / n, logn / n, derive_stream(75, 0))
        b = signed_adjacency(g)
        assert certify_rank_one(b, g.labels).side == side
        sizes = self.spy_eigvalsh(monkeypatch, limit=n)
        assert certificates.rank_one_side(b, g.labels) == side


    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("alpha", [1.5, 12.0])
    def test_out_of_range_tau_matches_spectrum_side(self, alpha, tau):
        # the proofs assume t >= 2 band, which a negative or non-finite tau
        # breaks: such a tau is left to the spectrum
        n = 60
        logn = math.log(n)
        g = sample_sbm(n, alpha * logn / n, logn / n, derive_stream(76, 0))
        b = signed_adjacency(g)
        assert (certificates.rank_one_side(b, g.labels, tau)
                == certify_rank_one(b, g.labels, tau).side)


def _assert_sound(side, exact):
    """A float side may read "boundary" for anything, but never "above"
    where the exact side is not, nor "below" where it is "above"."""
    assert side != "above" or exact == "above"
    assert side != "below" or exact != "above"


class TestExactReferee:
    """Float sides against ``exact_side``, near each threshold at n <= 30
    (n <= 40 in the slow slice).

    Every side is sound, at the default tau and at tau = 0. Only "boundary"
    may disagree: its float side does not yet separate lambda_2 = 0 from a
    small negative one (see ROADMAP item 4), so those disagreements are
    counted, not asserted on. An er instance (Y = A, x = 1) certifies the
    graph Laplacian, exactly "above" when the graph is connected and
    "boundary" otherwise; its float sides are asserted equal to those.
    """

    MODELS = ("z2er-eps0", "z2er", "sbm", "er")

    @staticmethod
    def z2er_instance(rng, eps, n_max):
        n = int(rng.uniform() * (n_max - 9)) + 10
        p = (0.5 + 2.0 * rng.uniform()) * math.log(n) / n / (1.0 - 2.0 * eps) ** 2
        inst = sample_z2sync_er(n, min(p, 1.0), eps, random_signs(rng, n), rng)
        return inst.y, inst.z

    @staticmethod
    def sbm_instance(rng, n_max):
        n = 2 * (int(rng.uniform() * (n_max // 2 - 4)) + 5)
        logn = math.log(n)
        g = sample_sbm(n, min(1.0, (1.0 + 9.0 * rng.uniform()) * logn / n), logn / n, rng)
        return signed_adjacency(g), g.labels

    @staticmethod
    def er_instance(rng, n_max):
        n = int(rng.uniform() * (n_max - 9)) + 10
        g = sample_er(n, min(1.0, (0.5 + rng.uniform()) * math.log(n) / n), rng)
        return sym(g.adjacency), np.ones(n)

    @classmethod
    def instance(cls, model, rng, n_max):
        """One seeded (y, x) of the model near its threshold, 10 <= n <= n_max."""
        if model == "sbm":
            return cls.sbm_instance(rng, n_max)
        if model == "er":
            return cls.er_instance(rng, n_max)
        return cls.z2er_instance(rng, 0.0 if model == "z2er-eps0" else 0.2, n_max)

    @classmethod
    @functools.cache
    def instances(cls, model):
        """150 seeded (y, x, exact side) of the model at n <= 30, computed once."""
        rng = derive_stream(81, cls.MODELS.index(model))
        cases = []
        for _ in range(150):
            y, x = cls.instance(model, rng, 30)
            cases.append((y, x, exact_side(y, x)))
        return tuple(cases)

    @pytest.mark.parametrize("model", MODELS)
    def test_default_tau_sides_are_sound(self, model):
        exact_sides, boundary_misses = set(), 0
        for y, x, exact in self.instances(model):
            exact_sides.add(exact)
            for side in (certificates.rank_one_side(y, x), certify_rank_one(y, x).side):
                _assert_sound(side, exact)
                assert side == exact or model != "er"
                boundary_misses += side == "boundary" != exact
        print(f"{model}: {boundary_misses} float 'boundary' sides not exactly boundary")
        assert {"above", "below" if model in ("z2er", "sbm") else "boundary"} <= exact_sides

    @pytest.mark.parametrize("model", MODELS)
    def test_tau_zero_accepts_are_exact(self, monkeypatch, model):
        # at tau = 0 the band is n eps (1 + max |lambda|): every side is
        # sound, and every accept the kernel proves is exactly "above"
        verdicts = []
        proves = certificates.proves_max_below

        def spy(*args, **kwargs):
            verdicts.append(proves(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(certificates, "proves_max_below", spy)
        accepted = 0
        for y, x, exact in self.instances(model):
            verdicts.clear()
            side = certificates.rank_one_side(y, x, 0.0)
            for s in (side, certify_rank_one(y, x, 0.0).side):
                _assert_sound(s, exact)
                assert s == exact or model != "er"
            if any(verdicts):
                assert side == "above" and exact == "above"
                accepted += 1
        assert accepted

    @pytest.mark.slow
    @pytest.mark.parametrize("model", MODELS)
    def test_sides_are_sound_on_a_thousand_instances(self, model):
        # the full referee slice: 1,000 other seeded instances at n <= 40,
        # every side of both float paths at the default tau and at tau = 0
        rng = derive_stream(82, self.MODELS.index(model))
        exact_sides, boundary_misses = set(), {TAU_POS: 0, 0.0: 0}
        for _ in range(1000):
            y, x = self.instance(model, rng, 40)
            exact = exact_side(y, x)
            exact_sides.add(exact)
            for tau in boundary_misses:
                for side in (certificates.rank_one_side(y, x, tau),
                             certify_rank_one(y, x, tau).side):
                    _assert_sound(side, exact)
                    assert side == exact or model != "er"
                    boundary_misses[tau] += side == "boundary" != exact
        print(f"{model}: float 'boundary' sides not exactly boundary, "
              f"{boundary_misses[TAU_POS]} at the default tau, {boundary_misses[0.0]} at tau = 0")
        assert {"above", "below" if model in ("z2er", "sbm") else "boundary"} <= exact_sides

    @pytest.mark.parametrize("tau", [TAU_POS, 0.0], ids=["default-tau", "tau-zero"])
    @pytest.mark.parametrize("y, x, exact", [
        # two triangles: the Laplacian of a disconnected graph
        (np.kron(np.eye(2), np.ones((3, 3)) - np.eye(3)), np.ones(6), "boundary"),
        # K4 whose edges at node 0 all disagree with x: C_00 = -3 alone < 0
        (np.array([[0, -1, -1, -1], [-1, 0, 1, 1], [-1, 1, 0, 1], [-1, 1, 1, 0]]),
         np.ones(4), "below"),
        (np.array([[0, 1], [1, 0]]), np.ones(2), "above"),
        (np.zeros((2, 2)), np.ones(2), "boundary"),
        (np.array([[0, 1], [1, 0]]), np.array([1, -1]), "below"),
    ], ids=["disconnected", "one-blocked-node", "two-nodes-agree", "two-nodes-apart",
            "two-nodes-disagree"])
    def test_hand_built_sides(self, y, x, exact, tau):
        y = sym(y)
        assert exact_side(y, x) == exact
        for side in (certificates.rank_one_side(y, x, tau), certify_rank_one(y, x, tau).side):
            _assert_sound(side, exact)
            # a failed certificate's one negative eigenvalue leaves lambda_2
            # at the null eigenvalue 0 on x (ROADMAP item 4)
            assert side == (exact if exact != "below" else "boundary")


class TestCertifySbm:
    def test_two_cliques_tight(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        rep = certify_sbm(g)
        assert rep.tight
        assert rep.lambda2 == pytest.approx(4.0, abs=1e-9)

    def test_empty_graph_boundary(self):
        g = GraphSample(
            np.zeros((4, 4), dtype=np.uint8),
            labels=np.array([1, 1, -1, -1], dtype=np.int8),
        )
        rep = certify_sbm(g)
        assert not rep.tight
        assert abs(rep.lambda2) <= rep.band

    def test_matches_rank_one_on_signed_adjacency(self):
        rng = derive_stream(57, 0)
        for trial in range(500):
            n = 2 * (int(rng.uniform() * 12) + 2)
            p = rng.uniform()
            q = rng.uniform() * p
            g = sample_sbm(n, p, q, rng)
            a = certify_sbm(g)
            b = certify_rank_one(signed_adjacency(g), g.labels.astype(float))
            assert a.tight == b.tight
            assert a.lambda2 == pytest.approx(b.lambda2, abs=1e-8 * (1 + n))

    def test_missing_labels(self):
        g = GraphSample(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(MissingLabels):
            certify_sbm(g)


class TestSufficientCondition:
    def test_deterministic_instance(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        lhs = eigenvalues_selected(SymmetricMatrix(centered_partition_gap(g, 1.0, 0.0)), (4,))
        assert lhs[0] == pytest.approx(0.0, abs=1e-9)
        assert sbm_sufficient_condition(g, 1.0, 0.0) is True

    def test_equal_probabilities_never_hold(self):
        g = sample_sbm(10, 0.3, 0.3, derive_stream(1, 0))
        assert sbm_sufficient_condition(g, 0.3, 0.3) is False

    def test_implies_tightness(self):
        rng = derive_stream(58, 0)
        for trial in range(300):
            n = 2 * (int(rng.uniform() * 10) + 2)
            p = 0.05 + 0.4 * rng.uniform()
            q = rng.uniform() * p
            g = sample_sbm(n, p, q, rng)
            if sbm_sufficient_condition(g, p, q):
                assert certify_sbm(g).tight

    @staticmethod
    def eigenvalue_rule(g, p, q):
        """The verdict from the spectrum: lhs < rhs - tau (1 + |lhs| + |rhs|)."""
        n = g.n
        dev = SymmetricMatrix(centered_partition_gap(g, p, q))
        lhs = float(eigenvalues_selected(dev, (n,))[0])
        rhs = (n / 2) * (p - q)
        return lhs < rhs - TAU_POS * (1.0 + abs(lhs) + abs(rhs))

    def test_matches_eigenvalue_rule(self):
        rng = derive_stream(61, 0)
        samples = []
        for _ in range(300):
            n = 2 * (int(rng.uniform() * 40) + 2)
            p = 0.05 + 0.9 * rng.uniform()
            q = rng.uniform() * p
            samples.append((sample_sbm(n, p, q, rng), p, q))
        # n=300 near sqrt(alpha) - sqrt(beta) = sqrt(2), where lhs - rhs is a
        # few units either side of zero
        logn = math.log(300)
        for i, alpha in enumerate(np.linspace(5.0, 7.0, 12)):
            p, q = alpha * logn / 300, logn / 300
            samples.append((sample_sbm(300, p, q, derive_stream(62, i)), p, q))
        verdicts = [sbm_sufficient_condition(*s) for s in samples]
        assert verdicts == [self.eigenvalue_rule(*s) for s in samples]
        assert len(set(verdicts[:300])) == len(set(verdicts[300:])) == 2

    def test_non_positive_diagonal_builds_no_matrix(self, monkeypatch):
        # below threshold some deg_in - deg_out is low enough that
        # s I - (E[Gamma] - Gamma) has a diagonal entry <= 0
        def no_build(*args):
            raise AssertionError("E[Gamma] - Gamma built")

        n = 200
        logn = math.log(n)
        p, q = 2.0 * logn / n, logn / n
        g = sample_sbm(n, p, q, derive_stream(64, 0))
        assert not self.eigenvalue_rule(g, p, q)
        monkeypatch.setattr(certificates, "centered_partition_gap", no_build)
        assert sbm_sufficient_condition(g, p, q) is False


def _two_cliques():
    a = np.zeros((10, 10), dtype=np.uint8)
    a[:4, :4] = a[4:, 4:] = 1
    np.fill_diagonal(a, 0)
    return a


def _path(n):
    a = np.zeros((n, n), dtype=np.uint8)
    a[np.arange(n - 1), np.arange(1, n)] = a[np.arange(1, n), np.arange(n - 1)] = 1
    return a


class TestConnectivity:
    def test_path_connected(self):
        a = np.zeros((3, 3), dtype=np.uint8)
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1
        g = GraphSample(a)
        assert connectivity_spectral(g)
        assert connectivity_unionfind(g)

    def test_two_disjoint_edges(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1
        g = GraphSample(a)
        assert not connectivity_spectral(g)
        assert not connectivity_unionfind(g)

    def test_exhaustive_four_nodes(self):
        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(64):
            a = np.zeros((4, 4), dtype=np.uint8)
            for b, (i, j) in enumerate(pairs):
                if bits >> b & 1:
                    a[i, j] = a[j, i] = 1
            g = GraphSample(a)
            assert connectivity_spectral(g) == connectivity_unionfind(g)


    @pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float64])
    def test_unionfind_accepts_any_numeric_adjacency(self, dtype):
        a = np.zeros((5, 5), dtype=dtype)
        for i, j in [(0, 1), (1, 2), (3, 4)]:
            a[i, j] = a[j, i] = 1
        assert not connectivity_unionfind(GraphSample(a))
        a[2, 3] = a[3, 2] = 1
        assert connectivity_unionfind(GraphSample(a))

    @pytest.mark.parametrize("adjacency, connected", [
        (_two_cliques(), False),  # no isolated node, two components
        (_path(2000), True),  # the search from node 0 is n levels deep
        (np.zeros((1, 1), dtype=np.uint8), True),
    ], ids=["two-cliques", "path-2000", "one-node"])
    def test_search_agrees_with_spectral(self, adjacency, connected):
        g = GraphSample(adjacency)
        assert connectivity_unionfind(g) == connectivity_spectral(g) == connected

    def test_unionfind_agrees_with_spectral_near_threshold(self):
        n = 120
        outcomes = set()
        for seed in range(40):
            rho = (0.8, 1.0, 1.2, 1.5)[seed % 4]
            g = sample_er(n, rho * math.log(n) / n, derive_stream(seed, 3))
            exact = connectivity_unionfind(g)
            assert connectivity_spectral(g) == exact
            outcomes.add(exact)
        assert outcomes == {False, True}


class TestFlipOracles:
    def test_noiseless_no_block(self):
        inst = sample_z2sync_er(10, 0.8, 0.0, np.ones(10), derive_stream(3, 0))
        assert flip_oracle_z2(inst) >= 0

    def test_single_corrupted_edge(self):
        # G = H = {(0, 1)}: the one measurement contradicts z
        y = sym(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        inst = SyncInstance(y, np.ones(2))
        assert flip_oracle_z2(inst) == -1

    def test_sbm_extremes(self):
        assert flip_oracle_sbm(sample_sbm(8, 1.0, 0.0, derive_stream(0, 0))) == 3
        assert flip_oracle_sbm(sample_sbm(8, 0.0, 1.0, derive_stream(0, 0))) == -4

    def test_z2_statistic_is_degree_gap_of_g_and_h(self):
        # min_i deg_G(i) - 2 deg_H(i), with G and H replayed from the stream
        rng = derive_stream(71, 0)
        for trial in range(120):
            n = int(rng.uniform() * 150) + 1
            p, eps = rng.uniform(), 0.499 * rng.uniform()
            z = np.where(rng.uniform(n) < 0.5, 1.0, -1.0)
            stream = derive_stream(71, trial + 1)
            a_g, a_h = z2sync_er_graphs(n, p, eps, stream.clone())
            inst = sample_z2sync_er(n, p, eps, z, stream)
            stat = a_g.sum(axis=1) - 2.0 * a_h.sum(axis=1)
            assert flip_oracle_z2(inst) == stat.min()

    @pytest.mark.slow
    def test_z2_near_threshold_block_frequency(self):
        # at eps = 0.45 some node sees a majority of corrupted measurements
        # in at least half the samples
        n, p, eps = 300, 0.1, 0.45
        blocked = 0
        for seed in range(100):
            inst = sample_z2sync_er(n, p, eps, np.ones(n), derive_stream(seed, 41))
            blocked += flip_oracle_z2(inst) < 0
        assert blocked >= 50


class TestSpectralDiagRatio:
    def test_hand_example(self):
        l = laplacian_of(sym(np.ones((3, 3))))
        rep = spectral_diag_ratio(l)
        assert rep.lam_max == pytest.approx(3.0, abs=1e-9)
        assert rep.max_diag == 2.0
        assert rep.ratio == pytest.approx(1.5, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(NonPositiveDiagonalMax):
            spectral_diag_ratio(sym(np.zeros((3, 3))))

    def test_non_laplacian_rejected(self):
        with pytest.raises(NonLaplacian):
            spectral_diag_ratio(sym(np.eye(3)))

    def test_ratio_at_least_one(self):
        # largest eigenvalue always dominates the largest diagonal entry
        rng = derive_stream(70, 0)
        for _ in range(50):
            n = int(rng.uniform() * 30) + 2
            b = rng.normal((n, n))
            l = laplacian_of(sym(b + b.T))
            try:
                rep = spectral_diag_ratio(l)
            except NonPositiveDiagonalMax:
                continue
            assert rep.ratio >= 1.0 - 1e-9


class TestNormBoundCheck:
    @pytest.mark.parametrize("t", [-1.0, float("nan")])
    def test_negative_or_nan_t_raises_domain_error(self, t):
        with pytest.raises(DomainError, match="t must be >= 0"):
            norm_bound_check(sym(np.zeros((4, 4))), 1.0, t)

    def test_zero_matrix(self):
        prof = centered_er_profile(10, 0.3)
        assert norm_bound_check(sym(np.zeros((10, 10))), prof.sigma, 0.0)
        assert norm_bound_check(sym(np.zeros((10, 10))), prof.sigma, 5.0)

    def test_adversarial_matrix_fails(self):
        n = 12
        x = np.zeros((n, n))
        x[0, 1] = x[1, 0] = float(n) * 10
        prof = centered_er_profile(n, 0.1)
        t = 3 * prof.sigma_inf * math.sqrt(math.log(n))
        assert not norm_bound_check(sym(x), prof.sigma, t)

    def test_centered_er_holds(self):
        n, p = 150, 0.2
        prof = centered_er_profile(n, p)
        t = 3 * prof.sigma_inf * math.sqrt(math.log(n))
        for seed in range(10):
            g = sample_er(n, p, derive_stream(seed, 0))
            x = g.adjacency - p * (np.ones((n, n)) - np.eye(n))
            assert norm_bound_check(sym(x), prof.sigma, t)
