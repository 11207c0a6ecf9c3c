import itertools
import math

import numpy as np
import pytest

from lapcert import (
    SymmetricMatrix,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    connectivity_spectral,
    connectivity_unionfind,
    derive_stream,
    dual_diagonal,
    ensemble_profile,
    flip_oracle_sbm,
    flip_oracle_z2,
    laplacian_of,
    norm_bound_check,
    sample_er,
    sample_sbm,
    sample_z2sync_er,
    sample_z2sync_gaussian,
    sbm_sufficient_condition,
    signed_adjacency,
    spectral_diag_ratio,
)
from lapcert.ensembles import GraphSample
from lapcert.errors import (
    MissingLabels,
    NonLaplacian,
    NonPositiveDiagonalMax,
    NonSignVector,
)


def sym(a):
    return SymmetricMatrix(np.asarray(a, dtype=np.float64))


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
        assert rep.margin == rep.lambda2

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


class TestCertifySbm:
    def test_two_cliques_tight(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        rep = certify_sbm(g)
        assert rep.tight
        assert rep.lambda2 == pytest.approx(4.0, abs=1e-9)

    def test_empty_graph_boundary(self):
        g = GraphSample(
            4,
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
        g = GraphSample(4, np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(MissingLabels):
            certify_sbm(g)


class TestSufficientCondition:
    def test_deterministic_instance(self):
        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        rep = sbm_sufficient_condition(g)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.holds

    def test_equal_probabilities_never_hold(self):
        g = sample_sbm(10, 0.3, 0.3, derive_stream(1, 0))
        rep = sbm_sufficient_condition(g)
        assert rep.rhs == 0.0
        assert not rep.holds

    def test_implies_tightness(self):
        rng = derive_stream(58, 0)
        for trial in range(300):
            n = 2 * (int(rng.uniform() * 10) + 2)
            p = 0.05 + 0.4 * rng.uniform()
            q = rng.uniform() * p
            g = sample_sbm(n, p, q, rng)
            rep = sbm_sufficient_condition(g)
            if rep.holds:
                assert certify_sbm(g).tight


class TestConnectivity:
    def test_path_connected(self):
        a = np.zeros((3, 3), dtype=np.uint8)
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1
        g = GraphSample(3, a)
        assert connectivity_spectral(g)
        assert connectivity_unionfind(g)

    def test_two_disjoint_edges(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1
        g = GraphSample(4, a)
        assert not connectivity_spectral(g)
        assert not connectivity_unionfind(g)

    def test_exhaustive_four_nodes(self):
        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(64):
            a = np.zeros((4, 4), dtype=np.uint8)
            for b, (i, j) in enumerate(pairs):
                if bits >> b & 1:
                    a[i, j] = a[j, i] = 1
            g = GraphSample(4, a)
            assert connectivity_spectral(g) == connectivity_unionfind(g)


    @pytest.mark.parametrize("dtype", [np.bool_, np.int64, np.float64])
    def test_unionfind_accepts_any_numeric_adjacency(self, dtype):
        a = np.zeros((5, 5), dtype=dtype)
        for i, j in [(0, 1), (1, 2), (3, 4)]:
            a[i, j] = a[j, i] = 1
        assert not connectivity_unionfind(GraphSample(5, a))
        a[2, 3] = a[3, 2] = 1
        assert connectivity_unionfind(GraphSample(5, a))

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
        verdict = flip_oracle_z2(inst)
        assert not verdict.oracle_block
        assert verdict.min_stat >= 0

    def test_single_corrupted_edge(self):
        base = sample_z2sync_er(2, 0.0, 0.0, np.ones(2), derive_stream(0, 0))
        edge = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        inst = type(base)(
            n=2, y=base.y, z=base.z, g_edges=edge, h_edges=edge, params=base.params
        )
        verdict = flip_oracle_z2(inst)
        assert verdict.min_stat == -1.0
        assert verdict.oracle_block
        assert verdict.threshold_side == "below"

    def test_sbm_extremes(self):
        g = sample_sbm(8, 1.0, 0.0, derive_stream(0, 0))
        v = flip_oracle_sbm(g)
        assert v.min_stat == 3.0 and not v.oracle_block
        g = sample_sbm(8, 0.0, 1.0, derive_stream(0, 0))
        v = flip_oracle_sbm(g)
        assert v.min_stat == -4.0 and v.oracle_block

    @pytest.mark.slow
    def test_z2_near_threshold_block_frequency(self):
        # at eps = 0.45 some node sees a majority of corrupted measurements
        # in at least half the samples
        n, p, eps = 300, 0.1, 0.45
        blocked = 0
        for seed in range(100):
            inst = sample_z2sync_er(n, p, eps, np.ones(n), derive_stream(seed, 41))
            blocked += flip_oracle_z2(inst).oracle_block
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
    def test_zero_matrix(self):
        prof = ensemble_profile("centered-er", 10, p=0.3)
        assert norm_bound_check(sym(np.zeros((10, 10))), prof, 0.0)
        assert norm_bound_check(sym(np.zeros((10, 10))), prof, 5.0)

    def test_adversarial_matrix_fails(self):
        n = 12
        x = np.zeros((n, n))
        x[0, 1] = x[1, 0] = float(n) * 10
        prof = ensemble_profile("centered-er", n, p=0.1)
        t = 3 * prof.sigma_inf * math.sqrt(math.log(n))
        assert not norm_bound_check(sym(x), prof, t)

    def test_centered_er_holds(self):
        n, p = 150, 0.2
        prof = ensemble_profile("centered-er", n, p=p)
        t = 3 * prof.sigma_inf * math.sqrt(math.log(n))
        for seed in range(10):
            g = sample_er(n, p, derive_stream(seed, 0))
            x = g.adjacency - p * (np.ones((n, n)) - np.eye(n))
            assert norm_bound_check(sym(x), prof, t)
