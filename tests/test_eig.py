from multiprocessing import get_context

import numpy as np
import pytest

from lapcert import (
    SymmetricMatrix,
    eig,
    eigendecompose,
    eigenvalue_k,
    eigenvalues_selected,
    lanczos,
    largest_eigenvalue,
    proves_max_below,
    spectral_norm,
)
from lapcert.errors import DomainError, IndexOutOfRange, NonConvergence

from _oracles import (
    charpoly_bisect_eigs,
    partition_gap_certificate,
    power_iteration_norm,
)

PATH3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def sym(a):
    return SymmetricMatrix(np.asarray(a, dtype=np.float64))


def random_sym(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) * scale
    return SymmetricMatrix(b + b.T)


def without_openblas(monkeypatch, name):
    """Make the entry point ``name`` resolve to no OpenBLAS function; the
    resolver's cache is left as it was."""
    resolve = eig._openblas
    monkeypatch.setattr(eig, "_openblas", lambda entry: () if entry == name else resolve(entry))


class TestSymmetricMatrix:
    def test_mirror_reads_bit_identical(self):
        rng = np.random.default_rng(0)
        m = random_sym(rng, 12)
        a = m.array
        for i in range(12):
            for j in range(12):
                assert a[i, j] == a[j, i]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            SymmetricMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    def test_backing_array_readonly(self):
        m = sym([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_constructor_copies_what_it_checks(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        m = SymmetricMatrix(a)
        a[0, 1] = 5.0  # the caller's array stays theirs
        assert m.array[0, 1] == 2.0 and a.flags.writeable

    def test_owning_wraps_without_a_copy(self):
        # the package's builders hand over the buffer they filled
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        m = SymmetricMatrix._owning(a)
        assert m.array is a and not a.flags.writeable


class TestMaxAbs:
    @pytest.mark.parametrize("a", [[[0.0]], [[-3.0, 1.0], [1.0, 2.0]], [[1.0, -0.5], [-0.5, 0.0]]])
    def test_is_the_largest_magnitude(self, a):
        assert sym(a).max_abs() == float(np.max(np.abs(a)))


class TestLanczos:
    def test_invariant_space_gives_exact_ritz_values(self):
        # e_0 of a block-diagonal matrix spans a 3-dimensional invariant space
        a = np.zeros((5, 5))
        a[:3, :3] = PATH3
        a[3:, 3:] = [[7.0, 1.0], [1.0, 7.0]]
        theta, res = lanczos(sym(a), np.eye(5)[0], 5)
        assert len(theta) == 3 and not res.any()
        assert np.allclose(theta, [0.0, 1.0, 3.0], atol=1e-14)

    def test_residuals_bound_the_distance_to_an_eigenvalue(self):
        rng = np.random.default_rng(4)
        m = random_sym(rng, 60)
        lam = np.linalg.eigvalsh(m.array)
        theta, res = lanczos(m, rng.standard_normal(60), 12)
        assert len(theta) == 12
        for t, r in zip(theta, res):
            assert np.min(np.abs(lam - t)) <= r + 1e-12

    def test_stops_once_the_top_value_converges(self):
        rng = np.random.default_rng(5)
        m = random_sym(rng, 200)
        theta, res = lanczos(m, rng.standard_normal(200), 200, rtol=1e-13)
        assert len(theta) < 200 and res[-1] <= 1e-13 * abs(theta[-1])
        assert theta[-1] == pytest.approx(np.linalg.eigvalsh(m.array)[-1], rel=1e-13)

    def test_rejects_steps_below_one(self):
        with pytest.raises(DomainError):
            lanczos(sym(PATH3), np.ones(3), 0)

    @pytest.mark.parametrize("start", [np.zeros(3), np.ones(4), np.array([1.0, np.nan, 0.0])],
                             ids=["zero", "wrong-length", "nan"])
    def test_rejects_a_start_it_cannot_normalize(self, start):
        with pytest.raises(DomainError):
            lanczos(sym(PATH3), start, 3)

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("rtol", [1e-13, 1e-8])
    def test_stops_at_the_first_check_step_that_passes(self, n, rtol):
        rng = np.random.default_rng(n)
        m = random_sym(rng, n)
        start = rng.standard_normal(n)
        theta, res = lanczos(m, start, 300, rtol)
        k = len(theta)
        assert k < 300 and k % eig._CHECK_EVERY == 0
        assert res[-1] <= rtol * abs(theta[-1])
        # the values are those of step k, and the check step before it fails
        at_k, res_at_k = lanczos(m, start, k)
        assert theta.tobytes() == at_k.tobytes() and res.tobytes() == res_at_k.tobytes()
        before, res_before = lanczos(m, start, k - eig._CHECK_EVERY)
        assert res_before[-1] > rtol * abs(before[-1])

    def test_dsymv_products_agree_with_matmul(self, monkeypatch):
        if not eig._openblas("dsymv"):
            pytest.skip("this numpy's OpenBLAS does not export cblas_dsymv64_")
        rng = np.random.default_rng(6)
        m = random_sym(rng, 1000)
        start = rng.standard_normal(1000)
        theta, _ = lanczos(m, start, 300, rtol=1e-13)
        without_openblas(monkeypatch, "dsymv")
        plain, _ = lanczos(m, start, 300, rtol=1e-13)
        assert theta[-1] == pytest.approx(plain[-1], rel=1e-13)

    def test_fortran_ordered_matrix_multiplies_with_matmul(self, monkeypatch):
        rng = np.random.default_rng(7)
        m = random_sym(rng, 600)
        f = SymmetricMatrix(np.asfortranarray(m.array))
        assert not f.array.flags.c_contiguous
        start = rng.standard_normal(600)
        theta, _ = lanczos(m, start, 300, rtol=1e-13)

        resolve = eig._openblas

        def no_dsymv(name):
            assert name != "dsymv", "dsymv bound for an F-ordered matrix"
            return resolve(name)

        monkeypatch.setattr(eig, "_openblas", no_dsymv)
        f_theta, _ = lanczos(f, start, 300, rtol=1e-13)
        assert f_theta[-1] == pytest.approx(theta[-1], rel=1e-13)


class TestLargestEigenvalue:
    @pytest.mark.parametrize("n, seed", [(30, 0), (200, 1), (500, 2), (1000, 3)])
    def test_bracket_holds_eigvalsh(self, n, seed):
        from lapcert import derive_stream, laplacian_of, sample_wigner

        m = laplacian_of(sample_wigner(n, derive_stream(seed, 4)))
        before = m.array.copy()
        theta, upper = largest_eigenvalue(m)
        lam = np.linalg.eigvalsh(before)[-1]
        # the upper end is proved; theta is a Rayleigh quotient, below
        # lambda_max up to the rounding of the products
        assert theta < upper  # proved, not the fallback
        assert theta * (1.0 - 1e-13) <= lam <= upper
        assert (upper - theta) / theta < 1e-8
        # without overwrite the matrix stays the caller's, bit for bit
        assert m.array.tobytes() == before.tobytes() and not m.array.flags.writeable

    def test_constant_diagonal_falls_back_to_eigvalsh(self):
        # the centered diagonal is zero, so Lanczos has no start
        m = sym([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        lam = np.linalg.eigvalsh(m.array)[-1]
        assert largest_eigenvalue(m) == (lam, lam)


class TestEigendecompose:
    def test_identity(self):
        spec = eigendecompose(sym(np.eye(4)))
        assert np.allclose(spec.eigenvalues, np.ones(4), atol=0)

    def test_path_laplacian_exact(self):
        # characteristic polynomial x(x-1)(x-3)
        spec = eigendecompose(sym(PATH3))
        assert np.max(np.abs(spec.eigenvalues - [0.0, 1.0, 3.0])) < 1e-12

    def test_complete_graph_laplacian(self):
        n = 4
        m = sym(n * np.eye(n) - np.ones((n, n)))
        spec = eigendecompose(m)
        assert np.max(np.abs(spec.eigenvalues - [0.0, 4.0, 4.0, 4.0])) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        m = random_sym(rng, 20)
        a = eigendecompose(m, want_vectors=True)
        b = eigendecompose(m, want_vectors=True)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_random_6x6_matches_charpoly_oracle(self):
        rng = np.random.default_rng(7)
        m = random_sym(rng, 6)
        got = eigendecompose(m).eigenvalues
        want = charpoly_bisect_eigs(m.array)
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_nonconvergence_raises(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        m = sym(PATH3)
        with pytest.raises(NonConvergence):
            eigenvalues_selected(m, (2,))
        with pytest.raises(NonConvergence):
            eigendecompose(m, want_vectors=True)

    def test_spectrum_invariants_random(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            n = int(rng.integers(1, 51))
            m = random_sym(rng, n)
            spec = eigendecompose(m, want_vectors=True)
            vals, vecs = spec.eigenvalues, spec.eigenvectors
            norm = 1.0 + np.max(np.abs(vals))
            assert np.all(np.diff(vals) >= 0)
            # trace preservation
            assert abs(vals.sum() - np.trace(m.array)) <= 1e-10 * n * norm
            # residual and orthogonality
            res = m.array @ vecs - vecs * vals[np.newaxis, :]
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-10 * norm
            gram = vecs.T @ vecs - np.eye(n)
            assert np.max(np.abs(gram)) <= 1e-10

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            m = random_sym(rng, n)
            s = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            conj = SymmetricMatrix(s[:, None] * m.array * s[None, :])
            a = eigendecompose(m).eigenvalues
            b = eigendecompose(conj).eigenvalues
            assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + spectral_norm(m))


class TestEigenvalueK:
    def test_path_laplacian_second(self):
        assert abs(eigenvalue_k(sym(PATH3), 2) - 1.0) < 1e-10

    def test_graph_laplacian_first_is_zero(self):
        rng = np.random.default_rng(1)
        a = (rng.random((12, 12)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        l = np.diag(a.sum(axis=1)) - a
        assert abs(eigenvalue_k(sym(l), 1)) <= 1e-10 * (1 + 12 * np.max(np.abs(l)))

    def test_two_community_certificate_matrix(self):
        # two disjoint edges, labels split: lambda_2 of 2(D+ - D- - A) + J
        from lapcert import certify_sbm, derive_stream, dual_diagonal, sample_sbm, signed_adjacency

        g = sample_sbm(4, 1.0, 0.0, derive_stream(0, 0))
        cert = sym(partition_gap_certificate(g.adjacency, g.labels))
        assert eigenvalue_k(cert, 2) == pytest.approx(4.0, abs=1e-10)
        rep = certify_sbm(g)
        assert rep.lambda1 == eigenvalue_k(cert, 1)
        assert rep.lambda2 == eigenvalue_k(cert, 2)
        assert np.array_equal(dual_diagonal(signed_adjacency(g), g.labels), np.diag(cert.array))

    def test_index_out_of_range(self):
        m = sym(np.eye(3))
        with pytest.raises(IndexOutOfRange):
            eigenvalue_k(m, 0)
        with pytest.raises(IndexOutOfRange):
            eigenvalue_k(m, 4)

    def test_agrees_with_full_decomposition(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(1, 31))
            m = random_sym(rng, n)
            full = eigendecompose(m).eigenvalues
            ks = list(range(1, n + 1))
            picked = eigenvalues_selected(m, ks)
            tol = 1e-10 * (1.0 + spectral_norm(m))
            assert np.max(np.abs(full - picked)) <= tol

    def test_multiplicity_handling(self):
        m = sym(np.diag([2.0, 2.0, 2.0, 7.0]))
        for k in (1, 2, 3):
            assert abs(eigenvalue_k(m, k) - 2.0) < 1e-10
        assert abs(eigenvalue_k(m, 4) - 7.0) < 1e-10


class TestSpectralNorm:
    def test_swap_matrix(self):
        assert abs(spectral_norm(sym([[0.0, 1.0], [1.0, 0.0]])) - 1.0) < 1e-12

    def test_zero_matrix(self):
        assert spectral_norm(sym(np.zeros((3, 3)))) == pytest.approx(0.0, abs=1e-12)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = random_sym(rng, n)
            ref = power_iteration_norm(m.array)
            assert spectral_norm(m) == pytest.approx(ref, rel=1e-6, abs=1e-9)


def is_positive_definite(m):
    """A is positive definite exactly when lambda_max(-A) < 0."""
    return proves_max_below(sym(-m.array), 0.0)


def dense_graph_laplacian(n, rng):
    """L = D - A of a G(n, 1/2) sample: integer, with lambda_min = 0 exactly."""
    a = np.triu(rng.random((n, n)) < 0.5, 1).astype(np.float64)
    a += a.T
    return np.diag(a.sum(axis=1)) - a


class TestIsPositiveDefinite:
    """Positive definiteness of A through ``proves_max_below(-A, 0)``."""

    def test_positive_definite(self):
        assert is_positive_definite(sym([[2.0, -1.0], [-1.0, 2.0]]))
        assert is_positive_definite(sym([[2.0]]))

    def test_singular_psd_is_not(self):
        assert not is_positive_definite(sym(PATH3))

    def test_indefinite_is_not(self):
        assert not is_positive_definite(sym([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_is_not(self):
        assert not is_positive_definite(sym([[0.0]]))

    @pytest.mark.parametrize("a", [
        [[0.0]], [[-1.0, 0.0], [0.0, 5.0]], [[4.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 4.0]],
    ])
    def test_non_positive_diagonal_is_not_without_factorizing(self, monkeypatch, a):
        def no_factorization(a):
            raise AssertionError("factorized")

        monkeypatch.setattr(eig, "_factorizes", no_factorization)
        assert not is_positive_definite(sym(a))

    def test_factorizes_a_copy_with_dpotrf(self, monkeypatch):
        if not eig._openblas("dpotrf"):
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dpotrf here")

        def no_cholesky(a):
            raise AssertionError("numpy.linalg.cholesky ran")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        a = random_sym(np.random.default_rng(5), 30).array
        low = np.linalg.eigvalsh(a)[0]
        definite, indefinite = (sym(a + (target - low) * np.eye(30)) for target in (1.0, -1.0))
        before = indefinite.array.copy()
        assert np.diagonal(before).min() > 0.0  # so it is factorized
        assert is_positive_definite(definite)
        assert not is_positive_definite(indefinite)
        assert np.array_equal(indefinite.array, before)

    def test_agrees_with_smallest_eigenvalue_sign(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a = random_sym(rng, n).array
            # shift so the smallest eigenvalue is +-(0.1..1), far from 0
            target = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
            m = sym(a + (target - np.linalg.eigvalsh(a)[0]) * np.eye(n))
            expected = bool(np.linalg.eigvalsh(m.array)[0] > 0.0)
            assert is_positive_definite(m) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_agrees_with_smallest_eigenvalue_sign_without_dpotrf(self, monkeypatch):
        # numpy.linalg.cholesky answers where the LAPACKE symbol is absent
        without_openblas(monkeypatch, "dpotrf")
        self.test_agrees_with_smallest_eigenvalue_sign()


class TestProvesMaxBelow:
    @pytest.mark.parametrize("potrf", ["bound", "absent"])
    @pytest.mark.parametrize("n", [10, 30, 100, 300])
    def test_singular_laplacian_is_never_proved_definite(self, monkeypatch, n, potrf):
        # a factorization without the backward-error slack runs through about
        # half of these, whose lambda_min is 0 exactly
        if potrf == "absent":
            without_openblas(monkeypatch, "dpotrf")
        rng = np.random.default_rng(n)
        for _ in range(40):
            minus_l = sym(-dense_graph_laplacian(n, rng))
            assert not proves_max_below(minus_l, 0.0)
            assert not proves_max_below(minus_l, 0.0, overwrite=True)

    def test_proves_just_above_the_largest_eigenvalue(self):
        m = sym(np.diag([1.0, 2.0, 3.0]))
        assert not proves_max_below(m, 3.0)
        assert proves_max_below(m, 3.0 + 1e-12)
        assert not proves_max_below(m, 2.5)

    def test_slack_is_taken_off_the_target(self, monkeypatch):
        seen = []
        monkeypatch.setattr(eig, "_factorizes", lambda a: seen.append(a.copy()) or True)
        m = random_sym(np.random.default_rng(29), 50)
        s = float(np.linalg.eigvalsh(m.array)[-1]) + 1.0
        assert proves_max_below(m, s)
        gap = s - np.diagonal(m.array)
        delta = eig._cholesky_slack(50, float(gap.sum()))
        assert delta > 0.0
        assert np.array_equal(np.diagonal(seen[0]),
                              np.nextafter(s - delta, -np.inf) - np.diagonal(m.array))
        off = ~np.eye(50, dtype=bool)
        assert np.array_equal(seen[0][off], -m.array[off])

    def test_overwrite_factorizes_the_callers_buffer(self, monkeypatch):
        buffers = []
        factorizes = eig._factorizes
        monkeypatch.setattr(eig, "_factorizes", lambda a: buffers.append(a) or factorizes(a))
        a = random_sym(np.random.default_rng(31), 40).array
        copy, handed = sym(a), sym(a)
        s = float(np.linalg.eigvalsh(a)[-1]) + 1.0
        assert proves_max_below(copy, s)
        assert not np.shares_memory(buffers[0], copy.array)
        assert np.array_equal(copy.array, a) and not copy.array.flags.writeable
        assert proves_max_below(handed, s, overwrite=True)
        assert buffers[1] is handed.array

    def test_non_positive_diagonal_leaves_the_buffer_alone(self):
        m = sym([[4.0, 1.0], [1.0, 1.0]])
        assert not proves_max_below(m, 1.0, overwrite=True)
        assert np.array_equal(m.array, [[4.0, 1.0], [1.0, 1.0]])
        assert not m.array.flags.writeable


class TestBlasThreads:
    def test_pinned_pool_worker_reads_one(self):
        with get_context("fork").Pool(1, initializer=eig.pin_blas_threads) as pool:
            assert pool.apply(eig.blas_threads) == 1

    def test_one_where_no_openblas_is_found(self, monkeypatch):
        monkeypatch.setattr(eig, "_openblas", lambda name: ())
        assert eig.blas_threads() == 1
        eig.pin_blas_threads()  # finds nothing to pin

    def test_second_call_resolves_no_symbol(self, monkeypatch):
        threads = eig.blas_threads()
        for name in eig._ENTRY_POINTS:
            eig._openblas(name)
        getters, setters = eig._openblas("get_num_threads"), eig._openblas("set_num_threads")
        if not getters or len(getters) != len(setters):
            pytest.skip("no matching OpenBLAS get/set_num_threads symbols in this process")

        def load():
            raise AssertionError("OpenBLAS symbols resolved again")

        monkeypatch.setattr(eig, "_openblas_libraries", load)
        assert eig.blas_threads() == threads
        # the entry points are cached, the count they return is not
        before = [get() for get in getters]
        try:
            eig.pin_blas_threads()
            assert eig.blas_threads() == 1
        finally:
            for set_threads, count in zip(setters, before):
                set_threads(count)
        assert eig.blas_threads() == threads

    def test_pinning_is_undone_by_restoring_the_count(self):
        # Pinning stops this process's OpenBLAS server threads; setting the
        # old count again starts them, and the threaded bits come back.
        getters, setters = eig._openblas("get_num_threads"), eig._openblas("set_num_threads")
        if not getters or len(getters) != len(setters):
            pytest.skip("no matching OpenBLAS get/set_num_threads symbols in this process")
        a = np.add.outer(np.arange(600.0), np.arange(600.0)) % 7.0
        threads, before = eig.blas_threads(), [get() for get in getters]
        expected = np.linalg.eigvalsh(a)
        try:
            eig.pin_blas_threads()
            assert eig.blas_threads() == 1
        finally:
            for set_threads, count in zip(setters, before):
                set_threads(count)
        assert eig.blas_threads() == threads
        assert np.linalg.eigvalsh(a).tobytes() == expected.tobytes()


@pytest.mark.slow
def test_wigner_norm_concentration():
    # ||W|| ~ 2 sqrt(n): inside [1.8, 2.2] sqrt(n) for 19 of 20 seeds
    from lapcert import derive_stream, sample_wigner

    n = 500
    hits = 0
    for seed in range(20):
        w = sample_wigner(n, derive_stream(1000 + seed, 0))
        norm = spectral_norm(w)
        if 1.8 * np.sqrt(n) <= norm <= 2.2 * np.sqrt(n):
            hits += 1
    assert hits >= 19
