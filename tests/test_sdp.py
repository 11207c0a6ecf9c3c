import dataclasses

import numpy as np
import pytest

from lapcert import (
    SymmetricMatrix,
    bm_solve,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    derive_stream,
    round_rank_one,
    sample_sbm,
    sample_z2sync_er,
    sample_z2sync_gaussian,
    signed_adjacency,
    spectral_norm,
)
from lapcert import eig, sdp, sweeps
from lapcert.errors import NonSignVector
from lapcert.sdp import default_rank
from lapcert.sweeps import SweepConfig, run_sweep


def sym(a):
    return SymmetricMatrix(np.asarray(a, dtype=np.float64))


def random_signs(rng, n):
    return np.where(rng.uniform(n) < 0.5, 1.0, -1.0)


class TestBmSolve:
    def test_noiseless_objective(self):
        n = 20
        z = random_signs(derive_stream(7, 9), n)
        y = sym(np.outer(z, z))
        _, rep = bm_solve(y, derive_stream(7, 0), k=2)
        assert rep.converged
        assert abs(rep.objective_trace[-1] - n * n) <= 1e-6 * n * n

    def test_zero_matrix(self):
        # the row-sum bound is 0 here: step0 = 0.5 / max(0, 1e-12), not 0.5 / 0
        y = sym(np.zeros((8, 8)))
        r, rep = bm_solve(y, derive_stream(0, 0), k=3)
        assert rep.objective_trace[-1] == 0.0
        assert rep.converged
        assert rep.iterations == 0

    def test_step_from_the_row_sum_bound(self, monkeypatch):
        # step0 = 0.5 / max_i sum_j |Y_ij|, and that bound is >= ||Y||, so
        # the step is never above the old 0.5 / ||Y||
        step0s = []
        bb = sdp._bb_step

        def bb_step(s, d, step0):
            step0s.append(step0)
            return bb(s, d, step0)

        monkeypatch.setattr(sdp, "_bb_step", bb_step)
        for seed in range(4):
            rng = derive_stream(40 + seed, 0)
            n = 30 + 10 * seed
            b = rng.normal((n, n))
            z = random_signs(rng, n)
            for y in (sym(b + b.T),
                      sample_z2sync_er(n, 0.5, 0.2, z, rng).y,
                      signed_adjacency(sample_sbm(n, 0.5, 0.1, rng))):
                bound = float(np.max(np.sum(np.abs(y.array), axis=1)))
                assert bound >= spectral_norm(y)
                step0s.clear()
                bm_solve(y, derive_stream(40 + seed, 1))
                assert step0s and set(step0s) == {0.5 / bound}

    def test_identity_constant_objective(self):
        # X_ii = 1 forces trace(YX) = n for Y = I at every feasible point
        n = 10
        y = sym(np.eye(n))
        r, rep = bm_solve(y, derive_stream(1, 0), k=3)
        assert rep.objective_trace[-1] == pytest.approx(n, rel=1e-12)
        assert rep.converged

    def test_feasibility_and_monotonicity(self, monkeypatch):
        rng = derive_stream(21, 0)
        b = rng.normal((30, 30))
        z = random_signs(rng, 40)
        u = derive_stream(2, 0).normal((30, 2))
        cases = {
            "wigner": (sym(b + b.T), 21),
            "gaussian": (sample_z2sync_gaussian(40, 2.0, z, rng).y, 22),
            "signed-sbm": (signed_adjacency(sample_sbm(40, 0.6, 0.05, rng)), 23),
            "z2er": (sample_z2sync_er(40, 0.6, 0.2, z, rng).y, 24),
            # indefinite, and not concave along some accepted move: the
            # Barzilai-Borwein step falls back to the fixed one there
            "indefinite": (sym(np.outer(u[:, 0], u[:, 0]) - 5.0 * np.outer(u[:, 1], u[:, 1])), 2),
        }
        curvatures = []
        bb = sdp._bb_step

        def bb_step(s, d, step0):
            curvatures.append(float(np.vdot(s, d)))
            return bb(s, d, step0)

        monkeypatch.setattr(sdp, "_bb_step", bb_step)
        for name, (y, seed) in cases.items():
            curvatures.clear()
            r, rep = bm_solve(y, derive_stream(seed, 1))
            norms = np.linalg.norm(r, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12, name
            trace = np.asarray(rep.objective_trace)
            slack = 1e-12 * y.n * y.max_abs()
            assert np.all(np.diff(trace) >= -slack), name
            assert rep.converged, name
            assert min(curvatures) < 0.0, name
            if name == "indefinite":
                assert max(curvatures) >= 0.0

    def test_rank_k_validation(self):
        with pytest.raises(ValueError):
            bm_solve(sym(np.eye(3)), derive_stream(0, 0), k=1)

    def test_default_rank(self):
        assert default_rank(50) == 10
        assert default_rank(2) == 2

    def test_sign_symmetry(self):
        rng = derive_stream(30, 0)
        n = 24
        z = random_signs(rng, n)
        b = rng.normal((n, n))
        y = sym(np.outer(z, z) + 0.3 * (b + b.T))
        s = random_signs(derive_stream(30, 5), n)
        y_conj = sym(s[:, None] * y.array * s[None, :])
        _, rep1 = bm_solve(y, derive_stream(30, 1))
        _, rep2 = bm_solve(y_conj, derive_stream(30, 1))
        assert rep1.rounded_objective == pytest.approx(
            rep2.rounded_objective, abs=1e-8 * n * y.max_abs()
        )

    def test_near_threshold_convergence(self):
        # lambda2(D - Y) = 0.215 on this tight instance; the fixed step
        # 0.5/||Y|| took 962 iterations on it
        rng = derive_stream(18, 0)
        z = np.where(rng.uniform(120) < 0.5, 1.0, -1.0)
        inst = sample_z2sync_er(120, 0.4, 0.3, z, rng)
        assert certify_z2sync(inst).tight
        _, rep = bm_solve(inst.y, derive_stream(18, 1))
        assert rep.converged and rep.iterations <= 250
        assert np.array_equal(rep.rounded_x, z) or np.array_equal(rep.rounded_x, -z)
        assert rep.dual.feasible

    def test_iteration_budget_on_the_cross_check_grid(self, monkeypatch):
        # the z2er cross-check benchmark grid at seed 42: 157 solves, which
        # took 17,162 iterations with the fixed step 0.5/||Y||, 5,361 with
        # Barzilai-Borwein steps and 5,464 with ||Y|| replaced by its
        # row-sum bound
        reports = []

        def solve(y, rng, k=None):
            r, rep = bm_solve(y, rng, k=k)
            reports.append(rep)
            return r, rep

        monkeypatch.setattr(sweeps, "bm_solve", solve)
        cfg = SweepConfig(experiment="z2er", n=[120], grids={"p": [0.4], "eps": [0.1, 0.3]},
                          trials=120, master_seed=42, cross_check=True)
        cells = run_sweep(cfg).cells
        assert [cell["bm_disagreements"] for cell in cells] == [0, 0]
        assert len(reports) == 157
        assert sum(rep.iterations for rep in reports) <= 8000


def _cross_check_grid(seed=42):
    return SweepConfig(experiment="z2er", n=[120], grids={"p": [0.4], "eps": [0.1, 0.3]},
                       trials=120, master_seed=seed, cross_check=True)


class TestCrossCheck:
    def test_the_sweep_path_does_no_dual_work(self, monkeypatch):
        # a sweep reads only the rounded signs: the dual is never computed,
        # and the one eigen call of a solve is round_rank_one's k x k one
        plain = run_sweep(dataclasses.replace(_cross_check_grid(), cross_check=False)).cells
        calls, solving = [], []
        lapack = eig._lapack

        def counted(routine, m):
            if solving:
                calls.append((routine.__name__, m.n))
            return lapack(routine, m)

        def solve(y, rng, k=None):
            solving.append(y)
            try:
                return bm_solve(y, rng, k=k)
            finally:
                solving.pop()

        def no_dual(y, x, tau=None):
            raise AssertionError("the cross-check computed a dual")

        monkeypatch.setattr(eig, "_lapack", counted)
        monkeypatch.setattr(sweeps, "bm_solve", solve)
        monkeypatch.setattr(sdp, "certify_rank_one", no_dual)
        cells = run_sweep(_cross_check_grid()).cells
        assert [cell.pop("bm_disagreements") for cell in cells] == [0, 0]
        assert cells == plain
        assert len(calls) == 157
        assert set(calls) == {("eigh", default_rank(120))}

    def test_the_dropped_dual_check_could_never_fire(self, monkeypatch):
        # every solve the cross-check accepts, on z2er, sbm and z2gauss
        # grids, has a feasible dual, and that dual is certify_rank_one's
        # report at the rounded point
        accepted, reports = [], []
        recovers = sweeps._bm_recovers

        def solve(y, rng, k=None):
            r, rep = bm_solve(y, rng, k=k)
            reports.append(rep)
            return r, rep

        def recovers_logged(cfg, sid, y, truth):
            ok = recovers(cfg, sid, y, truth)
            if ok:
                accepted.append((y, reports[-1]))
            return ok

        monkeypatch.setattr(sweeps, "bm_solve", solve)
        monkeypatch.setattr(sweeps, "_bm_recovers", recovers_logged)
        tight = 0
        for exp, n, grids, trials in (
                ("z2er", 120, {"p": [0.4], "eps": [0.1, 0.3]}, 120),
                ("sbm", 80, {"alpha": [3.0, 5.0, 9.0], "beta": [1.0]}, 20),
                ("z2gauss", 100, {"sigma_factor": [0.5, 0.8]}, 20)):
            cfg = SweepConfig(experiment=exp, n=[n], grids=grids, trials=trials,
                              master_seed=7, cross_check=True)
            for cell in run_sweep(cfg).cells:
                assert cell["bm_disagreements"] == 0
                tight += round(cell["freq_certified"] * trials)
        assert len(accepted) == tight > 100
        for y, rep in accepted:
            assert rep.dual.feasible
            ref = certify_rank_one(y, rep.rounded_x)
            for f in dataclasses.fields(ref):
                assert np.array_equal(getattr(rep.dual, f.name), getattr(ref, f.name)), f.name
        # and nothing but the planted signs is accepted: one sign off is refused
        y, rep = accepted[0]
        wrong = rep.rounded_x.copy()
        wrong[0] = -wrong[0]
        assert not recovers(_cross_check_grid(), 0, y, wrong)


class TestRoundRankOne:
    def test_rank_one_factor(self):
        z = np.array([1.0, -1.0, 1.0, -1.0])
        r = np.zeros((4, 2))
        r[:, 0] = z
        x = round_rank_one(r)
        assert np.array_equal(x, z) or np.array_equal(x, -z)

    def test_tie_break_deterministic(self):
        # two orthogonal blocks of equal strength; zeros round to +1
        r = np.zeros((4, 2))
        r[:2, 0] = 1.0
        r[2:, 1] = 1.0
        x1 = round_rank_one(r)
        x2 = round_rank_one(r)
        assert np.array_equal(x1, x2)
        assert np.all(np.abs(x1) == 1.0)

    def test_noiseless_recovery_over_seeds(self):
        n = 20
        for seed in range(50):
            z = random_signs(derive_stream(seed, 77), n)
            y = sym(np.outer(z, z))
            _, rep = bm_solve(y, derive_stream(seed, 78), k=2)
            assert np.array_equal(rep.rounded_x, z) or np.array_equal(
                rep.rounded_x, -z
            )


def verify_optimal(y, x):
    """The dual check bm_solve stores for a rounded point x, with the
    duality gap trace(D) - x^T Y x, which vanishes by construction."""
    rep = certify_rank_one(y, x)
    return rep, float(np.sum(rep.d_diag) - x @ (y.array @ x))


class TestVerifyOptimal:
    def test_noiseless(self):
        z = random_signs(derive_stream(2, 2), 7)
        chk, gap = verify_optimal(sym(np.outer(z, z)), z)
        assert chk.feasible
        assert gap == pytest.approx(0.0, abs=1e-9)
        assert chk.lambda2 == pytest.approx(7.0, abs=1e-8)

    def test_infeasible_dual(self):
        chk, gap = verify_optimal(sym(np.ones((2, 2))), np.array([1.0, -1.0]))
        assert not chk.feasible
        assert gap == pytest.approx(0.0, abs=1e-9)
        assert chk.lambda1 == pytest.approx(-2.0, abs=1e-9)

    def test_zero_matrix_degenerate(self):
        chk, gap = verify_optimal(sym(np.zeros((5, 5))), np.ones(5))
        assert chk.feasible
        assert gap == 0.0
        assert abs(chk.lambda2) <= 1e-9

    def test_rejects_non_sign(self):
        with pytest.raises(NonSignVector):
            verify_optimal(sym(np.eye(2)), np.array([2.0, 1.0]))

    def test_is_the_report_bm_solve_stores(self):
        z = random_signs(derive_stream(2, 3), 9)
        y = sym(np.outer(z, z))
        _, rep = bm_solve(y, derive_stream(2, 4), k=2)
        chk, _ = verify_optimal(y, rep.rounded_x)
        assert (rep.dual.lambda1, rep.dual.lambda2, rep.dual.band) == (
            chk.lambda1, chk.lambda2, chk.band)


class TestAgreementWithCertificates:
    def test_tight_instances_recovered(self):
        # certificate-tight instances: solve + round recovers the planted
        # signs and the rounded point passes the dual check
        n_checked = 0
        seed = 0
        while n_checked < 15:
            seed += 1
            rng = derive_stream(900 + seed, 0)
            g = sample_sbm(40, 0.6, 0.05, rng)
            rep = certify_sbm(g)
            if not rep.tight or rep.lambda2 <= 1e-6 * 40:
                continue
            y = signed_adjacency(g)
            truth = g.labels.astype(np.float64)
            _, solve = bm_solve(y, derive_stream(900 + seed, 1))
            assert np.array_equal(solve.rounded_x, truth) or np.array_equal(
                solve.rounded_x, -truth
            )
            assert solve.dual.feasible
            n_checked += 1

    def test_tight_sync_instances_recovered(self):
        n_checked = 0
        seed = 0
        while n_checked < 15:
            seed += 1
            rng = derive_stream(950 + seed, 0)
            z = random_signs(rng, 30)
            inst = sample_z2sync_er(30, 0.6, 0.05, z, rng)
            rep = certify_z2sync(inst)
            if not rep.tight or rep.lambda2 <= 1e-6 * 30:
                continue
            _, solve = bm_solve(inst.y, derive_stream(950 + seed, 1))
            assert np.array_equal(solve.rounded_x, inst.z) or np.array_equal(
                solve.rounded_x, -inst.z
            )
            assert solve.dual.feasible
            n_checked += 1
