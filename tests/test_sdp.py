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
    dual_diagonal,
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

        def bb_step(s, d, step0, long):
            step0s.append(step0)
            return bb(s, d, step0, long)

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

        def bb_step(s, d, step0, long):
            curvatures.append(float(np.vdot(s, d)))
            return bb(s, d, step0, long)

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

    def test_steps_alternate_long_and_short(self, monkeypatch):
        # from the second iteration on, the step is the long quotient
        # s^T s / -s^T d on even calls and the short -s^T d / d^T d on odd
        # ones wherever the objective curves down along s, and step0 where
        # it does not
        calls = []
        bb = sdp._bb_step

        def bb_step(s, d, step0, long):
            step = bb(s, d, step0, long)
            calls.append((float(np.vdot(s, s)), float(np.vdot(s, d)),
                          float(np.vdot(d, d)), step0, long, step))
            return step

        monkeypatch.setattr(sdp, "_bb_step", bb_step)
        rng = derive_stream(18, 0)
        z = random_signs(rng, 120)
        u = derive_stream(2, 0).normal((30, 2))
        cases = {
            "z2er": (sample_z2sync_er(120, 0.4, 0.3, z, rng).y, 18),
            "indefinite": (sym(np.outer(u[:, 0], u[:, 0]) - 5.0 * np.outer(u[:, 1], u[:, 1])), 2),
        }
        for name, (y, seed) in cases.items():
            calls.clear()
            _, rep = bm_solve(y, derive_stream(seed, 1))
            assert rep.converged and len(calls) == rep.iterations - 1 > 10, name
            assert [c[4] for c in calls] == [i % 2 == 0 for i in range(len(calls))], name
            for ss, sd, dd, step0, long, step in calls:
                if sd < 0.0:
                    assert step == (ss / -sd if long else -sd / dd), name
                    # Cauchy-Schwarz: the short quotient is never the longer
                    assert -sd / dd <= ss / -sd, name
                else:
                    assert step == step0, name
            curving = [c[4] for c in calls if c[1] < 0.0]
            assert True in curving and False in curving, name
            if name == "z2er":
                assert all(c[1] < 0.0 for c in calls)
            else:
                assert any(c[1] >= 0.0 for c in calls)

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
        x1, x2 = rep1.rounded_x, rep2.rounded_x
        assert x1 @ (y.array @ x1) == pytest.approx(
            x2 @ (y_conj.array @ x2), abs=1e-8 * n * y.max_abs()
        )

    def test_near_threshold_convergence(self):
        # lambda2(D - Y) = 0.215 on this tight instance; the fixed step
        # 0.5/||Y|| took 962 iterations on it, the long Barzilai-Borwein
        # step alone 152 and the alternating steps 110
        rng = derive_stream(18, 0)
        z = np.where(rng.uniform(120) < 0.5, 1.0, -1.0)
        inst = sample_z2sync_er(120, 0.4, 0.3, z, rng)
        assert certify_z2sync(inst).tight
        _, rep = bm_solve(inst.y, derive_stream(18, 1))
        assert rep.converged and rep.iterations <= 150
        assert np.array_equal(rep.rounded_x, z) or np.array_equal(rep.rounded_x, -z)
        assert certify_rank_one(inst.y, rep.rounded_x).feasible

    def test_iteration_budget_on_the_cross_check_grid(self, monkeypatch):
        # the z2er cross-check benchmark grid at seed 42: 157 solves, which
        # took 17,162 iterations with the fixed step 0.5/||Y||, 5,361 with
        # Barzilai-Borwein steps, 5,464 with ||Y|| replaced by its row-sum
        # bound and 4,848 with the long and short steps alternating. Their
        # candidate evaluations went 7,800 -> 5,677 with the alternation.
        reports = []
        evaluations = [0]
        objective = sdp._objective

        def solve(y, rng, k=None):
            r, rep = bm_solve(y, rng, k=k)
            reports.append(rep)
            return r, rep

        def counted(y, r, yr):
            evaluations[0] += 1
            return objective(y, r, yr)

        monkeypatch.setattr(sweeps, "bm_solve", solve)
        monkeypatch.setattr(sdp, "_objective", counted)
        cells = run_sweep(_cross_check_grid()).cells
        assert [cell["bm_disagreements"] for cell in cells] == [0, 0]
        assert len(reports) == 157
        assert sum(rep.iterations for rep in reports) <= 5000
        # one evaluation per solve is the starting point, not a candidate
        assert evaluations[0] - len(reports) <= 6000


def _cross_check_grid(seed=42):
    return SweepConfig(experiment="z2er", n=[120], grids={"p": [0.4], "eps": [0.1, 0.3]},
                       trials=120, master_seed=seed, cross_check=True)


class TestCrossCheck:
    def test_the_sweep_path_does_no_dual_work(self, monkeypatch):
        # a sweep reads only the rounded signs: the one eigen call of a
        # solve is round_rank_one's k x k one
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

        monkeypatch.setattr(eig, "_lapack", counted)
        monkeypatch.setattr(sweeps, "bm_solve", solve)
        cells = run_sweep(_cross_check_grid()).cells
        assert [cell.pop("bm_disagreements") for cell in cells] == [0, 0]
        assert cells == plain
        assert len(calls) == 157
        assert set(calls) == {("eigh", default_rank(120))}

    def test_the_dropped_dual_check_could_never_fire(self, monkeypatch):
        # every solve the cross-check accepts, on z2er, sbm and z2gauss
        # grids, has a feasible dual: certify_rank_one's report at the
        # rounded point
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
            assert certify_rank_one(y, rep.rounded_x).feasible
        # and nothing but the planted signs is accepted: one sign off is refused
        y, rep = accepted[0]
        wrong = rep.rounded_x.copy()
        wrong[0] = -wrong[0]
        assert not recovers(_cross_check_grid(), 0, y, wrong)

    @pytest.mark.slow
    def test_robust_over_seeds(self, monkeypatch):
        # bm_disagreements must read 0 at any seed: the z2er bench grid at
        # seeds 3200-3211 and the sbm and z2gauss cross-check grids at seeds
        # 0-4. Every tight trial is solved once (the restart lane is never
        # taken), and every objective trace is nondecreasing.
        solves = []

        def solve(y, rng, k=None):
            r, rep = bm_solve(y, rng, k=k)
            solves.append((y, rep))
            return r, rep

        monkeypatch.setattr(sweeps, "bm_solve", solve)
        grids = [_cross_check_grid(seed) for seed in range(3200, 3212)]
        for seed in range(5):
            grids.append(SweepConfig(experiment="sbm", n=[80], trials=20, master_seed=seed,
                                     grids={"alpha": [3.0, 5.0, 9.0], "beta": [1.0]},
                                     cross_check=True))
            grids.append(SweepConfig(experiment="z2gauss", n=[100], trials=20, master_seed=seed,
                                     grids={"sigma_factor": [0.5, 0.8, 1.0]},
                                     cross_check=True))
        tight = 0
        for cfg in grids:
            for cell in run_sweep(cfg).cells:
                assert cell["bm_disagreements"] == 0, cfg
                tight += round(cell["freq_certified"] * cfg.trials)
        assert len(solves) == tight > 2000
        for y, rep in solves:
            assert rep.converged
            slack = 1e-12 * y.n * y.max_abs()
            assert np.all(np.diff(rep.objective_trace) >= -slack)


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
    """The dual check of a rounded point x, with the duality gap
    trace(D) - x^T Y x, which vanishes by construction."""
    rep = certify_rank_one(y, x)
    return rep, float(np.sum(dual_diagonal(y, x)) - x @ (y.array @ x))


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
            assert certify_rank_one(y, solve.rounded_x).feasible
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
            assert certify_rank_one(inst.y, solve.rounded_x).feasible
            n_checked += 1
