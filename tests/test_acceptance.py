"""Acceptance suite: statistical reproductions at fixed seeds and scales.

Each test prints one PASS/FAIL line (run with -s to see them live). The
checks combine hard algebraic guarantees with phase-transition
reproductions at desk scale; every tolerance is pinned here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lapcert import (
    SweepConfig,
    SymmetricMatrix,
    bernoulli_diff_tail,
    bernoulli_diff_tail_mc,
    bm_solve,
    centered_er_profile,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    connectivity_spectral,
    connectivity_unionfind,
    derive_stream,
    eigendecompose,
    norm_bound_check,
    run_sweep,
    sample_er,
    sample_sbm,
    sample_z2sync_er,
    spectral_norm,
)
from lapcert.ensembles import GraphSample
from lapcert.tails import bernoulli_diff_distribution

pytestmark = pytest.mark.slow

SEED = 42


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sbm_threshold_sweep():
    cfg = SweepConfig(
        experiment="sbm",
        n=[300],
        grids={"alpha": [2.0, 10.0], "beta": [1.0]},
        trials=100,
        master_seed=SEED,
    )
    start = time.monotonic()
    result = run_sweep(cfg)
    return result, time.monotonic() - start


def test_01_connectivity_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(64):
        a = np.zeros((4, 4), dtype=np.uint8)
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                a[i, j] = a[j, i] = 1
        g = GraphSample(a)
        mismatches += connectivity_spectral(g) != connectivity_unionfind(g)
    n = 200
    sid = 0
    for p in (0.005, 0.02, 0.05):
        per_p = 167 if p != 0.05 else 166
        for _ in range(per_p):
            g = sample_er(n, p, derive_stream(SEED, sid))
            sid += 1
            mismatches += connectivity_spectral(g) != connectivity_unionfind(g)
    elapsed = time.monotonic() - start
    report(
        "01 connectivity-oracles",
        mismatches == 0 and elapsed < 30.0,
        f"mismatches={mismatches} over {64 + sid} graphs, {elapsed:.1f}s",
    )


def test_02_er_phase_transition():
    start = time.monotonic()
    cfg = SweepConfig(
        experiment="er",
        n=[2000],
        grids={"rho": [0.5, 1.5]},
        trials=200,
        master_seed=SEED,
    )
    res = run_sweep(cfg)
    low, high = res.cells
    elapsed = time.monotonic() - start
    ok = high["freq_connected"] >= 0.95 and low["freq_isolated"] >= 0.95
    report(
        "02 er-phase-transition",
        ok and elapsed < 600.0,
        f"rho=1.5 connected {high['freq_connected']:.3f}, "
        f"rho=0.5 isolated {low['freq_isolated']:.3f}, {elapsed:.1f}s",
    )


def test_03_sbm_threshold(sbm_threshold_sweep):
    result, elapsed = sbm_threshold_sweep
    below, above = result.cells
    ok = (
        above["freq_certified"] >= 0.90
        and below["freq_certified"] <= 0.10
        and below["freq_oracle_block"] >= 0.50
        and above["sufficiency_violations"] == below["sufficiency_violations"] == 0
        and above["freq_sufficient"] >= 0.90
        and below["freq_sufficient"] <= 0.10
    )
    report(
        "03 sbm-threshold",
        ok and elapsed < 900.0,
        f"alpha=10 certified {above['freq_certified']:.2f} "
        f"sufficient {above['freq_sufficient']:.2f}, "
        f"alpha=2 certified {below['freq_certified']:.2f} "
        f"sufficient {below['freq_sufficient']:.2f} "
        f"blocked {below['freq_oracle_block']:.2f}, "
        f"sufficiency violations {above['sufficiency_violations'] + below['sufficiency_violations']}, "
        f"{elapsed:.1f}s",
    )


def test_04_gaussian_z2_threshold():
    start = time.monotonic()
    cfg = SweepConfig(
        experiment="z2gauss",
        n=[400],
        grids={"sigma_factor": [0.5, 2.0]},
        trials=100,
        master_seed=SEED,
    )
    res = run_sweep(cfg)
    easy, hard = res.cells
    elapsed = time.monotonic() - start
    ok = easy["freq_certified"] >= 0.95 and hard["freq_certified"] <= 0.10
    report(
        "04 z2-gaussian-threshold",
        ok and elapsed < 600.0,
        f"0.5*sigma* certified {easy['freq_certified']:.2f}, "
        f"2*sigma* certified {hard['freq_certified']:.2f}, {elapsed:.1f}s",
    )


def test_05_ratio_experiment():
    start = time.monotonic()
    cfg = SweepConfig(
        experiment="ratio",
        n=[500, 1000, 2000],
        grids={},
        trials=50,
        master_seed=SEED,
        ensemble="wigner-neg-laplacian",
    )
    res = run_sweep(cfg)
    elapsed = time.monotonic() - start
    medians = [c["median_ratio"] for c in res.cells]
    mins = [c["min_ratio"] for c in res.cells]
    cap = 1.0 + 2.0 / math.sqrt(math.log(2000))
    ok = (
        all(c["n_degenerate"] == 0 for c in res.cells)
        and all(m >= 1.0 for m in mins)
        and all(b <= a for a, b in zip(medians, medians[1:]))
        and medians[-1] <= cap
    )
    report(
        "05 ratio-wigner",
        ok and elapsed < 1200.0,
        f"medians={[f'{m:.4f}' for m in medians]} cap={cap:.3f} "
        f"min={min(mins):.6f}, {elapsed:.1f}s",
    )


def test_06_norm_bound_check():
    start = time.monotonic()
    n, p = 500, 0.05
    prof = centered_er_profile(n, p)
    t = 3.0 * prof.sigma_inf * math.sqrt(math.log(n))
    holds = 0
    for seed in range(100):
        g = sample_er(n, p, derive_stream(SEED, seed))
        x = g.adjacency - p * (np.ones((n, n)) - np.eye(n))
        holds += norm_bound_check(SymmetricMatrix(x), prof.sigma, t)
    elapsed = time.monotonic() - start
    report(
        "06 spectral-norm-bound",
        holds == 100,
        f"{holds}/100 within 3*sigma + t, {elapsed:.1f}s",
    )


def test_07_certificate_algebra():
    start = time.monotonic()
    rng = derive_stream(SEED, 10_000)
    residual_viol = scaling_viol = conjugation_viol = 0
    for _ in range(500):
        n = int(rng.uniform() * 38) + 2
        b = rng.normal((n, n))
        y = SymmetricMatrix(b + b.T)
        x = np.where(rng.uniform(n) < 0.5, 1.0, -1.0)
        rep = certify_rank_one(y, x)
        if rep.residual_null > 1e-10 * n * max(y.max_abs(), 1e-300):
            residual_viol += 1
        for c in (1e-3, 9.0):
            if certify_rank_one(SymmetricMatrix(c * y.array), x).tight != rep.tight:
                scaling_viol += 1
        s = np.where(rng.uniform(n) < 0.5, 1.0, -1.0)
        conj = SymmetricMatrix(s[:, None] * y.array * s[None, :])
        va = eigendecompose(y).eigenvalues
        vb = eigendecompose(conj).eigenvalues
        if np.max(np.abs(va - vb)) > 1e-10 * (1.0 + spectral_norm(y)):
            conjugation_viol += 1
    elapsed = time.monotonic() - start
    ok = residual_viol == scaling_viol == conjugation_viol == 0
    report(
        "07 certificate-algebra",
        ok,
        f"violations: residual={residual_viol} scaling={scaling_viol} "
        f"conjugation={conjugation_viol} over 500 instances, {elapsed:.1f}s",
    )


def test_08_sdp_cross_check():
    start = time.monotonic()
    n = 120
    recovered = 0
    attempted = 0

    def check(y, truth, seed_base):
        _, rep = bm_solve(y, derive_stream(SEED, seed_base))
        good = (
            np.array_equal(rep.rounded_x, truth)
            or np.array_equal(rep.rounded_x, -truth)
        ) and rep.dual.feasible
        if not good:  # one restart with a fresh stream permitted
            _, rep = bm_solve(y, derive_stream(SEED, seed_base + 1))
            good = (
                np.array_equal(rep.rounded_x, truth)
                or np.array_equal(rep.rounded_x, -truth)
            ) and rep.dual.feasible
        return good

    sid = 20_000
    while attempted < 100:
        rng = derive_stream(SEED, sid)
        g = sample_sbm(n, 0.4, 0.04, rng)
        sid += 10
        rep = certify_sbm(g)
        if not rep.tight or rep.lambda2 <= 1e-6 * n:
            continue
        from lapcert import signed_adjacency

        attempted += 1
        recovered += check(signed_adjacency(g), g.labels.astype(float), sid)
    while attempted < 200:
        rng = derive_stream(SEED, sid)
        z = np.where(rng.uniform(n) < 0.5, 1.0, -1.0)
        inst = sample_z2sync_er(n, 0.4, 0.05, z, rng)
        sid += 10
        rep = certify_z2sync(inst)
        if not rep.tight or rep.lambda2 <= 1e-6 * n:
            continue
        attempted += 1
        recovered += check(inst.y, inst.z, sid)
    elapsed = time.monotonic() - start
    report(
        "08 sdp-cross-check",
        recovered == 200,
        f"{recovered}/200 tight instances recovered with feasible dual, "
        f"{elapsed:.1f}s",
    )


def test_09_exact_tail_oracle():
    start = time.monotonic()
    assert bernoulli_diff_tail(2, 0.5, 0.5, 0) == 0.6875
    mass_ok = True
    mc_ok = 0
    rng = derive_stream(SEED, 30_000)
    for trial in range(20):
        m = int(rng.uniform() * 200) + 1
        p = 0.05 + 0.9 * rng.uniform()
        q = 0.05 + 0.9 * rng.uniform()
        spread = math.sqrt(m * (p * (1 - p) + q * (1 - q))) + 1.0
        delta = round(m * (q - p) + (2.0 * rng.uniform() - 1.0) * 2.5 * spread)
        dist = bernoulli_diff_distribution(m, p, q)
        if abs(dist.sum() - 1.0) > 1e-12:
            mass_ok = False
        exact = bernoulli_diff_tail(m, p, q, delta)
        est, se = bernoulli_diff_tail_mc(
            m, p, q, delta, 100_000, derive_stream(SEED, 30_100 + trial)
        )
        se_floor = math.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
        mc_ok += abs(est - exact) <= 3.0 * max(se, se_floor)
    elapsed = time.monotonic() - start
    report(
        "09 exact-tail-oracle",
        mass_ok and mc_ok == 20,
        f"mass_ok={mass_ok} mc within 3SE {mc_ok}/20, {elapsed:.1f}s",
    )


def test_11_sufficiency_ordering(sbm_threshold_sweep):
    result, _ = sbm_threshold_sweep
    extra = run_sweep(
        SweepConfig(
            experiment="sbm",
            n=[80],
            grids={"alpha": [4.0, 6.0, 8.0], "beta": [1.0]},
            trials=50,
            master_seed=SEED + 1,
        )
    )
    total = sum(c["sufficiency_violations"] for c in result.cells + extra.cells)
    trials = sum(c["trials"] for c in result.cells + extra.cells)
    ordered = all(
        c["freq_sufficient"] <= c["freq_certified"] for c in result.cells + extra.cells
    )
    report(
        "11 sufficiency-ordering",
        total == 0 and ordered,
        f"{total} counterexamples over {trials} sbm trials, "
        f"freq_sufficient <= freq_certified in every cell: {ordered}",
    )


def test_12_reproducibility(tmp_path):
    start = time.monotonic()
    digests = []
    for workers in (1, 2, 4):
        path = tmp_path / f"repro-w{workers}.csv"
        cfg = SweepConfig(
            experiment="sbm",
            n=[80],
            grids={"alpha": [3.0, 9.0], "beta": [1.0]},
            trials=20,
            master_seed=SEED,
            out_path=str(path),
            workers=workers,
            cross_check=True,
        )
        run_sweep(cfg)
        digests.append(path.read_bytes())
    elapsed = time.monotonic() - start
    report(
        "12 reproducibility",
        digests[0] == digests[1] == digests[2],
        f"byte-identical CSV across workers 1/2/4, {elapsed:.1f}s",
    )
