"""Tests of the benchmark itself: span arithmetic, tracer hygiene, gate.

Run with ``python3 -m pytest bench``.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

import benchtrace
import gate
import run
from benchtrace import Span, Tracer, roots, self_times


def _tree():
    # cli_main [0, 10]
    #   run_sweep [1, 9]
    #     _eval_trial (0, 0) [1, 4]: sample [1, 2], eig n=10 [2, 3.5]
    #     _eval_trial (0, 1) [4, 8]: bm_solve [4, 5], bm_solve [5, 7]
    #   (write and cell resolution are left out)
    return [
        Span(0, None, "cli", "cli_main", None, 0.0, 10.0),
        Span(1, 0, "sweeps", "run_sweep", None, 1.0, 9.0),
        Span(2, 1, "sweeps", "_eval_trial", [0, 0], 1.0, 4.0),
        Span(3, 2, "ensembles", "sample_sbm", [0, 0], 1.0, 2.0),
        Span(4, 2, "eig", "eigenvalues_selected", [0, 0], 2.0, 3.5,
             {"n": 10}),
        Span(5, 1, "sweeps", "_eval_trial", [0, 1], 4.0, 8.0),
        Span(6, 5, "sdp", "bm_solve", [0, 1], 4.0, 5.0, {"iterations": 3}),
        Span(7, 5, "sdp", "bm_solve", [0, 1], 5.0, 7.0, {"iterations": 4}),
    ]


def test_self_time_is_duration_minus_children():
    spans = _tree()
    assert self_times(spans) == pytest.approx(
        [2.0, 1.0, 0.5, 1.0, 1.5, 1.0, 1.0, 2.0])
    assert roots(spans) == [0] * len(spans)


def test_layer_metrics_on_a_synthetic_sweep():
    m = run.layer_metrics(_tree())
    assert m["ensembles.sample_s"] == pytest.approx(0.5)  # 1 s over 2 trials
    assert m["eig.eigen_s"] == pytest.approx(0.75)
    assert m["eig.calls"] == 1
    assert m["eig.gflop_computed"] == pytest.approx(4 / 3 * 1000 / 1e9)
    assert m["sdp.solve_s"] == pytest.approx(1.5)
    assert m["sdp.iterations"] == 7
    assert m["sdp.restart_frac"] == pytest.approx(1.0)  # one retry, one trial
    assert m["sweeps.overhead_s"] == pytest.approx(1.0)  # 8 s minus 3 + 4
    assert m["sweeps.busy_s"] == pytest.approx(7.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["sweeps.trial_s_p50"] == pytest.approx(3.5)


def _functions():
    out = {}
    for layer in benchtrace.LAYERS:
        module = importlib.import_module(f"lapcert.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                out[(layer, name)] = obj
    return out


def test_traced_run_restores_every_function(tmp_path):
    before = _functions()
    import lapcert.cli

    with Tracer() as tracer:
        benchtrace.install(tracer)
        wrapped = {k for k, v in _functions().items() if v is not before[k]}
        code = lapcert.cli.cli_main([
            "sweep", "--experiment", "sbm", "--n", "40", "--alpha", "2,6",
            "--beta", "1", "--trials", "2", "--cross-check",
            "--out", str(tmp_path / "sbm.csv")])
    assert code == 0
    assert ("sweeps", "_eval_trial") in wrapped
    assert ("certificates", "eigenvalues_selected") in wrapped
    assert {s.layer for s in tracer.spans} >= {
        "cli", "sweeps", "tails", "ensembles", "laplacians", "certificates",
        "eig"}
    assert sum(s.function == "_eval_trial" for s in tracer.spans) == 4
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _sweep_csv(name, tmp_path) -> bytes:
    import lapcert.cli

    workload = run.WORKLOADS[name]
    out = tmp_path / f"{name}.csv"
    code = lapcert.cli.cli_main([
        *workload.argv, "--trials", str(workload.trials),
        "--seed", str(run.DEFAULT_SEED), "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def test_gate_rejects_one_altered_byte(tmp_path):
    expected = gate.load_expected()
    good = _sweep_csv("er-n2000", tmp_path)
    assert gate.check("er-n2000", good, run.DEFAULT_SEED, expected) == []
    bad = bytearray(good)
    bad[-2] ^= 1  # last digit of the last field
    assert gate.check("er-n2000", bytes(bad), run.DEFAULT_SEED, expected)
    # At another seed only the invariants apply.
    assert gate.check("er-n2000", bytes(bad), 7, expected) == []


def _ratio_with(factor: float) -> bytes:
    expected = gate.load_expected()
    lines = expected["csv_9_digits"]["ratio-wigner"].splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("median_ratio")
    row[col] = format(float(row[col]) * factor, ".9g")
    lines[1] = ",".join(row)
    return ("\n".join(lines) + "\n").encode()


def test_gate_ratio_tolerance():
    expected = gate.load_expected()
    seed = run.DEFAULT_SEED
    assert gate.check("ratio-wigner", _ratio_with(1.0), seed, expected) == []
    # 1.10669834 -> 1.10669835: one unit in the 9th significant digit.
    assert gate.check("ratio-wigner", _ratio_with(1 + 0.9e-8), seed,
                      expected) == []
    assert gate.check("ratio-wigner", _ratio_with(1 + 1e-6), seed, expected)


def test_gate_rejects_wrong_answers_at_any_seed():
    csv = (b"n,p,eps,trials,bm_disagreements\n"
           b"120,0.4,0.1,60,0\n120,0.4,0.3,60,1\n")
    problems = gate.check("z2er-xcheck-w2", csv, 7, gate.load_expected())
    assert problems == ["row 2: bm_disagreements=1"]


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(list(range(20))) is None
    q, value = run.tail_percentile([float(v) for v in range(30)])
    assert q == 66
    assert sum(v > value for v in range(30)) == 10


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
