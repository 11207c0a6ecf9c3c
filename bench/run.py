"""lapcert benchmark: Monte Carlo sweeps driven through ``lapcert.cli``.

    python3 bench/run.py --workload sbm-n300 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20 --trace 1

One process generates the load: it calls ``lapcert.cli.cli_main`` in-process
with CLI arguments only, one sweep after another (a closed loop with one
client), for ``--seconds`` seconds, at the seed given by ``--seed``. Every
sweep is checked by ``gate.py``. A sweep at the recorded seed runs first,
untimed, as warm-up and as a check against the recorded output.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` spends part of the time untraced and the rest with every
layer boundary wrapped by ``benchtrace.py`` (at one worker), and prints the
per-layer metrics. ``--workload all`` runs every workload in its own
subprocess, so that each reports its own peak memory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with
the environment (and, when traced, the spans) is written under
``.bench_out/`` at the repository root. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate
from benchtrace import Tracer, install, roots, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Seed of the recorded outputs in expected.json; also the warm-up seed.
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Workload:
    argv: tuple  # CLI arguments, without --trials, --seed, --workers, --out
    trials: int  # trials per cell
    workers: int


#: Why each workload is here: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    "sbm-n300": Workload(
        ("sweep", "--experiment", "sbm", "--n", "300", "--alpha", "2,10",
         "--beta", "1"), 20, 1),
    "ratio-wigner": Workload(
        ("ratio", "--ensemble", "wigner-neg-laplacian", "--n", "1000,2000"),
        1, 1),
    "er-n2000": Workload(
        ("sweep", "--experiment", "er", "--n", "2000", "--rho", "0.5,1.5"),
        32, 1),
    "z2er-xcheck-w2": Workload(
        ("sweep", "--experiment", "z2er", "--n", "120", "--p", "0.4",
         "--eps", "0.1,0.3", "--cross-check"), 120, 2),
}

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "trials_per_s": "1/s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit. Layer times are mean self
#: seconds per trial; the sweeps, tails and cli times are seconds per sweep;
#: counts are per sweep.
PER_LAYER = {
    "ensembles.sample_s": "s",
    "ensembles.calls": "count",
    "laplacians.build_s": "s",
    "laplacians.calls": "count",
    "eig.eigen_s": "s",
    "eig.calls": "count",
    "eig.gflop_computed": "Gflop",
    "eig.gflops": "Gflop/s",
    "certificates.certify_s": "s",
    "certificates.oracle_s": "s",
    "certificates.calls": "count",
    "sdp.solve_s": "s",
    "sdp.calls": "count",
    "sdp.iterations": "count",
    "sdp.restart_frac": "frac",
    "sweeps.trial_s_p50": "s",
    "sweeps.trial_s_p90": "s",
    "sweeps.overhead_s": "s",
    "sweeps.write_s": "s",
    "sweeps.parallel_eff": "frac",
    "tails.margin_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

ORACLES = ("connectivity_unionfind", "connectivity_spectral", "flip_oracle_z2",
           "flip_oracle_sbm")


class Runner:
    """Sweeps of one workload in this process, each checked by the gate."""

    def __init__(self, name: str, expected: dict):
        self.name = name
        self.workload = WORKLOADS[name]
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.trials = 0  # trials per sweep, read from the CSV
        self._first: dict = {}  # seed -> (csv, meta) of its first sweep
        self._csv = OUT / f"{name}.csv"
        self._meta = OUT / f"{name}.meta.json"

    def sweep(self, seed: int, workers: int):
        """Run one sweep; its wall seconds, or None if it failed."""
        import lapcert.cli

        argv = [*self.workload.argv, "--trials", str(self.workload.trials),
                "--seed", str(seed), "--workers", str(workers),
                "--out", str(self._csv)]
        self.attempted += 1
        self._csv.unlink(missing_ok=True)
        self._meta.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = lapcert.cli.cli_main(argv)
        except Exception:
            code = traceback.format_exc()
        wall = time.perf_counter() - start
        problems = self._check(seed, code)
        if problems:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in problems[:5]]
            return None
        return wall

    def _check(self, seed: int, code) -> list:
        if code != 0:
            return [f"cli_main returned {code!r}"]
        try:
            csv_bytes, meta_bytes = self._csv.read_bytes(), self._meta.read_bytes()
        except OSError as exc:
            return [f"cannot read the sweep's output: {exc}"]
        problems = gate.check(self.name, csv_bytes, seed, self.expected)
        first = self._first.setdefault(seed, (csv_bytes, meta_bytes))
        if first != (csv_bytes, meta_bytes):
            problems.append("repeat wrote different bytes than the first sweep")
        lines = csv_bytes.decode("utf-8").splitlines()
        col = lines[0].split(",").index("trials")
        self.trials = sum(int(line.split(",")[col]) for line in lines[1:])
        return problems


def environment(workers: int) -> dict:
    """What the numbers depend on. BLAS threads are recorded, never set."""
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": nproc,
        "workers": workers,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Wall seconds for a fresh interpreter to ``import lapcert``.

    This process has imported lapcert from the same sources already, so
    bytecode is written and the file cache warm, as for an installed
    package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child every 50 ms and the
    # measurement snaps to that grid.
    subprocess.run([sys.executable, "-c", "import lapcert"], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def tail_percentile(values: list):
    """(q, value) for the highest whole percentile with at least ten samples
    above it, or None when there are too few samples for one above p50."""
    n = len(values)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values: list):
    return statistics.median(values) if values else None


def measure_end_to_end(run: Runner, seed: int, seconds: float):
    walls, setup = [], []
    rss = None
    deadline = time.perf_counter() + seconds
    while True:
        wall = run.sweep(seed, run.workload.workers)
        if wall is not None:
            walls.append(wall)
        if rss is None:
            # Before the first set-up interpreter becomes a child too.
            rss = peak_rss_mb()
        # One set-up sample per sweep spreads them over the whole run, so
        # they see the same machine as the sweeps.
        setup.append(import_seconds())
        if time.perf_counter() >= deadline:
            break
    sweep_s = _median(walls)
    metrics = {
        "trials_per_s": run.trials / sweep_s if sweep_s else None,
        "sweep_s": sweep_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile below 21 sweeps")
    notes = [
        f"trials per sweep {run.trials}, sweeps timed {len(walls)}",
        f"sweep_s median {_fmt(sweep_s)} s, {tail_text}, n={len(walls)}",
        f"setup_s median of {len(setup)} fresh interpreters, one per sweep",
    ]
    return metrics, {"sweep_s": walls, "setup_s": setup}, notes


def measure_layers(run: Runner, seed: int, seconds: float):
    workers = run.workload.workers
    # Untraced at the workload's workers (for parallel_eff), untraced at one
    # worker (for the tracing overhead) and traced at one worker. The phases
    # alternate sweep by sweep so that all of them see the same machine.
    phases = [(workers, False)] + ([(1, False)] if workers > 1 else [])
    phases.append((1, True))
    walls: dict = {phase: [] for phase in phases}
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        for phase in phases:
            if phase[1]:
                with tracer:
                    install(tracer)
                    wall = run.sweep(seed, phase[0])
            else:
                wall = run.sweep(seed, phase[0])
            if wall is not None:
                walls[phase].append(wall)
        if time.perf_counter() >= deadline:
            break
    untraced = {w: walls[(w, False)] for w, _ in phases[:-1]}
    traced = walls[(1, True)]
    metrics = layer_metrics(tracer.spans)
    wall_w = _median(untraced[workers])
    wall_1 = _median(untraced[1])
    traced_wall = _median(traced)
    busy = metrics.pop("sweeps.busy_s")
    metrics["sweeps.parallel_eff"] = (busy / (workers * wall_w)
                                      if busy is not None and wall_w else None)
    metrics["trace.overhead_frac"] = (1.0 - wall_1 / traced_wall
                                      if wall_1 and traced_wall else None)
    samples = {"untraced_sweep_s": {str(w): v for w, v in untraced.items()},
               "traced_sweep_s": traced,
               "spans": [s.as_dict() for s in tracer.spans]}
    notes = [f"trials per sweep {run.trials}, traced sweeps {len(traced)}, "
             f"untraced sweeps {sum(len(v) for v in untraced.values())}"]
    return metrics, samples, notes


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from the spans of one or more traced sweeps.

    Each ``cli_main`` span roots one sweep. Per-sweep values are combined
    by their median; trial-time percentiles pool the trials of all sweeps.
    ``sweeps.busy_s`` (summed trial time) is left for the caller.
    """
    selfs = self_times(spans)
    by_root: dict = {}
    for span, root in zip(spans, roots(spans)):
        by_root.setdefault(root, []).append(span)
    per_sweep = []
    trial_durations = []
    for root_id, group in by_root.items():
        if spans[root_id].function != "cli_main":
            continue
        trials = [s for s in group if s.function == "_eval_trial"]
        trial_durations += [s.duration for s in trials]
        per_sweep.append(_sweep_metrics(group, selfs, len(trials), root_id))
    if not per_sweep:
        return {name: None for name in PER_LAYER} | {"sweeps.busy_s": None}
    out = {name: statistics.median(m[name] for m in per_sweep)
           for name in per_sweep[0]}
    if len(trial_durations) > 1:
        deciles = statistics.quantiles(trial_durations, n=10, method="inclusive")
        out["sweeps.trial_s_p50"] = statistics.median(trial_durations)
        out["sweeps.trial_s_p90"] = deciles[8]
    else:
        out["sweeps.trial_s_p50"] = out["sweeps.trial_s_p90"] = (
            trial_durations[0] if trial_durations else None)
    return out


def _sweep_metrics(group: list, selfs: list, n_trials: int,
                   root_id: int) -> dict:
    per_trial = max(n_trials, 1)

    def layer(name, pred=lambda s: True):
        chosen = [s for s in group if s.layer == name and pred(s)]
        return sum(selfs[s.id] for s in chosen), len(chosen)

    ens_s, ens_n = layer("ensembles")
    lap_s, lap_n = layer("laplacians")
    eig_s, eig_n = layer("eig")
    oracle_s, oracle_n = layer("certificates", lambda s: s.function in ORACLES)
    certify_s, certify_n = layer("certificates",
                                 lambda s: s.function not in ORACLES)
    sdp_s, sdp_n = layer("sdp")
    tails_s, _ = layer("tails")
    gflop = sum(4.0 / 3.0 * s.attrs["n"] ** 3 for s in group
                if s.layer == "eig") / 1e9
    bm = [s for s in group if s.function == "bm_solve"]
    bm_trials: dict = {}
    for s in bm:
        key = tuple(s.trial) if s.trial is not None else None
        bm_trials[key] = bm_trials.get(key, 0) + 1
    restarts = sum(c - 1 for c in bm_trials.values())
    trial_spans = [s for s in group if s.function == "_eval_trial"]
    busy = sum(s.duration for s in trial_spans)
    run_sweep = [s for s in group if s.function == "run_sweep"]
    return {
        "ensembles.sample_s": ens_s / per_trial,
        "ensembles.calls": ens_n,
        "laplacians.build_s": lap_s / per_trial,
        "laplacians.calls": lap_n,
        "eig.eigen_s": eig_s / per_trial,
        "eig.calls": eig_n,
        "eig.gflop_computed": gflop,
        "eig.gflops": gflop / eig_s if eig_s > 0 else 0.0,
        "certificates.certify_s": certify_s / per_trial,
        "certificates.oracle_s": oracle_s / per_trial,
        "certificates.calls": oracle_n + certify_n,
        "sdp.solve_s": sdp_s / per_trial,
        "sdp.calls": sdp_n,
        "sdp.iterations": sum(s.attrs["iterations"] for s in bm),
        "sdp.restart_frac": restarts / len(bm_trials) if bm_trials else 0.0,
        "sweeps.overhead_s": sum(s.duration for s in run_sweep) - busy,
        "sweeps.write_s": sum(s.duration for s in group
                              if s.function == "write_csv"),
        "sweeps.busy_s": busy,
        "tails.margin_s": tails_s,
        "cli.self_s": selfs[root_id],
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    run = Runner(name, gate.load_expected())
    run.sweep(DEFAULT_SEED, run.workload.workers)  # warm-up, recorded output
    env = environment(run.workload.workers)
    if trace:
        metrics, samples, notes = measure_layers(run, seed, seconds)
        units = PER_LAYER
    else:
        metrics, samples, notes = measure_end_to_end(run, seed, seconds)
        units = END_TO_END
    correct = run.failed == 0 and all(v is not None for v in metrics.values())
    print(f"workload {name} seed {seed} trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for metric, unit in units.items():
        print(f"{metric} {_fmt(metrics[metric])} {unit}")
    print(f"failed_frac {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} sweeps)")
    for problem in run.problems:
        print(f"FAIL {problem}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    record = dict(result, workload=name, seed=seed, trace=trace,
                  environment=env, samples=samples, problems=run.problems)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=seconds + 600)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lapcert" / "__init__.py").is_file():
        print(f"error: no lapcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
