import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lapcert import SweepConfig, SymmetricMatrix, derive_stream, run_sweep, write_csv
from lapcert import cli, eig, sweeps
from lapcert.cli import MAX_GRID_VALUES, MAX_TAIL_MC_DRAWS, cli_main, _parse_grid
from lapcert.ensembles import GraphSample, SyncInstance
from lapcert.errors import ConfigError, IoError
from lapcert.sweeps import MAX_WORKERS, SweepResult


def sbm_config(**over):
    base = dict(
        experiment="sbm",
        n=[40],
        grids={"alpha": [3.0, 9.0], "beta": [1.0]},
        trials=6,
        master_seed=42,
    )
    base.update(over)
    return SweepConfig(**base)


#: One cell of each experiment, away from its degenerate corners.
_ONE_CELL = {
    "er": dict(grids={"rho": [1.5]}),
    "z2gauss": dict(grids={"sigma_factor": [0.5]}),
    "z2er": dict(grids={"p": [0.6], "eps": [0.05]}),
    "sbm": dict(grids={"alpha": [6.0], "beta": [0.5]}),
    "ratio": dict(grids={}, ensemble="wigner-neg-laplacian"),
    "normbound": dict(grids={"p": [0.3]}),
}


#: A valid grid of each experiment and of each ratio ensemble.
_RULE_VALID = {
    "er": {"rho": [1.0]},
    "z2gauss": {"sigma": [1.0]},
    "z2er": {"p": [0.5], "eps": [0.1]},
    "sbm": {"alpha": [6.0], "beta": [1.0]},
    "normbound": {"p": [0.3]},
    "wigner-neg-laplacian": {},
    "centered-er": {"p": [0.3]},
    "centered-sbm": {"alpha": [6.0], "beta": [1.0]},
}

#: Grids that break the grid rule of each: an axis it does not read, a group
#: of axes it needs left out, and two alternatives of one group given
#: together (None where it needs no group of two alternatives).
_RULE_BROKEN = {
    "er": ({"rho": [1.0], "sigma": [2.0]}, {}, {"rho": [1.0], "p": [0.1]}),
    "z2gauss": ({"sigma": [1.0], "p": [0.3]}, {}, {"sigma": [1.0], "sigma_factor": [0.5]}),
    "z2er": ({"p": [0.5], "eps": [0.1], "q": [0.2]}, {"p": [0.5]},
             {"p": [0.5], "rho": [1.0], "eps": [0.1]}),
    "sbm": ({"alpha": [6.0], "beta": [1.0], "eps": [0.1]}, {"alpha": [6.0]},
            {"alpha": [6.0], "beta": [1.0], "p": [0.5], "q": [0.1]}),
    "normbound": ({"p": [0.3], "rho": [1.0]}, {"t_factor": [1.0]}, None),
    "wigner-neg-laplacian": ({"p": [0.3]}, None, None),
    "centered-er": ({"p": [0.3], "alpha": [2.0]}, {}, {"p": [0.3], "rho": [1.0]}),
    "centered-sbm": ({"alpha": [6.0], "beta": [1.0], "rho": [1.0]}, {"beta": [1.0]}, None),
}

_RULE_CASES = [
    pytest.param(name, over, True, id=f"{name}-{kind}")
    for name, broken in _RULE_BROKEN.items()
    for kind, over in (
        *((kind, {"grids": grids}) for kind, grids in zip(("unread", "missing", "both"), broken)
          if grids is not None),
        ("n", {"n": [20.7]}), ("trials", {"trials": 2.5}), ("workers", {"workers": 1.5}),
    )
] + [
    # values of a type the CLI never passes, since it parses every number
    # first: only the Python API can give them
    pytest.param("normbound", over, False, id=f"normbound-{kind}")
    for kind, over in (
        ("grid-value-str", {"grids": {"p": ["0.3"]}}),
        ("grid-value-bool", {"grids": {"p": [True]}}),
        ("grid-not-list", {"grids": {"p": 0.3}}),
        ("n-not-list", {"n": 10}),
    )
]


class TestRunSweep:
    def test_er_deterministic_limits(self):
        cfg = SweepConfig(
            experiment="er", n=[4], grids={"p": [0.0, 1.0]}, trials=1, master_seed=1
        )
        res = run_sweep(cfg)
        assert [c["freq_connected"] for c in res.cells] == [0.0, 1.0]
        assert [c["freq_isolated"] for c in res.cells] == [1.0, 0.0]

    def test_er_isolated_node_skips_the_oracle(self, monkeypatch):
        cfg = SweepConfig(experiment="er", n=[30], grids={"rho": [0.5, 1.0, 1.5]},
                          trials=20, master_seed=3)
        expected = run_sweep(cfg).cells
        oracle = sweeps.connectivity_unionfind
        searched = []

        def no_isolated_node(g):
            if not g.adjacency.any(axis=1).all():
                raise AssertionError("the oracle ran on a graph with an isolated node")
            searched.append(g)
            return oracle(g)

        monkeypatch.setattr(sweeps, "connectivity_unionfind", no_isolated_node)
        assert run_sweep(cfg).cells == expected
        isolated = sum(round(c["freq_isolated"] * 20) for c in expected)
        assert 0 < isolated < 60 and len(searched) == 60 - isolated

    def test_cell_order_lexicographic(self):
        cfg = SweepConfig(
            experiment="sbm",
            n=[10, 12],
            grids={"alpha": [2.0, 4.0], "beta": [1.0]},
            trials=1,
            master_seed=0,
        )
        res = run_sweep(cfg)
        got = [(c["n"], c["alpha"]) for c in res.cells]
        assert got == [(10, 2.0), (10, 4.0), (12, 2.0), (12, 4.0)]

    def test_rerun_identical(self):
        a = run_sweep(sbm_config())
        b = run_sweep(sbm_config())
        assert a.cells == b.cells

    def test_workers_do_not_change_results(self, tmp_path):
        outs = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            run_sweep(sbm_config(out_path=str(path), workers=workers))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_frequencies_within_unit_interval(self):
        res = run_sweep(sbm_config())
        for c in res.cells:
            assert 0.0 <= c["freq_certified"] <= 1.0
            assert c["freq_certified"] + c["freq_boundary"] <= 1.0 + 1e-12

    def test_monotone_in_signal(self):
        cfg = SweepConfig(
            experiment="sbm",
            n=[60],
            grids={"alpha": [2.0, 6.0, 12.0], "beta": [1.0]},
            trials=30,
            master_seed=7,
        )
        res = run_sweep(cfg)
        freqs = [c["freq_certified"] for c in res.cells]
        slack = 3.0 * math.sqrt(0.25 / 30)
        assert all(b >= a - slack for a, b in zip(freqs, freqs[1:]))

    def test_wide_tau_band_is_no_sufficiency_violation(self):
        # a wider --tau band turns trials "boundary", but the sufficient
        # condition implies tightness at the package band, where they hold
        cfg = SweepConfig(experiment="sbm", n=[100], grids={"alpha": [7.0], "beta": [1.0]},
                          trials=20, master_seed=3, tau=0.2)
        cell = run_sweep(cfg).cells[0]
        assert cell["freq_sufficient"] > 0.5 and cell["freq_certified"] < 0.5
        assert cell["sufficiency_violations"] == 0

    def test_sbm_cross_check_counts(self):
        cfg = sbm_config(cross_check=True, trials=4)
        res = run_sweep(cfg)
        for c in res.cells:
            assert c["bm_disagreements"] == 0

    def test_z2gauss_cells(self):
        cfg = SweepConfig(
            experiment="z2gauss",
            n=[30],
            grids={"sigma_factor": [0.3, 3.0]},
            trials=10,
            master_seed=3,
        )
        res = run_sweep(cfg)
        assert res.cells[0]["freq_certified"] >= 0.9
        assert res.cells[1]["freq_certified"] <= 0.1
        assert res.cells[0]["sigma_star"] == pytest.approx(
            math.sqrt(30 / (2 * math.log(30)))
        )

    def test_z2er_cells(self):
        cfg = SweepConfig(
            experiment="z2er",
            n=[40],
            grids={"p": [0.9], "eps": [0.02, 0.45]},
            trials=10,
            master_seed=5,
        )
        res = run_sweep(cfg)
        assert res.cells[0]["freq_certified"] >= 0.9
        assert res.cells[0]["freq_oracle_block"] <= 0.1
        assert res.cells[1]["freq_oracle_block"] >= 0.5

    def test_normbound_cells(self):
        cfg = SweepConfig(
            experiment="normbound",
            n=[80],
            grids={"p": [0.1]},
            trials=10,
            master_seed=9,
        )
        res = run_sweep(cfg)
        assert res.cells[0]["freq_bound_holds"] == 1.0

    def test_ratio_experiment(self):
        cfg = SweepConfig(
            experiment="ratio",
            n=[80, 160],
            grids={},
            trials=8,
            master_seed=11,
            ensemble="wigner-neg-laplacian",
        )
        res = run_sweep(cfg)
        for c in res.cells:
            assert c["n_degenerate"] == 0
            assert c["mean_ratio"] >= 1.0
            assert c["q95_ratio"] >= c["median_ratio"] >= 1.0

    def test_ratio_degenerate_small_n(self):
        # at n = 2 roughly half the draws have no positive diagonal entry;
        # those count as degenerate and the rest still satisfy ratio >= 1
        cfg = SweepConfig(
            experiment="ratio", n=[2], grids={}, trials=40, master_seed=13,
            ensemble="wigner-neg-laplacian",
        )
        cell = run_sweep(cfg).cells[0]
        assert 0 < cell["n_degenerate"] < 40
        assert cell["min_ratio"] >= 1.0
        assert math.isfinite(cell["mean_ratio"])

    def test_ratio_requires_known_ensemble(self):
        cfg = SweepConfig(
            experiment="ratio", n=[20], grids={}, trials=1, master_seed=0,
            ensemble="cauchy",
        )
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(sbm_config(trials=0))
        with pytest.raises(ConfigError):
            run_sweep(sbm_config(experiment="nope"))
        with pytest.raises(ConfigError):
            run_sweep(sbm_config(n=[]))

    def test_model_parameters_checked_before_trials(self, monkeypatch):
        def no_trials(args):
            raise AssertionError("a trial ran before the cell was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        bad = [
            sbm_config(n=[41]),
            SweepConfig(experiment="z2er", n=[40], grids={"p": [0.5], "eps": [0.7]},
                        trials=1, master_seed=1),
            SweepConfig(experiment="ratio", n=[31], ensemble="centered-sbm",
                        grids={"alpha": [9.0], "beta": [1.0]}, trials=1,
                        master_seed=1),
        ]
        for cfg in bad:
            with pytest.raises(ConfigError):
                run_sweep(cfg)

    @pytest.mark.parametrize("ensemble, grids, message", [
        ("centered-er", {}, "p or rho"),
        ("centered-er", {"p": [1.5]}, "p=1.5 outside"),
        ("centered-er", {"rho": [100.0]}, "p=11.3373 outside"),
        ("centered-sbm", {"alpha": [9.0]}, "alpha and beta"),
        ("centered-sbm", {"beta": [1.0]}, "alpha and beta"),
    ])
    def test_ratio_axes_checked_before_trials(self, monkeypatch, ensemble, grids,
                                              message):
        def no_trials(args):
            raise AssertionError("a trial ran before the cell was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        cfg = SweepConfig(experiment="ratio", n=[30], ensemble=ensemble,
                          grids=grids, trials=1, master_seed=1)
        with pytest.raises(ConfigError, match=message):
            run_sweep(cfg)

    @pytest.mark.parametrize("rank_k", [2.5, True, "3", 41])
    def test_rank_k_refused_before_any_trial(self, monkeypatch, rank_k):
        # a factor of rank above the largest n, or not a whole rank
        cfg = SweepConfig(experiment="z2er", n=[40, 20], grids={"p": [0.6], "eps": [0.05]},
                          trials=1, master_seed=1, cross_check=True, rank_k=rank_k)
        with monkeypatch.context() as patch:
            def no_trials(args):
                raise AssertionError("a trial ran before the config was checked")

            patch.setattr(sweeps, "_eval_trial", no_trials)
            with pytest.raises(ConfigError, match=r"rank-k must be an integer in \[2, 40\]"):
                run_sweep(cfg)
        # a rank above the smaller n is only redundant there
        assert len(run_sweep(dataclasses.replace(cfg, rank_k=21)).cells) == 2

    def test_rank_k_without_cross_check_is_refused(self, monkeypatch):
        # the rank steers only the cross-check's solver
        def no_trials(args):
            raise AssertionError("a trial ran before the config was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        cfg = SweepConfig(experiment="z2er", n=[20], grids={"p": [0.5], "eps": [0.1]},
                          trials=1, master_seed=1, rank_k=3)
        with pytest.raises(ConfigError, match="--rank-k is not read without --cross-check"):
            run_sweep(cfg)

    @pytest.mark.parametrize("name, over, by_cli", _RULE_CASES)
    def test_grid_rule_refuses_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                name, over, by_cli):
        # one rule for the Python API and the CLI alike
        def no_trials(args):
            raise AssertionError("a trial ran before the config was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        ensemble = name if name not in sweeps.EXPERIMENTS else None
        opts = dict(experiment="ratio" if ensemble else name, n=[20], grids=_RULE_VALID[name],
                    trials=2, master_seed=1, workers=1, ensemble=ensemble)
        opts.update(over)
        out = tmp_path / "out.csv"
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(**opts, out_path=str(out)))
        assert not out.exists()
        if not by_cli:
            return

        argv = ["sweep", "--experiment", opts["experiment"],
                "--n", ",".join(map(str, opts["n"])), "--trials", str(opts["trials"]),
                "--workers", str(opts["workers"]), "--seed", "1", "--out", str(out)]
        argv += ["--ensemble", ensemble] if ensemble else []
        for key, values in opts["grids"].items():
            argv += [f"--{key.replace('_', '-')}", ",".join(map(str, values))]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists() and not (tmp_path / "out.meta.json").exists()

    def test_trials_stream_in_order_and_each_cell_reduces_as_it_completes(self, monkeypatch):
        evaluated, reduced_after = [], []
        eval_trial, aggregate = sweeps._eval_trial, sweeps._aggregate

        def logged_trial(args):
            evaluated.append((args[1], args[3]))
            return eval_trial(args)

        def logged_aggregate(cfg, cell, records):
            reduced_after.append(len(evaluated))
            return aggregate(cfg, cell, records)

        monkeypatch.setattr(sweeps, "_eval_trial", logged_trial)
        monkeypatch.setattr(sweeps, "_aggregate", logged_aggregate)
        cfg = SweepConfig(experiment="er", n=[8, 10], grids={"p": [0.3, 0.6]}, trials=3,
                          master_seed=1)
        assert len(run_sweep(cfg).cells) == 4
        assert evaluated == [(ci, t) for ci in range(4) for t in range(3)]
        assert reduced_after == [3, 6, 9, 12]

    @staticmethod
    def no_pool(monkeypatch) -> list:
        """Replace the pool by a stub that records the processes asked for
        and starts none."""
        asked = []

        class NoPool:
            def Pool(self, processes, **kwargs):
                asked.append(processes)
                raise RuntimeError("no pool is started here")

        monkeypatch.setattr(sweeps, "get_context", lambda method: NoPool())
        return asked

    def test_pool_capped_at_task_count(self, monkeypatch):
        asked = self.no_pool(monkeypatch)
        cfg = SweepConfig(experiment="er", n=[8], grids={"p": [0.5]}, trials=2,
                          master_seed=1, workers=MAX_WORKERS)
        with pytest.raises(RuntimeError, match="no pool"):
            run_sweep(cfg)
        assert asked == [2]
        # a single task runs in this process
        assert len(run_sweep(dataclasses.replace(cfg, trials=1)).cells) == 1
        assert asked == [2]

    @pytest.mark.parametrize("cores", [None, 2, MAX_WORKERS + 32])
    def test_workers_above_the_cap_exit_one(self, tmp_path, monkeypatch, capsys, cores):
        # the cap is MAX_WORKERS, or the host's cores where it has more
        asked = self.no_pool(monkeypatch)
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cores)
        most = max(MAX_WORKERS, cores or 1)
        out = tmp_path / "out.csv"
        argv = ["sweep", "--experiment", "er", "--n", "8", "--p", "0.5", "--trials", "200",
                "--out", str(out), "--workers"]
        assert cli_main([*argv, str(most + 1)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"at most {most}" in err
        assert asked == [] and not out.exists()
        with pytest.raises(RuntimeError, match="no pool"):
            cli_main([*argv, str(most)])
        assert asked == [most]

    @pytest.mark.parametrize("experiment", sweeps.EXPERIMENTS)
    def test_row_holds_the_columns(self, tmp_path, monkeypatch, experiment):
        # every aggregate field is a CSV column, and a cell that runs every
        # step of its experiment fills every column of its row
        entry = sweeps._EXPERIMENTS[experiment]
        keys = []

        def aggregate(cfg, cell, records):
            fields = entry.aggregate(cfg, cell, records)
            keys.extend(fields)
            return fields

        monkeypatch.setitem(sweeps._EXPERIMENTS, experiment,
                            dataclasses.replace(entry, aggregate=aggregate))
        path = tmp_path / "out.csv"
        run_sweep(SweepConfig(experiment=experiment, n=[20], trials=3, master_seed=5,
                              out_path=str(path), **_ONE_CELL[experiment],
                              cross_check="bm_disagreements" in entry.columns))
        assert keys and set(keys) <= set(entry.columns)
        header, row = path.read_text().splitlines()
        assert header == ",".join(entry.columns) and "" not in row.split(",")

    def test_ratio_centered_er_rho_and_p_agree(self):
        n = 60
        p = 2.0 * math.log(n) / n
        cells = [
            run_sweep(SweepConfig(experiment="ratio", n=[n], ensemble="centered-er",
                                  grids=grids, trials=3, master_seed=4)).cells[0]
            for grids in ({"rho": [2.0]}, {"p": [p]})
        ]
        assert cells[0]["mean_ratio"] == cells[1]["mean_ratio"]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        getters = eig._openblas("get_num_threads")
        if not getters:
            pytest.skip("no OpenBLAS get_num_threads symbol in this process")
        before = [get() for get in getters]

        # Runs inside the forked workers in place of the connectivity oracle:
        # a trial counts as "connected" when its worker has one BLAS thread.
        # At p = 1 no node is isolated, so every trial calls the oracle.
        def one_thread(g):
            return all(get() == 1 for get in eig._openblas("get_num_threads"))

        monkeypatch.setattr(sweeps, "connectivity_unionfind", one_thread)
        cfg = SweepConfig(experiment="er", n=[8], grids={"p": [1.0]}, trials=8,
                          master_seed=1, workers=2)
        assert run_sweep(cfg).cells[0]["freq_connected"] == 1.0
        assert [get() for get in getters] == before

    def test_pool_workers_run_on_their_main_thread_alone(self, monkeypatch):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task in this process")
        if not eig._openblas("blas_thread_shutdown_"):
            pytest.skip("no OpenBLAS blas_thread_shutdown_ symbol in this process")
        a = np.add.outer(np.arange(200.0), np.arange(200.0))

        # As above: a trial counts as "connected" when its worker, right after
        # an eigvalsh of the size OpenBLAS threads in the parent, runs one
        # thread in all, with no OpenBLAS server thread left from pinning.
        def main_thread_alone(g):
            np.linalg.eigvalsh(a)
            return len(os.listdir("/proc/self/task")) == 1

        monkeypatch.setattr(sweeps, "connectivity_unionfind", main_thread_alone)
        cfg = SweepConfig(experiment="er", n=[8], grids={"p": [1.0]}, trials=8,
                          master_seed=1, workers=2)
        assert run_sweep(cfg).cells[0]["freq_connected"] == 1.0

    @pytest.mark.parametrize("count", [5_000, 50_000])
    def test_pool_read_ahead_is_bounded(self, monkeypatch, count):
        # One trial per cell; the first pass over the cells is the sweep's
        # task stream, so its count is the tasks the pool has pulled.
        pulled = []

        class Cells(list):
            def __iter__(self):
                pulled.append(0)
                return map(self._count, super().__iter__(), itertools.repeat(len(pulled) - 1))

            @staticmethod
            def _count(cell, at):
                pulled[at] += 1
                return cell

        class FirstRecord(Exception):
            pass

        def first_record(cfg, cell, records):
            raise FirstRecord(pulled[0])

        monkeypatch.setattr(sweeps, "_expand_cells",
                            lambda cfg: Cells({"n": 8, "cell": i} for i in range(count)))
        monkeypatch.setattr(sweeps, "_eval_trial", _first_chunk_then_stall)
        monkeypatch.setattr(sweeps, "_aggregate", first_record)
        cfg = SweepConfig(experiment="er", n=[8], grids={"p": [0.5]}, trials=1,
                          master_seed=1, workers=2)
        with pytest.raises(FirstRecord) as first:
            run_sweep(cfg)
        # the first record's chunk, the chunks the stalled workers hold and
        # what the task pipe buffers: about 1,550 tasks on Linux, for either
        # count; uncapped chunks of count // 16 had pulled 5,000 and 9,375
        assert sweeps.MAX_POOL_CHUNK <= first.value.args[0] <= 3_000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the dynamic mmap threshold is glibc's")
    def test_a_repeated_sweep_keeps_its_temporaries_mapped(self):
        # A fresh interpreter: here another test may have raised the
        # threshold already. The second sweep's 720 KB temporaries come
        # from the heap the first one left mapped; when each trial handed
        # them back to the kernel, this sweep took about 2,700 faults.
        code = (
            "import resource\n"
            "from lapcert import SweepConfig, run_sweep\n"
            "cfg = SweepConfig(experiment='sbm', n=[300], grids={'alpha': [10.0],"
            " 'beta': [1.0]}, trials=4, master_seed=42)\n"
            "run_sweep(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_sweep(cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert int(proc.stdout) < 200


def _first_chunk_then_stall(args) -> dict:
    """A pool worker's stand-in for ``sweeps._eval_trial``: a record at once
    for each task of the worker's first chunk, then a stall until the pool
    is terminated."""
    _TASKS_RUN.append(args[1])
    if len(_TASKS_RUN) > sweeps.MAX_POOL_CHUNK:
        time.sleep(60)
    return {}


_TASKS_RUN: list = []


class TestWriteCsv:
    def test_header_only_for_empty(self, tmp_path):
        res = SweepResult(cells=[], config=sbm_config())
        path = tmp_path / "empty.csv"
        write_csv(res, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 1

    def test_two_cells_three_lines(self, tmp_path):
        cfg = SweepConfig(
            experiment="er", n=[4], grids={"p": [0.0, 1.0]}, trials=1,
            master_seed=1, out_path=str(tmp_path / "er.csv"),
        )
        run_sweep(cfg)
        lines = (tmp_path / "er.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,rho,p,")

    def test_round_trip_frequencies_exact(self, tmp_path):
        path = tmp_path / "sbm.csv"
        res = run_sweep(sbm_config(trials=4, out_path=str(path)))
        lines = path.read_text().splitlines()
        cols = lines[0].split(",")
        for cell, line in zip(res.cells, lines[1:]):
            row = dict(zip(cols, line.split(",")))
            assert float(row["freq_certified"]) == cell["freq_certified"]
            assert float(row["freq_oracle_block"]) == cell["freq_oracle_block"]

    def test_meta_json(self, tmp_path):
        path = tmp_path / "sbm.csv"
        run_sweep(sbm_config(out_path=str(path)))
        meta = json.loads((tmp_path / "sbm.meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["experiment"] == "sbm"
        assert meta["grids"]["alpha"] == [3.0, 9.0]
        assert "workers" not in meta

    def test_failed_meta_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sbm.csv"
        meta = tmp_path / "sbm.meta.json"
        meta.write_text("previous\n")
        res = run_sweep(sbm_config(trials=2))
        real_open = open

        def half_then_fail(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if "meta.json" in str(file) and "w" in mode:
                def write(text):
                    type(f).write(f, text[: len(text) // 2])
                    raise OSError("no space left on device")
                f.write = write
            return f

        monkeypatch.setattr("builtins.open", half_then_fail)
        with pytest.raises(IoError):
            write_csv(res, path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sbm.csv", "sbm.meta.json"]
        assert meta.read_text() == "previous\n"
        assert path.read_text().count("\n") == 3

    def test_schema_is_function_of_experiment(self, tmp_path):
        # same experiment, different options -> identical column set
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_sweep(sbm_config(out_path=str(a)))
        run_sweep(sbm_config(out_path=str(b), trials=3, cross_check=True,
                             master_seed=7))
        assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]


class TestSweepDigests:
    """CSV and .meta.json of every experiment pinned byte for byte at small
    n, so a change in how a sweep is organised cannot change what it writes."""

    @pytest.mark.parametrize("argv, digest", [
        (["sweep", "--experiment", "er", "--n", "16,24", "--rho", "0.5,1.5",
          "--trials", "6"],
         "4e700712c84a9ba783c4b2ccc9f9c44fe7ad2af840bdadd1b59748405a79336a"),
        (["sweep", "--experiment", "sbm", "--n", "20", "--alpha", "2,6",
          "--beta", "0.5", "--trials", "5"],
         "24b4e2f7da328da635911b265ecdc7ade6d0370b9fdef5721e37dbd2c57b9a3c"),
        (["sweep", "--experiment", "sbm", "--n", "20", "--alpha", "2,6",
          "--beta", "0.5", "--trials", "5", "--cross-check"],
         "f57f739820251b552e5c9f733cd10e0266df2853bb32cc817cc6467aa7eb3097"),
        (["sweep", "--experiment", "z2er", "--n", "20", "--p", "0.6",
          "--eps", "0.05,0.3", "--trials", "5"],
         "bc7a15f853d45eec621687842a350f18f49292bc551e8394118661e24c03a3f5"),
        (["sweep", "--experiment", "z2er", "--n", "20", "--p", "0.6",
          "--eps", "0.05,0.3", "--trials", "5", "--cross-check"],
         "b5702382df006fe301097930a25ed022ffde83b0b0f3d92d5bd39555d990a4d4"),
        (["sweep", "--experiment", "z2gauss", "--n", "20",
          "--sigma-factor", "0.5,1.5", "--trials", "5"],
         "e207c66371b696bfcc53fd89e54c2cf554e477e0c74e38c058dbecf35962b968"),
        (["sweep", "--experiment", "z2gauss", "--n", "20",
          "--sigma-factor", "0.5,1.5", "--trials", "5", "--cross-check"],
         "0b6f04d69aa0b24c862f8f3c8b2fe415688d10e55ad50c9fe85c818b288299c4"),
        (["sweep", "--experiment", "normbound", "--n", "20", "--p", "0.3",
          "--t-factor", "1,3", "--trials", "5"],
         "ee8dc49d84bf989ce5042ae08c848996279842009861fa033483c587bdec0bd9"),
        (["ratio", "--ensemble", "wigner-neg-laplacian", "--n", "10,20",
          "--trials", "5"],
         "b30711ea45037d3e025f3bae7ce5d4800aa4595d79a2b57577efe20b06defbe4"),
        (["ratio", "--ensemble", "centered-er", "--n", "20", "--rho", "2",
          "--trials", "5"],
         "78cc2701d067ffc2c442d7da7c883acadb6830b804c67b9feb290675a6e94559"),
        (["ratio", "--ensemble", "centered-sbm", "--n", "40", "--alpha", "9",
          "--beta", "1", "--trials", "5"],
         "38aa96727900aaa4836ec25aedefe270de9b3cd47fbddee625c6be79ec2ba9b9"),
    ], ids=["er", "sbm", "sbm-xcheck", "z2er", "z2er-xcheck", "z2gauss",
            "z2gauss-xcheck", "normbound", "ratio-wigner", "ratio-centered-er",
            "ratio-centered-sbm"])
    def test_csv_and_meta(self, tmp_path, monkeypatch, argv, digest):
        # A relative --out keeps the path echoed in the meta file fixed.
        monkeypatch.chdir(tmp_path)
        assert cli_main([*argv, "--seed", "7", "--out", "out.csv"]) == 0
        data = (tmp_path / "out.csv").read_bytes() + (tmp_path / "out.meta.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


_CERTIFY_ARGV = {
    "er": ["--n", "30", "--p", "0.15"],
    "sbm": ["--n", "30", "--p", "0.6", "--q", "0.1"],
    "z2er": ["--n", "30", "--p", "0.5", "--eps", "0.1"],
    "z2gauss": ["--n", "30", "--sigma", "1.5"],
}


class TestCliDigests:
    """stdout of ``certify`` and ``tail`` pinned byte for byte, so a change
    in how a sample or a query is carried cannot change what is printed."""

    @pytest.mark.parametrize("model, seed, digest", [
        ("er", 1, "17a2308912ffcc6be2dd0bd66b0c1eadc292e75a3d2f7396541d776dc79bc39a"),
        ("er", 2, "3e0e0568017b52ecd0ff34f1cd1ea6a865f380b84df4a264f8a7b5469e2d8edd"),
        ("er", 3, "3e0e0568017b52ecd0ff34f1cd1ea6a865f380b84df4a264f8a7b5469e2d8edd"),
        ("sbm", 1, "4632169388c157323beb9a04b4d08ef3cf12657d5c33f287a95a1f0b6d19a824"),
        ("sbm", 2, "5bdb5b6965e62c8f0ebb4dc2ecfa91840a687e1c0a25babc086f3c1ddc8276a4"),
        ("sbm", 3, "b5179d4813811da1283f546a8189987bec6e4e972f2891434caf3b26ff26d78f"),
        ("z2er", 1, "94a5c6eec2896b71fc4e36556584ab586f9fb177a8a256d78065eff067554141"),
        ("z2er", 2, "fda298eaa9530f6aa12b8ffe74ef13c6790b0901e69bcb504a4e9f2c5fa55f61"),
        ("z2er", 3, "bf9bb8a6edf5a40e81708a0c17ce409e862ec0b9055e21e7fb963c132ee32b85"),
        ("z2gauss", 1, "f75d2a32739daaead0beab0c77301fecacf2d1de192ef3d97d44738026486baa"),
        ("z2gauss", 2, "7b3300e9dd0b1883eeab0b0861b634529428db47f708a1292d24995da37a29e7"),
        ("z2gauss", 3, "aab20f553179b013f670db1429b724e84b14d0381473a6c6baf94ffdc2d1503a"),
    ])
    def test_certify(self, capsys, model, seed, digest):
        argv = ["certify", "--model", model, *_CERTIFY_ARGV[model], "--seed", str(seed)]
        assert cli_main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["--model", "er", "--rho", "1.5"],
         "92580429741a4b5a319cc177f97f79fd90f1b93d165b66196c375e7051df6948"),
        (["--model", "sbm", "--alpha", "9", "--beta", "1"],
         "406243aed587c335dd2438d2410c4c457cacf0534faddd70c3d16668b06c6a88"),
        (["--model", "z2er", "--n", "100", "--p", "0.5", "--eps", "0.1",
          "--cap-k", "1", "--delta", "0.25"],
         "33a82aab7fb2b05c6cad2f6fbdebddc0cad179dfaeeb6269b9f32943472b2c83"),
        (["--model", "z2gauss", "--n", "400", "--sigma", "1"],
         "d3a51ba125db24d7caa9773ab0a8d19e612fa87d9b5b8ce98481b439b7a493cd"),
        (["--m", "20", "--p", "0.5", "--q", "0.3", "--delta", "2"],
         "ec8ff4c7458c72d476408a7493e04b70702bc1ce77f7a8704e3b690b83fd22ae"),
        (["--m", "20", "--p", "0.5", "--q", "0.3", "--delta", "2",
          "--mc-trials", "500", "--seed", "3"],
         "c895802e0dea37c8406871f7e612e69efcc34bfe3805296dbc48f874dcb2c5b6"),
    ], ids=["er", "sbm", "z2er", "z2gauss", "m", "m-mc"])
    def test_tail(self, capsys, argv, digest):
        assert cli_main(["tail", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: Every experiment at small n, and every ratio ensemble.
_SMALL_RUNS = [
    ["sweep", "--experiment", "er", "--n", "16,24", "--rho", "0.5,1.5", "--trials", "4"],
    ["sweep", "--experiment", "sbm", "--n", "20", "--alpha", "2,6", "--beta", "0.5",
     "--trials", "4", "--cross-check"],
    ["sweep", "--experiment", "z2er", "--n", "20", "--p", "0.6", "--eps", "0.05,0.3",
     "--trials", "4", "--cross-check"],
    ["sweep", "--experiment", "z2gauss", "--n", "20", "--sigma-factor", "0.5,1.5",
     "--trials", "4"],
    ["sweep", "--experiment", "normbound", "--n", "20", "--p", "0.3", "--t-factor", "1,3",
     "--trials", "4"],
    ["ratio", "--ensemble", "wigner-neg-laplacian", "--n", "10,20", "--trials", "4"],
    ["ratio", "--ensemble", "centered-er", "--n", "20", "--rho", "2", "--trials", "4"],
    ["ratio", "--ensemble", "centered-sbm", "--n", "40", "--alpha", "9", "--beta", "1",
     "--trials", "4"],
]


class TestOwningPath:
    """The package wraps the arrays it builds through the owning
    constructors, unchecked. Routed through the validating constructors
    instead, every such array is accepted and bit-equal, and no output byte
    moves."""

    @staticmethod
    def _outputs(capsys) -> list:
        out = []
        for i, argv in enumerate(_SMALL_RUNS):
            assert cli_main([*argv, "--seed", "7", "--out", f"{i}.csv"]) == 0
            out.append(Path(f"{i}.csv").read_bytes() + Path(f"{i}.meta.json").read_bytes())
        for model, argv in _CERTIFY_ARGV.items():
            assert cli_main(["certify", "--model", model, *argv, "--seed", "1"]) == 0
        return out + [capsys.readouterr().out]

    def test_validating_constructors_give_the_same_bytes(self, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.chdir(tmp_path)
        expected = self._outputs(capsys)
        owned = []

        def validated_matrix(cls, a):
            m = SymmetricMatrix(a)
            assert a.dtype == np.float64 and m.array.tobytes() == a.tobytes()
            owned.append(cls)
            return m

        def validated_sample(cls, adjacency, labels=None):
            owned.append(cls)
            return GraphSample(adjacency, labels)

        def validated_instance(cls, y, z, sigma=None):
            owned.append(cls)
            return SyncInstance(y, z, sigma)

        monkeypatch.setattr(SymmetricMatrix, "_owning", classmethod(validated_matrix))
        monkeypatch.setattr(GraphSample, "_owning", classmethod(validated_sample))
        monkeypatch.setattr(SyncInstance, "_owning", classmethod(validated_instance))
        assert self._outputs(capsys) == expected
        assert {SymmetricMatrix, GraphSample, SyncInstance} <= set(owned)


class TestRatioTrialMemory:
    """One ratio trial holds its n x n Laplacian and at most one transient
    n x n buffer. Before each builder filled one buffer and handed it over,
    the three ensembles peaked at 4.18, 5.30 and 3.31 buffers."""

    @pytest.mark.parametrize("ensemble, cell", [
        ("wigner-neg-laplacian", {"n": 400}),
        ("centered-er", {"n": 400, "p": 0.05}),
        ("centered-sbm", {"n": 400, "p": 0.1, "q": 0.02}),
    ])
    def test_peak_is_near_two_buffers(self, ensemble, cell):
        n = cell["n"]
        cfg = SweepConfig(experiment="ratio", n=[n], grids={}, trials=1, master_seed=1,
                          ensemble=ensemble)
        sweeps._eval_ratio(cfg, cell, derive_stream(1, 0), 0)  # warm the caches
        tracemalloc.start()
        try:
            sweeps._eval_ratio(cfg, cell, derive_stream(1, 0), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 8 * n * n


def _fail_to_factorize(layout, uplo, n, data, lda):
    """A dpotrf that fails after scribbling over all it may write: the
    upper triangle and the diagonal of the row-major buffer."""
    a = np.ctypeslib.as_array((ctypes.c_double * (n * n)).from_address(data)).reshape(n, n)
    a[np.triu_indices(n)] = np.nan
    return 1


def _replace_dpotrf(monkeypatch, potrf) -> list:
    """Make eig resolve ``potrf`` (None: nothing) as OpenBLAS's dpotrf, and
    return the list that each such lookup appends to."""
    calls, resolve = [], eig._openblas

    def lookup(name):
        if name != "dpotrf":
            return resolve(name)
        calls.append(1)
        return () if potrf is None else (potrf,)

    monkeypatch.setattr(eig, "_openblas", lookup)
    return calls


_RATIO_RUNS = [
    ["ratio", "--ensemble", "wigner-neg-laplacian", "--n", "10,20,120", "--trials", "5"],
    ["ratio", "--ensemble", "centered-er", "--n", "20,120", "--rho", "2", "--trials", "5"],
    ["ratio", "--ensemble", "centered-sbm", "--n", "40,120", "--alpha", "9", "--beta", "1",
     "--trials", "5"],
]


class TestRatioProof:
    """The ratio trial's lambda_max is a Lanczos value proved by one in-place
    factorization; without it, every trial falls back to eigvalsh."""

    @pytest.mark.parametrize("potrf", [None, _fail_to_factorize], ids=["absent", "fails"])
    @pytest.mark.parametrize("argv", _RATIO_RUNS, ids=["wigner", "centered-er", "centered-sbm"])
    def test_csv_unchanged_without_the_proof(self, tmp_path, monkeypatch, potrf, argv):
        monkeypatch.chdir(tmp_path)
        assert cli_main([*argv, "--seed", "7", "--out", "proved.csv"]) == 0
        calls = _replace_dpotrf(monkeypatch, potrf)
        assert cli_main([*argv, "--seed", "7", "--out", "fallback.csv"]) == 0
        assert calls
        assert Path("proved.csv").read_bytes() == Path("fallback.csv").read_bytes()

    @pytest.mark.parametrize("potrf", [None, _fail_to_factorize], ids=["absent", "fails"])
    def test_fallback_is_eigvalsh_bits(self, monkeypatch, potrf):
        _replace_dpotrf(monkeypatch, potrf)
        cfg = SweepConfig(experiment="ratio", n=[150], grids={}, trials=1, master_seed=3,
                          ensemble="wigner-neg-laplacian")
        seen = []
        ratio_of = sweeps.spectral_diag_ratio

        def capture(l, **kwargs):
            seen.append(l.array.copy())
            return ratio_of(l, **kwargs)

        monkeypatch.setattr(sweeps, "spectral_diag_ratio", capture)
        ratio = sweeps._eval_ratio(cfg, {"n": 150}, derive_stream(3, 0), 0)["ratio"]
        lam = np.linalg.eigvalsh(seen[0])[-1]
        assert ratio == lam / np.diagonal(seen[0]).max()

    def test_workers_give_the_same_bytes_at_n1000(self, tmp_path):
        # forked workers run one BLAS thread, this process its default
        out = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.csv"
            run_sweep(SweepConfig(experiment="ratio", n=[1000], grids={}, trials=4,
                                  master_seed=42, ensemble="wigner-neg-laplacian",
                                  out_path=str(path), workers=workers))
            out.append(path.read_bytes())
        assert out[0] == out[1]


_ACCEPT_RUNS = [
    pytest.param(["sweep", "--experiment", "sbm", "--n", "60,300", "--alpha", "5,10",
                  "--beta", "1", "--trials", "4"], None, id="sbm-absent"),
    pytest.param(["sweep", "--experiment", "z2er", "--n", "80", "--p", "0.5",
                  "--eps", "0.05,0.2", "--trials", "6"], None, id="z2er-absent"),
    pytest.param(["sweep", "--experiment", "z2er", "--n", "80", "--p", "0.5",
                  "--eps", "0.05,0.2", "--trials", "6"], _fail_to_factorize, id="z2er-fails"),
]


@pytest.mark.parametrize("cfg, fallbacks", [
    (SweepConfig(experiment="sbm", n=[300], grids={"alpha": [2.0, 10.0], "beta": [1.0]},
                 trials=20, master_seed=42), 0),
    (SweepConfig(experiment="z2er", n=[120], grids={"p": [0.4], "eps": [0.1, 0.3]},
                 trials=120, master_seed=42, cross_check=True), 80),
], ids=["sbm-n300", "z2er-xcheck"])
def test_spectrum_fallbacks_on_the_bench_grids(monkeypatch, cfg, fallbacks):
    # the trials of the bench's certificate grids that rank_one_side leaves
    # to the n x n spectrum: 0 of 40 and 80 of 240
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    res = run_sweep(cfg)
    assert sum(row["trials"] for row in res.cells) == 2 * cfg.trials
    assert sizes.count(cfg.n[0]) == fallbacks


class TestPositiveDefiniteFallback:
    """rank_one_side's accept and the SBM sufficient condition factorize a
    copy with dpotrf; numpy's Cholesky, where dpotrf is absent, gives the
    same verdicts, and a failed accept leaves the side to the spectrum."""

    @pytest.mark.parametrize("argv, potrf", _ACCEPT_RUNS)
    def test_csv_unchanged(self, tmp_path, monkeypatch, argv, potrf):
        monkeypatch.chdir(tmp_path)
        assert cli_main([*argv, "--seed", "7", "--out", "dpotrf.csv"]) == 0
        calls = _replace_dpotrf(monkeypatch, potrf)
        assert cli_main([*argv, "--seed", "7", "--out", "fallback.csv"]) == 0
        assert calls
        assert Path("dpotrf.csv").read_bytes() == Path("fallback.csv").read_bytes()


class TestGridParsing:
    def test_single_value(self):
        assert _parse_grid("0.5") == [0.5]

    def test_range_inclusive(self):
        assert _parse_grid("2:10:8") == [2.0, 10.0]
        assert _parse_grid("1:2:0.5") == [1.0, 1.5, 2.0]

    def test_comma_list(self):
        assert _parse_grid("500,1000,2000") == [500.0, 1000.0, 2000.0]

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            _parse_grid("1:2:0")

    @pytest.mark.parametrize("text", ["abc", "0.1,x", "0:1:y", ["0.1", "z"], True,
                                      {"p": 1}])
    def test_non_numbers_rejected(self, text):
        with pytest.raises(ConfigError, match="must be a number"):
            _parse_grid(text, "p")

    # An infinite stop is rejected by the same check; it is not run here
    # because without the check the range loop would never end.
    @pytest.mark.parametrize("text", ["nan:1:1", "0:nan:1", "0:1:nan"])
    def test_range_bounds_must_be_finite(self, text):
        with pytest.raises(ConfigError, match="finite"):
            _parse_grid(text)


    def test_range_expansion_capped(self):
        assert len(_parse_grid(f"1:{MAX_GRID_VALUES}:1")) == MAX_GRID_VALUES
        with pytest.raises(ConfigError, match="more than"):
            _parse_grid("0:1:1e-6")

#: One run of each subcommand that reads --seed.
_SEED_RUNS = [
    ["sweep", "--experiment", "z2gauss", "--n", "40", "--sigma-factor", "1", "--trials", "6"],
    ["ratio", "--ensemble", "wigner-neg-laplacian", "--n", "20", "--trials", "2"],
    ["certify", "--model", "z2gauss", "--n", "40", "--sigma", "1"],
    ["tail", "--m", "20", "--p", "0.5", "--q", "0.3", "--delta", "2", "--mc-trials", "50"],
]


class TestCli:
    def test_tail_sbm_margin(self, capsys):
        assert cli_main(["tail", "--model", "sbm", "--alpha", "9", "--beta", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("margin 0.585786438")

    def test_tail_exact(self, capsys):
        code = cli_main(
            ["tail", "--m", "2", "--p", "0.5", "--q", "0.5", "--delta", "0",
             "--mc-trials", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t_exact 0.6875" in out
        assert "t_mc " in out

    def test_tail_mc_draws_capped_before_any_draw(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the Monte Carlo tail ran")

        monkeypatch.setattr(cli, "bernoulli_diff_tail_mc", no_draw)
        argv = ["tail", "--m", "1000", "--p", "0.5", "--q", "0.3", "--delta", "2",
                "--mc-trials", str(MAX_TAIL_MC_DRAWS // 1000 + 1)]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error")] == [
            f"error: --m x --mc-trials must be at most {MAX_TAIL_MC_DRAWS}, "
            f"got {MAX_TAIL_MC_DRAWS + 1000}"]
        monkeypatch.setattr(cli, "bernoulli_diff_tail_mc", lambda *args: (0.5, 0.01))
        argv[-1] = str(MAX_TAIL_MC_DRAWS // 1000)
        assert cli_main(argv) == 0
        assert "t_mc 0.5" in capsys.readouterr().out

    def test_sweep_er(self, tmp_path, capsys):
        path = tmp_path / "er.csv"
        code = cli_main(
            ["sweep", "--experiment", "er", "--n", "4", "--p", "1",
             "--trials", "1", "--seed", "1", "--out", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["freq_connected"] == "1"

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["sweep", "--bogus", "1"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 1

    def test_certify_sbm(self, capsys):
        code = cli_main(
            ["certify", "--model", "sbm", "--n", "40", "--p", "0.6",
             "--q", "0.05", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tight 1" in out

    def test_eig_path_graph(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("3\n1 -1 0\n-1 2 -1\n0 -1 1\n")
        assert cli_main(["eig", str(f)]) == 0
        vals = [float(v) for v in capsys.readouterr().out.split()]
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-10)

    def test_eig_vectors_prints_the_residual(self, tmp_path, capsys):
        # the largest column residual ||M v - lambda v||_2, on stderr
        f = tmp_path / "m.txt"
        f.write_text("3\n1 -1 0\n-1 2 -1\n0 -1 1\n")
        assert cli_main(["eig", "--vectors", str(f)]) == 0
        out, err = capsys.readouterr()
        assert len(out.split()) == 3
        word, value = err.split()
        assert word == "residual" and 0.0 <= float(value) <= 1e-14

    def test_eig_asymmetric_warns(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("2\n0 1\n0.5 0\n")
        assert cli_main(["eig", str(f)]) == 0
        assert "asymmetry" in capsys.readouterr().err

    def test_eig_asymmetric_file_is_averaged_with_its_transpose(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("2\n0 1\n3 0\n")
        assert cli_main(["eig", str(f)]) == 0
        out, err = capsys.readouterr()
        assert out == "-2\n2\n" and err.count("warning: asymmetry 2 ") == 1

    def test_eig_missing_file_exits_two(self, capsys):
        assert cli_main(["eig", "/nonexistent/matrix.txt"]) == 2

    def test_out_into_a_missing_directory_exits_two_before_any_trial(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(sweeps, "_eval_trial", lambda args: calls.append(args))
        out = tmp_path / "missing" / "x.csv"
        assert cli_main(["sweep", "--experiment", "er", "--n", "2000", "--rho", "1",
                         "--trials", "60", "--out", str(out)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("out, directory", [
        ("x", "x"), ("x.csv", "x.meta.json"), ("x.dat", "x.dat.meta.json")])
    def test_out_naming_a_directory_exits_two_before_any_trial(
            self, tmp_path, monkeypatch, capsys, out, directory):
        # --out itself, or the meta JSON written beside it, is a directory
        calls = []
        monkeypatch.setattr(sweeps, "_eval_trial", lambda args: calls.append(args))
        (tmp_path / directory).mkdir()
        assert cli_main(["sweep", "--experiment", "er", "--n", "20", "--rho", "1",
                         "--trials", "3", "--out", str(tmp_path / out)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err == f"io error: cannot write {tmp_path / directory}: it is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == [directory]
        assert list((tmp_path / directory).iterdir()) == []

    def test_bad_matrix_file_exits_one(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("3\n1 2\n")
        assert cli_main(["eig", str(f)]) == 1

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_eig_non_finite_entry_exits_one(self, tmp_path, capsys, entry):
        f = tmp_path / "m.txt"
        f.write_text(f"2\n1 {entry}\n{entry} 1\n")
        assert cli_main(["eig", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"error: {f}: matrix entries must be finite"
        assert "Traceback" not in err

    def test_nonconvergence_maps_to_three(self, tmp_path, monkeypatch, capsys):
        def boom(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        f = tmp_path / "m.txt"
        f.write_text("1\n5\n")
        assert cli_main(["eig", str(f)]) == 3
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--workers"])
    def test_zero_count_exits_one(self, tmp_path, flag, capsys):
        out = tmp_path / "er.csv"
        code = cli_main(["sweep", "--experiment", "er", "--n", "4", "--p", "1",
                         flag, "0", "--out", str(out)])
        assert code == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_odd_sbm_n_exits_one(self, capsys):
        code = cli_main(["sweep", "--experiment", "sbm", "--n", "301",
                         "--alpha", "9", "--beta", "1"])
        assert code == 1
        assert "even n" in capsys.readouterr().err

    def test_z2er_eps_out_of_range_exits_one(self, capsys):
        code = cli_main(["sweep", "--experiment", "z2er", "--n", "40",
                         "--p", "0.5", "--eps", "0.7"])
        assert code == 1
        assert "eps=0.7" in capsys.readouterr().err

    def test_model_value_error_exits_one(self, capsys):
        code = cli_main(["certify", "--model", "sbm", "--n", "31", "--p", "0.5",
                         "--q", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "even node count" in err

    def test_ratio_centered_er_without_p_exits_one(self, capsys):
        code = cli_main(["ratio", "--ensemble", "centered-er", "--n", "30"])
        assert code == 1
        err = capsys.readouterr().err
        assert "needs a p or rho grid" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("trials", "abc"), ("trials", 2.5), ("trials", True), ("workers", "x"),
        ("seed", "abc"), ("seed", [1]), ("n", "abc"), ("n", 20.5), ("p", "abc"),
        ("rank-k", "two"), ("tau", "small"), ("tau", float("nan")),
        ("tau", float("inf")), ("tau", -1), ("rank-k", 0), ("rank-k", -3),
    ])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, key, value):
        opts = {"experiment": "er", "n": 4, "p": 1, "trials": 1}
        opts[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(opts))
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("opts, message", [
        ({"experiment": "er", "n": 4, "p": 1, "trails": 0}, "unknown key 'trails'"),
        ([{"experiment": "er", "n": 4, "p": 1}], "must be a JSON object"),
    ])
    def test_unknown_config_key_exits_one(self, tmp_path, capsys, opts, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(opts))
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, message", [
        ("sweep", "experiment", ["er"], "experiment must be a string"),
        ("ratio", "ensemble", ["wigner-neg-laplacian"], "ensemble must be a string"),
        ("sweep", "out", 5, "out must be a path"),
        ("sweep", "out", "", "out must be a path"),
        ("sweep", "cross-check", "false", "cross-check must be true or false"),
        ("sweep", "config", "other.json", "key 'config' is not read"),
    ], ids=["experiment-list", "ensemble-list", "out-number", "out-empty",
            "cross-check-string", "config-in-config"])
    def test_config_value_of_a_wrong_type_exits_one(self, tmp_path, monkeypatch, capsys,
                                                    command, key, value, message):
        # neither a traceback nor a silent substitute, and no file written
        def no_trials(args):
            raise AssertionError("a trial ran before the config was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        monkeypatch.chdir(tmp_path)
        opts = {"n": 20, "trials": 2, "out": "out.csv"}
        opts.update({"ensemble": "wigner-neg-laplacian"} if command == "ratio" else
                    {"experiment": "z2er", "p": 0.5, "eps": 0.1})
        opts[key] = value
        Path("cfg.json").write_text(json.dumps(opts))
        assert cli_main([command, "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("over", [
        {"experiment": ["z2er"]}, {"ensemble": ["wigner-neg-laplacian"]},
        {"out_path": 5}, {"cross_check": "false"}, {"cross_check": 1},
    ], ids=["experiment-list", "ensemble-list", "out-number", "cross-check-string",
            "cross-check-int"])
    def test_python_api_refuses_a_wrong_type(self, over):
        cfg = SweepConfig(experiment="z2er", n=[20], grids={"p": [0.5], "eps": [0.1]},
                          trials=1, master_seed=1)
        with pytest.raises(ConfigError, match="must be"):
            run_sweep(dataclasses.replace(cfg, **over))

    @pytest.mark.parametrize("argv, axis", [
        (["sweep", "--experiment", "er", "--n", "4", "--p", "1", "--sigma", "3"],
         "sigma"),
        (["sweep", "--experiment", "z2gauss", "--n", "20", "--sigma", "1",
          "--t-factor", "2"], "t-factor"),
        (["sweep", "--experiment", "er", "--n", "10", "--rho", "1", "--ensemble", "foo",
          "--tau", "0.1", "--rank-k", "3", "--cross-check"], "ensemble"),
        (["sweep", "--experiment", "sbm", "--n", "20", "--alpha", "6", "--beta", "1",
          "--ensemble", "centered-sbm"], "ensemble"),
        (["sweep", "--experiment", "er", "--n", "10", "--rho", "1", "--tau", "0.1"], "tau"),
        (["sweep", "--experiment", "normbound", "--n", "20", "--p", "0.3",
          "--rank-k", "3"], "rank-k"),
        (["sweep", "--experiment", "ratio", "--ensemble", "wigner-neg-laplacian",
          "--n", "20", "--cross-check"], "cross-check"),
        (["certify", "--model", "sbm", "--n", "20", "--p", "0.6", "--q", "0.1",
          "--sigma", "3"], "sigma"),
        (["certify", "--model", "er", "--n", "20", "--p", "0.3", "--q", "0.3"], "q"),
        (["certify", "--model", "z2gauss", "--n", "20", "--sigma", "1", "--eps", "0.1"],
         "eps"),
        (["certify", "--model", "z2er", "--n", "20", "--p", "0.5", "--eps", "0.1",
          "--q", "0.2"], "q"),
        (["sweep", "--experiment", "z2er", "--n", "20", "--p", "0.5", "--eps", "0.1",
          "--rank-k", "3"], "rank-k"),
    ])
    def test_axis_the_experiment_does_not_read_exits_one(self, tmp_path, monkeypatch,
                                                          capsys, argv, axis):
        def no_trials(args):
            raise AssertionError("a trial ran before the flags were checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        out = tmp_path / "out.csv"
        extra = ["--out", str(out)] if argv[0] == "sweep" else []
        assert cli_main([*argv, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and f"--{axis} is not" in captured.err
        assert not out.exists() and not (tmp_path / "out.meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--experiment", "er", "--n", "20", "--rho", "2", "--p", "0.01"],
        ["sweep", "--experiment", "sbm", "--n", "20", "--alpha", "6", "--beta", "1",
         "--p", "0.9", "--q", "0.05"],
        ["sweep", "--experiment", "z2gauss", "--n", "20", "--sigma", "1",
         "--sigma-factor", "5"],
        ["sweep", "--experiment", "z2er", "--n", "20", "--p", "0.5", "--rho", "1",
         "--eps", "0.1"],
        ["ratio", "--ensemble", "centered-er", "--n", "20", "--rho", "2", "--p", "0.1"],
    ], ids=["er", "sbm", "z2gauss", "z2er", "ratio-centered-er"])
    def test_alternative_axes_given_together_exit_one(self, tmp_path, monkeypatch,
                                                       capsys, argv):
        # neither axis may silently replace the other
        def no_trials(args):
            raise AssertionError("a trial ran before the cell was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        out = tmp_path / "out.csv"
        assert cli_main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "not both" in err
        assert not out.exists() and not (tmp_path / "out.meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--experiment", "z2gauss", "--n", "1", "--sigma", "1"],
        ["sweep", "--experiment", "normbound", "--n", "1", "--p", "0.5"],
        ["sweep", "--experiment", "er", "--n", "1", "--p", "0.5"],
        ["sweep", "--experiment", "er", "--n", "1", "--rho", "0.5"],
        ["ratio", "--ensemble", "wigner-neg-laplacian", "--n", "1"],
        ["ratio", "--ensemble", "centered-er", "--n", "1", "--p", "0.5"],
        ["sweep", "--experiment", "z2er", "--n", "1", "--rho", "1", "--eps", "0.1"],
    ])
    def test_n_one_exits_one(self, tmp_path, monkeypatch, capsys, argv):
        def no_trials(args):
            raise AssertionError("a trial ran before the cell was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        out = tmp_path / "out.csv"
        assert cli_main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "needs n >= 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_factor_is_named_exits_one(self, monkeypatch, capsys, value):
        def no_trials(args):
            raise AssertionError("a trial ran before the cell was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        assert cli_main(["sweep", "--experiment", "z2gauss", "--n", "20",
                         "--sigma-factor", value, "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"error: sigma_factor must be finite, got {value}"

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "sbm", "--n", "40", "--alpha", "10", "--beta", "1",
          "--tau", "nan"], "tau must be"),
        (["--experiment", "sbm", "--n", "40", "--alpha", "10", "--beta", "1",
          "--tau", "inf"], "tau must be"),
        (["--experiment", "sbm", "--n", "40", "--alpha", "10", "--beta", "1",
          "--tau", "-1"], "tau must be"),
        (["--experiment", "z2er", "--n", "30", "--p", "0.5", "--eps", "0.1",
          "--cross-check", "--rank-k", "0"], "rank-k must be"),
        (["--experiment", "z2er", "--n", "30", "--p", "0.5", "--eps", "0.1",
          "--cross-check", "--rank-k", "-3"], "rank-k must be"),
        (["--experiment", "normbound", "--n", "20", "--p", "0.3", "--t-factor", "-1"],
         "t_factor must be"),
        (["--experiment", "normbound", "--n", "20", "--p", "0.3", "--t-factor", "nan"],
         "t_factor must be"),
        (["--experiment", "z2er", "--n", "20", "--p", "0.5", "--eps", "0.1",
          "--cross-check", "--rank-k", "5000"], "rank-k must be an integer in [2, 20]"),
        (["--experiment", "z2er", "--n", "40,20", "--p", "0.5", "--eps", "0.1",
          "--cross-check", "--rank-k", "41"], "rank-k must be an integer in [2, 40]"),
    ])
    def test_bad_tau_or_rank_flag_exits_one(self, tmp_path, monkeypatch, capsys,
                                            argv, message):
        def no_trials(args):
            raise AssertionError("a trial ran before the config was checked")

        monkeypatch.setattr(sweeps, "_eval_trial", no_trials)
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", *argv, "--trials", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["certify", "--model", "er", "--n", "0", "--p", "0.5"],
        ["certify", "--model", "er", "--n", "-3", "--p", "0.5"],
        ["certify", "--model", "z2er", "--n", "0", "--p", "0.5", "--eps", "0.1"],
        ["certify", "--model", "z2er", "--n", "-3", "--p", "0.5", "--eps", "0.1"],
        ["certify", "--model", "z2gauss", "--n", "0", "--sigma", "1"],
        ["certify", "--model", "z2gauss", "--n", "20", "--sigma", "nan"],
        ["certify", "--model", "z2gauss", "--n", "20", "--sigma", "-1"],
        ["tail", "--model", "sbm", "--alpha", "nan", "--beta", "1"],
        ["tail", "--model", "er", "--rho", "nan"],
        ["tail", "--model", "z2gauss", "--n", "100", "--sigma", "nan"],
        ["tail", "--model", "z2er", "--n", "100", "--p", "0.5", "--eps", "0.1",
         "--cap-k", "nan"],
        ["tail", "--model", "z2er", "--n", "100", "--p", "0.5", "--eps", "0.1",
         "--delta", "inf"],
        ["tail", "--m", "2", "--p", "0.5", "--q", "0.5", "--delta", "0",
         "--mc-trials", "0"],
        ["tail", "--m", "2", "--p", "0.5", "--q", "0.5", "--delta", "nan"],
        ["tail", "--m", "2", "--p", "0.5", "--q", "0.5", "--delta", "0",
         "--model", "sbm", "--alpha", "nan", "--beta", "1"],
        ["tail", "--model", "z2er", "--n", "100", "--p", "0.5", "--eps", "0.1",
         "--delta", "-5"],
        ["tail", "--model", "z2er", "--n", "100", "--p", "0.5", "--eps", "0.1",
         "--cap-k", "-100"],
        ["tail", "--model", "er", "--rho", "1", "--sigma", "3", "--eps", "0.2"],
        ["tail", "--model", "er", "--rho", "1", "--n", "100"],
        ["tail", "--model", "sbm", "--alpha", "9", "--beta", "1", "--delta", "0.5"],
        ["tail", "--model", "z2gauss", "--n", "100", "--sigma", "1", "--mc-trials", "10"],
        ["tail", "--m", "2", "--p", "0.5", "--q", "0.5", "--delta", "0", "--eps", "0.1"],
        ["tail", "--m", "2", "--p", "0.5", "--q", "0.5", "--delta", "0",
         "--model", "z2er", "--n", "100", "--eps", "0.1", "--sigma", "1"],
        ["tail", "--m", "10001", "--p", "0.5", "--q", "0.5", "--delta", "0"],
    ])
    def test_bad_certify_or_tail_input_exits_one(self, capsys, argv):
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, axis", [
        (["--ensemble", "wigner-neg-laplacian", "--n", "20", "--p", "0.3"], "p"),
        (["--ensemble", "centered-er", "--n", "20", "--p", "0.3", "--alpha", "2"],
         "alpha"),
        (["--ensemble", "centered-sbm", "--n", "20", "--alpha", "2", "--beta", "1",
          "--rho", "3"], "rho"),
    ])
    def test_axis_the_ratio_ensemble_does_not_read_exits_one(self, tmp_path, capsys,
                                                             argv, axis):
        out = tmp_path / "out.csv"
        assert cli_main(["ratio", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"--{axis} is not an axis" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize("argv", _SEED_RUNS, ids=["sweep", "ratio", "certify", "tail"])
    def test_seed_outside_64_bits_exits_one_before_any_work(self, monkeypatch, capsys,
                                                            argv, seed):
        # streams are keyed by the seed modulo 2^64: -1 would answer for
        # 2^64 - 1 and 2^64 for 0
        calls = []
        monkeypatch.setattr(sweeps, "_eval_trial", lambda args: calls.append(args))
        monkeypatch.setattr(cli, "derive_stream", lambda *args: calls.append(args))
        assert cli_main([*argv, "--seed", str(seed)]) == 1
        assert calls == []
        out, err = capsys.readouterr()
        assert out == "" and f"error: seed must be in [0, 2^64), got {seed}\n" in err

    def test_seed_outside_64_bits_in_a_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "er", "n": 4, "p": 1, "seed": -1}))
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "seed must be in [0, 2^64), got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("argv", _SEED_RUNS, ids=["sweep", "ratio", "certify", "tail"])
    def test_seed_at_either_end_of_64_bits_runs(self, capsys, argv, seed):
        assert cli_main([*argv, "--seed", str(seed)]) == 0
        assert capsys.readouterr().err == ""

    def test_non_integer_n_flag_exits_one(self, capsys):
        code = cli_main(["sweep", "--experiment", "er", "--n", "20.5", "--p", "1"])
        assert code == 1
        assert "n must be an integer, got 20.5" in capsys.readouterr().err

    def test_whole_number_values_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "er", "n": [4.0, "6"], "p": 1,
                                   "trials": 2.0, "seed": "5", "workers": 1}))
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == [
            "4", "6"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "er", "n": "4", "p": "0", "trials": 1, "seed": 5,
            "workers": None,
        }))
        out = tmp_path / "out.csv"
        code = cli_main(
            ["sweep", "--config", str(cfg), "--p", "1", "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        header = out.read_text().splitlines()[0].split(",")
        assert dict(zip(header, row))["freq_connected"] == "1"

    def test_huge_sigma_sweep_warns_of_nothing(self, tmp_path, capsys):
        # at sigma = 1e200 the noise overflows any norm of D - Y, which no
        # report computes: the run exits 0, raises no RuntimeWarning (an
        # error in this suite) and writes nothing to stderr
        assert cli_main(["sweep", "--experiment", "z2gauss", "--n", "20",
                         "--sigma", "1e200", "--trials", "3",
                         "--out", str(tmp_path / "out.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_module_invocation(self, tmp_path):
        # python -m lapcert works against the src layout
        proc = subprocess.run(
            [sys.executable, "-m", "lapcert", "tail", "--model", "er",
             "--rho", "1"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "margin 0"
