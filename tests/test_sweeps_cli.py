import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lapcert import SweepConfig, run_sweep, write_csv
from lapcert import sweeps
from lapcert.cli import cli_main, _parse_grid
from lapcert.errors import ConfigError, IoError
from lapcert.sweeps import SweepResult, _openblas_entries


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


class TestRunSweep:
    def test_er_deterministic_limits(self):
        cfg = SweepConfig(
            experiment="er", n=[4], grids={"p": [0.0, 1.0]}, trials=1, master_seed=1
        )
        res = run_sweep(cfg)
        assert [c.freq_connected for c in res.cells] == [0.0, 1.0]
        assert [c.freq_isolated for c in res.cells] == [1.0, 0.0]

    def test_cell_order_lexicographic(self):
        cfg = SweepConfig(
            experiment="sbm",
            n=[10, 12],
            grids={"alpha": [2.0, 4.0], "beta": [1.0]},
            trials=1,
            master_seed=0,
        )
        res = run_sweep(cfg)
        got = [(c.params["n"], c.params["alpha"]) for c in res.cells]
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
            assert 0.0 <= c.freq_certified <= 1.0
            assert c.freq_certified + c.freq_boundary <= 1.0 + 1e-12

    def test_monotone_in_signal(self):
        cfg = SweepConfig(
            experiment="sbm",
            n=[60],
            grids={"alpha": [2.0, 6.0, 12.0], "beta": [1.0]},
            trials=30,
            master_seed=7,
        )
        res = run_sweep(cfg)
        freqs = [c.freq_certified for c in res.cells]
        slack = 3.0 * math.sqrt(0.25 / 30)
        assert all(b >= a - slack for a, b in zip(freqs, freqs[1:]))

    def test_sbm_cross_check_counts(self):
        cfg = sbm_config(cross_check=True, trials=4)
        res = run_sweep(cfg)
        for c in res.cells:
            assert c.bm_disagreements == 0

    def test_z2gauss_cells(self):
        cfg = SweepConfig(
            experiment="z2gauss",
            n=[30],
            grids={"sigma_factor": [0.3, 3.0]},
            trials=10,
            master_seed=3,
        )
        res = run_sweep(cfg)
        assert res.cells[0].freq_certified >= 0.9
        assert res.cells[1].freq_certified <= 0.1
        assert res.cells[0].params["sigma_star"] == pytest.approx(
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
        assert res.cells[0].freq_certified >= 0.9
        assert res.cells[0].freq_oracle_block <= 0.1
        assert res.cells[1].freq_oracle_block >= 0.5

    def test_normbound_cells(self):
        cfg = SweepConfig(
            experiment="normbound",
            n=[80],
            grids={"p": [0.1]},
            trials=10,
            master_seed=9,
        )
        res = run_sweep(cfg)
        assert res.cells[0].freq_bound_holds == 1.0

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
            assert c.n_degenerate == 0
            assert c.mean_ratio >= 1.0
            assert c.q95_ratio >= c.median_ratio >= 1.0

    def test_ratio_degenerate_small_n(self):
        # at n = 2 roughly half the draws have no positive diagonal entry;
        # those count as degenerate and the rest still satisfy ratio >= 1
        cfg = SweepConfig(
            experiment="ratio", n=[2], grids={}, trials=40, master_seed=13,
            ensemble="wigner-neg-laplacian",
        )
        cell = run_sweep(cfg).cells[0]
        assert 0 < cell.n_degenerate < 40
        assert cell.min_ratio >= 1.0
        assert math.isfinite(cell.mean_ratio)

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

    def test_ratio_centered_er_rho_and_p_agree(self):
        n = 60
        p = 2.0 * math.log(n) / n
        cells = [
            run_sweep(SweepConfig(experiment="ratio", n=[n], ensemble="centered-er",
                                  grids=grids, trials=3, master_seed=4)).cells[0]
            for grids in ({"rho": [2.0]}, {"p": [p]})
        ]
        assert cells[0].mean_ratio == cells[1].mean_ratio

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        getters = list(_openblas_entries("get"))
        if not getters:
            pytest.skip("no OpenBLAS get_num_threads symbol in this process")
        before = [get() for get in getters]

        # Runs inside the forked workers in place of the union-find oracle:
        # a trial counts as "connected" when its worker has one BLAS thread.
        def one_thread(g):
            return all(get() == 1 for get in _openblas_entries("get"))

        monkeypatch.setattr(sweeps, "connectivity_unionfind", one_thread)
        cfg = SweepConfig(experiment="er", n=[8], grids={"p": [0.5]}, trials=8,
                          master_seed=1, workers=2)
        assert run_sweep(cfg).cells[0].freq_connected == 1.0
        assert [get() for get in getters] == before


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
            assert float(row["freq_certified"]) == cell.freq_certified
            assert float(row["freq_oracle_block"]) == cell.freq_oracle_block

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

    def test_eig_asymmetric_warns(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("2\n0 1\n0.5 0\n")
        assert cli_main(["eig", str(f)]) == 0
        assert "asymmetry" in capsys.readouterr().err

    def test_eig_missing_file_exits_two(self, capsys):
        assert cli_main(["eig", "/nonexistent/matrix.txt"]) == 2

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
        ("rank-k", "two"), ("tau", "small"),
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
