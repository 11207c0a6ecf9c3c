"""Deterministic Monte Carlo sweeps over parameter grids.

Each trial is addressed by stream_id = cell_index * 2^32 + trial_index, so
results are byte-identical regardless of how trials are scheduled across
workers. Aggregation fills per-trial slots by index and reduces in order.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .certificates import (
    certify_sbm,
    certify_z2sync,
    connectivity_unionfind,
    flip_oracle_sbm,
    flip_oracle_z2,
    norm_bound_check,
    sbm_sufficient_condition,
    spectral_diag_ratio,
)
from .eig import SymmetricMatrix
from .ensembles import (
    derive_stream,
    ensemble_profile,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    sample_z2sync_gaussian,
)
from .errors import ConfigError, IoError, NonPositiveDiagonalMax
from .laplacians import centered_laplacian, laplacian_of, partition_gap_matrix, signed_adjacency
from .sdp import bm_solve, default_rank
from .tails import ThresholdQuery, threshold_margin

EXPERIMENTS = ("er", "z2gauss", "z2er", "sbm", "ratio", "normbound")
RATIO_ENSEMBLES = ("wigner-neg-laplacian", "centered-er", "centered-sbm")

_TRIAL_STRIDE = 1 << 32
_BM_LANE = 1 << 62
_BM_RESTART_LANE = 1 << 63


@dataclass(frozen=True)
class SweepConfig:
    """Grid, trial count and seed for one experiment.

    ``grids`` maps axis names to value lists in declaration order; cells
    enumerate the cartesian product of (n, *grids) lexicographically.
    ``workers`` only affects scheduling, never output.
    """

    experiment: str
    n: Sequence[int]
    grids: dict
    trials: int
    master_seed: int
    out_path: Optional[str] = None
    ensemble: Optional[str] = None
    rank_k: Optional[int] = None
    tau: Optional[float] = None
    cross_check: bool = False
    workers: int = 1


@dataclass(frozen=True)
class PhaseCell:
    """Aggregated outcome of all trials at one grid point."""

    params: dict
    trials: int
    predicted_margin: Optional[float] = None
    freq_certified: Optional[float] = None
    freq_boundary: Optional[float] = None
    freq_oracle_block: Optional[float] = None
    freq_connected: Optional[float] = None
    freq_isolated: Optional[float] = None
    freq_sufficient: Optional[float] = None
    sufficiency_violations: Optional[int] = None
    bm_disagreements: Optional[int] = None
    freq_bound_holds: Optional[float] = None
    mean_ratio: Optional[float] = None
    median_ratio: Optional[float] = None
    q95_ratio: Optional[float] = None
    min_ratio: Optional[float] = None
    c1_surrogate: Optional[float] = None
    n_degenerate: Optional[int] = None


@dataclass(frozen=True)
class SweepResult:
    cells: list
    config: SweepConfig
    version: str = __version__
    wall_time: float = 0.0


_SCHEMAS = {
    "er": [
        "n", "rho", "p", "trials", "predicted_margin",
        "freq_connected", "freq_isolated",
    ],
    "z2gauss": [
        "n", "sigma", "sigma_star", "trials", "predicted_margin",
        "freq_certified", "freq_boundary", "bm_disagreements",
    ],
    "z2er": [
        "n", "p", "eps", "trials", "predicted_margin",
        "freq_certified", "freq_boundary", "freq_oracle_block",
        "bm_disagreements",
    ],
    "sbm": [
        "n", "alpha", "beta", "p", "q", "trials", "predicted_margin",
        "freq_certified", "freq_boundary", "freq_oracle_block",
        "freq_sufficient", "sufficiency_violations", "bm_disagreements",
    ],
    "ratio": [
        "n", "ensemble", "trials", "n_degenerate",
        "mean_ratio", "median_ratio", "q95_ratio", "min_ratio", "c1_surrogate",
    ],
    "normbound": [
        "n", "p", "t_factor", "t_value", "sigma", "sigma_inf", "trials",
        "freq_bound_holds",
    ],
}


def _sigma_star(n: int) -> float:
    return math.sqrt(n / (2.0 * math.log(n)))


def _expand_cells(cfg: SweepConfig) -> list:
    """Resolve the grid product into per-cell parameter dicts."""
    cells = []
    axes = list(cfg.grids.items())

    def rec(i: int, acc: dict):
        if i == len(axes):
            cells.append(dict(acc))
            return
        name, values = axes[i]
        for v in values:
            acc[name] = v
            rec(i + 1, acc)
            del acc[name]

    for n in cfg.n:
        rec(0, {"n": int(n)})
    return [_resolve_cell(cfg, c) for c in cells]


def _resolve_cell(cfg: SweepConfig, cell: dict) -> dict:
    n = cell["n"]
    exp = cfg.experiment
    logn = math.log(n) if n > 1 else float("nan")
    out = dict(cell)
    if exp == "er":
        _resolve_p(out, logn, "er experiment")
        if "rho" not in cell:
            out["rho"] = cell["p"] * n / logn
        out["margin"] = threshold_margin(
            ThresholdQuery("er_connectivity", {"rho": out["rho"]})
        )
    elif exp == "sbm":
        _check_even(n, "sbm")
        if "alpha" in cell and "beta" in cell:
            out["p"] = cell["alpha"] * logn / n
            out["q"] = cell["beta"] * logn / n
        elif "p" in cell and "q" in cell:
            out["alpha"] = cell["p"] * n / logn
            out["beta"] = cell["q"] * n / logn
        else:
            raise ConfigError("sbm experiment needs (alpha, beta) or (p, q) grids")
        _check_resolved_probs(out, ("p", "q"))
        out["margin"] = threshold_margin(
            ThresholdQuery("sbm", {"alpha": out["alpha"], "beta": out["beta"]})
        )
    elif exp == "z2gauss":
        star = _sigma_star(n)
        if "sigma" in cell:
            out["sigma"] = float(cell["sigma"])
        elif "sigma_factor" in cell:
            out["sigma"] = float(cell["sigma_factor"]) * star
        else:
            raise ConfigError("z2gauss experiment needs a sigma or sigma_factor grid")
        out["sigma_star"] = star
        out["margin"] = threshold_margin(
            ThresholdQuery("z2_gaussian", {"n": n, "sigma": out["sigma"]})
        )
    elif exp == "z2er":
        _resolve_p(out, logn, "z2er experiment")
        if "eps" not in cell:
            raise ConfigError("z2er experiment needs an eps grid")
        if not 0.0 <= cell["eps"] < 0.5:
            raise ConfigError(f"eps={cell['eps']:.6g} outside [0, 1/2)")
        out["margin"] = threshold_margin(
            ThresholdQuery("z2_er", {"n": n, "p": out["p"], "eps": out["eps"]})
        )
    elif exp == "ratio":
        if cfg.ensemble not in RATIO_ENSEMBLES:
            raise ConfigError(f"ratio ensemble must be one of {RATIO_ENSEMBLES}")
        if cfg.ensemble == "centered-er":
            _resolve_p(out, logn, "centered-er ensemble")
        elif cfg.ensemble == "centered-sbm":
            _check_even(n, "centered-sbm")
            if "alpha" not in cell or "beta" not in cell:
                raise ConfigError("centered-sbm ensemble needs alpha and beta grids")
            out["p"] = cell["alpha"] * logn / n
            out["q"] = cell["beta"] * logn / n
            _check_resolved_probs(out, ("p", "q"))
        out["ensemble"] = cfg.ensemble
    elif exp == "normbound":
        if "p" not in cell:
            raise ConfigError("normbound experiment needs a p grid")
        _check_resolved_probs(out, ("p",))
        t_factor = float(cell.get("t_factor", 3.0))
        prof = ensemble_profile("centered-er", n, p=out["p"])
        out["t_factor"] = t_factor
        out["t_value"] = t_factor * prof.sigma_inf * math.sqrt(logn)
        out["sigma"] = prof.sigma
        out["sigma_inf"] = prof.sigma_inf
    else:
        raise ConfigError(f"unknown experiment {exp!r}")
    return out


def _resolve_p(cell: dict, logn: float, what: str) -> None:
    """Set p = rho log(n) / n from a rho axis, or keep the p axis."""
    if "rho" in cell:
        cell["p"] = cell["rho"] * logn / cell["n"]
    elif "p" not in cell:
        raise ConfigError(f"{what} needs a p or rho grid")
    _check_resolved_probs(cell, ("p",))


def _check_resolved_probs(cell: dict, keys) -> None:
    for key in keys:
        if not 0.0 <= cell[key] <= 1.0:
            raise ConfigError(f"resolved {key}={cell[key]:.6g} outside [0, 1]")


def _check_even(n: int, what: str) -> None:
    if n < 2 or n % 2:
        raise ConfigError(f"{what} needs an even n >= 2, got n={n}")


def _bm_recovers(y: SymmetricMatrix, truth: np.ndarray, seed: int, sid: int,
                 rank_k: Optional[int]) -> bool:
    """Solve + round + dual-verify; one restart with a fresh stream allowed."""
    k = rank_k if rank_k is not None else default_rank(y.n)
    for lane in (_BM_LANE, _BM_RESTART_LANE):
        _, report = bm_solve(y, derive_stream(seed, lane | sid), k=k)
        agrees = bool(
            np.array_equal(report.rounded_x, truth)
            or np.array_equal(report.rounded_x, -truth)
        )
        if agrees and report.dual.feasible:
            return True
    return False


def _eval_trial(args) -> tuple:
    """Run one (cell, trial) and return its record; pure in (cfg, indices)."""
    cfg, cell_idx, cell, trial = args
    sid = cell_idx * _TRIAL_STRIDE + trial
    rng = derive_stream(cfg.master_seed, sid)
    exp = cfg.experiment
    n = cell["n"]
    tau_kw = {} if cfg.tau is None else {"tau": cfg.tau}
    if exp == "er":
        g = sample_er(n, cell["p"], rng)
        rec = {
            "connected": connectivity_unionfind(g),
            "isolated": not g.adjacency.any(axis=1).all(),
        }
    elif exp == "sbm":
        g = sample_sbm(n, cell["p"], cell["q"], rng)
        rep = certify_sbm(g, **tau_kw)
        verdict = flip_oracle_sbm(g)
        suff = sbm_sufficient_condition(g)
        rec = {
            "tight": rep.tight,
            "boundary": rep.side == "boundary",
            "block": verdict.oracle_block,
            "suff": suff.holds,
            "viol": suff.holds and not rep.tight,
        }
        if cfg.cross_check and rep.tight:
            y = signed_adjacency(g)
            truth = g.labels.astype(np.float64)
            rec["bm_fail"] = not _bm_recovers(y, truth, cfg.master_seed, sid, cfg.rank_k)
    elif exp == "z2er":
        z = np.ones(n)
        inst = sample_z2sync_er(n, cell["p"], cell["eps"], z, rng)
        rep = certify_z2sync(inst, **tau_kw)
        verdict = flip_oracle_z2(inst)
        rec = {
            "tight": rep.tight,
            "boundary": rep.side == "boundary",
            "block": verdict.oracle_block,
        }
        if cfg.cross_check and rep.tight:
            rec["bm_fail"] = not _bm_recovers(
                inst.y, inst.z, cfg.master_seed, sid, cfg.rank_k
            )
    elif exp == "z2gauss":
        z = np.ones(n)
        inst = sample_z2sync_gaussian(n, cell["sigma"], z, rng)
        rep = certify_z2sync(inst, **tau_kw)
        rec = {"tight": rep.tight, "boundary": rep.side == "boundary"}
        if cfg.cross_check and rep.tight:
            rec["bm_fail"] = not _bm_recovers(
                inst.y, inst.z, cfg.master_seed, sid, cfg.rank_k
            )
    elif exp == "ratio":
        l = _ratio_laplacian(cfg.ensemble, cell, rng)
        try:
            rec = {"ratio": spectral_diag_ratio(l).ratio}
        except NonPositiveDiagonalMax:
            rec = {"ratio": None}
    elif exp == "normbound":
        g = sample_er(n, cell["p"], rng)
        x = np.full((n, n), -float(cell["p"]))
        np.fill_diagonal(x, 0.0)
        x += g.adjacency
        prof = ensemble_profile("centered-er", n, p=cell["p"])
        rec = {"holds": norm_bound_check(SymmetricMatrix(x), prof, cell["t_value"])}
    else:  # pragma: no cover - guarded at config time
        raise ConfigError(f"unknown experiment {exp!r}")
    return cell_idx, trial, rec


def _ratio_laplacian(ensemble: str, cell: dict, rng) -> SymmetricMatrix:
    n = cell["n"]
    if ensemble == "wigner-neg-laplacian":
        w = sample_wigner(n, rng)
        return laplacian_of(SymmetricMatrix(-w.array))
    if ensemble == "centered-er":
        g = sample_er(n, cell["p"], rng)
        return centered_laplacian(g, cell["p"])
    if ensemble == "centered-sbm":
        p, q = cell["p"], cell["q"]
        g = sample_sbm(n, p, q, rng)
        gamma = partition_gap_matrix(g).array
        same = np.equal.outer(g.labels, g.labels)
        e_adj = np.where(same, p, q)
        np.fill_diagonal(e_adj, 0.0)
        e_gamma = -e_adj
        np.fill_diagonal(e_gamma, (n / 2 - 1) * p - (n / 2) * q)
        dev = e_gamma - gamma
        lab = g.labels.astype(np.float64)
        return SymmetricMatrix(lab[:, None] * dev * lab[None, :])
    raise ConfigError(f"unknown ratio ensemble {ensemble!r}")


def _validate(cfg: SweepConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if not cfg.n:
        raise ConfigError("empty n grid")
    if any(int(n) < 1 for n in cfg.n):
        raise ConfigError("n must be >= 1")
    for name, values in cfg.grids.items():
        if len(values) == 0:
            raise ConfigError(f"empty grid for {name}")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")


def _openblas_entries(verb: str):
    """Yield the ``<verb>_num_threads`` entry point ("set" or "get") of each
    OpenBLAS mapped into this process; yield nothing where none is found.

    numpy's wheels rename the symbol (``scipy_openblas_set_num_threads64_``),
    so the plain and the prefixed or suffixed spellings are all tried.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return
    names = [f"{prefix}openblas_{verb}_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_")]
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int] if verb == "set" else []
            fn.restype = None if verb == "set" else ctypes.c_int
            yield fn


def _pin_blas_threads() -> None:
    """Pool initializer: one OpenBLAS thread per forked worker.

    A forked worker inherits the parent's BLAS thread count, so every
    worker would run that many threads on the same cores. With two workers
    on two cores, eigvalsh at n=120 took 15 ms per call against 0.95 ms in
    a single process.
    """
    for set_threads in _openblas_entries("set"):
        set_threads(1)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate every (cell, trial), aggregate, and optionally write CSV."""
    _validate(cfg)
    start = time.monotonic()
    cells = _expand_cells(cfg)
    tasks = [
        (cfg, ci, cell, t)
        for ci, cell in enumerate(cells)
        for t in range(cfg.trials)
    ]
    records: list = [[None] * cfg.trials for _ in cells]
    if cfg.workers > 1 and len(tasks) > 1:
        ctx = get_context("fork")
        chunk = max(1, len(tasks) // (cfg.workers * 8))
        with ctx.Pool(cfg.workers, initializer=_pin_blas_threads) as pool:
            for ci, t, rec in pool.imap_unordered(_eval_trial, tasks, chunksize=chunk):
                records[ci][t] = rec
    else:
        for task in tasks:
            ci, t, rec = _eval_trial(task)
            records[ci][t] = rec
    out_cells = [
        _aggregate(cfg, cell, records[ci]) for ci, cell in enumerate(cells)
    ]
    result = SweepResult(
        cells=out_cells, config=cfg, wall_time=time.monotonic() - start
    )
    if cfg.out_path is not None:
        write_csv(result, cfg.out_path)
    return result


def _freq(records, key) -> float:
    return sum(1 for r in records if r.get(key)) / len(records)


def _aggregate(cfg: SweepConfig, cell: dict, records: list) -> PhaseCell:
    exp = cfg.experiment
    trials = len(records)
    kwargs = {"params": cell, "trials": trials,
              "predicted_margin": cell.get("margin")}
    if exp == "er":
        kwargs["freq_connected"] = _freq(records, "connected")
        kwargs["freq_isolated"] = _freq(records, "isolated")
    elif exp in ("sbm", "z2er", "z2gauss"):
        kwargs["freq_certified"] = _freq(records, "tight")
        kwargs["freq_boundary"] = _freq(records, "boundary")
        if exp in ("sbm", "z2er"):
            kwargs["freq_oracle_block"] = _freq(records, "block")
        if exp == "sbm":
            kwargs["freq_sufficient"] = _freq(records, "suff")
            kwargs["sufficiency_violations"] = sum(
                1 for r in records if r.get("viol")
            )
        if cfg.cross_check:
            kwargs["bm_disagreements"] = sum(1 for r in records if r.get("bm_fail"))
    elif exp == "ratio":
        ratios = np.array([r["ratio"] for r in records if r["ratio"] is not None])
        kwargs["n_degenerate"] = trials - len(ratios)
        if len(ratios):
            sqrt_logn = math.sqrt(math.log(cell["n"]))
            kwargs["mean_ratio"] = float(np.mean(ratios))
            kwargs["median_ratio"] = float(np.median(ratios))
            kwargs["q95_ratio"] = float(np.quantile(ratios, 0.95))
            kwargs["min_ratio"] = float(np.min(ratios))
            kwargs["c1_surrogate"] = float(np.median((ratios - 1.0) * sqrt_logn))
    elif exp == "normbound":
        kwargs["freq_bound_holds"] = _freq(records, "holds")
    return PhaseCell(**kwargs)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _cell_row(exp: str, cell: PhaseCell) -> list:
    values = []
    for col in _SCHEMAS[exp]:
        if col in cell.params:
            values.append(cell.params[col])
        elif col == "trials":
            values.append(cell.trials)
        elif col == "predicted_margin":
            values.append(cell.predicted_margin)
        else:
            values.append(getattr(cell, col))
    return [_format_value(v) for v in values]


def write_csv(result: SweepResult, path) -> None:
    """UTF-8 CSV (one row per cell, 9 significant digits) plus meta JSON.

    The sibling .meta.json echoes the semantic configuration and seed;
    worker count and wall time are excluded so reruns are byte-identical.
    """
    exp = result.config.experiment
    cols = _SCHEMAS[exp]
    lines = [",".join(cols)]
    for cell in result.cells:
        lines.append(",".join(_cell_row(exp, cell)))
    text = "\n".join(lines) + "\n"
    path = str(path)
    meta_path = path[: -len(".csv")] + ".meta.json" if path.endswith(".csv") else path + ".meta.json"
    cfg = result.config
    meta = {
        "experiment": cfg.experiment,
        "n": [int(v) for v in cfg.n],
        "grids": {k: list(map(float, v)) for k, v in cfg.grids.items()},
        "trials": cfg.trials,
        "seed": cfg.master_seed,
        "ensemble": cfg.ensemble,
        "rank_k": cfg.rank_k,
        "tau": cfg.tau,
        "cross_check": cfg.cross_check,
        "out": cfg.out_path,
        "version": result.version,
    }
    try:
        _write_atomic(path, text)
        _write_atomic(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file in the same directory and rename it
    over ``path``, so ``path`` is never left half-written."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
