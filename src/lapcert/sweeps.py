"""Deterministic Monte Carlo sweeps over parameter grids.

Each trial is addressed by stream_id = cell_index * 2^32 + trial_index, so
results are byte-identical regardless of how trials are scheduled across
workers. Trials are evaluated as one ordered stream over (cell, trial),
served by ``map`` in this process or by an ordered pool map, and each cell
is reduced from its next ``trials`` records as they arrive.

Each experiment is one entry of ``_EXPERIMENTS``: the grid axes it needs
and takes, its CSV columns, and its three steps, which resolve a cell's
parameters, evaluate one trial and aggregate a cell's trials.

Before its first trial, and before a pool forks, ``run_sweep`` frees one
untouched 4 MiB block, which raises glibc's mmap threshold to 4 MiB and
its heap-trim threshold to 8 MiB. Without it, the temporaries of one
trial (each n x n float64 array is 720 KB at n=300) raise them only to
720 KB and 1.44 MB, under their sum: the top of the heap goes back to the
kernel after every trial and the next trial faults it in again. An sbm
sweep of 40 trials at n=300 took 26,000-27,700 minor faults and 28-52 ms
of system time that way, and takes under 20 faults with the block freed.
No number in any result changes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__, eig
from .certificates import (
    SIDE_ABOVE,
    SIDE_BOUNDARY,
    TAU_POS,
    certify_z2sync,
    connectivity_unionfind,
    flip_oracle_sbm,
    flip_oracle_z2,
    norm_bound_check,
    rank_one_side,
    sbm_sufficient_condition,
    spectral_diag_ratio,
)
from .eig import SymmetricMatrix
from .ensembles import (
    centered_er_profile,
    derive_stream,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    sample_z2sync_gaussian,
)
from .errors import ConfigError, IoError, NonPositiveDiagonalMax
from .laplacians import (centered_laplacian, centered_partition_gap, negated_laplacian,
                         signed_adjacency)
from .sdp import bm_solve
from .tails import sigma_star, threshold_margin

#: Most worker processes a sweep may ask for, unless the host has more
#: cores; a pool is forked up front.
MAX_WORKERS = 64

#: Most tasks a pool worker is handed at once. The pool pulls whole chunks
#: ahead of the results, so a chunk that grew with the sweep would let the
#: tasks in flight grow with it.
MAX_POOL_CHUNK = 16

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
class SweepResult:
    """One row dict per cell: its resolved parameters, ``trials``, then
    the experiment's aggregate fields, keyed by CSV column."""

    cells: list
    config: SweepConfig


_P_OR_RHO = (("p",), ("rho",))

#: The grid axes each ratio ensemble needs; it takes no other.
_RATIO_ENSEMBLES = {
    "wigner-neg-laplacian": (),
    "centered-er": (_P_OR_RHO,),
    "centered-sbm": ((("alpha", "beta"),),),
}


@dataclass(frozen=True)
class _Experiment:
    """One experiment: the grid keys it needs, as groups of alternatives
    (None: its ratio ensemble's), and those it may take; its CSV columns;
    ``resolve(cfg, cell, logn)``, which completes a cell and checks its
    values in place; ``evaluate(cfg, cell, rng, sid)``, one trial's record;
    and ``aggregate(cfg, cell, records)``, the cell's remaining columns. The
    steps call samplers and certifiers through this module's globals, so
    patching a name here reaches every trial."""

    needs: Optional[tuple]
    takes: tuple
    columns: tuple
    resolve: Callable
    evaluate: Callable
    aggregate: Callable


def _expand_cells(cfg: SweepConfig) -> list:
    """Resolve the grid product into per-cell parameter dicts, the last
    axis varying fastest."""
    return [
        _resolve_cell(cfg, {"n": int(n), **dict(zip(cfg.grids, values))})
        for n in cfg.n
        for values in itertools.product(*cfg.grids.values())
    ]


def _resolve_cell(cfg: SweepConfig, cell: dict) -> dict:
    """Complete and check a cell's parameters in place, before any trial.
    Every experiment needs n >= 2: its scales are set by log n, and a
    1 x 1 Laplacian is zero. A predicted_margin column is filled from the
    resolved cell by threshold_margin, which reads only its model's keys."""
    n = cell["n"]
    if n < 2:
        raise ConfigError(f"{cfg.experiment} experiment needs n >= 2, got n={n}")
    exp = _EXPERIMENTS[cfg.experiment]
    exp.resolve(cfg, cell, math.log(n))
    if "predicted_margin" in exp.columns:
        cell["predicted_margin"] = threshold_margin(cfg.experiment, cell)
    return cell


def _resolve_p(cell: dict, logn: float) -> None:
    """Set p = rho log(n) / n from a rho axis, or keep the p axis."""
    if "rho" in cell:
        cell["p"] = cell["rho"] * logn / cell["n"]
    _check_resolved_probs(cell, ("p",))


def _resolve_pq(cfg: SweepConfig, cell: dict, logn: float) -> None:
    """Set (p, q) = (alpha, beta) log(n) / n, or (alpha, beta) from (p, q)."""
    n = cell["n"]
    if n % 2:
        raise ConfigError(f"{cfg.ensemble or cfg.experiment} needs an even n, got n={n}")
    if "alpha" in cell:
        cell["p"], cell["q"] = cell["alpha"] * logn / n, cell["beta"] * logn / n
    else:
        cell["alpha"], cell["beta"] = cell["p"] * n / logn, cell["q"] * n / logn
    _check_resolved_probs(cell, ("p", "q"))


def _check_resolved_probs(cell: dict, keys) -> None:
    for key in keys:
        if not 0.0 <= cell[key] <= 1.0:
            raise ConfigError(f"resolved {key}={cell[key]:.6g} outside [0, 1]")


def _eval_trial(args) -> dict:
    """Run one (cell, trial) and return its record; pure in (cfg, indices)."""
    cfg, cell_idx, cell, trial = args
    sid = cell_idx * _TRIAL_STRIDE + trial
    rng = derive_stream(cfg.master_seed, sid)
    return _EXPERIMENTS[cfg.experiment].evaluate(cfg, cell, rng, sid)


def _aggregate(cfg: SweepConfig, cell: dict, records: list) -> dict:
    """Reduce a cell's trial records, in trial order, to its row."""
    return {**cell, "trials": len(records),
            **_EXPERIMENTS[cfg.experiment].aggregate(cfg, cell, records)}


def _freq(records, key) -> float:
    return sum(1 for r in records if r.get(key)) / len(records)


def _bm_recovers(cfg: SweepConfig, sid: int, y: SymmetricMatrix,
                 truth: np.ndarray) -> bool:
    """Solve + round, and accept exactly the planted signs up to a global
    flip; one restart with a fresh stream allowed."""
    # _certified calls this only where the side at truth is "above", so
    # lambda_2 of D - Y clears the band. At x = +-truth the rounded point's
    # dual matrix is that very D - Y, whose lambda_1 is then the null
    # eigenvalue on x (z2gauss: |lambda_1| ~ 1e-13, far inside the band):
    # report.dual.feasible is implied, and never computed here. (Under
    # --tau 0 the band keeps its floor n eps (1 + max |lambda|), which a
    # rounding-level lambda_2 does not clear.)
    for lane in (_BM_LANE, _BM_RESTART_LANE):
        _, report = bm_solve(y, derive_stream(cfg.master_seed, lane | sid), k=cfg.rank_k)
        x = report.rounded_x
        if np.array_equal(x, truth) or np.array_equal(x, -truth):
            return True
    return False


def _tau(cfg: SweepConfig) -> float:
    return TAU_POS if cfg.tau is None else cfg.tau


def _certified(cfg: SweepConfig, sid: int, side: str, y: SymmetricMatrix,
               truth) -> dict:
    """Tight and boundary flags of the certificate side of (Y, planted
    signs). Under --cross-check a tight trial is solved again by the
    factorized solver on the same (Y, planted signs)."""
    rec = {"tight": side == SIDE_ABOVE, "boundary": side == SIDE_BOUNDARY}
    if cfg.cross_check and rec["tight"]:
        rec["bm_fail"] = not _bm_recovers(cfg, sid, y, truth)
    return rec


def _aggregate_certified(cfg: SweepConfig, cell: dict, records: list) -> dict:
    """Fields of the certificate experiments; the flip oracle's only where
    the trials ran it."""
    out = {"freq_certified": _freq(records, "tight"),
           "freq_boundary": _freq(records, "boundary")}
    if "block" in records[0]:
        out["freq_oracle_block"] = _freq(records, "block")
    if cfg.cross_check:
        out["bm_disagreements"] = sum(1 for r in records if r.get("bm_fail"))
    return out


def _resolve_er(cfg: SweepConfig, cell: dict, logn: float) -> None:
    _resolve_p(cell, logn)
    if "rho" not in cell:
        cell["rho"] = cell["p"] * cell["n"] / logn


def _eval_er(cfg: SweepConfig, cell: dict, rng, sid: int) -> dict:
    g = sample_er(cell["n"], cell["p"], rng)
    # n >= 2 (_resolve_cell), so an isolated node answers "disconnected"
    isolated = not g.adjacency.any(axis=1).all()
    return {"connected": not isolated and connectivity_unionfind(g), "isolated": isolated}


def _aggregate_er(cfg: SweepConfig, cell: dict, records: list) -> dict:
    return {"freq_connected": _freq(records, "connected"),
            "freq_isolated": _freq(records, "isolated")}


def _resolve_z2gauss(cfg: SweepConfig, cell: dict, logn: float) -> None:
    star = sigma_star(cell["n"])
    if "sigma" in cell:
        cell["sigma"] = float(cell["sigma"])
    else:
        cell["sigma"] = float(cell["sigma_factor"]) * star
    cell["sigma_star"] = star


def _eval_z2gauss(cfg: SweepConfig, cell: dict, rng, sid: int) -> dict:
    n = cell["n"]
    inst = sample_z2sync_gaussian(n, cell["sigma"], np.ones(n), rng)
    return _certified(cfg, sid, certify_z2sync(inst, _tau(cfg)).side, inst.y, inst.z)


def _resolve_z2er(cfg: SweepConfig, cell: dict, logn: float) -> None:
    _resolve_p(cell, logn)
    if not 0.0 <= cell["eps"] < 0.5:
        raise ConfigError(f"eps={cell['eps']:.6g} outside [0, 1/2)")


def _eval_z2er(cfg: SweepConfig, cell: dict, rng, sid: int) -> dict:
    n = cell["n"]
    inst = sample_z2sync_er(n, cell["p"], cell["eps"], np.ones(n), rng)
    rec = _certified(cfg, sid, rank_one_side(inst.y, inst.z, _tau(cfg)), inst.y, inst.z)
    return {**rec, "block": flip_oracle_z2(inst) < 0}


def _eval_sbm(cfg: SweepConfig, cell: dict, rng, sid: int) -> dict:
    g = sample_sbm(cell["n"], cell["p"], cell["q"], rng)
    b, truth = signed_adjacency(g), g.labels.astype(np.float64)
    side = rank_one_side(b, truth, _tau(cfg))
    rec = _certified(cfg, sid, side, b, truth)
    suff = sbm_sufficient_condition(g, cell["p"], cell["q"])
    # The sufficient condition implies tightness at the package band
    # TAU_POS, not at a --tau band: a violation is judged at TAU_POS.
    if suff and cfg.tau is not None:
        side = rank_one_side(b, truth)
    return {**rec, "block": flip_oracle_sbm(g) < 0, "suff": suff,
            "viol": suff and side != SIDE_ABOVE}


def _aggregate_sbm(cfg: SweepConfig, cell: dict, records: list) -> dict:
    return {**_aggregate_certified(cfg, cell, records),
            "freq_sufficient": _freq(records, "suff"),
            "sufficiency_violations": sum(1 for r in records if r.get("viol"))}


def _resolve_ratio(cfg: SweepConfig, cell: dict, logn: float) -> None:
    if cfg.ensemble == "centered-er":
        _resolve_p(cell, logn)
    elif cfg.ensemble == "centered-sbm":
        _resolve_pq(cfg, cell, logn)
    cell["ensemble"] = cfg.ensemble


def _eval_ratio(cfg: SweepConfig, cell: dict, rng, sid: int) -> dict:
    n = cell["n"]
    if cfg.ensemble == "wigner-neg-laplacian":
        l = negated_laplacian(sample_wigner(n, rng), overwrite=True)
    elif cfg.ensemble == "centered-er":
        l = centered_laplacian(sample_er(n, cell["p"], rng), cell["p"])
    else:  # centered-sbm: E[Gamma] - Gamma conjugated by the labels
        g = sample_sbm(n, cell["p"], cell["q"], rng)
        dev = centered_partition_gap(g, cell["p"], cell["q"])
        dev *= g.labels[:, None]
        dev *= g.labels
        l = SymmetricMatrix._owning(dev)
    try:  # l is this trial's own: it is factorized in place
        return {"ratio": spectral_diag_ratio(l, overwrite=True).ratio}
    except NonPositiveDiagonalMax:
        return {"ratio": None}


def _aggregate_ratio(cfg: SweepConfig, cell: dict, records: list) -> dict:
    ratios = np.array([r["ratio"] for r in records if r["ratio"] is not None])
    out = {"n_degenerate": len(records) - len(ratios)}
    if len(ratios):
        sqrt_logn = math.sqrt(math.log(cell["n"]))
        out["mean_ratio"] = float(np.mean(ratios))
        out["median_ratio"] = float(np.median(ratios))
        out["q95_ratio"] = float(np.quantile(ratios, 0.95))
        out["min_ratio"] = float(np.min(ratios))
        out["c1_surrogate"] = float(np.median((ratios - 1.0) * sqrt_logn))
    return out


def _resolve_normbound(cfg: SweepConfig, cell: dict, logn: float) -> None:
    _check_resolved_probs(cell, ("p",))
    t_factor = float(cell.get("t_factor", 3.0))
    if not (math.isfinite(t_factor) and t_factor >= 0.0):
        raise ConfigError(f"t_factor must be a finite number >= 0, got {t_factor!r}")
    prof = centered_er_profile(cell["n"], cell["p"])
    cell["t_factor"] = t_factor
    cell["t_value"] = t_factor * prof.sigma_inf * math.sqrt(logn)
    cell["sigma"] = prof.sigma
    cell["sigma_inf"] = prof.sigma_inf


def _eval_normbound(cfg: SweepConfig, cell: dict, rng, sid: int) -> dict:
    p = cell["p"]
    x = np.subtract(sample_er(cell["n"], p, rng).adjacency, p, dtype=np.float64)
    np.fill_diagonal(x, 0.0)
    return {"holds": norm_bound_check(SymmetricMatrix._owning(x), cell["sigma"], cell["t_value"])}


def _aggregate_normbound(cfg: SweepConfig, cell: dict, records: list) -> dict:
    return {"freq_bound_holds": _freq(records, "holds")}


_EXPERIMENTS = {
    "er": _Experiment(
        (_P_OR_RHO,), (),
        ("n", "rho", "p", "trials", "predicted_margin", "freq_connected", "freq_isolated"),
        _resolve_er, _eval_er, _aggregate_er),
    "z2gauss": _Experiment(
        ((("sigma",), ("sigma_factor",)),), (),
        ("n", "sigma", "sigma_star", "trials", "predicted_margin", "freq_certified",
         "freq_boundary", "bm_disagreements"),
        _resolve_z2gauss, _eval_z2gauss, _aggregate_certified),
    "z2er": _Experiment(
        (_P_OR_RHO, (("eps",),)), (),
        ("n", "p", "eps", "trials", "predicted_margin", "freq_certified", "freq_boundary",
         "freq_oracle_block", "bm_disagreements"),
        _resolve_z2er, _eval_z2er, _aggregate_certified),
    "sbm": _Experiment(
        ((("alpha", "beta"), ("p", "q")),), (),
        ("n", "alpha", "beta", "p", "q", "trials", "predicted_margin", "freq_certified",
         "freq_boundary", "freq_oracle_block", "freq_sufficient", "sufficiency_violations",
         "bm_disagreements"),
        _resolve_pq, _eval_sbm, _aggregate_sbm),
    "ratio": _Experiment(
        None, (),
        ("n", "ensemble", "trials", "n_degenerate", "mean_ratio", "median_ratio",
         "q95_ratio", "min_ratio", "c1_surrogate"),
        _resolve_ratio, _eval_ratio, _aggregate_ratio),
    "normbound": _Experiment(
        ((("p",),),), ("t_factor",),
        ("n", "p", "t_factor", "t_value", "sigma", "sigma_inf", "trials", "freq_bound_holds"),
        _resolve_normbound, _eval_normbound, _aggregate_normbound),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def experiment_axes(experiment: str) -> tuple:
    """Grid keys the experiment reads under any ensemble, in cell order."""
    exp = _EXPERIMENTS[experiment]
    needs = sum(_RATIO_ENSEMBLES.values(), ()) if exp.needs is None else exp.needs
    return tuple(dict.fromkeys(key for group in needs for alt in group for key in alt)) + exp.takes


def _check_grids(grids: dict, needs: tuple, takes: tuple, what: str) -> None:
    """Exactly one alternative of each group in ``needs`` is given, and
    every other grid given is one in ``takes``."""
    read = set(takes)
    for group in needs:
        spelled = " or ".join(" and ".join(alt) for alt in group)
        spelled = f"{'an' if spelled[0] in 'aeiou' else 'a'} {spelled} grid"
        given = [alt for alt in group if any(key in grids for key in alt)]
        if len(given) > 1:
            raise ConfigError(f"{what} takes {spelled}, not both")
        if not given or not all(key in grids for key in given[0]):
            raise ConfigError(f"{what} needs {spelled}")
        read.update(given[0])
    unread = [key for key in grids if key not in read]
    if unread:
        raise ConfigError(f"--{unread[0].replace('_', '-')} is not an axis of the {what}")


def _validate(cfg: SweepConfig) -> None:
    if cfg.experiment not in _EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    for name, values in (("n", cfg.n), *cfg.grids.items()):
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"the {name} grid must be a non-empty list, got {values!r}")
        for value in values:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} values must be real numbers, got {value!r}")
    # trials, workers and each n count something; the seed only names streams
    for name, value in (("master_seed", cfg.master_seed), ("trials", cfg.trials),
                        ("workers", cfg.workers), *(("n", n) for n in cfg.n)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < 1 and name != "master_seed":
            raise ConfigError(f"{name} must be >= 1")
    if not 0 <= cfg.master_seed < 1 << 64:
        raise ConfigError(f"seed must be in [0, 2^64), got {cfg.master_seed}")
    if cfg.tau is not None and not (math.isfinite(cfg.tau) and cfg.tau >= 0.0):
        raise ConfigError(f"tau must be a finite number >= 0, got {cfg.tau!r}")
    most_workers = max(MAX_WORKERS, os.cpu_count() or 1)
    if cfg.workers > most_workers:
        raise ConfigError(f"workers must be at most {most_workers}, got {cfg.workers}")
    # a Burer-Monteiro factor of rank k > n has no more freedom than rank n;
    # 2 is the least rank, as sdp.default_rank has it for every n
    k, most_k = cfg.rank_k, max(2, max(cfg.n))
    if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral)
                          or not 2 <= k <= most_k):
        raise ConfigError(f"rank-k must be an integer in [2, {most_k}], got {k!r}")
    exp = _EXPERIMENTS[cfg.experiment]
    needs, what = exp.needs, f"{cfg.experiment} experiment"
    if needs is None:
        if cfg.ensemble not in _RATIO_ENSEMBLES:
            raise ConfigError(f"ratio ensemble must be one of {tuple(_RATIO_ENSEMBLES)}")
        needs, what = _RATIO_ENSEMBLES[cfg.ensemble], f"{cfg.ensemble} ensemble"
    _check_grids(cfg.grids, needs, exp.takes, what)
    # --ensemble names the ratio ensemble; --tau, --rank-k and --cross-check
    # steer certificate trials, whose experiments count bm_disagreements.
    unread = [flag for flag, given, column in (
        ("ensemble", cfg.ensemble is not None, "ensemble"),
        ("tau", cfg.tau is not None, "bm_disagreements"),
        ("rank-k", cfg.rank_k is not None, "bm_disagreements"),
        ("cross-check", cfg.cross_check, "bm_disagreements"),
    ) if given and column not in exp.columns]
    if unread:
        raise ConfigError(f"--{unread[0]} is not read by the {cfg.experiment} experiment")


def _raise_mmap_threshold() -> None:
    """Allocate and drop one untouched block of 4 MiB and a page.

    glibc's mmap threshold is dynamic (mallopt(3), NOTES): freeing an
    mmapped block raises it to that block's size, and the heap-trim
    threshold to twice that. From then on every temporary under 4 MiB, an
    array of 4 MiB included, comes from the heap, and a trial's freed
    temporaries stay mapped for the next trial. glibc never lowers the
    threshold, so this is idempotent and leaves a process that raised it
    further as it was; on another C library it is a plain malloc and free.
    """
    np.empty((4 << 20) + (4 << 10), np.uint8)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate every (cell, trial) in order, reduce each cell as its
    trials arrive, and optionally write CSV. An output directory that is
    missing or not writable, or a CSV or meta path that names a directory,
    raises IoError before the first trial."""
    _validate(cfg)
    if cfg.out_path is not None:
        out_dir = os.path.dirname(os.path.abspath(cfg.out_path))
        if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
            raise IoError(f"cannot write {cfg.out_path}: {out_dir} is not a writable directory")
        for target in (cfg.out_path, _meta_path(cfg.out_path)):
            if os.path.isdir(target):
                raise IoError(f"cannot write {target}: it is a directory")
    _raise_mmap_threshold()
    cells = _expand_cells(cfg)
    tasks = ((cfg, ci, cell, t) for ci, cell in enumerate(cells) for t in range(cfg.trials))
    count = len(cells) * cfg.trials
    workers = min(cfg.workers, count)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # A forked worker inherits this process's BLAS thread count, so
            # each would run that many threads on the same cores: with two
            # workers on two cores, eigvalsh at n=120 took 15 ms per call
            # against 0.95 ms in a single process. Each runs one, on its
            # main thread: pinning also stops the OpenBLAS server thread
            # that setting the count starts after a fork, which otherwise
            # spun through each worker's first 0.1 s and made its first
            # trial chunk take 64-74 ms against 17 ms warm.
            pool = stack.enter_context(
                get_context("fork").Pool(workers, initializer=eig.pin_blas_threads))
            chunk = min(MAX_POOL_CHUNK, max(1, count // (8 * workers)))
            records = pool.imap(_eval_trial, tasks, chunksize=chunk)
        else:
            records = map(_eval_trial, tasks)
        rows = [_aggregate(cfg, cell, list(itertools.islice(records, cfg.trials)))
                for cell in cells]
    result = SweepResult(cells=rows, config=cfg)
    if cfg.out_path is not None:
        write_csv(result, cfg.out_path)
    return result


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _meta_path(path) -> str:
    """The meta JSON beside a CSV path: x.csv -> x.meta.json, else
    path + .meta.json."""
    path = str(path)
    return (path[: -len(".csv")] if path.endswith(".csv") else path) + ".meta.json"


def write_csv(result: SweepResult, path) -> None:
    """UTF-8 CSV (one row per cell, 9 significant digits) plus meta JSON.

    The sibling .meta.json echoes the semantic configuration and seed;
    worker count and wall time are excluded so reruns are byte-identical.
    """
    cols = _EXPERIMENTS[result.config.experiment].columns
    lines = [",".join(cols)]
    for row in result.cells:
        lines.append(",".join(_format_value(row.get(col)) for col in cols))
    text = "\n".join(lines) + "\n"
    path = str(path)
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
        "version": __version__,
    }
    try:
        _write_atomic(path, text)
        _write_atomic(_meta_path(path), json.dumps(meta, indent=2, sort_keys=True) + "\n")
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
