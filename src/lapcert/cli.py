"""Command-line surface.

Subcommands: ``sweep`` (grid Monte Carlo), ``ratio`` (eigenvalue/diagonal
ratio experiment), ``certify`` (one-shot instance certification), ``eig``
(spectrum of a matrix file), and ``tail`` (threshold margins and exact tail
probabilities). Exit codes: 0 success, 1 configuration error, 2 I/O error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .certificates import (
    certify_sbm,
    certify_z2sync,
    connectivity_spectral,
    connectivity_unionfind,
    flip_oracle_sbm,
    flip_oracle_z2,
)
from .eig import SymmetricMatrix, eigendecompose
from .ensembles import derive_stream, sample_er, sample_sbm, sample_z2sync_er, sample_z2sync_gaussian
from .errors import ConfigError, IoError, LapcertError, NonConvergence
from .sweeps import EXPERIMENTS, SweepConfig, experiment_axes, run_sweep
from .tails import bernoulli_diff_tail, bernoulli_diff_tail_mc, threshold_margin

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

#: Most values a start:stop:step grid may expand to.
MAX_GRID_VALUES = 10_000

#: Largest ``tail --m``: the exact tail takes time quadratic in m.
MAX_TAIL_M = 10_000

#: Largest ``tail --m`` x ``--mc-trials``: the Monte Carlo tail draws that
#: many Bernoulli pairs, m rounds of mc-trials each. At the cap that took
#: 0.2-0.6 s, and 250 MB at --m 1, where all the trials are in one round.
MAX_TAIL_MC_DRAWS = 20_000_000

#: The grid flags of ``sweep`` and their cell keys (--t-factor sets t_factor):
#: every experiment's axes once, each experiment's in the order its cells nest.
_GRID_FLAGS = {key.replace("_", "-"): key for e in EXPERIMENTS for key in experiment_axes(e)}


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _number(value, name: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _integer(value, name: str) -> int:
    """A whole number; 20 and 20.0 pass, 20.5, "abc" and true do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _parse_grid(text, name: str = "grid") -> list:
    """Grid syntax: single value, comma list, or inclusive start:stop:step."""
    if isinstance(text, (list, tuple)):
        return [_number(v, name) for v in text]
    if not isinstance(text, str):
        return [_number(text, name)]
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (_number(p, name) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(f"grid {text!r} must have finite bounds and step")
        if step <= 0:
            raise ConfigError("grid step must be positive")
        values = []
        v = start
        snap = 1e-9 * max(1.0, abs(stop))
        while v <= stop + snap:
            if len(values) == MAX_GRID_VALUES:
                raise ConfigError(f"grid {text!r} has more than {MAX_GRID_VALUES} values")
            values.append(v)
            v = start + len(values) * step
        return values
    if "," in text:
        return [_number(p, name) for p in text.split(",") if p.strip()]
    return [_number(text, name)]


def _check_seed(seed: int) -> None:
    """Streams are keyed by the seed modulo 2^64: refuse one outside [0, 2^64)
    rather than answer for another seed."""
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lapcert", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    common = {
        "--seed": dict(type=int, default=None, help="master seed"),
        "--trials": dict(type=int, default=None, help="trials per cell"),
        "--out": dict(default=None, help="CSV output path"),
        "--config": dict(default=None, help="JSON config file (flags override)"),
        "--workers": dict(type=int, default=None, help="parallel workers"),
    }

    sweep = sub.add_parser("sweep", help="run a grid Monte Carlo sweep")
    sweep.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    for axis in ("n", *_GRID_FLAGS):
        sweep.add_argument(f"--{axis}", default=None, help="grid (value, list, or a:b:step)")
    sweep.add_argument("--ensemble", default=None)
    sweep.add_argument("--rank-k", type=int, default=None)
    sweep.add_argument("--tau", type=float, default=None)
    sweep.add_argument("--cross-check", action="store_true", default=None)
    for flag, kw in common.items():
        sweep.add_argument(flag, **kw)

    ratio = sub.add_parser("ratio", help="largest-eigenvalue ratio experiment")
    ratio.add_argument("--ensemble", default=None)
    for axis in ("n", *(f for f, k in _GRID_FLAGS.items() if k in experiment_axes("ratio"))):
        ratio.add_argument(f"--{axis}", default=None)
    for flag, kw in common.items():
        ratio.add_argument(flag, **kw)

    certify = sub.add_parser("certify", help="certify one sampled instance")
    certify.add_argument("--model", choices=("er", "sbm", "z2er", "z2gauss"),
                         required=True)
    certify.add_argument("--n", type=int, required=True)
    for flag in ("--p", "--q", "--sigma", "--eps"):
        certify.add_argument(flag, type=float, default=None)
    certify.add_argument("--seed", type=int, default=0)

    eig = sub.add_parser("eig", help="print the spectrum of a matrix file")
    eig.add_argument("matrix", help="text file: first line n, then n rows")
    eig.add_argument("--vectors", action="store_true")

    tail = sub.add_parser("tail", help="threshold margins and tail values")
    tail.add_argument("--model", choices=("er", "sbm", "z2er", "z2gauss"),
                      default=None)
    tail.add_argument("--n", type=int, default=None)
    for flag in ("--p", "--q", "--sigma", "--eps", "--alpha", "--beta",
                 "--rho", "--cap-k", "--delta"):
        tail.add_argument(flag, type=float, default=None)
    tail.add_argument("--m", type=int, default=None,
                      help="evaluate the exact Bernoulli-difference tail")
    tail.add_argument("--mc-trials", type=int, default=None,
                      help="cross-check the exact tail by Monte Carlo")
    tail.add_argument("--seed", type=int, default=0)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """File values under CLI ones; keys are kebab-case long flag names.

    A null file value counts as absent, like a flag not given; a key that
    names no flag of the subcommand, or names --config, is an error."""
    flags = {key.replace("_", "-"): value for key, value in vars(args).items()
             if key != "command"}
    merged = {}
    path = args.config
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                merged = json.load(f)
        except OSError as exc:
            raise IoError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(merged, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        if "config" in merged:
            raise ConfigError(f"{path}: key 'config' is not read inside a config file")
        unknown = sorted(set(merged) - set(flags))
        if unknown:
            raise ConfigError(f"{path}: unknown key {unknown[0]!r}, not a flag of {args.command}")
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return {key: value for key, value in merged.items() if value is not None}


def _sweep_config(opts: dict, experiment: Optional[str] = None) -> SweepConfig:
    exp = experiment or opts.get("experiment")
    if exp is None:
        raise ConfigError("--experiment is required")
    if "n" not in opts:
        raise ConfigError("--n is required")
    n_grid = [_integer(v, "n") for v in _parse_grid(opts["n"], "n")]
    grids = {key: _parse_grid(opts[flag], flag) for flag, key in _GRID_FLAGS.items() if flag in opts}
    return SweepConfig(
        experiment=exp,
        n=n_grid,
        grids=grids,
        trials=_integer(opts.get("trials", 1), "trials"),
        master_seed=_integer(opts.get("seed", 0), "seed"),
        out_path=opts.get("out"),
        ensemble=opts.get("ensemble"),
        rank_k=_integer(opts["rank-k"], "rank-k") if "rank-k" in opts else None,
        tau=_number(opts["tau"], "tau") if "tau" in opts else None,
        cross_check=opts.get("cross-check", False),
        workers=_integer(opts.get("workers", 1), "workers"),
    )


def _print_report(kind: str, report, extra: str = "") -> None:
    print(f"model {kind}")
    print(f"lambda1 {report.lambda1:.9g}")
    print(f"lambda2 {report.lambda2:.9g}")
    print(f"tight {int(report.tight)}")
    if extra:
        print(extra)


#: The flags each query reads: those it needs, then those it may take.
_CERTIFY_FLAGS = {"er": (("p",), ()), "sbm": (("p", "q"), ()),
                  "z2er": (("p", "eps"), ()), "z2gauss": (("sigma",), ())}
_TAIL_FLAGS = {"er": (("rho",), ()), "sbm": (("alpha", "beta"), ()),
               "z2er": (("n", "p", "eps"), ("cap_k", "delta")),
               "z2gauss": (("n", "sigma"), ()), "--m": (("p", "q", "delta"), ("mc_trials",))}


def _check_flags(args: argparse.Namespace, table: dict, queries: list) -> None:
    """Every flag a query needs is given, and every flag of the table that
    is given is read by one of the queries."""
    read = set()
    for query in queries:
        needs, takes = table[query]
        for flag in needs:
            if getattr(args, flag) is None:
                raise ConfigError(f"--{flag} is required for {query}")
        read.update(needs + takes)
    unread = sorted(flag for needs, takes in table.values() for flag in needs + takes
                    if flag not in read and getattr(args, flag) is not None)
    if unread:
        raise ConfigError(f"--{unread[0].replace('_', '-')} is not read by {' or '.join(queries)}")


def _cmd_certify(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    rng = derive_stream(args.seed, 0)
    n = args.n
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    _check_flags(args, _CERTIFY_FLAGS, [args.model])
    if args.model == "er":
        g = sample_er(n, args.p, rng)
        spectral = connectivity_spectral(g)
        exact = connectivity_unionfind(g)
        print(f"connected_spectral {int(spectral)}")
        print(f"connected_unionfind {int(exact)}")
        return EXIT_OK
    if args.model == "sbm":
        g = sample_sbm(n, args.p, args.q, rng)
        _print_report("sbm", certify_sbm(g), f"oracle_min_stat {flip_oracle_sbm(g):.9g}")
        return EXIT_OK
    z = np.ones(n)
    if args.model == "z2er":
        inst = sample_z2sync_er(n, args.p, args.eps, z, rng)
        _print_report("z2er", certify_z2sync(inst),
                      f"oracle_min_stat {flip_oracle_z2(inst):.9g}")
        return EXIT_OK
    inst = sample_z2sync_gaussian(n, args.sigma, z, rng)
    rep = certify_z2sync(inst)
    _print_report("z2gauss", rep)
    return EXIT_OK


def _read_matrix(path: str) -> SymmetricMatrix:
    try:
        with open(path, "r", encoding="utf-8") as f:
            tokens = f.read().split()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not tokens:
        raise ConfigError(f"{path}: empty matrix file")
    try:
        n = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if n < 1 or len(values) != n * n:
        raise ConfigError(f"{path}: expected {n}x{n} entries after the header")
    a = np.array(values).reshape(n, n)
    if not np.isfinite(a).all():
        raise ConfigError(f"{path}: matrix entries must be finite")
    asym = float(np.max(np.abs(a - a.T))) if n > 1 else 0.0
    if asym > 1e-9:
        print(f"warning: asymmetry {asym:.3g} exceeds 1e-9; averaging with "
              "the transpose", file=sys.stderr)
    return SymmetricMatrix((a + a.T) / 2.0)


def _cmd_eig(args: argparse.Namespace) -> int:
    m = _read_matrix(args.matrix)
    spec = eigendecompose(m, want_vectors=args.vectors)
    for lam in spec.eigenvalues:
        print(format(float(lam), ".12g"))
    if args.vectors:
        # the largest column residual ||M v - lambda v||_2
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        res = m.array @ vecs - vecs * vals[np.newaxis, :]
        residual = float(np.max(np.sqrt(np.sum(res * res, axis=0))))
        print(f"residual {residual:.3g}", file=sys.stderr)
    return EXIT_OK


def _cmd_tail(args: argparse.Namespace) -> int:
    queries = [q for q in (args.model, "--m" if args.m is not None else None) if q]
    if not queries:
        raise ConfigError("tail needs --model and/or --m")
    _check_flags(args, _TAIL_FLAGS, queries)
    _check_seed(args.seed)
    lines = []  # printed only once every value is computed
    if args.m is not None:
        if args.m > MAX_TAIL_M:
            raise ConfigError(f"--m must be at most {MAX_TAIL_M}, got {args.m}")
        if args.mc_trials is not None and args.m * args.mc_trials > MAX_TAIL_MC_DRAWS:
            raise ConfigError(f"--m x --mc-trials must be at most {MAX_TAIL_MC_DRAWS}, "
                              f"got {args.m * args.mc_trials}")
        exact = bernoulli_diff_tail(args.m, args.p, args.q, args.delta)
        lines.append(f"t_exact {exact:.12g}")
        if args.mc_trials is not None:
            est, se = bernoulli_diff_tail_mc(
                args.m, args.p, args.q, args.delta, args.mc_trials,
                derive_stream(args.seed, 0),
            )
            lines += [f"t_mc {est:.9g}", f"t_mc_se {se:.3g}"]
    if args.model is not None:
        needs, takes = _TAIL_FLAGS[args.model]
        params = {"K" if flag == "cap_k" else flag: getattr(args, flag)
                  for flag in needs + takes if getattr(args, flag) is not None}
        lines.append(f"margin {threshold_margin(args.model, params):.9g}")
    print("\n".join(lines))
    return EXIT_OK


def cli_main(argv) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("a subcommand is required")
        if args.command == "sweep":
            run_sweep(_sweep_config(_merge_config(args)))
            return EXIT_OK
        if args.command == "ratio":
            run_sweep(_sweep_config(_merge_config(args), experiment="ratio"))
            return EXIT_OK
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "eig":
            return _cmd_eig(args)
        return _cmd_tail(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonConvergence as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LapcertError as exc:
        # Model parameters rejected by a sampler or a threshold formula.
        if not isinstance(exc, ValueError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:  # pragma: no cover - thin shim
    sys.exit(cli_main(sys.argv[1:]))
