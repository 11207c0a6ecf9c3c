"""Analytic bound evaluators, exact tail oracles, and closed-form thresholds."""

from __future__ import annotations

import math
from typing import Mapping, Tuple

import numpy as np

from .ensembles import RngStream
from .errors import DomainError, InvalidProbability

def chernoff_degree_bound(n: int, rho: float, t: float) -> float:
    """Chernoff upper bound on P[deg(i) < t * E deg(i)] for ER(n, rho log n / n).

    Equals exp(-[1 - t - t log(1/t)] * ((n-1)/n) * rho * log n) for
    0 < t <= 1.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if rho < 0.0:
        raise DomainError("rho must be >= 0")
    if not 0.0 < t <= 1.0:
        raise DomainError("t must be in (0, 1]")
    exponent = (1.0 - t - t * math.log(1.0 / t)) * ((n - 1) / n) * rho * math.log(n)
    return math.exp(-exponent)


def _step_probs(p: float, q: float) -> Tuple[float, float, float]:
    if not 0.0 <= p <= 1.0:
        raise InvalidProbability(f"p={p} outside [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise InvalidProbability(f"q={q} outside [0, 1]")
    plus = q * (1.0 - p)
    minus = p * (1.0 - q)
    return plus, minus, 1.0 - plus - minus


def bernoulli_diff_distribution(m: int, p: float, q: float) -> np.ndarray:
    """PMF of sum_{i<=m} (Z_i - W_i) on the lattice -m..m (index offset m).

    Z_i ~ Bernoulli(q) and W_i ~ Bernoulli(p) independent; computed by
    dynamic-programming convolution of the three-point step.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    plus, minus, zero = _step_probs(p, q)
    dist = np.zeros(2 * m + 1)
    dist[m] = 1.0
    for _ in range(m):
        nxt = zero * dist
        nxt[1:] += plus * dist[:-1]
        nxt[:-1] += minus * dist[1:]
        dist = nxt
    return dist


def _lattice_threshold(delta: float) -> int:
    """ceil(delta), the least lattice value the tail event counts."""
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    return math.ceil(delta)


def bernoulli_diff_tail(m: int, p: float, q: float, delta: float) -> float:
    """Exact P[sum (Z_i - W_i) >= delta]; real delta ceils to the lattice."""
    thr = _lattice_threshold(delta)
    dist = bernoulli_diff_distribution(m, p, q)
    if thr <= -m:
        return 1.0
    if thr > m:
        return 0.0
    return float(np.sum(dist[thr + m :]))


def bernoulli_diff_tail_mc(
    m: int, p: float, q: float, delta: float, trials: int, rng: RngStream
) -> Tuple[float, float]:
    """Monte Carlo estimate of the same tail with its standard error."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    _step_probs(p, q)  # validate
    thr = _lattice_threshold(delta)
    s = np.zeros(trials, dtype=np.int32)
    for _ in range(m):
        s += rng.bernoulli(q, trials)
        s -= rng.bernoulli(p, trials)
    hits = float(np.mean(s >= thr))
    se = math.sqrt(hits * (1.0 - hits) / trials)
    return hits, se


def sigma_star(n: int) -> float:
    """sqrt(n / (2 log n)), the Gaussian synchronization threshold, n >= 2."""
    return math.sqrt(n / (2.0 * math.log(n)))


def threshold_margin(model: str, params: Mapping[str, float]) -> float:
    """Signed distance to the model's predicted phase boundary.

    Positive means the asymptotic theory predicts success with high
    probability. Models carry the CLI and experiment names. Margins:
    ``er`` (connectivity) rho - 1; ``sbm`` sqrt(alpha) - sqrt(beta) -
    sqrt(2); ``z2gauss`` sqrt(n / (2 log n)) - sigma; ``z2er`` (n-1)p minus
    the Bernstein-derived rate with inputs K >= 0 and delta > -1 defaulting
    to the asymptotic form K = delta = 0. Every parameter must be finite.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if model == "er":
        rho = float(params["rho"])
        if rho < 0.0:
            raise DomainError("rho must be >= 0")
        return rho - 1.0
    if model == "sbm":
        alpha, beta = float(params["alpha"]), float(params["beta"])
        if alpha < 0.0 or beta < 0.0:
            raise DomainError("alpha and beta must be >= 0")
        return math.sqrt(alpha) - math.sqrt(beta) - math.sqrt(2.0)
    if model == "z2gauss":
        n, sigma = int(params["n"]), float(params["sigma"])
        if n < 2:
            raise DomainError("n must be >= 2")
        if sigma < 0.0:
            raise DomainError("sigma must be >= 0")
        return sigma_star(n) - sigma
    if model == "z2er":
        n = int(params["n"])
        p = float(params["p"])
        eps = float(params["eps"])
        cap = float(params.get("K", 0.0))
        delta = float(params.get("delta", 0.0))
        if n < 2:
            raise DomainError("n must be >= 2")
        if not 0.0 <= p <= 1.0:
            raise InvalidProbability(f"p={p} outside [0, 1]")
        if not 0.0 <= eps < 0.5:
            raise InvalidProbability(f"eps={eps} outside [0, 1/2)")
        if cap < 0.0:
            raise DomainError(f"K must be >= 0, got {cap}")
        if delta <= -1.0:
            raise DomainError(f"delta must be > -1, got {delta}")
        logn = math.log(n)
        rate = (
            (1.0 + delta)
            * (2.0 / (1.0 - 2.0 * eps) ** 2)
            * (1.0 + cap / math.sqrt(logn) + (5.0 / 3.0) * (1.0 - 2.0 * eps))
            * logn
        )
        return (n - 1) * p - rate
    raise DomainError(f"unknown threshold model {model!r}")
