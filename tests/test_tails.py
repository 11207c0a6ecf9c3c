import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcert import (
    bernoulli_diff_tail,
    bernoulli_diff_tail_mc,
    chernoff_degree_bound,
    derive_stream,
    threshold_margin,
)
from lapcert.errors import DomainError
from lapcert.tails import bernoulli_diff_distribution


class TestChernoffDegreeBound:
    def test_t_one_is_trivial(self):
        assert chernoff_degree_bound(1000, 2.0, 1.0) == 1.0

    def test_small_t_limit(self):
        n, rho = 1000, 2.0
        limit = n ** (-rho * (n - 1) / n)
        assert chernoff_degree_bound(n, rho, 1e-12) == pytest.approx(limit, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            chernoff_degree_bound(100, 1.0, 0.0)
        with pytest.raises(DomainError):
            chernoff_degree_bound(100, 1.0, 1.5)

    def test_upper_bounds_monte_carlo(self):
        # P[deg < t E deg] for deg ~ Binomial(n-1, p), p = rho log n / n
        n, rho, t = 1000, 2.0, 0.2
        p = rho * math.log(n) / n
        rng = np.random.default_rng(0)
        deg = rng.binomial(n - 1, p, size=100_000)
        freq = np.mean(deg < t * (n - 1) * p)
        bound = chernoff_degree_bound(n, rho, t)
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / 100_000)
        assert freq <= bound + 3 * se

    def test_value_in_unit_interval(self):
        for t in (0.01, 0.3, 0.7, 1.0):
            b = chernoff_degree_bound(500, 1.5, t)
            assert 0.0 < b <= 1.0


class TestExactTail:
    def test_whole_support(self):
        assert bernoulli_diff_tail(5, 0.3, 0.7, -5) == 1.0
        assert bernoulli_diff_tail(5, 0.3, 0.7, -12.5) == 1.0

    def test_single_step(self):
        p, q = 0.37, 0.81
        assert bernoulli_diff_tail(1, p, q, 1) == pytest.approx(q * (1 - p), rel=1e-15)

    def test_two_step_exhaustive(self):
        # 3^2 outcomes at p = q = 1/2: P[S >= 0] = 11/16
        assert bernoulli_diff_tail(2, 0.5, 0.5, 0) == 0.6875

    def test_mass_sums_to_one(self):
        for m, p, q in ((0, 0.5, 0.5), (7, 0.2, 0.9), (150, 0.01, 0.03)):
            dist = bernoulli_diff_distribution(m, p, q)
            assert abs(dist.sum() - 1.0) <= 1e-12

    def test_nonincreasing_in_delta(self):
        vals = [bernoulli_diff_tail(9, 0.4, 0.6, d) for d in range(-10, 11)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_real_delta_ceils(self):
        assert bernoulli_diff_tail(3, 0.2, 0.7, 0.25) == bernoulli_diff_tail(
            3, 0.2, 0.7, 1
        )

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(DomainError, match="delta must be finite"):
            bernoulli_diff_tail(3, 0.2, 0.7, delta)
        with pytest.raises(DomainError, match="delta must be finite"):
            bernoulli_diff_tail_mc(3, 0.2, 0.7, delta, 10, derive_stream(0, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=12),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        delta=st.integers(min_value=-13, max_value=13),
    )
    def test_swap_symmetry_identity(self, m, p, q, delta):
        # swapping roles negates the sum: P[S >= d] + P[-S >= 1 - d] = 1
        lhs = bernoulli_diff_tail(m, p, q, delta)
        rhs = bernoulli_diff_tail(m, q, p, -delta + 1)
        assert lhs + rhs == pytest.approx(1.0, abs=1e-12)


class TestMonteCarloTail:
    def test_whole_support(self):
        est, se = bernoulli_diff_tail_mc(4, 0.5, 0.5, -4, 1000, derive_stream(0, 0))
        assert est == 1.0 and se == 0.0

    def test_matches_exact_small(self):
        exact = 0.6875
        est, se = bernoulli_diff_tail_mc(2, 0.5, 0.5, 0, 100_000, derive_stream(1, 0))
        assert abs(est - exact) <= 3 * max(se, 1e-4)

    def test_matches_exact_sbm_scale(self):
        n = 300
        m, p, q = 150, 10 * math.log(n) / n, math.log(n) / n
        exact = bernoulli_diff_tail(m, p, q, -10)
        est, se = bernoulli_diff_tail_mc(m, p, q, -10, 100_000, derive_stream(2, 0))
        assert abs(est - exact) <= 3 * max(se, 1e-4)


class TestThresholdMargin:
    def test_sbm_boundary(self):
        margin = threshold_margin("sbm", {"alpha": 2.0, "beta": 0.0})
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_sbm_value(self):
        margin = threshold_margin("sbm", {"alpha": 9.0, "beta": 1.0})
        assert margin == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)

    def test_er_boundary(self):
        assert threshold_margin("er", {"rho": 1.0}) == 0.0

    def test_z2_gaussian(self):
        want = math.sqrt(400 / (2 * math.log(400))) - 1.0
        margin = threshold_margin("z2gauss", {"n": 400, "sigma": 1.0})
        assert margin == pytest.approx(want, rel=1e-12)

    def test_z2_er_asymptotic_form(self):
        n, p, eps = 500, 0.5, 0.1
        rate = (2 / (1 - 2 * eps) ** 2) * (1 + (5 / 3) * (1 - 2 * eps)) * math.log(n)
        margin = threshold_margin("z2er", {"n": n, "p": p, "eps": eps})
        assert margin == pytest.approx((n - 1) * p - rate, rel=1e-12)

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            threshold_margin("percolation", {})

    @pytest.mark.parametrize("model, params", [
        ("er", {"rho": math.nan}),
        ("sbm", {"alpha": math.nan, "beta": 1.0}),
        ("sbm", {"alpha": 9.0, "beta": math.inf}),
        ("z2gauss", {"n": 100, "sigma": math.nan}),
        ("z2er", {"n": 100, "p": 0.5, "eps": 0.1, "K": math.nan}),
        ("z2er", {"n": 100, "p": 0.5, "eps": 0.1, "delta": math.inf}),
    ])
    def test_rejects_non_finite_parameters(self, model, params):
        with pytest.raises(DomainError, match="must be finite"):
            threshold_margin(model, params)

    @pytest.mark.parametrize("extra, message", [
        ({"delta": -1.0}, "delta must be > -1"),
        ({"delta": -5.0}, "delta must be > -1"),
        ({"K": -100.0}, "K must be >= 0"),
        ({"K": -1e-9}, "K must be >= 0"),
    ])
    def test_z2er_rejects_delta_at_most_minus_one_and_negative_k(self, extra, message):
        # (1 + delta) <= 0 would flip or zero the rate; K < 0 has no meaning
        with pytest.raises(DomainError, match=message):
            threshold_margin("z2er", {"n": 100, "p": 0.5, "eps": 0.1, **extra})

    def test_z2er_accepts_k_zero_and_delta_above_minus_one(self):
        base = {"n": 100, "p": 0.5, "eps": 0.1}
        assert threshold_margin("z2er", {**base, "K": 0.0, "delta": 0.0}) == \
            threshold_margin("z2er", base)
        assert math.isfinite(threshold_margin("z2er", {**base, "delta": -0.999}))

    @pytest.mark.parametrize("old", ["er_connectivity", "z2_er", "z2_gaussian"])
    def test_one_name_per_model(self, old):
        with pytest.raises(DomainError, match="unknown threshold model"):
            threshold_margin(old, {})
