"""Closed-form evaluator tests against independently computed values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim.bounds import (
    REGIME_LARGE_BUDGET,
    REGIME_SMALL_BUDGET,
    BoundsReport,
    bounds_report,
    budget_regime,
    classical_push_estimate,
    default_round_slack,
    lower_bound_margin,
    lower_bound_rounds,
    max_total_calls,
    optimal_stop_budget,
    upper_bound_rounds,
)

E_100 = math.exp(100)


class TestUpperBoundRounds:
    def test_small_budget_branch_frozen_value(self):
        # 10 + 1.01 * ln(1024) + 1 + ln(ln(1024)), computed independently
        got = upper_bound_rounds(1024, 1, 0.01)
        assert got == pytest.approx(19.93685869606783, abs=1e-12)

    def test_large_budget_branch_frozen_value(self):
        # 10 + 2 * sqrt(ln(1024)), computed independently
        got = upper_bound_rounds(1024, 100, 0.0)
        assert got == pytest.approx(15.265537695468318, abs=1e-12)

    def test_branch_boundary_uses_small_budget_value(self):
        # ln(e^9) = 9 exactly, so budget 3 sits exactly on the boundary.
        n = math.exp(9)
        small = math.log2(n) + 9 / 3 + 3
        large = math.log2(n) + 2 * 3
        assert small == pytest.approx(large)
        got = upper_bound_rounds(n, 3, 0.0) - default_round_slack(n)
        assert got == pytest.approx(small)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_budget_or_epsilon(self, value):
        with pytest.raises(ValueError, match="stop_budget must be finite"):
            upper_bound_rounds(16, value, 0.1)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            upper_bound_rounds(16, 2, value)
        for evaluate in (budget_regime, max_total_calls, bounds_report):
            with pytest.raises(ValueError, match="stop_budget must be finite"):
                evaluate(16, value)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            upper_bound_rounds(1024, 0, 0.1)
        with pytest.raises(ValueError):
            upper_bound_rounds(1, 1, 0.1)
        with pytest.raises(ValueError):
            upper_bound_rounds(1024, 1, -0.1)


class TestLowerBound:
    def test_margin_frozen_value(self):
        # min{0.9*100/5 + 2.5, sqrt(180)} = min{20.5, 13.4164...}
        got = lower_bound_margin(E_100, 5, 0.1)
        assert got == pytest.approx(13.416407864998739, abs=1e-12)

    def test_rounds_frozen_value(self):
        got = lower_bound_rounds(E_100, 5, 0.1)
        assert got == pytest.approx(157.6859119538951, abs=1e-10)

    def test_huge_budget_hits_cap_term(self):
        n = 1024
        cap = math.sqrt(2 * 0.9 * math.log(n))
        assert lower_bound_margin(n, 10_000, 0.1) == pytest.approx(cap)

    def test_epsilon_near_one_margin_vanishes(self):
        assert lower_bound_margin(1024, 3, 1 - 1e-12) < 1e-4

    def test_walk_term_minimized_where_branches_coincide(self):
        # The walk term (1-eps)ln(n)/b + b/2 is minimized at
        # b* = sqrt(2(1-eps)ln n), where it equals the cap term.
        n, eps = 2**20, 0.2
        b_star = math.sqrt(2 * (1 - eps) * math.log(n))
        walk_at_star = (1 - eps) * math.log(n) / b_star + b_star / 2
        cap = math.sqrt(2 * (1 - eps) * math.log(n))
        assert walk_at_star == pytest.approx(cap)
        assert lower_bound_margin(n, b_star, eps) == pytest.approx(cap)

    def test_rejects_epsilon_outside_unit_interval(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                lower_bound_margin(1024, 3, eps)
            with pytest.raises(ValueError):
                lower_bound_rounds(1024, 3, eps)


class TestScalarHelpers:
    @pytest.mark.parametrize(
        "n,budget,expected",
        [(100, 3, 400), (1, 5, 6), (7, 1, 14), (4096, 1, 8192)],
    )
    def test_max_total_calls(self, n, budget, expected):
        assert max_total_calls(n, budget) == expected

    @pytest.mark.parametrize("n,expected", [(1024, 3), (E_100, 10), (2, 1)])
    def test_optimal_stop_budget(self, n, expected):
        assert optimal_stop_budget(n) == expected

    def test_classical_push_frozen_values(self):
        assert classical_push_estimate(2) == pytest.approx(
            1.6931471805599454, abs=1e-12
        )
        assert classical_push_estimate(math.e) == pytest.approx(
            math.log2(math.e) + 1, abs=1e-12
        )
        assert classical_push_estimate(1e5) == pytest.approx(
            28.12256593940704, abs=1e-10
        )

    def test_default_slack_floors_at_one(self):
        assert default_round_slack(2) == pytest.approx(1.0)
        assert default_round_slack(1024) == pytest.approx(
            math.log(math.log(1024))
        )

    def test_regime_boundary_counts_as_small(self):
        n = math.exp(9)
        assert budget_regime(n, 3) == REGIME_SMALL_BUDGET
        assert budget_regime(n, 3.0001) == REGIME_LARGE_BUDGET
        assert budget_regime(n, 1) == REGIME_SMALL_BUDGET


# Property tests over the documented parameter box.

budget_fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def bound_params(draw):
    exponent = draw(st.floats(min_value=4, max_value=30))
    n = 2.0**exponent
    frac = draw(budget_fractions)
    budget = 1 + frac * (2 * math.sqrt(math.log(n)) - 1)
    epsilon = draw(st.floats(min_value=1e-6, max_value=0.2))
    return n, budget, epsilon


@given(bound_params())
@settings(max_examples=300)
def test_lower_bound_never_exceeds_upper_bound(params):
    n, budget, epsilon = params
    lower = lower_bound_rounds(n, budget, epsilon)
    # n >= 2^4 > e^e, so the default slack is the unfloored ln ln n.
    upper = upper_bound_rounds(n, budget, epsilon)
    assert lower <= upper


@given(bound_params())
@settings(max_examples=200)
def test_lower_bound_is_log2_plus_margin(params):
    n, budget, epsilon = params
    expected = math.log2(n) + lower_bound_margin(n, budget, epsilon)
    assert lower_bound_rounds(n, budget, epsilon) == expected


@given(bound_params())
@settings(max_examples=200)
def test_margin_is_min_of_both_terms(params):
    n, budget, epsilon = params
    margin = lower_bound_margin(n, budget, epsilon)
    walk = (1 - epsilon) * math.log(n) / budget + budget / 2
    cap = math.sqrt(2 * (1 - epsilon) * math.log(n))
    assert margin == min(walk, cap)
    assert margin <= walk and margin <= cap


@given(st.floats(min_value=4, max_value=30), st.floats(min_value=0, max_value=0.5))
@settings(max_examples=200)
def test_upper_bound_branches_meet_within_slack(exponent, epsilon):
    # At the case boundary the two branch values differ by exactly slack(n).
    n = 2.0**exponent
    boundary = math.sqrt(math.log(n))
    small = upper_bound_rounds(n, boundary, epsilon)
    large = math.log2(n) + (2 + epsilon) * boundary
    assert abs(small - large) == pytest.approx(default_round_slack(n), rel=1e-9)


def test_report_bundles_consistent_values():
    report = bounds_report(1024, 1, 0.01)
    assert isinstance(report, BoundsReport)
    assert report.upper_rounds == pytest.approx(19.93685869606783)
    assert report.max_calls == 2048
    assert report.regime == REGIME_SMALL_BUDGET
    assert report.optimal_stop_budget == 3
    assert report.lower_rounds == math.log2(1024) + report.lower_margin
    keys = list(report.as_dict())
    assert keys == [
        "n",
        "stop_budget",
        "epsilon",
        "slack_value",
        "upper_rounds",
        "lower_rounds",
        "lower_margin",
        "max_calls",
        "regime",
        "optimal_stop_budget",
    ]


def test_report_defaults_to_optimal_budget():
    report = bounds_report(1024)
    assert report.stop_budget == 3
    assert report.epsilon == 0.1
    assert report.max_calls == 4096
