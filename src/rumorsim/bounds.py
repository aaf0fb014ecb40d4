"""Closed-form round and call estimates for the hybrid protocol.

On ``n`` nodes with stop budget ``b``, the hybrid protocol completes with
high probability within

    log2(n) + (1 + eps) * ln(n) / b + b + slack(n)    when b <= sqrt(ln n)
    log2(n) + (2 + eps) * sqrt(ln n)                  when b >= sqrt(ln n)

rounds while placing at most ``n * (b + 1)`` calls, and with high
probability is still incomplete after fewer than ``log2(n) + margin``
rounds.  Here ``slack(n)`` is ``default_round_slack(n)``, ln ln n floored
at 1, and

    margin = min{(1 - eps) * ln(n) / b + b / 2, sqrt(2 * (1 - eps) * ln n)}.

These evaluators compute the expressions exactly so that Monte Carlo
batches can be framed against them.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

REGIME_SMALL_BUDGET = "small_budget"
REGIME_LARGE_BUDGET = "large_budget"

# Budgets are integers in the protocol but the expressions are smooth in the
# budget, so the evaluators accept real values >= 1.


def default_round_slack(n: float) -> float:
    """Default slowly growing slack term: ln ln n, floored at 1 for tiny n."""
    return math.log(math.log(max(n, math.e**math.e)))


def _check_n(n: float) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def _check_budget(stop_budget: float) -> None:
    if not 1 <= stop_budget < math.inf:
        raise ValueError(f"stop_budget must be finite and >= 1, got {stop_budget}")


def budget_regime(n: float, stop_budget: float) -> str:
    """Which case of the upper bound applies; the boundary counts as small."""
    _check_n(n)
    _check_budget(stop_budget)
    if stop_budget <= math.sqrt(math.log(n)):
        return REGIME_SMALL_BUDGET
    return REGIME_LARGE_BUDGET


def upper_bound_rounds(n: float, stop_budget: float, epsilon: float) -> float:
    """Round count within which the hybrid protocol whp completes.

    The small-budget branch applies when ``stop_budget <= sqrt(ln n)``; at
    the boundary the branches differ only by ``default_round_slack(n)`` and
    the small-budget value is returned.
    """
    _check_n(n)
    _check_budget(stop_budget)
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    ln_n = math.log(n)
    if stop_budget <= math.sqrt(ln_n):
        return (
            math.log2(n)
            + (1 + epsilon) * ln_n / stop_budget
            + stop_budget
            + default_round_slack(n)
        )
    return math.log2(n) + (2 + epsilon) * math.sqrt(ln_n)


def lower_bound_margin(n: float, stop_budget: float, epsilon: float) -> float:
    """Margin over log2(n) below which runs whp leave nodes uninformed.

    Defined as the minimum of the budget-dependent walk term and its
    budget-free cap; by AM-GM the cap is never larger, with equality
    exactly at ``stop_budget = sqrt(2 (1 - eps) ln n)``.
    """
    _check_n(n)
    _check_budget(stop_budget)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    ln_n = math.log(n)
    walk_term = (1 - epsilon) * ln_n / stop_budget + stop_budget / 2
    cap_term = math.sqrt(2 * (1 - epsilon) * ln_n)
    return min(walk_term, cap_term)


def lower_bound_rounds(n: float, stop_budget: float, epsilon: float) -> float:
    """Round count below which the hybrid protocol whp is still incomplete."""
    return math.log2(n) + lower_bound_margin(n, stop_budget, epsilon)


def max_total_calls(n: int, stop_budget: int) -> int:
    """Worst-case total calls of the hybrid protocol: n * (stop_budget + 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_budget(stop_budget)
    return n * (stop_budget + 1)


def optimal_stop_budget(n: float) -> int:
    """Budget ceil(sqrt(ln n)) balancing the walk and restart terms."""
    _check_n(n)
    return math.ceil(math.sqrt(math.log(n)))


def classical_push_estimate(n: float) -> float:
    """Leading-order completion rounds of fully random push: log2 n + ln n."""
    _check_n(n)
    return math.log2(n) + math.log(n)


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form values for one (n, stop_budget, epsilon) configuration."""

    n: int
    stop_budget: int
    epsilon: float
    slack_value: float
    upper_rounds: float
    lower_rounds: float
    lower_margin: float
    max_calls: int
    regime: str
    optimal_stop_budget: int

    def as_dict(self) -> dict:
        """Fields in their fixed serialization order."""
        return asdict(self)


def bounds_report(
    n: int, stop_budget: int | None = None, epsilon: float = 0.1
) -> BoundsReport:
    """Evaluate all bounds at once; the budget defaults to the optimal one."""
    _check_n(n)
    if stop_budget is None:
        stop_budget = optimal_stop_budget(n)
    return BoundsReport(
        n=n,
        stop_budget=stop_budget,
        epsilon=epsilon,
        slack_value=default_round_slack(n),
        upper_rounds=upper_bound_rounds(n, stop_budget, epsilon),
        lower_rounds=lower_bound_rounds(n, stop_budget, epsilon),
        lower_margin=lower_bound_margin(n, stop_budget, epsilon),
        max_calls=max_total_calls(n, stop_budget),
        regime=budget_regime(n, stop_budget),
        optimal_stop_budget=optimal_stop_budget(n),
    )
