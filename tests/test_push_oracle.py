"""An exact oracle for push at small n, derived from the protocol alone.

Under push every informed node calls one target per round, drawn
uniformly from all n nodes (or from the other n - 1 without self-calls),
and a call informs its target if the target is uninformed and alive.  So
the informed count is a Markov chain (Pittel, "On Spreading a Rumor",
SIAM J. Appl. Math. 1987): from k informed callers, the number of new
nodes is the number of distinct uninformed live nodes hit, whose law
follows by inclusion-exclusion.  This file derives the exact law of the
completion round from that reading alone, in ``Fraction``s, and compares
``run_trials`` with it by a chi-square test at a fixed significance.
"""

from fractions import Fraction
from math import comb, floor

import pytest

from rumorsim.experiments import CrashModel, ExperimentConfig, run_trials
from rumorsim.protocols import FullyRandomPush

TRIALS = 4000
MIN_EXPECTED = 5  # expected trials per chi-square bin
SIGNIFICANCE = 1e-3


def new_informed_law(n, k, crashed, self_calls):
    """P(j new nodes in a round) for j = 0 .. the uninformed live count,
    with k informed callers and ``crashed`` crashed nodes."""
    uninformed = n - crashed - k
    targets = n if self_calls else n - 1
    # Targets a call informs no one at: the informed (the caller itself
    # only with self-calls) and the crashed.
    idle = crashed + (k if self_calls else k - 1)
    law = []
    for j in range(uninformed + 1):
        # Every call lands on the idle targets or on j given uninformed
        # nodes, and each of the j is hit.
        exactly = sum(
            (-1) ** i * comb(j, i) * Fraction(idle + j - i, targets) ** k
            for i in range(j + 1)
        )
        law.append(comb(uninformed, j) * exactly)
    assert sum(law) == 1
    return law


def completion_law(n, self_calls, crashed, trials):
    """P(completion round = t) for t = 0, 1, ..., far enough that fewer
    than ``MIN_EXPECTED`` of ``trials`` are expected to finish later."""
    live = n - crashed
    step = {k: new_informed_law(n, k, crashed, self_calls) for k in range(1, live)}
    pending = {1: Fraction(1)} if live > 1 else {}  # informed count -> mass
    law = [Fraction(1) - sum(pending.values())]
    while sum(pending.values()) * trials >= MIN_EXPECTED:
        after = {}
        for k, mass in pending.items():
            for j, p in enumerate(step[k]):
                after[k + j] = after.get(k + j, 0) + mass * p
        law.append(after.pop(live, Fraction(0)))
        pending = after
    return law


def chi_square_bins(law, trials):
    """First rounds of bins of at least ``MIN_EXPECTED`` expected trials
    each, and each bin's probability; the last bin is open-ended."""
    starts, probs = [0], [Fraction(0)]
    for t, p in enumerate(law):
        if probs[-1] * trials >= MIN_EXPECTED:
            starts.append(t)
            probs.append(Fraction(0))
        probs[-1] += p
    probs[-1] = 1 - sum(probs[:-1])  # the last bin takes every later round
    if probs[-1] * trials < MIN_EXPECTED:
        starts.pop()
        probs[-2:] = [sum(probs[-2:])]
    return starts, probs


@pytest.fixture(scope="module")
def chi2():
    # Imported when the first test here runs, not when pytest collects the
    # module: scipy starts a BLAS thread, and with it every later batch in
    # the session runs without the fork pool.
    return pytest.importorskip("scipy.stats").chi2


CASES = [
    # (n, self-calls, at_start crash fraction)
    (2, True, 0.0),
    (8, True, 0.0),
    (8, False, 0.0),
    (16, True, 0.0),
    (16, False, 0.0),
    (12, False, 0.25),
]


@pytest.mark.parametrize("n, self_calls, rho", CASES)
def test_push_completion_round_follows_the_exact_law(n, self_calls, rho, chi2):
    crash = CrashModel(rho, "at_start") if rho else None
    config = ExperimentConfig(
        spec=FullyRandomPush(), n=n, trials=TRIALS, master_seed=2026,
        crash=crash, allow_self_calls=self_calls,
    )
    stats = run_trials(config)
    assert stats.completed_count == TRIALS

    law = completion_law(n, self_calls, floor(rho * n), TRIALS)
    starts, probs = chi_square_bins(law, TRIALS)
    assert len(starts) >= 3 and sum(probs) == 1
    observed = [0] * len(starts)
    for summary in stats.summaries:
        observed[sum(start <= summary.completion_round for start in starts) - 1] += 1
    statistic = sum(
        (count - TRIALS * float(p)) ** 2 / (TRIALS * float(p))
        for count, p in zip(observed, probs)
    )
    assert statistic < chi2.ppf(1 - SIGNIFICANCE, len(starts) - 1), (observed, starts)


def test_new_informed_law_small_cases():
    # One caller of two nodes with self-calls: it hits the other half the time.
    assert new_informed_law(2, 1, 0, True) == [Fraction(1, 2), Fraction(1, 2)]
    # Without self-calls the lone caller always hits the other node.
    assert new_informed_law(2, 1, 0, False) == [0, 1]
    # Two callers of four nodes, self-calls: both land on the informed pair
    # with chance 1/4; two distinct new nodes with chance 2/16.
    assert new_informed_law(4, 2, 0, True) == [
        Fraction(1, 4), Fraction(5, 8), Fraction(1, 8)]
