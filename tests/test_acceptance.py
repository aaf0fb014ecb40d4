"""Full-scale acceptance checks for the package's stated guarantees.

Each test covers one numbered criterion end to end and emits exactly one
PASS/FAIL line with the measured quantities.  The heavyweight batches are
module-scoped fixtures shared across tests, and every batch the suite runs
is registered in a corpus so the completion-floor and doubling checks sweep
all of them.  Master seeds are frozen so every number here is reproducible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from rumorsim import (
    RUN_CAPPED,
    RUN_COMPLETED,
    RUN_STALLED,
    CrashModel,
    ExperimentConfig,
    FullyRandomPush,
    Hybrid,
    Quasirandom,
    classical_push_estimate,
    compare_protocols,
    optimal_stop_budget,
    run_trials,
    sweep,
    sweep_grid,
    validate_bounds,
)
from rumorsim import cli
from rumorsim.experiments import TIMING_UNIFORM_ROUND

# Criterion 1: exact call-budget cap, zero tolerance.
CAP_SIZES = (2 ** 8, 2 ** 12)
CAP_BUDGETS = (1, 2, 5)
CAP_TRIALS = 1000
CAP_SEED = 2560

# Criteria 4 and 5: one large batch framed against both round bounds.
BIG_N = 2 ** 17
BIG_TRIALS = 200
BIG_SEED = 170417
UPPER_EPSILON = 0.5
LOWER_EPSILON = 0.3

# Criterion 6: fully-random push against its closed-form round estimate.
PUSH_N = 100_000
PUSH_TRIALS = 100
PUSH_SEED = 100100
PUSH_TOLERANCE = 0.15

# Criterion 7: restarts must not lose to identical lists.
PAIR_N = 2 ** 12
PAIR_TRIALS = 200
PAIR_SEED = 712

# Criterion 8: crashes spread over the whole spreading phase.
CRASH_N = 2 ** 14
CRASH_TRIALS = 200
CRASH_SEED = 814
NOCRASH_SEED = 815
CRASH_FRACTION = 0.1
CRASH_MAX_ROUND = math.ceil(classical_push_estimate(CRASH_N))

# Criteria 9 and 10: repeatability and the round/budget tradeoff.
REPEAT_ARGS = ("--n", "1024", "--R", "2", "--seed", "424242")
SWEEP_N = 2 ** 14
SWEEP_BUDGETS = (1, 3)
SWEEP_TRIALS = 200
SWEEP_SEED = 1414
PILOT_FIXTURE = Path(__file__).parent / "fixtures" / "pilot_tradeoff.json"

# Every batch the suite runs: (label, n, crashed, summaries).
_CORPUS: list[tuple[str, int, bool, tuple]] = []


def _register(label, n, crashed, stats):
    _CORPUS.append((label, n, crashed, stats.summaries))
    return stats


def _verdict(label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def call_cap_batches():
    out = []
    for index, (n, budget) in enumerate(
        (n, b) for n in CAP_SIZES for b in CAP_BUDGETS
    ):
        config = ExperimentConfig(
            spec=Hybrid(budget), n=n, trials=CAP_TRIALS, master_seed=CAP_SEED + index
        )
        stats = _register(f"call-cap n={n} R={budget}", n, False, run_trials(config))
        out.append((config, stats))
    return out


@pytest.fixture(scope="module")
def big_batch():
    budget = optimal_stop_budget(BIG_N)
    config = ExperimentConfig(
        spec=Hybrid(budget), n=BIG_N, trials=BIG_TRIALS, master_seed=BIG_SEED
    )
    stats = _register(f"large n={BIG_N} R={budget}", BIG_N, False, run_trials(config))
    return config, stats


@pytest.fixture(scope="module")
def bound_report(big_batch):
    config, stats = big_batch
    return validate_bounds(
        config, stats, upper_epsilon=UPPER_EPSILON, lower_epsilon=LOWER_EPSILON
    )


@pytest.fixture(scope="module")
def push_batch():
    config = ExperimentConfig(
        spec=FullyRandomPush(), n=PUSH_N, trials=PUSH_TRIALS, master_seed=PUSH_SEED
    )
    return _register(f"push n={PUSH_N}", PUSH_N, False, run_trials(config))


@pytest.fixture(scope="module")
def pair_report():
    report = compare_protocols(
        [Hybrid(1), Quasirandom("identical")], PAIR_N, PAIR_TRIALS, PAIR_SEED
    )
    for name, stats in zip(report.names, report.stats):
        _register(f"pair {name} n={PAIR_N}", PAIR_N, False, stats)
    return report


@pytest.fixture(scope="module")
def crash_batch():
    budget = optimal_stop_budget(CRASH_N)
    config = ExperimentConfig(
        spec=Hybrid(budget),
        n=CRASH_N,
        trials=CRASH_TRIALS,
        master_seed=CRASH_SEED,
        crash=CrashModel(
            CRASH_FRACTION, TIMING_UNIFORM_ROUND, max_round=CRASH_MAX_ROUND
        ),
    )
    return _register(f"crash n={CRASH_N} R={budget}", CRASH_N, True, run_trials(config))


@pytest.fixture(scope="module")
def nocrash_reference():
    budget = optimal_stop_budget(CRASH_N)
    config = ExperimentConfig(
        spec=Hybrid(budget), n=CRASH_N, trials=CRASH_TRIALS, master_seed=NOCRASH_SEED
    )
    return _register(
        f"no-crash reference n={CRASH_N} R={budget}", CRASH_N, False, run_trials(config)
    )


@pytest.fixture(scope="module")
def tradeoff():
    result = sweep(sweep_grid([SWEEP_N], list(SWEEP_BUDGETS)), SWEEP_TRIALS, SWEEP_SEED)
    for cell, stats in zip(result.cells, result.stats):
        _register(f"sweep n={cell.n} R={cell.stop_budget}", cell.n, False, stats)
    return result


@pytest.fixture(scope="module")
def corpus(
    call_cap_batches,
    big_batch,
    push_batch,
    pair_report,
    crash_batch,
    nocrash_reference,
    tradeoff,
):
    return tuple(_CORPUS)


def test_01_call_budget_cap(call_cap_batches):
    worst_ratio = 0.0
    ok = True
    for config, stats in call_cap_batches:
        budget = config.spec.stop_budget
        cap = config.n * (budget + 1)
        observed = max(s.total_calls for s in stats.summaries)
        ok = ok and observed <= cap
        if budget == 1:
            ok = ok and observed <= 2 * config.n
        worst_ratio = max(worst_ratio, observed / cap)
    trials = len(call_cap_batches) * CAP_TRIALS
    _verdict(
        "criterion 1 (call budget cap)",
        ok,
        f"{trials} trials over n in {set(CAP_SIZES)}, R in {set(CAP_BUDGETS)}; "
        f"every trial within n*(R+1) calls (worst ratio {worst_ratio:.4f})",
    )


def test_02_completion_floor(corpus):
    checked = 0
    ok = True
    for _label, n, crashed, summaries in corpus:
        if crashed:
            continue
        floor = math.ceil(math.log2(n))
        for s in summaries:
            checked += 1
            ok = ok and s.outcome == RUN_COMPLETED
            ok = ok and s.completion_round is not None and s.completion_round >= floor
            ok = ok and s.informing_calls == n - 1
    _verdict(
        "criterion 2 (completion floor)",
        ok,
        f"{checked} no-crash trials all completed in >= ceil(log2 n) rounds "
        f"with exactly n-1 informing calls",
    )


def _doubling_ok(n: int, profile) -> bool:
    for t, count in enumerate(profile):
        if count > n:
            return False
        if t < n.bit_length() and count > 2 ** t:
            return False
    return True


def test_03_per_round_doubling(corpus):
    trials = 0
    entries = 0
    ok = True
    for _label, n, _crashed, summaries in corpus:
        for s in summaries:
            trials += 1
            entries += len(s.per_round_informed)
            ok = ok and _doubling_ok(n, s.per_round_informed)
    _verdict(
        "criterion 3 (per-round doubling)",
        ok,
        f"{trials} trials ({entries} round entries) never exceed min(n, 2^t) "
        f"informed nodes after round t",
    )


def test_04_upper_bound_quantile(bound_report):
    ok = bound_report.fraction_within_upper >= 0.95
    _verdict(
        "criterion 4 (upper bound quantile)",
        ok,
        f"{bound_report.fraction_within_upper:.3f} of {bound_report.trials} trials "
        f"at n={bound_report.n}, R={bound_report.stop_budget} finished within "
        f"{bound_report.upper_rounds:.2f} rounds (need >= 0.95)",
    )


def test_05_lower_bound_mass(bound_report):
    ok = bound_report.incomplete_at_lower_cutoff >= 0.99
    _verdict(
        "criterion 5 (lower bound mass)",
        ok,
        f"{bound_report.incomplete_at_lower_cutoff:.3f} of {bound_report.trials} "
        f"trials still incomplete after round {bound_report.lower_cutoff} "
        f"(need >= 0.99)",
    )


def test_06_classical_push_mean(push_batch):
    mean = push_batch.completion_rounds.mean
    estimate = classical_push_estimate(PUSH_N)
    ok = abs(mean - estimate) <= PUSH_TOLERANCE * estimate
    _verdict(
        "criterion 6 (classical push mean)",
        ok,
        f"mean completion {mean:.3f} over {PUSH_TRIALS} trials at n={PUSH_N} vs "
        f"log2 n + ln n = {estimate:.3f} (tolerance {PUSH_TOLERANCE:.0%})",
    )


def test_07_restarts_vs_identical_lists(pair_report):
    pair = pair_report.pairs[0]
    margin = 3 * pair.combined_std_error
    ok = pair.mean_a <= pair.mean_b + margin and not pair.dominance_flagged
    _verdict(
        "criterion 7 (restarts vs identical lists)",
        ok,
        f"mean completion {pair.mean_a:.3f} ({pair.name_a}) vs {pair.mean_b:.3f} "
        f"({pair.name_b}) at n={PAIR_N}; allowed excess {margin:.3f}",
    )


def test_08_crash_robustness(crash_batch, nocrash_reference):
    ok = crash_batch.capped_count == 0
    allowed_crashes = math.floor(CRASH_FRACTION * CRASH_N)
    for s in crash_batch.summaries:
        ok = ok and s.outcome in (RUN_COMPLETED, RUN_STALLED)
        if s.outcome == RUN_COMPLETED:
            # Whoever is missing from the informed count must have crashed.
            ok = ok and CRASH_N - s.per_round_informed[-1] <= allowed_crashes
    crashed_median = crash_batch.completion_rounds.median
    clean_median = nocrash_reference.completion_rounds.median
    ok = ok and crashed_median <= 2 * clean_median
    _verdict(
        "criterion 8 (crash robustness)",
        ok,
        f"{crash_batch.completed_count} completed / {crash_batch.stalled_count} "
        f"stalled of {CRASH_TRIALS} trials with {CRASH_FRACTION:.0%} crashes; "
        f"median {crashed_median:.1f} vs {clean_median:.1f} without crashes "
        f"(allowed factor 2)",
    )


def test_09_byte_identical_reruns(tmp_path):
    def simulate(tag: str) -> tuple[bytes, bytes]:
        outdir = tmp_path / tag
        outdir.mkdir()
        trace = outdir / "trace.csv"
        summary = outdir / "summary.json"
        code = cli.main(
            ["simulate", *REPEAT_ARGS,
             "--trace-out", str(trace), "--summary-out", str(summary)]
        )
        assert code == 0
        return trace.read_bytes(), summary.read_bytes()

    def sweep_table(tag: str) -> bytes:
        out = tmp_path / f"{tag}.csv"
        code = cli.main(
            ["sweep", "--n-list", "256", "--R-list", "1,2", "--trials", "50",
             "--seed", "7", "--format", "delimited", "--out", str(out)]
        )
        assert code == 0
        return out.read_bytes()

    trace_a, summary_a = simulate("first")
    trace_b, summary_b = simulate("second")
    table_a = sweep_table("table_first")
    table_b = sweep_table("table_second")
    ok = trace_a == trace_b and summary_a == summary_b and table_a == table_b
    _verdict(
        "criterion 9 (byte-identical reruns)",
        ok,
        f"repeated runs reproduced {len(trace_a)} trace bytes, "
        f"{len(summary_a)} summary bytes and {len(table_a)} sweep-table bytes",
    )


def test_10_budget_round_tradeoff(tradeoff):
    payload = json.loads(PILOT_FIXTURE.read_text(encoding="utf-8"))
    assert payload["stop_budgets"] == list(SWEEP_BUDGETS)
    floor = payload["gap_floor"]
    small, large = SWEEP_BUDGETS
    means = {(cell.n, cell.spec): stat.completion_rounds.mean
             for cell, stat in zip(tradeoff.cells, tradeoff.stats)}
    mean_small, mean_large = means[SWEEP_N, Hybrid(small)], means[SWEEP_N, Hybrid(large)]
    gap = mean_small - mean_large
    ok = mean_small > mean_large and gap >= floor
    _verdict(
        "criterion 10 (budget/round tradeoff)",
        ok,
        f"mean completion {mean_small:.3f} at R={small} vs {mean_large:.3f} at "
        f"R={large} (n={SWEEP_N}); gap {gap:.3f} >= calibrated floor {floor:.3f}",
    )
