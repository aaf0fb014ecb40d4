"""Harness tests: seeding discipline, crash schedules, stats, sweeps."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim import experiments
from rumorsim.bounds import lower_bound_rounds, upper_bound_rounds
from rumorsim.core import RUN_COMPLETED
from rumorsim.experiments import (
    CrashModel,
    ExperimentConfig,
    StatBlock,
    SweepCell,
    _pairwise,
    _stat_block,
    build_trial_state,
    compare_protocols,
    generate_crash_schedule,
    run_trials,
    sweep,
    sweep_grid,
    trial_seed_sequences,
    validate_bounds,
)
from rumorsim.protocols import FullyRandomPush, Hybrid, Quasirandom
from rumorsim.traceio import write_summary_json, write_trace_csv
from rumorsim.verify import verify_summary_against_trace, verify_trace

from test_core import ALL_SPECS
from test_pool import (  # noqa: F401  (deadline, pools and small_stacks are fixtures)
    _assert_same_batches,
    _serial_and_pooled,
    deadline,
    pools,
    small_stacks,
)

BASE = ExperimentConfig(spec=Hybrid(2), n=128, trials=30, master_seed=42)


# ------------------------------------------------------------- config checks


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(spec=Hybrid(1), n=0, trials=1, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=Hybrid(1), n=4, trials=0, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=Hybrid(1), n=4, trials=1, master_seed=0, start=4)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=Hybrid(1), n=4, trials=1, master_seed=0, retention="all")
    with pytest.raises(ValueError, match=r"^master seed must be >= 0, got -1$"):
        ExperimentConfig(spec=Hybrid(1), n=4, trials=1, master_seed=-1)
    # Node ids are int32.
    with pytest.raises(ValueError, match=r"^n must be at most 2147483647, got 2147483648$"):
        ExperimentConfig(spec=Hybrid(1), n=2**31, trials=1, master_seed=0)


def test_crash_model_rejects_bad_values():
    with pytest.raises(ValueError):
        CrashModel(fraction=1.0)
    with pytest.raises(ValueError):
        CrashModel(fraction=-0.1)
    with pytest.raises(ValueError):
        CrashModel(fraction=0.5, timing="sometimes")
    with pytest.raises(ValueError):
        CrashModel(fraction=0.5, timing="fixed_round")
    with pytest.raises(ValueError):
        CrashModel(fraction=0.5, timing="uniform_round", max_round=-1)
    with pytest.raises(ValueError, match="crash round must be below 2"):
        CrashModel(fraction=0.5, timing="fixed_round", round=2**63)
    with pytest.raises(ValueError, match="crash max_round must be below 2"):
        CrashModel(fraction=0.5, max_round=2**63)
    # A round field is read by one timing alone.
    with pytest.raises(ValueError, match="^crash round needs fixed_round timing, got at_start$"):
        CrashModel(fraction=0.5, timing="at_start", round=3)
    with pytest.raises(ValueError, match="^crash max_round needs uniform_round timing, got f"):
        CrashModel(fraction=0.5, timing="fixed_round", round=3, max_round=6)
    # Crash rounds are int64: the largest is still a round, one never reached.
    rng = np.random.default_rng(0)
    for model in (CrashModel(0.5, "fixed_round", round=2**63 - 1),
                  CrashModel(0.5, max_round=2**63 - 1)):
        assert len(generate_crash_schedule(8, model, rng)) == 4


# ---------------------------------------------------------- seeding discipline


def test_trial_seeds_are_stable_and_distinct():
    a_crash, a_sim = trial_seed_sequences(7, 3, 1)
    b_crash, b_sim = trial_seed_sequences(7, 3, 1)
    assert a_crash.spawn_key == b_crash.spawn_key
    assert np.random.default_rng(a_sim).integers(1 << 30) == np.random.default_rng(
        b_sim
    ).integers(1 << 30)
    keys = {
        trial_seed_sequences(7, t, g)[1].spawn_key for t in range(4) for g in range(3)
    }
    assert len(keys) == 12


def test_run_trials_is_pure():
    assert run_trials(BASE) == run_trials(BASE)


def test_different_master_seeds_differ():
    other = ExperimentConfig(spec=Hybrid(2), n=128, trials=30, master_seed=43)
    a, b = run_trials(BASE), run_trials(other)
    assert [s.total_calls for s in a.summaries] != [s.total_calls for s in b.summaries]


# ------------------------------------------------------------ crash schedules


def test_crash_schedule_size_and_exclusion():
    model = CrashModel(fraction=0.5, timing="at_start")
    schedule = generate_crash_schedule(10, model, np.random.default_rng(3), start=4)
    assert len(schedule) == 5
    assert 4 not in schedule
    assert all(round_ == 0 for round_ in schedule.values())


def test_crash_schedule_fixed_round():
    model = CrashModel(fraction=0.3, timing="fixed_round", round=6)
    schedule = generate_crash_schedule(20, model, np.random.default_rng(3))
    assert len(schedule) == 6
    assert set(schedule.values()) == {6}


def test_crash_schedule_uniform_round_range():
    model = CrashModel(fraction=0.5, timing="uniform_round", max_round=9)
    merged = {}
    for seed in range(20):
        merged |= generate_crash_schedule(40, model, np.random.default_rng(seed))
    assert all(0 <= round_ <= 9 for round_ in merged.values())


def test_crash_schedule_empty_at_zero_fraction():
    model = CrashModel(fraction=0.0)
    assert generate_crash_schedule(10, model, np.random.default_rng(0)) == {}


def test_crash_schedule_deterministic_per_trial():
    config = ExperimentConfig(
        spec=Hybrid(1), n=64, trials=2, master_seed=5, crash=CrashModel(0.25)
    )
    a = build_trial_state(config, 0)
    b = build_trial_state(config, 0)
    c = build_trial_state(config, 1)
    assert a.crash_schedule == b.crash_schedule
    assert a.crash_schedule != c.crash_schedule


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    fraction=st.floats(min_value=0.0, max_value=0.95),
    start=st.integers(min_value=0, max_value=199),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_crash_schedule(n, fraction, start, seed):
    start %= n
    model = CrashModel(fraction=fraction, timing="at_start")
    schedule = generate_crash_schedule(n, model, np.random.default_rng(seed), start)
    assert len(schedule) == math.floor(fraction * n)
    assert start not in schedule
    assert all(0 <= node < n for node in schedule)


# -------------------------------------------------------------- sample stats


def test_stat_block_nearest_rank_quantiles():
    block = _stat_block([1.0, 2.0, 3.0, 4.0, 100.0])
    assert block.mean == 22.0
    assert block.median == 3.0
    assert dict(block.quantiles) == {0.1: 1.0, 0.25: 2.0, 0.5: 3.0, 0.75: 4.0, 0.9: 100.0}
    assert block.std_error == pytest.approx(np.std([1, 2, 3, 4, 100], ddof=1) / np.sqrt(5))
    assert _stat_block([]) is None
    assert _stat_block([7.0]).std_error == 0.0


def test_sample_stats_counts_sum_to_trials():
    stats = run_trials(BASE)
    assert stats.trials == 30
    assert stats.completed_count + stats.stalled_count + stats.capped_count == 30
    assert stats.failure_count == stats.stalled_count + stats.capped_count
    assert len(stats.summaries) == 30
    assert stats.completion_rounds.count == stats.completed_count


def test_incomplete_at_matches_summaries():
    config = ExperimentConfig(
        spec=Hybrid(1),
        n=32,
        trials=50,
        master_seed=9,
        crash=CrashModel(0.78, timing="fixed_round", round=4),
    )
    stats = run_trials(config)
    assert stats.stalled_count > 0  # heavy mid-run crashes do stall some trials
    for budget in (0, 5, 10, 40):
        expected = sum(
            1
            for s in stats.summaries
            if s.completion_round is None or s.completion_round > budget
        ) / len(stats.summaries)
        assert stats.incomplete_at(budget) == expected
    assert stats.incomplete_at(0) == 1.0


def test_incomplete_at_never_increases():
    stats = run_trials(BASE)
    values = [stats.incomplete_at(t) for t in range(30)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_retained_traces_verify():
    config = ExperimentConfig(
        spec=Hybrid(2),
        n=64,
        trials=8,
        master_seed=13,
        crash=CrashModel(0.2),
        retention="trace",
    )
    stats = run_trials(config)
    assert stats.traces is not None and len(stats.traces) == 8
    for trial, trace in enumerate(stats.traces):
        state = build_trial_state(config, trial)
        report = verify_trace(
            trace, n=64, spec=config.spec, start=0, crash_schedule=state.crash_schedule
        )
        assert report.ok, (trial, report.violations[:3])
        assert verify_summary_against_trace(stats.summaries[trial], trace) == []


def test_summary_retention_keeps_no_traces():
    assert run_trials(BASE).traces is None


def test_batch_memory_is_bounded_by_the_stack_budget(monkeypatch):
    # About 140 bytes per stacked node at peak: the 200 trials' 819k nodes
    # stacked at once would take some 100 MB, a stack of 2^15 nodes under
    # 6 MB (180 bytes per node).  tracemalloc sees only this process, so
    # the stacks run here, not in workers.
    monkeypatch.setattr(experiments, "_POOL_NODE_TRIALS", math.inf)
    config = ExperimentConfig(
        spec=Hybrid(2), n=4096, trials=200, master_seed=3, crash=CrashModel(0.1)
    )
    tracemalloc.start()
    try:
        stats = run_trials(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.completed_count + stats.stalled_count == 200
    assert peak < 180 * 2**15


# SHA-256 over each trial's summary JSON and trace CSV files of a 12-trial batch
# at n=24 with no self-calls, start 3 and uniform-round crashes: the CLI's
# batch commands cannot turn self-calls off, so the API pins that path.
FROZEN_NO_SELF_CALL_BATCHES = {
    Hybrid(2): "f180f4a42d9286c64239f956314a0bbe4a7f3e58377d93f7d5d66de65e229f34",
    FullyRandomPush(): "435bf690a58ccde8d1b19898651ec2de297eae09d0ea88f941ce1a7916695933",
    Quasirandom("identical"): "b60d012d96e232fc2312f23b1a77b9a900d49a756a9cfe5bd9b5b3f8e1ff4263",
    Quasirandom("independent"): "aa660a43911988de767b7879f64f5144e53a6e5f9c88b51f918cd4db19be2a08",
}


@pytest.mark.parametrize("stack_nodes", [None, 24, 100])
@pytest.mark.parametrize("spec", list(FROZEN_NO_SELF_CALL_BATCHES), ids=str)
def test_no_self_call_batch_bytes_frozen(spec, stack_nodes, monkeypatch, tmp_path):
    if stack_nodes is not None:
        monkeypatch.setattr(experiments, "_STACK_NODES", stack_nodes)
    config = ExperimentConfig(
        spec=spec, n=24, trials=12, master_seed=16, crash=CrashModel(0.2),
        retention="trace", start=3, allow_self_calls=False,
    )
    stats = run_trials(config)
    digest = hashlib.sha256()
    summary_path, trace_path = tmp_path / "s.json", tmp_path / "t.csv"
    for summary, trace in zip(stats.summaries, stats.traces):
        write_summary_json(summary, str(summary_path))
        write_trace_csv(trace, str(trace_path))
        digest.update(summary_path.read_bytes() + trace_path.read_bytes())
    assert digest.hexdigest() == FROZEN_NO_SELF_CALL_BATCHES[spec]


def test_pooled_batch_in_two_call_blocks_equals_serial(monkeypatch, small_stacks, pools,
                                                      deadline):
    # Workers forked with two-call blocks run every stack's rounds in
    # blocks cut inside worlds and at their edges, as the serial path does,
    # and both equal the batch at the default block size.
    configs = [
        ExperimentConfig(spec=spec, n=24, trials=6, master_seed=97, retention="trace", start=5,
                         crash=CrashModel(0.2, "uniform_round"), allow_self_calls=self_calls)
        for spec in ALL_SPECS
        for self_calls in (True, False)
    ]
    default = experiments._run_batches(configs)
    monkeypatch.setattr("rumorsim.core._BLOCK_CALLS", 2)
    serial, pooled = _serial_and_pooled(monkeypatch, 2, lambda: experiments._run_batches(configs))
    assert pools == [2]
    _assert_same_batches(default, serial)
    _assert_same_batches(serial, pooled)


# ------------------------------------------------------------------- compare


def test_compare_requires_two_specs():
    with pytest.raises(ValueError):
        compare_protocols([Hybrid(1)], 64, 5, 1)


def test_compare_group_zero_matches_plain_batch():
    report = compare_protocols([Hybrid(2), FullyRandomPush()], 128, 30, 42)
    assert report.stats[0] == run_trials(BASE)
    assert report.names == ("hybrid", "push")


def test_compare_same_spec_gets_independent_streams():
    specs = [Hybrid(2), Hybrid(2)]
    crash = CrashModel(0.1)
    report = compare_protocols(specs, 128, 20, 42, crash=crash)
    a, b = report.stats
    assert [s.total_calls for s in a.summaries] != [s.total_calls for s in b.summaries]
    # Protocol i is sweep cell i: same seed groups, same batches.
    cells = [SweepCell(128, spec) for spec in specs]
    assert report.stats == sweep(cells, 20, 42, crash=crash).stats


@pytest.mark.parametrize("hybrid_mean, flagged", [(10.5, True), (10.3, False), (9.0, False)])
def test_dominance_flag_is_the_same_in_either_order(hybrid_mean, flagged):
    # The flag is raised when the hybrid is slower than identical-list
    # walking by more than three combined standard errors (0.1414 here).
    blocks = {
        "hybrid": StatBlock(40, hybrid_mean, hybrid_mean, 0.1, ()),
        "quasirandom-identical": StatBlock(40, 10.0, 10.0, 0.1, ()),
    }
    for names in (("hybrid", "quasirandom-identical"), ("quasirandom-identical", "hybrid")):
        stats = [SimpleNamespace(completion_rounds=blocks[name]) for name in names]
        pair = _pairwise(names, stats, 0, 1)
        assert (pair.name_a, pair.name_b) == names
        assert pair.mean_diff == pytest.approx(blocks[names[0]].mean - blocks[names[1]].mean)
        assert pair.dominance_flagged is flagged


def test_compare_pairwise_fields():
    report = compare_protocols(
        [Hybrid(1), Quasirandom("identical"), FullyRandomPush()], 256, 40, 7
    )
    assert len(report.pairs) == 3
    pair = report.pairs[0]
    assert (pair.name_a, pair.name_b) == ("hybrid", "quasirandom-identical")
    assert pair.mean_diff == pytest.approx(pair.mean_a - pair.mean_b)
    assert pair.combined_std_error >= 0
    # The hybrid is at least as fast as shared-list walking here, so the
    # dominance flag stays down; unrelated pairs are never flagged.
    assert not pair.dominance_flagged
    assert not report.pairs[1].dominance_flagged
    doc = report.as_dict()
    assert set(doc["protocols"]) == {"0:hybrid", "1:quasirandom-identical", "2:push"}


# ------------------------------------------------------------ bounds framing


def test_validate_bounds_rejects_non_hybrid():
    for spec in (FullyRandomPush(), Quasirandom("identical"), Quasirandom("independent")):
        config = ExperimentConfig(spec=spec, n=64, trials=3, master_seed=1)
        with pytest.raises(ValueError, match="^bound validation applies to the hybrid protocol$"):
            validate_bounds(config)


def test_validate_bounds_report_fields():
    config = ExperimentConfig(spec=Hybrid(3), n=4096, trials=30, master_seed=4)
    stats = run_trials(config)
    report = validate_bounds(config, stats, upper_epsilon=0.5, lower_epsilon=0.3)
    assert report.upper_rounds == upper_bound_rounds(4096, 3, 0.5)
    assert report.lower_rounds == lower_bound_rounds(4096, 3, 0.3)
    assert report.lower_cutoff == math.floor(report.lower_rounds) - 1
    assert report.max_observed_calls == max(s.total_calls for s in stats.summaries)
    assert report.max_calls_bound == 4096 * 4
    assert report.call_cap_satisfied
    assert 0.0 <= report.fraction_within_upper <= 1.0
    assert report.incomplete_at_lower_cutoff == stats.incomplete_at(report.lower_cutoff)


def test_validate_bounds_runs_batch_when_missing():
    config = ExperimentConfig(spec=Hybrid(2), n=256, trials=10, master_seed=3)
    assert validate_bounds(config) == validate_bounds(config, run_trials(config))


# -------------------------------------------------------------------- sweeps


def test_sweep_grid_builds_cross_product():
    cells = sweep_grid([16, 32], [1, Quasirandom("identical")])
    assert cells == [
        SweepCell(16, Hybrid(1)),
        SweepCell(16, Quasirandom("identical")),
        SweepCell(32, Hybrid(1)),
        SweepCell(32, Quasirandom("identical")),
    ]
    assert cells[0].stop_budget == 1
    assert cells[1].stop_budget is None


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep([], trials=5, master_seed=1)


def test_single_cell_sweep_equals_plain_batch():
    result = sweep(sweep_grid([128], [2]), trials=30, master_seed=42)
    assert result.stats[0] == run_trials(BASE)


def test_sweep_cells_use_distinct_streams():
    result = sweep(sweep_grid([64], [1, 1]), trials=10, master_seed=5)
    a, b = result.stats
    assert [s.total_calls for s in a.summaries] != [s.total_calls for s in b.summaries]


def test_sweep_rows():
    result = sweep(sweep_grid([64, 128], [1]), trials=10, master_seed=5)
    rows = result.rows()
    assert len(rows) == 16
    assert rows[0] == (64, "hybrid", 1, "completion_mean", rows[0][4])
    statistics = [row[3] for row in rows[:8]]
    assert statistics == [
        "completion_mean",
        "completion_median",
        "completion_std_error",
        "calls_mean",
        "calls_max",
        "completed_count",
        "stalled_count",
        "capped_count",
    ]


# ----------------------------------------------------------- crashed batches


def test_crash_batch_completes_or_stalls_cleanly():
    config = ExperimentConfig(
        spec=Hybrid(3),
        n=256,
        trials=25,
        master_seed=17,
        crash=CrashModel(0.1, timing="uniform_round", max_round=20),
    )
    stats = run_trials(config)
    assert stats.capped_count == 0
    assert stats.completed_count + stats.stalled_count == 25
    # A completed crash trial informs every surviving node by definition
    # of the completion predicate; spot-check via retained traces.
    config_traced = ExperimentConfig(
        spec=Hybrid(3),
        n=256,
        trials=5,
        master_seed=17,
        crash=CrashModel(0.1, timing="uniform_round", max_round=20),
        retention="trace",
    )
    traced = run_trials(config_traced)
    for trial, trace in enumerate(traced.traces):
        state = build_trial_state(config_traced, trial)
        crashed = set(state.crash_schedule)
        informed = {r.target for r in trace if r.outcome.value == "informed"} | {0}
        if traced.summaries[trial].outcome == RUN_COMPLETED:
            assert informed | crashed >= set(range(256))
