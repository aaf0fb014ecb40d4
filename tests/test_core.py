"""Round engine tests: golden traces, crafted calls, and run invariants.

The n=4 golden traces were verified by hand against the protocol rules:
every record's kind, outcome, caller transition, and budget charge was
checked line by line before freezing the seed.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorsim.core import (
    COLUMN_DTYPES,
    _CRASHED,
    _INFORMED,
    _NO_SERIAL,
    _STOPPED,
    _UNINFORMED,
    _IndependentListRules,
    _execute_rounds,
    _resolve,
    _run_worlds,
    CallKind,
    CallOutcome,
    RUN_CAPPED,
    RUN_COMPLETED,
    RUN_STALLED,
    default_round_cap,
    execute_round,
    init_simulation,
    init_stack,
    run,
    run_stack,
)
from rumorsim.experiments import (
    CrashModel,
    ExperimentConfig,
    build_trial_state,
    generate_crash_schedule,
    run_trials,
)
from rumorsim.protocols import FullyRandomPush, Hybrid, Quasirandom
from rumorsim.verify import verify_summary_against_trace, verify_trace

from reference_engine import (
    CallIntent,
    apply_call,
    collect_intents,
    execute_round_reference,
    reference_drawn,
    reference_log,
)

ALL_SPECS = [
    Hybrid(1),
    Hybrid(3),
    Quasirandom("identical"),
    Quasirandom("independent"),
    FullyRandomPush(),
]


def as_tuples(records):
    return [
        (r.round, r.caller, r.target, r.kind.value, r.outcome.value, r.serial_position)
        for r in records
    ]


def rules_array(state, name):
    """The world's slice of its rules' per-node array ``name``, by node id."""
    return getattr(state._rules, name)[state._base : state._base + state.n]


def world_arrays(state):
    """The world's ``_status`` and its slice of every per-node array its
    rules hold: each array whose first axis runs over the stack's entries."""
    entries = state._stack.count * state.n
    arrays = {"_status": state._status}
    for name, value in vars(state._rules).items():
        if isinstance(value, np.ndarray) and value.shape[:1] == (entries,):
            arrays[name] = rules_array(state, name)
    return arrays


def assert_same_world_state(a, b):
    """Two worlds of one protocol and ``n`` hold equal per-node state.  A
    table is compared on the columns both hold: it widens with the longest
    row of its stack.  (The reference engine keeps independent lists'
    prefixes apart, so against it ``assert_same_independent_lists`` checks
    them.)"""
    arrays_a, arrays_b = world_arrays(a), world_arrays(b)
    assert arrays_a.keys() == arrays_b.keys()
    for name, x in arrays_a.items():
        y = arrays_b[name]
        if x.ndim == 2:
            width = min(x.shape[1], y.shape[1])
            x, y = x[:, :width], y[:, :width]
        assert np.array_equal(x, y), name


# ----------------------------------------------------------- init_simulation


def test_init_hybrid_start_walks_own_successor():
    state = init_simulation(Hybrid(1), 4, 0, seed=7)
    assert state._status[0] == _INFORMED
    assert rules_array(state, "next_target")[0] == 1
    # Only the start begins in debt: its first encounter is free.
    assert rules_array(state, "encounters").tolist() == [-1, 0, 0, 0]
    assert (state.round, state.round_counts) == (0, [])
    assert (state._status[1:] == _UNINFORMED).all()


def test_init_hybrid_start_walk_wraps():
    state = init_simulation(Hybrid(1), 4, 3, seed=7)
    assert rules_array(state, "next_target")[3] == 0


def test_init_single_node_already_complete():
    state = init_simulation(Hybrid(3), 1, 0, seed=7)
    assert state._live_uninformed == 0
    assert rules_array(state, "next_target")[0] == 0
    summary = run(state)
    assert summary.outcome == RUN_COMPLETED
    assert summary.completion_round == 0
    assert summary.total_calls == 0


def test_push_rules_hold_no_per_node_array():
    state = init_simulation(FullyRandomPush(), 4, 2, seed=7)
    assert state._status[2] == _INFORMED
    assert list(world_arrays(state)) == ["_status"]


def test_init_quasirandom_start_gets_a_list_position():
    state = init_simulation(Quasirandom("identical"), 16, 0, seed=7)
    assert 0 <= rules_array(state, "next_target")[0] < 16


def test_init_rejects_bad_arguments():
    with pytest.raises(ValueError):
        init_simulation(Hybrid(1), 0, 0, seed=7)
    with pytest.raises(ValueError):
        init_simulation(Hybrid(1), 4, 4, seed=7)
    with pytest.raises(ValueError):
        init_simulation(Hybrid(1), 4, -1, seed=7)
    with pytest.raises(ValueError):
        Hybrid(0)
    with pytest.raises(ValueError):
        init_simulation(Hybrid(1), 4, 0, seed=None)
    with pytest.raises(ValueError):
        init_stack(Hybrid(1), 4, 0, [1, 2], [None])
    with pytest.raises(ValueError):
        init_stack(Hybrid(1), 4, 0, [], [])


def test_init_rejects_crashed_start_or_negative_round():
    with pytest.raises(ValueError):
        init_simulation(Hybrid(1), 4, 0, seed=7, crash_schedule={0: 1})
    for node in (-1, 4):
        with pytest.raises(ValueError, match=f"crash schedule node {node} out of range"):
            init_simulation(Hybrid(1), 4, 0, seed=7, crash_schedule={node: 1})
    for crash_round in (-1, 2**63, 2**70):
        with pytest.raises(ValueError, match=f"crash round {crash_round} is negative or not"):
            init_simulation(Hybrid(1), 4, 0, seed=7, crash_schedule={1: crash_round})
    # The largest round an int64 holds is a crash round.
    init_simulation(Hybrid(1), 4, 0, seed=7, crash_schedule={1: 2**63 - 1})


def test_init_same_seed_same_state():
    a = init_simulation(Quasirandom("identical"), 32, 0, seed=123)
    b = init_simulation(Quasirandom("identical"), 32, 0, seed=123)
    assert_same_world_state(a, b)


# ------------------------------------------------------------ collect_intents


def test_first_round_has_one_initial_successor_intent():
    state = init_simulation(Hybrid(1), 4, 0, seed=7)
    intents = collect_intents(state)
    assert intents == [CallIntent(0, 1, CallKind.INITIAL_SUCCESSOR)]


def test_node_informed_this_round_makes_no_call_yet():
    # Round 1 has exactly one call: node 1 is informed during it and must
    # wait for round 2.
    state = init_simulation(Hybrid(1), 4, 0, seed=7)
    assert execute_round(state) is False
    assert state.round_counts == [(1, 1, 0)]
    assert state._status[1] == _INFORMED


def test_informing_caller_walks_on_from_its_target():
    state = init_simulation(Hybrid(2), 8, 0, seed=7)
    apply_call(state, CallIntent(0, 4, CallKind.RANDOM), 0)
    assert rules_array(state, "next_target")[0] == 5


# ----------------------------------------------------------------- apply_call


def test_apply_call_informs_and_advances_walk():
    state = init_simulation(Hybrid(2), 6, 0, seed=7)
    record = apply_call(state, CallIntent(0, 3, CallKind.SEQUENTIAL), 0)
    assert record.outcome == CallOutcome.INFORMED
    assert record.round == 1
    assert state._status[3] == _INFORMED
    assert (record.caller, record.target) == (0, 3)
    assert rules_array(state, "next_target")[0] == 4


def test_apply_call_final_encounter_stops_the_caller():
    state = init_simulation(Hybrid(1), 4, 0, seed=7)
    apply_call(state, CallIntent(0, 2, CallKind.SEQUENTIAL), 0)
    record = apply_call(state, CallIntent(2, 0, CallKind.RANDOM), 1)
    assert record.outcome == CallOutcome.ALREADY_INFORMED
    assert state._status[2] == _STOPPED
    assert rules_array(state, "encounters")[2] == 1


def test_apply_call_encounter_below_budget_restarts_randomly():
    state = init_simulation(Hybrid(3), 4, 0, seed=7)
    apply_call(state, CallIntent(0, 2, CallKind.SEQUENTIAL), 0)
    apply_call(state, CallIntent(2, 0, CallKind.RANDOM), 1)
    assert state._status[2] == _INFORMED
    assert rules_array(state, "encounters")[2] == 1
    assert rules_array(state, "next_target")[2] == -1


def test_apply_call_start_budget_is_one_higher():
    # The start walks one encounter in debt; the free encounter pays it off
    # and ends the walk, and the next one spends its budget.
    state = init_simulation(Hybrid(1), 4, 0, seed=7)
    apply_call(state, CallIntent(0, 1, CallKind.INITIAL_SUCCESSOR), 0)
    apply_call(state, CallIntent(1, 2, CallKind.RANDOM), 1)
    assert (state._status[0], rules_array(state, "encounters")[0]) == (_INFORMED, -1)
    apply_call(state, CallIntent(0, 2, CallKind.INITIAL_SUCCESSOR), 2)
    assert (state._status[0], rules_array(state, "encounters")[0]) == (_INFORMED, 0)
    assert rules_array(state, "next_target")[0] == -1
    apply_call(state, CallIntent(0, 0, CallKind.RANDOM), 3)
    assert (state._status[0], rules_array(state, "encounters")[0]) == (_STOPPED, 1)


def test_apply_call_crashed_target_costs_no_budget():
    state = init_simulation(Hybrid(1), 6, 0, seed=7, crash_schedule={3: 0})
    execute_round(state)  # applies the scheduled crash, then round 1
    assert state._status[3] == _CRASHED
    record = apply_call(state, CallIntent(0, 3, CallKind.SEQUENTIAL), 0)
    assert record.outcome == CallOutcome.CRASHED_TARGET
    # The start is still walking, its free encounter unspent.
    assert rules_array(state, "encounters")[0] == -1
    assert rules_array(state, "next_target")[0] == 4


def test_quasirandom_encounter_changes_no_caller_state():
    state = init_simulation(Quasirandom("identical"), 8, 0, seed=7)
    apply_call(state, CallIntent(0, 3, CallKind.SEQUENTIAL), 0)
    before = [array[0] for array in world_arrays(state).values()]
    record = apply_call(state, CallIntent(0, 3, CallKind.SEQUENTIAL), 1)
    assert record.outcome == CallOutcome.ALREADY_INFORMED
    assert [array[0] for array in world_arrays(state).values()] == before
    assert state._status[0] == _INFORMED


# ------------------------------------------------- golden traces (n=4, R=1)
# Each trace was replayed by hand: round 1 is the start's walk to its
# successor; the branch point is node 1's first random draw in round 2.


def golden_run(seed):
    state = init_simulation(Hybrid(1), 4, 0, seed=seed, keep_log=True)
    summary = run(state)
    return summary, as_tuples(state.log)


def test_golden_clean_completion():
    # Node 1 draws 3: both round-2 calls inform, the trace is minimal.
    summary, log = golden_run(0)
    assert log == [
        (1, 0, 1, "initial_successor", "informed", 0),
        (2, 0, 2, "initial_successor", "informed", 0),
        (2, 1, 3, "random", "informed", 1),
    ]
    assert summary.outcome == RUN_COMPLETED
    assert summary.completion_round == 2
    assert summary.per_round_informed == (1, 2, 4)
    assert (summary.total_calls, summary.informing_calls, summary.encounter_calls) == (3, 3, 0)


def test_golden_tie_walker_serialized_first():
    # Node 1 draws 2 and loses the serialization: its only budget unit is
    # spent, so it never calls again; node 2 finishes the job.
    summary, log = golden_run(4)
    assert log == [
        (1, 0, 1, "initial_successor", "informed", 0),
        (2, 0, 2, "initial_successor", "informed", 0),
        (2, 1, 2, "random", "already_informed", 1),
        (3, 2, 3, "random", "informed", 0),
        (3, 0, 3, "initial_successor", "already_informed", 1),
    ]
    assert summary.completion_round == 3
    assert summary.per_round_informed == (1, 2, 3, 4)
    assert (summary.total_calls, summary.informing_calls, summary.encounter_calls) == (5, 3, 2)


def test_golden_tie_random_caller_wins():
    # Node 1 informs 2 first, inheriting the walk (next target 3); the
    # start's blocked walk ends on its free first encounter; its later
    # self-call is the second and final one.
    summary, log = golden_run(5)
    assert log == [
        (1, 0, 1, "initial_successor", "informed", 0),
        (2, 1, 2, "random", "informed", 0),
        (2, 0, 2, "initial_successor", "already_informed", 1),
        (3, 2, 3, "random", "informed", 0),
        (3, 1, 3, "sequential", "already_informed", 1),
        (3, 0, 0, "random", "already_informed", 2),
    ]
    assert summary.completion_round == 3
    assert (summary.total_calls, summary.informing_calls, summary.encounter_calls) == (6, 3, 3)


# -------------------------------------------------------------- execute_round


def test_two_nodes_complete_in_one_forced_call():
    state = init_simulation(Hybrid(1), 2, 0, seed=7, keep_log=True)
    execute_round(state)
    assert state._status[1] == _INFORMED
    assert state._live_uninformed == 0
    assert as_tuples(state.log) == [(1, 0, 1, "initial_successor", "informed", 0)]


def test_stalled_round_reported():
    schedule = {i: 4 for i in range(1, 26)}
    state = init_simulation(Hybrid(1), 32, 0, seed=0, crash_schedule=schedule)
    summary = run(state)
    assert summary.outcome == RUN_STALLED
    assert summary.completion_round is None


def test_crash_completing_the_run_still_counts_a_round():
    # The only uninformed node crashes at round 1; the crash is applied
    # at the start of the round and completion follows with zero calls.
    state = init_simulation(Hybrid(1), 2, 0, seed=7, crash_schedule={1: 1})
    summary = run(state)
    assert summary.outcome == RUN_COMPLETED
    assert summary.total_calls == 0
    assert summary.completion_round == 1


# ------------------------------------------------------------------ run / cap


def test_run_two_nodes_summary():
    state = init_simulation(Hybrid(1), 2, 0, seed=7)
    summary = run(state)
    assert summary.completion_round == 1
    assert summary.informing_calls == 1
    assert summary.total_calls <= 4


def test_run_cap_reported_distinctly():
    state = init_simulation(Hybrid(1), 1024, 0, seed=7)
    summary = run(state, max_rounds=2)
    assert summary.outcome == RUN_CAPPED
    assert summary.completion_round is None
    assert summary.rounds_executed == 2


def test_run_rejects_nonpositive_cap():
    state = init_simulation(Hybrid(1), 8, 0, seed=7)
    with pytest.raises(ValueError):
        run(state, max_rounds=0)


def test_default_round_cap_generous():
    assert default_round_cap(1024) == math.ceil(10 * (10 + math.log(1024) + 10))


def test_run_deterministic_trace_at_fixed_seed():
    def one():
        state = init_simulation(Hybrid(1), 8, 0, seed=99, keep_log=True)
        return run(state), as_tuples(state.log)

    (summary_a, log_a), (summary_b, log_b) = one(), one()
    assert summary_a == summary_b
    assert log_a == log_b


# ----------------------------------------------------------------- completion


def test_completion_excludes_crashed_nodes():
    state = init_simulation(Hybrid(2), 3, 0, seed=7, crash_schedule={2: 0})
    summary = run(state)
    assert summary.outcome == RUN_COMPLETED
    assert state._status[2] == _CRASHED
    assert state._status[1] in (_INFORMED, _STOPPED)


def test_not_complete_with_live_uninformed_node():
    state = init_simulation(Hybrid(1), 4, 0, seed=7)
    assert state._live_uninformed == 3


# ---------------------------------------------- whole-run invariant batteries


def crash_schedule_for(n, seed):
    rng = np.random.default_rng(seed + 1000)
    count = n // 4
    nodes = rng.choice(np.arange(1, n), size=count, replace=False)
    return {int(v): int(rng.integers(0, 8)) for v in nodes}


def run_logged(spec, n, seed, schedule=None, allow_self_calls=True):
    state = init_simulation(
        spec, n, 0, seed=seed, crash_schedule=schedule,
        allow_self_calls=allow_self_calls, keep_log=True,
    )
    summary = run(state)
    return state, summary


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
def test_no_crash_runs_satisfy_all_trace_invariants(spec, n):
    for seed in range(3):
        state, summary = run_logged(spec, n, seed)
        assert summary.outcome == RUN_COMPLETED
        report = verify_trace(state.log, n=n, spec=spec, start=0, no_crashes=True)
        assert report.ok, report.violations[:3]
        assert verify_summary_against_trace(summary, state.log) == []
        # Push floor and doubling, asserted directly as well.
        assert summary.completion_round >= math.ceil(math.log2(n))
        assert summary.informing_calls == n - 1
        for t, count in enumerate(summary.per_round_informed):
            assert count <= min(n, 2 ** t)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
@pytest.mark.parametrize("n", [7, 16, 33])
def test_crash_runs_satisfy_all_trace_invariants(spec, n):
    for seed in range(3):
        schedule = crash_schedule_for(n, seed)
        state, summary = run_logged(spec, n, seed, schedule)
        report = verify_trace(
            state.log, n=n, spec=spec, start=0, crash_schedule=schedule
        )
        assert report.ok, report.violations[:3]
        assert verify_summary_against_trace(summary, state.log) == []


@pytest.mark.parametrize("budget", [1, 2, 5])
@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_hybrid_call_cap(budget, n):
    for seed in range(3):
        _, summary = run_logged(Hybrid(budget), n, seed)
        assert summary.total_calls <= n * (budget + 1)


def test_quasirandom_runs_never_stop_nodes():
    for lists in ("identical", "independent"):
        state, _ = run_logged(Quasirandom(lists), 32, 5)
        assert not (state._status == _STOPPED).any()


def test_doubling_bound_is_attained():
    # Seed 0 at n=4 doubles every round: 1, 2, 4.
    summary, _ = golden_run(0)
    assert summary.per_round_informed == (1, 2, 4)


def test_no_self_calls_switch():
    # The switch governs random draws only; a cyclic walk still passes
    # through the walker's own id.
    for spec in ALL_SPECS:
        state, summary = run_logged(spec, 16, 3, allow_self_calls=False)
        assert summary.outcome == RUN_COMPLETED
        assert all(
            r.caller != r.target for r in state.log if r.kind == CallKind.RANDOM
        )


def test_nonzero_start_node():
    state = init_simulation(Hybrid(1), 16, 5, seed=3, keep_log=True)
    summary = run(state)
    assert summary.outcome == RUN_COMPLETED
    first = state.log[0]
    assert (first.caller, first.target, first.kind) == (5, 6, CallKind.INITIAL_SUCCESSOR)
    report = verify_trace(state.log, n=16, spec=Hybrid(1), start=5, no_crashes=True)
    assert report.ok, report.violations[:3]


def trace_round_counts(log, rounds):
    """(calls, informs, crashed-target calls) of rounds 1 to ``rounds``,
    counted from a trace's round and outcome columns alone."""
    columns = log.columns
    outcome_code = {outcome: code for code, outcome in enumerate(CallOutcome)}
    per_round = [
        np.bincount(columns.round[mask], minlength=rounds + 1)[1:]
        for mask in (
            slice(None),
            columns.outcome == outcome_code[CallOutcome.INFORMED],
            columns.outcome == outcome_code[CallOutcome.CRASHED_TARGET],
        )
    ]
    return list(zip(*(counts.tolist() for counts in per_round)))


ROW_CRASHES = [
    None,
    CrashModel(0.3, "at_start"),
    CrashModel(0.5, "uniform_round", max_round=6),
    CrashModel(0.9, "at_start"),
    # Every node but the start, after round 1: round 2 has no one to inform.
    CrashModel(0.96, "fixed_round", round=2),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_round_counts_match_the_trace(spec):
    # Each world's rows, alone and stacked, are its own trace's per-round
    # counts; a round without calls (crashes completed the world, or no
    # caller is left) reads (0, 0, 0).
    n, empty_rows = 24, 0
    for crash, allow_self_calls in itertools.product(ROW_CRASHES, (True, False)):
        seeds = range(6)
        schedules = [
            None if crash is None
            else generate_crash_schedule(n, crash, np.random.default_rng(seed), 2)
            for seed in seeds
        ]
        options = dict(allow_self_calls=allow_self_calls, keep_log=True)
        alone = [
            init_simulation(spec, n, 2, seed=seed, crash_schedule=schedule, **options)
            for seed, schedule in zip(seeds, schedules)
        ]
        for world in alone:
            run(world)
        stacked = init_stack(spec, n, 2, list(seeds), schedules, **options)
        run_stack(stacked)
        for world in alone + stacked:
            assert world.round == len(world.round_counts)
            assert world.round_counts == trace_round_counts(world.log, world.round)
            empty_rows += world.round_counts.count((0, 0, 0))
    assert empty_rows > 0


# ------------------------------------------------- fast engine == reference


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_vectorized_round_matches_reference_engine(spec):
    # Start 5 gets the start's extra budget unit off node 0; no self-calls
    # exercises the shifted random draw.
    for seed, crashes, allow_self_calls, start in itertools.product(
        range(4), (False, True), (True, False), (0, 5)
    ):
        schedule = None
        if crashes:
            schedule = crash_schedule_for(48, seed)
            schedule.pop(start, None)
        assert_kernel_matches_reference(
            spec, 48, seed, start, crash_schedule=schedule, allow_self_calls=allow_self_calls
        )


def execute_round_leaving_clean_scratch(state):
    report = execute_round(state)
    assert (state._stack._first_serial == _NO_SERIAL).all()
    return report


@st.composite
def crash_schedules(draw, n, start):
    everyone = draw(st.booleans())
    crashing = set(range(n)) if everyone else draw(st.sets(st.integers(0, n - 1)))
    return {
        node: draw(st.integers(min_value=0, max_value=8))
        for node in sorted(crashing - {start})
    }


seeds = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def kernel_configs(draw):
    spec = draw(st.sampled_from(
        [Hybrid(r) for r in range(1, 5)]
        + [Quasirandom("identical"), Quasirandom("independent"), FullyRandomPush()]
    ))
    n = draw(st.integers(min_value=1, max_value=64))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    # With n = 1 a random call has no target but the caller itself.
    allow_self_calls = n == 1 or draw(st.booleans())
    schedule = draw(crash_schedules(n, start))
    seed = draw(seeds)
    return spec, n, start, allow_self_calls, schedule, seed


@settings(max_examples=500, deadline=None, derandomize=True)
@given(config=kernel_configs())
def test_property_kernel_matches_reference_engine(config):
    spec, n, start, allow_self_calls, schedule, seed = config
    assert_kernel_matches_reference(
        spec, n, seed, start, crash_schedule=schedule, allow_self_calls=allow_self_calls
    )


def assert_kernel_matches_reference(spec, n, seed, start=0, **options):
    states = [
        init_simulation(spec, n, start, seed=seed, keep_log=True, **options) for _ in range(2)
    ]
    fast = run(states[0], round_engine=execute_round_leaving_clean_scratch)
    ref = run(states[1], round_engine=execute_round_reference)
    assert fast == ref
    assert list(states[0].log) == reference_log(states[1])
    assert_same_world_state(states[0], states[1])
    if spec.name == "quasirandom-independent":
        assert_same_independent_lists(states[0], states[1])
    assert states[0].rng.bit_generator.state == states[1].rng.bit_generator.state
    return states[0]


@st.composite
def stack_configs(draw):
    spec, n, start, allow_self_calls, schedule, seed = draw(kernel_configs())
    more = draw(st.lists(st.tuples(crash_schedules(n, start), seeds), max_size=4))
    max_rounds = draw(st.none() | st.integers(min_value=1, max_value=12))
    return spec, n, start, allow_self_calls, [(schedule, seed)] + more, max_rounds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=stack_configs())
def test_property_stacked_worlds_match_worlds_run_alone(config):
    # Each world of a stack ends as it does run alone, by the kernel and by
    # the reference engine: worlds finish, stall or hit the cap at
    # different rounds while the rest of their stack keeps running.
    spec, n, start, allow_self_calls, worlds, max_rounds = config
    options = dict(allow_self_calls=allow_self_calls, keep_log=True)
    stack = init_stack(
        spec, n, start, [seed for _, seed in worlds], [schedule for schedule, _ in worlds],
        **options,
    )
    summaries = run_stack(stack, max_rounds)
    for world, summary, (schedule, seed) in zip(stack, summaries, worlds):
        alone, reference = (
            init_simulation(spec, n, start, seed=seed, crash_schedule=schedule, **options)
            for _ in range(2)
        )
        assert run(alone, max_rounds) == summary
        assert run(reference, max_rounds, round_engine=execute_round_reference) == summary
        assert world.log == alone.log
        assert list(world.log) == reference_log(reference)
        assert_same_world_state(world, alone)
        assert_same_world_state(world, reference)
        if spec.name == "quasirandom-independent":
            assert_same_independent_lists(world, reference)
        assert world.rng.bit_generator.state == alone.rng.bit_generator.state
        assert world.rng.bit_generator.state == reference.rng.bit_generator.state


def test_shuffled_slices_draw_permutations():
    # The kernel relies on this: shuffling a slice of ``arange`` draws
    # ``permutation(len)`` offset by the slice's start, consuming the
    # generator alike.
    for k, offset in ((1, 0), (2, 5), (7, 3), (4096, 100)):
        alone, sliced = np.random.default_rng(k), np.random.default_rng(k)
        values = np.arange(offset + k + 2)
        sliced.shuffle(values[offset : offset + k])
        assert np.array_equal(values[offset : offset + k], alone.permutation(k) + offset)
        assert sliced.bit_generator.state == alone.bit_generator.state


def run_worlds_leaving_clean_scratch(worlds):
    """``run_stack`` of ``worlds``, checking after each round that the
    first-writer scratch is all sentinel again; the summaries."""
    def execute(live):
        stalled = _execute_rounds(live)
        assert (worlds[0]._stack._first_serial == _NO_SERIAL).all()
        return stalled

    return _run_worlds(worlds, None, execute)


@pytest.mark.parametrize("timing", [None, "at_start", "uniform_round"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_run_without_a_log_equals_the_run_with_one(spec, timing, monkeypatch):
    # Without a log, only rules that read the outcomes (hybrid's) lay out
    # the serial order; the others resolve first writers in caller order.
    # That may crown another of several calls to one target, but the
    # summaries, the status, every rules array and the generator state
    # must come out as with the order laid out for a kept log.  At these n
    # many rounds hold calls to one target from several callers.
    orders = []

    def spy(stack, calls, targets, order):
        orders.append(order is None)
        return _resolve(stack, calls, targets, order)

    monkeypatch.setattr("rumorsim.core._resolve", spy)
    for n, allow_self_calls, count in itertools.product((64, 256, 1024), (True, False), (1, 4)):
        seeds = [n + count + allow_self_calls + w for w in range(count)]
        schedules = [None] * count
        if timing is not None:
            model = CrashModel(0.25, timing, max_round=None if timing == "at_start" else 10)
            schedules = [generate_crash_schedule(n, model, np.random.default_rng(seed))
                         for seed in seeds]
        runs = {}
        for keep_log in (False, True):
            orders.clear()
            worlds = init_stack(spec, n, 0, seeds, schedules,
                                allow_self_calls=allow_self_calls, keep_log=keep_log)
            runs[keep_log] = worlds, run_worlds_leaving_clean_scratch(worlds)
            serialized = keep_log or spec.name == "hybrid"
            assert set(orders) == {not serialized}, (n, allow_self_calls, count, keep_log)
        (bare, bare_summaries), (logged, logged_summaries) = runs[False], runs[True]
        where = (n, allow_self_calls, count)
        assert bare_summaries == logged_summaries, where
        for a, b in zip(bare, logged):
            assert_same_world_state(a, b)
            assert a.rng.bit_generator.state == b.rng.bit_generator.state, where


BLOCK_CRASHES = [None, CrashModel(0.25, "at_start"), CrashModel(0.25, "uniform_round", max_round=8)]


def run_block_configs(spec):
    """Runs of ``spec`` over every crash timing, self-calls on and off, a
    world alone and a stack of four, and a log kept or not: per run, its
    summaries and worlds."""
    n, runs = 40, []
    for crash, allow_self_calls, count, keep_log in itertools.product(
        BLOCK_CRASHES, (True, False), (1, 4), (False, True)
    ):
        seeds = [7 * n + count + w for w in range(count)]
        schedules = [None if crash is None
                     else generate_crash_schedule(n, crash, np.random.default_rng(seed), 3)
                     for seed in seeds]
        worlds = init_stack(spec, n, 3, seeds, schedules,
                            allow_self_calls=allow_self_calls, keep_log=keep_log)
        summaries = run_stack(worlds) if count > 1 else [run(worlds[0])]
        runs.append((summaries, worlds))
    return runs


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_results_do_not_depend_on_the_block_size(spec, monkeypatch):
    # Blocks of 1, 2 and 7 calls cut rounds inside worlds and at their
    # edges, and split ties among calls to one target across blocks; every
    # summary, per-round record, world state, log and generator state stays
    # as at the default block size.
    expected = run_block_configs(spec)
    for block in (1, 2, 7):
        monkeypatch.setattr("rumorsim.core._BLOCK_CALLS", block)
        for (summaries, worlds), (want, wanted) in zip(run_block_configs(spec), expected):
            assert summaries == want, block
            for world, other in zip(worlds, wanted):
                assert world.round_counts == other.round_counts, block
                assert_same_world_state(world, other)
                assert world.log == other.log, block
                assert world.rng.bit_generator.state == other.rng.bit_generator.state


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_kernel_matches_reference_engine_in_three_call_blocks(spec, monkeypatch):
    monkeypatch.setattr("rumorsim.core._BLOCK_CALLS", 3)
    test_vectorized_round_matches_reference_engine(spec)


@pytest.mark.parametrize("k", [1, 2, 3, 2**16 - 1, 2**16 + 1, 2**20 + 7])
def test_zero_stride_shuffle_draws_the_permutation(k):
    # A round whose serial order nothing reads shuffles a slice of the
    # stack's zero-stride view; every frozen stream holds only if that
    # takes ``shuffle(arange(k))``'s draws.  The view must stay writable
    # (``shuffle`` refuses a read-only ``broadcast_to`` view) and zero-stride,
    # so shuffling it allocates nothing that grows with k.
    view = init_simulation(FullyRandomPush(), k, seed=0)._stack._unread_order
    assert view.shape == (k,) and view.strides == (0,) and view.flags.writeable
    laid, unread = np.random.default_rng(k), np.random.default_rng(k)
    laid.shuffle(np.arange(k))
    tracemalloc.start()
    try:
        unread.shuffle(view[:k])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unread.bit_generator.state == laid.bit_generator.state, (
        f"a zero-stride shuffle draws otherwise on numpy {np.__version__}, k={k}"
    )
    assert peak < 1024


@pytest.mark.parametrize("high", [1, 2, 10, 2**20 - 1, 2**20, 2**31 - 1])
@pytest.mark.parametrize("m", [0, 1, 1000])
def test_int32_draws_match_int64_draws(high, m):
    # The kernel draws its target ids as int32; every frozen stream holds
    # only if that yields the int64 draw's values and leaves its state.
    wide, narrow = np.random.default_rng(high + m), np.random.default_rng(high + m)
    expected = wide.integers(0, high, size=m)
    drawn = narrow.integers(0, high, size=m, dtype=np.int32)
    where = f"numpy {np.__version__}, high={high}, m={m}"
    assert drawn.dtype == np.int32, where
    assert np.array_equal(drawn, expected), f"int32 draws differ on {where}"
    assert narrow.bit_generator.state == wide.bit_generator.state, (
        f"int32 draws leave another generator state on {where}"
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_kept_logs_hold_the_column_dtypes(spec):
    # The kernel's ids fit int32, and a kept log keeps them so: its
    # columns are int32, with int8 kind and outcome codes.
    crash = CrashModel(0.2, "at_start")
    config = ExperimentConfig(spec, 64, 40, 3, crash=crash, retention="trace")
    alone = build_trial_state(config, 0)
    run(alone)
    expected = [np.int32, np.int32, np.int32, np.int8, np.int8, np.int32]
    assert list(map(np.dtype, COLUMN_DTYPES)) == expected
    for log in (alone.log, *run_trials(config).traces):
        assert len(log) > 0
        assert [column.dtype for column in log.columns] == expected


@pytest.mark.parametrize("spec", [Hybrid(4), Quasirandom("identical"),
                                  Quasirandom("independent"), FullyRandomPush()], ids=str)
def test_kept_log_holds_ten_bytes_per_call(spec):
    # Per round, its number and count; per call, int32 caller and target
    # and int8 kind and outcome.  Measured at 10.12-10.26 bytes per call,
    # the rest being each round's array headers.
    init_simulation(spec, 1, seed=0)
    state = init_simulation(spec, 2**13, seed=0, keep_log=True)
    tracemalloc.start()
    try:
        run(state)
        held = tracemalloc.get_traced_memory()[0]
        log, state.log = state.log, None
        rows = len(log)
        del log
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 4 * 2**13
    assert freed <= 10.5 * rows


@pytest.mark.parametrize("failing_call", range(1, 7))
def test_failed_columns_read_leaves_the_log_whole(failing_call, monkeypatch):
    # Joining the rounds takes one concatenation per field; whichever
    # fails, the log keeps every call, and a later read joins them.
    def kept_log():
        state = init_simulation(Hybrid(2), 64, 0, seed=5, keep_log=True,
                                crash_schedule={i: 3 for i in range(20, 30)})
        run(state)
        return state.log

    log, expected = kept_log(), list(kept_log())
    concatenate, calls = np.concatenate, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise MemoryError("no room for the joined column")
        return concatenate(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr("rumorsim.core.np.concatenate", failing)
        with pytest.raises(MemoryError):
            log.columns
    assert len(calls) == failing_call
    assert len(log) == len(expected) > 0
    assert list(log) == expected


def test_budget_beyond_int32_never_stops_a_caller():
    # Encounter counts are int32 and compared with the budget as it is:
    # neither budget is reached, so the runs are alike.
    config = ExperimentConfig(Hybrid(10**6), 64, 40, 5, crash=CrashModel(0.1))
    huge = ExperimentConfig(Hybrid(2**40), 64, 40, 5, crash=CrashModel(0.1))
    assert run_trials(huge).summaries == run_trials(config).summaries
    state = build_trial_state(huge, 0)
    assert run(state) == run(build_trial_state(config, 0))
    assert not (state._stack._status == _STOPPED).any()


@pytest.mark.parametrize("budget, dtype", [(2**15 - 1, np.int16), (2**15, np.int32)])
def test_encounter_counts_hold_every_count_up_to_the_budget(budget, dtype):
    # A count starts at -1 (the start) or 0 and stops its node once it
    # reaches the budget, so int16 holds every count below a budget of
    # 2**15.  Every node but the start begins two encounters short of the
    # budget, so counts reach it; kernel and reference must agree.
    for seed in range(4):
        states = [init_simulation(Hybrid(budget), 64, seed=seed, keep_log=True) for _ in range(2)]
        for state in states:
            assert state._rules.encounters.dtype == dtype
            state._rules.encounters[1:] = budget - 2
        assert run(states[0]) == run(states[1], round_engine=execute_round_reference)
        assert list(states[0].log) == reference_log(states[1])
        assert_same_world_state(*states)
        assert states[0].rng.bit_generator.state == states[1].rng.bit_generator.state
        assert rules_array(states[0], "encounters").max() == budget


def test_oversized_stack_is_refused_before_allocating(monkeypatch):
    # Stack entries are int32.  The refusal comes before any O(n) array:
    # a stack reaching its allocation fails the test instead.
    def allocate(*args):
        raise AssertionError("allocated")

    monkeypatch.setattr("rumorsim.core._Stack", allocate)
    seeds = [0] * 2**15
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 2147483647$"):
            init_stack(Hybrid(2), 2**16, 0, seeds, seeds)
        with pytest.raises(ValueError, match="more than 2147483647$"):
            init_simulation(FullyRandomPush(), 2**31, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # The largest stack passes the check.
    with pytest.raises(AssertionError, match="allocated"):
        init_stack(Hybrid(2), 2**16 - 1, 0, seeds, seeds)


def test_settle_sees_what_the_log_records(monkeypatch):
    # ``settle`` runs once per block of a round's calls, in caller order;
    # blocks of 7 calls cut the stack's three worlds.  Taken block by block,
    # each world's calls, ids less the world's base, are its log's rows of
    # that round sorted by caller.
    monkeypatch.setattr("rumorsim.core._BLOCK_CALLS", 7)
    n, crashes = 64, {i: 3 for i in range(20, 40)}
    worlds = init_stack(Hybrid(2), n, 0, [5, 6, 7], [crashes] * 3, keep_log=True)
    settle, seen, cuts = worlds[0]._rules.settle, {}, 0

    def spy(stack, c, targets, outcomes):
        nonlocal cuts
        owners = c // n
        cuts += owners[0] != owners[-1]
        for w in np.unique(owners).tolist():
            mine = owners == w
            # A calling world's round is counted only after ``settle``.
            seen.setdefault((w, worlds[w].round + 1), []).append(
                (c[mine] - w * n, targets[mine], outcomes[mine]))
        settle(stack, c, targets, outcomes)

    monkeypatch.setattr(worlds[0]._rules, "settle", spy)
    summaries = run_stack(worlds)
    assert cuts > 0
    assert all(s.crashed_target_calls > 0 and s.encounter_calls > 0 for s in summaries)
    for w, world in enumerate(worlds):
        columns = world.log.columns
        rounds = sorted(rnd for v, rnd in seen if v == w)
        assert rounds == sorted(set(columns.round.tolist())), w
        for rnd in rounds:
            callers, targets, outcomes = map(np.concatenate, zip(*seen[w, rnd]))
            rows = np.flatnonzero(columns.round == rnd)
            rows = rows[np.argsort(columns.caller[rows])]
            assert np.array_equal(columns.caller[rows], callers), (w, rnd)
            assert np.array_equal(columns.target[rows], targets), (w, rnd)
            assert np.array_equal(columns.outcome[rows], outcomes), (w, rnd)


def assert_same_independent_lists(kernel_state, reference_state):
    n = kernel_state.n
    list_index = rules_array(kernel_state, "list_index")
    drawn = rules_array(kernel_state, "drawn")
    assert np.array_equal(list_index, rules_array(reference_state, "list_index"))
    lists = reference_drawn(reference_state)
    for i in range(n):
        assert drawn[i, : min(list_index[i], n)].tolist() == lists.get(i, []), i


# ----------------------------------------- independent lists' block draw


@pytest.mark.parametrize("n", [1, 2, 3, 64, 2**14, 2**20])
def test_block_integers_draw_equals_scalar_draws(n):
    # The independent-lists block draw relies on this: one draw of m values
    # yields the values of m scalar draws and leaves the same state.
    block_rng, scalar_rng = np.random.default_rng(17), np.random.default_rng(17)
    for m in (1, 5, 1000):
        block = block_rng.integers(0, n, size=m)
        assert block.tolist() == [int(scalar_rng.integers(0, n)) for _ in range(m)]
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(3))
def test_independent_lists_kernel_matches_reference_at_4096(seed):
    # Rounds of up to 4096 callers span two block-draw chunks, and each
    # late round rejects several values.
    assert_kernel_matches_reference(Quasirandom("independent"), 2**12, seed)


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_independent_lists_small_chunks_match_reference(chunk, monkeypatch):
    # Small chunks make rejections and the values carried over to the next
    # chunk fall at every position of a chunk.
    monkeypatch.setattr(_IndependentListRules, "CHUNK", chunk)
    for n, seed, allow_self_calls in itertools.product((3, 17, 64), range(4), (True, False)):
        assert_kernel_matches_reference(
            Quasirandom("independent"), n, seed, allow_self_calls=allow_self_calls
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_independent_lists_are_never_drawn_past_full(n):
    # A node whose list holds all n entries has called every node, so its
    # world is complete before it could call again: every run ends with no
    # list index above n, as the reference engine runs it too.
    crashes = [None, CrashModel(0.3, "at_start"), CrashModel(0.6, "at_start"),
               CrashModel(0.6, "uniform_round", max_round=6)]
    for seed, crash, allow_self_calls in itertools.product(range(12), crashes, (True, False)):
        rng = np.random.default_rng(seed)
        schedule = None if crash is None else generate_crash_schedule(n, crash, rng)
        state = assert_kernel_matches_reference(
            Quasirandom("independent"), n, seed, crash_schedule=schedule,
            allow_self_calls=allow_self_calls or n == 1,
        )
        assert state._rules.list_index.max() <= n


def test_full_independent_list_is_not_drawn_from():
    # Forcing a draw from a full list raises instead of serving a lap.
    state = init_simulation(Quasirandom("independent"), 3, seed=1, keep_log=True)
    run(state)
    state._rules.list_index[0] = 3
    state._live_uninformed = 1
    with pytest.raises(IndexError):
        execute_round(state)


def test_round_allocates_no_per_node_array():
    # One caller in a large world: the round's temporaries are sized by
    # its calls, apart from one boolean scan of the status array.
    n = 2**18
    state = init_simulation(Hybrid(4), n, seed=0)
    tracemalloc.start()
    try:
        stalled = execute_round(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not stalled and state.round_counts == [(1, 1, 0)]
    assert peak / n < 2


@pytest.mark.parametrize("spec, bound", [
    (Hybrid(4), 12), (FullyRandomPush(), 6), (Quasirandom("identical"), 10),
], ids=str)
def test_world_state_bytes_per_node(spec, bound):
    # int8 status and int32 first-writer scratch: 5 bytes per node; the
    # rules add an int32 next target (hybrid and identical lists) and an
    # int16 encounter count (hybrid), and nothing for push.
    n = 2**20
    # The first generator of a process imports about 0.7 MB of numpy
    # modules; that is not the world's state.
    init_simulation(spec, 1, seed=0)
    tracemalloc.start()
    try:
        state = init_simulation(spec, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del state
    assert peak / n <= bound


@pytest.mark.parametrize("spec, bound, n", [
    (Hybrid(4), 26.5, 2**18), (FullyRandomPush(), 16.5, 2**18),
    (Quasirandom("identical"), 21, 2**18), (Quasirandom("independent"), 189, 2**18),
    (Hybrid(4), 25.5, 2**20), (FullyRandomPush(), 14.5, 2**20),
    (Quasirandom("identical"), 18.5, 2**20),
], ids=str)
def test_run_peak_bytes_per_node(spec, bound, n):
    # The traced peak of a whole run, its state included, measured at
    # 24.5 / 15.3 / 19.5 / 172.6 bytes per node at 2^18 and 23.5 / 14.3 /
    # 18.4 at 2^20; each bound leaves under 10% headroom.  A round holds its
    # int32 callers and targets and int8 outcome codes, and hybrid's int32
    # serialization order until ``settle``; kind codes are built only for
    # a kept log, and the round's informs and crashed-target calls are
    # counted a block at a time.  Every other temporary is the size of a
    # block of calls, a larger share of the round at 2^18.  Independent
    # lists add their int32 table of drawn prefixes.
    init_simulation(spec, 1, seed=0)
    tracemalloc.start()
    try:
        run(init_simulation(spec, n, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= bound


def test_first_columns_read_holds_the_log_once():
    # The first read joins the kept rounds field by field, each round
    # giving up its own array of a field once that field is joined, and
    # counts serial positions in place: the joined log's 18 bytes per call
    # against the kept log's 10, plus each round's views until the join
    # ends.  Measured at 8.44 bytes per call.
    tracemalloc.start()
    try:
        state = init_simulation(Hybrid(4), 2**13, seed=0, keep_log=True)
        run(state)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        columns = state.log.columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(state.log)
    assert rows > 2**15 and len(columns.round) == rows
    assert peak - before < 9.2 * rows


# ------------------------------------------------------ property-based runs


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.integers(min_value=1, max_value=4),
)
def test_property_hybrid_no_crash_run(n, seed, budget):
    state, summary = run_logged(Hybrid(budget), n, seed)
    assert summary.outcome == RUN_COMPLETED
    assert summary.total_calls <= n * (budget + 1)
    assert summary.completion_round >= math.ceil(math.log2(n))
    report = verify_trace(state.log, n=n, spec=Hybrid(budget), start=0, no_crashes=True)
    assert report.ok, report.violations[:3]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_property_crash_runs_keep_invariants(n, seed, data):
    nodes = data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), max_size=n // 2, unique=True)
    )
    rounds = data.draw(
        st.lists(st.integers(min_value=0, max_value=10), min_size=len(nodes), max_size=len(nodes))
    )
    schedule = dict(zip(nodes, rounds))
    spec = data.draw(st.sampled_from(ALL_SPECS))
    state, summary = run_logged(spec, n, seed, schedule)
    report = verify_trace(state.log, n=n, spec=spec, start=0, crash_schedule=schedule)
    assert report.ok, report.violations[:3]
    assert verify_summary_against_trace(summary, state.log) == []


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_quasirandom_identical_useless_after_encounter(n, seed):
    # After an encounter with a node informed in an earlier round by some
    # caller, a shared-list walker sits behind a fully informed stretch
    # and never informs again.
    state, _ = run_logged(Quasirandom("identical"), n, seed)
    report = verify_trace(
        state.log, n=n, spec=Quasirandom("identical"), start=0, no_crashes=True
    )
    assert report.ok, report.violations[:3]
