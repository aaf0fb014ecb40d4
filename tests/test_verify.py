"""Trace re-verification tests: clean traces pass, forged traces are caught."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

import reference_verify
from rumorsim.core import (
    CallKind,
    CallLog,
    CallOutcome,
    CallRecord,
    init_simulation,
    run,
)
from rumorsim.protocols import FullyRandomPush, Hybrid, Quasirandom
from rumorsim.verify import verify_summary_against_trace, verify_trace

from test_verify_oracle import (
    assert_same_report_in_any_block_size,
    assert_same_report_on_int32_and_int64_columns,
    reports_in_blocks,
)

INITIAL = CallKind.INITIAL_SUCCESSOR
SEQ = CallKind.SEQUENTIAL
RANDOM = CallKind.RANDOM
INFORMED = CallOutcome.INFORMED
ALREADY = CallOutcome.ALREADY_INFORMED
CRASHED = CallOutcome.CRASHED_TARGET
CRASHED_CODE = list(CallOutcome).index(CRASHED)


def logged_run(spec=Hybrid(2), n=48, seed=3, schedule=None):
    state = init_simulation(spec, n, 0, seed=seed, crash_schedule=schedule, keep_log=True)
    summary = run(state)
    return summary, list(state.log)


def rewrite(records, index, **changes):
    out = list(records)
    out[index] = out[index]._replace(**changes)
    return out


def first_index(records, **want):
    for i, r in enumerate(records):
        if all(getattr(r, k) == v for k, v in want.items()):
            return i
    raise AssertionError(f"no record matching {want}")


def test_clean_trace_verifies():
    summary, records = logged_run()
    report = verify_trace(records, n=48, spec=Hybrid(2), start=0, no_crashes=True)
    assert report.ok
    assert report.records_checked == len(records)
    assert report.n == 48 and report.start == 0
    assert verify_summary_against_trace(summary, records) == []


def test_n_and_start_are_inferred():
    _, records = logged_run()
    report = verify_trace(records)
    assert report.ok
    assert report.n == 48 and report.start == 0


def test_forged_second_informed_is_caught():
    _, records = logged_run()
    i = first_index(records, outcome=ALREADY)
    forged = rewrite(records, i, outcome=INFORMED)
    report = verify_trace(forged, n=48, spec=Hybrid(2), start=0)
    assert not report.ok
    assert any("informed a second time" in v for v in report.violations)


def test_uninformed_caller_is_caught():
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(1, 3, 2, RANDOM, INFORMED, 1),
    ]
    report = verify_trace(records, n=6, start=0)
    assert any("caller 3 was never informed" in v for v in report.violations)


def test_call_in_informing_round_is_caught():
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(1, 1, 2, RANDOM, INFORMED, 1),
    ]
    report = verify_trace(records, n=4, start=0)
    assert any("acts in the round it was informed" in v for v in report.violations)


def test_double_call_in_one_round_is_caught():
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 3, INITIAL, INFORMED, 1),
    ]
    report = verify_trace(records, n=4, start=0)
    assert any("calls twice in one round" in v for v in report.violations)


def test_noncontiguous_serials_are_caught():
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, INFORMED, 1),
    ]
    report = verify_trace(records, n=4, start=0)
    assert any("serial" in v for v in report.violations)


def test_first_round_must_be_one():
    records = [CallRecord(2, 0, 1, INITIAL, INFORMED, 0)]
    report = verify_trace(records, n=4, start=0)
    assert any("expected 1" in v for v in report.violations)


def test_stopped_caller_calling_again_is_caught():
    # Budget 1: node 1's encounter at round 2 stops it for good.
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
        CallRecord(2, 1, 0, RANDOM, ALREADY, 1),
        CallRecord(3, 0, 3, INITIAL, INFORMED, 0),
        CallRecord(3, 1, 3, RANDOM, ALREADY, 1),
    ]
    report = verify_trace(records, n=4, spec=Hybrid(1), start=0)
    assert any("calls after stopping" in v for v in report.violations)


def test_budget_overrun_is_caught():
    # The start may take R+1 = 2 encounters; a third must be flagged.
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 1, INITIAL, ALREADY, 0),
        CallRecord(3, 0, 1, RANDOM, ALREADY, 0),
        CallRecord(4, 0, 1, RANDOM, ALREADY, 0),
    ]
    report = verify_trace(records, n=4, spec=Hybrid(1), start=0)
    assert any(
        "calls after stopping" in v or "encounter budget" in v
        for v in report.violations
    )


def test_doubling_violation_is_caught():
    # Three informs in round 2 with only two nodes informed beforehand.
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
        CallRecord(2, 1, 3, RANDOM, INFORMED, 1),
        CallRecord(2, 1, 4, RANDOM, INFORMED, 2),
    ]
    report = verify_trace(records, n=6, start=0)
    assert any("previously informed nodes" in v for v in report.violations)


def test_broken_walk_chaining_is_caught():
    # After informing 1 the start must walk to 2.
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 3, INITIAL, INFORMED, 0),
    ]
    report = verify_trace(records, n=4, spec=Hybrid(1), start=0)
    assert any("expected 2" in v for v in report.violations)


def test_nonstart_first_call_must_be_random():
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
        CallRecord(2, 1, 2, SEQ, ALREADY, 1),
    ]
    report = verify_trace(records, n=4, spec=Hybrid(2), start=0)
    assert any("must be random" in v for v in report.violations)


def test_start_must_open_at_its_successor():
    records = [CallRecord(1, 0, 2, INITIAL, INFORMED, 0)]
    report = verify_trace(records, n=4, spec=Hybrid(1), start=0)
    assert any("successor" in v for v in report.violations)


def test_crashed_outcome_in_no_crash_run_is_caught():
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, CRASHED, 0),
    ]
    report = verify_trace(records, n=4, spec=Hybrid(1), start=0, no_crashes=True)
    assert any("no-crash run" in v for v in report.violations)


def test_crash_schedule_consistency():
    schedule = {3: 2}
    # A call reaching node 3 at round 4 must see it crashed, not inform it.
    records = [
        CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
        CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
        CallRecord(3, 0, 3, INITIAL, CRASHED, 0),
        CallRecord(4, 0, 4, SEQ, INFORMED, 0),
    ]
    ok = verify_trace(records, n=6, start=0, crash_schedule=schedule)
    assert ok.ok, ok.violations
    forged = rewrite(records, 2, outcome=INFORMED)
    report = verify_trace(forged, n=6, start=0, crash_schedule=schedule)
    assert any("crash" in v for v in report.violations)


def test_identical_lists_useless_after_encounter():
    # Node 2 opens its walk at its own id, an encounter with a node
    # informed in a strictly earlier round: from then on its list is a
    # fully informed stretch behind the start's walk, so the final
    # record, where it informs, is forged.
    records = [
        CallRecord(1, 0, 2, SEQ, INFORMED, 0),
        CallRecord(2, 0, 3, SEQ, INFORMED, 0),
        CallRecord(2, 2, 2, SEQ, ALREADY, 1),
        CallRecord(3, 0, 4, SEQ, INFORMED, 0),
        CallRecord(3, 2, 3, SEQ, ALREADY, 1),
        CallRecord(4, 0, 5, SEQ, INFORMED, 0),
        CallRecord(4, 2, 4, SEQ, INFORMED, 1),
    ]
    report = verify_trace(
        records, n=8, spec=Quasirandom("identical"), start=0, no_crashes=True
    )
    assert any("informs after an encounter" in v for v in report.violations)


def test_independent_lists_must_not_repeat_before_wrap():
    _, records = logged_run(spec=Quasirandom("independent"), n=24, seed=9)
    report = verify_trace(records, n=24, spec=Quasirandom("independent"), start=0)
    assert report.ok, report.violations[:3]
    # Forge a repeat inside some caller's first lap.
    walkers = {}
    for i, r in enumerate(records):
        walkers.setdefault(r.caller, []).append(i)
    caller, indexes = next((c, ix) for c, ix in walkers.items() if len(ix) >= 3)
    first_target = records[indexes[0]].target
    forged = rewrite(records, indexes[2], target=first_target)
    report = verify_trace(forged, n=24, spec=Quasirandom("independent"), start=0)
    assert any(
        f"caller {caller}: repeats a list target before wrapping" in v
        for v in report.violations
    )


def test_fully_random_trace_only_places_random_calls():
    _, records = logged_run(spec=FullyRandomPush(), n=24, seed=2)
    report = verify_trace(records, n=24, spec=FullyRandomPush(), start=0)
    assert report.ok
    forged = rewrite(records, 1, kind=SEQ)
    report = verify_trace(forged, n=24, spec=FullyRandomPush(), start=0)
    assert any("fully-random" in v for v in report.violations)


def test_violation_list_is_bounded():
    records = [
        CallRecord(1, i, i, RANDOM, ALREADY, i) for i in range(1, 200)
    ]
    report = verify_trace(records, n=256, start=0, max_violations=10)
    assert len(report.violations) <= 10


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(n=0), "n must be >= 1, got 0"),
        (dict(n=-3), "n must be >= 1, got -3"),
        (dict(n=8, start=8), "start 8 out of range for n=8"),
        (dict(start=-1), "start -1 out of range for n=48"),
        (dict(start=99), "start 99 out of range for n=48"),
    ],
)
def test_impossible_n_or_start_is_an_error_not_a_violation(options, message):
    _, records = logged_run()
    with pytest.raises(ValueError, match=message):
        verify_trace(records, **options)


def test_crash_round_beyond_int64_is_an_error_not_an_overflow():
    state = init_simulation(Hybrid(2), 8, 0, seed=1, crash_schedule={3: 2**63 - 1}, keep_log=True)
    run(state)
    assert verify_trace(state.log, spec=Hybrid(2), crash_schedule=state.crash_schedule).ok
    for crash_round in (2**63, -2**63 - 1):
        with pytest.raises(ValueError, match=f"crash round {crash_round} does not fit int64"):
            verify_trace(state.log, crash_schedule={3: crash_round})


def test_huge_node_ids_cost_memory_for_the_trace_only():
    huge = 10**15
    records = [
        CallRecord(1, 0, huge, RANDOM, INFORMED, 0),
        CallRecord(2, huge, 1, RANDOM, INFORMED, 0),
        CallRecord(2, 0, huge - 1, RANDOM, ALREADY, 1),
    ]
    tracemalloc.start()
    try:
        inferred = verify_trace(records, spec=FullyRandomPush())
        given = verify_trace(records, n=huge, spec=FullyRandomPush(), start=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert inferred.n == huge + 1
    assert inferred.violations == (
        "round 2 serial 1: already-informed outcome but target 999999999999999 is not",
    )
    assert given.violations[0] == (
        "round 1 serial 0: node id out of range (caller 0, target 1000000000000000)"
    )


# The traced peak of ``verify_trace`` above the trace's int32 columns, in
# bytes per call, by protocol.  The verifier reads the trace a block of
# calls at a time and carries per-node state across blocks: int32
# positions, rounds and ids, a few per node, and what the rules read of a
# caller's last call.  Its other temporaries, a block's intp ids among
# them, are the size of a block, a large share of a trace at n=2^13, so
# the pins there are mostly block; only independent lists keep their first
# lap's (caller, target) pairs for one sort at the end.  Measured at
# n=2^13: hybrid 25.1, identical lists 10.2, independent lists 29.4, push
# 10.9; hybrid at 2^17, 7.7.  Each pin is under 10% above.
VERIFY_BYTES_PER_CALL = {
    "hybrid": 27,
    "quasirandom-identical": 11,
    "quasirandom-independent": 32,
    "push": 11.9,
}
VERIFY_BYTES_PER_CALL_AT_2_17 = 8.4


def assert_verify_bytes_per_call(spec, n, bound, broken=False):
    state = init_simulation(spec, n, 0, seed=1, keep_log=True)
    run(state)
    log = state.log
    columns = log.columns  # joins the per-round chunks outside the measurement
    if broken:
        log = CallLog(columns._replace(outcome=np.full_like(columns.outcome, CRASHED_CODE)))
    assert len(log) > 4 * n
    tracemalloc.start()
    try:
        report = verify_trace(log, spec=spec, no_crashes=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok != broken
    assert peak < bound * len(log)
    return log, report


@pytest.mark.parametrize("spec", [Hybrid(4), Quasirandom("identical"),
                                  Quasirandom("independent"), FullyRandomPush()])
def test_verify_holds_a_fixed_number_of_bytes_per_call(spec):
    assert_verify_bytes_per_call(spec, 2**13, VERIFY_BYTES_PER_CALL[spec.name])


def test_verify_holds_as_few_bytes_per_call_on_a_benchmark_sized_trace():
    assert_verify_bytes_per_call(Hybrid(4), 2**17, VERIFY_BYTES_PER_CALL_AT_2_17)


def test_trace_broken_at_every_call_verifies_within_the_pin():
    # Every outcome crashed-target under no_crashes: each batch of messages
    # formats only its first ``max_violations`` by key, and the verifier
    # stops once the first messages are known.
    log, report = assert_verify_bytes_per_call(
        Hybrid(4), 2**13, VERIFY_BYTES_PER_CALL["hybrid"], broken=True)
    expected = reference_verify.verify_trace(list(log), spec=Hybrid(4), no_crashes=True)
    assert report.violations == expected.violations
    assert len(report.violations) == 50


# Each forged trace breaks one rule, and its case asserts that rule's own
# message, so removing any single rule from the verifier fails one case.
FORGED_TRACES = {
    # Protocol rules.
    "identical-lists chaining": (
        [
            CallRecord(1, 0, 1, SEQ, INFORMED, 0),
            CallRecord(2, 0, 3, SEQ, INFORMED, 0),
        ],
        dict(n=4, spec=Quasirandom("identical"), start=0),
        "caller 0 walks to 3, expected 2 after 1",
    ),
    "list-walking kind": (
        [CallRecord(1, 0, 1, RANDOM, INFORMED, 0)],
        dict(n=4, spec=Quasirandom("identical"), start=0),
        "list-walking caller places a random call",
    ),
    "hybrid kind after the first call": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 0, 2, SEQ, INFORMED, 0),
        ],
        dict(n=4, spec=Hybrid(2), start=0),
        "caller 0 places a sequential call, expected initial_successor",
    ),
    "encounter budget": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 0, 1, INITIAL, ALREADY, 0),
            CallRecord(3, 0, 1, RANDOM, ALREADY, 0),
            CallRecord(4, 0, 1, RANDOM, ALREADY, 0),
        ],
        dict(n=4, spec=Hybrid(1), start=0),
        "round 4 serial 0: caller 0 exceeds its encounter budget",
    ),
    "independent lists repeat before wrapping": (
        [
            CallRecord(1, 0, 1, SEQ, INFORMED, 0),
            CallRecord(2, 0, 1, SEQ, ALREADY, 0),
        ],
        dict(n=4, spec=Quasirandom("independent"), start=0),
        "caller 0: repeats a list target before wrapping",
    ),
    "independent lists period": (
        [
            CallRecord(1, 0, 1, SEQ, INFORMED, 0),
            CallRecord(2, 0, 0, SEQ, ALREADY, 0),
            CallRecord(3, 0, 0, SEQ, ALREADY, 0),
        ],
        dict(n=2, spec=Quasirandom("independent"), start=0),
        "caller 0: list does not repeat cyclically",
    ),
    # Generic rules.
    "node id range": (
        [CallRecord(1, 0, 5, INITIAL, INFORMED, 0)],
        dict(n=4, start=0),
        "node id out of range (caller 0, target 5)",
    ),
    "record order": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(1, 0, 2, INITIAL, INFORMED, 0),
        ],
        dict(n=4, start=0),
        "round 1 serial 0: records out of (round, serial) order",
    ),
    "contiguous serials": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
            CallRecord(2, 1, 3, RANDOM, INFORMED, 2),
        ],
        dict(n=4, start=0),
        "round 2 serial 2: serial positions not contiguous",
    ),
    "first serial": (
        [CallRecord(1, 0, 1, INITIAL, INFORMED, 1)],
        dict(n=4, start=0),
        "round 1 serial 1: first record of a round must be serial 0",
    ),
    "caller seen crashed": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 0, 1, INITIAL, CRASHED, 0),
            CallRecord(3, 1, 2, RANDOM, INFORMED, 0),
        ],
        dict(n=4, start=0),
        "caller 1 calls at round 3 but was seen crashed",
    ),
    "caller past its crash round": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 1, 2, RANDOM, INFORMED, 0),
        ],
        dict(n=4, start=0, crash_schedule={1: 2}),
        "caller 1 calls at or after its crash round",
    ),
    "crashed before the crash round": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 0, 2, INITIAL, CRASHED, 0),
        ],
        dict(n=4, start=0, crash_schedule={2: 5}),
        "target 2 reported crashed before its crash round",
    ),
    "already-informed target not informed": (
        [CallRecord(1, 0, 1, INITIAL, ALREADY, 0)],
        dict(n=4, start=0),
        "already-informed outcome but target 1 is not",
    ),
    "crashed target informed": (
        [
            CallRecord(1, 0, 1, INITIAL, CRASHED, 0),
            CallRecord(2, 0, 1, INITIAL, INFORMED, 0),
        ],
        dict(n=4, start=0),
        "crashed target 1 reported informed",
    ),
    "crashed target already informed": (
        [
            CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
            CallRecord(2, 0, 1, INITIAL, ALREADY, 0),
        ],
        dict(n=4, start=0, crash_schedule={1: 2}),
        "crashed target 1 reported already-informed",
    ),
}


@pytest.mark.parametrize("case", list(FORGED_TRACES))
def test_forged_trace_trips_its_own_rule(case):
    records, options, message = FORGED_TRACES[case]
    report = verify_trace(records, **options)
    assert any(message in v for v in report.violations), report.violations
    assert_same_report_on_int32_and_int64_columns(records, options)
    assert_same_report_in_any_block_size(records, options)


# Caller 1's two calls are positions 2 and 4, in different blocks of one,
# two or three calls; its walk breaks at the second.
WALK_ACROSS_BLOCKS = [
    CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
    CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
    CallRecord(2, 1, 5, RANDOM, INFORMED, 1),
    CallRecord(3, 0, 3, INITIAL, INFORMED, 0),
    CallRecord(3, 1, 7, SEQ, INFORMED, 1),
    CallRecord(3, 2, 4, RANDOM, INFORMED, 2),
]
# Caller 1 calls twice in round 2, inside one block of seven calls; its
# second call must be sequential and walk on from 5.
TWICE_IN_ONE_BLOCK = [
    CallRecord(1, 0, 1, INITIAL, INFORMED, 0),
    CallRecord(2, 0, 2, INITIAL, INFORMED, 0),
    CallRecord(2, 1, 5, RANDOM, INFORMED, 1),
    CallRecord(2, 1, 7, RANDOM, INFORMED, 2),
    CallRecord(3, 0, 3, INITIAL, INFORMED, 0),
]


@pytest.mark.parametrize("records, messages", [
    (WALK_ACROSS_BLOCKS, ["round 3 serial 1: caller 1 walks to 7, expected 6 after 5"]),
    (TWICE_IN_ONE_BLOCK, [
        "round 2 serial 2: caller 1 calls twice in one round",
        "round 2 serial 2: caller 1 places a random call, expected sequential",
    ]),
], ids=["walk across blocks", "twice in one block"])
def test_caller_state_carries_across_and_within_blocks(records, messages):
    options = dict(n=8, spec=Hybrid(2), start=0, no_crashes=True)
    reports = reports_in_blocks(records, options)
    assert reports[1:] == reports[:1] * (len(reports) - 1)
    for message in messages:
        assert message in reports[0][3], reports[0][3]


# ------------------------------------------------------- summary cross-check


def test_summary_field_tampering_is_caught():
    summary, records = logged_run()
    assert verify_summary_against_trace(summary, records) == []
    for field, delta in [
        ("total_calls", 1),
        ("informing_calls", -1),
        ("encounter_calls", 2),
        ("rounds_executed", -1),
    ]:
        bad = dataclasses.replace(summary, **{field: getattr(summary, field) + delta})
        assert verify_summary_against_trace(bad, records), field


def test_summary_profile_tampering_is_caught():
    summary, records = logged_run()
    prof = list(summary.per_round_informed)
    prof[2] += 1
    bad = dataclasses.replace(summary, per_round_informed=tuple(prof))
    assert verify_summary_against_trace(bad, records)


def test_summary_profile_not_starting_at_one_is_caught():
    summary, records = logged_run()
    bad = dataclasses.replace(summary, per_round_informed=(2,) + summary.per_round_informed[1:])
    assert "per_round_informed[0] = 2, expected 1" in verify_summary_against_trace(bad, records)


def test_summary_profile_that_shrinks_is_caught():
    summary, records = logged_run()
    prof = list(summary.per_round_informed)
    assert prof[:2] == [1, 2]
    prof[2] = 1
    bad = dataclasses.replace(summary, per_round_informed=tuple(prof))
    assert "informed count shrinks at round 2" in verify_summary_against_trace(bad, records)


@pytest.mark.parametrize("changes, message", [
    (dict(outcome="stalled"), "completion_round {rounds} for a stalled run"),
    (dict(outcome="capped"), "completion_round {rounds} for a capped run"),
    (dict(completion_round=None), "completion_round None for a completed run"),
    (dict(completion_round=99), "completion_round 99 != rounds_executed {rounds}"),
    (dict(n=40), "node id 47 in trace is not below n=40"),
    (dict(n=49), "summary n 49 != n=48"),
])
def test_summary_that_contradicts_itself_or_its_trace_is_caught(changes, message):
    summary, records = logged_run()
    assert summary.outcome == "completed"
    assert verify_summary_against_trace(summary, records, n=48) == []
    bad = dataclasses.replace(summary, **changes)
    violations = verify_summary_against_trace(bad, records, n=48)
    assert message.format(rounds=summary.rounds_executed) in violations


def test_summary_of_a_stall_or_cap_without_completion_round_passes():
    for schedule, cap in (({i: 4 for i in range(1, 26)}, None), (None, 2)):
        state = init_simulation(Hybrid(1), 32, 0, seed=0, crash_schedule=schedule, keep_log=True)
        summary = run(state, cap)
        assert summary.completion_round is None
        assert verify_summary_against_trace(summary, list(state.log)) == []


def test_summary_with_empty_profile_is_a_violation():
    summary, records = logged_run()
    bad = dataclasses.replace(summary, rounds_executed=-1, per_round_informed=())
    assert "per_round_informed is empty; it starts at round 0" in (
        verify_summary_against_trace(bad, records)
    )


def test_summary_completion_before_last_round_is_caught():
    # A completed run's completion round is its last executed round, which
    # is at or after the trace's last round.
    summary, records = logged_run()
    bad = dataclasses.replace(summary, completion_round=0)
    assert verify_summary_against_trace(bad, records) == [
        f"completion_round 0 != rounds_executed {summary.rounds_executed}"
    ]


def test_summary_of_many_rounds_is_checked_in_linear_time():
    # The doubling cap 2**t is n from round n.bit_length() on; building each
    # 2**t would make the check quadratic in the round count.
    summary, records = logged_run()
    rounds = 10**5
    plateau = (summary.per_round_informed[-1],) * (rounds - summary.rounds_executed)
    long = dataclasses.replace(
        summary,
        outcome="capped",
        completion_round=None,
        rounds_executed=rounds,
        per_round_informed=summary.per_round_informed + plateau,
    )
    began = time.perf_counter()
    assert verify_summary_against_trace(long, records) == []
    over = dataclasses.replace(long, per_round_informed=long.per_round_informed[:-1] + (49,))
    assert f"round {rounds}: informed count 49 above the doubling cap" in (
        verify_summary_against_trace(over, records)
    )
    assert time.perf_counter() - began < 2.0
