"""The columnar verifier against the per-record oracle ``reference_verify``.

Small runs of every protocol, with and without crash schedules, get up to
three random edits (a field rewrite, out-of-range ids included; a deletion;
a duplicate; a swap).  Both verifiers must give the same report, message
for message, whether or not the edits left the trace in (round, serial)
order, and the same summary cross-check.  The same runs with their node
ids spread by a large stride take the verifier's other way of numbering
nodes.  The verifier reads a trace a block of calls at a time; its report
must not depend on the block size, down to blocks of one call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verify
from rumorsim.core import CallKind, CallLog, CallOutcome, CallRecord, init_simulation, run
from rumorsim.protocols import FullyRandomPush, Hybrid, Quasirandom
from rumorsim import verify
from rumorsim.verify import verify_summary_against_trace, verify_trace

SPECS = [
    Hybrid(1),
    Hybrid(3),
    Quasirandom("identical"),
    Quasirandom("independent"),
    FullyRandomPush(),
]


@st.composite
def runs(draw):
    spec = draw(st.sampled_from(SPECS))
    n = draw(st.integers(min_value=1, max_value=64))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    schedule = draw(
        st.one_of(
            st.just({}),
            st.dictionaries(
                st.integers(min_value=0, max_value=n - 1).filter(lambda node: node != start),
                st.integers(min_value=0, max_value=8),
                max_size=max(1, n // 3),
            ),
        )
    )
    state = init_simulation(
        spec, n, start, seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        crash_schedule=schedule, allow_self_calls=draw(st.booleans()), keep_log=True,
    )
    summary = run(state)
    return spec, n, start, schedule, summary, list(state.log)


@st.composite
def edits(draw, records, n):
    """Up to three edits of ``records``."""
    records = list(records)
    ids = st.one_of(st.integers(min_value=-2, max_value=n + 2), st.just(10**15))
    values = {
        "round": st.integers(min_value=-1, max_value=12),
        "caller": ids,
        "target": ids,
        "kind": st.sampled_from(list(CallKind)),
        "outcome": st.sampled_from(list(CallOutcome)),
        "serial_position": st.integers(min_value=-1, max_value=n + 1),
    }
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not records:
            break
        i = draw(st.integers(min_value=0, max_value=len(records) - 1))
        edit = draw(st.sampled_from(["rewrite", "delete", "duplicate", "swap"]))
        if edit == "rewrite":
            field = draw(st.sampled_from(CallRecord._fields))
            records[i] = records[i]._replace(**{field: draw(values[field])})
        elif edit == "delete":
            del records[i]
        elif edit == "duplicate":
            records.insert(i, records[i])
        else:
            j = draw(st.integers(min_value=0, max_value=len(records) - 1))
            records[i], records[j] = records[j], records[i]
    return records


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_verifier_agrees_with_the_per_record_oracle(data):
    spec, n, start, schedule, summary, genuine = data.draw(runs())
    records = data.draw(edits(genuine, n))
    options = dict(
        n=data.draw(st.sampled_from([None, n])),
        spec=data.draw(st.sampled_from([None, spec])),
        start=data.draw(st.sampled_from([None, start])),
        crash_schedule=data.draw(st.sampled_from([None, schedule])),
        no_crashes=data.draw(st.booleans()),
    )
    if records and options["n"] is None and options["start"] is not None:
        inferred = 1 + max(max(r.caller, r.target) for r in records)
        if not options["start"] < inferred:
            with pytest.raises(ValueError, match="out of range"):
                verify_trace(records, **options)
            return

    for max_violations in (3, 1000):
        expected = reference_verify.verify_trace(records, max_violations=max_violations, **options)
        for trace in (records, CallLog(CallRecord.columns_of(records))):
            report = verify_trace(trace, max_violations=max_violations, **options)
            assert (report.records_checked, report.n, report.start, report.violations) == (
                expected.records_checked, expected.n, expected.start, expected.violations
            )
    for given_n in (None, n, n + 1):
        assert verify_summary_against_trace(summary, records, n=given_n) == (
            reference_verify.verify_summary_against_trace(summary, records, n=given_n)
        )


def assert_same_report(records, options):
    """The columnar verifier's report equals the oracle's, message for message."""
    for max_violations in (3, 1000):
        expected = reference_verify.verify_trace(records, max_violations=max_violations, **options)
        report = verify_trace(CallLog(CallRecord.columns_of(records)),
                              max_violations=max_violations, **options)
        assert (report.records_checked, report.n, report.start, report.violations) == (
            expected.records_checked, expected.n, expected.start, expected.violations
        )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_verifier_agrees_with_the_oracle_on_sparse_node_ids(data):
    spec, n, start, schedule, _, genuine = data.draw(runs())
    stride = data.draw(st.sampled_from([3, 1000, 2**40]))
    spread = [r._replace(caller=r.caller * stride, target=r.target * stride) for r in genuine]
    records = data.draw(edits(spread, n * stride))
    options = dict(
        n=data.draw(st.sampled_from([None, n * stride])),
        spec=data.draw(st.sampled_from([None, spec])),
        start=data.draw(st.sampled_from([None, start * stride])),
        crash_schedule=data.draw(
            st.sampled_from([None, {node * stride: rnd for node, rnd in schedule.items()}])
        ),
        no_crashes=data.draw(st.booleans()),
    )
    if records and options["n"] is None and options["start"] is not None:
        if not options["start"] <= max(max(r.caller, r.target) for r in records):
            return  # start out of the inferred range: an error, tested above
    assert_same_report(records, options)


def assert_same_report_on_int32_and_int64_columns(records, options):
    """The report, or the error, on int32 columns equals that on int64
    columns of the same records."""
    narrow = CallRecord.columns_of(records)
    wide = CallRecord._make(column.astype(np.int64) if column.itemsize > 1 else column
                            for column in narrow)
    reports = []
    for columns in (narrow, wide):
        try:
            reports.append(verify_trace(CallLog(columns), **options))
        except ValueError as exc:
            reports.append(str(exc))
    assert reports[0] == reports[1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_verifier_reports_alike_on_int32_and_int64_columns(data):
    spec, n, start, schedule, _, genuine = data.draw(runs())
    records = data.draw(edits(genuine, n))
    # Without the edits' ids of 10**15, every column fits int32.
    fitting = [r for r in records if max(abs(r.caller), abs(r.target)) < 2**31]
    for trace in (records, fitting):
        options = dict(
            n=data.draw(st.sampled_from([None, n])),
            spec=data.draw(st.sampled_from([None, spec])),
            start=data.draw(st.sampled_from([None, start])),
            crash_schedule=data.draw(st.sampled_from([None, schedule])),
            no_crashes=data.draw(st.booleans()),
            max_violations=data.draw(st.sampled_from([3, 1000])),
        )
        assert_same_report_on_int32_and_int64_columns(trace, options)


# Blocks of 1, 2, 3 and 7 calls cut every trace of the corpus at each call,
# between a caller's consecutive calls and inside rounds.
BLOCK_SIZES = (1, 2, 3, 7)


def reports_in_blocks(trace, options):
    """The report, or the error, at the default block size and at each of
    ``BLOCK_SIZES``."""
    default = verify._BLOCK_CALLS
    reports = []
    try:
        for block in (default, *BLOCK_SIZES):
            verify._BLOCK_CALLS = block
            try:
                report = verify_trace(trace, **options)
                reports.append((report.records_checked, report.n, report.start, report.violations))
            except ValueError as exc:
                reports.append(str(exc))
    finally:
        verify._BLOCK_CALLS = default
    return reports


def assert_same_report_in_any_block_size(trace, options):
    """The report (or error) at every block size; returns it."""
    first, *others = reports_in_blocks(trace, options)
    for block, report in zip(BLOCK_SIZES, others):
        assert report == first, block
    return first


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_reports_do_not_depend_on_the_block_size(data):
    # The oracle's corpus: edited runs of every protocol, with dense or
    # sparse node ids, on int32 or int64 columns.
    spec, n, start, schedule, _, genuine = data.draw(runs())
    stride = data.draw(st.sampled_from([1, 3, 2**40]))
    spread = [r._replace(caller=r.caller * stride, target=r.target * stride) for r in genuine]
    records = data.draw(edits(spread, n * stride))
    options = dict(
        n=data.draw(st.sampled_from([None, n * stride])),
        spec=data.draw(st.sampled_from([None, spec])),
        start=data.draw(st.sampled_from([None, start * stride])),
        crash_schedule=data.draw(
            st.sampled_from([None, {node * stride: rnd for node, rnd in schedule.items()}])
        ),
        no_crashes=data.draw(st.booleans()),
        max_violations=data.draw(st.sampled_from([0, 3, 1000])),
    )
    columns = CallRecord.columns_of(records)
    if data.draw(st.booleans()):
        columns = CallRecord._make(column.astype(np.int64) if column.itemsize > 1 else column
                                   for column in columns)
    report = assert_same_report_in_any_block_size(CallLog(columns), options)
    if not isinstance(report, str):
        expected = reference_verify.verify_trace(records, **options)
        assert report == (expected.records_checked, expected.n, expected.start,
                          expected.violations)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_kept_logs_report_alike_in_any_block_size(spec):
    # Genuine runs, clean or with a crash schedule's crashed-target calls,
    # checked with and without no_crashes; each report lists every message,
    # and a kept log reports as its records do.
    for schedule in ({}, {node: 1 + node % 3 for node in range(2, 40, 3)}):
        state = init_simulation(spec, 64, 0, seed=5, crash_schedule=schedule, keep_log=True)
        run(state)
        for no_crashes in (False, True):
            options = dict(spec=spec, crash_schedule=schedule, no_crashes=no_crashes,
                           max_violations=10**6)
            reports = reports_in_blocks(state.log, options)
            assert reports[1:] == reports[:1] * len(BLOCK_SIZES)
            assert reports[0] == reports_in_blocks(list(state.log), options)[0]
