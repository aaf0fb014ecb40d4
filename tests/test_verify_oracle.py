"""The columnar verifier against the per-record oracle ``reference_verify``.

Small runs of every protocol, with and without crash schedules, get up to
three random edits (a field rewrite, out-of-range ids included; a deletion;
a duplicate; a swap).  Both verifiers must give the same report, message
for message, whether or not the edits left the trace in (round, serial)
order, and the same summary cross-check.  The same runs with their node
ids spread by a large stride take the verifier's other way of numbering
nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verify
from rumorsim.core import CallKind, CallLog, CallOutcome, CallRecord, init_simulation, run
from rumorsim.protocols import FullyRandomPush, Hybrid, Quasirandom
from rumorsim.verify import _node_ids, verify_summary_against_trace, verify_trace

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
    assert verify_summary_against_trace(summary, records) == (
        reference_verify.verify_summary_against_trace(summary, records)
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


def test_node_ids_are_the_nodes_when_dense_and_compacted_when_sparse():
    nodes, callers, targets = _node_ids(np.array([0, 2, 2]), np.array([1, 3, 0]))
    assert nodes.tolist() == [0, 1, 2, 3]
    assert (callers.tolist(), targets.tolist()) == ([0, 2, 2], [1, 3, 0])
    nodes, callers, targets = _node_ids(np.array([0, 2000, 2000]), np.array([1000, 3000, 0]))
    assert nodes.tolist() == [0, 1000, 2000, 3000]
    assert (callers.tolist(), targets.tolist()) == ([0, 2, 2], [1, 3, 0])
