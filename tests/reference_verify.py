"""Per-record trace verifier: the oracle ``rumorsim.verify`` is tested against.

This is the package's verifier as it was before it became a columnar
replay, kept as written: one Python pass over the records, with dict and
list state per node and per caller.  ``tests/test_verify_oracle.py``
requires the package's verifier to give the same report on every trace.

The checks only use information that is actually in a trace.  One
protocol-independent replay checks (round, serial) order, node ids, caller
eligibility (informed earlier, one call per round, not after a crash),
outcomes against the replayed informed set, the crash schedule and
per-round doubling, and groups the calls by caller.  Given a spec, that
protocol's rules then check each caller's calls: kinds, walk chaining,
the hybrid encounter budget and the list order.  With ``no_crashes=True``
any crashed-target outcome is a violation and the identical-lists
uselessness property is checked too.  The verifier shares no rules with
the simulation kernel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Sequence

from rumorsim.core import CallKind, CallOutcome, CallRecord, TraceSummary
from rumorsim.protocols import LISTS_IDENTICAL, FullyRandomPush, Hybrid, ProtocolSpec, Quasirandom

# Bound once: attribute lookups on an Enum class are slow in per-call loops.
INITIAL_SUCCESSOR, SEQUENTIAL, RANDOM = (
    CallKind.INITIAL_SUCCESSOR, CallKind.SEQUENTIAL, CallKind.RANDOM
)
INFORMED, ALREADY_INFORMED = CallOutcome.INFORMED, CallOutcome.ALREADY_INFORMED


@dataclass(frozen=True)
class VerificationReport:
    records_checked: int
    n: int | None
    start: int | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_trace(
    records: Sequence[CallRecord],
    *,
    n: int | None = None,
    spec: ProtocolSpec | None = None,
    start: int | None = None,
    crash_schedule: dict[int, int] | None = None,
    no_crashes: bool = False,
    max_violations: int = 50,
) -> VerificationReport:
    """Check a call trace against every invariant derivable from it.

    Violations list the generic checks in trace order, then the protocol's
    rules caller by caller.
    """
    violations: list[str] = []

    def flag(message: str) -> None:
        if len(violations) < max_violations:
            violations.append(message)

    if not records:
        return VerificationReport(0, n, start, tuple(violations))

    if n is None:
        n = 1 + max(max(r.caller, r.target) for r in records)
    if start is None and records[0].round == 1:
        start = records[0].caller
    if records[0].round != 1:
        flag(f"first recorded round is {records[0].round}, expected 1")

    by_caller, informed_at = _replay(flag, records, n, start, crash_schedule, no_crashes)
    check_caller = _caller_rules(spec, n, start, informed_at if no_crashes else {})
    if check_caller is not None:
        for caller, calls in by_caller.items():
            check_caller(flag, caller, calls)

    return VerificationReport(len(records), n, start, tuple(violations))


def _replay(flag, records, n, start, crash_schedule, no_crashes):
    """Protocol-independent checks over the whole trace.

    Returns each caller's in-range calls in trace order, and the round
    at which each node was first informed.
    """
    informed_at: dict[int, int] = {} if start is None else {start: 0}
    crashed_seen: dict[int, int] = {}  # node -> earliest round observed crashed
    by_caller: dict[int, list[CallRecord]] = defaultdict(list)
    informed_before_round = len(informed_at)
    prev_key: tuple[int, int] | None = None

    for r, round_records in groupby(records, key=attrgetter("round")):
        informs_this_round = 0
        for rec in round_records:
            c, t, s = rec.caller, rec.target, rec.serial_position
            where = f"round {r} serial {s}"

            key = (r, s)
            if prev_key is not None:
                if key <= prev_key:
                    flag(f"{where}: records out of (round, serial) order")
                elif r == prev_key[0] and s != prev_key[1] + 1:
                    flag(f"{where}: serial positions not contiguous")
                elif r != prev_key[0] and s != 0:
                    flag(f"{where}: round does not begin at serial 0")
            elif s != 0:
                flag(f"{where}: first record of a round must be serial 0")
            prev_key = key

            if not (0 <= c < n and 0 <= t < n):
                flag(f"{where}: node id out of range (caller {c}, target {t})")
                continue

            # Caller eligibility.
            caller_informed = informed_at.get(c)
            if caller_informed is None:
                flag(f"{where}: caller {c} was never informed")
            elif caller_informed >= r:
                flag(
                    f"{where}: caller {c} acts in the round it was informed "
                    f"(informed at {caller_informed})"
                )
            if c in crashed_seen and crashed_seen[c] <= r:
                flag(f"{where}: caller {c} calls at round {r} but was seen crashed")
            if crash_schedule is not None and crash_schedule.get(c, r + 1) <= r:
                flag(f"{where}: caller {c} calls at or after its crash round")
            calls = by_caller[c]
            if calls and calls[-1].round == r:
                flag(f"{where}: caller {c} calls twice in one round")
            calls.append(rec)

            # Outcome consistency against the replayed informed set.
            if rec.outcome is INFORMED:
                if t in informed_at:
                    flag(f"{where}: target {t} informed a second time")
                elif t in crashed_seen and crashed_seen[t] <= r:
                    flag(f"{where}: crashed target {t} reported informed")
                else:
                    informed_at[t] = r
                    informs_this_round += 1
                if crash_schedule is not None and crash_schedule.get(t, r + 1) <= r:
                    flag(f"{where}: target {t} informed at or after its crash round")
            elif rec.outcome is ALREADY_INFORMED:
                if t not in informed_at:
                    flag(f"{where}: already-informed outcome but target {t} is not")
                if crash_schedule is not None and crash_schedule.get(t, r + 1) <= r:
                    flag(f"{where}: crashed target {t} reported already-informed")
            else:  # crashed target
                if no_crashes:
                    flag(f"{where}: crashed-target outcome in a no-crash run")
                if crash_schedule is not None and crash_schedule.get(t, r + 1) > r:
                    flag(f"{where}: target {t} reported crashed before its crash round")
                crashed_seen.setdefault(t, r)

        if informs_this_round > informed_before_round:
            flag(
                f"round {r}: {informs_this_round} nodes informed by "
                f"{informed_before_round} previously informed nodes"
            )
        informed_before_round += informs_this_round

    return by_caller, informed_at


def _caller_rules(spec, n, start, informed_at):
    """The protocol's per-caller checks; the one place that reads the spec type."""
    if isinstance(spec, Hybrid):
        return partial(_check_hybrid_caller, n=n, start=start, budget=spec.stop_budget)
    if isinstance(spec, Quasirandom) and spec.lists == LISTS_IDENTICAL:
        return partial(_check_identical_caller, n=n, start=start, informed_at=informed_at)
    if isinstance(spec, Quasirandom):
        return partial(_check_independent_caller, n=n)
    if isinstance(spec, FullyRandomPush):
        return partial(_check_kinds, kind=RANDOM, walker="fully-random")
    return None


def _where(rec: CallRecord) -> str:
    return f"round {rec.round} serial {rec.serial_position}"


def _check_kinds(flag, caller, calls, *, kind, walker) -> None:
    for rec in calls:
        if rec.kind is not kind:
            flag(f"{_where(rec)}: {walker} caller places a {rec.kind.value} call")


def _check_walk(flag, caller, steps, n) -> None:
    # Each (prev, rec) step goes to the next node of the cyclic order.
    for prev, rec in steps:
        expected = (prev.target + 1) % n
        if rec.target != expected:
            flag(
                f"{_where(rec)}: caller {caller} walks to {rec.target}, expected "
                f"{expected} after {prev.target}"
            )


def _check_hybrid_caller(flag, caller, calls, *, n, start, budget) -> None:
    # The start walks initial-successor calls until its first encounter;
    # everyone else opens with a random call; informing switches the caller
    # to a sequential walk from the target's successor; an encounter forces
    # a random restart; a crashed target is walked past.  A caller stops for
    # good after its budget of encounters; the start gets one more.
    limit = budget + 1 if caller == start else budget
    encounters = 0
    prev = None
    steps = []
    for rec in calls:
        kind = rec.kind
        if encounters >= limit:
            flag(f"{_where(rec)}: caller {caller} calls after stopping")
            if rec.outcome is ALREADY_INFORMED:
                flag(f"{_where(rec)}: caller {caller} exceeds its encounter budget")
        if prev is None:
            if caller == start:
                if kind is not INITIAL_SUCCESSOR or rec.target != (start + 1) % n:
                    flag(
                        f"{_where(rec)}: starting node must open at its successor "
                        f"with an initial-successor call"
                    )
            elif kind is not RANDOM:
                flag(f"{_where(rec)}: first call of node {caller} must be random")
        else:
            if caller == start and encounters == 0:
                expected_kind = INITIAL_SUCCESSOR
            elif prev.outcome is INFORMED:
                expected_kind = SEQUENTIAL
            elif prev.outcome is ALREADY_INFORMED:
                expected_kind = RANDOM
            else:  # walked past a crashed target, or redraws after a crashed draw
                expected_kind = prev.kind
            if kind is not expected_kind:
                flag(
                    f"{_where(rec)}: caller {caller} places a {kind.value} "
                    f"call, expected {expected_kind.value}"
                )
            # A walk call after an inform or a crashed target steps on.
            if kind is not RANDOM and prev.outcome is not ALREADY_INFORMED:
                steps.append((prev, rec))
        if rec.outcome is ALREADY_INFORMED:
            encounters += 1
        prev = rec
    _check_walk(flag, caller, steps, n)


def _check_identical_caller(flag, caller, calls, *, n, start, informed_at) -> None:
    # Every caller walks the shared cyclic order.  ``informed_at`` is empty
    # unless the run had no crashes; then a caller that meets a node informed
    # in an earlier round, other than the start, walks an informed stretch
    # from then on and never informs again.
    _check_kinds(flag, caller, calls, kind=SEQUENTIAL, walker="list-walking")
    _check_walk(flag, caller, zip(calls, calls[1:]), n)
    useless = False
    for rec in calls:
        t, r = rec.target, rec.round
        if rec.outcome is INFORMED and useless:
            flag(
                f"{_where(rec)}: identical-lists caller {caller} informs after an "
                f"encounter with a previously informed node"
            )
        elif rec.outcome is ALREADY_INFORMED and t != start and informed_at.get(t, r) < r:
            useless = True


def _check_independent_caller(flag, caller, calls, *, n) -> None:
    # Each caller walks its own cyclic permutation: the first n targets are
    # distinct, and from then on the sequence repeats with period n.
    _check_kinds(flag, caller, calls, kind=SEQUENTIAL, walker="list-walking")
    targets = [rec.target for rec in calls]
    if len(set(targets[:n])) != len(targets[:n]):
        flag(f"caller {caller}: repeats a list target before wrapping")
    if any(targets[i] != targets[i - n] for i in range(n, len(targets))):
        flag(f"caller {caller}: list does not repeat cyclically")


def verify_summary_against_trace(
    summary: TraceSummary, records: Sequence[CallRecord], *, n: int | None = None
) -> list[str]:
    """Cross-check a summary document against its call trace, and its
    ``n`` against ``n`` when given."""
    violations = []
    if n is not None and summary.n != n:
        violations.append(f"summary n {summary.n} != n={n}")
    if summary.total_calls != len(records):
        violations.append(
            f"total_calls {summary.total_calls} != {len(records)} trace records"
        )
    by_outcome = {o: 0 for o in CallOutcome}
    informs_per_round: dict[int, int] = {}
    for rec in records:
        by_outcome[rec.outcome] += 1
        if rec.outcome is INFORMED:
            informs_per_round[rec.round] = informs_per_round.get(rec.round, 0) + 1
    pairs = (
        ("informing_calls", summary.informing_calls, CallOutcome.INFORMED),
        ("encounter_calls", summary.encounter_calls, CallOutcome.ALREADY_INFORMED),
        ("crashed_target_calls", summary.crashed_target_calls, CallOutcome.CRASHED_TARGET),
    )
    for name, value, outcome in pairs:
        if value != by_outcome[outcome]:
            violations.append(f"{name} {value} != {by_outcome[outcome]} in trace")

    completed = summary.outcome == "completed"
    if (summary.completion_round is None) == completed:
        violations.append(
            f"completion_round {summary.completion_round} for a {summary.outcome} run"
        )
    elif completed and summary.completion_round != summary.rounds_executed:
        violations.append(
            f"completion_round {summary.completion_round} != rounds_executed "
            f"{summary.rounds_executed}"
        )

    prof = summary.per_round_informed
    if len(prof) != summary.rounds_executed + 1:
        violations.append(
            f"per_round_informed has {len(prof)} entries for "
            f"{summary.rounds_executed} executed rounds"
        )
    else:
        if prof[0] != 1:
            violations.append(f"per_round_informed[0] = {prof[0]}, expected 1")
        for t in range(1, len(prof)):
            grew = prof[t] - prof[t - 1]
            if grew < 0:
                violations.append(f"informed count shrinks at round {t}")
            if grew != informs_per_round.get(t, 0):
                violations.append(
                    f"round {t}: informed count grows by {grew} but the trace "
                    f"has {informs_per_round.get(t, 0)} informing calls"
                )
            if prof[t] > min(summary.n, 2**t):
                violations.append(
                    f"round {t}: informed count {prof[t]} above the doubling cap"
                )
    if records:
        last_round = records[-1].round
        if summary.rounds_executed < last_round:
            violations.append(
                f"rounds_executed {summary.rounds_executed} below last trace "
                f"round {last_round}"
            )
        top = max(max(rec.caller, rec.target) for rec in records)
        if top >= summary.n:
            violations.append(f"node id {top} in trace is not below n={summary.n}")
    return violations
