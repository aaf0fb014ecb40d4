"""Replay stored call traces and re-check the engine's invariants.

The checks only use information that is actually in a trace.  One
protocol-independent replay checks (round, serial) order, node ids, caller
eligibility (informed earlier, one call per round, not after a crash),
outcomes against the replayed informed set, the crash schedule and
per-round doubling, and groups the calls by caller.  Given a spec, that
protocol's rules (``_CALLER_RULES``, by the spec's ``name``) then check
each caller's calls: kinds, walk chaining, the hybrid encounter budget and
the list order.  With ``no_crashes=True`` any crashed-target outcome is a
violation and the identical-lists uselessness property is checked too.  The verifier shares no rules with
the simulation kernel.

The replay is columnar: it reads a ``CallLog``'s ``columns`` (any other
sequence of ``CallRecord``s is converted to columns first) and builds no
Python object per call.  What the trace says about each node up to any
call is held in per-node arrays: where and in which round a call first
found the node crashed, and which call informed it.  They are indexed by
the node ids themselves when the largest in-range id is below the number
of call endpoints, and by compacted ids otherwise, so memory follows the
trace's length, not ``n``.  Ids and trace positions are int32 where they
fit.  Each check is then a mask over the calls.  The protocol rules run,
once the replay's arrays are released, over the calls sorted stably by
caller, as shifts and cumulative sums within each caller's segment.  Only
the first ``max_violations`` messages, in the documented order, are
formatted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CallKind, CallOutcome, CallRecord, TraceSummary
from .protocols import ProtocolSpec

# A kind or outcome column holds each member's index in its enum's
# declaration order.
KINDS, OUTCOMES = tuple(CallKind), tuple(CallOutcome)
INITIAL_SUCCESSOR, SEQUENTIAL, RANDOM = map(
    KINDS.index, (CallKind.INITIAL_SUCCESSOR, CallKind.SEQUENTIAL, CallKind.RANDOM)
)
INFORMED, ALREADY_INFORMED, CRASHED_TARGET = map(
    OUTCOMES.index,
    (CallOutcome.INFORMED, CallOutcome.ALREADY_INFORMED, CallOutcome.CRASHED_TARGET),
)
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class VerificationReport:
    records_checked: int
    n: int | None
    start: int | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class _Found:
    """Violations found as masks over the calls.

    Each batch is a message template, a function giving the template's
    fields for one argument, the arguments, and each message's sort key
    (one array or constant per key level).  ``first`` formats only the
    first ``limit`` messages in key order.
    """

    def __init__(self):
        self.batches = []

    def add(self, template, fields, args, *keys) -> None:
        if len(args):
            keys = [np.broadcast_to(key, len(args)) for key in keys]
            self.batches.append((template, fields, args, keys))

    def first(self, limit: int) -> list[str]:
        if limit <= 0 or not self.batches:
            return []
        parts = []
        for number, (*_, keys) in enumerate(self.batches):
            order = np.lexsort(keys[::-1])[:limit]
            parts.append((np.full(len(order), number), order, *(key[order] for key in keys)))
        batch, index, *levels = map(np.concatenate, zip(*parts))
        picked = np.lexsort(levels[::-1])[:limit]
        messages = []
        for b, i in zip(batch[picked].tolist(), index[picked].tolist()):
            template, fields, args, _ = self.batches[b]
            messages.append(template.format(**fields(args[i])))
        return messages


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

    Violations list the generic checks by (call, check) in trace order,
    then the protocol's rules caller by caller.  ``ValueError`` if ``n`` is
    below 1 or ``start`` is not a node id in ``[0, n)``.
    """
    columns = CallRecord.columns_of(records)
    m = len(columns.round)
    if n is None and m:
        n = 1 + int(max(columns.caller.max(), columns.target.max()))
    elif n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if start is not None and n is not None and not 0 <= start < n:
        raise ValueError(f"start {start} out of range for n={n}")
    if not m:
        return VerificationReport(0, n, start, ())
    if start is None and columns.round[0] == 1:
        start = int(columns.caller[0])

    found, by_caller = _replay(columns, n, start, crash_schedule, no_crashes)
    violations = found.first(max_violations)
    if spec is not None and len(violations) < max_violations:
        found = _Found()
        _CALLER_RULES[spec.name](found, _CallerSegments(columns, *by_caller), n, start, spec)
        violations += found.first(max_violations - len(violations))
    return VerificationReport(m, n, start, tuple(violations))


def _index_dtype(size: int):
    """The narrowest of int32 and int64 that holds every integer in
    ``[-1, size]``."""
    return np.int32 if size < 2**31 else np.int64


def _node_ids(callers: np.ndarray, targets: np.ndarray):
    """(nodes, caller ids, target ids) of the calls, ``nodes[i]`` being the
    node with id i.

    A node's id is the node itself where the largest node is below the
    number of call endpoints; otherwise the nodes the calls name are
    numbered in order.  Either way the per-node arrays follow the trace's
    length, not ``n``.
    """
    size = 1 + int(max(callers.max(initial=-1), targets.max(initial=-1)))
    if size <= 2 * len(callers):
        dtype = _index_dtype(size)
        return np.arange(size), callers.astype(dtype), targets.astype(dtype)
    nodes, ids = np.unique(np.concatenate((callers, targets)), return_inverse=True)
    ids = ids.astype(_index_dtype(len(nodes)))
    return nodes, ids[: len(callers)], ids[len(callers) :]


def _replay(columns, n, start, crash_schedule, no_crashes):
    """Protocol-independent checks over the whole trace.

    Returns the violations found, keyed by (call position, check), and the
    arguments of the in-range calls' ``_CallerSegments``.
    """
    r, c, t, k, o, s = columns
    m = len(r)
    found = _Found()

    def record(p) -> dict:
        where = f"round {r[p]} serial {s[p]}"
        return {"where": where, "round": r[p], "caller": c[p], "target": t[p]}

    def flag_records(template, positions, slot) -> None:
        found.add(template, record, positions, positions, slot)

    if r[0] != 1:
        found.add("first recorded round is {round}, expected 1", record, [0], -1, 0)

    # Order: each call against the one before it.
    same_round = r[1:] == r[:-1]
    back = (r[1:] < r[:-1]) | (same_round & (s[1:] <= s[:-1]))
    flag_records("{where}: records out of (round, serial) order", 1 + np.flatnonzero(back), 0)
    flag_records("{where}: serial positions not contiguous",
                 1 + np.flatnonzero(~back & same_round & (s[1:] != s[:-1] + 1)), 0)
    flag_records("{where}: round does not begin at serial 0",
                 1 + np.flatnonzero(~back & ~same_round & (s[1:] != 0)), 0)
    if s[0] != 0:
        flag_records("{where}: first record of a round must be serial 0", [0], 0)

    highest = min(n - 1, _INT64_MAX)
    inside = (c >= 0) & (c <= highest) & (t >= 0) & (t <= highest)
    flag_records("{where}: node id out of range (caller {caller}, target {target})",
                 np.flatnonzero(~inside), 1)

    # The in-range calls, by their index i; the rest of the replay skips
    # out-of-range calls, as if they were not in the trace.  A position in
    # the trace, or m for none, fits in ``position``.
    position = _index_dtype(m)
    at = np.flatnonzero(inside).astype(position)
    q = len(at)
    pick = slice(None) if q == m else at  # every call in range: read the columns in place
    nodes, caller, target = _node_ids(c[pick], t[pick])
    rounds, outcome = r[pick], o[pick]
    start_id = -1
    if start is not None and 0 <= start <= highest:
        found_at = int(np.searchsorted(nodes, start))
        if found_at < len(nodes) and nodes[found_at] == start:
            start_id = found_at

    # Where and in which round a call first found each node crashed.
    crashed_at = np.full(len(nodes), m, dtype=position)
    crashed_round = np.zeros(len(nodes), dtype=np.int64)
    crash_calls = np.flatnonzero(outcome == CRASHED_TARGET)
    hit, first = np.unique(target[crash_calls], return_index=True)
    crashed_at[hit] = at[crash_calls[first]]
    crashed_round[hit] = rounds[crash_calls[first]]

    # A node is informed by the first informing call to it that does not
    # come after a call that found it crashed in that round or earlier;
    # the start is informed before the first call, at round 0.
    informing = (outcome == INFORMED) & (target != start_id)
    informing &= (at < crashed_at[target]) | (rounds < crashed_round[target])
    informing = np.flatnonzero(informing)
    hit, first = np.unique(target[informing], return_index=True)
    informed_at = np.full(len(nodes), m, dtype=position)
    informed_round = np.full(len(nodes), _INT64_MAX)
    informed_at[hit] = at[informing[first]]
    informed_round[hit] = rounds[informing[first]]
    if start_id >= 0:
        informed_at[start_id], informed_round[start_id] = -1, 0

    def call(i) -> dict:
        return {**record(at[i]), "informed": informed_round[caller[i]]}

    def flag_calls(template, mask, slot) -> None:
        index = np.flatnonzero(mask)
        found.add(template, call, index, at[index], slot)

    caller_known = informed_at[caller] < at
    flag_calls("{where}: caller {caller} was never informed", ~caller_known, 2)
    flag_calls("{where}: caller {caller} acts in the round it was informed "
               "(informed at {informed})", caller_known & (informed_round[caller] >= rounds), 2)
    flag_calls("{where}: caller {caller} calls at round {round} but was seen crashed",
               (crashed_at[caller] < at) & (crashed_round[caller] <= rounds), 3)
    crash_round = None
    if crash_schedule is not None:
        crash_round = _crash_rounds(crash_schedule, nodes, highest)
        flag_calls("{where}: caller {caller} calls at or after its crash round",
                   crash_round[caller] <= rounds, 4)
    by_caller = np.argsort(caller, kind="stable")
    twice = np.zeros(q, dtype=bool)
    twice[by_caller[1:]] = (caller[by_caller[1:]] == caller[by_caller[:-1]]) & (
        rounds[by_caller[1:]] == rounds[by_caller[:-1]]
    )
    flag_calls("{where}: caller {caller} calls twice in one round", twice, 5)

    # Outcomes against the replayed informed set.
    target_known = informed_at[target] < at
    informs = outcome == INFORMED
    encounters = outcome == ALREADY_INFORMED
    crashes = outcome == CRASHED_TARGET
    flag_calls("{where}: target {target} informed a second time", informs & target_known, 6)
    flag_calls("{where}: crashed target {target} reported informed",
               informs & (informed_at[target] > at), 6)
    flag_calls("{where}: already-informed outcome but target {target} is not",
               encounters & ~target_known, 6)
    if no_crashes:
        flag_calls("{where}: crashed-target outcome in a no-crash run", crashes, 6)
    if crash_round is not None:
        due = crash_round[target] <= rounds
        flag_calls("{where}: target {target} informed at or after its crash round",
                   informs & due, 7)
        flag_calls("{where}: crashed target {target} reported already-informed",
                   encounters & due, 7)
        flag_calls("{where}: target {target} reported crashed before its crash round",
                   crashes & ~due, 7)

    # Doubling: each run of equal rounds in trace order informs at most as
    # many nodes as were informed before it.
    runs = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    informed_calls = np.sort(informed_at[(informed_at >= 0) & (informed_at < m)])
    per_run = np.diff(np.searchsorted(informed_calls, np.append(runs, m)))
    before = int(start is not None) + np.cumsum(per_run) - per_run
    over = np.flatnonzero(per_run > before)
    found.add(
        "round {round}: {informs} nodes informed by {before} previously informed nodes",
        lambda j: {"round": r[runs[j]], "informs": per_run[j], "before": before[j]},
        over, np.append(runs[1:], m)[over] - 1, 8,
    )

    target_informed_round = None
    if no_crashes:
        sorted_targets = target[by_caller]
        target_informed_round = np.where(informed_at[sorted_targets] < m,
                                         informed_round[sorted_targets], _INT64_MAX)
    return found, (at[by_caller], caller[by_caller], target_informed_round)


def _crash_rounds(crash_schedule, nodes, highest) -> np.ndarray:
    """Each node's scheduled crash round; int64 max for none."""
    crash_round = np.full(len(nodes), _INT64_MAX)
    scheduled = [(node, rnd) for node, rnd in crash_schedule.items() if 0 <= node <= highest]
    if scheduled and len(nodes):
        ids, rnds = np.array(scheduled, dtype=np.int64).T
        place = np.minimum(np.searchsorted(nodes, ids), len(nodes) - 1)
        hit = nodes[place] == ids
        crash_round[place[hit]] = rnds[hit]
    return crash_round


class _CallerSegments:
    """The in-range calls sorted stably by caller: each caller's calls are
    one segment, in trace order.  ``rank`` orders the callers by their
    first call; ``index`` is a call's place in its caller's segment.

    A trace column of the sorted calls, read as the attribute of its field
    name (``calls.target``), is gathered when a rule first reads it.
    """

    def __init__(self, columns, positions, caller_ids, target_informed_round):
        self._columns, self.positions = columns, positions
        self.target_informed_round = target_informed_round
        dtype = _index_dtype(len(positions))
        opens = np.ones(len(positions), dtype=bool)
        opens[1:] = caller_ids[1:] != caller_ids[:-1]
        self.segment = np.cumsum(opens, dtype=dtype) - 1
        self.starts = np.flatnonzero(opens).astype(dtype)
        self.index = np.arange(len(positions), dtype=dtype) - self.starts[self.segment]
        rank = np.empty(len(self.starts), dtype=dtype)
        rank[np.argsort(positions[self.starts])] = np.arange(len(self.starts))
        self.rank = rank[self.segment]
        self.first = self.index == 0

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in CallRecord._fields:
            raise AttributeError(name)
        column = getattr(self._columns, name)[self.positions]
        setattr(self, name, column)
        return column

    def fields(self, i) -> dict:
        r, c, t, k, _, s = (column[self.positions[i]] for column in self._columns)
        return {"where": f"round {r} serial {s}", "caller": c, "target": t, "kind": KINDS[k].value}

    def previous(self, values: np.ndarray) -> np.ndarray:
        """Each call's value at its caller's previous call; meaningless for
        a caller's first call."""
        return np.concatenate((values[:1], values[:-1]))

    def count_before(self, mask: np.ndarray) -> np.ndarray:
        """How many earlier calls of the same caller are in ``mask``."""
        before = np.cumsum(mask) - mask
        return before - before[self.starts][self.segment]

    def is_node(self, values: np.ndarray, node) -> np.ndarray:
        if node is None or node > _INT64_MAX:
            return np.zeros(len(values), dtype=bool)
        return values == node

    def flag(self, found, template, mask, phase, slot=0, fields=None) -> None:
        index = np.flatnonzero(mask)
        found.add(template, fields or self.fields, index,
                  self.rank[index], phase, self.index[index], slot)

    def flag_callers(self, found, template, calls, phase) -> None:
        """One message for each caller with a call in ``calls``."""
        firsts = self.starts[np.unique(self.segment[calls])]
        found.add(template, self.fields, firsts, self.rank[firsts], phase, 0, 0)


def _check_kinds(found, calls, kind, walker) -> None:
    calls.flag(found, "{where}: " + walker + " caller places a {kind} call", calls.kind != kind, 0)


def _check_push(found, calls, n, start, spec) -> None:
    _check_kinds(found, calls, RANDOM, "fully-random")


def _successor(targets: np.ndarray, n: int) -> np.ndarray:
    following = targets + 1
    if n <= _INT64_MAX:
        following[following == n] = 0
    return following


def _check_walk(found, calls, steps, n) -> None:
    # Each step's call goes to the next node after its caller's previous target.
    came_from = calls.previous(calls.target)
    expected = _successor(came_from, n)
    calls.flag(
        found, "{where}: caller {caller} walks to {target}, expected {expected} after {previous}",
        steps & (calls.target != expected), 1,
        fields=lambda i: {**calls.fields(i), "expected": expected[i], "previous": came_from[i]},
    )


def _check_hybrid(found, calls, n, start, spec) -> None:
    # The start walks initial-successor calls until its first encounter;
    # everyone else opens with a random call; informing switches the caller
    # to a sequential walk from the target's successor; an encounter forces
    # a random restart; a crashed target is walked past.  A caller stops for
    # good after its budget of encounters; the start gets one more.
    kind, outcome, first = calls.kind, calls.outcome, calls.first
    budget = spec.stop_budget
    is_start = calls.is_node(calls.caller, start)
    encounters = calls.count_before(outcome == ALREADY_INFORMED)
    stopped = encounters >= budget + is_start
    calls.flag(found, "{where}: caller {caller} calls after stopping", stopped, 0, 0)
    calls.flag(found, "{where}: caller {caller} exceeds its encounter budget",
               stopped & (outcome == ALREADY_INFORMED), 0, 1)
    if is_start.any():
        opening = (kind != INITIAL_SUCCESSOR) | (calls.target != (start + 1) % n)
        calls.flag(found, "{where}: starting node must open at its successor with an "
                   "initial-successor call", first & is_start & opening, 0, 2)
    calls.flag(found, "{where}: first call of node {caller} must be random",
               first & ~is_start & (kind != RANDOM), 0, 2)
    came_after = calls.previous(outcome)
    expected = np.select(
        [is_start & (encounters == 0), came_after == INFORMED, came_after == ALREADY_INFORMED],
        [INITIAL_SUCCESSOR, SEQUENTIAL, RANDOM],
        calls.previous(kind),
    )
    calls.flag(
        found, "{where}: caller {caller} places a {kind} call, expected {expected}",
        ~first & (kind != expected), 0, 2,
        fields=lambda i: {**calls.fields(i), "expected": KINDS[expected[i]].value},
    )
    # A walk call after an inform or a crashed target steps on.
    steps = ~first & (kind != RANDOM) & (came_after != ALREADY_INFORMED)
    _check_walk(found, calls, steps, n)


def _check_identical(found, calls, n, start, spec) -> None:
    # Every caller walks the shared cyclic order.  Without crashes, a caller
    # that meets a node informed in an earlier round, other than the start,
    # walks an informed stretch from then on and never informs again.
    _check_kinds(found, calls, SEQUENTIAL, "list-walking")
    _check_walk(found, calls, ~calls.first, n)
    if calls.target_informed_round is None:
        return
    met = (
        (calls.outcome == ALREADY_INFORMED)
        & ~calls.is_node(calls.target, start)
        & (calls.target_informed_round < calls.round)
    )
    calls.flag(found, "{where}: identical-lists caller {caller} informs after an encounter "
               "with a previously informed node",
               (calls.outcome == INFORMED) & (calls.count_before(met) > 0), 2)


def _check_independent(found, calls, n, start, spec) -> None:
    # Each caller walks its own cyclic permutation: the first n targets are
    # distinct, and from then on the sequence repeats with period n.
    _check_kinds(found, calls, SEQUENTIAL, "list-walking")
    lap = min(n, _INT64_MAX)
    first_lap = np.flatnonzero(calls.index < lap)
    order = first_lap[np.lexsort((calls.target[first_lap], calls.segment[first_lap]))]
    repeats = order[1:][
        (calls.segment[order[1:]] == calls.segment[order[:-1]])
        & (calls.target[order[1:]] == calls.target[order[:-1]])
    ]
    calls.flag_callers(found, "caller {caller}: repeats a list target before wrapping",
                       repeats, 1)
    later = np.flatnonzero(calls.index >= lap)
    calls.flag_callers(found, "caller {caller}: list does not repeat cyclically",
                       later[calls.target[later] != calls.target[later - lap]], 2)


# Each protocol's per-caller checks, by name; of the spec they read only
# the stop budget.
_CALLER_RULES = {
    "hybrid": _check_hybrid,
    "quasirandom-identical": _check_identical,
    "quasirandom-independent": _check_independent,
    "push": _check_push,
}


def verify_summary_against_trace(
    summary: TraceSummary, records: Sequence[CallRecord], *, n: int | None = None
) -> list[str]:
    """Cross-check a summary document against its call trace, and its
    ``n`` against ``n`` when given."""
    columns = CallRecord.columns_of(records)
    violations = []
    if n is not None and summary.n != n:
        violations.append(f"summary n {summary.n} != n={n}")
    if summary.total_calls != len(columns.round):
        violations.append(
            f"total_calls {summary.total_calls} != {len(columns.round)} trace records"
        )
    by_outcome = np.bincount(columns.outcome, minlength=len(OUTCOMES)).tolist()
    pairs = (
        ("informing_calls", summary.informing_calls, INFORMED),
        ("encounter_calls", summary.encounter_calls, ALREADY_INFORMED),
        ("crashed_target_calls", summary.crashed_target_calls, CRASHED_TARGET),
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
    elif not prof:
        violations.append("per_round_informed is empty; it starts at round 0")
    else:
        informing = columns.round[columns.outcome == INFORMED]
        informing = informing[(informing >= 1) & (informing < len(prof))]
        informs_per_round = np.bincount(informing, minlength=len(prof)).tolist()
        if prof[0] != 1:
            violations.append(f"per_round_informed[0] = {prof[0]}, expected 1")
        # From round n.bit_length() on, 2**t exceeds n, so n is the cap.
        n_caps_from = summary.n.bit_length()
        for t in range(1, len(prof)):
            grew = prof[t] - prof[t - 1]
            if grew < 0:
                violations.append(f"informed count shrinks at round {t}")
            if grew != informs_per_round[t]:
                violations.append(
                    f"round {t}: informed count grows by {grew} but the trace "
                    f"has {informs_per_round[t]} informing calls"
                )
            if prof[t] > (summary.n if t >= n_caps_from else min(summary.n, 2**t)):
                violations.append(
                    f"round {t}: informed count {prof[t]} above the doubling cap"
                )
    if len(columns.round):
        last_round = int(columns.round[-1])
        if summary.rounds_executed < last_round:
            violations.append(
                f"rounds_executed {summary.rounds_executed} below last trace "
                f"round {last_round}"
            )
        top = int(max(columns.caller.max(), columns.target.max()))
        if top >= summary.n:
            violations.append(f"node id {top} in trace is not below n={summary.n}")
    return violations
