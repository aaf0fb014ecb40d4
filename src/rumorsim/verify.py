"""Replay stored call traces and re-check the engine's invariants.

The checks only use information that is actually in a trace.  One
protocol-independent replay checks (round, serial) order, node ids, caller
eligibility (informed earlier, one call per round, not after a crash),
outcomes against the replayed informed set, the crash schedule and
per-round doubling, and groups the calls by caller.  Given a spec, that
protocol's rules (``_CALLER_RULES``, by the spec's ``name``) then check
each caller's calls: kinds, walk chaining, the hybrid encounter budget and
the list order.  With ``no_crashes=True`` any crashed-target outcome is a
violation and the identical-lists uselessness property is checked too.
The verifier shares no rules with the simulation kernel.

The replay is columnar: it reads a ``CallLog``'s int32 or int64 ``columns``
in place (any other sequence of ``CallRecord``s is converted first) and
builds no Python object per call.  What the trace says about each node up
to any call is held in per-node arrays: where and in which round a call
first found the node crashed, and which call informed it.  They are indexed by
the node ids themselves when the largest in-range id is below the number
of call endpoints, and by compacted ids otherwise, so memory follows the
trace's length, not ``n``.  Ids and trace positions are int32 where they
fit.  Each check is then a mask over the calls, and each node's first call
of a kind is found by a scatter-min of call indices, not by a sort.  The
calls are grouped by caller, in trace order within each caller, by one
in-place sort of a unique key; the protocol rules run, once the replay's
arrays are released, over those groups, as shifts and cumulative sums
within each caller's segment, on int32 ids and counts and int8 codes.
Only the first ``max_violations`` messages, in the documented order, are
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
        return np.arange(size), callers.astype(dtype, copy=False), targets.astype(dtype, copy=False)
    nodes, ids = np.unique(np.concatenate((callers, targets)), return_inverse=True)
    ids = ids.astype(_index_dtype(len(nodes)))
    return nodes, ids[: len(callers)], ids[len(callers) :]


def _group_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` of non-negative ids, in the
    narrowest index dtype.

    One unstable in-place sort of a unique key, each id times ``len(ids)``
    plus its position (added in 64 blocks), several times faster than
    numpy's stable sort; the sorted key modulo ``len(ids)`` is the order.
    The key is at most (largest id + 1) * len(ids) - 1; node ids are below
    twice the number of calls (``_node_ids``), so it fits int64 for any
    trace of fewer than 2^31 calls.  A key that would not fit takes the
    stable sort.
    """
    size = len(ids)
    if (int(ids.max(initial=0)) + 1) * size > 2**63:
        return np.argsort(ids, kind="stable").astype(_index_dtype(size))
    key = np.multiply(ids, size, dtype=np.int64)
    step = 1 + size // 64
    positions = np.arange(step)
    for begin in range(0, size, step):
        key[begin : begin + step] += positions[: size - begin]
        positions += step
    key.sort()
    order = np.empty(size, dtype=_index_dtype(size))
    np.remainder(key, size, out=order, casting="unsafe")
    return order


def _first_calls(ids: np.ndarray, size: int):
    """``np.unique(ids, return_index=True)`` for ids in ``[0, size)``: the
    ids present, and each one's first index, by a scatter-min of the
    indices into a per-id array rather than a sort."""
    dtype = _index_dtype(len(ids))
    first = np.full(size, len(ids), dtype=dtype)
    np.minimum.at(first, ids, np.arange(len(ids), dtype=dtype))
    hit = np.flatnonzero(first < len(ids))
    return hit, first[hit]


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
    del same_round, back

    highest = min(n - 1, _INT64_MAX)
    inside = (c >= 0) & (c <= highest) & (t >= 0) & (t <= highest)
    flag_records("{where}: node id out of range (caller {caller}, target {target})",
                 np.flatnonzero(~inside), 1)

    # The in-range calls, by their index i; the rest of the replay skips
    # out-of-range calls, as if they were not in the trace.  A position in
    # the trace, or m for none, fits in ``position``.
    position = _index_dtype(m)
    at = np.arange(m, dtype=position) if inside.all() else np.flatnonzero(inside).astype(position)
    del inside
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
    hit, first = _first_calls(target[crash_calls], len(nodes))
    crashed_at[hit] = at[crash_calls[first]]
    crashed_round[hit] = rounds[crash_calls[first]]

    # A node is informed by the first informing call to it that does not
    # come after a call that found it crashed in that round or earlier;
    # the start is informed before the first call, at round 0.
    informing = np.flatnonzero((outcome == INFORMED) & (target != start_id))
    informed = target[informing]
    informing = informing[(at[informing] < crashed_at[informed])
                          | (rounds[informing] < crashed_round[informed])]
    hit, first = _first_calls(target[informing], len(nodes))
    informed_at = np.full(len(nodes), m, dtype=position)
    informed_round = np.full(len(nodes), _INT64_MAX)
    informed_at[hit] = at[informing[first]]
    informed_round[hit] = rounds[informing[first]]
    if start_id >= 0:
        informed_at[start_id], informed_round[start_id] = -1, 0
    del informing, informed, hit, first

    def call(i) -> dict:
        return {**record(at[i]), "informed": informed_round[caller[i]]}

    def flag_calls(template, mask, slot) -> None:
        index = np.flatnonzero(mask)
        found.add(template, call, index, at[index], slot)

    caller_known = informed_at[caller] < at
    flag_calls("{where}: caller {caller} was never informed", ~caller_known, 2)
    flag_calls("{where}: caller {caller} acts in the round it was informed "
               "(informed at {informed})", caller_known & (informed_round[caller] >= rounds), 2)
    del caller_known
    if len(crash_calls):  # otherwise no call found a node crashed
        flag_calls("{where}: caller {caller} calls at round {round} but was seen crashed",
                   (crashed_at[caller] < at) & (crashed_round[caller] <= rounds), 3)
    crash_round = None
    if crash_schedule is not None:
        crash_round = _crash_rounds(crash_schedule, nodes, highest)
        flag_calls("{where}: caller {caller} calls at or after its crash round",
                   crash_round[caller] <= rounds, 4)

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
    del target_known, informs, encounters, crashes

    # The calls grouped by caller, and a caller's calls in one round.
    by_caller = _group_order(caller)
    positions, grouped_targets = at[by_caller], target[by_caller]
    del target
    callers = caller[by_caller]
    del by_caller
    opens = np.ones(q, dtype=bool)
    opens[1:] = callers[1:] != callers[:-1]
    # Bounds of the callers' dtype: wider ones would compare a widened copy.
    bounds = np.array([start_id, start_id + 1], dtype=callers.dtype)
    start_calls = slice(*np.searchsorted(callers, bounds).tolist())
    del callers
    grouped_rounds = r[positions]
    same_round = grouped_rounds[1:] == grouped_rounds[:-1]
    del grouped_rounds
    # The in-range index of each such call is its position's place in ``at``.
    twice = np.searchsorted(at, positions[1 + np.flatnonzero(~opens[1:] & same_round)])
    found.add("{where}: caller {caller} calls twice in one round", call, twice, at[twice], 5)

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

    dense = not len(nodes) or nodes[-1] == len(nodes) - 1  # each id is its node
    return found, (positions, opens, grouped_targets, None if dense else nodes, start_calls,
                   informed_round if no_crashes else None)


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
    """The in-range calls grouped by caller: each caller's calls are one
    segment, in trace order, and ``first`` marks each segment's first call.
    ``target`` holds the calls' target ids, ``values`` turns ids into their
    nodes, ``start_calls`` slices out the start's calls, and
    ``informed_round``, given only for a no-crash run, is each node id's
    informed round.  Messages come caller by caller in the order of the
    callers' first calls.

    The int8 ``kind`` and ``outcome`` columns of the grouped calls are
    gathered when a rule first reads them; ``column`` gathers any other.
    """

    def __init__(self, columns, positions, first, target, nodes, start_calls, informed_round):
        self._columns, self.positions, self.first, self.target = columns, positions, first, target
        self._nodes, self.start_calls, self.informed_round = nodes, start_calls, informed_round
        dtype = positions.dtype
        self.segment = np.cumsum(first, dtype=dtype)
        self.segment -= 1
        self.starts = np.flatnonzero(first).astype(dtype)
        self._rank = np.empty(len(self.starts), dtype=dtype)
        self._rank[np.argsort(positions[self.starts])] = np.arange(len(self.starts))

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in ("kind", "outcome"):
            raise AttributeError(name)
        column = self.column(name)
        setattr(self, name, column)
        return column

    def column(self, name: str) -> np.ndarray:
        return getattr(self._columns, name)[self.positions]

    def values(self, ids: np.ndarray) -> np.ndarray:
        return ids if self._nodes is None else self._nodes[ids]

    def fields(self, i) -> dict:
        r, c, t, k, _, s = (column[self.positions[i]] for column in self._columns)
        return {"where": f"round {r} serial {s}", "caller": c, "target": t, "kind": KINDS[k].value}

    def previous(self, values: np.ndarray) -> np.ndarray:
        """Each call's value at its caller's previous call; meaningless for
        a caller's first call."""
        return np.concatenate((values[:1], values[:-1]))

    def count_before(self, mask: np.ndarray) -> np.ndarray:
        """How many earlier calls of the same caller are in ``mask``."""
        before = np.cumsum(mask, dtype=self.segment.dtype)
        before -= mask
        before -= before[self.starts][self.segment]
        return before

    def is_node(self, values: np.ndarray, node) -> np.ndarray:
        if node is None or node > _INT64_MAX:
            return np.zeros(len(values), dtype=bool)
        return values == node

    def flag(self, found, template, mask, phase, slot=0, fields=None) -> None:
        index = np.flatnonzero(mask)
        segment = self.segment[index]
        found.add(template, fields or self.fields, index,
                  self._rank[segment], phase, index - self.starts[segment], slot)

    def flag_callers(self, found, template, segments, phase) -> None:
        """One message for each caller with a segment in ``segments``."""
        flagged = np.zeros(len(self.starts), dtype=bool)
        flagged[segments] = True
        segments = np.flatnonzero(flagged)
        found.add(template, self.fields, self.starts[segments], self._rank[segments], phase, 0, 0)


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
    targets = calls.values(calls.target)
    came_from = calls.previous(targets)
    expected = _successor(came_from, n)
    calls.flag(
        found, "{where}: caller {caller} walks to {target}, expected {expected} after {previous}",
        steps & (targets != expected), 1,
        fields=lambda i: {**calls.fields(i), "expected": expected[i], "previous": came_from[i]},
    )


def _check_hybrid(found, calls, n, start, spec) -> None:
    # The start walks initial-successor calls until its first encounter;
    # everyone else opens with a random call; informing switches the caller
    # to a sequential walk from the target's successor; an encounter forces
    # a random restart; a crashed target is walked past.  A caller stops for
    # good after its budget of encounters; the start gets one more.
    kind, outcome, first = calls.kind, calls.outcome, calls.first
    is_start = np.zeros(len(calls.positions), dtype=bool)
    is_start[calls.start_calls] = True
    encounters = calls.count_before(outcome == ALREADY_INFORMED)
    stopped = encounters - is_start >= spec.stop_budget
    calls.flag(found, "{where}: caller {caller} calls after stopping", stopped, 0, 0)
    calls.flag(found, "{where}: caller {caller} exceeds its encounter budget",
               stopped & (outcome == ALREADY_INFORMED), 0, 1)
    del stopped
    if is_start.any():
        opening = (kind != INITIAL_SUCCESSOR) | (calls.values(calls.target) != (start + 1) % n)
        calls.flag(found, "{where}: starting node must open at its successor with an "
                   "initial-successor call", first & is_start & opening, 0, 2)
        del opening
    calls.flag(found, "{where}: first call of node {caller} must be random",
               first & ~is_start & (kind != RANDOM), 0, 2)
    # The kind each call must have after its caller's previous call.
    came_after = calls.previous(outcome)
    expected = calls.previous(kind)
    expected[came_after == ALREADY_INFORMED] = RANDOM
    expected[came_after == INFORMED] = SEQUENTIAL
    expected[is_start & (encounters == 0)] = INITIAL_SUCCESSOR
    del is_start, encounters
    calls.flag(
        found, "{where}: caller {caller} places a {kind} call, expected {expected}",
        ~first & (kind != expected), 0, 2,
        fields=lambda i: {**calls.fields(i), "expected": KINDS[expected[i]].value},
    )
    # A walk call after an inform or a crashed target steps on.
    steps = ~first & (kind != RANDOM) & (came_after != ALREADY_INFORMED)
    # Free what the walk check does not read: it would sit beneath its peak.
    del kind, outcome, came_after, calls.kind, calls.outcome
    _check_walk(found, calls, steps, n)


def _check_identical(found, calls, n, start, spec) -> None:
    # Every caller walks the shared cyclic order.  Without crashes, a caller
    # that meets a node informed in an earlier round, other than the start,
    # walks an informed stretch from then on and never informs again.
    _check_kinds(found, calls, SEQUENTIAL, "list-walking")
    if calls.informed_round is not None:
        met = (calls.informed_round[calls.target] < calls.column("round"))
        met &= calls.outcome == ALREADY_INFORMED
        met &= ~calls.is_node(calls.values(calls.target), start)
        calls.flag(found, "{where}: identical-lists caller {caller} informs after an "
                   "encounter with a previously informed node",
                   (calls.outcome == INFORMED) & (calls.count_before(met) > 0), 2)
    _check_walk(found, calls, ~calls.first, n)


def _check_independent(found, calls, n, start, spec) -> None:
    # Each caller walks its own cyclic permutation: the first n targets are
    # distinct, and from then on the sequence repeats with period n.
    _check_kinds(found, calls, SEQUENTIAL, "list-walking")
    lap = min(n, _INT64_MAX)
    index = np.arange(len(calls.positions), dtype=calls.segment.dtype)
    index -= calls.starts[calls.segment]  # each call's place in its segment
    later, in_lap = np.flatnonzero(index >= lap), index < lap
    del index
    # The first lap's calls by target, each target's calls in caller
    # order: a caller's repeated target is two neighbours.
    targets, segments = calls.target[in_lap], calls.segment[in_lap]
    order = _group_order(targets)
    targets, segments = targets[order], segments[order]
    repeats = (segments[1:] == segments[:-1]) & (targets[1:] == targets[:-1])
    calls.flag_callers(found, "caller {caller}: repeats a list target before wrapping",
                       segments[1:][repeats], 1)
    calls.flag_callers(found, "caller {caller}: list does not repeat cyclically",
                       calls.segment[later[calls.target[later] != calls.target[later - lap]]], 2)


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
