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

One engine reads the trace's columns (a ``CallLog``'s, read in place, or
any other sequence of ``CallRecord``s converted) in trace order,
``_BLOCK_CALLS`` calls at a time, and builds no Python object per call.  What the trace
has said about each node so far lives in per-node arrays carried across
blocks: which calls first found it crashed and informed it, and, as a
caller, its calls so far, its last call's round and its first call's
position; the rules add what they read of a caller's last call.  The
arrays are indexed by the node ids where ``n`` is at most twice the number
of calls, else by compacted ids, so memory follows the trace's length, not
``n``; ids and positions are int32 where they fit.  In a block each check
is a mask over the calls, first calls are found by a scatter-min of
positions, and only a block where a caller calls twice is grouped by
caller, with a block-local stable sort.  Every other temporary is
block-sized; independent lists alone keep their first lap's (caller,
target) pairs for one sort at the end.  Messages keep one order whatever
the block size: the replay's keyed by (position, check), the rules' by
(the caller's first call, phase, the call's index among the caller's
calls, check); only the first ``max_violations`` by key are formatted.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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

# Calls per block: beyond the per-node arrays, the verifier's temporaries
# are block-sized.  No report depends on it.
_BLOCK_CALLS = 2**13

DOUBLING = "round {round}: {informs} nodes informed by {before} previously informed nodes"
USELESS = ("{where}: identical-lists caller {caller} informs after an encounter with a "
           "previously informed node")


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
    """The first ``limit`` violations by key.

    Each batch is a message template, a function giving the template's
    fields for one argument, the arguments, and each message's sort key
    (one array or constant per key level).  Only a batch's first ``limit``
    messages by key are formatted, and only the first ``limit`` of all kept.
    """

    def __init__(self, limit: int):
        self.limit, self.found = limit, []

    def __len__(self) -> int:
        return len(self.found)

    def add(self, template, fields, args, *keys) -> None:
        if len(args):
            keys = [np.broadcast_to(key, len(args)) for key in keys]
            picked = np.lexsort(keys[::-1])[: self.limit]
            keys = zip(*(key[picked].tolist() for key in keys))
            self.found += [(key, template.format(**fields(args[i])))
                           for key, i in zip(keys, picked.tolist())]
            if len(self.found) > 2 * self.limit:
                self.found = sorted(self.found, key=itemgetter(0))[: self.limit]

    def first(self) -> list[str]:
        return [message for _, message in sorted(self.found, key=itemgetter(0))[: self.limit]]


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
    below 1, ``start`` is not in ``[0, n)`` or a crash round exceeds int64.
    """
    columns = CallRecord.columns_of(records)
    m = len(columns.round)
    if n is None and m:
        n = 1 + int(max(columns.caller.max(), columns.target.max()))
    elif n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if start is not None and n is not None and not 0 <= start < n:
        raise ValueError(f"start {start} out of range for n={n}")
    for crash_round in (crash_schedule or {}).values():
        if not -_INT64_MAX - 1 <= crash_round <= _INT64_MAX:
            raise ValueError(f"crash round {crash_round} does not fit int64")
    if not m:
        return VerificationReport(0, n, start, ())
    if start is None and columns.round[0] == 1:
        start = int(columns.caller[0])
    if max_violations <= 0:
        return VerificationReport(m, n, start, ())

    replay = _Replay(columns, n, start, crash_schedule, no_crashes, spec is not None)
    found, rules_found = _Found(max_violations), _Found(max_violations)
    rules = None if spec is None else _CALLER_RULES[spec.name](replay, spec, no_crashes)
    for block in _blocks(columns):
        calls = replay.block(found, block)
        if len(found) >= max_violations:
            # Every later message is keyed after these: the report is full.
            rules = None
            break
        if rules is not None:
            rules.block(rules_found, calls)
        del calls  # before the next block's
    replay.close_runs(found, [replay.run_round], [replay.run_informs], [m - 1])
    violations = found.first()
    if rules is not None and len(violations) < max_violations:
        rules.finish(rules_found)
        violations += rules_found.first()[: max_violations - len(violations)]
    return VerificationReport(m, n, start, tuple(violations))


def _blocks(columns: CallRecord):
    """The columns, ``_BLOCK_CALLS`` calls at a time."""
    for begin in range(0, len(columns.round), _BLOCK_CALLS):
        yield CallRecord._make(column[begin : begin + _BLOCK_CALLS] for column in columns)


def _index_dtype(size: int):
    """The narrowest of int32 and int64 that holds every integer in
    ``[-1, size]``."""
    return np.int32 if size < 2**31 else np.int64


def _after(first: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` moved one place on, behind the one-entry ``first``."""
    return np.concatenate((first, values[:-1]))


def _claim(at, rounds, ids, positions, values, none) -> np.ndarray:
    """Give each node of ``ids`` whose ``at`` is still ``none`` the position
    and round of its first call here, by a scatter-min of the ascending
    ``positions``; returns the positions so given."""
    fresh = np.flatnonzero(at[ids] == none)
    ids, positions = ids[fresh], positions[fresh]
    np.minimum.at(at, ids, positions)
    won = np.flatnonzero(at[ids] == positions)
    rounds[ids[won]] = values[fresh[won]]
    return positions[won]


class _Replay:
    """The protocol-independent checks, a block at a time, and the per-node
    state they carry across blocks: the call that informed each node in
    ``informed_at`` and ``informed_round`` (the start: position -1, round 0;
    none: position ``m``), the first that found it crashed in
    ``crashed_at`` and ``crashed_round``, and as a caller its ``count`` of
    calls, ``last_round`` and, with rules to run, ``first_at`` position.
    The open run of equal rounds is ``run_round``, with ``run_informs``
    informs so far and ``informed_before`` nodes informed before it.
    """

    def __init__(self, columns, n, start, crash_schedule, no_crashes, ranked):
        _, c, t, *_ = columns
        m, round_dtype = len(c), columns.round.dtype
        self.n, self.start, self.m, self.no_crashes = n, start, m, no_crashes
        self.highest = highest = min(n - 1, _INT64_MAX)
        self.every_call_inside = min(c.min(), t.min()) >= 0 and max(c.max(), t.max()) <= highest
        self.position = _index_dtype(m)
        self.nodes = None  # each id is its node
        size = highest + 1
        if size > 2 * m:
            self.nodes = np.unique(np.concatenate(
                [np.unique(np.concatenate(self._inside(b)[1:])) for b in _blocks(columns)]))
            size = len(self.nodes)
        self.id_dtype = _index_dtype(size)
        self.start_id = -1
        if start is not None and 0 <= start <= highest:
            found_at = start if self.nodes is None else int(np.searchsorted(self.nodes, start))
            if found_at < size and self.node(found_at) == start:
                self.start_id = found_at
        self.informed_at = np.full(size, m, dtype=self.position)
        self.informed_round = np.full(size, np.iinfo(round_dtype).max, dtype=round_dtype)
        if self.start_id >= 0:
            self.informed_at[self.start_id], self.informed_round[self.start_id] = -1, 0
        self.crashed_at = self.crashed_round = self.crash_round = None
        if crash_schedule is not None:  # each node's scheduled crash round, int64 max for none
            self.crash_round = np.full(size, _INT64_MAX)
            scheduled = np.array([(node, rnd) for node, rnd in crash_schedule.items()
                                  if 0 <= node <= highest], dtype=np.int64).reshape(-1, 2)
            if len(scheduled) and size:
                ids = np.minimum(self.ids(scheduled[:, 0]), size - 1)
                hit = self.node(ids) == scheduled[:, 0]
                self.crash_round[ids[hit]] = scheduled[hit, 1]
        self.count = np.zeros(size, dtype=self.position)
        self.last_round = np.empty(size, dtype=round_dtype)
        self.first_at = np.full(size, m, dtype=self.position) if ranked else None
        self.begin, self.previous = 0, None
        self.run_round, self.run_informs = columns.round[0], 0
        self.informed_before = int(start is not None)

    def node(self, ids):
        return ids if self.nodes is None else self.nodes[ids]

    def ids(self, values: np.ndarray) -> np.ndarray:
        """The ids of in-range node values, as intp: indexing by int32 is
        slower."""
        if self.nodes is None:
            return values.astype(np.intp)
        return np.searchsorted(self.nodes, values)

    def _inside(self, block):
        """(the in-range calls as a slice or indices, their callers, their
        targets) of a block."""
        c, t, top = block.caller, block.target, self.highest
        if self.every_call_inside:
            return slice(None), c, t
        inside = np.flatnonzero((c >= 0) & (c <= top) & (t >= 0) & (t <= top))
        return inside, c[inside], t[inside]

    def block(self, found, block: CallRecord) -> _Callers:
        """Check the next block of calls; returns its in-range calls by caller."""
        r, c, t, k, o, s = block
        begin = self.begin
        self.begin += len(r)

        def record(i) -> dict:
            return {"where": f"round {r[i]} serial {s[i]}", "round": r[i],
                    "caller": c[i], "target": t[i]}

        # The replay's messages come in key order: each batch keeps its first.
        def flag_records(template, rows, slot) -> None:
            rows = rows[: found.limit]
            found.add(template, record, rows, begin + rows, slot)

        # Order: each call against the one before it.
        previous = self.previous or (r[:1], s[:1])
        self.previous = r[-1:].copy(), s[-1:].copy()
        before_r, before_s = _after(previous[0], r), _after(previous[1], s)
        same_round = r == before_r
        back = (r < before_r) | (same_round & (s <= before_s))
        gap = ~back & same_round & (s != before_s + 1)
        if not begin:  # the first call has none before it
            back[0] = gap[0] = False
            if r[0] != 1:
                found.add("first recorded round is {round}, expected 1", record, [0], -1, 0)
            if s[0] != 0:
                flag_records("{where}: first record of a round must be serial 0",
                             np.zeros(1, int), 0)
        flag_records("{where}: records out of (round, serial) order", np.flatnonzero(back), 0)
        flag_records("{where}: serial positions not contiguous", np.flatnonzero(gap), 0)
        flag_records("{where}: round does not begin at serial 0",
                     np.flatnonzero(~back & ~same_round & (s != 0)), 0)
        del same_round, back, gap, before_r, before_s

        # The rest of the replay skips out-of-range calls, as if they were
        # not in the trace.
        rows, *ends = self._inside(block)
        if not self.every_call_inside:
            outside = np.ones(len(r), dtype=bool)
            outside[rows] = False
            flag_records("{where}: node id out of range (caller {caller}, target {target})",
                         np.flatnonzero(outside), 1)
            r, k, o, s = r[rows], k[rows], o[rows], s[rows]
        c, t = ends
        positions = np.arange(begin, self.begin, dtype=self.position)[rows]
        caller, target = self.ids(c), self.ids(t)
        informed_at, informed_round = self.informed_at, self.informed_round

        # A node is informed by the first informing call to it that does not
        # come after a call that found it crashed in that round or earlier.
        crashes = np.flatnonzero(o == CRASHED_TARGET)
        if len(crashes) and self.crashed_at is None:
            self.crashed_at = np.full(len(informed_at), self.m, dtype=self.position)
            self.crashed_round = np.zeros_like(informed_round)
        if len(crashes):
            _claim(self.crashed_at, self.crashed_round, target[crashes], positions[crashes],
                   r[crashes], self.m)
        informing = np.flatnonzero((o == INFORMED) & (target != self.start_id))
        if self.crashed_at is not None:
            informed = target[informing]
            informing = informing[(positions[informing] < self.crashed_at[informed])
                                  | (r[informing] < self.crashed_round[informed])]
        informs = _claim(informed_at, informed_round, target[informing], positions[informing],
                         r[informing], self.m)
        del crashes, informing

        def call(i) -> dict:
            return {"where": f"round {r[i]} serial {s[i]}", "round": r[i], "caller": c[i],
                    "target": t[i], "informed": informed_round[caller[i]]}

        def flag_calls(template, mask, slot, index=None) -> None:
            index = (np.flatnonzero(mask) if index is None else index)[: found.limit]
            found.add(template, call, index, positions[index], slot)

        caller_known = informed_at[caller] < positions
        flag_calls("{where}: caller {caller} was never informed", ~caller_known, 2)
        flag_calls("{where}: caller {caller} acts in the round it was informed "
                   "(informed at {informed})", caller_known & (informed_round[caller] >= r), 2)
        del caller_known
        if self.crashed_at is not None:
            flag_calls("{where}: caller {caller} calls at round {round} but was seen crashed",
                       (self.crashed_at[caller] < positions) & (self.crashed_round[caller] <= r),
                       3)
        if self.crash_round is not None:
            flag_calls("{where}: caller {caller} calls at or after its crash round",
                       self.crash_round[caller] <= r, 4)
        calls = _Callers(self, caller, positions, CallRecord(r, c, t, k, o, s), target)
        rounds = calls.take(r)
        twice = calls.take(np.arange(len(r)))[
            (calls.index > 0) & (rounds == calls.previous(rounds, self.last_round))]
        flag_calls("{where}: caller {caller} calls twice in one round", None, 5, np.sort(twice))
        calls.carry(self.last_round, rounds)
        del rounds, twice

        # Outcomes against the replayed informed set.
        target_known = informed_at[target] < positions
        informed, encounters, crashed = o == INFORMED, o == ALREADY_INFORMED, o == CRASHED_TARGET
        flag_calls("{where}: target {target} informed a second time", informed & target_known, 6)
        flag_calls("{where}: crashed target {target} reported informed",
                   informed & (informed_at[target] > positions), 6)
        flag_calls("{where}: already-informed outcome but target {target} is not",
                   encounters & ~target_known, 6)
        if self.no_crashes:
            flag_calls("{where}: crashed-target outcome in a no-crash run", crashed, 6)
        if self.crash_round is not None:
            due = self.crash_round[target] <= r
            flag_calls("{where}: target {target} informed at or after its crash round",
                       informed & due, 7)
            flag_calls("{where}: crashed target {target} reported already-informed",
                       encounters & due, 7)
            flag_calls("{where}: target {target} reported crashed before its crash round",
                       crashed & ~due, 7)
        del target_known, informed, encounters, crashed

        # Doubling: the block's runs of equal rounds, the open one first,
        # and their informing calls; all but the last end in the block.
        r = block.round
        heads = np.flatnonzero(np.concatenate(([r[0] != self.run_round], r[1:] != r[:-1])))
        runs = np.diff(np.searchsorted(informs, np.concatenate(([begin], begin + heads,
                                                                [self.begin]))))
        runs[0] += self.run_informs
        run_rounds = np.concatenate(([self.run_round], r[heads]))
        self.close_runs(found, run_rounds[:-1], runs[:-1], begin + heads - 1)
        self.run_round, self.run_informs = run_rounds[-1], int(runs[-1])
        return calls

    def close_runs(self, found, rounds, runs, last) -> None:
        """Each run of equal rounds informs at most as many nodes as were
        informed before it; ``last`` is each run's last position."""
        runs = np.asarray(runs)
        before = self.informed_before + np.cumsum(runs) - runs
        over = np.flatnonzero(runs > before)
        found.add(DOUBLING, lambda j: {"round": rounds[j], "informs": runs[j],
                                       "before": before[j]}, over, np.asarray(last)[over], 8)
        self.informed_before += int(runs.sum())


class _Callers:
    """A block's in-range calls grouped by caller, in trace order within
    each caller: as they are (``order`` None) where each caller calls once
    in the block, else by a block-local stable sort, ``order``.  Per call,
    ``caller`` is its caller's id and ``index`` its place among the
    caller's calls; per caller, ``ids`` is its id and ``heads`` and ``ends``
    its first and last call.  ``take`` puts a column of ``rows`` (the
    block's in-range columns) or ``target_ids`` in grouped order.
    """

    def __init__(self, replay, caller, positions, rows, target_ids):
        self.replay, self.rows, self.target_ids = replay, rows, target_ids
        before = replay.count[caller]
        np.add.at(replay.count, caller, replay.count.dtype.type(1))
        if replay.first_at is not None:
            new = np.flatnonzero(before == 0)
            np.minimum.at(replay.first_at, caller[new], positions[new])
        self.order = None
        if np.all(replay.count[caller] - before == 1):
            self.caller = self.ids = caller
            self.index = before
            return
        # Block-sized, so int32.
        self.order = np.argsort(caller, kind="stable").astype(np.int32)
        self.caller = caller[self.order]
        opens = np.ones(len(caller), dtype=bool)
        opens[1:] = self.caller[1:] != self.caller[:-1]
        self.heads = np.flatnonzero(opens).astype(np.int32)
        self.ends = np.empty_like(self.heads)
        self.ends[:-1] = self.heads[1:] - 1
        self.ends[-1:] = len(caller) - 1
        self.group = np.cumsum(opens, dtype=np.int32)
        self.group -= 1
        self.ids = self.caller[self.heads]
        self.index = before[self.order]
        self.index += np.arange(len(caller), dtype=before.dtype)
        self.index -= self.heads[self.group]

    def take(self, column: np.ndarray) -> np.ndarray:
        return column if self.order is None else column[self.order]

    def previous(self, values: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Each grouped call's value at its caller's previous call, taken
        from ``state`` for the caller's first call in the block."""
        if self.order is None:
            return state[self.caller]
        earlier = _after(values[:1], values)
        earlier[self.heads] = state[self.ids]
        return earlier

    def carry(self, state: np.ndarray, values: np.ndarray) -> None:
        """Keep each caller's last value in ``state``."""
        state[self.ids] = values if self.order is None else values[self.ends]

    def count_before(self, mask: np.ndarray, seed: np.ndarray) -> np.ndarray:
        """How many earlier calls of the same caller are in ``mask``, plus
        ``seed`` (one per caller) for those before the block."""
        if self.order is None:
            return seed.astype(self.index.dtype)
        before = np.cumsum(mask, dtype=self.index.dtype)
        before -= mask
        before -= before[self.heads][self.group]
        before += seed[self.group]
        return before

    def fields(self, i) -> dict:
        i = i if self.order is None else self.order[i]
        r, c, t, k, _, s = (column[i] for column in self.rows)
        return {"where": f"round {r} serial {s}", "caller": c, "target": t, "kind": KINDS[k].value}

    def flag(self, found, template, mask, phase, slot=0, fields=None) -> None:
        index = np.flatnonzero(mask)
        found.add(template, fields or self.fields, index,
                  self.replay.first_at[self.caller[index]], phase, self.index[index], slot)


class _Rules:
    """One protocol's checks of each caller's calls, a block at a time; the
    base class checks every call's kind, as push places only random calls.
    ``finish`` makes the checks that need the whole trace."""

    kind, walker = RANDOM, "fully-random"

    def __init__(self, replay: _Replay, spec: ProtocolSpec, no_crashes: bool):
        self.replay, self.n, self.start = replay, replay.n, replay.start

    def block(self, found, calls) -> None:
        calls.flag(found, "{where}: " + self.walker + " caller places a {kind} call",
                   calls.take(calls.rows.kind) != self.kind, 0)

    def finish(self, found) -> None:
        pass

    def check_walk(self, found, calls, steps, target, state) -> None:
        # Each step's call goes to the next node after its caller's previous
        # target, whose id ``state`` holds from the block before.
        node = self.replay.node
        came_from, target = node(calls.previous(target, state)), node(target)
        expected = came_from + 1
        if self.n <= _INT64_MAX:
            expected[expected == self.n] = 0
        calls.flag(
            found, "{where}: caller {caller} walks to {target}, expected {expected} after "
            "{previous}", steps & (target != expected), 1,
            fields=lambda i: {**calls.fields(i), "expected": expected[i],
                              "previous": came_from[i]},
        )


class _HybridRules(_Rules):
    # The start walks initial-successor calls until its first encounter;
    # everyone else opens with a random call; informing switches the caller
    # to a sequential walk from the target's successor; an encounter forces
    # a random restart; a crashed target is walked past.  A caller stops for
    # good after its budget of encounters; the start gets one more.

    def __init__(self, replay, spec, no_crashes):
        super().__init__(replay, spec, no_crashes)
        size, self.budget = len(replay.count), spec.stop_budget
        # Each caller's last call, and its encounters so far.
        self.target = np.zeros(size, dtype=replay.id_dtype)
        self.kind, self.outcome = np.empty(size, dtype=np.int8), np.empty(size, dtype=np.int8)
        self.encounters = np.zeros(size, dtype=replay.position)

    def block(self, found, calls) -> None:
        kind, outcome = calls.take(calls.rows.kind), calls.take(calls.rows.outcome)
        first, is_start = calls.index == 0, calls.caller == self.replay.start_id
        already = outcome == ALREADY_INFORMED
        encounters = calls.count_before(already, self.encounters[calls.ids])
        stopped = encounters - is_start >= self.budget
        calls.flag(found, "{where}: caller {caller} calls after stopping", stopped, 0, 0)
        calls.flag(found, "{where}: caller {caller} exceeds its encounter budget",
                   stopped & already, 0, 1)
        del stopped
        target = calls.take(calls.target_ids)
        if is_start.any():
            opening = (kind != INITIAL_SUCCESSOR) | (
                self.replay.node(target) != (self.start + 1) % self.n)
            calls.flag(found, "{where}: starting node must open at its successor with an "
                       "initial-successor call", first & is_start & opening, 0, 2)
            del opening
        calls.flag(found, "{where}: first call of node {caller} must be random",
                   first & ~is_start & (kind != RANDOM), 0, 2)
        # The kind each call must have after its caller's previous call.
        came_after = calls.previous(outcome, self.outcome)
        expected = calls.previous(kind, self.kind)
        expected[came_after == ALREADY_INFORMED] = RANDOM
        expected[came_after == INFORMED] = SEQUENTIAL
        expected[is_start & (encounters == 0)] = INITIAL_SUCCESSOR
        calls.flag(
            found, "{where}: caller {caller} places a {kind} call, expected {expected}",
            ~first & (kind != expected), 0, 2,
            fields=lambda i: {**calls.fields(i), "expected": KINDS[expected[i]].value},
        )
        # A walk call after an inform or a crashed target steps on.
        steps = ~first & (kind != RANDOM) & (came_after != ALREADY_INFORMED)
        self.check_walk(found, calls, steps, target, self.target)
        encounters += already
        for state, values in ((self.kind, kind), (self.outcome, outcome),
                              (self.target, target), (self.encounters, encounters)):
            calls.carry(state, values)


class _IdenticalRules(_Rules):
    # Every caller walks the shared cyclic order.  Without crashes, a caller
    # that meets a node informed in an earlier round, other than the start,
    # walks an informed stretch from then on and never informs again.  The
    # informed round is the whole trace's: a met node no call has informed
    # yet (a violation of its own) may be informed in an earlier round by a
    # later call of an out-of-order trace, so its caller's informs wait for
    # ``finish``.
    kind, walker = SEQUENTIAL, "list-walking"

    def __init__(self, replay, spec, no_crashes):
        super().__init__(replay, spec, no_crashes)
        self.target = np.zeros(len(replay.count), dtype=replay.id_dtype)  # last targets
        # Per caller: 2 if it met an informed node, else 1 if it met a node
        # not informed yet, else 0; or None with crashes.
        self.met = np.zeros(len(replay.count), dtype=np.int8) if no_crashes else None
        self.unknown, self.waiting = [], []

    def block(self, found, calls) -> None:
        super().block(found, calls)
        target = calls.take(calls.target_ids)
        if self.met is not None:
            self.check_useless(found, calls, target)
        self.check_walk(found, calls, calls.index > 0, target, self.target)
        calls.carry(self.target, target)

    def check_useless(self, found, calls, target) -> None:
        replay = self.replay
        outcome, rounds = calls.take(calls.rows.outcome), calls.take(calls.rows.round)
        meets = (outcome == ALREADY_INFORMED) & (target != replay.start_id)
        known = meets & (replay.informed_round[target] < rounds)
        unknown = meets & (replay.informed_at[target] == replay.m)
        state = self.met[calls.ids]
        met, maybe = calls.count_before(known, state == 2), calls.count_before(unknown, state > 0)
        informs = outcome == INFORMED
        calls.flag(found, USELESS, informs & (met > 0), 2)
        for i in np.flatnonzero(unknown).tolist():
            self.unknown.append((calls.caller[i], calls.index[i], target[i], rounds[i]))
        for i in np.flatnonzero(informs & (met == 0) & (maybe > 0)).tolist():
            self.waiting.append((calls.caller[i], calls.index[i], calls.fields(i)))
        met += known
        maybe += unknown
        calls.carry(self.met, np.where(met > 0, 2, (maybe > 0).astype(np.int8)))

    def finish(self, found) -> None:
        met = {}  # caller -> index of its first call that met a node informed earlier
        for caller, index, target, rnd in self.unknown:
            if self.replay.informed_round[target] < rnd:
                met[caller] = min(met.get(caller, index), index)
        late = [(c, i, f) for c, i, f in self.waiting if met.get(c, i) < i]
        if late:
            callers, indices, fields = zip(*late)
            found.add(USELESS, lambda f: f, fields, self.replay.first_at[list(callers)], 2,
                      np.array(indices), 0)


class _IndependentRules(_Rules):
    # Each caller walks its own cyclic permutation: the first n targets are
    # distinct, and from then on the sequence repeats with period n.  The
    # first lap's (caller, target) pairs are kept for ``finish``; calls past
    # it keep their index modulo the lap.
    kind, walker = SEQUENTIAL, "list-walking"

    def __init__(self, replay, spec, no_crashes):
        super().__init__(replay, spec, no_crashes)
        self.lap, self.kept, self.later = min(self.n, _INT64_MAX), 0, []
        self.pairs = np.empty((2, replay.m), dtype=replay.id_dtype)

    def block(self, found, calls) -> None:
        super().block(found, calls)
        target, in_lap = calls.take(calls.target_ids), calls.index < self.lap
        kept = self.kept + int(np.count_nonzero(in_lap))
        self.pairs[:, self.kept : kept] = calls.caller[in_lap], target[in_lap]
        self.kept, later = kept, ~in_lap
        if later.any():
            self.later.append((calls.caller[later], calls.index[later] % self.lap, target[later]))

    def finish(self, found) -> None:
        callers, targets = self.pairs[:, : self.kept]
        # A caller's repeated first-lap target is two equal neighbours once
        # the pairs are sorted.
        order = np.lexsort((targets, callers))
        c, t = callers[order], targets[order]
        self.flag_callers(found, "caller {caller}: repeats a list target before wrapping",
                          c[1:][(c[1:] == c[:-1]) & (t[1:] == t[:-1])], 1)
        del order, c, t
        if self.later:
            # A later call goes to its caller's first-lap target at its index.
            caller, index, target = map(np.concatenate, zip(*self.later))
            order = np.argsort(callers, kind="stable")
            index += np.searchsorted(callers[order], caller)
            self.flag_callers(found, "caller {caller}: list does not repeat cyclically",
                              caller[targets[order[index]] != target], 2)

    def flag_callers(self, found, template, callers, phase) -> None:
        """One message for each caller in ``callers``."""
        callers = np.unique(callers)
        found.add(template, lambda c: {"caller": self.replay.node(c)}, callers,
                  self.replay.first_at[callers], phase, 0, 0)


# Each protocol's per-caller checks, by name; of the spec they read only
# the stop budget.
_CALLER_RULES = {
    "hybrid": _HybridRules,
    "quasirandom-identical": _IdenticalRules,
    "quasirandom-independent": _IndependentRules,
    "push": _Rules,
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
            f"total_calls {summary.total_calls} != {len(columns.round)} trace records")
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
            f"completion_round {summary.completion_round} for a {summary.outcome} run")
    elif completed and summary.completion_round != summary.rounds_executed:
        violations.append(f"completion_round {summary.completion_round} != rounds_executed "
                          f"{summary.rounds_executed}")

    prof = summary.per_round_informed
    if len(prof) != summary.rounds_executed + 1:
        violations.append(f"per_round_informed has {len(prof)} entries for "
                          f"{summary.rounds_executed} executed rounds")
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
                violations.append(f"round {t}: informed count grows by {grew} but the trace "
                                  f"has {informs_per_round[t]} informing calls")
            if prof[t] > (summary.n if t >= n_caps_from else min(summary.n, 2**t)):
                violations.append(f"round {t}: informed count {prof[t]} above the doubling cap")
    if len(columns.round):
        last_round = int(columns.round[-1])
        if summary.rounds_executed < last_round:
            violations.append(f"rounds_executed {summary.rounds_executed} below last trace "
                              f"round {last_round}")
        top = int(max(columns.caller.max(), columns.target.max()))
        if top >= summary.n:
            violations.append(f"node id {top} in trace is not below n={summary.n}")
    return violations
