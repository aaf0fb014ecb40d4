"""Round-synchronous push-only rumor spreading on the complete graph.

A ``SimulationState`` holds one world: ``n`` nodes on a cyclic order, one
of them initially informed, and a protocol spec describing how informed
nodes pick call targets.  Rounds are executed synchronously: every node
informed in an earlier round places exactly one call, the round's calls
are serialized in a uniformly random order (two calls never land on a
node at exactly the same instant), and a node informed at serial position
``p`` is seen as already informed by every later call of the same round.

Every contact counts as one call, whatever its outcome.  Under the hybrid
protocol a call that hits an already-informed target ends the caller's
current iteration: it consumes one unit of the caller's stop budget and
sends it back to a uniformly random restart, or stops it for good once
the budget is spent.  The starting node walks its own successors first
and its first such encounter is free (it only ends the initial walk).

All randomness is drawn from one seeded generator in a fixed order
(the round's target draws, in ascending caller id order, then the
round's serialization permutation), so a given configuration
always reproduces the same call sequence bit for bit.

Each protocol's rules live in one private rules object: the start node's
round-0 setup, the round's target draws, and the callers' state update
once the round's outcomes are known.  ``execute_round`` is the one round
kernel.  It works in caller (ascending id) order: the serialization only
breaks ties among calls to the same uninformed target, which a scatter-min
of serial positions resolves, and orders a kept log.  The test suite keeps
a per-call statement of the same semantics (``tests/reference_engine.py``)
as the oracle the kernel is checked against.

Every draw is vectorised.  Independent lists keep each node's drawn prefix
in an int32 node-by-call-index table and extend it by a block draw: one
``integers(0, n, size=m)`` for the m callers that need an entry, a bulk
test of each value against its caller's prefix, and on a rejection the
callers from there on take the stream's following values.  That consumes
the generator exactly as one scalar draw per value, with a redraw on each
value the caller already holds, would.

A kept call log is a ``CallLog``: six numpy columns, one entry per call, to
which ``execute_round`` appends each round's arrays at once.  A
``CallRecord`` is built only when the log is indexed or iterated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .protocols import (
    LISTS_IDENTICAL,
    FullyRandomPush,
    Hybrid,
    ProtocolSpec,
    Quasirandom,
)


class NodeStatus(str, Enum):
    UNINFORMED = "uninformed"
    INFORMED = "informed"
    STOPPED = "stopped"
    CRASHED = "crashed"


class CallKind(str, Enum):
    INITIAL_SUCCESSOR = "initial_successor"
    SEQUENTIAL = "sequential"
    RANDOM = "random"


class CallOutcome(str, Enum):
    INFORMED = "informed"
    ALREADY_INFORMED = "already_informed"
    CRASHED_TARGET = "crashed_target"


RUN_COMPLETED = "completed"
RUN_STALLED = "stalled"
RUN_CAPPED = "capped"

# Internal array codes.
_UNINFORMED, _INFORMED, _STOPPED, _CRASHED = 0, 1, 2, 3
_M_NONE, _M_SEQ, _M_PENDING = 0, 1, 2
_K_INITIAL, _K_SEQUENTIAL, _K_RANDOM = 0, 1, 2
_O_INFORMED, _O_ALREADY, _O_CRASHED = 0, 1, 2
_NO_SERIAL = np.iinfo(np.int64).max

# Code -> member tables; each enum's declaration order is its code order.
_STATUS_ENUM = tuple(NodeStatus)
_KIND_ENUM = tuple(CallKind)
_OUTCOME_ENUM = tuple(CallOutcome)
_KIND_CODE = {member: code for code, member in enumerate(_KIND_ENUM)}
_OUTCOME_CODE = {member: code for code, member in enumerate(_OUTCOME_ENUM)}


@dataclass(frozen=True)
class Sequential:
    """Caller walks the cyclic order; the next call goes to ``next_target``."""

    next_target: int


@dataclass(frozen=True)
class PendingRandom:
    """Caller draws a fresh uniformly random target next round."""


@dataclass(frozen=True)
class NodeState:
    """Read-only snapshot of one node.

    ``mode`` is set for hybrid and fully-random callers; list-walking
    nodes expose their progress through ``list_position`` instead (the
    next target id for the shared list, the call index for independent
    lists) and, for independent lists, the lazily materialized prefix of
    their call sequence.
    """

    id: int
    status: NodeStatus
    mode: Sequential | PendingRandom | None
    encounters: int
    informed_at: int | None
    informer: int | None
    list_position: int | None = None
    call_sequence: tuple[int, ...] | None = None


class CallRecord(NamedTuple):
    """One call; the fields, in order, are the trace CSV's columns."""

    round: int
    caller: int
    target: int
    kind: CallKind
    outcome: CallOutcome
    serial_position: int

    @classmethod
    def columns_of(cls, records) -> CallRecord:
        """The records' fields as a ``CallRecord`` of arrays, typed as a
        ``CallLog``'s columns (which a ``CallLog`` returns as is)."""
        if isinstance(records, CallLog):
            return records.columns
        r, c, t, k, o, s = tuple(zip(*records)) or ((),) * len(cls._fields)
        k = [_KIND_CODE[kind] for kind in k]
        o = [_OUTCOME_CODE[outcome] for outcome in o]
        return cls._make(
            np.array(values, dtype) for values, dtype in zip((r, c, t, k, o, s), _COLUMN_DTYPES)
        )


# Each CallLog column's dtype, by field.
_COLUMN_DTYPES = CallRecord(np.int64, np.int64, np.int64, np.int8, np.int8, np.int64)


class CallLog(Sequence):
    """A call trace as six numpy columns, one entry per call, in trace order.

    ``columns`` is a ``CallRecord`` whose fields are the arrays: round,
    caller, target and serial_position as int64; kind and outcome as int8
    codes, each a member's index in its enum's declaration order.  Indexing
    and iteration build ``CallRecord``s on demand; a slice is a ``CallLog``.
    """

    def __init__(self, columns: CallRecord | None = None):
        if columns is None:
            columns = CallRecord._make(np.empty(0, dtype) for dtype in _COLUMN_DTYPES)
        self._chunks = [columns]

    def append_columns(self, chunk: CallRecord) -> None:
        """Append calls given as a ``CallRecord`` of equal-length arrays."""
        self._chunks.append(chunk)

    @property
    def columns(self) -> CallRecord:
        if len(self._chunks) > 1:
            self._chunks = [CallRecord._make(map(np.concatenate, zip(*self._chunks)))]
        return self._chunks[0]

    def __len__(self) -> int:
        return sum(len(chunk.round) for chunk in self._chunks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CallLog(CallRecord._make(column[index] for column in self.columns))
        r, c, t, k, o, s = (column[index] for column in self.columns)
        return CallRecord(int(r), int(c), int(t), _KIND_ENUM[k], _OUTCOME_ENUM[o], int(s))

    def __iter__(self):
        r, c, t, k, o, s = (column.tolist() for column in self.columns)
        return map(
            CallRecord, r, c, t,
            map(_KIND_ENUM.__getitem__, k), map(_OUTCOME_ENUM.__getitem__, o), s,
        )

    def __eq__(self, other):
        if isinstance(other, CallLog):
            return all(map(np.array_equal, self.columns, other.columns))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True)
class RoundReport:
    """What one executed round did."""

    round: int
    calls_made: int
    stalled: bool


@dataclass(frozen=True)
class TraceSummary:
    """Per-run metrics; ``per_round_informed[t]`` counts nodes ever informed
    by the end of round ``t`` (crashing later does not un-inform a node)."""

    n: int
    outcome: str
    completion_round: int | None
    rounds_executed: int
    total_calls: int
    informing_calls: int
    encounter_calls: int
    crashed_target_calls: int
    per_round_informed: tuple[int, ...]


def successor(i: int, n: int) -> int:
    """Next node along the cyclic order: (i+1) mod n."""
    if not 0 <= i < n:
        raise ValueError(f"node id {i} out of range for n={n}")
    return (i + 1) % n


def _successors(ids: np.ndarray, n: int) -> np.ndarray:
    """``(ids + 1) % n`` for node ids in ``[0, n)``, as a wrap."""
    nxt = ids + 1
    nxt[nxt == n] = 0
    return nxt


def default_round_cap(n: int) -> int:
    """Generous default round cap, far above every closed-form bound."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.ceil(10 * (math.log2(n) + math.log(n) + 10))


# -- protocol rules ----------------------------------------------------------


class _Rules:
    """One protocol's rules; ``SimulationState`` holds exactly one.

    The round kernel updates status, informed_at and informer itself and
    leaves everything protocol-specific to these operations.
    """

    def setup(self, state: SimulationState) -> None:
        """Round-0 state of the start node."""

    def draw(self, state: SimulationState, callers: np.ndarray):
        """(targets, kinds) for the round's callers, given in ascending id
        order; every random draw of the round before the serialization
        permutation happens here, in that order."""
        raise NotImplementedError

    def settle(self, state, callers, targets, informed, already, crashed) -> None:
        """Update the callers' protocol state after the round's outcomes.

        ``callers`` and ``targets`` are in caller order, as ``draw`` got
        and gave them; the three boolean masks mark the informing,
        encounter and crashed-target calls.  Each caller calls once, so no
        update depends on the serial order.
        """
        raise NotImplementedError

    def node_fields(self, state: SimulationState, i: int):
        """(mode, list_position, call_sequence) of node ``i``."""
        mode = state._mode[i]
        if mode == _M_SEQ:
            return Sequential(int(state._next_target[i])), None, None
        if mode == _M_PENDING:
            return PendingRandom(), None, None
        return None, None, None


class _HybridRules(_Rules):
    """Walk the cyclic order; an encounter costs one budget unit and sends
    the caller to a random restart, or stops it once the budget is spent."""

    def __init__(self, stop_budget: int):
        self.stop_budget = stop_budget

    def setup(self, state):
        state._mode[state.start] = _M_SEQ
        state._next_target[state.start] = successor(state.start, state.n)

    def draw(self, state, callers):
        pending = state._mode[callers] == _M_PENDING
        targets = state._next_target[callers]
        targets[pending] = state._draw_random_targets(callers[pending])
        kinds = np.full(len(callers), _K_SEQUENTIAL, dtype=np.int8)
        kinds[pending] = _K_RANDOM
        start = state.start
        if (
            state._status[start] == _INFORMED
            and state._mode[start] == _M_SEQ
            and state._encounters[start] == 0
        ):
            # An informed start is a caller; callers arrive sorted.
            kinds[np.searchsorted(callers, start)] = _K_INITIAL
        return targets, kinds

    def settle(self, state, callers, targets, informed, already, crashed):
        n = state.n
        # Freshly informed nodes open with a random call next round; only
        # the starting node begins on its own successor run.
        new_targets = targets[informed]
        state._mode[new_targets] = _M_PENDING

        # Each caller calls exactly once per round, so the outcome groups
        # partition the callers and the updates below are independent.
        ic = callers[informed]
        state._mode[ic] = _M_SEQ
        state._next_target[ic] = _successors(new_targets, n)

        ac = callers[already]
        bumped = state._encounters[ac] + 1
        state._encounters[ac] = bumped
        stop = bumped >= self.stop_budget
        # The starting node's first encounter only ends its initial walk.
        at = np.searchsorted(ac, state.start)
        if at < len(ac) and ac[at] == state.start:
            stop[at] = bumped[at] > self.stop_budget
        stopped = ac[stop]
        state._status[stopped] = _STOPPED
        state._mode[ac] = _M_PENDING
        state._mode[stopped] = _M_NONE
        state._next_target[ac] = -1

        # A crashed target costs no budget: walkers step past it, random
        # callers stay pending and redraw next round.
        cc = callers[crashed]
        ct = targets[crashed]
        walker = state._mode[cc] == _M_SEQ
        state._next_target[cc[walker]] = _successors(ct[walker], n)


class _SharedListRules(_Rules):
    """Quasirandom with identical lists: walk the shared cyclic order from
    a uniformly random position, one step per call, never stopping."""

    def setup(self, state):
        # The start picks its position on the shared list up front.
        state._next_target[state.start] = int(state.rng.integers(0, state.n))

    def draw(self, state, callers):
        undrawn = state._next_target[callers] < 0
        if undrawn.any():
            # A node informed by a call picks its position at its first call.
            fresh = callers[undrawn]
            state._next_target[fresh] = state.rng.integers(0, state.n, size=len(fresh))
        kinds = np.full(len(callers), _K_SEQUENTIAL, dtype=np.int8)
        return state._next_target[callers], kinds

    def settle(self, state, callers, targets, informed, already, crashed):
        state._next_target[callers] = _successors(targets, state.n)

    def node_fields(self, state, i):
        position = int(state._next_target[i])
        return None, (position if position >= 0 else None), None


class _IndependentListRules(_Rules):
    """Quasirandom with independent lists: each node walks its own uniformly
    random cyclic permutation, materialized lazily one entry at a time.

    ``drawn[i, j]`` is node ``i``'s ``j``-th list entry, -1 where not drawn
    yet; its columns grow as the longest prefix does, up to ``n``.  A node's
    ``list_index`` counts its calls, and once its list holds all ``n``
    entries it calls ``drawn[i, list_index % n]``.
    """

    # Callers tested per block draw; a rejected value costs a re-test of at
    # most this many callers, whatever the round's size.
    CHUNK = 2048

    def __init__(self, n: int):
        self.drawn = np.full((n, 0), -1, dtype=np.int32)
        self.list_index = np.zeros(n, dtype=np.int64)

    def prefix(self, i: int) -> np.ndarray:
        return self.drawn[i, : min(int(self.list_index[i]), len(self.drawn))]

    def _widen(self, width: int) -> None:
        n, old = self.drawn.shape
        if width > old:
            # A run takes about log2 n + ln n rounds, so one allocation of
            # 2 log2 n columns mostly suffices; each growth adds half.
            grown = max(old + old // 2, 2 * n.bit_length())
            wider = np.empty((n, min(n, max(width, grown))), dtype=np.int32)
            wider[:, :old] = self.drawn
            wider[:, old:] = -1
            self.drawn = wider

    def _draw_fresh(self, rng, callers, idx) -> np.ndarray:
        """Each caller's next list entry: the first value of the stream that
        its prefix does not hold yet, callers served in the order given.

        This consumes the generator exactly as one scalar draw per value,
        with a redraw on each rejection, would: ``rng.integers(0, n,
        size=m)`` yields the values, and leaves the state, of ``m`` scalar
        draws, and no more values are drawn than callers are left.
        """
        n = len(self.drawn)
        m = len(callers)
        values = np.empty(m, dtype=np.int32)
        if m == 0:
            return values
        self._widen(int(idx.max()) + 1)
        stream = np.empty(0, dtype=np.int32)  # drawn, not yet handed to a caller
        pos = 0
        while pos < m:
            end = min(pos + self.CHUNK, m)
            if len(stream) < end - pos:
                fresh = rng.integers(0, n, size=end - pos - len(stream)).astype(np.int32)
                stream = np.concatenate((stream, fresh))
            block = stream[: end - pos]
            # Each caller's own entry (column ``idx``) is still -1, so the
            # block is at least one column wide and the first hit in
            # row-major order is in the first rejecting caller's row.
            width = int(idx[pos:end].max()) + 1
            seen = self.drawn[callers[pos:end], :width] == block[:, None]
            hit = int(seen.argmax())
            taken = hit // width if seen.flat[hit] else end - pos
            values[pos : pos + taken] = block[:taken]
            pos += taken
            # A rejected value is spent; its caller takes the next one.
            stream = stream[taken + 1 :]
        self.drawn[callers, idx] = values
        return values

    def draw(self, state, callers):
        idx = self.list_index[callers]
        targets = np.empty(len(callers), dtype=np.int64)
        fresh = idx < state.n
        targets[fresh] = self._draw_fresh(state.rng, callers[fresh], idx[fresh])
        lapped = ~fresh
        targets[lapped] = self.drawn[callers[lapped], idx[lapped] % state.n]
        return targets, np.full(len(callers), _K_SEQUENTIAL, dtype=np.int8)

    def settle(self, state, callers, targets, informed, already, crashed):
        self.list_index[callers] += 1

    def node_fields(self, state, i):
        if state._status[i] == _INFORMED or self.list_index[i] > 0:
            return None, int(self.list_index[i]), tuple(self.prefix(i).tolist())
        return None, None, None


class _PushRules(_Rules):
    """Classical push: every call goes to a fresh uniformly random target."""

    def setup(self, state):
        state._mode[state.start] = _M_PENDING

    def draw(self, state, callers):
        kinds = np.full(len(callers), _K_RANDOM, dtype=np.int8)
        return state._draw_random_targets(callers), kinds

    def settle(self, state, callers, targets, informed, already, crashed):
        state._mode[targets[informed]] = _M_PENDING


def _rules_for(spec: ProtocolSpec, n: int) -> _Rules:
    if isinstance(spec, Hybrid):
        return _HybridRules(spec.stop_budget)
    if isinstance(spec, Quasirandom):
        if spec.lists == LISTS_IDENTICAL:
            return _SharedListRules()
        return _IndependentListRules(n)
    if isinstance(spec, FullyRandomPush):
        return _PushRules()
    raise TypeError(f"not a protocol spec: {spec!r}")


class SimulationState:
    """Mutable world state; see the operations below for the round logic."""

    def __init__(
        self,
        spec: ProtocolSpec,
        n: int,
        start: int = 0,
        seed=None,
        crash_schedule: dict[int, int] | None = None,
        *,
        allow_self_calls: bool = True,
        keep_log: bool = False,
    ):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0 <= start < n:
            raise ValueError(f"start {start} out of range for n={n}")
        self._rules = _rules_for(spec, n)
        if seed is None:
            raise ValueError("seed is required for reproducibility")
        self.spec = spec
        self.n = n
        self.start = start
        self.allow_self_calls = allow_self_calls
        self.rng = np.random.default_rng(seed)
        self.round = 0

        self.crash_schedule = dict(crash_schedule or {})
        for node, crash_round in self.crash_schedule.items():
            if not 0 <= node < n:
                raise ValueError(f"crash schedule node {node} out of range")
            if node == start:
                raise ValueError("the starting node cannot be crashed")
            if crash_round < 0:
                raise ValueError(f"crash round {crash_round} is negative")
        ordered = sorted(self.crash_schedule.items(), key=lambda kv: (kv[1], kv[0]))
        self._crash_nodes = [node for node, _ in ordered]
        self._crash_rounds = [rnd for _, rnd in ordered]
        self._crash_ptr = 0

        self._status = np.zeros(n, dtype=np.int8)
        self._mode = np.zeros(n, dtype=np.int8)
        self._next_target = np.full(n, -1, dtype=np.int64)
        self._encounters = np.zeros(n, dtype=np.int64)
        self._informed_at = np.full(n, -1, dtype=np.int64)
        self._informer = np.full(n, -1, dtype=np.int64)
        # ``execute_round``'s first-writer scratch; all sentinel between rounds.
        self._first_serial = np.full(n, _NO_SERIAL, dtype=np.int64)

        self.total_calls = 0
        self.informing_calls = 0
        self.encounter_calls = 0
        self.crashed_target_calls = 0

        self._status[start] = _INFORMED
        self._informed_at[start] = 0
        self.ever_informed_count = 1
        self._live_uninformed = n - 1
        self.per_round_informed: list[int] = [1]
        self.log: CallLog | None = CallLog() if keep_log else None
        self._rules.setup(self)

    # -- snapshots ---------------------------------------------------------

    def node(self, i: int) -> NodeState:
        if not 0 <= i < self.n:
            raise ValueError(f"node id {i} out of range for n={self.n}")
        mode, list_position, call_sequence = self._rules.node_fields(self, i)
        informed_at = int(self._informed_at[i])
        informer = int(self._informer[i])
        return NodeState(
            id=i,
            status=_STATUS_ENUM[self._status[i]],
            mode=mode,
            encounters=int(self._encounters[i]),
            informed_at=None if informed_at < 0 else informed_at,
            informer=None if informer < 0 else informer,
            list_position=list_position,
            call_sequence=call_sequence,
        )

    # -- internals ---------------------------------------------------------

    def _apply_crashes(self, upto_round: int) -> None:
        while (
            self._crash_ptr < len(self._crash_rounds)
            and self._crash_rounds[self._crash_ptr] <= upto_round
        ):
            node = self._crash_nodes[self._crash_ptr]
            self._crash_ptr += 1
            if self._status[node] == _CRASHED:
                continue
            if self._status[node] == _UNINFORMED:
                self._live_uninformed -= 1
            self._status[node] = _CRASHED
            self._mode[node] = _M_NONE
            self._next_target[node] = -1

    def _draw_random_targets(self, callers: np.ndarray) -> np.ndarray:
        if len(callers) == 0:
            return np.empty(0, dtype=np.int64)
        if self.allow_self_calls:
            return self.rng.integers(0, self.n, size=len(callers))
        if self.n == 1:
            raise ValueError("cannot draw a non-self target with n=1")
        targets = self.rng.integers(0, self.n - 1, size=len(callers))
        targets[targets >= callers] += 1
        return targets

    def _finish_round(self, executed_round: int) -> None:
        self.round = executed_round
        self.per_round_informed.append(self.ever_informed_count)


def init_simulation(
    spec: ProtocolSpec,
    n: int,
    start: int = 0,
    seed=None,
    crash_schedule: dict[int, int] | None = None,
    *,
    allow_self_calls: bool = True,
    keep_log: bool = False,
) -> SimulationState:
    """Build the round-0 state: only ``start`` is informed."""
    return SimulationState(
        spec,
        n,
        start,
        seed,
        crash_schedule,
        allow_self_calls=allow_self_calls,
        keep_log=keep_log,
    )


def is_complete(state: SimulationState) -> bool:
    """True iff every non-crashed node has been informed."""
    return state._live_uninformed == 0


def _empty_round(state: SimulationState, executed_round: int) -> RoundReport:
    stalled = state._live_uninformed > 0
    state._finish_round(executed_round)
    return RoundReport(executed_round, 0, stalled)


def execute_round(state: SimulationState) -> RoundReport:
    """Execute one synchronous round.

    Crashes scheduled for this round take effect first.  Then the
    protocol's rules draw every caller's target, a fresh random permutation
    serializes the calls, the first call in serial order to reach each
    uninformed target informs it, and the protocol's rules settle the
    callers' state.  All of it runs in caller order; the permutation is
    read only to find those first calls (a scatter-min of serial positions
    into a per-state scratch that holds a sentinel between rounds) and to
    write a kept log in serial order.  ``tests/reference_engine.py``
    applies the same calls one by one; the test suite asserts that both
    produce the same records, state, and RNG consumption.
    """
    executed_round = state.round + 1
    state._apply_crashes(executed_round)
    if state._live_uninformed == 0:
        # Crashes just completed the run; nobody needs to call.
        return _empty_round(state, executed_round)
    # Eligible callers were informed in an earlier round and are neither
    # stopped nor crashed; no call of this round has been applied yet, so
    # they are exactly the informed set.
    callers = np.nonzero(state._status == _INFORMED)[0]
    k = len(callers)
    if k == 0:
        return _empty_round(state, executed_round)
    targets, kinds = state._rules.draw(state, callers)
    order = state.rng.permutation(k)

    # Outcomes: targets crashed before the round stay crashed; among calls
    # to targets uninformed at round start, the first at each target in
    # serial order informs it, later ones find it already informed.
    t_status = state._status[targets]
    crashed_mask = t_status == _CRASHED
    open_serial = np.flatnonzero((t_status == _UNINFORMED)[order])
    open_calls = order[open_serial]
    open_targets = targets[open_calls]
    first = state._first_serial
    np.minimum.at(first, open_targets, open_serial)
    winners = open_calls[first[open_targets] == open_serial]
    first[open_targets] = _NO_SERIAL
    informed_mask = np.zeros(k, dtype=bool)
    informed_mask[winners] = True
    already_mask = ~(informed_mask | crashed_mask)
    new_targets = targets[winners]

    crashed = int(np.count_nonzero(crashed_mask))
    state.total_calls += k
    state.informing_calls += len(winners)
    state.encounter_calls += k - len(winners) - crashed
    state.crashed_target_calls += crashed

    state._status[new_targets] = _INFORMED
    state._informed_at[new_targets] = executed_round
    state._informer[new_targets] = callers[winners]
    state.ever_informed_count += len(new_targets)
    state._live_uninformed -= len(new_targets)

    state._rules.settle(
        state, callers, targets, informed_mask, already_mask, crashed_mask
    )

    if state.log is not None:
        outcomes = np.full(k, _O_ALREADY, dtype=np.int8)
        outcomes[crashed_mask] = _O_CRASHED
        outcomes[winners] = _O_INFORMED
        state.log.append_columns(
            CallRecord(
                np.full(k, executed_round, dtype=np.int64),
                callers[order],
                targets[order],
                kinds[order],
                outcomes[order],
                np.arange(k, dtype=np.int64),
            )
        )

    state._finish_round(executed_round)
    return RoundReport(executed_round, k, False)


def run(
    state: SimulationState,
    max_rounds: int | None = None,
    *,
    round_engine=execute_round,
) -> TraceSummary:
    """Execute rounds until completion, stall, or the round cap.

    Completion means every non-crashed node is informed; stall means
    uninformed non-crashed nodes remain but no caller is active (possible
    only with crashes or degenerate parameters).  The summary's
    completion_round is absent on stall and cap outcomes.
    """
    cap = default_round_cap(state.n) if max_rounds is None else max_rounds
    if cap < 1:
        raise ValueError(f"max_rounds must be >= 1, got {cap}")
    outcome = RUN_CAPPED
    completion_round = None
    while True:
        if is_complete(state):
            outcome = RUN_COMPLETED
            completion_round = state.round
            break
        if state.round >= cap:
            outcome = RUN_CAPPED
            break
        report = round_engine(state)
        if report.stalled:
            outcome = RUN_STALLED
            break
    return TraceSummary(
        n=state.n,
        outcome=outcome,
        completion_round=completion_round,
        rounds_executed=state.round,
        total_calls=state.total_calls,
        informing_calls=state.informing_calls,
        encounter_calls=state.encounter_calls,
        crashed_target_calls=state.crashed_target_calls,
        per_round_informed=tuple(state.per_round_informed),
    )
