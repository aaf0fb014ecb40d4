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
and its first such encounter is free: it begins one encounter in debt.

All of a world's randomness is drawn from its one seeded generator in a
fixed order (the round's target draws, in ascending caller id order, then
the round's serialization permutation), so a given configuration always
reproduces the same call sequence bit for bit.  Each round takes the
permutation's draws but lays it out only where hybrid's rules or a kept
log read it; elsewhere shuffling a zero-stride view takes the same draws,
as Fisher-Yates draws depend only on the length.

Worlds live in stacks: a stack holds T independent worlds of one
``(spec, n, start)`` in per-node arrays of length T * n, world ``w``'s
node ``i`` at entry ``w * n + i``.  Each world keeps its own generator,
crash schedule, per-round record and call log.  A single run is a one-world
stack; ``run_trials`` runs its trials in larger ones.

Each protocol's rules live in one private rules class, found in ``_RULES``
by the spec's ``name``: the per-node arrays it reads, the start node's
round-0 setup, and three steps on one block of a round's calls: the target
draws, a kept log's kind codes, and the callers' state update from the
outcome codes a kept log records.
``_execute_rounds`` is the one round kernel, run by ``execute_round`` for
one world and by ``run_stack`` for a stack; it runs every step over the
round's blocks of ``_BLOCK_CALLS`` calls.  Each world draws from its own
generator; everything else is done once over the stack's concatenated
calls, and resolution counts each world's outcomes.  The serialization
only breaks ties among calls to the same uninformed target, which a pass
in serial order resolves by a scatter-min of positions in each block, and
orders a kept log.  Where no rules read a tie's winner and no log is kept,
caller order stands in for serial order: only which of the tied calls is
labelled the winner changes.  Entries of different worlds never collide,
so the worlds cannot interact.  The test suite keeps a per-call statement
of the same semantics (``tests/reference_engine.py``) as the oracle the
kernel is checked against.

Every draw is vectorised.  Independent lists keep each node's drawn prefix
in an int32 node-by-call-index table and extend it by a block draw: one
``integers(0, n, size=m)`` for the m callers that need an entry, a bulk
test of each value against its caller's prefix, and on a rejection the
callers from there on take the stream's following values.  That consumes
the generator exactly as one scalar draw per value, with a redraw on each
value the caller already holds, would.

A kept call log is a ``CallLog``: per round, its number and its calls as
int32 caller and target ids and int8 kind and outcome codes, 10 bytes per
call.  Round and serial columns and ``CallRecord``s are built where read.

Node ids, stack entries and serial positions fit int32, as a stack holds
at most ``MAX_STACK_NODES`` (2**31 - 1) nodes and refuses more.  So every
per-node array is int32 or narrower (the status is int8, and hybrid's
encounter counts int16 below a budget of 2**15), and so is every array of
one entry per call that lasts a round: the callers, target ids and a
laid-out order are int32, the outcome codes int8, and the kind codes, built
only for a kept log, int8.  (A round of one block shuffles an int64 order:
``shuffle`` is fastest on 8-byte items.)  Other temporaries are the size
of a block, or one count per world.  A kept log's columns are int32 too.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .protocols import ProtocolSpec, protocol_name


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
_K_INITIAL, _K_SEQUENTIAL, _K_RANDOM = 0, 1, 2
_O_INFORMED, _O_ALREADY, _O_CRASHED = 0, 1, 2
_NO_SERIAL = np.iinfo(np.int32).max
# A call's outcome code by its target's status at round start; a call to an
# uninformed target is open, coded ``_O_INFORMED`` until it finds it informed.
_STATUS_OUTCOMES = np.array([_O_INFORMED, _O_ALREADY, _O_ALREADY, _O_CRASHED], dtype=np.int8)

# Most nodes in one stack: node ids, stack entries and serial positions are
# held as int32.
MAX_STACK_NODES = 2**31 - 1

# Calls per block: beyond its int32 and int8 arrays of one entry per call,
# a round's temporaries are block-sized.  No result depends on it.
_BLOCK_CALLS = 2**15

# Code -> member tables; each enum's declaration order is its code order.
_KIND_ENUM = tuple(CallKind)
_OUTCOME_ENUM = tuple(CallOutcome)
_KIND_CODE = {member: code for code, member in enumerate(_KIND_ENUM)}
_OUTCOME_CODE = {member: code for code, member in enumerate(_OUTCOME_ENUM)}


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
            _fitted(np.array(values, np.int64), dtype)
            for values, dtype in zip((r, c, t, k, o, s), COLUMN_DTYPES)
        )


# Each CallLog column's dtype, by field; an integer column whose values do
# not all fit int32 is int64.
COLUMN_DTYPES = CallRecord(np.int32, np.int32, np.int32, np.int8, np.int8, np.int32)


def _fitted(values: np.ndarray, dtype) -> np.ndarray:
    """``values`` as ``dtype`` where every value fits, else as they are."""
    info = np.iinfo(dtype)
    fits = not len(values) or info.min <= values.min() and values.max() <= info.max
    return values.astype(dtype, copy=False) if fits else values


def _rows(chunk: CallRecord, field: int, begin: int, end: int, serial=None) -> np.ndarray:
    """Field ``field`` of a log chunk's rows ``begin`` to ``end``.  A kept
    round holds its number as ``round`` and no ``serial_position``: it
    derives both, or reads ``serial`` as each serial position if given."""
    values = chunk[field]
    if isinstance(values, np.ndarray):
        return values[begin:end]
    if field == 0 or serial is not None:
        return np.broadcast_to(np.int32(values if field == 0 else serial), (end - begin,))
    return np.arange(begin, end, dtype=np.int32)


class CallLog(Sequence):
    """A call trace as six numpy columns, one entry per call, in trace order.

    ``columns`` is a ``CallRecord`` whose fields are the arrays: round,
    caller, target and serial_position as int32, or int64 where a value
    does not fit; kind and outcome as int8 codes, each a member's index in
    its enum's declaration order.  A kept log's rounds are joined on the
    first read of ``columns``; ``blocks`` reads them without joining.
    Indexing and iteration build ``CallRecord``s on demand; a slice is a
    ``CallLog``.
    """

    def __init__(self, columns: CallRecord | None = None):
        if columns is None:
            columns = CallRecord._make(np.empty(0, dtype) for dtype in COLUMN_DTYPES)
        self._chunks = [columns]

    def append_round(self, number: int, caller, target, kind, outcome) -> None:
        """Append one round's calls in serial order: int32 caller and target
        ids and int8 kind and outcome codes."""
        self._chunks.append(CallRecord(number, caller, target, kind, outcome, None))

    def blocks(self, rows: int) -> Iterator[CallRecord]:
        """The columns, at most ``rows`` calls at a time, chunk by chunk."""
        for chunk in self._chunks:
            for begin in range(0, len(chunk.caller), rows):
                end = min(begin + rows, len(chunk.caller))
                yield CallRecord._make(_rows(chunk, j, begin, end) for j in range(len(chunk)))

    @property
    def columns(self) -> CallRecord:
        chunks = self._chunks
        if len(chunks) > 1 or chunks[0].serial_position is None:
            # Join field by field.  Each chunk then reads that field from
            # the joined column, which frees its own array: the log is held
            # about once plus one column, and stays whole if a join fails.
            ends = list(itertools.accumulate(len(chunk.caller) for chunk in chunks))
            spans, joined = list(zip([0, *ends], ends)), []
            for j, field in enumerate(CallRecord._fields):
                column = np.concatenate([_rows(c, j, 0, len(c.caller), 1) for c in chunks])
                for i, (a, b) in enumerate(spans):
                    if chunks[i][j] is None:  # a kept round's serial positions, counted in place
                        np.cumsum(column[a:b], out=column[a:b])
                        column[a:b] -= 1
                    chunks[i] = chunks[i]._replace(**{field: column[a:b]})
                joined.append(column)
            self._chunks = [CallRecord._make(joined)]
        return self._chunks[0]

    def __len__(self) -> int:
        return sum(len(chunk.caller) for chunk in self._chunks)

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


# -- one round's calls -------------------------------------------------------


class _Calls:
    """One round's calls of the calling worlds of a stack, in caller order.

    ``callers`` are int32 stack entries, ascending; ``worlds[j]`` placed
    calls ``bounds[j]`` up to ``bounds[j + 1]``.
    """

    __slots__ = ("worlds", "bounds", "callers", "_offsets")

    def __init__(self, stack: _Stack, worlds, bounds: list[int], callers: np.ndarray):
        self.worlds, self.bounds, self.callers = worlds, bounds, callers
        # Each call's world's first entry; in a one-world stack, 0.
        self._offsets = None if stack.count == 1 else np.repeat(
            np.array([world._base for world in worlds], dtype=np.int32), np.diff(bounds))

    def blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """``(s, e, c)`` per block of calls ``s`` to ``e``, ``c`` their int32
        callers: ``np.take`` gathers by them as fast as by intp ones, and a
        scatter converts them, as fancy indexing by int32 is slower."""
        for s in range(0, len(self.callers), _BLOCK_CALLS):
            yield s, min(s + _BLOCK_CALLS, len(self.callers)), self.callers[s : s + _BLOCK_CALLS]

    def split(self, s: int, e: int) -> tuple[list, list[int]]:
        """The worlds with calls among calls ``s`` to ``e``, and where each
        one's calls there begin, then end, counted from ``s``."""
        lo, hi = bisect.bisect_right(self.bounds, s) - 1, bisect.bisect_left(self.bounds, e)
        return self.worlds[lo:hi], [0, *(b - s for b in self.bounds[lo + 1 : hi]), e - s]

    def caller_ids(self, at=slice(None)) -> np.ndarray:
        """Node ids of the callers of the calls at ``at`` (a slice or indices)."""
        callers = self.callers[at]
        return callers if self._offsets is None else callers - self._offsets[at]

    def entries(self, ids: np.ndarray, at) -> np.ndarray:
        """Stack entries of target ids of the calls at ``at``."""
        return ids if self._offsets is None else ids + self._offsets[at]


def _draw_integers(calls: _Calls, high: int, s: int, e: int, picked=None) -> np.ndarray:
    """``integers(0, high)`` for each picked call among calls ``s`` to ``e``
    (all when None), given as ascending indices from ``s``: one draw of each
    world's generator for its picked calls, in caller order; a world with
    none draws nothing.  Draws split across blocks take one draw's values."""
    worlds, cuts = calls.split(s, e)
    if picked is not None:
        cuts = picked.searchsorted(cuts).tolist()
    parts = [
        world.rng.integers(0, high, size=b - a, dtype=np.int32)
        for world, a, b in zip(worlds, cuts, cuts[1:])
        if b > a
    ]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)


def _random_targets(stack: _Stack, calls: _Calls, s: int, e: int, picked=None) -> np.ndarray:
    """Uniformly random target ids of calls picked as ``_draw_integers``
    picks them; with self-calls off, a draw over the other n - 1 nodes."""
    if stack.allow_self_calls:
        return _draw_integers(calls, stack.n, s, e, picked)
    targets = _draw_integers(calls, stack.n - 1, s, e, picked)
    targets[targets >= calls.caller_ids(slice(s, e) if picked is None else picked + s)] += 1
    return targets


# -- protocol rules ----------------------------------------------------------


class _Rules:
    """One protocol's rules; each stack holds exactly one.

    The round kernel updates status itself and leaves everything
    protocol-specific to these operations and to the per-node arrays (one
    entry per stack entry) that ``__init__`` allocates.  ``draw``, ``kinds``
    and ``settle`` take one block of a round's calls, ``c`` their callers.
    """

    # Whether ``settle`` reads which of several calls to one target informed
    # it; only then does a round without a kept log lay out its serial order.
    reads_outcomes = False
    KIND = _K_SEQUENTIAL

    def __init__(self, spec: ProtocolSpec, n: int, entries: int):
        """Rules of ``spec`` for a stack of ``entries`` nodes in worlds of ``n``."""

    def setup(self, state: SimulationState) -> None:
        """Round-0 state of one world's start node."""

    def draw(self, stack: _Stack, calls: _Calls, s: int, e: int, c, out) -> None:
        """Write the int32 target ids of calls ``s`` to ``e`` into ``out``;
        every random draw of the round before the serialization permutation
        happens here, each world's in its callers' order."""
        raise NotImplementedError

    def kinds(self, c, out) -> None:
        """Write the int8 kind codes of the block's calls into ``out``, read
        between ``draw`` and ``settle``, only for a kept log; each call's is
        ``KIND`` unless the rules say otherwise."""
        out.fill(self.KIND)

    def settle(self, stack, c, targets, outcomes) -> None:
        """Update the block's callers: ``targets`` are the calls' target ids
        and ``outcomes`` their int8 outcome codes, the ones a kept log
        records.  Each caller calls once, so no update depends on the serial
        order."""


class _WalkerRules(_Rules):
    """Rules whose nodes walk the cyclic order: ``next_target`` is a node's
    next target, or -1 where its next call takes a fresh draw, ``_fresh``."""

    def __init__(self, spec, n, entries):
        self.next_target = np.full(entries, -1, dtype=np.int32)

    def draw(self, stack, calls, s, e, c, out):
        self.next_target.take(c, out=out)
        due = np.flatnonzero(out < 0)
        out[due] = self._fresh(stack, calls, s, e, due)


class _HybridRules(_WalkerRules):
    """Walk the cyclic order; an encounter costs one budget unit and sends
    the caller to a random restart, or stops it once the budget is spent.
    The start walks its own successors first and its first encounter is
    free: it begins one encounter in debt, with ``encounters`` at -1 until
    that encounter ends its initial walk."""

    reads_outcomes = True
    _fresh = staticmethod(_random_targets)

    def __init__(self, spec, n, entries):
        super().__init__(spec, n, entries)
        self.stop_budget = spec.stop_budget
        # A count runs from -1 up to the budget at most.
        self.encounters = np.zeros(entries, np.int16 if spec.stop_budget < 2**15 else np.int32)

    def setup(self, state):
        entry = state._base + state.start
        self.next_target[entry] = (state.start + 1) % state.n
        self.encounters[entry] = -1

    def kinds(self, c, out):
        # Random if pending (``_K_RANDOM`` is ``_K_SEQUENTIAL + 1``); only a
        # start can be in debt, so an indebted caller walks its initial run.
        np.add(self.next_target.take(c) < 0, _K_SEQUENTIAL, out=out, dtype=np.int8)
        out[self.encounters.take(c) < 0] = _K_INITIAL

    def settle(self, stack, c, targets, outcomes):
        c = c.astype(np.intp)
        already = outcomes == _O_ALREADY
        # An informing caller, or a walker whose target crashed (no budget
        # spent), walks on; an encounter, or a pending caller's crashed
        # target, leaves it pending, as freshly informed nodes are.
        following = _successors(targets, stack.n)
        pending = self.next_target.take(c) < 0
        np.putmask(following, already | ((outcomes == _O_CRASHED) & pending), -1)
        self.next_target[c] = following
        ac = c.compress(already)
        bumped = self.encounters.take(ac) + 1
        self.encounters[ac] = bumped
        stack._status[ac.compress(bumped >= self.stop_budget)] = _STOPPED


class _SharedListRules(_WalkerRules):
    """Quasirandom with identical lists: walk the shared cyclic order from
    a uniformly random position, one step per call, never stopping; a node
    informed by a call draws its position at its first call."""

    def setup(self, state):
        # The start picks its position on the shared list up front.
        self.next_target[state._base + state.start] = int(state.rng.integers(0, state.n))

    @staticmethod
    def _fresh(stack, calls, s, e, due):
        return _draw_integers(calls, stack.n, s, e, due)

    def settle(self, stack, c, targets, outcomes):
        self.next_target[c.astype(np.intp)] = _successors(targets, stack.n)


class _IndependentListRules(_Rules):
    """Quasirandom with independent lists: each node walks its own uniformly
    random cyclic permutation, materialized lazily one entry at a time.

    ``drawn[e, j]`` is the ``j``-th list entry of the node at stack entry
    ``e``, -1 where not drawn yet; its columns grow as the longest prefix
    does, up to ``n``.  A node's ``list_index`` counts its calls.  No list
    is drawn from once full: a node that has called all ``n`` nodes has
    informed every live one, so its world is complete.
    """

    # Callers tested per block draw; a rejected value costs a re-test of at
    # most this many callers, whatever the round's size.
    CHUNK = 2048

    def __init__(self, spec, n, entries):
        self.n = n
        self.drawn = np.full((entries, 0), -1, dtype=np.int32)
        self.list_index = np.zeros(entries, dtype=np.int32)

    def _widen(self, width: int) -> None:
        rows, old = self.drawn.shape
        if width > self.n:
            raise IndexError(f"a list of all {self.n} nodes has no entry left to draw")
        if width > old:
            # A run takes about log2 n + ln n rounds, so one allocation of
            # 2 log2 n columns mostly suffices; each growth adds half.
            grown = max(old + old // 2, 2 * self.n.bit_length())
            wider = np.empty((rows, min(self.n, max(width, grown))), dtype=np.int32)
            wider[:, :old] = self.drawn
            wider[:, old:] = -1
            self.drawn = wider

    def _draw_fresh(self, rng, callers, idx) -> np.ndarray:
        """Each caller's next list entry: the first value of the stream that
        its prefix does not hold yet, callers (stack entries of one world)
        served in the order given.

        This consumes the generator exactly as one scalar draw per value,
        with a redraw on each rejection, would: ``rng.integers(0, n,
        size=m)`` yields the values, and leaves the state, of ``m`` scalar
        draws, and no more values are drawn than callers are left.
        """
        m = len(callers)
        values = np.empty(m, dtype=np.int32)
        self._widen(int(idx.max()) + 1)
        stream = np.empty(0, dtype=np.int32)  # drawn, not yet handed to a caller
        pos = 0
        while pos < m:
            end = min(pos + self.CHUNK, m)
            if len(stream) < end - pos:
                fresh = rng.integers(0, self.n, size=end - pos - len(stream), dtype=np.int32)
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

    def draw(self, stack, calls, s, e, c, out):
        c = c.astype(np.intp)
        idx = self.list_index.take(c)
        worlds, cuts = calls.split(s, e)
        for world, a, b in zip(worlds, cuts, cuts[1:]):
            out[a:b] = self._draw_fresh(world.rng, c[a:b], idx[a:b])

    def settle(self, stack, c, targets, outcomes):
        self.list_index[c.astype(np.intp)] += 1


class _PushRules(_Rules):
    """Classical push: every call goes to a fresh uniformly random target."""

    KIND = _K_RANDOM

    def draw(self, stack, calls, s, e, c, out):
        out[:] = _random_targets(stack, calls, s, e)


# Each protocol's rules, by name.
_RULES = {
    "hybrid": _HybridRules,
    "quasirandom-identical": _SharedListRules,
    "quasirandom-independent": _IndependentListRules,
    "push": _PushRules,
}


# -- worlds and stacks -------------------------------------------------------


class _Stack:
    """``count`` worlds of one ``(spec, n, start, allow_self_calls)``: world
    ``w``'s node ``i`` is entry ``w * n + i`` of the status, the first-writer
    scratch and every per-node array of the rules; a target id, stored or
    drawn, is a node's id in its own world."""

    def __init__(self, spec, n: int, start: int, allow_self_calls: bool, count: int):
        self.spec = spec
        self.n = n
        self.start = start
        self.allow_self_calls = allow_self_calls
        self.count = count
        self._rules = _RULES[protocol_name(spec)](spec, n, count * n)
        # Entry of each world's first node, and one past the last world's.
        self._edges = np.arange(count + 1, dtype=np.int32) * n
        size = count * n
        self._status = np.zeros(size, dtype=np.int8)
        # The round kernel's first-writer scratch; all sentinel between rounds.
        self._first_serial = np.full(size, _NO_SERIAL, dtype=np.int32)
        # A writable zero-stride int64 view, sliced to a world's call count:
        # shuffling it draws that world's permutation without laying it out.
        self._unread_order = np.lib.stride_tricks.as_strided(np.zeros(1, np.int64), (n,), (0,))


class SimulationState:
    """One world: its generator, crash schedule, per-round record and call log.

    Built by ``init_simulation`` (a world alone) or ``init_stack``; its
    nodes are its stack's entries from ``_base`` on, and ``_status`` is the
    world's slice of the stack's status, indexed by node id.
    """

    def __init__(self, stack: _Stack, index: int, seed, crash_schedule, keep_log: bool):
        if seed is None:
            raise ValueError("seed is required for reproducibility")
        n, start = stack.n, stack.start
        self._stack = stack
        self._rules = stack._rules
        self._index = index
        self._base = index * n
        self.spec = stack.spec
        self.n = n
        self.start = start
        self.rng = np.random.default_rng(seed)
        # Per executed round, (calls, informing calls, crashed-target calls):
        # written by ``_finish_round`` alone; the summary derives from it.
        self.round_counts: list[tuple[int, int, int]] = []

        self.crash_schedule = dict(crash_schedule or {})
        for node, crash_round in self.crash_schedule.items():
            if not 0 <= node < n:
                raise ValueError(f"crash schedule node {node} out of range")
            if node == start:
                raise ValueError("the starting node cannot be crashed")
            if not 0 <= crash_round < 2**63:
                raise ValueError(f"crash round {crash_round} is negative or not below 2**63")
        ordered = sorted(self.crash_schedule.items(), key=lambda kv: (kv[1], kv[0]))
        self._crash_nodes = np.array([node for node, _ in ordered], dtype=np.int64)
        self._crash_rounds = [rnd for _, rnd in ordered]
        self._crash_ptr = 0

        self._status = stack._status[self._base : self._base + n]
        self._status[start] = _INFORMED
        # Uninformed nodes not crashed: the rows do not count crashes.
        self._live_uninformed = n - 1
        self.log: CallLog | None = CallLog() if keep_log else None
        self._rules.setup(self)

    def _apply_crashes(self, upto_round: int) -> None:
        # Schedule nodes are distinct, so none of them is crashed yet.
        end = bisect.bisect_right(self._crash_rounds, upto_round, self._crash_ptr)
        if end == self._crash_ptr:
            return
        nodes = self._crash_nodes[self._crash_ptr : end]
        self._crash_ptr = end
        self._live_uninformed -= int(np.count_nonzero(self._status[nodes] == _UNINFORMED))
        self._status[nodes] = _CRASHED

    @property
    def round(self) -> int:
        """Rounds executed so far."""
        return len(self.round_counts)

    def _finish_round(self, calls: int = 0, informed: int = 0, crashed: int = 0) -> None:
        self._live_uninformed -= informed
        self.round_counts.append((calls, informed, crashed))


def init_stack(
    spec: ProtocolSpec,
    n: int,
    start: int,
    seeds: Sequence,
    crash_schedules: Sequence[dict[int, int] | None],
    *,
    allow_self_calls: bool = True,
    keep_log: bool = False,
) -> list[SimulationState]:
    """Build the round-0 states of ``len(seeds)`` independent worlds in one
    stack: world ``w`` draws from ``seeds[w]`` and crashes by
    ``crash_schedules[w]``; in each, only ``start`` is informed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range for n={n}")
    if len(seeds) == 0 or len(crash_schedules) != len(seeds):
        raise ValueError("need one or more seeds and one crash schedule per seed")
    if len(seeds) * n > MAX_STACK_NODES:
        raise ValueError(
            f"{len(seeds)} worlds of n={n} make {len(seeds) * n} stacked nodes,"
            f" more than {MAX_STACK_NODES}"
        )
    stack = _Stack(spec, n, start, allow_self_calls, len(seeds))
    return [
        SimulationState(stack, index, seed, schedule, keep_log)
        for index, (seed, schedule) in enumerate(zip(seeds, crash_schedules))
    ]


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
    """Build the round-0 state of one world: only ``start`` is informed."""
    (state,) = init_stack(
        spec, n, start, [seed], [crash_schedule],
        allow_self_calls=allow_self_calls, keep_log=keep_log,
    )
    return state


def _empty_round(state: SimulationState) -> bool:
    """Close a round without calls; whether the world stalled."""
    state._finish_round()
    return state._live_uninformed > 0


def _informed(status: np.ndarray) -> np.ndarray:
    """The informed entries, ascending, as int32, found block by block."""
    blocks = [status[a : a + _BLOCK_CALLS] for a in range(0, len(status), _BLOCK_CALLS)]
    ends = list(itertools.accumulate((np.count_nonzero(b == _INFORMED) for b in blocks), initial=0))
    entries = np.empty(ends[-1], dtype=np.int32)
    for i, (block, a, b) in enumerate(zip(blocks, ends, ends[1:])):
        entries[a:b] = np.flatnonzero(block == _INFORMED)
        entries[a:b] += i * _BLOCK_CALLS
    return entries


def _inform_first(stack: _Stack, outcomes: np.ndarray, at: np.ndarray, entries: np.ndarray):
    """Code the calls ``at``, in serial order, to target ``entries``: the
    first at each target still uninformed informs it (a scatter-min into
    the first-writer scratch, reset at once), the others find it informed.
    Returns each world's count of informing calls."""
    status, first = stack._status, stack._first_serial
    # As int32, the scratch's dtype: ``np.minimum.at`` is fast only then.
    positions = np.arange(len(at), dtype=np.int32)
    fresh = status.take(entries) == _UNINFORMED
    entries = entries.astype(np.intp)
    np.minimum.at(first, entries, positions)
    won = (first.take(entries) == positions) & fresh
    first[entries] = _NO_SERIAL
    # ``_O_INFORMED`` is 0 and ``_O_ALREADY`` 1.
    outcomes[at] = np.subtract(_O_ALREADY, won, dtype=np.int8)
    winners = entries.compress(won)
    status[winners] = _INFORMED
    return np.bincount(winners // stack.n, minlength=stack.count)


def _resolve(stack: _Stack, calls: _Calls, targets: np.ndarray, order):
    """The int8 outcome codes of the round's calls, given their target ids
    in caller order and their serialization ``order``, and each world of
    the stack's informing and crashed-target calls, as lists of ints;
    marks the targets they inform.

    Targets crashed before the round stay crashed; among calls to targets
    uninformed at round start, the first at each target in serial order
    informs it, later ones find it already informed.  A pass in caller
    order codes each call an encounter, a crashed-target call or open; a
    pass in serial order, block by block, crowns the open calls, so later
    blocks find earlier ones' targets informed.  With ``order`` None one
    pass in caller order does both: the same targets are informed and the
    same number of calls inform, but a tied target's winner may differ.
    """
    status, k = stack._status, len(targets)
    outcomes = np.empty(k, dtype=np.int8)
    informs, crashes = np.zeros((2, stack.count), dtype=np.int64)
    for s in range(0, k, _BLOCK_CALLS):
        block = slice(s, s + _BLOCK_CALLS)
        entries = calls.entries(targets[block], block)
        coded = _STATUS_OUTCOMES.take(status.take(entries), out=outcomes[block])
        crashed = entries.compress(coded == _O_CRASHED)
        if len(crashed):
            crashes += np.bincount(crashed // stack.n, minlength=stack.count)
        if order is None:
            opened = np.flatnonzero(coded == _O_INFORMED)
            informs += _inform_first(stack, outcomes, opened + s, entries.take(opened))
    if order is not None:
        for s in range(0, k, _BLOCK_CALLS):
            at = order[s : s + _BLOCK_CALLS]
            at = at.compress(outcomes.take(at) == _O_INFORMED).astype(np.intp)
            informs += _inform_first(stack, outcomes, at, calls.entries(targets.take(at), at))
    return outcomes, informs.tolist(), crashes.tolist()


def _execute_rounds(worlds: Sequence[SimulationState]) -> list[bool]:
    """Execute one synchronous round in each of ``worlds``: worlds of one
    stack, in stack order, at one round number.  Returns which stalled.

    In each world, crashes scheduled for this round take effect first.
    Then the protocol's rules draw every caller's target, a fresh random
    permutation serializes the world's calls, the first call in serial
    order to reach each uninformed target informs it (resolution counts
    each world's informing and crashed-target calls), and the protocol's
    rules settle the callers' state.  Each world draws from its own
    generator; the rest runs once over all the worlds' calls, each rules
    step block by block in caller order.  The permutations are read only
    to find those first calls and to write kept logs in serial order, so
    they are laid out only when the rules read the outcomes or a world
    keeps a log; otherwise each world's generator takes the permutation's
    draws on the stack's zero-stride view, and the first calls in caller
    order inform: the informed set, the round's counts and the rules' state
    come out the same.  ``tests/reference_engine.py`` applies the same
    calls one by one; the test suite asserts that both produce the same
    records, state, and RNG consumption.
    """
    stack, rules = worlds[0]._stack, worlds[0]._rules
    executed_round = worlds[0].round + 1
    for world in worlds:
        world._apply_crashes(executed_round)
    # Eligible callers were informed in an earlier round and are neither
    # stopped nor crashed; no call of this round has been applied yet, so
    # they are exactly the informed set.
    callers = _informed(stack._status)
    edges = callers.searchsorted(stack._edges).tolist()

    stalled, calling, segments = [], [], []
    for world in worlds:
        a, b = edges[world._index], edges[world._index + 1]
        if world._live_uninformed == 0 or a == b:
            # Crashes just completed the world, or no one is left to call.
            stalled.append(_empty_round(world))
        else:
            stalled.append(False)
            calling.append(world)
            segments.append((a, b))
    if not calling:
        return stalled
    if len(calling) < stack.count:
        # Worlds of the stack that are done (or not asked to run) keep
        # their informed nodes; leave their calls out.
        callers = np.concatenate([callers[a:b] for a, b in segments])
    bounds = list(itertools.accumulate((b - a for a, b in segments), initial=0))
    calls = _Calls(stack, calling, bounds, callers)
    targets = np.empty(len(callers), dtype=np.int32)
    for s, e, c in calls.blocks():
        rules.draw(stack, calls, s, e, c, targets[s:e])
    # ``permutation(k)`` is ``shuffle(arange(k))``: shuffling each world's
    # slice of one ``arange`` draws its permutation, offset to its calls.
    # Where nothing reads the order, the zero-stride view takes its draws.
    logged = [world.log is not None for world in calling]
    laid_out = rules.reads_outcomes or any(logged)
    # ``shuffle`` is fastest on 8-byte items; beyond a block, the order it
    # keeps until ``settle`` is int32.
    dtype = np.int64 if len(callers) <= _BLOCK_CALLS else np.int32
    order = np.arange(len(callers), dtype=dtype) if laid_out else None
    for world, a, b in zip(calling, bounds, bounds[1:]):
        world.rng.shuffle(order[a:b] if laid_out else stack._unread_order[: b - a])
    outcomes, informs, crashes = _resolve(stack, calls, targets, order)
    if any(logged):
        kinds = np.empty(len(callers), dtype=np.int8)
        for s, e, c in calls.blocks():
            rules.kinds(c, kinds[s:e])
        columns = calls.caller_ids(), targets, kinds, outcomes
        for world, keeps, a, b in zip(calling, logged, bounds, bounds[1:]):
            if keeps:
                world.log.append_round(executed_round, *(x.take(order[a:b]) for x in columns))
        del columns, kinds
    # Settle with the serialization freed: together they would set the
    # round's peak memory.
    del order
    for s, e, c in calls.blocks():
        rules.settle(stack, c, targets[s:e], outcomes[s:e])
    for world, a, b in zip(calling, bounds, bounds[1:]):
        world._finish_round(b - a, informs[world._index], crashes[world._index])
    return stalled


def execute_round(state: SimulationState) -> bool:
    """Execute one synchronous round of one world (see ``_execute_rounds``);
    whether it stalled."""
    (stalled,) = _execute_rounds([state])
    return stalled


def _summary(state: SimulationState, outcome: str) -> TraceSummary:
    """The world's summary, from the columns of its per-round record."""
    calls, informs, crashes = tuple(zip(*state.round_counts)) or ((), (), ())
    total, informing, crashed = sum(calls), sum(informs), sum(crashes)
    return TraceSummary(
        n=state.n,
        outcome=outcome,
        completion_round=state.round if outcome == RUN_COMPLETED else None,
        rounds_executed=state.round,
        total_calls=total,
        informing_calls=informing,
        encounter_calls=total - informing - crashed,
        crashed_target_calls=crashed,
        per_round_informed=tuple(itertools.accumulate(informs, initial=1)),
    )


def _run_worlds(worlds, max_rounds, execute) -> list[TraceSummary]:
    """Run worlds of one stack together until each completes, stalls or
    reaches the round cap; ``execute(live)`` runs one round of the live
    worlds and returns which stalled."""
    cap = default_round_cap(worlds[0].n) if max_rounds is None else max_rounds
    if cap < 1:
        raise ValueError(f"max_rounds must be >= 1, got {cap}")
    summaries = {}
    live = list(worlds)
    while live:
        running = []
        for world in live:
            if world._live_uninformed == 0:
                summaries[world] = _summary(world, RUN_COMPLETED)
            elif world.round >= cap:
                summaries[world] = _summary(world, RUN_CAPPED)
            else:
                running.append(world)
        live = []
        if running:
            for world, stalled in zip(running, execute(running)):
                if stalled:
                    summaries[world] = _summary(world, RUN_STALLED)
                else:
                    live.append(world)
    return [summaries[world] for world in worlds]


def run_stack(worlds: Sequence[SimulationState], max_rounds: int | None = None) -> list[TraceSummary]:
    """``run`` each of ``worlds``, as ``init_stack`` built them, with every
    round of the live worlds executed at once; one summary per world."""
    return _run_worlds(worlds, max_rounds, _execute_rounds)


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
    (summary,) = _run_worlds(
        [state], max_rounds, lambda live: [round_engine(world) for world in live]
    )
    return summary
