"""Per-call reference round engine: the oracle the round kernel is tested against.

``execute_round_reference`` collects a round's intents, draws the same
serialization permutation as ``core.execute_round``, and applies the calls
one by one through ``apply_call``.  ``collect_intents`` and ``apply_call``
state every protocol's per-call draw and transition rules on their own;
they share no draw or state-update code with the kernel's rules objects.
The order of random draws is the reproducibility contract both engines
meet: here each caller that needs a random value draws one scalar, in
ascending caller order, where the kernel draws a block.  Independent lists
redraw each value the caller's list already holds, and keep the lists in a
store of their own (``reference_drawn``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rumorsim.core import (
    _CRASHED,
    _INFORMED,
    _O_ALREADY,
    _O_CRASHED,
    _O_INFORMED,
    _OUTCOME_ENUM,
    _STOPPED,
    _UNINFORMED,
    CallKind,
    CallOutcome,
    CallRecord,
    SimulationState,
    _empty_round,
)

# The list-walking protocols, by name.
LISTS = ("quasirandom-identical", "quasirandom-independent")


@dataclass(frozen=True)
class CallIntent:
    caller: int
    target: int
    kind: CallKind


def collect_intents(state: SimulationState) -> list[CallIntent]:
    """The round's calls before serialization, one per eligible caller.

    Eligible callers are the nodes informed in an earlier round that have
    neither stopped nor crashed.  Each caller's target and kind follow the
    README's protocol table; a caller that needs a random value draws it
    from the state RNG, in ascending caller order.  Within a round this
    runs exactly once, as the first step of a round.
    """
    callers = np.nonzero(state._status == _INFORMED)[0].tolist()
    return [CallIntent(caller, *_target_and_kind(state, caller)) for caller in callers]


def _target_and_kind(state: SimulationState, caller: int) -> tuple[int, CallKind]:
    name = state.spec.name
    if name == "push":
        return random_target(state, caller), CallKind.RANDOM
    if name == "quasirandom-independent":
        return independent_list_target(state, caller), CallKind.SEQUENTIAL
    entry = state._base + caller
    target = int(state._rules.next_target[entry])
    if name == "quasirandom-identical":
        # A node informed by a call enters the shared list at a uniformly
        # random position at its first call.
        if target < 0:
            target = int(state.rng.integers(0, state.n))
        return target, CallKind.SEQUENTIAL
    # Hybrid: a pending node (next target -1) restarts at a random target,
    # and a walker calls its next target.  The start alone begins one
    # encounter in debt; until that encounter it walks its own successors.
    if target < 0:
        return random_target(state, caller), CallKind.RANDOM
    if state._rules.encounters[entry] < 0:
        return target, CallKind.INITIAL_SUCCESSOR
    return target, CallKind.SEQUENTIAL


def random_target(state: SimulationState, caller: int) -> int:
    """A uniformly random node; with self-calls off, one of the other n - 1."""
    if state._stack.allow_self_calls:
        return int(state.rng.integers(0, state.n))
    target = int(state.rng.integers(0, state.n - 1))
    return target + (target >= caller)


def reference_drawn(state: SimulationState) -> dict[int, list[int]]:
    """Each independent-list caller's drawn list prefix, as the engine drew
    it; kept apart from the kernel's rules object."""
    return state.__dict__.setdefault("reference_drawn", {})


def independent_list_target(state: SimulationState, caller: int) -> int:
    """The caller's next list entry: a fresh uniformly random node its list
    does not hold yet.  A run never draws from a full list: a caller that
    has called all n nodes has informed every live one."""
    drawn = reference_drawn(state).setdefault(caller, [])
    assert len(drawn) < state.n, "a full list has no entry left to draw"
    while True:
        candidate = int(state.rng.integers(0, state.n))
        if candidate not in drawn:
            break
    drawn.append(candidate)
    return candidate


def _advance_list_caller(state: SimulationState, caller: int, target: int) -> None:
    if state.spec.name == "quasirandom-identical":
        state._rules.next_target[state._base + caller] = (target + 1) % state.n
    else:
        state._rules.list_index[state._base + caller] += 1


def apply_call(
    state: SimulationState, intent: CallIntent, serial_position: int
) -> CallRecord:
    """Apply one serialized call and return its record.

    Draws no randomness; the outcome is determined by the live state:
    uninformed target -> informed (caller keeps walking from the target's
    successor under the hybrid protocol); informed or stopped target ->
    encounter (hybrid callers consume budget and restart or stop);
    crashed target -> counted call with no informing and no budget use
    (walkers advance past it, random callers redraw next round).
    """
    caller, target, kind = intent.caller, intent.target, intent.kind
    record_round = state.round + 1
    state.total_calls += 1
    spec = state.spec
    target_status = state._status[target]
    # A hybrid node's next target; -1 while it is pending a random call.
    entry = state._base + caller
    next_target = state._rules.next_target if spec.name == "hybrid" else None

    if target_status == _CRASHED:
        outcome = _O_CRASHED
        state.crashed_target_calls += 1
        if spec.name == "hybrid":
            if next_target[entry] >= 0:
                next_target[entry] = (target + 1) % state.n
            # Pending callers stay pending and redraw next round.
        elif spec.name in LISTS:
            _advance_list_caller(state, caller, target)
    elif target_status == _UNINFORMED:
        outcome = _O_INFORMED
        state.informing_calls += 1
        state._status[target] = _INFORMED
        state._live_uninformed -= 1
        if spec.name == "hybrid":
            # The target is pending since round 0: a freshly informed node
            # opens with a random call; only the starting node begins on
            # its own successor run.
            next_target[entry] = (target + 1) % state.n
        elif spec.name in LISTS:
            _advance_list_caller(state, caller, target)
            # The target picks its own list position at its first call.
    else:
        outcome = _O_ALREADY
        state.encounter_calls += 1
        if spec.name == "hybrid":
            encounters = state._rules.encounters
            encounters[entry] += 1
            # The caller draws a fresh target next round, unless it stops:
            # a stopped node never calls again.
            next_target[entry] = -1
            # The start begins one encounter in debt (its first is free).
            if encounters[entry] >= spec.stop_budget:
                state._status[caller] = _STOPPED
        elif spec.name in LISTS:
            _advance_list_caller(state, caller, target)

    record = CallRecord(
        round=record_round,
        caller=int(caller),
        target=int(target),
        kind=kind,
        outcome=_OUTCOME_ENUM[outcome],
        serial_position=serial_position,
    )
    if state.log is not None:
        reference_log(state).append(record)
    return record


def reference_log(state: SimulationState) -> list[CallRecord]:
    """The records ``apply_call`` made on a state that keeps a log, in order;
    the engine keeps them in a list of its own, apart from ``state.log``."""
    return state.__dict__.setdefault("reference_log", [])


def execute_round_reference(state: SimulationState) -> bool:
    """Per-call statement of ``core.execute_round``; usable as ``run``'s
    ``round_engine``.  Returns whether the round stalled."""
    executed_round = state.round + 1
    state._apply_crashes(executed_round)
    if state._live_uninformed == 0:
        return _empty_round(state, executed_round)
    intents = collect_intents(state)
    k = len(intents)
    if k == 0:
        return _empty_round(state, executed_round)
    order = state.rng.permutation(k)
    informed = 0
    for position, intent_index in enumerate(order):
        record = apply_call(state, intents[int(intent_index)], position)
        informed += record.outcome is CallOutcome.INFORMED
    state._finish_round(executed_round, informed)
    return False
