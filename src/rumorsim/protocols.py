"""Protocol variant descriptors.

Three push-only dissemination protocols run on the complete graph with a
shared cyclic node order:

* ``Hybrid``: informed nodes walk the cyclic order, restart at a uniformly
  random node whenever they call an already-informed one, and stop for good
  after ``stop_budget`` such encounters.
* ``Quasirandom``: informed nodes walk a cyclic list from a uniformly random
  start position, one call per round, never restarting and never stopping.
  Lists are either the shared cyclic order (``identical``) or an independent
  uniformly random cyclic permutation per node (``independent``).
* ``FullyRandomPush``: the classical baseline; every informed node calls a
  uniformly random node each round.
"""

from __future__ import annotations

from dataclasses import dataclass

LISTS_IDENTICAL = "identical"
LISTS_INDEPENDENT = "independent"


@dataclass(frozen=True)
class Hybrid:
    """Cyclic-walk protocol with random restarts and a stop budget.

    ``stop_budget`` is the number of encounters (calls that hit an
    already-informed node) after which a node permanently stops calling.
    The starting node gets one extra encounter: its initial walk down the
    cyclic order ends with an encounter that does not count against the
    budget.
    """

    stop_budget: int

    def __post_init__(self) -> None:
        if self.stop_budget < 1:
            raise ValueError(f"stop_budget must be >= 1, got {self.stop_budget}")


@dataclass(frozen=True)
class Quasirandom:
    """List-walk protocol without restarts; ``lists`` picks the list model."""

    lists: str = LISTS_IDENTICAL

    def __post_init__(self) -> None:
        if self.lists not in (LISTS_IDENTICAL, LISTS_INDEPENDENT):
            raise ValueError(f"unknown list model: {self.lists!r}")


@dataclass(frozen=True)
class FullyRandomPush:
    """Classical push baseline: one uniformly random call per node per round."""


ProtocolSpec = Hybrid | Quasirandom | FullyRandomPush

# Every name ``protocol_from_name`` accepts, in CLI listing order.
PROTOCOL_NAMES = ("hybrid", "quasirandom-identical", "quasirandom-independent", "push")


def protocol_name(spec: ProtocolSpec) -> str:
    """Stable textual name of a protocol variant (as used by the CLI)."""
    if isinstance(spec, Hybrid):
        return "hybrid"
    if isinstance(spec, Quasirandom):
        return f"quasirandom-{spec.lists}"
    if isinstance(spec, FullyRandomPush):
        return "push"
    raise TypeError(f"not a protocol spec: {spec!r}")


def protocol_from_name(name: str, stop_budget: int | None = None) -> ProtocolSpec:
    """Build a protocol spec from its CLI name.

    ``hybrid`` requires ``stop_budget``; the other variants reject it.
    """
    if name == "hybrid":
        if stop_budget is None:
            raise ValueError("protocol 'hybrid' requires a stop budget")
        return Hybrid(stop_budget=stop_budget)
    if stop_budget is not None:
        raise ValueError(f"protocol {name!r} does not take a stop budget")
    if name == "quasirandom-identical":
        return Quasirandom(lists=LISTS_IDENTICAL)
    if name == "quasirandom-independent":
        return Quasirandom(lists=LISTS_INDEPENDENT)
    if name == "push":
        return FullyRandomPush()
    raise ValueError(f"unknown protocol name: {name!r}")
