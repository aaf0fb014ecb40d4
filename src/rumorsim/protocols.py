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

Each spec names itself: ``name`` is its CLI name, and ``stop_budget`` is
``None`` for the protocols that never stop.  The kernel and the verifier
each key their rules by ``name``; this module is the only one that reads a
spec's type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from numbers import Integral

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

    name = "hybrid"
    stop_budget: int

    def __post_init__(self) -> None:
        if isinstance(self.stop_budget, bool) or not isinstance(self.stop_budget, Integral):
            raise ValueError(f"stop_budget must be an integer, got {self.stop_budget!r}")
        if self.stop_budget < 1:
            raise ValueError(f"stop_budget must be >= 1, got {self.stop_budget}")


@dataclass(frozen=True)
class Quasirandom:
    """List-walk protocol without restarts; ``lists`` picks the list model."""

    stop_budget = None
    lists: str = LISTS_IDENTICAL

    def __post_init__(self) -> None:
        if self.lists not in (LISTS_IDENTICAL, LISTS_INDEPENDENT):
            raise ValueError(f"unknown list model: {self.lists!r}")

    @property
    def name(self) -> str:
        return f"quasirandom-{self.lists}"


@dataclass(frozen=True)
class FullyRandomPush:
    """Classical push baseline: one uniformly random call per node per round."""

    name = "push"
    stop_budget = None


ProtocolSpec = Hybrid | Quasirandom | FullyRandomPush

# Each CLI name's spec factory, in CLI listing order; ``Hybrid`` is the one
# that takes a stop budget.
_FACTORIES = {
    "hybrid": Hybrid,
    "quasirandom-identical": partial(Quasirandom, LISTS_IDENTICAL),
    "quasirandom-independent": partial(Quasirandom, LISTS_INDEPENDENT),
    "push": FullyRandomPush,
}

# Every name ``protocol_from_name`` accepts, in CLI listing order.
PROTOCOL_NAMES = tuple(_FACTORIES)


def protocol_name(spec: ProtocolSpec) -> str:
    """Stable textual name of a protocol variant (as used by the CLI)."""
    if not isinstance(spec, (Hybrid, Quasirandom, FullyRandomPush)):
        raise TypeError(f"not a protocol spec: {spec!r}")
    return spec.name


def protocol_from_name(name: str, stop_budget: int | None = None) -> ProtocolSpec:
    """Build a protocol spec from its CLI name.

    ``hybrid`` requires ``stop_budget``; the other variants reject it.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown protocol name: {name!r}")
    if factory is Hybrid:
        if stop_budget is None:
            raise ValueError("protocol 'hybrid' requires a stop budget")
        return Hybrid(stop_budget)
    if stop_budget is not None:
        raise ValueError(f"protocol {name!r} does not take a stop budget")
    return factory()
