"""Protocol specs: names, stop budgets, and building a spec from its name."""

import dataclasses

import numpy as np
import pytest

from rumorsim.core import init_simulation
from rumorsim.protocols import (
    PROTOCOL_NAMES,
    FullyRandomPush,
    Hybrid,
    Quasirandom,
    protocol_from_name,
    protocol_name,
)


def test_specs_name_themselves():
    assert (Hybrid(2).name, Hybrid(2).stop_budget) == ("hybrid", 2)
    assert (Quasirandom().name, Quasirandom().stop_budget) == ("quasirandom-identical", None)
    assert Quasirandom("independent").name == "quasirandom-independent"
    assert (FullyRandomPush().name, FullyRandomPush().stop_budget) == ("push", None)


def test_name_and_budget_constants_are_not_fields():
    # Equality, hashing and repr see only the fields they saw before.
    assert [f.name for f in dataclasses.fields(Hybrid)] == ["stop_budget"]
    assert [f.name for f in dataclasses.fields(Quasirandom)] == ["lists"]
    assert dataclasses.fields(FullyRandomPush) == ()
    assert repr(Hybrid(3)) == "Hybrid(stop_budget=3)"
    assert repr(Quasirandom("independent")) == "Quasirandom(lists='independent')"
    assert repr(FullyRandomPush()) == "FullyRandomPush()"
    assert Hybrid(3) == Hybrid(3) and hash(Hybrid(3)) == hash(Hybrid(3))
    assert Quasirandom() == Quasirandom("identical") != Quasirandom("independent")


@pytest.mark.parametrize("budget", [1, 7, np.int64(2), np.int32(3), np.uint8(4)])
def test_hybrid_accepts_integer_budgets(budget):
    assert Hybrid(budget).stop_budget == budget


@pytest.mark.parametrize("budget", [1.5, 2.0, True, False, np.float64(2.0), np.bool_(True), "2", None])
def test_hybrid_rejects_non_integer_budgets(budget):
    with pytest.raises(ValueError, match="stop_budget must be an integer"):
        Hybrid(budget)


@pytest.mark.parametrize("budget", [0, -1, np.int64(0)])
def test_hybrid_rejects_budgets_below_one(budget):
    with pytest.raises(ValueError, match="stop_budget must be >= 1"):
        Hybrid(budget)


def test_quasirandom_rejects_an_unknown_list_model():
    with pytest.raises(ValueError, match="unknown list model: 'bogus'"):
        Quasirandom("bogus")


def test_protocol_from_name_builds_each_spec():
    assert PROTOCOL_NAMES == ("hybrid", "quasirandom-identical", "quasirandom-independent", "push")
    specs = [Hybrid(3), Quasirandom("identical"), Quasirandom("independent"), FullyRandomPush()]
    for name, spec in zip(PROTOCOL_NAMES, specs):
        assert protocol_from_name(name, spec.stop_budget) == spec
        assert protocol_name(spec) == name


@pytest.mark.parametrize("name, budget, message", [
    ("bogus", None, "unknown protocol name: 'bogus'"),
    ("bogus", 3, "unknown protocol name: 'bogus'"),
    ("hybrid", None, "protocol 'hybrid' requires a stop budget"),
    ("push", 2, "protocol 'push' does not take a stop budget"),
    ("quasirandom-identical", 1, "protocol 'quasirandom-identical' does not take a stop budget"),
])
def test_protocol_from_name_messages(name, budget, message):
    with pytest.raises(ValueError) as excinfo:
        protocol_from_name(name, stop_budget=budget)
    assert str(excinfo.value) == message


def test_non_spec_is_a_type_error():
    for thing in ("hybrid", 2, None, object()):
        with pytest.raises(TypeError, match="not a protocol spec"):
            protocol_name(thing)
        with pytest.raises(TypeError, match="not a protocol spec"):
            init_simulation(thing, 4, seed=1)

