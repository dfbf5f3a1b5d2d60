"""Node constructors, one per field count, and the spec's tuple-backed ``CondTrace``.

Every node class gets a constructor for its number of fields (0 to 3).
These tests build nodes of every class with fields no other test uses, so
each node is new when first built, and check that equal fields give one
object, that a wrong field count is a ``TypeError`` and that the slots
which are not fields start out as ``None``.
"""

import random

import pytest

from lagc.localeval import DONE, Pending
from lagc.state import Domain, State, make_state, update
from lagc.syntax import Assign, Node, Num, STAR, Var, holding_nodes
from lagc.trace import singleton

from gens import rand_concrete_state, rand_state
from spec import CondTrace, cond_trace


def _node_classes() -> list:
    """Every node class lagc defines."""
    found, todo = [], [Node]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("lagc."):
                found.append(cls)
    return found


# classes whose own ``__new__`` takes other arguments than their fields
_OWN_CONSTRUCTOR = (State, Domain, Pending)
_CLASSES = [cls for cls in _node_classes() if cls not in _OWN_CONSTRUCTOR]


def _fields(cls, tag: str) -> tuple:
    """Field values that no other test builds a ``cls`` node from."""
    return tuple(("constructor test", tag, cls.__name__, i) for i in range(len(cls._fields)))


def _memo_slots(cls) -> list:
    return [
        name
        for klass in cls.__mro__
        for name in vars(klass).get("__slots__", ())
        if name not in cls._fields and name != "__weakref__"
    ]


def test_every_node_class_is_covered():
    names = {cls.__name__ for cls in _CLASSES}
    assert {"Num", "ABin", "Rel", "If", "While", "Method", "EventAtom", "Cell", "Par"} <= names
    assert {"Star", "Skip", "Done"} <= names
    assert {len(cls._fields) for cls in _CLASSES} == {0, 1, 2, 3}


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_give_one_object(cls):
    fields = _fields(cls, "outside")
    node = cls(*fields)
    assert cls(*fields) is node
    assert Node.__new__(cls, *fields) is node
    assert tuple(getattr(node, name) for name in cls._fields) == fields
    with holding_nodes():
        held = _fields(cls, "held")
        inside = cls(*held)
        assert cls(*held) is inside and cls(*fields) is node
    assert cls(*held) is inside


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_a_wrong_field_count_raises(cls):
    fields = _fields(cls, "count")
    with pytest.raises(TypeError):
        cls(*fields, "one too many")
    if fields:
        with pytest.raises(TypeError):
            cls(*fields[:-1])


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_slots_that_are_not_fields_start_as_none(cls):
    if not cls._fields:
        # the one node of a class without fields may have filled its memo
        # already; a new class of the same shape stands in for it
        cls = type("Fresh" + cls.__name__, (cls,), {"__slots__": ("_memo",)})
    node = cls(*_fields(cls, "memo"))
    assert _memo_slots(cls)
    for name in _memo_slots(cls):
        assert getattr(node, name) is None, name


def test_each_field_count_has_a_constructor_and_four_is_refused():
    for count in range(4):
        names = tuple(f"f{i}" for i in range(count))
        cls = type(f"Fields{count}", (Node,), {"__slots__": names + ("_memo",), "_fields": names})
        node = cls(*range(count))
        assert cls(*range(count)) is node and node._memo is None and node._key is None
    names = ("a", "b", "c", "d")
    with pytest.raises(TypeError):
        type("Fields4", (Node,), {"__slots__": names, "_fields": names})


def test_a_new_state_keeps_its_domain_and_values_and_no_other_fact():
    value = Num(424242)
    sigma = make_state({"constructor::state": value, "y": STAR})
    assert sigma.domain is Domain(("constructor::state", "y"))
    assert sigma.domain.index == {"constructor::state": 0, "y": 1}
    assert sigma.values == (value, STAR)
    assert sigma._concrete is None and sigma._stars is None and sigma._key is None
    assert State(tuple(sigma.entries)) is sigma


def test_pending_builds_one_cell_and_checks_its_arguments():
    stmt = Assign("constructor::pending", Num(7))
    marker = Pending(stmt)
    assert marker.head is stmt and marker.rest is DONE and marker._key is None
    assert Pending(stmt, DONE) is marker is Pending._new(Pending, stmt, DONE)
    with pytest.raises(TypeError):
        Pending()
    with pytest.raises(TypeError):
        Pending(stmt, DONE, DONE)


def test_update_is_the_state_make_state_builds():
    rng = random.Random(31)
    values = [STAR, Num(3), Var("x"), Num(-1)]
    for _ in range(300):
        sigma = rand_state(rng) if rng.random() < 0.5 else rand_concrete_state(rng)
        name, value = rng.choice(["x", "y", "q", "constructor::new"]), rng.choice(values)
        updated = update(sigma, name, value)
        assert updated is make_state({**sigma.as_dict(), name: value})
        assert updated is make_state(list(sigma.entries) + [(name, value)])
        assert updated.lookup(name) is value


def test_cond_trace_is_a_pair():
    sigma = make_state({"x": Num(1)})
    pc, steps = frozenset({Var("b")}), singleton(sigma)
    cond = CondTrace(pc, steps)
    assert cond.pc is pc and cond.trace is steps and tuple(cond) == (pc, steps)
    same = cond_trace((frozenset({Var("b")}), (sigma,)))
    assert type(same) is CondTrace and same == cond and hash(same) == hash(cond)
    assert cond != CondTrace(frozenset(), steps)
    assert repr(cond) == f"CondTrace(pc={pc!r}, trace={steps!r})"

