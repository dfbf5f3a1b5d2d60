"""The order of state values, checked against the rule frozen from when each was wrapped.

A state maps a variable to an arithmetic expression or to ``*``.  Each
expression used to sit in a ``StoredExp`` node, and ``canon_key`` orders
nodes by class name first, so ``*`` (a ``Star``) came before every stored
expression, and stored expressions compared by their expressions' keys.
The output order of trace sets rests on that rule; ``_frozen_key`` keeps
it, over a key defined here by recursion on the fields, independent of
``lagc``'s own.  ``canon_key``, ``render._ordered`` and ``render._atom_ranks``
must order exactly as it does, on inputs where one variable holds ``*``,
numerals, variables and operations.
"""

import json
import random
from enum import Enum

from lagc import render
from lagc.render import render_traces
from lagc.state import State, make_state
from lagc.syntax import ABin, ArithOp, Num, STAR, Var, canon_key

from gens import rand_mixed_state, rand_trace

NAMES = ("x", "y")


def _stored_key(value) -> tuple:
    """The key of a state value as its wrapper node had it: ``*`` before every expression."""
    if value is STAR:
        return (5, "Star", ())
    return (5, "StoredExp", (_frozen_key(value),))


def _frozen_key(value) -> tuple:
    """``canon_key`` as it was while state values were wrapped, by recursion on the fields."""
    if isinstance(value, bool):
        return (0, 0, int(value))
    if isinstance(value, int):
        return (0, 1, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(_frozen_key(v) for v in value))
    if isinstance(value, Enum):
        return (4, type(value).__name__, value.name)
    if isinstance(value, State):
        entries = tuple((2, ((1, name), _stored_key(v))) for name, v in value.entries)
        return (5, "State", ((2, entries),))
    return (5, type(value).__name__, tuple(_frozen_key(getattr(value, n)) for n in value._fields))


def _assert_same_order(items, key):
    """``key`` orders ``items`` exactly as ``_frozen_key`` does, ties included."""
    assert sorted(items, key=key) == sorted(items, key=_frozen_key)
    for a in items:
        for b in items:
            assert (key(a) < key(b)) == (_frozen_key(a) < _frozen_key(b)), (a, b)
            assert (key(a) == key(b)) == (_frozen_key(a) == _frozen_key(b)), (a, b)


def _kinds(states) -> set:
    """The kinds of value that ``x`` holds across ``states``."""
    return {type(sigma.lookup("x")).__name__ for sigma in states if "x" in sigma}


def test_canon_key_orders_states_as_the_frozen_rule():
    rng = random.Random(301)
    for _ in range(40):
        states = list({rand_mixed_state(rng, NAMES) for _ in range(rng.randint(2, 30))})
        _assert_same_order(states, canon_key)
    assert _kinds(states) == {"Star", "Num", "Var", "ABin"}


def test_sorted_traces_and_atom_ranks_order_as_the_frozen_rule():
    rng = random.Random(302)
    kinds = set()
    for _ in range(60):
        traces = {
            rand_trace(rng, NAMES, max_len=3, state=rand_mixed_state)
            for _ in range(rng.randint(2, 12))
        }
        assert render._ordered(traces)[0] == sorted(traces, key=_frozen_key)
        atoms = set().union(*traces)
        ranks = render._atom_ranks(atoms)
        _assert_same_order(list(atoms), ranks.__getitem__)
        kinds |= _kinds(atom for atom in atoms if isinstance(atom, State))
    assert kinds == {"Star", "Num", "Var", "ABin"}


def test_render_puts_star_before_every_expression():
    # bare keys would order these x + 1, -3, *, y: ``ABin < Num < Star < Var``
    x_plus_1 = ABin(Var("x"), ArithOp.ADD, Num(1))
    values = [Var("y"), Num(-3), STAR, x_plus_1]
    traces = {(make_state({"x": value, "y": Num(0)}),) for value in values}
    texts = ["*", "x + 1", "-3", "y"]
    assert render_traces(traces, "text") == "4 traces\n\n" + "\n\n".join(
        f"{{x={text}, y=0}}" for text in texts
    ) + "\n"
    payload = json.loads(render_traces(traces, "json"))
    assert payload == {"traces": [[{"state": {"x": text, "y": "0"}}] for text in texts]}
    # and inside one trace's later state, with the rest of the trace equal
    start = make_state({"x": Num(0)})
    traces = {(start, make_state({"x": value})) for value in values}
    rows = render_traces(traces, "text").split("\n\n")[1:]
    assert [row.strip() for row in rows] == [f"{{x=0}} ~> {{x={text}}}" for text in texts]
