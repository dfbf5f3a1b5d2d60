"""Hash-consed syntax nodes: one object per value, dropped when nothing holds it.

Equal nodes are the same object however they were built, so equality is
identity; states and trace atoms are nodes too.  The table of nodes holds
them weakly, so a node nobody refers to leaves it and repeated runs do not
grow it.  ``canon_key``, memoized
per node, gives the keys of the recursive definition it replaced.
"""

import gc
import random
import subprocess
import sys
import weakref
from enum import Enum

import pytest

from lagc import cli, syntax
from lagc.compose import ComposePolicy
from lagc.concretize import apply_conc_state
from lagc.localeval import Pending, valuate
from lagc.parser import parse_program
from lagc.state import initial_state, make_state, update
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    Assign,
    Method,
    MethodRef,
    Neg,
    Node,
    Num,
    Program,
    Rel,
    RelOp,
    STAR,
    Seq,
    StoredExp,
    Var,
    While,
    canon_key,
    substitute,
)
from lagc.trace import EventAtom, EventKind, StateAtom, gen_event

from gens import rand_concrete_trace, rand_ext_stmt, rand_state, rand_trace, rand_wl_stmt

SOURCE = "x := y + 1 ;; while x <= 3 do x := x + 1 od"


def _built() -> Program:
    step = Assign("x", ABin(Var("x"), ArithOp.ADD, Num(1)))
    loop = While(Rel(Var("x"), RelOp.LEQ, Num(3)), step)
    return Program((), Seq(Assign("x", ABin(Var("y"), ArithOp.ADD, Num(1))), loop))


def test_equal_nodes_built_separately_are_one_object():
    parsed = parse_program(SOURCE)
    assert parse_program(SOURCE) is parsed
    assert _built() is parsed
    assert substitute(parsed, "x", "z") is parse_program(SOURCE.replace("x", "z"))
    assert substitute(substitute(parsed, "x", "z"), "z", "x") is parsed
    loop = parsed.main.second
    held, failed = valuate(loop, make_state({"x": STAR}), "wl")
    assert held.cond.pc == {loop.cond}
    (negated,) = failed.cond.pc
    assert negated is Neg(loop.cond)


def test_random_statements_built_twice_are_one_object():
    for seed in range(50):
        first = rand_ext_stmt(random.Random(seed), 6)
        second = rand_ext_stmt(random.Random(seed), 6)
        assert first is second
        assert Pending(first) == Pending(second)


def test_equal_states_built_separately_are_one_object():
    one, two = StoredExp(Num(1)), StoredExp(Num(2))
    sigma = make_state({"x": one, "y": STAR})
    assert make_state([("y", STAR), ("x", one)]) is sigma
    assert make_state([("x", two), ("y", STAR), ("x", one)]) is sigma
    assert update(make_state({"y": STAR}), "x", one) is sigma
    assert update(update(sigma, "x", two), "x", one) is sigma
    rho = make_state({"y": two})
    assert apply_conc_state(rho, sigma) is make_state({"x": one, "y": two})
    zero = StoredExp(Num(0))
    assert initial_state(["y", "x", "y"]) is make_state({"x": zero, "y": zero})
    assert sigma.lookup("x") is one and "y" in sigma and len(sigma) == 2
    assert StateAtom(sigma) is StateAtom(make_state({"y": STAR, "x": one}))


def test_equal_event_atoms_are_one_object():
    sigma = make_state({"x": StoredExp(Num(3))})
    args = (MethodRef("m"), ArithExp(Var("x")))
    first = gen_event(EventKind.INVOKE, sigma, args)
    second = gen_event(EventKind.INVOKE, make_state({"x": StoredExp(Num(3))}), args)
    assert all(a is b for a, b in zip(first, second))
    assert first[1] is EventAtom(EventKind.INVOKE, (MethodRef("m"), ArithExp(Num(3))))
    assert first[0] is first[2] is StateAtom(sigma)
    assert gen_event(EventKind.REACT, sigma, args)[1] is not first[1]


def test_a_node_nothing_holds_leaves_the_table():
    gc.collect()
    before = len(syntax._interned)
    node = ABin(Var("only_here"), ArithOp.MUL, Num(987654321))
    assert len(syntax._interned) == before + 3
    gone = weakref.ref(node)
    del node
    gc.collect()
    assert gone() is None
    assert len(syntax._interned) == before


def test_a_state_nothing_holds_leaves_the_table():
    gc.collect()
    before = len(syntax._interned)
    sigma = make_state({"only_here": STAR})
    atom = StateAtom(sigma)
    assert len(syntax._interned) == before + 2
    gone = weakref.ref(sigma)
    del sigma, atom
    gc.collect()
    assert gone() is None
    assert len(syntax._interned) == before


def test_nodes_are_immutable():
    node = Var("x")
    with pytest.raises(AttributeError):
        node.name = "y"
    with pytest.raises(AttributeError):
        del node.name
    assert node.name == "x" and node is Var("x")


def test_repeated_commands_leave_the_table_the_same_size(tmp_path, capsys):
    path = tmp_path / "calls.lagc"
    path.write_text(
        "program { method m(v){ scope(t){ t := v ;; x := x + t } } "
        "main { co call m(1) || input y oc ;; while x <= 3 do x := x + 1 od } }",
        encoding="utf-8",
    )
    sizes = []
    for _ in range(5):
        assert cli.main(["traces", str(path)]) == 0
        gc.collect()
        sizes.append(len(syntax._interned))
    assert len(set(sizes)) == 1, sizes
    assert capsys.readouterr().out.count("traces\n") == 5


def _reference_key(value):
    """The recursive ``canon_key`` from before nodes were interned, walking every field."""
    if isinstance(value, bool):
        return (0, 0, int(value))
    if isinstance(value, int):
        return (0, 1, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(_reference_key(v) for v in value))
    if isinstance(value, frozenset):
        return (3, tuple(sorted(_reference_key(v) for v in value)))
    if isinstance(value, Enum):
        return (4, type(value).__name__, value.name)
    # the fields the dataclasses declared, in order
    parts = tuple(_reference_key(getattr(value, name)) for name in value._fields)
    return (5, type(value).__name__, parts)


def test_canon_key_matches_the_recursive_definition():
    rng = random.Random(71)
    values = []
    for _ in range(60):
        stmt = rand_ext_stmt(rng, rng.randint(1, 8))
        values += [stmt, Pending(stmt), rand_wl_stmt(rng, rng.randint(1, 8))]
        values.append(Program((Method("m0", "v", rand_ext_stmt(rng, 3)),), stmt))
        trace = rand_trace(rng)
        values += [rand_state(rng), trace, *trace, frozenset(rand_trace(rng))]
        values += [rand_concrete_trace(rng), *gen_event(EventKind.INPUT, trace[-1].state, ())]
    for value in values:
        assert canon_key(value) == _reference_key(value), value
    assert sorted(values, key=canon_key) == sorted(values, key=_reference_key)
    node = values[0]
    assert canon_key(node) is canon_key(node)
    # markers are nodes too; a policy is a plain named tuple
    assert isinstance(node, Node) and isinstance(values[1], Node)
    policy = ComposePolicy(increment=7)
    assert canon_key(policy) == _reference_key(policy)
    assert isinstance(policy, tuple) and not isinstance(policy, Node)


def test_importing_the_cli_does_not_load_dataclasses():
    result = subprocess.run(
        [sys.executable, "-c", "import lagc.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
