"""Hash-consed syntax nodes: one object per value, dropped when nothing holds it.

Equal nodes are the same object however they were built, so equality is
identity; states and events are nodes too, and a state is its own trace
atom.  The table of nodes holds
them weakly, so a node nobody refers to leaves it and repeated runs do not
grow it.  Inside a ``holding_nodes`` block new nodes go to the block's
arena instead, with no weak reference, and the ones still held when the
block ends move to the weak table.  ``canon_key``, memoized
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
from lagc.localeval import Pending, step
from lagc.parser import parse_program
from lagc.state import State, initial_state, make_state, update
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
    Var,
    While,
    canon_key,
    holding_nodes,
    substitute,
)
from lagc.trace import EventAtom, EventKind, gen_event, singleton

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
    (held, _, _), (failed, _, _) = step(Pending(loop), make_state({"x": STAR}), "wl", 100)
    assert held == {loop.cond}
    (negated,) = failed
    assert negated is Neg(loop.cond)


def test_random_statements_built_twice_are_one_object():
    for seed in range(50):
        first = rand_ext_stmt(random.Random(seed), 6)
        second = rand_ext_stmt(random.Random(seed), 6)
        assert first is second
        assert Pending(first) == Pending(second)


def test_equal_states_built_separately_are_one_object():
    one, two = Num(1), Num(2)
    sigma = make_state({"x": one, "y": STAR})
    assert make_state([("y", STAR), ("x", one)]) is sigma
    assert make_state([("x", two), ("y", STAR), ("x", one)]) is sigma
    assert update(make_state({"y": STAR}), "x", one) is sigma
    assert update(update(sigma, "x", two), "x", one) is sigma
    rho = make_state({"y": two})
    assert apply_conc_state(rho, sigma) is make_state({"x": one, "y": two})
    zero = Num(0)
    assert initial_state(["y", "x", "y"]) is make_state({"x": zero, "y": zero})
    assert sigma.lookup("x") is one and "y" in sigma and len(sigma) == 2
    assert sigma is make_state({"y": STAR, "x": one})


def test_equal_event_atoms_are_one_object():
    sigma = make_state({"x": Num(3)})
    args = (MethodRef("m"), ArithExp(Var("x")))
    first = gen_event(EventKind.INVOKE, sigma, args)
    second = gen_event(EventKind.INVOKE, make_state({"x": Num(3)}), args)
    assert all(a is b for a, b in zip(first, second))
    assert first[1] is EventAtom(EventKind.INVOKE, (MethodRef("m"), ArithExp(Num(3))))
    assert first[0] is first[2] is sigma
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
    # a state is its own trace atom, so it adds one entry and no wrapper
    assert len(syntax._interned) == before + 1
    gone = weakref.ref(sigma)
    del sigma
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
    calls = tmp_path / "calls.lagc"
    calls.write_text(
        "program { method m(v){ scope(t){ t := v ;; x := x + t } } "
        "main { co call m(1) || input y oc ;; while x <= 3 do x := x + 1 od } }",
        encoding="utf-8",
    )
    # a command that fails: the loop runs out of rounds (exit 3), and the
    # error's traceback holds the frames of the walk while it is reported
    diverges = tmp_path / "diverges.wl"
    diverges.write_text("x := 0 ;; while x >= 0 do x := x + 1 od", encoding="utf-8")
    inputs = [
        (["traces", str(calls)], 0),
        (["traces", str(diverges), "--lang", "wl", "--max-rounds", "5", "--increment", "20"], 3),
    ]
    for argv, code in inputs:
        sizes = []
        for _ in range(5):
            assert cli.main(argv) == code
            gc.collect()
            sizes.append(len(syntax._interned))
        assert len(set(sizes)) == 1, (argv, sizes)
    captured = capsys.readouterr()
    assert captured.out.count("traces\n") == 5
    assert captured.err.count("error: no fixpoint after 5 rounds") == 5


@pytest.fixture
def weak_refs(monkeypatch) -> list:
    """Each weak reference the table builds from now on, counted as it is built."""
    built = []

    class Counting(syntax._Ref):
        __slots__ = ()

        def __init__(self, node, callback):
            super().__init__(node, callback)
            built.append(self)

    monkeypatch.setattr(syntax, "_Ref", Counting)
    return built


def test_a_command_builds_its_nodes_without_weak_references(tmp_path, capsys, weak_refs):
    countdown = tmp_path / "countdown.wl"
    countdown.write_text("x := 3000 ;; while x >= 1 do x := x - 1 od", encoding="utf-8")
    calls = tmp_path / "calls.ext"
    calls.write_text(
        "program { method m(v){ x := v } main { call m(1) ;; "
        + " ;; ".join(f"y := {i}" for i in range(30))
        + " } }",
        encoding="utf-8",
    )
    diverges = tmp_path / "diverges.wl"
    diverges.write_text("x := 0 ;; while x >= 0 do x := x + 1 od", encoding="utf-8")
    inputs = [
        (["traces", str(countdown), "--lang", "wl"], 0),
        (["traces", str(calls)], 0),
        # the error is reported before the arena is swept, so the nodes its
        # traceback held are dropped, not moved to the weak table
        (["traces", str(diverges), "--lang", "wl", "--max-rounds", "5", "--increment", "400"], 3),
    ]
    for argv, code in inputs:
        weak_refs.clear()
        assert cli.main(argv) == code
        # only the few nodes the command leaves behind in caches get one
        assert len(weak_refs) < 20, argv
    assert capsys.readouterr().out.startswith("1 trace\n")
    # outside every block a new node still enters the weak table
    weak_refs.clear()
    Num(7_000_001)
    assert len(weak_refs) == 1


def test_a_node_kept_after_a_block_is_found_again(weak_refs):
    with holding_nodes():
        kept = Var("kept after the block")
        # only ``escaped`` holds its two fields when the block ends, and it is newer
        escaped = ABin(Num(7_000_002), ArithOp.ADD, Var("held only by a newer node"))
        dropped = Var("dropped at the end of the block")
        gone = weakref.ref(dropped)
        assert not weak_refs
        del dropped
    assert gone() is None
    assert Var("kept after the block") is kept
    assert Num(7_000_002) is escaped.left
    assert Var("held only by a newer node") is escaped.right
    assert ABin(Num(7_000_002), ArithOp.ADD, Var("held only by a newer node")) is escaped
    # the nodes still held moved to the weak table and leave it when they die
    assert {ref() for ref in weak_refs} >= {kept, escaped, escaped.left, escaped.right}
    # a counted reference knows its key, and so holds the key's fields
    weak_refs.clear()
    gc.collect()
    before = len(syntax._interned)
    del kept, escaped
    gc.collect()
    assert len(syntax._interned) == before - 4


def test_a_loop_marker_and_its_body_marker_are_freed():
    gc.collect()
    before = len(syntax._interned)
    with holding_nodes():
        increment = Assign("w", ABin(Var("w"), ArithOp.ADD, Num(1)))
        loop = While(Rel(Var("w"), RelOp.LEQ, Num(7_000_003)), increment)
        marker = Pending(loop)
        step(marker, make_state({"w": Num(0)}), "wl", 100)
        body = marker._body()
        assert body.rest is marker
        refs = weakref.ref(marker), weakref.ref(body)
        del increment, loop, marker, body
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert len(syntax._interned) == before


def test_a_wl_step_adds_only_the_nodes_of_its_new_value_and_state():
    with holding_nodes():
        arena = syntax._arena
        increment = Assign("w", ABin(Var("w"), ArithOp.ADD, Num(1)))
        loop = While(Rel(Var("w"), RelOp.LEQ, Num(7_000_005)), increment)
        marker = Pending(loop)
        # the body's marker, which the first test of the loop would build
        Pending(increment, marker)
        sigma = make_state({"w": Num(7_000_006)})
        before = len(arena)
        # a loop test builds nothing: each branch's trace is the state itself
        steps = step(marker, sigma, "wl", 100)
        assert [trace for _, trace, _ in steps] == [(sigma,), (sigma,)]
        assert len(arena) == before
        ((_, trace, _),) = step(steps[0][2], sigma, "wl", 100)
        # an assignment of a fresh value builds the Num, which the state
        # holds as it is, and the new state, which is its own trace atom
        assert len(arena) == before + 2
        assert trace == (sigma, make_state({"w": Num(7_000_007)}))
        assert trace[1] is list(arena.values())[-1]


def test_a_singleton_trace_is_the_state_itself():
    rng = random.Random(29)
    for _ in range(50):
        sigma = rand_state(rng)
        assert singleton(sigma) == (sigma,)


def test_canon_key_ranks_every_event_before_every_state():
    # ``render._atom_ranks`` and the canonical order of traces rely on it
    rng = random.Random(30)
    atoms = {atom for _ in range(100) for atom in rand_trace(rng)}
    events = [atom for atom in atoms if isinstance(atom, EventAtom)]
    states = [atom for atom in atoms if isinstance(atom, State)]
    assert events and states and len(events) + len(states) == len(atoms)
    assert max(map(canon_key, events)) < min(map(canon_key, states))


def test_nested_blocks_share_one_arena():
    assert syntax._arena is None
    with holding_nodes():
        arena = syntax._arena
        with holding_nodes():
            assert syntax._arena is arena
            inner = Num(7_000_004)
        # the inner block's end dropped nothing: its node is still in the arena
        assert syntax._arena is arena
        assert arena[Num, 7_000_004] is inner
        assert Num(7_000_004) is inner
    assert syntax._arena is None
    assert Num(7_000_004) is inner


def _reference_key(value):
    """The recursive ``canon_key`` from before nodes were interned, walking every field.

    A state keys each value by the documented state rule: ``*`` as
    ``(0,)``, before every arithmetic expression, which is keyed as
    ``(1, its own key)``.
    """
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
    if isinstance(value, State):
        entries = tuple(
            (2, (_reference_key(name), (0,) if v is STAR else (1, _reference_key(v))))
            for name, v in value.entries
        )
        return (5, "State", ((2, entries),))
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
        values += [rand_concrete_trace(rng), *gen_event(EventKind.INPUT, trace[-1], ())]
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
