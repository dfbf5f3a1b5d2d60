import random
import sys
from functools import reduce

import pytest

from lagc.compose import initial_state_for
from lagc.parser import parse_program
from lagc.state import initial_state, make_state
from lagc.syntax import (
    EXT_ONLY,
    STAR,
    ABin,
    ArithExp,
    ArithOp,
    Assign,
    BBin,
    BoolExp,
    BoolLit,
    Call,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    Method,
    MethodRef,
    Neg,
    Num,
    Program,
    Rel,
    RelOp,
    Seq,
    Skip,
    Star,
    Var,
    While,
    canon_key,
    language_check,
    occurrences,
    seq_spine,
    substitute,
)

from lagc.trace import EventAtom

from gens import rand_aexp, rand_bexp, rand_ext_stmt, rand_trace, rand_wl_stmt
from samples import AEXP_SAMPLE, EXT_CALL, EXT_SCOPE_PAR, WL_FACTORIAL, WL_SWAP
from spec import free_vars


def test_free_vars_examples():
    assert free_vars(AEXP_SAMPLE) == {"x", "y"}
    assert free_vars(Num(5)) == frozenset()
    assert free_vars(EXT_CALL) == {"x"}
    assert free_vars(WL_SWAP) == {"x", "y", "z"}
    assert free_vars(WL_FACTORIAL) == {"x", "y"}
    assert free_vars(EXT_SCOPE_PAR) == frozenset()


def test_occurrences_examples():
    assert occurrences(AEXP_SAMPLE) == ["x", "y", "x"]
    assert occurrences(BoolLit(True)) == []
    assert occurrences(EXT_CALL) == ["x", "x", "x"]
    assert occurrences(WL_SWAP) == ["x", "y", "z", "y", "y", "x", "x", "z"]
    assert occurrences(WL_FACTORIAL) == ["x", "y", "x", "y", "y", "x", "x", "x"]
    assert occurrences(EXT_SCOPE_PAR) == []


def test_substitute_examples():
    x, y, z = Var("x"), Var("y"), Var("z")
    assert substitute(AEXP_SAMPLE, "x", "z") == ABin(
        ABin(z, ArithOp.MUL, y), ArithOp.SUB, z
    )
    assert substitute(Num(7), "x", "y") == Num(7)
    renamed = substitute(EXT_SCOPE_PAR, "x", "y")
    assert renamed == Program(
        (), LocMem(("y",), LocPar(Assign("y", Num(1)), Assign("y", Num(2))))
    )


def test_substitute_binders():
    scope = LocMem(("a", "b"), Assign("a", Var("b")))
    assert substitute(scope, "a", "q") == LocMem(("q", "b"), Assign("q", Var("b")))
    assert substitute(Input("v"), "v", "w") == Input("w")


def test_language_check():
    assert language_check(Skip(), "wl")
    assert not language_check(Input("x"), "wl")
    assert language_check(LocPar(Skip(), Skip()), "ext")
    assert not language_check(Seq(Skip(), Call("m", Num(0))), "wl")
    assert language_check(WL_FACTORIAL, "wl")


def test_occurrence_set_matches_free_vars_for_expressions():
    rng = random.Random(7)
    for _ in range(300):
        expr = rand_aexp(rng) if rng.random() < 0.5 else rand_bexp(rng)
        assert frozenset(occurrences(expr)) == free_vars(expr)


def test_substitution_renames_free_variables():
    rng = random.Random(8)
    for _ in range(300):
        item = rand_wl_stmt(rng, rng.randint(1, 6))
        before = free_vars(item)
        renamed = substitute(item, "x", "fresh$1")
        expected = before - {"x"} | ({"fresh$1"} if "x" in before else frozenset())
        assert free_vars(renamed) == expected


def test_substitution_identity_and_idempotence():
    rng = random.Random(9)
    for _ in range(300):
        item = rand_ext_stmt(rng, rng.randint(1, 6))
        assert substitute(item, "x", "x") == item
        once = substitute(item, "x", "q$new")
        assert substitute(once, "x", "q$new") == once


def test_canon_key_is_a_total_order():
    rng = random.Random(10)
    values = [rand_ext_stmt(rng, rng.randint(1, 5)) for _ in range(50)]
    values += [rand_aexp(rng) for _ in range(50)]
    keys = sorted(values, key=canon_key)
    assert sorted(values, key=canon_key) == keys
    for value in values:
        assert canon_key(value) == canon_key(value)


def test_free_vars_of_values_and_event_arguments():
    assert free_vars(AEXP_SAMPLE) == {"x", "y"}
    assert free_vars(ArithExp(Var("z"))) == {"z"}
    assert free_vars(BoolExp(Rel(Var("a"), RelOp.LEQ, Num(1)))) == {"a"}
    assert free_vars(MethodRef("x")) == frozenset()
    assert free_vars(STAR) == frozenset()
    assert occurrences(AEXP_SAMPLE) == ["x", "y", "x"]


def _free_vars_items(rng):
    """Statements, methods, programs, state values and event arguments."""
    for _ in range(150):
        stmt = rand_ext_stmt(rng, rng.randint(1, 8))
        method = Method("m" + str(rng.randint(0, 2)), rng.choice("xyz"), stmt)
        yield stmt
        yield method
        yield Program((method,), rand_ext_stmt(rng, rng.randint(1, 4)))
        for atom in rand_trace(rng):
            if isinstance(atom, EventAtom):
                yield from atom.args
            else:
                yield from (value for _, value in atom.entries)


def test_free_vars_is_the_set_of_occurrences():
    rng = random.Random(11)
    for item in _free_vars_items(rng):
        assert free_vars(item) == frozenset(occurrences(item))


def _recursive_occurrences(item) -> list:
    """``occurrences`` as it was defined by recursion on the syntax, kept as an oracle."""
    if isinstance(item, (Num, BoolLit, MethodRef, Star, Skip)):
        return []
    if isinstance(item, Var):
        return [item.name]
    if isinstance(item, (ABin, Rel, BBin)):
        return _recursive_occurrences(item.left) + _recursive_occurrences(item.right)
    if isinstance(item, Neg):
        return _recursive_occurrences(item.operand)
    if isinstance(item, ArithExp):
        return _recursive_occurrences(item.arith)
    if isinstance(item, BoolExp):
        return _recursive_occurrences(item.boolexp)
    if isinstance(item, tuple):
        return list(item)
    if isinstance(item, Assign):
        return [item.target] + _recursive_occurrences(item.value)
    if isinstance(item, (If, While, Guard)):
        return _recursive_occurrences(item.cond) + _recursive_occurrences(item.body)
    if isinstance(item, Seq):
        return [v for part in seq_spine(item) for v in _recursive_occurrences(part)]
    if isinstance(item, LocPar):
        return _recursive_occurrences(item.left) + _recursive_occurrences(item.right)
    if isinstance(item, LocMem):
        declared = set(item.decls)
        return [v for v in _recursive_occurrences(item.body) if v not in declared]
    if isinstance(item, Input):
        return [item.target]
    if isinstance(item, Call):
        return _recursive_occurrences(item.arg)
    if isinstance(item, Method):
        return [v for v in _recursive_occurrences(item.body) if v != item.formal]
    if isinstance(item, Program):
        out = []
        for method in item.methods:
            out.extend(_recursive_occurrences(method))
        return out + _recursive_occurrences(item.main)
    raise TypeError(f"occurrences: unsupported {type(item).__name__}")


def test_occurrences_match_the_recursive_definition():
    # same names in the same order, duplicates included, on seeded wl and
    # ext statements, programs whose methods bind names their bodies use,
    # scopes declaring several names, and state values and event arguments
    rng = random.Random(2501)
    items = []
    for _ in range(1000):
        items.append(rand_wl_stmt(rng, rng.randint(1, 12)))
        items.append(rand_ext_stmt(rng, rng.randint(1, 12)))
    for _ in range(300):
        methods = tuple(
            Method(f"m{i}", rng.choice("xyz"), rand_ext_stmt(rng, rng.randint(1, 6)))
            for i in range(rng.randint(0, 3))
        )
        items.append(Program(methods, rand_ext_stmt(rng, rng.randint(1, 8))))
        items.append(LocMem(("x", "y"), rand_ext_stmt(rng, rng.randint(1, 6))))
    items.extend(_free_vars_items(rng))
    for item in items:
        assert occurrences(item) == _recursive_occurrences(item), item
    # the sample repeats names, and its binders hide some of them
    assert sum(len(occurrences(item)) > len(free_vars(item)) for item in items) > 500
    binders = [item for item in items if isinstance(item, (LocMem, Method))]
    assert sum(len(occurrences(item)) < len(occurrences(item.body)) for item in binders) > 100



def _recursive_language_check(stmt, mode) -> bool:
    """``language_check`` as it was defined by recursion on the syntax, kept as an oracle."""
    if mode == "ext":
        return True
    if isinstance(stmt, EXT_ONLY):
        return False
    if isinstance(stmt, (If, While)):
        return _recursive_language_check(stmt.body, mode)
    if isinstance(stmt, Seq):
        return all(_recursive_language_check(part, mode) for part in seq_spine(stmt))
    return True


def test_language_check_matches_the_recursive_definition():
    # the seeded wl and ext statements, programs, scopes and values of the
    # occurrences oracle, in both modes
    rng = random.Random(2502)
    items = []
    for _ in range(1000):
        items.append(rand_wl_stmt(rng, rng.randint(1, 12)))
        items.append(rand_ext_stmt(rng, rng.randint(1, 12)))
    for _ in range(300):
        items.append(If(rand_bexp(rng), rand_ext_stmt(rng, rng.randint(1, 6))))
        items.append(LocMem(("x", "y"), rand_wl_stmt(rng, rng.randint(1, 6))))
    items.extend(_free_vars_items(rng))
    for item in items:
        for mode in ("wl", "ext"):
            assert language_check(item, mode) == _recursive_language_check(item, mode), item
    verdicts = [language_check(item, "wl") for item in items]
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_language_check_of_a_deep_if_nest_does_not_recurse():
    # 3000 nested ifs, built without the parser, are far deeper than the
    # recursion limit; the walk keeps its own stack
    def nest(body):
        return reduce(lambda inner, i: If(Rel(Var("x"), RelOp.LEQ, Num(i)), inner), range(3000), body)

    assert language_check(nest(Assign("x", Num(1))), "wl")
    assert not language_check(nest(Seq(Skip(), Input("x"))), "wl")
    assert language_check(nest(Input("x")), "ext")
    with pytest.raises(RecursionError):
        _recursive_language_check(nest(Skip()), "wl")

def test_occurrences_of_a_long_sum_do_not_recurse():
    # a left-nested chain of 5000 additions is far deeper than the
    # recursion limit; the walk keeps its own stack
    terms = [f"v{i % 7}" for i in range(5000)]
    program = parse_program("x := " + " + ".join(terms))
    assert occurrences(program) == ["x"] + terms
    assert initial_state_for(program) == initial_state(["x"] + terms[:7])
    total = reduce(lambda left, i: ABin(left, ArithOp.ADD, Num(i)), range(5000), Var("y"))
    assert occurrences(LocMem(("y",), Assign("x", total))) == ["x"]


# 5001 digits, past Python's default cap of 4300 on int/str conversion
_HUGE_DIGITS = "1" + "0" * 5000


def _cap():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_repr_of_a_huge_numeral_prints_every_digit():
    cap = _cap()
    assert repr(Num(10**5000)) == f"Num(value={_HUGE_DIGITS})"
    assert _cap() == cap


def test_repr_of_a_state_holding_a_huge_numeral_prints_every_digit():
    cap = _cap()
    sigma = make_state({"x": Num(10**5000)})
    assert repr(sigma) == f"State(entries=(('x', Num(value={_HUGE_DIGITS})),))"
    assert _cap() == cap
