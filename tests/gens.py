"""Seeded random generators for expressions, statements, states and traces."""

import random

from lagc.state import State, make_state
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    Assign,
    BBin,
    BoolLit,
    BoolOp,
    Call,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    MethodRef,
    Neg,
    Num,
    Rel,
    RelOp,
    STAR,
    Seq,
    Skip,
    Var,
    While,
)
from lagc.trace import EventAtom, EventKind

NAMES = ("x", "y", "z", "w")


def rand_aexp(rng: random.Random, names=NAMES, depth: int = 3):
    if depth <= 0 or rng.random() < 0.4:
        if not names or rng.random() < 0.5:
            return Num(rng.randint(-5, 5))
        return Var(rng.choice(names))
    op = rng.choice(list(ArithOp))
    return ABin(rand_aexp(rng, names, depth - 1), op, rand_aexp(rng, names, depth - 1))


def rand_bexp(rng: random.Random, names=NAMES, depth: int = 2):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.3:
            return BoolLit(rng.random() < 0.5)
        op = rng.choice(list(RelOp))
        return Rel(rand_aexp(rng, names, 1), op, rand_aexp(rng, names, 1))
    if roll < 0.5:
        return Neg(rand_bexp(rng, names, depth - 1))
    op = rng.choice(list(BoolOp))
    return BBin(rand_bexp(rng, names, depth - 1), op, rand_bexp(rng, names, depth - 1))


def rand_wl_stmt(rng: random.Random, size: int, names=NAMES, _counter=None):
    """A terminating wl statement of roughly ``size`` statement nodes.

    While loops always follow a bounded counter pattern with a dedicated
    counter variable, so the generated programs cannot diverge.
    """
    if _counter is None:
        _counter = [0]
    if size <= 1:
        if rng.random() < 0.3:
            return Skip()
        return Assign(rng.choice(names), rand_aexp(rng, names, 2))
    roll = rng.random()
    if roll < 0.45:
        split = rng.randint(1, size - 1)
        return Seq(
            rand_wl_stmt(rng, split, names, _counter),
            rand_wl_stmt(rng, size - split, names, _counter),
        )
    if roll < 0.7:
        return If(rand_bexp(rng, names, 1), rand_wl_stmt(rng, size - 1, names, _counter))
    if roll < 0.85 and size >= 4:
        _counter[0] += 1
        counter = f"c{_counter[0]}"
        limit = rng.randint(0, 20)
        body = Seq(
            rand_wl_stmt(rng, size - 3, names, _counter),
            Assign(counter, ABin(Var(counter), ArithOp.ADD, Num(1))),
        )
        return While(Rel(Var(counter), RelOp.LEQ, Num(limit)), body)
    return Assign(rng.choice(names), rand_aexp(rng, names, 2))


def rand_ext_stmt(rng: random.Random, size: int, names=NAMES):
    """A loop-free extended statement; guards may deadlock but never diverge."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.2:
            return Skip()
        if roll < 0.7:
            return Assign(rng.choice(names), rand_aexp(rng, names, 2))
        if roll < 0.85:
            return Input(rng.choice(names))
        return Call("m" + str(rng.randint(0, 2)), rand_aexp(rng, names, 1))
    roll = rng.random()
    split = rng.randint(1, size - 1)
    if roll < 0.35:
        return Seq(rand_ext_stmt(rng, split, names), rand_ext_stmt(rng, size - split, names))
    if roll < 0.55:
        return LocPar(rand_ext_stmt(rng, split, names), rand_ext_stmt(rng, size - split, names))
    if roll < 0.7:
        return If(rand_bexp(rng, names, 1), rand_ext_stmt(rng, size - 1, names))
    if roll < 0.8:
        return LocMem((rng.choice(names),), rand_ext_stmt(rng, size - 1, names))
    if roll < 0.9:
        return Guard(rand_bexp(rng, names, 1), rand_ext_stmt(rng, size - 1, names))
    return rand_ext_stmt(rng, size - 1, names)


def rand_concrete_state(rng: random.Random, names=NAMES) -> State:
    return make_state({name: Num(rng.randint(-9, 9)) for name in names})


def rand_state(rng: random.Random, names=NAMES) -> State:
    """A wellformed state: some variables symbolic, images over symbolic vars."""
    symbolic = [name for name in names if rng.random() < 0.3]
    entries = {}
    for name in names:
        if name in symbolic:
            entries[name] = STAR
        elif symbolic and rng.random() < 0.3:
            entries[name] = ABin(
                Var(rng.choice(symbolic)), ArithOp.MUL, Num(rng.randint(-3, 3))
            )
        else:
            entries[name] = Num(rng.randint(-9, 9))
    return make_state(entries)


def rand_value(rng: random.Random, names=NAMES):
    """A state value of any kind: ``*``, a numeral, a variable or an operation."""
    roll = rng.random()
    if roll < 0.25:
        return STAR
    if roll < 0.5:
        return Num(rng.randint(-3, 3))
    if roll < 0.75:
        return Var(rng.choice(names))
    return ABin(rand_aexp(rng, names, 1), rng.choice(list(ArithOp)), rand_aexp(rng, names, 1))


def rand_mixed_state(rng: random.Random, names=NAMES) -> State:
    """A state over some of ``names``, each holding any kind of value; seldom wellformed."""
    return make_state({name: rand_value(rng, names) for name in names if rng.random() < 0.8})


def _rand_event(rng: random.Random):
    kind = rng.choice(list(EventKind))
    if kind is EventKind.INPUT:
        args = ()
    else:
        args = (MethodRef("m" + str(rng.randint(0, 2))), ArithExp(Num(rng.randint(0, 3))))
    return EventAtom(kind, args)


def rand_trace(rng: random.Random, names=NAMES, max_len: int = 5, state=rand_state):
    """A trace of ``state(rng, names)`` states ending with a state.

    Events are surrounded by that state.
    """
    atoms = [state(rng, names)]
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.3:
            last = atoms[-1]
            atoms.append(_rand_event(rng))
            atoms.append(last)
        else:
            atoms.append(state(rng, names))
    return tuple(atoms)


def rand_concrete_trace(rng: random.Random, names=NAMES, max_len: int = 5):
    atoms = [rand_concrete_state(rng, names)]
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.3:
            last = atoms[-1]
            atoms.append(_rand_event(rng))
            atoms.append(last)
        else:
            atoms.append(rand_concrete_state(rng, names))
    return tuple(atoms)
