"""Differential tests: the composition engine against two direct oracles.

Every closed wl program has exactly one global trace from its initial
state; its final state must equal the store the big-step interpreter
computes.  The full traces of call-free, input-free programs, with
``co``, ``scope`` and ``guard`` for ``traces_ext``, must equal, state by
state, the runs the small-step interleaving enumerator finds.
"""

import random
import time
from functools import reduce

from lagc.compose import traces_ext, traces_wl
from lagc.state import initial_state, make_state
from lagc.syntax import (
    ABin,
    ArithOp,
    Assign,
    Guard,
    If,
    LocMem,
    LocPar,
    Num,
    Program,
    Rel,
    RelOp,
    Seq,
    Skip,
    Var,
    While,
    occurrences,
)
from lagc.trace import last_state

import smallstep
from bigstep import execute
from gens import rand_aexp, rand_bexp, rand_wl_stmt

PROGRAMS = 500
MAX_SIZE = 12


def _final_store(trace) -> dict:
    return {name: value.value for name, value in last_state(trace).entries}


def test_lagc_agrees_with_bigstep_interpreter():
    rng = random.Random(2024)
    started = time.monotonic()
    for _ in range(PROGRAMS):
        program = rand_wl_stmt(rng, rng.randint(1, MAX_SIZE))
        names = occurrences(program)
        traces = traces_wl(program, initial_state(names))
        assert len(traces) == 1
        (trace,) = traces
        env = execute(program, {name: 0 for name in names})
        assert _final_store(trace) == env
    assert time.monotonic() - started < 30.0


def _rand_concurrent(rng, size: int, names: tuple, counters: list):
    """A call-free, input-free statement; each loop counts its own counter up to at most 2."""
    if size <= 1:
        if rng.random() < 0.2:
            return Skip()
        return Assign(rng.choice(names), rand_aexp(rng, names, 1))
    roll, split = rng.random(), rng.randint(1, size - 1)
    if roll < 0.3:
        first = _rand_concurrent(rng, split, names, counters)
        return Seq(first, _rand_concurrent(rng, size - split, names, counters))
    if roll < 0.5:
        left = _rand_concurrent(rng, split, names, counters)
        return LocPar(left, _rand_concurrent(rng, size - split, names, counters))
    if roll < 0.6:
        return If(rand_bexp(rng, names, 1), _rand_concurrent(rng, size - 1, names, counters))
    if roll < 0.7:
        return LocMem((rng.choice(names),), _rand_concurrent(rng, size - 1, names, counters))
    if roll < 0.8:
        return Guard(rand_bexp(rng, names, 1), _rand_concurrent(rng, size - 1, names, counters))
    if roll < 0.9 and size >= 3:
        counter = f"k{len(counters)}"
        counters.append(counter)
        step = Assign(counter, ABin(Var(counter), ArithOp.ADD, Num(1)))
        body = Seq(_rand_concurrent(rng, size - 2, names, counters), step)
        return While(Rel(Var(counter), RelOp.LEQ, Num(rng.randint(0, 1))), body)
    return _rand_concurrent(rng, size - 1, names, counters)


def _stores(traces) -> frozenset:
    """Each trace as a tuple of states, each state as its sorted (name, integer) pairs."""
    return frozenset(
        tuple(tuple((name, value.value) for name, value in atom.entries) for atom in t)
        for t in traces
    )


def _start(rng, stmt) -> dict:
    return {name: rng.randint(-2, 2) for name in occurrences(stmt)}


def test_traces_ext_agree_with_small_step_interleavings():
    rng = random.Random(1605)
    seen = {"co": 0, "deadlock": 0, "scope": 0}
    for _ in range(100):
        stmt = _rand_concurrent(rng, rng.randint(1, 7), ("x", "y", "z"), [])
        store = _start(rng, stmt)
        sigma = make_state({name: Num(value) for name, value in store.items()})
        expected = smallstep.traces(stmt, store)
        assert _stores(traces_ext(Program((), stmt), sigma)) == expected, stmt
        seen["co"] += len(expected) > 1
        seen["scope"] += any("$" in name for name, _ in next(iter(expected))[-1])
        seen["deadlock"] += isinstance(stmt, Guard) and len(next(iter(expected))) == 1
    # the sample interleaves, renames scope variables and blocks on guards
    assert min(seen.values()) >= 5, seen


def test_traces_wl_agree_with_small_step_runs():
    rng = random.Random(1606)
    for _ in range(150):
        stmt = rand_wl_stmt(rng, rng.randint(1, 10))
        store = _start(rng, stmt)
        sigma = make_state({name: Num(value) for name, value in store.items()})
        assert _stores(traces_wl(stmt, sigma)) == smallstep.traces(stmt, store), stmt


def test_long_traces_agree_with_small_step_interleavings():
    # traces longer than the engine keeps in one tuple, interleaved and scoped
    left = [Assign("x", ABin(Var("x"), ArithOp.ADD, Num(i))) for i in range(36)]
    right = LocMem(("x",), Assign("x", Var("y")))
    stmt = Seq(LocPar(reduce(Seq, left), right), Assign("y", ABin(Var("y"), ArithOp.ADD, Var("x"))))
    store = {"x": 1, "y": 0}
    sigma = make_state({name: Num(value) for name, value in store.items()})
    expected = smallstep.traces(stmt, store)
    assert len(expected) > 600
    assert _stores(traces_ext(Program((), stmt), sigma)) == expected
