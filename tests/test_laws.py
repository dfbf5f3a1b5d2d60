"""Algebraic laws and properties of the trace semantics, checked on seeded random statements.

Each law compares two statements through ``trace_equivalent`` in ext mode
from the state that maps every variable of the triple to zero.  A triple is
left out of a law only when both sides raise the same kind of engine error
(a divergence or fresh-bound limit under the small policy); one side
raising alone is a counterexample.  The properties hold of every trace
composition returns.
"""

import random

import pytest

from lagc.compose import (
    ComposePolicy,
    initial_state_for,
    trace_equivalent,
    traces_ext,
    traces_wl,
)
from lagc.errors import LagcError
from lagc.syntax import LocMem, LocPar, Method, Program, Seq, Skip
from lagc.trace import EventAtom, EventKind, is_concrete_trace

from gens import rand_concrete_state, rand_ext_stmt, rand_wl_stmt
from spec import free_vars, invocation_wellformed

POLICY = ComposePolicy(max_rounds=3, increment=20)
TRIPLES = 150

LAWS = {
    "skip is a left unit of ;;": lambda a, b, c: (Seq(Skip(), a), a),
    ";; is associative": lambda a, b, c: (Seq(Seq(a, b), c), Seq(a, Seq(b, c))),
    "co is commutative": lambda a, b, c: (LocPar(a, b), LocPar(b, a)),
    "skip is a right unit of ;;": lambda a, b, c: (Seq(a, Skip()), a),
    "co is associative": lambda a, b, c: (LocPar(LocPar(a, b), c), LocPar(a, LocPar(b, c))),
    "an empty scope is its body": lambda a, b, c: (LocMem((), a), a),
}


def _error(stmt, sigma):
    """The kind of engine error composing ``stmt`` raises, or ``None``."""
    try:
        traces_ext(Program((), stmt), sigma, POLICY)
    except LagcError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("law", LAWS)
def test_law_holds_on_random_triples(law):
    rng = random.Random(90)
    checked = 0
    for _ in range(TRIPLES):
        triple = [rand_ext_stmt(rng, rng.randint(1, 4)) for _ in range(3)]
        left, right = LAWS[law](*triple)
        sigma = initial_state_for(*triple)
        try:
            same = trace_equivalent(left, right, sigma, POLICY, mode="ext")
        except LagcError:
            errors = (_error(left, sigma), _error(right, sigma))
            assert errors[0] is not None and errors[0] is errors[1], (law, left, right, errors)
            continue
        assert same, (law, left, right)
        checked += 1
    assert checked >= TRIPLES // 2


def test_composed_traces_are_concrete_and_invocation_wellformed():
    rng = random.Random(92)
    reactions = 0
    for _ in range(TRIPLES):
        methods = tuple(Method(f"m{i}", "v", rand_wl_stmt(rng, rng.randint(1, 3))) for i in range(3))
        program = Program(methods, rand_ext_stmt(rng, rng.randint(1, 5)))
        try:
            traces = traces_ext(program, initial_state_for(program), POLICY)
        except LagcError:
            continue
        for trace in traces:
            assert is_concrete_trace(trace), (program, trace)
            assert invocation_wellformed(trace), (program, trace)
            reactions += any(
                isinstance(atom, EventAtom) and atom.kind is EventKind.REACT for atom in trace
            )
    assert reactions >= 50


def test_a_terminating_wl_program_from_a_concrete_start_has_one_trace():
    rng = random.Random(93)
    for _ in range(TRIPLES):
        stmt = rand_wl_stmt(rng, rng.randint(1, 8))
        sigma = rand_concrete_state(rng, tuple(sorted(free_vars(stmt))))
        assert len(traces_wl(stmt, sigma)) == 1, stmt
