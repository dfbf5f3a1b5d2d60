import random

import pytest

from lagc.errors import UndefinedTraceOpError
from lagc.state import EMPTY_STATE, State, is_wellformed_state
from lagc.syntax import ArithExp, BoolLit, MethodRef, Num, Rel, RelOp, Var
from lagc.trace import (
    CondTrace,
    EventAtom,
    EventKind,
    concat,
    count_atom,
    first_state,
    gen_event,
    harvest_params,
    invocation_wellformed,
    is_concrete_cond_trace,
    is_concrete_trace,
    is_consistent,
    is_wellformed_cond_trace,
    last_state,
    semantic_chop,
    semantic_chop_cond,
    singleton,
    trace_symbolic_vars,
)

from gens import rand_concrete_state, rand_trace
from samples import PI1, PI2, PI3, SIGMA1, SIGMA2, TAU1, TAU2, TAU3


def test_concat():
    assert concat(TAU1, ()) == TAU1
    assert concat((), TAU1) == TAU1
    assert concat(singleton(SIGMA1), singleton(SIGMA2)) == (
        SIGMA1,
        SIGMA2,
    )


def test_concat_associative():
    rng = random.Random(31)
    for _ in range(100):
        a, b, c = rand_trace(rng), rand_trace(rng), rand_trace(rng)
        assert concat(concat(a, b), c) == concat(a, concat(b, c))


def test_first_and_last_state():
    assert first_state(singleton(SIGMA1)) == SIGMA1
    assert last_state(TAU2) == SIGMA2
    with pytest.raises(UndefinedTraceOpError):
        last_state(singleton(SIGMA1) + (EventAtom(EventKind.INPUT, ()),))
    with pytest.raises(UndefinedTraceOpError):
        first_state(())
    with pytest.raises(UndefinedTraceOpError):
        first_state((EventAtom(EventKind.INPUT, ()), SIGMA1))


def test_semantic_chop():
    assert semantic_chop(singleton(SIGMA1), singleton(SIGMA1)) == singleton(SIGMA1)
    with pytest.raises(UndefinedTraceOpError):
        semantic_chop((), TAU1)
    combined = semantic_chop_cond(PI1, PI3)
    assert combined == CondTrace(
        frozenset({BoolLit(False)}),
        (
            SIGMA1,
            EventAtom(EventKind.INPUT, ()),
            SIGMA2,
            EMPTY_STATE,
        ),
    )


def test_chop_after_state_is_concat():
    rng = random.Random(32)
    for _ in range(100):
        left, right = rand_trace(rng), rand_trace(rng)
        assert semantic_chop(left + (SIGMA2,), right) == concat(left, right)


def test_gen_event():
    trace = gen_event(EventKind.INPUT, EMPTY_STATE, ())
    assert trace == (
        EMPTY_STATE,
        EventAtom(EventKind.INPUT, ()),
        EMPTY_STATE,
    )
    assert first_state(trace) == last_state(trace)
    invoked = gen_event(
        EventKind.INVOKE, SIGMA2, (MethodRef("foo"), ArithExp(Var("x")))
    )
    assert invoked == (
        SIGMA2,
        EventAtom(EventKind.INVOKE, (MethodRef("foo"), ArithExp(Num(8)))),
        SIGMA2,
    )


def test_trace_symbolic_vars():
    assert trace_symbolic_vars(()) == frozenset()
    assert trace_symbolic_vars(TAU1) == {"y"}
    rng = random.Random(33)
    for _ in range(100):
        a, b = rand_trace(rng), rand_trace(rng)
        assert trace_symbolic_vars(concat(a, b)) == trace_symbolic_vars(
            a
        ) | trace_symbolic_vars(b)


def test_wellformedness():
    assert is_wellformed_cond_trace(PI1)
    assert not is_wellformed_cond_trace(PI2)
    assert is_wellformed_cond_trace(PI3)
    assert is_wellformed_cond_trace(CondTrace(frozenset(), singleton(EMPTY_STATE)))
    assert not is_wellformed_cond_trace(CondTrace(frozenset(), ()))


def test_consistency():
    assert is_consistent(frozenset())
    assert not is_consistent(frozenset({BoolLit(False)}))
    assert not is_consistent(frozenset({Rel(Var("y"), RelOp.EQ, Num(2))}))
    assert is_consistent(frozenset({BoolLit(True)}))


def test_concreteness():
    assert not is_concrete_cond_trace(PI1)
    assert not is_concrete_cond_trace(PI2)
    assert is_concrete_cond_trace(PI3)
    assert is_concrete_trace(())
    assert not is_concrete_trace(singleton(SIGMA1))
    assert is_concrete_trace(TAU3)


def test_concrete_traces_have_no_symbolic_vars():
    rng = random.Random(34)
    for _ in range(200):
        trace = rand_trace(rng)
        if is_concrete_trace(trace):
            assert trace_symbolic_vars(trace) == frozenset()
            assert all(
                is_wellformed_state(atom)
                for atom in trace
                if isinstance(atom, State)
            )


def test_gen_event_from_concrete_state_is_concrete():
    rng = random.Random(36)
    for _ in range(100):
        sigma = rand_concrete_state(rng)
        for kind in EventKind:
            cond = CondTrace(frozenset(), gen_event(kind, sigma, ()))
            assert is_concrete_cond_trace(cond)


def test_count_atom():
    assert count_atom((), SIGMA1) == 0
    assert count_atom(TAU1, SIGMA1) == 2
    assert count_atom(TAU1, EventAtom(EventKind.INVOKE, ())) == 0


def test_invocation_wellformed():
    args = (MethodRef("m"), ArithExp(Num(1)))
    invoke = EventAtom(EventKind.INVOKE, args)
    react = EventAtom(EventKind.REACT, args)
    assert invocation_wellformed(())
    assert not invocation_wellformed((react,))
    assert invocation_wellformed((invoke, react))
    assert not invocation_wellformed((invoke, react, react))
    assert invocation_wellformed((invoke, invoke, react, react))
    other = EventAtom(EventKind.REACT, (MethodRef("m"), ArithExp(Num(2))))
    assert not invocation_wellformed((invoke, other))


def test_harvest_params():
    assert harvest_params(()) == frozenset()
    invoke = EventAtom(EventKind.INVOKE, (MethodRef("m"), ArithExp(Num(1))))
    assert harvest_params((invoke, invoke)) == {ArithExp(Num(1))}
    # reaction events and inputs are ignored
    react = EventAtom(EventKind.REACT, (MethodRef("m"), ArithExp(Num(3))))
    inp = EventAtom(EventKind.INPUT, (ArithExp(Num(4)),))
    assert harvest_params((react, inp)) == frozenset()


def test_reactions_never_exceed_invocations():
    rng = random.Random(35)
    for _ in range(200):
        trace = rand_trace(rng, max_len=8)
        if invocation_wellformed(trace):
            seen = set(
                atom.args
                for atom in trace
                if isinstance(atom, EventAtom) and atom.kind is not EventKind.INPUT
            )
            for args in seen:
                reacts = count_atom(trace, EventAtom(EventKind.REACT, args))
                invokes = count_atom(trace, EventAtom(EventKind.INVOKE, args))
                assert reacts <= invokes
