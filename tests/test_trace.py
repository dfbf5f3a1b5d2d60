import random

import pytest

from lagc.errors import UndefinedTraceOpError
from lagc.state import EMPTY_STATE, State
from lagc.syntax import ArithExp, BoolLit, MethodRef, Num, Rel, RelOp, Var
from lagc.trace import (
    EventAtom,
    EventKind,
    gen_event,
    is_concrete_trace,
    is_consistent,
    last_state,
    singleton,
)

from gens import rand_concrete_state, rand_trace
from samples import PI1, PI2, PI3, SIGMA1, SIGMA2, TAU1, TAU2, TAU3
from spec import (
    CondTrace,
    harvest_params,
    invocation_wellformed,
    is_concrete_cond_trace,
    is_wellformed_cond_trace,
    is_wellformed_state,
    semantic_chop,
    semantic_chop_cond,
    trace_symbolic_vars,
)


def test_first_and_last_state():
    assert last_state(TAU2) == SIGMA2
    with pytest.raises(UndefinedTraceOpError):
        last_state(singleton(SIGMA1) + (EventAtom(EventKind.INPUT, ()),))
    with pytest.raises(UndefinedTraceOpError):
        last_state(())


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
        assert semantic_chop(left + (SIGMA2,), right) == left + right


def test_gen_event():
    trace = gen_event(EventKind.INPUT, EMPTY_STATE, ())
    assert trace == (
        EMPTY_STATE,
        EventAtom(EventKind.INPUT, ()),
        EMPTY_STATE,
    )
    assert trace[0] == last_state(trace)
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
        assert trace_symbolic_vars(a + b) == trace_symbolic_vars(
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
                reacts = trace.count(EventAtom(EventKind.REACT, args))
                invokes = trace.count(EventAtom(EventKind.INVOKE, args))
                assert reacts <= invokes
