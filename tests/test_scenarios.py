"""End-to-end behaviours that the minimal examples do not reach."""

from lagc.compose import initial_state_for, trace_equivalent, traces_ext, traces_wl
from lagc.parser import parse_program
from lagc.state import make_state
from lagc.syntax import If, Num, Rel, RelOp, STAR, Skip, Var
from lagc.trace import EventAtom, EventKind, last_state


def _run(source: str):
    program = parse_program(source)
    return traces_ext(program, initial_state_for(program))


def _states(**values):
    return make_state({k: Num(v) for k, v in values.items()})


def test_guard_waits_for_the_other_process():
    traces = _run("co guard x == 1 then y := 2 end || x := 1 oc")
    assert traces == {
        (
            _states(x=0, y=0),
            _states(x=1, y=0),
            _states(x=1, y=2),
        )
    }


def test_call_argument_is_evaluated_at_the_call_site():
    traces = _run(
        "program { method foo(v){ y := v * 2 } main { x := 3 ;; call foo(x + 4) } }"
    )
    assert len(traces) == 1
    (trace,) = traces
    events = [atom for atom in trace if isinstance(atom, EventAtom)]
    assert [e.kind for e in events] == [EventKind.INVOKE, EventKind.REACT]
    assert all(str(e.args[1].arith.value) == "7" for e in events)
    assert last_state(trace) == _states(x=3, y=14, **{"$foo::Param": 7})


def test_repeated_input_renames_past_the_taken_name():
    traces = _run("input x ;; input x")
    assert len(traces) == 1
    (trace,) = traces
    assert last_state(trace) == _states(
        x=0, **{"$x::Input": 0, "c$x::Input": 0}
    )
    inputs = [a for a in trace if isinstance(a, EventAtom)]
    assert len(inputs) == 2


def test_nested_scope_redeclaring_the_same_name():
    # the outer renaming descends into the inner declaration, so the inner
    # scope declares $x::Scope and freshens it again
    traces = _run("scope(x){ x := 1 ;; scope(x){ x := 2 } }")
    assert len(traces) == 1
    (trace,) = traces
    assert last_state(trace) == _states(
        **{"$x::Scope": 1, "$$x::Scope::Scope": 2}
    )


def test_two_methods_sharing_a_name_both_react():
    traces = _run(
        "program { method foo(v){ v := 1 } method foo(w){ w := 2 } main { call foo(0) } }"
    )
    finals = {last_state(t) for t in traces}
    assert finals == {
        _states(**{"$foo::Param": 1}),
        _states(**{"$foo::Param": 2}),
    }
    assert len(traces) == 2


def test_input_feeds_a_loop_guard():
    traces = _run("input x ;; while x >= 1 do skip od")
    assert len(traces) == 1
    (trace,) = traces
    assert last_state(trace) == _states(x=0, **{"$x::Input": 0})


def test_parallel_is_not_sequencing():
    left = parse_program("co x := 1 || x := 2 oc")
    right = parse_program("x := 1 ;; x := 2")
    sigma = _states(x=0)
    assert not trace_equivalent(left, right, sigma)


def test_wl_symbolic_guard_produces_no_traces():
    program = If(Rel(Var("x"), RelOp.EQ, Num(0)), Skip())
    assert traces_wl(program, make_state({"x": STAR})) == frozenset()
