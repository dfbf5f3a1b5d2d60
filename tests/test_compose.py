import random

import pytest

from lagc import compose
from lagc.compose import (
    ComposePolicy,
    ExtConfig,
    WlConfig,
    compose_bounded_wl,
    compose_wl,
    initial_state_for,
    method_table,
    trace_equivalent,
    traces_ext,
    traces_wl,
)
from lagc.errors import DivergenceLimitError, PolicyError
from lagc.localeval import DONE, Pending, _then
from lagc.state import EMPTY_STATE, State, initial_state, make_state, update
from lagc.syntax import (
    ArithExp,
    Assign,
    BoolLit,
    Guard,
    If,
    Input,
    LocPar,
    Method,
    MethodRef,
    Num,
    Program,
    Rel,
    RelOp,
    Seq,
    Skip,
    Var,
    While,
    occurrences,
    substitute,
)
from lagc.trace import (
    EventAtom,
    EventKind,
    last_state,
    singleton,
)

from gens import rand_concrete_state, rand_concrete_trace, rand_ext_stmt, rand_wl_stmt
from samples import EXT_CALL, EXT_INPUT, EXT_SCOPE_PAR, SIGMA2, WL_FACTORIAL, WL_SWAP
from spec import domain, free_vars, harvest_params, invocation_wellformed
from steps import bounded, process_step, reactions, successors

ZERO = Num(0)


def test_successors_wl_examples():
    swap_initial = initial_state_for(WL_SWAP)
    start = WlConfig(singleton(swap_initial), Pending(WL_SWAP))
    assert compose_bounded_wl(1, start) == {WlConfig(singleton(swap_initial), DONE)}

    skip = WlConfig(singleton(SIGMA2), Pending(Skip()))
    assert compose_bounded_wl(1, skip) == {WlConfig(singleton(SIGMA2), DONE)}

    assign = WlConfig(singleton(SIGMA2), Pending(Assign("x", Num(3))))
    stepped = singleton(SIGMA2) + (update(SIGMA2, "x", Num(3)),)
    assert compose_bounded_wl(1, assign) == {WlConfig(stepped, DONE)}


def test_compose_bounded_wl():
    busy = WlConfig(singleton(SIGMA2), Pending(Skip()))
    assert compose_bounded_wl(0, busy) == {busy}
    done = WlConfig(singleton(SIGMA2), DONE)
    assert compose_bounded_wl(7, done) == {done}
    two_skips = WlConfig(singleton(SIGMA2), Pending(Seq(Skip(), Skip())))
    assert compose_bounded_wl(3, two_skips) == {done}


def test_compose_wl_terminal_and_divergence():
    done = WlConfig(singleton(SIGMA2), DONE)
    assert compose_wl(ComposePolicy(), done) == {done}
    loop = WlConfig(singleton(EMPTY_STATE), Pending(While(BoolLit(True), Skip())))
    with pytest.raises(DivergenceLimitError):
        compose_wl(ComposePolicy(max_rounds=2), loop)


def test_traces_wl_examples():
    swap_initial = initial_state_for(WL_SWAP)
    assert traces_wl(WL_SWAP, swap_initial) == {singleton(swap_initial)}
    assert traces_wl(Skip(), SIGMA2) == {singleton(SIGMA2)}

    traces = traces_wl(WL_FACTORIAL, initial_state_for(WL_FACTORIAL))
    assert len(traces) == 1
    (trace,) = traces
    assert len(trace) == 13
    assert last_state(trace) == make_state(
        {"x": Num(1), "y": Num(720)}
    )


def test_wl_is_deterministic():
    rng = random.Random(61)
    for _ in range(50):
        stmt = rand_wl_stmt(rng, rng.randint(1, 8))
        traces = traces_wl(stmt, initial_state(occurrences(stmt)))
        assert len(traces) == 1


def test_basic_successors_skip():
    sigma = rand_concrete_state(random.Random(62))
    config = WlConfig(singleton(sigma), Pending(Skip()))
    assert process_step(config) == {WlConfig(singleton(sigma), DONE)}


def test_basic_successors_input_concretizes():
    sigma = make_state({"x": ZERO})
    config = WlConfig(singleton(sigma), Pending(Input("x")))
    (succ,) = process_step(config)
    bound = make_state({"x": ZERO, "$x::Input": ZERO})
    assert succ.marker == DONE
    assert succ.trace == (
        bound,
        bound,
        EventAtom(EventKind.INPUT, (ArithExp(Num(0)),)),
        bound,
    )


def test_basic_successors_blocked_guard():
    config = WlConfig(singleton(SIGMA2), Pending(Guard(BoolLit(False), Skip())))
    assert process_step(config) == frozenset()


def test_successors1():
    assert successors((), ExtConfig(singleton(SIGMA2), (DONE,))) == frozenset()
    single = ExtConfig(singleton(SIGMA2), (Pending(Skip()),))
    assert successors((), single) == {ExtConfig(singleton(SIGMA2), (DONE,))}

    racy = ExtConfig(
        singleton(SIGMA2), (Pending(Assign("x", Num(1))), Pending(Assign("x", Num(2))))
    )
    succ = successors((), racy)
    assert len(succ) == 2
    for config in succ:
        assert len(config.markers) == 2
        assert DONE in config.markers


def test_successors2_no_invocations():
    table = method_table((Method("foo", "x", Skip()),))
    config = ExtConfig(singleton(SIGMA2), (DONE,))
    assert reactions(table, config) == frozenset()


def test_successors2_spawns_reaction():
    table = method_table(EXT_CALL.methods)
    sigma = make_state({"x": ZERO})
    invoked = (
        sigma,
        EventAtom(EventKind.INVOKE, (MethodRef("foo"), ArithExp(Num(0)))),
        sigma,
    )
    config = ExtConfig(invoked, (Pending(Assign("x", Num(1))),))
    (succ,) = reactions(table, config)
    bound = update(sigma, "$foo::Param", ZERO)
    assert succ.trace == invoked + (
        EventAtom(EventKind.REACT, (MethodRef("foo"), ArithExp(Num(0)))),
        sigma,
        bound,
    )
    assert Pending(Assign("$foo::Param", Num(2))) in succ.markers
    assert len(succ.markers) == 2


def test_successors2_respects_reaction_budget():
    table = method_table(EXT_CALL.methods)
    sigma = make_state({"x": ZERO})
    args = (MethodRef("foo"), ArithExp(Num(0)))
    matched = (
        sigma,
        EventAtom(EventKind.INVOKE, args),
        sigma,
        EventAtom(EventKind.REACT, args),
        sigma,
    )
    config = ExtConfig(matched, (DONE,))
    assert reactions(table, config) == frozenset()


def test_successors2_builds_atoms_only_for_kept_reactions(monkeypatch):
    methods = tuple(Method(f"m{i}", "v", Assign("x", Var("v"))) for i in range(4))
    sigma = make_state({"x": ZERO})

    def call(kind, method, arg):
        return EventAtom(kind, (MethodRef(method), ArithExp(Num(arg))))

    # five arguments harvested; m1(1) and m3(4) are still open
    trace = (sigma,)
    for method, arg in (("m0", 0), ("m1", 1), ("m2", 2), ("m3", 3), ("m3", 4)):
        trace += (call(EventKind.INVOKE, method, arg), sigma)
    for method, arg in (("m0", 0), ("m2", 2), ("m3", 3)):
        trace += (call(EventKind.REACT, method, arg), sigma)
    config = ExtConfig(trace, (DONE,))
    built = {"State": 0, "EventAtom": 0}

    def counting(build, name):
        def counted(*fields):
            built[name] += 1
            return build(*fields)

        return counted

    monkeypatch.setattr(compose, "update", counting(compose.update, "State"))
    monkeypatch.setattr(compose, "EventAtom", counting(EventAtom, "EventAtom"))
    spawned = reactions(method_table(methods), config)
    monkeypatch.undo()
    reacted = {succ.trace[len(trace)] for succ in spawned}
    assert reacted == {call(EventKind.REACT, "m1", 1), call(EventKind.REACT, "m3", 4)}
    # of 4 x 5 candidates, each of the two kept builds its event and the
    # state with the bound parameter; the state around the event is the
    # last state of the trace, a trace atom as it is
    assert built == {"State": 2, "EventAtom": 2}


def test_successors2_matches_direct_construction():
    # independent reconstruction: plain concatenation and a hand-rolled
    # fresh-name search instead of the chop/event helpers
    rng = random.Random(64)
    methods = tuple(
        Method(f"m{i}", "v", rand_wl_stmt(rng, rng.randint(1, 3))) for i in range(3)
    )
    for _ in range(200):
        trace = rand_concrete_trace(rng, max_len=6)
        config = ExtConfig(trace, (DONE,))
        sigma = last_state(trace)
        expected = set()
        for m in methods:
            for v in harvest_params(trace):
                candidate = trace[:-1] + (
                    sigma,
                    EventAtom(EventKind.REACT, (MethodRef(m.name), v)),
                    sigma,
                )
                if not invocation_wellformed(candidate):
                    continue
                fresh = "$" + m.name + "::Param"
                while fresh in domain(sigma):
                    fresh = "c" + fresh
                expected.add(
                    ExtConfig(
                        candidate + (update(sigma, fresh, v.arith),),
                        (DONE, Pending(substitute(m.body, "v", fresh))),
                    )
                )
        assert reactions(method_table(methods), config) == frozenset(expected)


def test_basic_seq_successors_factor_through_first_statement():
    rng = random.Random(65)
    for _ in range(200):
        first = rand_wl_stmt(rng, rng.randint(1, 3))
        second = rand_wl_stmt(rng, rng.randint(1, 3))
        names = tuple(sorted(free_vars(first) | free_vars(second) | {"x"}))
        trace = rand_concrete_trace(rng) + (rand_concrete_state(rng, names),)
        direct = process_step(WlConfig(trace, Pending(Seq(first, second))))
        lifted = frozenset(
            WlConfig(c.trace, _then(c.marker, Pending(second)))
            for c in process_step(WlConfig(trace, Pending(first)))
        )
        assert direct == lifted


def test_bounded_results_stable_once_terminal():
    sigma = initial_state_for(WL_FACTORIAL)
    start = WlConfig(singleton(sigma), Pending(WL_FACTORIAL))
    settled = compose_bounded_wl(40, start)
    assert all(c.marker == DONE for c in settled)
    assert compose_bounded_wl(60, start) == settled
    assert compose_bounded_wl(400, start) == settled


def test_ext_config_markers_are_canonical():
    a, b = Pending(Assign("x", Num(1))), Pending(Skip())
    assert ExtConfig((), (a, b)) == ExtConfig((), (b, a))
    assert hash(ExtConfig((), (a, b, a))) == hash(ExtConfig((), (a, a, b)))


def test_successors_ext_union():
    assert successors((), ExtConfig(singleton(SIGMA2), (DONE,))) == frozenset()
    # a pending reaction keeps the configuration alive after main finished
    table = method_table(EXT_CALL.methods)
    sigma = make_state({"x": ZERO})
    invoked = (
        sigma,
        EventAtom(EventKind.INVOKE, (MethodRef("foo"), ArithExp(Num(0)))),
        sigma,
    )
    config = ExtConfig(invoked, (DONE,))
    assert successors(table, config) != frozenset()


def test_compose_ext_divergence():
    program = Program((), While(BoolLit(True), Skip()))
    with pytest.raises(DivergenceLimitError):
        traces_ext(program, EMPTY_STATE, ComposePolicy(max_rounds=2))


def test_conc_numeral_policy_reaches_input_values():
    program = Program((), Input("x"))
    policy = ComposePolicy(conc_numeral=7)
    (trace,) = traces_ext(program, make_state({"x": ZERO}), policy)
    assert last_state(trace) == make_state(
        {"x": Num(7), "$x::Input": Num(7)}
    )


def test_traces_ext_scope_parallel():
    traces = traces_ext(EXT_SCOPE_PAR, initial_state_for(EXT_SCOPE_PAR))
    scope = "$x::Scope"

    def ladder(first, second):
        return (
            EMPTY_STATE,
            make_state({scope: ZERO}),
            make_state({scope: Num(first)}),
            make_state({scope: Num(second)}),
        )

    assert traces == {ladder(1, 2), ladder(2, 1)}


def test_traces_ext_call():
    traces = traces_ext(EXT_CALL, initial_state_for(EXT_CALL))
    assert len(traces) == 3
    for trace in traces:
        kinds = [a.kind for a in trace if isinstance(a, EventAtom)]
        assert kinds == [EventKind.INVOKE, EventKind.REACT]
        assert last_state(trace) == make_state(
            {"x": Num(1), "$foo::Param": Num(2)}
        )


def test_traces_ext_input():
    traces = traces_ext(EXT_INPUT, initial_state_for(EXT_INPUT))
    assert len(traces) == 1
    (trace,) = traces
    assert EventAtom(EventKind.INPUT, (ArithExp(Num(0)),)) in trace
    assert last_state(trace) == make_state(
        {"x": Num(1), "$x::Input": ZERO}
    )


def test_deadlocked_guard_terminates_with_partial_trace():
    program = Program((), Guard(BoolLit(False), Skip()))
    traces = traces_ext(program, EMPTY_STATE)
    assert traces == {singleton(EMPTY_STATE)}


def test_compose_bounded_ext_keeps_frontier():
    start = ExtConfig(singleton(EMPTY_STATE), (Pending(Seq(Skip(), Skip())),))
    assert bounded(0, (), start) == {start}
    partial = bounded(1, (), start)
    assert partial == {ExtConfig(singleton(EMPTY_STATE), (Pending(Skip()),))}


def _bounded_wl_reference(bound, config):
    # the recursive formulation, used as an oracle for the frontier loop
    if bound == 0 or config.marker == DONE:
        return frozenset({config})
    out = set()
    for succ in compose_bounded_wl(1, config):
        out |= _bounded_wl_reference(bound - 1, succ)
    return frozenset(out)


def _bounded_ext_reference(bound, table, config):
    if bound == 0:
        return frozenset({config})
    succ = successors(table, config)
    if not succ:
        return frozenset({config})
    out = set()
    for candidate in succ:
        out |= _bounded_ext_reference(bound - 1, table, candidate)
    return frozenset(out)


def test_bounded_wl_matches_recursive_reference():
    rng = random.Random(66)
    for _ in range(100):
        stmt = rand_wl_stmt(rng, rng.randint(1, 6))
        sigma = rand_concrete_state(rng, tuple(sorted(free_vars(stmt) | {"x"})))
        start = WlConfig(singleton(sigma), Pending(stmt))
        for bound in (0, 1, 3, 8):
            assert compose_bounded_wl(bound, start) == _bounded_wl_reference(bound, start)


def test_bounded_ext_matches_recursive_reference():
    rng = random.Random(67)
    methods = (Method("m0", "v", Assign("v", Num(1))),)
    table = method_table(methods)
    cases = []
    for _ in range(60):
        stmt = rand_ext_stmt(rng, rng.randint(1, 4))
        sigma = rand_concrete_state(rng, tuple(sorted(free_vars(stmt) | {"x"})))
        cases.append((ExtConfig(singleton(sigma), (Pending(stmt),)), (0, 1, 2, 4)))
    # a cycle in the configuration graph, whose traces grow on every turn
    body = Seq(Assign("x", Num(1)), Assign("x", Num(0)))
    loop = Seq(Assign("x", Num(0)), While(BoolLit(True), body))
    cases.append((ExtConfig(singleton(make_state({"x": ZERO})), (Pending(loop),)), range(13)))
    for start, bounds in cases:
        for bound in bounds:
            assert bounded(bound, table, start) == _bounded_ext_reference(
                bound, table, start
            )


def test_trace_equivalence_examples():
    rng = random.Random(63)
    for _ in range(10):
        sigma = rand_concrete_state(rng)
        assert trace_equivalent(Skip(), Seq(Skip(), Skip()), sigma)

    conditioned = If(Rel(Var("x"), RelOp.EQ, Num(1)), Assign("x", Num(0)))
    sigma = make_state({"x": Num(1)})
    assert trace_equivalent(conditioned, Assign("x", Num(0)), sigma)

    left = Program((), LocPar(Assign("x", Num(1)), Assign("x", Num(2))))
    right = Program((), LocPar(Assign("x", Num(2)), Assign("x", Num(1))))
    assert trace_equivalent(left, right, EMPTY_STATE)
    assert trace_equivalent(
        LocPar(Assign("x", Num(1)), Assign("x", Num(2))),
        LocPar(Assign("x", Num(2)), Assign("x", Num(1))),
        EMPTY_STATE,
        mode="ext",
    )


def test_trace_inequivalence():
    assert not trace_equivalent(
        Assign("x", Num(1)), Assign("x", Num(2)), make_state({"x": ZERO})
    )


def test_engine_traces_bracketed_by_states():
    for program in (EXT_SCOPE_PAR, EXT_CALL, EXT_INPUT):
        table = method_table(program.methods)
        start = ExtConfig(singleton(initial_state_for(program)), (Pending(program.main),))
        reached = bounded(4, table, start)
        for config in reached:
            assert isinstance(config.trace[0], State)
            assert isinstance(config.trace[-1], State)


def test_negative_bound_is_a_policy_error():
    wl_start = WlConfig(singleton(EMPTY_STATE), Pending(Skip()))
    ext_start = ExtConfig(singleton(EMPTY_STATE), (Pending(Skip()),))
    for bound in (-1, -5):
        with pytest.raises(PolicyError, match="bound must be at least 0"):
            compose_bounded_wl(bound, wl_start)
        with pytest.raises(PolicyError, match="bound must be at least 0"):
            bounded(bound, (), ext_start)
    assert compose_bounded_wl(0, wl_start) == {wl_start}
    assert bounded(0, (), ext_start) == {ext_start}


def test_initial_state_for_several_items():
    rng = random.Random(41)
    for _ in range(200):
        left = rand_ext_stmt(rng, rng.randint(1, 6))
        right = Program((Method("m0", "x", rand_ext_stmt(rng, 3)),), rand_ext_stmt(rng, 3))
        assert initial_state_for(left, right) == initial_state(
            occurrences(left) + occurrences(right)
        )
        assert initial_state_for(left) == initial_state(occurrences(left))
