"""The fixpoint round schedule, the work it does, and long sequential programs."""

import gc
import json
import random
from functools import reduce

import pytest

import reference_engine as ref
from lagc import compose
from lagc.cli import main
from lagc.compose import ComposePolicy, ExtConfig, WlConfig
from lagc.errors import (
    DivergenceLimitError,
    LagcError,
    UnboundVariableError,
    UndefinedTraceOpError,
)
from lagc.localeval import DEFAULT_FRESH_BOUND, DONE, Par, Pending, parallel, step
from lagc.parser import parse_program
from lagc.state import EMPTY_STATE, initial_state
from lagc.syntax import (
    Assign,
    BoolLit,
    Call,
    LocPar,
    Method,
    Num,
    Program,
    Seq,
    Skip,
    Var,
    While,
)
from lagc.trace import singleton

from bigstep import execute
from gens import (
    rand_aexp,
    rand_concrete_state,
    rand_ext_stmt,
    rand_state,
    rand_trace,
    rand_wl_stmt,
)
from spec import free_vars, marker_stmt
from steps import bounded, successors

LOOP = While(BoolLit(True), Skip())
SCHEDULE = "no fixpoint after 3 rounds (bound 21)"
COUNTDOWN = "x := 3 ;; while x >= 1 do x := x - 1 od"
CALL_LOOP = (
    "program { method foo(x){ x := 2 } "
    "main { (x := 0 ;; call foo(x)) ;; while x <= 1 do x := x + 1 od } }"
)


@pytest.mark.parametrize("engine", [compose, ref], ids=["current", "reference"])
@pytest.mark.parametrize("lang", ["wl", "ext"])
def test_divergence_names_rounds_and_final_bound(engine, lang):
    policy = engine.ComposePolicy(increment=7, max_rounds=3)
    with pytest.raises(DivergenceLimitError) as caught:
        if lang == "wl":
            engine.traces_wl(LOOP, EMPTY_STATE, policy)
        else:
            engine.traces_ext(Program((), LOOP), EMPTY_STATE, policy)
    assert str(caught.value) == SCHEDULE


def _settling_bound(engine, lang, program, sigma) -> int:
    """The smallest bound at which every configuration bounded composition returns is terminal."""
    table = engine.method_table(program.methods)
    for bound in range(100):
        if lang == "wl":
            start = engine.WlConfig(singleton(sigma), engine.Pending(program.main))
            reached = engine.compose_bounded_wl(bound, start)
            settled = all(isinstance(c.marker, engine.Done) for c in reached)
        elif engine is ref:
            start = ref.ExtConfig(singleton(sigma), (ref.Pending(program.main),))
            reached = ref.compose_bounded_ext(bound, table, start)
            settled = not any(ref.successors_ext(table, c) for c in reached)
        else:
            start = ExtConfig(singleton(sigma), (Pending(program.main),))
            settled = not any(successors(table, c) for c in bounded(bound, table, start))
        if settled:
            return bound
    raise AssertionError("no settling bound below 100")


@pytest.mark.parametrize("engine", [compose, ref], ids=["current", "reference"])
@pytest.mark.parametrize("lang", ["wl", "ext"])
def test_only_the_step_budget_decides_the_outcome(engine, lang):
    # (max_rounds - 1) * increment steps are explored before the last check
    program = parse_program(COUNTDOWN if lang == "wl" else CALL_LOOP, lang)
    sigma = engine.initial_state_for(program)

    def traces(policy):
        if lang == "wl":
            return engine.traces_wl(program.main, sigma, policy)
        return engine.traces_ext(program, sigma, policy)

    k = _settling_bound(engine, lang, program, sigma)
    fixpoint = traces(engine.ComposePolicy())
    outcomes = set()
    for increment in (1, 2, 3, 5):
        for max_rounds in (1, 2, 3, 4, 7):
            policy = engine.ComposePolicy(increment=increment, max_rounds=max_rounds)
            settles = (max_rounds - 1) * increment >= k
            outcomes.add(settles)
            if settles:
                assert traces(policy) == fixpoint
            else:
                with pytest.raises(DivergenceLimitError) as caught:
                    traces(policy)
                assert str(caught.value) == (
                    f"no fixpoint after {max_rounds} rounds (bound {max_rounds * increment})"
                )
    assert outcomes == {True, False}


@pytest.mark.parametrize("lang", ["wl", "ext"])
def test_cli_reports_divergence_schedule(tmp_path, capsys, lang):
    path = tmp_path / "loop.prog"
    path.write_text("while true do skip od", encoding="utf-8")
    argv = ["traces", str(path), "--lang", lang, "--increment", "7", "--max-rounds", "3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {SCHEDULE}\n"


def _counting(monkeypatch, name, limit=None):
    """Record the arguments of every call; raise once there are more than ``limit``."""
    calls = []
    original = getattr(compose, name)

    def counted(*args, **kwargs):
        calls.append(args)
        if limit is not None and len(calls) > limit:
            raise RuntimeError(f"more than {limit} calls to {name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(compose, name, counted)
    return calls


def test_rounds_continue_the_wl_exploration(monkeypatch):
    # the budget of ten rounds is 45 steps plus one final check; starting
    # every round over would expand 225
    calls = _counting(monkeypatch, "step")
    start = WlConfig(singleton(EMPTY_STATE), Pending(LOOP))
    with pytest.raises(DivergenceLimitError):
        compose.compose_wl(ComposePolicy(max_rounds=10, increment=5), start)
    assert 45 < len(calls) <= 50


def test_a_wl_step_has_at_most_one_successor():
    # the wl engine walks one path; follow seeded runs from concrete and
    # from symbolic states, and count how they end so that neither kind of
    # end goes untested
    rng = random.Random(7)
    ends = {"finished": 0, "stuck": 0, "cut": 0}
    for run in range(300):
        stmt = rand_wl_stmt(rng, rng.randint(1, 10))
        names = sorted(free_vars(stmt))
        sigma = (rand_concrete_state if run % 2 else rand_state)(rng, names)
        config, end = WlConfig(singleton(sigma), Pending(stmt)), "cut"
        for _ in range(60):
            if config.marker is DONE:
                end = "finished"
                break
            succ = compose.compose_bounded_wl(1, config)
            assert len(succ) <= 1, (stmt, sigma)
            if not succ:
                end = "stuck"
                break
            (config,) = succ
        ends[end] += 1
    assert ends["finished"] >= 100 and ends["stuck"] >= 20, ends


@pytest.mark.parametrize(
    "max_rounds, increment, error, message",
    [
        (3, 1, UnboundVariableError, "unbound variable: 'y'"),
        (2, 2, UnboundVariableError, "unbound variable: 'y'"),
        (2, 1, DivergenceLimitError, "no fixpoint after 2 rounds (bound 2)"),
    ],
)
def test_wl_run_pending_at_the_budget_is_expanded_before_it_diverges(
    max_rounds, increment, error, message
):
    # at a budget of 2 steps the run waits at ``x := y`` with ``y`` unbound;
    # that step is taken once more, so its error wins over the divergence
    stmt = parse_program("skip ;; skip ;; x := y", "wl").main
    policy = ComposePolicy(increment=increment, max_rounds=max_rounds)
    with pytest.raises(error) as caught:
        compose.traces_wl(stmt, initial_state(["x"]), policy)
    assert str(caught.value) == message


def test_a_wl_run_keeps_the_history_of_its_start():
    # the walk hands each step only the last state; the atoms before it
    # must still begin the trace the run reaches
    rng = random.Random(11)
    stmt = parse_program("x := 1 ;; x := 2", "wl").main
    for _ in range(20):
        start = rand_trace(rng, max_len=6)
        (bounded,) = compose.compose_bounded_wl(2, WlConfig(start, Pending(stmt)))
        assert bounded.marker is DONE and len(bounded.trace) == len(start) + 2
        assert bounded.trace[: len(start)] == start
        assert [atom.lookup("x") for atom in bounded.trace[-2:]] == [
            Num(1),
            Num(2),
        ]
        assert compose.compose_wl(ComposePolicy(), WlConfig(start, Pending(stmt))) == {bounded}


def test_a_wl_run_from_an_empty_or_finished_start():
    empty = WlConfig((), Pending(Skip()))
    assert compose.compose_bounded_wl(0, empty) == {empty}
    for bound in (1, 3):
        with pytest.raises(UndefinedTraceOpError) as caught:
            compose.compose_bounded_wl(bound, empty)
        assert str(caught.value) == "trace does not end with a state"
    finished = WlConfig(rand_trace(random.Random(3)), DONE)
    assert compose.compose_bounded_wl(5, finished) == {finished}
    assert compose.compose_wl(ComposePolicy(), finished) == {finished}


def test_rounds_continue_the_ext_exploration(monkeypatch):
    # one pass over the 45-step budget, then one check of the last frontier
    calls = _counting(monkeypatch, "_records")
    policy = ComposePolicy(max_rounds=10, increment=5)
    with pytest.raises(DivergenceLimitError):
        compose.traces_ext(Program((), LOOP), EMPTY_STATE, policy)
    assert calls and len(calls) <= 50


def test_terminating_run_expands_each_configuration_once(monkeypatch):
    calls = _counting(monkeypatch, "_records")
    program = parse_program("x := 3 ;; while x >= 1 do x := x - 1 od", "ext")
    policy = ComposePolicy(increment=2)
    traces = compose.traces_ext(program, compose.initial_state_for(program), policy)
    assert len(traces) == 1
    assert calls
    expanded = [compose._future_key(*args[1]) for args in calls]
    assert len(expanded) == len(set(expanded))


FOUR_WAY_CO = (
    "co (a := 1 ;; a := 2) || co (b := 1 ;; b := 2) || "
    "co (c := 1 ;; c := 2) || (d := 1 ;; d := 2) oc oc oc"
)
CALL_THEN_ASSIGNMENTS = (
    "program { method m(v){ skip } main { call m(1) ;; "
    + " ;; ".join(f"x := {i}" for i in range(100))
    + " } }"
)


@pytest.mark.parametrize(
    "text, count, most",
    [(FOUR_WAY_CO, 2520, 81), (CALL_THEN_ASSIGNMENTS, 101, 304)],
    ids=["four-way-co", "call-then-100-assignments"],
)
def test_ext_expands_each_future_key_once(monkeypatch, text, count, most):
    # one expansion per future key; one per distinct trace prefix would be
    # 7365 and 10404
    calls = _counting(monkeypatch, "_records")
    program = parse_program(text, "ext")
    traces = compose.traces_ext(program, compose.initial_state_for(program))
    assert len(traces) == count
    assert calls and len(calls) <= most


def test_ext_divergence_needs_no_walk_through_the_budget(monkeypatch):
    # the loop's graph closes on a cycle after a few keys; walking the
    # 10^11-step budget would not end, so the wrapper stops it at 100 calls
    calls = _counting(monkeypatch, "_records", limit=100)
    with pytest.raises(DivergenceLimitError) as caught:
        compose.traces_ext(Program((), LOOP), EMPTY_STATE, ComposePolicy(max_rounds=10**9))
    assert str(caught.value) == "no fixpoint after 1000000000 rounds (bound 100000000000)"
    assert calls and len(calls) <= 10


def _expansions(monkeypatch, program, sigma) -> list:
    """The nodes the graph expands while composing, in order, as text.

    Text keeps no node of the run alive, so a second run builds its
    states, atoms and markers afresh, at other addresses.
    """
    seen = []
    original = compose._records

    def recording(table, rep, *rest):
        trace, markers, _ = rep
        seen.append(f"{trace!r} {markers!r}")
        return original(table, rep, *rest)

    monkeypatch.setattr(compose, "_records", recording)
    try:
        compose.traces_ext(program, sigma)
    except LagcError:
        pass
    monkeypatch.setattr(compose, "_records", original)
    return seen


def test_ext_expands_the_same_representatives_in_the_same_order(monkeypatch):
    # which configuration represents a node, and the order nodes are
    # expanded in, must not follow identity hashes
    rng = random.Random(1606)
    methods = (
        Method("m0", "v", Assign("x", Var("v"))),
        Method("m1", "v", Seq(Assign("y", Var("v")), Assign("x", Num(1)))),
    )
    for _ in range(12):
        calls = [Call(f"m{rng.randint(0, 1)}", rand_aexp(rng, ("x", "y"), 1)) for _ in range(2)]
        main = LocPar(Seq(rand_ext_stmt(rng, 2, ("x", "y")), calls[0]), calls[1])
        program = Program(methods, main)
        names = tuple(sorted(free_vars(program) | {"x", "y"}))
        sigma = rand_concrete_state(rng, names)
        first = _expansions(monkeypatch, program, sigma)
        assert first
        # move later allocations to other addresses
        ballast = [[Pending(Assign("x", Num(i)))] for i in range(rng.randint(1, 3000))]
        del ballast[::2]
        gc.collect()
        assert _expansions(monkeypatch, program, sigma) == first


def test_pending_is_one_stack_for_every_nesting():
    a, b, c = Assign("a", Num(1)), Assign("b", Num(2)), Skip()
    left, right = Pending(Seq(Seq(a, b), c)), Pending(Seq(a, Seq(b, c)))
    assert left is right is Pending(a, Pending(b, Pending(c)))
    assert (left.head, left.rest.head, left.rest.rest.head) == (a, b, c)
    assert left.rest.rest.rest is DONE
    assert marker_stmt(left) == Seq(Seq(a, b), c)
    # a co is one head holding the markers of its branches
    marker = Pending(LocPar(Seq(a, b), c), Pending(a))
    assert marker.head is Par(Pending(Seq(a, b)), Pending(c))
    assert marker is parallel(Pending(Seq(a, b)), Pending(c), Pending(a))
    assert marker_stmt(marker) == Seq(LocPar(Seq(a, b), c), a)


def test_long_sequence_marker_builds_steps_hashes_and_prints_without_recursion():
    stmts = [Skip()] + [Assign("x", Num(i)) for i in range(5000)]
    left = reduce(Seq, stmts)
    right = reduce(lambda rest, stmt: Seq(stmt, rest), reversed(stmts))
    marker = Pending(left)
    assert marker is Pending(right)
    assert hash(marker) == hash(Pending(Skip(), marker.rest))
    assert marker != marker.rest and marker.rest == Pending(reduce(Seq, stmts[1:]))
    cells, cell = 0, marker
    while cell is not DONE:
        cells, cell = cells + 1, cell.rest
    assert cells == 5001
    assert marker_stmt(marker) is left and Pending(marker_stmt(marker)) is marker
    assert repr(marker).startswith("Pending(Skip(), Assign(target='x', value=Num(value=0)), ")
    ((_, _, after),) = step(marker, EMPTY_STATE, "wl", DEFAULT_FRESH_BOUND)
    assert after is marker.rest


def test_600_statement_program_runs(tmp_path, capsys):
    rng = random.Random(600)
    names = ("a", "b", "c", "d")
    lines = []
    for i in range(600):
        target = names[i % len(names)]
        if rng.random() < 0.3:
            lines.append(f"{target} := {rng.randint(-20, 99)}")
        else:
            lines.append(f"{target} := {rng.choice(names)} + {rng.randint(1, 9)}")
    text = " ;;\n".join(lines)
    path = tmp_path / "straight.wl"
    path.write_text(text, encoding="utf-8")
    assert main(["traces", str(path), "--lang", "wl", "--format", "json"]) == 0
    (trace,) = json.loads(capsys.readouterr().out)["traces"]
    assert len(trace) == 601
    final = {name: int(value) for name, value in trace[-1]["state"].items()}
    stmt = parse_program(text, "wl").main
    assert final == execute(stmt, {name: 0 for name in names})


def test_1200_statement_program_runs(tmp_path, capsys):
    # the parser's wl check and the default state's occurrence list walk
    # the sequence with a loop; the oracle runs one statement at a time
    names = ("a", "b", "c", "d")
    lines = [f"{names[i % 4]} := {names[(i + 1) % 4]} + {i % 7}" for i in range(1200)]
    path = tmp_path / "straight.wl"
    path.write_text(" ;;\n".join(lines), encoding="utf-8")
    assert main(["traces", str(path), "--lang", "wl", "--format", "json"]) == 0
    (trace,) = json.loads(capsys.readouterr().out)["traces"]
    assert len(trace) == 1201
    final = {name: int(value) for name, value in trace[-1]["state"].items()}
    env = {name: 0 for name in names}
    for line in lines:
        execute(parse_program(line, "wl").main, env)
    assert final == env


@pytest.mark.parametrize(
    "text",
    [
        *(
            " ;; ".join(f"x := x + {i}" for i in range(n)) + " ;; input y ;; y := y + x"
            for n in (31, 32, 40, 63)
        ),
        "co " + " ;; ".join(f"x := {i}" for i in range(34)) + " ;; input y || input z oc",
        "program { method m(v){ input w ;; w := w + v } main { "
        + " ;; ".join(f"x := {i}" for i in range(35))
        + " ;; call m(2) ;; input y } }",
    ],
    ids=[
        "input-after-31",
        "input-after-32",
        "input-after-40",
        "input-after-63",
        "inputs-in-a-long-co",
        "input-in-a-late-reaction",
    ],
)
def test_inputs_at_the_end_of_long_traces_match_reference(text):
    # an input concretizes every earlier state, including those a long
    # trace keeps as cells
    program = parse_program(text, "ext")
    sigma = compose.initial_state_for(program)
    assert compose.traces_ext(program, sigma) == ref.traces_ext(program, sigma)
