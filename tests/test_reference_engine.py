"""Differential tests: the current composition engine against the frozen one.

``reference_engine`` is a copy of the engine from before rounds carried
their frontier forward and before markers became continuation stacks.
Both must produce the same trace sets (or raise the same error) on seeded
random wl and ext programs, on method-call programs and on every example
in ``programs/``, for the fixpoint search and for bounded composition.
"""

import random
from pathlib import Path

import pytest

import reference_engine as ref
from lagc import compose
from lagc.errors import LagcError
from lagc.localeval import Pending
from lagc.parser import parse_program
from lagc.syntax import Assign, Method, Num, Program, STAR, Skip, occurrences
from lagc.state import initial_state, make_state
from lagc.trace import singleton

from gens import rand_concrete_state, rand_ext_stmt, rand_state, rand_wl_stmt
from samples import EXT_CALL, EXT_INPUT, EXT_SCOPE_PAR
from spec import free_vars, marker_stmt
from steps import bounded

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
BOUNDS = (0, 1, 3, 8)
INCREMENTS = (1, 2, 3, 100)
METHODS = (
    Method("m0", "v", Skip()),
    Method("m1", "v", Assign("v", Num(1))),
    Method("m2", "v", Assign("x", Num(2))),
)


def _outcome(run):
    """The value of ``run()``, or the type and text of the engine error it raised."""
    try:
        return run()
    except LagcError as exc:
        return (type(exc).__name__, str(exc))


def _policies(increment: int) -> tuple:
    """Equal policies for both engines; a small increment checks for a fixpoint often."""
    return compose.ComposePolicy(increment=increment), ref.ComposePolicy(increment=increment)


def _traces(configs) -> frozenset:
    return frozenset(c.trace for c in configs)


def _left(marker):
    """What a marker of either engine leaves to run, as a current marker (None when done)."""
    if isinstance(marker, ref.Pending):
        return Pending(marker.stmt)
    return Pending(marker_stmt(marker)) if isinstance(marker, Pending) else None


def _wl_configs(configs) -> frozenset:
    """Traces paired with what is left to run, as a current marker (None when done)."""
    return frozenset((c.trace, _left(c.marker)) for c in configs)


def assert_same_wl(stmt, sigma, increment=100):
    policy, ref_policy = _policies(increment)
    assert _outcome(lambda: compose.traces_wl(stmt, sigma, policy)) == _outcome(
        lambda: ref.traces_wl(stmt, sigma, ref_policy)
    )
    start = compose.WlConfig(singleton(sigma), Pending(stmt))
    ref_start = ref.WlConfig(singleton(sigma), ref.Pending(stmt))
    for bound in BOUNDS:
        reached = _outcome(lambda: _wl_configs(compose.compose_bounded_wl(bound, start)))
        expected = _outcome(lambda: _wl_configs(ref.compose_bounded_wl(bound, ref_start)))
        assert reached == expected


def assert_same_ext(program, sigma, increment=100):
    policy, ref_policy = _policies(increment)
    assert _outcome(lambda: compose.traces_ext(program, sigma, policy)) == _outcome(
        lambda: ref.traces_ext(program, sigma, ref_policy)
    )
    start = compose.ExtConfig(singleton(sigma), (Pending(program.main),))
    ref_start = ref.ExtConfig(singleton(sigma), (ref.Pending(program.main),))
    table = compose.method_table(program.methods)
    for bound in BOUNDS:
        reached = _outcome(lambda: _traces(bounded(bound, table, start)))
        expected = _outcome(lambda: _traces(ref.compose_bounded_ext(bound, table, ref_start)))
        assert reached == expected


def test_wl_concrete_start_matches_reference():
    rng = random.Random(401)
    for _ in range(200):
        stmt = rand_wl_stmt(rng, rng.randint(1, 10))
        sigma = rand_concrete_state(rng, tuple(sorted(free_vars(stmt) | {"x"})))
        assert_same_wl(stmt, sigma, rng.choice(INCREMENTS))


def test_wl_symbolic_start_matches_reference():
    rng = random.Random(402)
    for _ in range(200):
        stmt = rand_wl_stmt(rng, rng.randint(1, 10))
        sigma = rand_state(rng, tuple(sorted(free_vars(stmt) | {"x"})))
        assert_same_wl(stmt, sigma, rng.choice(INCREMENTS))


def test_ext_matches_reference():
    rng = random.Random(403)
    for i in range(200):
        program = Program(METHODS, rand_ext_stmt(rng, rng.randint(1, 5)))
        names = tuple(sorted(free_vars(program) | {"x"}))
        sigma = rand_concrete_state(rng, names) if i % 2 else rand_state(rng, names)
        assert_same_ext(program, sigma, rng.choice(INCREMENTS))


def test_ext_from_initial_state_matches_reference():
    rng = random.Random(404)
    for _ in range(100):
        program = Program(METHODS, rand_ext_stmt(rng, rng.randint(1, 5)))
        assert_same_ext(program, initial_state(occurrences(program)), rng.choice(INCREMENTS))


@pytest.mark.parametrize("skips", [0, 1, 2])
@pytest.mark.parametrize("max_rounds, increment", [(1, 1), (2, 1), (3, 1), (2, 2), (100, 100)])
def test_wl_stuck_configuration_at_the_budget_matches_reference(skips, max_rounds, increment):
    # from x = *, wl can take neither branch of the test, so the configuration
    # that reaches the ``if``, after ``skips`` steps, has no successor
    stmt = parse_program("skip ;; " * skips + "if x == 0 then skip fi", "wl").main
    sigma = make_state({"x": STAR})
    policy = compose.ComposePolicy(increment=increment, max_rounds=max_rounds)
    ref_policy = ref.ComposePolicy(increment=increment, max_rounds=max_rounds)
    outcome = _outcome(lambda: compose.traces_wl(stmt, sigma, policy))
    assert outcome == _outcome(lambda: ref.traces_wl(stmt, sigma, ref_policy))
    if skips >= (max_rounds - 1) * increment:
        bound = max_rounds * increment
        assert outcome == (
            "DivergenceLimitError", f"no fixpoint after {max_rounds} rounds (bound {bound})"
        )
    else:
        assert outcome == frozenset()


@pytest.mark.parametrize(
    "program", [EXT_CALL, EXT_INPUT, EXT_SCOPE_PAR], ids=["call", "input", "scope_par"]
)
def test_sample_programs_match_reference(program):
    assert_same_ext(program, compose.initial_state_for(program))


def test_call_programs_match_reference():
    rng = random.Random(405)
    for _ in range(40):
        calls = [
            f"call m{rng.randint(0, 2)}({rng.randint(0, 2)})"
            for _ in range(rng.randint(1, 2))
        ]
        body = " ;; ".join(calls + [f"x := {rng.randint(0, 9)}"])
        text = (
            "program { method m0(v) { skip } method m1(v) { v := v + 1 } "
            "method m2(v) { x := v } main { " + body + " } }"
        )
        program = parse_program(text, "ext")
        assert_same_ext(program, compose.initial_state_for(program), rng.choice(INCREMENTS))


@pytest.mark.parametrize(
    "text",
    [
        "co guard x == 0 then skip end || x := 1 oc",
        "co guard x == 0 then y := 1 ;; y := 2 end || x := 1 ;; x := 2 oc",
        "program { method m(v) { x := v } "
        "main { co call m(1) || guard x == 0 then x := 3 end oc } }",
    ],
)
@pytest.mark.parametrize("increment", [1, 2])
def test_runs_of_uneven_length_match_reference(text, increment):
    # some interleavings deadlock early, so fixpoint checks meet frontiers
    # that mix terminal and running configurations
    program = parse_program(text, "ext")
    assert_same_ext(program, compose.initial_state_for(program), increment)


@pytest.mark.parametrize("path", sorted(PROGRAMS.iterdir()), ids=lambda p: p.name)
def test_example_programs_match_reference(path):
    text = path.read_text(encoding="utf-8")
    program = parse_program(text, "ext")
    assert_same_ext(program, compose.initial_state_for(program))
    if path.suffix == ".wl":
        stmt = parse_program(text, "wl").main
        assert_same_wl(stmt, initial_state(occurrences(stmt)))
