import random
from functools import reduce

import pytest

import reference_engine as ref
from lagc import localeval
from lagc.compose import initial_state_for, traces_ext, traces_wl
from lagc.errors import FreshBoundExceededError, ModeError
from lagc.evaluate import eval_bool
from lagc.localeval import DEFAULT_FRESH_BOUND, DONE, Pending, _then, parallel
from lagc.parser import parse_program
from lagc.state import initial_state, update
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    Assign,
    BoolLit,
    Call,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    MethodRef,
    Neg,
    Num,
    STAR,
    Seq,
    Skip,
    Var,
    While,
    holding_nodes,
)
from lagc.trace import EventAtom, EventKind, singleton

from gens import rand_bexp, rand_concrete_state, rand_state, rand_wl_stmt
from samples import SIGMA1, SIGMA2, WL_FACTORIAL, WL_SWAP
from spec import free_vars


def _steps(stmt, sigma, mode, fresh_bound=DEFAULT_FRESH_BOUND):
    """The local steps of ``stmt``, or of a marker, as ``(pc, trace, next marker)`` triples."""
    marker = stmt if isinstance(stmt, Pending) else Pending(stmt)
    return localeval.step(marker, sigma, mode, fresh_bound)


def _single(steps):
    assert len(steps) == 1
    return steps[0]


def test_cont_append():
    # a marker followed by the marker of one more statement
    assert _then(DONE, Pending(Skip())) == Pending(Skip())
    assign = Assign("x", Num(1))
    assert _then(Pending(assign), Pending(Skip())) == Pending(Seq(assign, Skip()))
    a, b = Assign("a", Num(1)), Assign("b", Num(2))
    assert _then(_then(DONE, Pending(a)), Pending(b)) == Pending(Seq(a, b))


def test_parallel():
    s1, s2 = Assign("a", Num(1)), Assign("b", Num(2))
    assert parallel(Pending(s1), Pending(s2)) == Pending(LocPar(s1, s2))
    assert parallel(DONE, Pending(s2)) == Pending(s2)
    assert parallel(Pending(s1), DONE) == Pending(s1)
    assert parallel(DONE, DONE) == DONE


def test_valuate_assign():
    steps = _steps(Assign("x", Num(2)), SIGMA1, "wl")
    expected = (
        frozenset(),
        singleton(SIGMA1) + (update(SIGMA1, "x", Num(2)),),
        DONE,
    )
    assert steps == (expected,)


def test_valuate_if_branches():
    steps = _steps(WL_SWAP, SIGMA2, "wl")
    body = WL_SWAP.body
    assert steps == (
        (frozenset({BoolLit(True)}), singleton(SIGMA2), Pending(body)),
        (frozenset({BoolLit(False)}), singleton(SIGMA2), DONE),
    )


def test_a_test_is_evaluated_once_and_negated_after():
    # the failing branch's condition comes from the evaluated test, and must
    # be what evaluating the negated test gives; the holding branch comes first
    rng = random.Random(23)
    for _ in range(400):
        sigma = rand_state(rng) if rng.random() < 0.5 else rand_concrete_state(rng)
        cond, body = rand_bexp(rng), rand_wl_stmt(rng, 2)
        rest = rng.choice([DONE, Pending(rand_wl_stmt(rng, 2))])
        loop = While(cond, body)
        held = frozenset({eval_bool(cond, sigma)})
        failed = frozenset({eval_bool(Neg(cond), sigma)})
        for head, then in (If(cond, body), Pending(body, rest)), (loop, Pending(body, Pending(loop, rest))):
            steps = _steps(Pending(head, rest), sigma, "wl")
            assert steps == ((held, singleton(sigma), then), (failed, singleton(sigma), rest))


def test_valuate_while_unfolds():
    loop = WL_FACTORIAL.second
    markers = {after for _, _, after in _steps(loop, SIGMA2, "wl")}
    assert Pending(Seq(loop.body, loop)) in markers
    assert DONE in markers


def test_valuate_locpar():
    stmt = LocPar(Assign("x", Num(1)), Seq(Assign("x", Num(2)), Skip()))
    steps = _steps(stmt, SIGMA1, "ext")
    one = singleton(SIGMA1) + (update(SIGMA1, "x", Num(1)),)
    two = singleton(SIGMA1) + (update(SIGMA1, "x", Num(2)),)
    assert steps == (
        (frozenset(), one, Pending(Seq(Assign("x", Num(2)), Skip()))),
        (frozenset(), two, Pending(LocPar(Assign("x", Num(1)), Skip()))),
    )


def test_valuate_scope():
    stmt = LocMem(("x",), Assign("x", Num(5)))
    pc, trace, after = _single(_steps(stmt, SIGMA1, "ext"))
    fresh = "$x::Scope"
    assert trace == singleton(SIGMA1) + (
        update(SIGMA1, fresh, Num(0)),
    )
    assert after == Pending(LocMem((), Assign(fresh, Num(5))))
    assert pc == frozenset()


def test_valuate_empty_scope_is_transparent():
    stmt = LocMem((), Assign("x", Num(5)))
    assert _steps(stmt, SIGMA1, "ext") == _steps(Assign("x", Num(5)), SIGMA1, "ext")


def test_valuate_input():
    pc, trace, after = _single(_steps(Input("x"), SIGMA2, "ext"))
    fresh = "$x::Input"
    rerouted = update(update(SIGMA2, fresh, STAR), "x", Var(fresh))
    assert trace == (
        SIGMA2,
        rerouted,
        EventAtom(EventKind.INPUT, (ArithExp(Var(fresh)),)),
        rerouted,
    )
    assert after == DONE
    assert pc == frozenset()


def test_valuate_guard_has_no_false_branch():
    pc, trace, after = _single(_steps(Guard(BoolLit(False), Skip()), SIGMA2, "ext"))
    assert pc == frozenset({BoolLit(False)})
    assert after == Pending(Skip())
    assert trace == singleton(SIGMA2)


def test_valuate_call():
    _, trace, after = _single(_steps(Call("foo", Var("x")), SIGMA2, "ext"))
    assert trace == (
        SIGMA2,
        EventAtom(EventKind.INVOKE, (MethodRef("foo"), ArithExp(Num(8)))),
        SIGMA2,
    )
    assert after == DONE


def test_wl_mode_rejects_extensions():
    with pytest.raises(ModeError):
        _steps(Input("x"), SIGMA2, "wl")


def test_fresh_bound_exhaustion():
    taken = update(SIGMA2, "$x::Input", Num(0))
    with pytest.raises(FreshBoundExceededError):
        _steps(Input("x"), taken, "ext", fresh_bound=1)


def test_seq_distributes_over_first_statement():
    rng = random.Random(51)
    for _ in range(200):
        first = rand_wl_stmt(rng, rng.randint(1, 4))
        second = rand_wl_stmt(rng, rng.randint(1, 3))
        names = tuple(sorted(free_vars(first) | free_vars(second) | {"x", "y"}))
        sigma = rand_state(rng, names)
        direct = _steps(Seq(first, second), sigma, "wl")
        lifted = tuple(
            (pc, trace, _then(after, Pending(second)))
            for pc, trace, after in _steps(first, sigma, "wl")
        )
        assert direct == lifted


def test_valuate_traces_start_at_sigma():
    rng = random.Random(52)
    for _ in range(200):
        stmt = rand_wl_stmt(rng, rng.randint(1, 5))
        sigma = rand_concrete_state(rng, tuple(sorted(free_vars(stmt) | {"x"})))
        steps = _steps(stmt, sigma, "wl")
        assert 0 < len(steps) <= 2
        for pc, trace, _ in steps:
            assert trace[0] == sigma
            assert not any(
                isinstance(atom, EventAtom) for atom in trace
            )
            assert all(isinstance(b, BoolLit) for b in pc)


def _long_sequence(length: int) -> list:
    """Assignments, skips, calls and some inputs, none of which leaves a statement over."""
    kinds = (
        Assign("x", ABin(Var("x"), ArithOp.ADD, Num(1))),
        Skip(),
        Call("m", Var("x")),
        Assign("y", Var("x")),
    )
    return [Input("y") if i % 50 == 49 else kinds[i % 4] for i in range(length)]


def test_a_step_continues_with_the_rest_of_the_marker_itself():
    marker, sigma = Pending(reduce(Seq, _long_sequence(1000))), initial_state(["x", "y"])
    steps = 0
    while marker is not DONE:
        ((_, trace, after),) = _steps(marker, sigma, "ext")
        assert after is marker.rest
        sigma, marker = trace[-1], marker.rest
        steps += 1
    assert steps == 1000


def test_a_test_marker_flattens_its_body_once(monkeypatch):
    # each ``if`` and ``while`` marker keeps the marker of its body, so each
    # body's ``Seq`` spine is flattened once, not on every step
    spines, original = [], localeval.seq_spine

    def counting(stmt):
        spines.append(stmt)
        return original(stmt)

    monkeypatch.setattr(localeval, "seq_spine", counting)
    stmt = parse_program(
        "while c <= 20 do d := 0 ;; while d <= 5 do d := d + 1 ;;"
        " if d >= 3 then x := x + d ;; y := y + 1 fi od ;; c := c + 1 od",
        "wl",
    ).main
    with holding_nodes():
        (trace,) = traces_wl(stmt, initial_state(["c", "d", "x", "y"]))
    assert trace[-1].lookup("y") == Num(84)
    # the body of the outer loop, of the inner loop and of the ``if``
    assert len(spines) == len(set(map(id, spines))) == 3


CO_NESTS = [
    "co x := 1 ;; y := x || x := 2 oc",
    "co x := 0 ;; while x <= 1 do x := x + 1 od || y := x oc ;; z := x + y",
    "co co a := 1 || b := 2 oc ;; c := a + b || d := 1 ;; co e := d || d := 2 oc oc",
    "scope(t){ co t := 1 ;; x := t || if x >= 1 then y := x fi oc ;; y := y + t }",
    "program { method m(v){ co x := v || y := v oc } main { co call m(1) || x := 3 oc } }",
]


@pytest.mark.parametrize("text", CO_NESTS)
def test_co_nests_run_without_turning_markers_into_statements(monkeypatch, text):
    program = parse_program(text)
    sigma = initial_state_for(program)
    expected = ref.traces_ext(program, sigma)

    def no_statement(marker):
        raise AssertionError("a marker was turned back into a statement")

    # the engine has no ``stmt`` on a marker; one added would be caught here
    monkeypatch.setattr(Pending, "stmt", property(no_statement), raising=False)
    assert traces_ext(program, sigma) == expected
