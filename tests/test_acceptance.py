"""Acceptance suite: one check per shipping criterion, one line per result.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
All comparisons are exact; there are no tolerances anywhere.
"""

import random
from contextlib import contextmanager

from lagc.cli import main
from lagc.compose import initial_state_for, trace_equivalent, traces_ext, traces_wl
from lagc.concretize import apply_conc_state
from lagc.evaluate import eval_arith, eval_bool
from lagc.state import EMPTY_STATE, State, is_concrete_state, make_state
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    Assign,
    BBin,
    BoolLit,
    BoolOp,
    If,
    LocPar,
    MethodRef,
    Num,
    Program,
    Rel,
    RelOp,
    Seq,
    Skip,
    Var,
)
from lagc.trace import (
    EventAtom,
    EventKind,
)

import test_differential
import test_properties
from gens import rand_concrete_state
from samples import (
    AEXP_SAMPLE,
    BEXP_SAMPLE,
    EXT_CALL,
    EXT_INPUT,
    EXT_SCOPE_PAR,
    PI1,
    PI2,
    PI3,
    SIGMA1,
    SIGMA2,
    WL_FACTORIAL,
    WL_SWAP,
)
from spec import (
    CondTrace,
    is_concrete_cond_trace,
    is_wellformed_cond_trace,
    is_wellformed_state,
    min_conc_map_state,
    semantic_chop_cond,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {title}")
        raise
    print(f"PASS  criterion {number:2d}: {title}")


def _state(**values) -> State:
    return make_state({k: Num(v) for k, v in values.items()})


def test_criterion_1_factorial():
    with criterion(1, "wl factorial trace, 13 states, final x=1 y=720"):
        traces = traces_wl(WL_FACTORIAL, initial_state_for(WL_FACTORIAL))
        ladder = [
            (0, 0), (6, 0), (6, 1), (6, 6), (5, 6), (5, 30), (4, 30),
            (4, 120), (3, 120), (3, 360), (2, 360), (2, 720), (1, 720),
        ]
        expected = tuple(_state(x=x, y=y) for x, y in ladder)
        assert traces == {expected}


def test_criterion_2_early_exit():
    with criterion(2, "wl guarded swap stops in its initial state"):
        traces = traces_wl(WL_SWAP, initial_state_for(WL_SWAP))
        assert traces == {(_state(x=0, y=0, z=0),)}


def test_criterion_3_scope_parallel():
    with criterion(3, "ext scope/parallel: both interleavings, 4 states each"):
        traces = traces_ext(EXT_SCOPE_PAR, initial_state_for(EXT_SCOPE_PAR))
        first = (
            EMPTY_STATE,
            _state(**{"$x::Scope": 0}),
            _state(**{"$x::Scope": 1}),
            _state(**{"$x::Scope": 2}),
        )
        second = (
            EMPTY_STATE,
            _state(**{"$x::Scope": 0}),
            _state(**{"$x::Scope": 2}),
            _state(**{"$x::Scope": 1}),
        )
        assert traces == {first, second}


def test_criterion_4_method_call():
    with criterion(4, "ext call: 3 traces with invocation events and spawned parameter"):
        traces = traces_ext(EXT_CALL, initial_state_for(EXT_CALL))
        invoke = EventAtom(EventKind.INVOKE, (MethodRef("foo"), ArithExp(Num(0))))
        react = EventAtom(EventKind.REACT, invoke.args)
        early_then_main = (
            _state(x=0), _state(x=0), invoke, _state(x=0), react, _state(x=0),
            _state(x=0, **{"$foo::Param": 0}),
            _state(x=1, **{"$foo::Param": 0}),
            _state(x=1, **{"$foo::Param": 2}),
        )
        early_then_callee = (
            _state(x=0), _state(x=0), invoke, _state(x=0), react, _state(x=0),
            _state(x=0, **{"$foo::Param": 0}),
            _state(x=0, **{"$foo::Param": 2}),
            _state(x=1, **{"$foo::Param": 2}),
        )
        late_reaction = (
            _state(x=0), _state(x=0), invoke, _state(x=0), _state(x=1),
            react, _state(x=1),
            _state(x=1, **{"$foo::Param": 0}),
            _state(x=1, **{"$foo::Param": 2}),
        )
        assert traces == {early_then_main, early_then_callee, late_reaction}


def test_criterion_5_input():
    with criterion(5, "ext input: one trace with input event and rerouted variable"):
        traces = traces_ext(EXT_INPUT, initial_state_for(EXT_INPUT))
        expected = (
            _state(x=0, **{"$x::Input": 0}),
            _state(x=0, **{"$x::Input": 0}),
            EventAtom(EventKind.INPUT, (ArithExp(Num(0)),)),
            _state(x=0, **{"$x::Input": 0}),
            _state(x=1, **{"$x::Input": 0}),
        )
        assert traces == {expected}


def test_criterion_6_evaluation():
    with criterion(6, "evaluation, concretization and chop identities"):
        assert eval_arith(AEXP_SAMPLE, SIGMA2) == Num(8)
        assert eval_bool(BEXP_SAMPLE, SIGMA1) == BBin(
            Rel(ABin(Var("y"), ArithOp.MUL, Num(4)), RelOp.EQ, Num(2)),
            BoolOp.DISJ,
            BoolLit(False),
        )
        assert min_conc_map_state(SIGMA1, 0) == make_state({"y": Num(0)})
        assert apply_conc_state(make_state({"y": Num(2)}), SIGMA1) == SIGMA2
        assert semantic_chop_cond(PI1, PI3) == CondTrace(
            frozenset({BoolLit(False)}),
            (
                SIGMA1,
                EventAtom(EventKind.INPUT, ()),
                SIGMA2,
                EMPTY_STATE,
            ),
        )


def test_criterion_7_wellformedness():
    with criterion(7, "wellformedness and concreteness verdicts"):
        assert is_wellformed_state(SIGMA1) and is_wellformed_state(SIGMA2)
        assert not is_concrete_state(SIGMA1) and is_concrete_state(SIGMA2)
        assert is_wellformed_cond_trace(PI1)
        assert not is_wellformed_cond_trace(PI2)
        assert is_wellformed_cond_trace(PI3)
        assert not is_concrete_cond_trace(PI1)
        assert not is_concrete_cond_trace(PI2)
        assert is_concrete_cond_trace(PI3)


def test_criterion_8_equivalences():
    with criterion(8, "trace equivalences: skip padding, guarded assign, commuted parallel"):
        rng = random.Random(88)
        for _ in range(10):
            sigma = rand_concrete_state(rng)
            assert trace_equivalent(Skip(), Seq(Skip(), Skip()), sigma)
        assert trace_equivalent(
            If(Rel(Var("x"), RelOp.EQ, Num(1)), Assign("x", Num(0))),
            Assign("x", Num(0)),
            make_state({"x": Num(1)}),
        )
        assert trace_equivalent(
            Program((), LocPar(Assign("x", Num(1)), Assign("x", Num(2)))),
            Program((), LocPar(Assign("x", Num(2)), Assign("x", Num(1)))),
            EMPTY_STATE,
        )


def test_criterion_9_property_suites():
    with criterion(9, "randomized law suites, 1000 instances each, no counterexamples"):
        test_properties.test_eval_preserves_concrete_values()
        test_properties.test_eval_closes_under_concrete_states()
        test_properties.test_symbolic_vars_homomorphic_over_concat()
        test_properties.test_min_conc_map_domain_is_symbolic_vars()
        test_properties.test_seq_successors_factor_through_first_statement()
        test_properties.test_locpar_successors_split_into_both_sides()
        test_properties.test_composition_from_concrete_start_stays_concrete()


def test_criterion_10_differential():
    with criterion(10, "500 random wl programs agree with the big-step oracle"):
        test_differential.test_lagc_agrees_with_bigstep_interpreter()


def test_criterion_11_divergence_and_deadlock(tmp_path, capsys):
    with criterion(11, "divergence exits 3; deadlocked guard terminates normally"):
        loop = tmp_path / "loop.wl"
        loop.write_text("while true do skip od", encoding="utf-8")
        assert main(["traces", str(loop), "--lang", "wl"]) == 3

        dead = tmp_path / "dead.ext"
        dead.write_text("guard false then skip end", encoding="utf-8")
        assert main(["traces", str(dead)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1 trace\n")
        assert "{}" in out
