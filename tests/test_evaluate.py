import random

import pytest

from lagc.errors import UnboundVariableError
from lagc.evaluate import (
    apply_arith,
    apply_bool,
    apply_rel,
    eval_arith,
    eval_bool,
    eval_exp,
    eval_exp_list,
    eval_sexp,
    is_concrete,
)
from lagc.state import EMPTY_STATE, make_state
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    BBin,
    BoolLit,
    BoolOp,
    MethodRef,
    Neg,
    Num,
    Rel,
    RelOp,
    STAR,
    Var,
)

from gens import rand_aexp, rand_bexp, rand_concrete_state, rand_state
from samples import AEXP_SAMPLE, BEXP_SAMPLE, SIGMA1, SIGMA2, X, Y
from spec import domain, free_vars


def test_operator_tables():
    assert apply_arith(ArithOp.MUL, 6, 120) == 720
    assert apply_arith(ArithOp.SUB, 5, 5) == 0
    assert apply_arith(ArithOp.ADD, -3, 3) == 0
    assert apply_rel(RelOp.GEQ, 1, 2) is False
    assert apply_rel(RelOp.EQ, 0, 0) is True
    assert apply_rel(RelOp.LEQ, -1, 0) is True
    assert apply_bool(BoolOp.DISJ, False, False) is False
    assert apply_bool(BoolOp.CONJ, True, False) is False


def test_eval_arith_examples():
    assert eval_arith(AEXP_SAMPLE, SIGMA2) == Num(8)
    assert eval_arith(Num(9), EMPTY_STATE) == Num(9)
    assert eval_arith(Var("x"), SIGMA1) == ABin(Y, ArithOp.MUL, Num(4))


def test_eval_arith_unbound():
    with pytest.raises(UnboundVariableError):
        eval_arith(Var("nope"), SIGMA2)


def test_eval_bool_examples():
    expected = BBin(
        Rel(ABin(Y, ArithOp.MUL, Num(4)), RelOp.EQ, Num(2)),
        BoolOp.DISJ,
        BoolLit(False),
    )
    assert eval_bool(BEXP_SAMPLE, SIGMA1) == expected
    assert eval_bool(BoolLit(True), EMPTY_STATE) == BoolLit(True)
    initial = make_state({v: Num(0) for v in ("x", "y", "z")})
    assert eval_bool(Neg(Rel(X, RelOp.EQ, Y)), initial) == BoolLit(False)


def test_eval_exp_and_sexp():
    assert eval_exp(MethodRef("foo"), SIGMA1) == MethodRef("foo")
    assert eval_sexp(STAR, SIGMA2) == STAR
    assert eval_exp_list((MethodRef("foo"), ArithExp(Var("x"))), SIGMA2) == (
        MethodRef("foo"),
        ArithExp(Num(8)),
    )


def test_eval_bexp_set():
    from lagc.evaluate import eval_bexp_set

    pc = frozenset({Rel(X, RelOp.EQ, Num(8)), BoolLit(True)})
    assert eval_bexp_set(pc, SIGMA2) == frozenset({BoolLit(True)})


def test_is_concrete():
    assert is_concrete(Num(0))
    assert not is_concrete(STAR)
    assert not is_concrete(AEXP_SAMPLE)
    assert is_concrete(MethodRef("foo"))
    assert is_concrete(BoolLit(False))
    assert not is_concrete(Var("x"))
    assert is_concrete((MethodRef("m"), ArithExp(Num(1))))
    assert not is_concrete(frozenset({Rel(X, RelOp.EQ, Num(1))}))


def test_concrete_expressions_are_fixed_points():
    rng = random.Random(21)
    for _ in range(300):
        sigma = rand_state(rng)
        n = Num(rng.randint(-99, 99))
        b = BoolLit(rng.random() < 0.5)
        assert eval_arith(n, sigma) == n
        assert eval_bool(b, sigma) == b
        assert eval_sexp(n, sigma) == n


def test_variable_free_expressions_evaluate_to_literals():
    rng = random.Random(22)
    for _ in range(300):
        expr = rand_aexp(rng, names=())
        assert free_vars(expr) == frozenset()
        assert isinstance(eval_arith(expr, EMPTY_STATE), Num)
        cond = rand_bexp(rng, names=())
        assert isinstance(eval_bool(cond, EMPTY_STATE), BoolLit)


def test_closed_expressions_fold_under_concrete_states():
    rng = random.Random(23)
    for _ in range(300):
        sigma = rand_concrete_state(rng)
        expr = rand_aexp(rng)
        assert free_vars(expr) <= domain(sigma)
        assert isinstance(eval_arith(expr, sigma), Num)
        cond = rand_bexp(rng)
        assert isinstance(eval_bool(cond, sigma), BoolLit)


def test_eval_is_deterministic():
    rng = random.Random(24)
    for _ in range(100):
        sigma = rand_state(rng)
        expr = rand_aexp(rng)
        assert eval_arith(expr, sigma) == eval_arith(expr, sigma)
