"""Operator interpretations and expression evaluation under a symbolic state.

Evaluation folds an expression as far as the state allows: variables are
replaced by the expressions the state maps them to, and an operation
collapses to a literal exactly when both evaluated operands are literals.
Symbolic variables simply stay put.
"""

from __future__ import annotations

from .errors import UnboundVariableError
from .state import State
from .syntax import (
    ABin,
    AExp,
    ArithExp,
    ArithOp,
    BBin,
    BExp,
    BoolExp,
    BoolLit,
    BoolOp,
    Exp,
    FALSE,
    MethodRef,
    Neg,
    Num,
    Rel,
    RelOp,
    SExp,
    Star,
    TRUE,
    Var,
)

_ARITH = {
    ArithOp.ADD: lambda l, r: l + r,
    ArithOp.SUB: lambda l, r: l - r,
    ArithOp.MUL: lambda l, r: l * r,
}

_BOOL = {
    BoolOp.CONJ: lambda l, r: l and r,
    BoolOp.DISJ: lambda l, r: l or r,
}

_REL = {
    RelOp.LEQ: lambda l, r: l <= r,
    RelOp.GEQ: lambda l, r: l >= r,
    RelOp.EQ: lambda l, r: l == r,
}


def apply_arith(op: ArithOp, left: int, right: int) -> int:
    return _ARITH[op](left, right)


def apply_bool(op: BoolOp, left: bool, right: bool) -> bool:
    return _BOOL[op](left, right)


def apply_rel(op: RelOp, left: int, right: int) -> bool:
    return _REL[op](left, right)


def is_concrete(item) -> bool:
    """Fully simplified and free of variables and symbolic placeholders.

    Numerals, Boolean literals and method names are concrete; everything
    composite is not.  Containers are concrete when all elements are.
    """
    if isinstance(item, (Num, BoolLit, MethodRef)):
        return True
    if isinstance(item, (tuple, frozenset)):
        return all(is_concrete(element) for element in item)
    if isinstance(item, ArithExp):
        return is_concrete(item.arith)
    if isinstance(item, BoolExp):
        return is_concrete(item.boolexp)
    return False


def eval_arith(a: AExp, sigma: State) -> AExp:
    if isinstance(a, Num):
        return a
    if isinstance(a, Var):
        stored = sigma.lookup(a.name)
        if stored is None:
            raise UnboundVariableError(a.name)
        return a if stored.__class__ is Star else stored
    left = eval_arith(a.left, sigma)
    right = eval_arith(a.right, sigma)
    if isinstance(left, Num) and isinstance(right, Num):
        return Num(apply_arith(a.op, left.value, right.value))
    return ABin(left, a.op, right)


def eval_bool(b: BExp, sigma: State) -> BExp:
    if isinstance(b, BoolLit):
        return b
    if isinstance(b, Neg):
        operand = eval_bool(b.operand, sigma)
        if isinstance(operand, BoolLit):
            return FALSE if operand.value else TRUE
        return Neg(operand)
    if isinstance(b, BBin):
        left = eval_bool(b.left, sigma)
        right = eval_bool(b.right, sigma)
        if isinstance(left, BoolLit) and isinstance(right, BoolLit):
            return TRUE if apply_bool(b.op, left.value, right.value) else FALSE
        return BBin(left, b.op, right)
    left = eval_arith(b.left, sigma)
    right = eval_arith(b.right, sigma)
    if isinstance(left, Num) and isinstance(right, Num):
        return TRUE if apply_rel(b.op, left.value, right.value) else FALSE
    return Rel(left, b.op, right)


def eval_exp(e: Exp, sigma: State) -> Exp:
    if isinstance(e, ArithExp):
        return ArithExp(eval_arith(e.arith, sigma))
    if isinstance(e, BoolExp):
        return BoolExp(eval_bool(e.boolexp, sigma))
    return e


def eval_sexp(s: SExp, sigma: State) -> SExp:
    return s if s.__class__ is Star else eval_arith(s, sigma)


def eval_exp_list(exps, sigma: State) -> tuple:
    return tuple(eval_exp(e, sigma) for e in exps)


def eval_bexp_set(bexps, sigma: State) -> frozenset:
    return frozenset(eval_bool(b, sigma) for b in bexps)
