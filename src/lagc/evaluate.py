"""Operator interpretations and expression evaluation under a symbolic state.

Evaluation folds an expression as far as the state allows: variables are
replaced by the expressions the state maps them to, and an operation
collapses to a literal exactly when both evaluated operands are literals.
Symbolic variables simply stay put.

An operator's interpretation is the function of the ``operator`` module,
found by the operator in a table, so folding two literals costs one
lookup and one C call.  ``eval_arith`` recurses on both operands: a loop
over the spine of a sum was measured slower on every ``x - 1``.
"""

from __future__ import annotations

from operator import add, and_, eq, ge, le, mul, or_, sub

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

# each operator's function on the values of literal operands
_ARITH = {ArithOp.ADD: add, ArithOp.SUB: sub, ArithOp.MUL: mul}

_BOOL = {BoolOp.CONJ: and_, BoolOp.DISJ: or_}

_REL = {RelOp.LEQ: le, RelOp.GEQ: ge, RelOp.EQ: eq}


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
        return Num(_ARITH[a.op](left.value, right.value))
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
            return TRUE if _BOOL[b.op](left.value, right.value) else FALSE
        return BBin(left, b.op, right)
    left = eval_arith(b.left, sigma)
    right = eval_arith(b.right, sigma)
    if isinstance(left, Num) and isinstance(right, Num):
        return TRUE if _REL[b.op](left.value, right.value) else FALSE
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
