"""Shared example values used across the test suite."""

from lagc.state import EMPTY_STATE, make_state
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    Assign,
    BBin,
    BoolLit,
    BoolOp,
    Call,
    If,
    Input,
    LocMem,
    LocPar,
    Method,
    MethodRef,
    Neg,
    Num,
    Program,
    Rel,
    RelOp,
    STAR,
    Seq,
    Var,
    While,
)
from lagc.trace import EventAtom, EventKind

from spec import CondTrace

X, Y, Z = Var("x"), Var("y"), Var("z")

# (x * y) - x
AEXP_SAMPLE = ABin(ABin(X, ArithOp.MUL, Y), ArithOp.SUB, X)

# x == 2 || false
BEXP_SAMPLE = BBin(Rel(X, RelOp.EQ, Num(2)), BoolOp.DISJ, BoolLit(False))

SIGMA1 = make_state({"x": ABin(Y, ArithOp.MUL, Num(4)), "y": STAR})
SIGMA2 = make_state({"x": Num(8), "y": Num(2)})

TAU1 = (
    SIGMA1,
    EventAtom(EventKind.INPUT, ()),
    SIGMA1,
)
TAU2 = (
    SIGMA1,
    EventAtom(EventKind.REACT, (MethodRef("foo"), ArithExp(Num(2)))),
    SIGMA2,
)
TAU3 = (SIGMA2, EMPTY_STATE)

PI1 = CondTrace(frozenset(), TAU1)
PI2 = CondTrace(frozenset({BoolLit(True)}), TAU2)
PI3 = CondTrace(frozenset({BoolLit(False)}), TAU3)

# if !(x == y) then (z := y ;; y := x) ;; x := z fi
WL_SWAP = If(
    Neg(Rel(X, RelOp.EQ, Y)),
    Seq(Seq(Assign("z", Y), Assign("y", X)), Assign("x", Z)),
)

# (x := 6 ;; y := 1) ;; while x >= 2 do y := y * x ;; x := x - 1 od
WL_FACTORIAL = Seq(
    Seq(Assign("x", Num(6)), Assign("y", Num(1))),
    While(
        Rel(X, RelOp.GEQ, Num(2)),
        Seq(
            Assign("y", ABin(Y, ArithOp.MUL, X)),
            Assign("x", ABin(X, ArithOp.SUB, Num(1))),
        ),
    ),
)

# scope(x){ co x := 1 || x := 2 oc }
EXT_SCOPE_PAR = Program(
    (), LocMem(("x",), LocPar(Assign("x", Num(1)), Assign("x", Num(2))))
)

# program { method foo(x){ x := 2 } main { (x := 0 ;; call foo(x)) ;; x := 1 } }
EXT_CALL = Program(
    (Method("foo", "x", Assign("x", Num(2))),),
    Seq(Seq(Assign("x", Num(0)), Call("foo", X)), Assign("x", Num(1))),
)

# input x ;; x := x + 1
EXT_INPUT = Program((), Seq(Input("x"), Assign("x", ABin(X, ArithOp.ADD, Num(1)))))
