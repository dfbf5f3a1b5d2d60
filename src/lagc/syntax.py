"""Abstract syntax for expressions, statements, methods and programs.

Two language subsets share one statement type: the plain while language
(``wl``) and its concurrent extension (``ext``).  ``language_check`` tells
them apart.  All nodes are immutable and hashable, and ``canon_key`` gives
a total order over every syntax value so that sets and multisets built from
them can be canonicalized deterministically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import ModeError


class ArithOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"


class BoolOp(Enum):
    CONJ = "&&"
    DISJ = "||"


class RelOp(Enum):
    LEQ = "<="
    GEQ = ">="
    EQ = "=="


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ABin:
    left: "AExp"
    op: ArithOp
    right: "AExp"


AExp = Union[Num, Var, ABin]


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Neg:
    operand: "BExp"


@dataclass(frozen=True)
class BBin:
    left: "BExp"
    op: BoolOp
    right: "BExp"


@dataclass(frozen=True)
class Rel:
    left: AExp
    op: RelOp
    right: AExp


BExp = Union[BoolLit, Neg, BBin, Rel]


@dataclass(frozen=True)
class ArithExp:
    """An arithmetic expression used as a generic expression."""

    arith: AExp


@dataclass(frozen=True)
class BoolExp:
    """A Boolean expression used as a generic expression."""

    boolexp: BExp


@dataclass(frozen=True)
class MethodRef:
    """A method name used as a generic expression (event payloads only)."""

    name: str


Exp = Union[ArithExp, BoolExp, MethodRef]


@dataclass(frozen=True)
class StoredExp:
    """A state value backed by an arithmetic expression."""

    arith: AExp


@dataclass(frozen=True)
class Star:
    """The symbolic placeholder for a value unknown until concretization."""


STAR = Star()

SExp = Union[StoredExp, Star]


# ---------------------------------------------------------------------------
# Statements, methods, programs


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    target: str
    value: AExp


@dataclass(frozen=True)
class If:
    cond: BExp
    body: "Stmt"


@dataclass(frozen=True)
class While:
    cond: BExp
    body: "Stmt"


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


@dataclass(frozen=True)
class LocPar:
    left: "Stmt"
    right: "Stmt"


@dataclass(frozen=True)
class LocMem:
    decls: tuple
    body: "Stmt"


@dataclass(frozen=True)
class Input:
    target: str


@dataclass(frozen=True)
class Guard:
    cond: BExp
    body: "Stmt"


@dataclass(frozen=True)
class Call:
    method: str
    arg: AExp


Stmt = Union[Skip, Assign, If, While, Seq, LocPar, LocMem, Input, Guard, Call]

EXT_ONLY = (LocPar, LocMem, Input, Guard, Call)


@dataclass(frozen=True)
class Method:
    name: str
    formal: str
    body: Stmt


@dataclass(frozen=True)
class Program:
    methods: tuple
    main: Stmt


def seq_spine(stmt: Stmt) -> list:
    """The statements of a ``Seq`` spine in execution order, none of them a ``Seq``.

    Walks the spine with a loop, so a long sequence of either nesting
    does not recurse.
    """
    out, todo = [], [stmt]
    while todo:
        item = todo.pop()
        if isinstance(item, Seq):
            todo.append(item.second)
            todo.append(item.first)
        else:
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# Canonical total order

_KIND_PRIMITIVE = 0
_KIND_STRING = 1
_KIND_TUPLE = 2
_KIND_FROZENSET = 3
_KIND_ENUM = 4
_KIND_NODE = 5


def canon_key(value):
    """Map any syntax-level value onto a totally ordered key.

    Nodes order by constructor name first, then by their fields; containers
    order element-wise.  The induced order is arbitrary but fixed, which is
    all that deterministic canonicalization needs.
    """
    if isinstance(value, bool):
        return (_KIND_PRIMITIVE, 0, int(value))
    if isinstance(value, int):
        return (_KIND_PRIMITIVE, 1, value)
    if isinstance(value, str):
        return (_KIND_STRING, value)
    if isinstance(value, tuple):
        return tuple_key(canon_key(v) for v in value)
    if isinstance(value, frozenset):
        return (_KIND_FROZENSET, tuple(sorted(canon_key(v) for v in value)))
    if isinstance(value, Enum):
        return (_KIND_ENUM, type(value).__name__, value.name)
    if dataclasses.is_dataclass(value):
        parts = tuple(
            canon_key(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
        return (_KIND_NODE, type(value).__name__, parts)
    raise TypeError(f"no canonical order for {type(value).__name__}")


def tuple_key(element_keys) -> tuple:
    """``canon_key`` of a tuple, given the keys of its elements in order."""
    return (_KIND_TUPLE, tuple(element_keys))


# ---------------------------------------------------------------------------
# Free variables


def occurrences(item) -> list:
    """Left-to-right list of free variable occurrences, duplicates kept.

    Scope declarations and method formals bind, so their occurrences in the
    respective bodies are left out.  Works on any syntax value, state values
    and event arguments included.
    """
    if isinstance(item, (Num, BoolLit, MethodRef, Star, Skip)):
        return []
    if isinstance(item, Var):
        return [item.name]
    if isinstance(item, (ABin, Rel, BBin)):
        return occurrences(item.left) + occurrences(item.right)
    if isinstance(item, Neg):
        return occurrences(item.operand)
    if isinstance(item, (ArithExp, StoredExp)):
        return occurrences(item.arith)
    if isinstance(item, BoolExp):
        return occurrences(item.boolexp)
    if isinstance(item, tuple):
        return list(item)
    if isinstance(item, Assign):
        return [item.target] + occurrences(item.value)
    if isinstance(item, (If, While, Guard)):
        return occurrences(item.cond) + occurrences(item.body)
    if isinstance(item, Seq):
        return [v for part in seq_spine(item) for v in occurrences(part)]
    if isinstance(item, LocPar):
        return occurrences(item.left) + occurrences(item.right)
    if isinstance(item, LocMem):
        declared = set(item.decls)
        return [v for v in occurrences(item.body) if v not in declared]
    if isinstance(item, Input):
        return [item.target]
    if isinstance(item, Call):
        return occurrences(item.arg)
    if isinstance(item, Method):
        return [v for v in occurrences(item.body) if v != item.formal]
    if isinstance(item, Program):
        out = []
        for method in item.methods:
            out.extend(occurrences(method))
        return out + occurrences(item.main)
    raise TypeError(f"occurrences: unsupported {type(item).__name__}")


def free_vars(item) -> frozenset:
    """The free variables of any syntax value: the set of its ``occurrences``."""
    return frozenset(occurrences(item))


# ---------------------------------------------------------------------------
# Substitution


def substitute(item, old: str, new: str):
    """Rename every occurrence of ``old`` to ``new``, binders included."""
    if isinstance(item, (Num, BoolLit, MethodRef, Star, Skip)):
        return item
    if isinstance(item, Var):
        return Var(new) if item.name == old else item
    if isinstance(item, ABin):
        return ABin(substitute(item.left, old, new), item.op, substitute(item.right, old, new))
    if isinstance(item, Neg):
        return Neg(substitute(item.operand, old, new))
    if isinstance(item, BBin):
        return BBin(substitute(item.left, old, new), item.op, substitute(item.right, old, new))
    if isinstance(item, Rel):
        return Rel(substitute(item.left, old, new), item.op, substitute(item.right, old, new))
    if isinstance(item, ArithExp):
        return ArithExp(substitute(item.arith, old, new))
    if isinstance(item, BoolExp):
        return BoolExp(substitute(item.boolexp, old, new))
    if isinstance(item, StoredExp):
        return StoredExp(substitute(item.arith, old, new))
    if isinstance(item, tuple):
        return tuple(
            (new if element == old else element) if isinstance(element, str)
            else substitute(element, old, new)
            for element in item
        )
    if isinstance(item, Assign):
        target = new if item.target == old else item.target
        return Assign(target, substitute(item.value, old, new))
    if isinstance(item, If):
        return If(substitute(item.cond, old, new), substitute(item.body, old, new))
    if isinstance(item, While):
        return While(substitute(item.cond, old, new), substitute(item.body, old, new))
    if isinstance(item, Seq):
        return Seq(substitute(item.first, old, new), substitute(item.second, old, new))
    if isinstance(item, LocPar):
        return LocPar(substitute(item.left, old, new), substitute(item.right, old, new))
    if isinstance(item, LocMem):
        return LocMem(substitute(item.decls, old, new), substitute(item.body, old, new))
    if isinstance(item, Input):
        return Input(new if item.target == old else item.target)
    if isinstance(item, Guard):
        return Guard(substitute(item.cond, old, new), substitute(item.body, old, new))
    if isinstance(item, Call):
        return Call(item.method, substitute(item.arg, old, new))
    if isinstance(item, Method):
        formal = new if item.formal == old else item.formal
        return Method(item.name, formal, substitute(item.body, old, new))
    if isinstance(item, Program):
        return Program(
            tuple(substitute(m, old, new) for m in item.methods),
            substitute(item.main, old, new),
        )
    raise TypeError(f"substitute: unsupported {type(item).__name__}")


# ---------------------------------------------------------------------------
# Language subset check


def check_mode(mode: str) -> str:
    if mode not in ("wl", "ext"):
        raise ModeError(f"unknown language mode {mode!r}")
    return mode


def language_check(stmt: Stmt, mode: str) -> bool:
    """True iff ``stmt`` stays within the selected language subset."""
    check_mode(mode)
    if mode == "ext":
        return True
    if isinstance(stmt, EXT_ONLY):
        return False
    if isinstance(stmt, (If, While)):
        return language_check(stmt.body, mode)
    if isinstance(stmt, Seq):
        return all(language_check(part, mode) for part in seq_spine(stmt))
    return True
