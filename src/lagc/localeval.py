"""Local valuation: one statement evaluated up to the next scheduling point.

The result of ``valuate`` is the finite set of continuation traces a
statement can produce in a given state: each carries a path condition, the
symbolic trace built so far, and the statements remaining after the
scheduling point.

What remains is a marker: ``DONE``, or a ``Pending`` continuation stack,
the one form that carries sequencing for both language subsets.  Its
constructor flattens a ``Seq`` spine once into a head statement and a flat
tuple of the statements to run after it, so ``valuate`` only ever runs the
head and pushes whatever the head leaves over in front of the rest.  A
step therefore costs the same anywhere in a long sequence, and no marker
nests deeper than the statements it holds.
"""

from __future__ import annotations

from functools import reduce
from typing import Union

from .errors import FreshBoundExceededError, ModeError
from .evaluate import eval_arith, eval_bool
from .state import BOUND_EXCEEDED_PREFIX, State, update, vargen
from .syntax import (
    ArithExp,
    Assign,
    Call,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    MethodRef,
    Num,
    Record,
    STAR,
    Seq,
    Skip,
    Stmt,
    StoredExp,
    Var,
    While,
    check_mode,
    seq_spine,
    substitute,
)
from .trace import CondTrace, EventKind, StateAtom, gen_event, singleton

DEFAULT_FRESH_BOUND = 100


class Pending(Record):
    """Statements still left to evaluate: ``head`` first, then ``rest`` in order.

    ``Pending(stmt)`` flattens the ``Seq`` spine of ``stmt``; ``rest`` given
    alongside is appended as it is and must already be flat.  Neither
    ``head`` nor any member of ``rest`` is a ``Seq``, so every nesting of the
    same sequence gives the same marker.

    The hash reads only ``head``, the length of ``rest`` and its first
    statement, so it costs the same however long the sequence is; equality
    still compares everything, and equal markers agree on those three
    parts, so hashing stays consistent with it.  Equality and the hash are
    all a configuration needs of its markers, which it holds as an
    order-free multiset.
    """

    __slots__ = ("head", "rest", "_hash")
    _fields = ("head", "rest")
    head: Stmt
    rest: tuple

    def __init__(self, stmt: Stmt, rest: tuple = ()):
        if isinstance(stmt, Seq):
            stmt, *more = seq_spine(stmt)
            rest = tuple(more) + rest
        object.__setattr__(self, "head", stmt)
        object.__setattr__(self, "rest", rest)
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        if self._hash is None:
            rest = self.rest
            object.__setattr__(self, "_hash", hash((self.head, len(rest), rest[:1])))
        return self._hash

    @property
    def stmt(self) -> Stmt:
        """The pending statements as one left-nested ``Seq``."""
        return reduce(Seq, self.rest, self.head)


class Done(Record):
    """The empty continuation: the process has finished."""

    __slots__ = ()


DONE = Done()

Marker = Union[Pending, Done]


class ContTrace(Record):
    __slots__ = _fields = ("cond", "marker")
    cond: CondTrace
    marker: Marker

    def __init__(self, cond: CondTrace, marker: Marker):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "marker", marker)


def _push(marker: Marker, rest: tuple) -> Marker:
    """Put a flat tuple of statements behind whatever the marker still holds."""
    if not rest:
        return marker
    front = (marker.head,) + marker.rest if isinstance(marker, Pending) else ()
    stmts = front + rest
    return Pending(stmts[0], stmts[1:])


def cont_append(marker: Marker, stmt: Stmt) -> Marker:
    """Sequence another statement after whatever the marker still holds."""
    return _push(marker, tuple(seq_spine(stmt)))


def parallel(left: Marker, right: Marker) -> Marker:
    """Rebuild local parallelism around two markers; finished sides drop out."""
    if isinstance(left, Pending) and isinstance(right, Pending):
        return Pending(LocPar(left.stmt, right.stmt))
    if isinstance(left, Pending):
        return left
    return right


def _fresh(sigma: State, base: str, suffix: str, bound: int) -> str:
    name = vargen(sigma, 0, bound, "$" + base + suffix)
    if name.startswith(BOUND_EXCEEDED_PREFIX):
        raise FreshBoundExceededError(name)
    return name


def _branch(cond, sigma: State, marker: Marker) -> ContTrace:
    """Continue with ``marker`` under the path condition ``cond``, adding no atom."""
    return ContTrace(CondTrace(frozenset({eval_bool(cond, sigma)}), singleton(sigma)), marker)


def valuate(
    stmt: Union[Stmt, Pending],
    sigma: State,
    mode: str,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
) -> frozenset:
    """All continuation traces of ``stmt`` in ``sigma`` up to one scheduling point.

    ``stmt`` may also be a ``Pending`` marker: its head runs, and the rest of
    the stack waits behind whatever the head leaves over.
    """
    check_mode(mode)
    pending = stmt if isinstance(stmt, Pending) else Pending(stmt)
    conts = _valuate_head(pending.head, sigma, mode, fresh_bound)
    if not pending.rest:
        return conts
    return frozenset(ContTrace(c.cond, _push(c.marker, pending.rest)) for c in conts)


def _valuate_head(stmt: Stmt, sigma: State, mode: str, fresh_bound: int) -> frozenset:
    """``valuate`` for a statement that is not a ``Seq``."""
    if isinstance(stmt, Skip):
        return frozenset({ContTrace(CondTrace(frozenset(), singleton(sigma)), DONE)})
    if isinstance(stmt, Assign):
        value = StoredExp(eval_arith(stmt.value, sigma))
        trace = singleton(sigma) + (StateAtom(update(sigma, stmt.target, value)),)
        return frozenset({ContTrace(CondTrace(frozenset(), trace), DONE)})
    if isinstance(stmt, If):
        return frozenset(
            {
                _branch(stmt.cond, sigma, Pending(stmt.body)),
                _branch(stmt.negated, sigma, DONE),
            }
        )
    if isinstance(stmt, While):
        return frozenset(
            {
                _branch(stmt.cond, sigma, Pending(stmt.body, (stmt,))),
                _branch(stmt.negated, sigma, DONE),
            }
        )
    if mode != "ext":
        raise ModeError(f"{type(stmt).__name__} is not available in wl mode")
    if isinstance(stmt, LocPar):
        left, right = Pending(stmt.left), Pending(stmt.right)
        from_left = frozenset(
            ContTrace(cont.cond, parallel(cont.marker, right))
            for cont in valuate(left, sigma, mode, fresh_bound)
        )
        from_right = frozenset(
            ContTrace(cont.cond, parallel(left, cont.marker))
            for cont in valuate(right, sigma, mode, fresh_bound)
        )
        return from_left | from_right
    if isinstance(stmt, LocMem):
        if not stmt.decls:
            return valuate(stmt.body, sigma, mode, fresh_bound)
        declared, rest = stmt.decls[0], stmt.decls[1:]
        fresh = _fresh(sigma, declared, "::Scope", fresh_bound)
        trace = singleton(sigma) + (StateAtom(update(sigma, fresh, StoredExp(Num(0)))),)
        marker = Pending(substitute(LocMem(rest, stmt.body), declared, fresh))
        return frozenset({ContTrace(CondTrace(frozenset(), trace), marker)})
    if isinstance(stmt, Input):
        fresh = _fresh(sigma, stmt.target, "::Input", fresh_bound)
        rerouted = update(update(sigma, fresh, STAR), stmt.target, StoredExp(Var(fresh)))
        trace = singleton(sigma) + gen_event(
            EventKind.INPUT, rerouted, (ArithExp(Var(fresh)),)
        )
        return frozenset({ContTrace(CondTrace(frozenset(), trace), DONE)})
    if isinstance(stmt, Guard):
        return frozenset({_branch(stmt.cond, sigma, Pending(stmt.body))})
    if isinstance(stmt, Call):
        trace = gen_event(
            EventKind.INVOKE, sigma, (MethodRef(stmt.method), ArithExp(stmt.arg))
        )
        return frozenset({ContTrace(CondTrace(frozenset(), trace), DONE)})
    raise ModeError(f"valuate: unsupported statement {type(stmt).__name__}")
