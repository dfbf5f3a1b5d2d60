"""Local valuation: one statement evaluated up to the next scheduling point.

A local step of a statement in a given state yields the finite set of
continuation traces it can produce: each carries a path condition, the
symbolic trace built so far, and the statements remaining after the
scheduling point.

What remains is a marker: ``DONE``, or a ``Pending`` cell holding the
statement to run next and the marker to run after it, the one form that
carries sequencing for both language subsets.  Markers are hash-consed
nodes like the syntax they hold, so equal markers are one object and a
marker hashes and compares in O(1).  Building a marker flattens a ``Seq``
spine into one cell per statement and turns a ``co`` into a ``Par`` head
holding the markers of its two branches, so every nesting of the same
statements gives the same marker.  ``step`` runs only the head and
builds whatever the head leaves over directly in front of the rest, which
it shares: a step costs the same anywhere in a long sequence, and no
marker nests deeper than the statements it holds.

``step`` yields each continuation trace as a plain triple ``(pc, trace,
next marker)``, which is what both composition engines consume.  An
``if`` or ``while`` step evaluates its test once.
"""

from __future__ import annotations

from typing import Union
from weakref import ref

from .errors import FreshBoundExceededError, ModeError
from .evaluate import eval_arith, eval_bool
from .state import BOUND_EXCEEDED_PREFIX, State, update, vargen
from .syntax import (
    ArithExp,
    Assign,
    Call,
    FALSE,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    MethodRef,
    Neg,
    Node,
    Num,
    STAR,
    Seq,
    Skip,
    Stmt,
    TRUE,
    Var,
    While,
    seq_spine,
    substitute,
)
from .trace import EventKind, gen_event, singleton

DEFAULT_FRESH_BOUND = 100

_set = object.__setattr__


class Done(Node):
    """The empty continuation: the process has finished."""

    __slots__ = ()


DONE = Done()


class Pending(Node):
    """Statements still left to evaluate: ``head`` first, then the marker ``rest``.

    ``Pending(stmt, rest)`` puts ``stmt`` in front of ``rest``.  It
    flattens the ``Seq`` spine of ``stmt`` with a loop, one cell per
    statement, and turns a ``LocPar`` into a ``Par`` head, so no head is a
    ``Seq`` or a ``LocPar`` and every nesting of the same sequence gives
    the same marker.

    ``_body`` memoizes, for a marker whose head is an ``if`` or a
    ``while``, the marker that runs the head's body: the body followed by
    ``rest``, or for a loop by the marker itself.  So a body's ``Seq``
    spine is flattened once per marker while the body's marker lives, not
    on every step.  The memo is a weak reference: a loop's body marker ends
    in the loop marker, and so does the key the node table keeps for it,
    so a body marker the loop marker held would keep both alive for good.
    """

    __slots__ = ("head", "rest", "_body")
    _fields = ("head", "rest")
    head: Stmt
    rest: Marker

    def __new__(cls, stmt, rest: Marker = DONE):
        if isinstance(stmt, Seq):
            for part in reversed(seq_spine(stmt)):
                rest = cls(part, rest)
            return rest
        if isinstance(stmt, LocPar):
            stmt = Par(cls(stmt.left), cls(stmt.right))
        return cls._new(cls, stmt, rest)

    def __repr__(self) -> str:
        return f"Pending({', '.join(map(repr, _heads(self)))})"


class Par(Node):
    """The head of a running ``co``: the markers of its two branches, both pending."""

    __slots__ = _fields = ("left", "right")
    left: Pending
    right: Pending


Marker = Union[Pending, Done]


# the path condition of a step that tests nothing, and of a literal test's two steps
_NO_PC = frozenset()
_PC_TRUE = frozenset((TRUE,))
_PC_FALSE = frozenset((FALSE,))


def _heads(marker: Marker) -> list:
    """The heads of ``marker``'s cells, in order."""
    heads = []
    while marker is not DONE:
        heads.append(marker.head)
        marker = marker.rest
    return heads


def _then(marker: Marker, rest: Marker) -> Marker:
    """``marker``'s statements followed by ``rest``'s; only ``marker``'s cells are built."""
    if rest is DONE:
        return marker
    for head in reversed(_heads(marker)):
        rest = Pending(head, rest)
    return rest


def parallel(left: Marker, right: Marker, rest: Marker = DONE) -> Marker:
    """Two ``co`` branches, then ``rest``; a finished branch drops out."""
    if left is DONE:
        return _then(right, rest)
    if right is DONE:
        return _then(left, rest)
    return Pending(Par(left, right), rest)


def fresh_name(sigma: State, base: str, suffix: str, bound: int) -> str:
    """The first name ``$base + suffix`` with ``c`` prefixes that ``sigma`` lacks, within ``bound``.

    Scope variables, input variables and method parameters draw their
    fresh names here; past the bound it raises ``FreshBoundExceededError``.
    """
    name = vargen(sigma, 0, bound, "$" + base + suffix)
    if name.startswith(BOUND_EXCEEDED_PREFIX):
        raise FreshBoundExceededError(name)
    return name


def _test(cond, sigma: State, then: Marker, rest: Marker) -> tuple:
    """The steps of a test: on to ``then`` where ``cond`` holds in ``sigma``, else on to ``rest``.

    The test is evaluated once.  The failing branch's condition is the
    opposite literal or the negation of the evaluated test, which is
    exactly what evaluating ``Neg(cond)`` gives.  Neither step adds an
    atom, and their path conditions differ.
    """
    test = eval_bool(cond, sigma)
    trace = singleton(sigma)
    if test is TRUE:
        return (_PC_TRUE, trace, then), (_PC_FALSE, trace, rest)
    if test is FALSE:
        return (_PC_FALSE, trace, then), (_PC_TRUE, trace, rest)
    return (frozenset((test,)), trace, then), (frozenset((Neg(test),)), trace, rest)


def step(marker: Pending, sigma: State, mode: str, fresh_bound: int) -> tuple:
    """The local steps of a marker: run its head and build the leftovers in front of its rest.

    Each step is a triple ``(pc, trace, next marker)``, without repeats,
    in the order they were built: the true branch of a test before the
    false one, a ``co``'s left branch before its right.  That order does
    not depend on identity hashes, so neither does the order composition
    explores in.  ``mode`` is not checked; a statement outside the wl
    subset raises ``ModeError`` unless it is ``"ext"``.
    """
    stmt, rest = marker.head, marker.rest
    if isinstance(stmt, (While, If)):
        memo = marker._body
        if memo is None or (body := memo()) is None:
            # after a loop's body the loop runs again, which is the hash-consed ``marker`` itself
            body = Pending(stmt.body, marker if isinstance(stmt, While) else rest)
            _set(marker, "_body", ref(body))
        return _test(stmt.cond, sigma, body, rest)
    # the statements below leave nothing over but ``rest``, or return early
    if isinstance(stmt, Skip):
        trace = singleton(sigma)
    elif isinstance(stmt, Assign):
        trace = sigma, update(sigma, stmt.target, eval_arith(stmt.value, sigma))
    elif mode != "ext":
        name = "LocPar" if isinstance(stmt, Par) else type(stmt).__name__
        raise ModeError(f"{name} is not available in wl mode")
    elif isinstance(stmt, Par):
        left, right = stmt.left, stmt.right
        steps = step(left, sigma, mode, fresh_bound)
        out = [(pc, trace, parallel(after, right, rest)) for pc, trace, after in steps]
        steps = step(right, sigma, mode, fresh_bound)
        out += [(pc, trace, parallel(left, after, rest)) for pc, trace, after in steps]
        return tuple(dict.fromkeys(out))
    elif isinstance(stmt, LocMem):
        if not stmt.decls:
            return step(Pending(stmt.body, rest), sigma, mode, fresh_bound)
        declared, later = stmt.decls[0], stmt.decls[1:]
        fresh = fresh_name(sigma, declared, "::Scope", fresh_bound)
        trace = sigma, update(sigma, fresh, Num(0))
        marker = Pending(substitute(LocMem(later, stmt.body), declared, fresh), rest)
        return ((_NO_PC, trace, marker),)
    elif isinstance(stmt, Guard):
        pc = frozenset((eval_bool(stmt.cond, sigma),))
        return ((pc, singleton(sigma), Pending(stmt.body, rest)),)
    elif isinstance(stmt, Input):
        fresh = fresh_name(sigma, stmt.target, "::Input", fresh_bound)
        rerouted = update(update(sigma, fresh, STAR), stmt.target, Var(fresh))
        trace = singleton(sigma) + gen_event(EventKind.INPUT, rerouted, (ArithExp(Var(fresh)),))
    elif isinstance(stmt, Call):
        trace = gen_event(EventKind.INVOKE, sigma, (MethodRef(stmt.method), ArithExp(stmt.arg)))
    else:
        raise ModeError(f"step: unsupported statement {type(stmt).__name__}")
    return ((_NO_PC, trace, rest),)
