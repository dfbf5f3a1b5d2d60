"""Symbolic traces: sequences of states and events.

As in the paper, a trace is a sequence of states and events: a plain
tuple of atoms, each a ``State`` itself or an ``EventAtom``, with
nothing wrapped around the state.  Both are hash-consed syntax nodes, so
comparing two tuples costs one identity check per atom.  The paper's
definitions on whole traces (the semantic chop, well-formedness,
invocation well-formedness and harvested arguments) are not computed
here; the tests keep them as their specification (``tests/spec.py``).

The replay of the ext exploration's paths holds the older part of a
long trace as a ``Cell`` instead, inside a rope (see ``lagc.compose``):
a hash-consed cons cell of the trace before the last atom (``parent``)
and that atom, a persistent list whose tails are shared (Okasaki,
*Purely Functional Data Structures*, 1998).  Equal traces are one cell,
so a trace hashes and compares in O(1), and appending k atoms to a trace
builds k cells, however long the trace is.  ``grow`` appends atoms to a
cell, and ``trace_of`` spells a cell out as a tuple.  A cell keeps
nothing else.  The exploration itself holds no trace: a graph node keeps
only the last atom, the markers and the ``Summary`` of the trace before
it, which each step extends by what it adds.  The wl engine builds no
cell; it keeps a run's trace in a list.

``Summary`` folds what composition needs to know about a trace
(concreteness, unanswered invocations, harvested call arguments) so that
it can be extended atom by atom.  ``last_state`` raises
``UndefinedTraceOpError`` outside its domain instead of guessing.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Tuple, Union

from .errors import UndefinedTraceOpError
from .evaluate import eval_exp_list, is_concrete
from .state import State, is_concrete_state
from .syntax import ArithExp, MethodRef, Node, TRUE

_set = object.__setattr__


class EventKind(Enum):
    INPUT = "inpEv"
    INVOKE = "invEv"
    REACT = "invREv"

    # members are singletons; ``Enum.__hash__`` hashes the name in Python
    __hash__ = object.__hash__


class EventAtom(Node):
    """An event and its arguments; ``_concrete`` memoizes ``is_concrete_atom``."""

    __slots__ = ("kind", "args", "_concrete")
    _fields = ("kind", "args")
    kind: EventKind
    args: tuple


# a trace atom: a state is its own atom, an event is wrapped with its arguments
TraceAtom = Union[State, EventAtom]
Trace = Tuple[TraceAtom, ...]


def singleton(sigma: State) -> Trace:
    return (sigma,)


def last_state(trace: Trace) -> State:
    if trace and isinstance(trace[-1], State):
        return trace[-1]
    raise UndefinedTraceOpError("trace does not end with a state")


def gen_event(kind: EventKind, sigma: State, args) -> Trace:
    """Surround an event with the given state, simplifying its arguments."""
    return sigma, EventAtom(kind, eval_exp_list(args, sigma)), sigma


# literals are hash-consed, so TRUE is the one Boolean literal that is not false
_ONLY_TRUE = frozenset({TRUE})


def is_consistent(pc: frozenset) -> bool:
    """All members are Boolean literals and none of them is false."""
    return pc <= _ONLY_TRUE


def is_concrete_atom(atom: TraceAtom) -> bool:
    if isinstance(atom, State):
        return is_concrete_state(atom)
    concrete = atom._concrete
    if concrete is None:
        concrete = is_concrete(atom.args)
        _set(atom, "_concrete", concrete)
    return concrete


def is_concrete_trace(trace: Trace) -> bool:
    return all(map(is_concrete_atom, trace))


class Summary(NamedTuple):
    """What a composition step needs to know about a trace, folded atom by atom.

    ``concrete`` says every atom is concrete.  ``open_calls`` counts the
    invocations not yet reacted to per argument list, keeping positive
    counts only, and is ``None`` once some reaction has no unmatched
    invocation before it.  ``params`` holds the arithmetic arguments of
    every invocation shaped [method, argument], harvested whether or not
    the trace is still wellformed.

    A summary is never changed in place: ``extend`` returns a new one, or
    the same one when the added atoms change nothing, and copies
    ``open_calls`` only when they hold an event, so one step costs what it
    adds, not the length of the trace.
    """

    concrete: bool
    open_calls: Optional[dict]
    params: frozenset

    def extend(self, atoms) -> "Summary":
        """The summary of the trace followed by ``atoms``."""
        concrete, open_calls, params = self
        copied = False
        for atom in atoms:
            if concrete and not is_concrete_atom(atom):
                concrete = False
            if isinstance(atom, State) or atom.kind is EventKind.INPUT:
                continue
            args = atom.args
            if atom.kind is EventKind.INVOKE:
                if (
                    len(args) == 2
                    and isinstance(args[0], MethodRef)
                    and isinstance(args[1], ArithExp)
                ):
                    params = params | {args[1]}
                if open_calls is not None:
                    if not copied:
                        open_calls, copied = dict(open_calls), True
                    open_calls[args] = open_calls.get(args, 0) + 1
            elif open_calls is not None:
                count = open_calls.get(args, 0)
                if not count:
                    open_calls = None
                    continue
                if not copied:
                    open_calls, copied = dict(open_calls), True
                if count == 1:
                    del open_calls[args]
                else:
                    open_calls[args] = count - 1
        if concrete is self.concrete and open_calls is self.open_calls and params is self.params:
            return self
        return Summary(concrete, open_calls, params)


EMPTY_SUMMARY = Summary(True, {}, frozenset())


def summarize(trace: Trace) -> Summary:
    return EMPTY_SUMMARY.extend(trace)


# ---------------------------------------------------------------------------
# Traces as cells


class Cell(Node):
    """The trace ``parent`` followed by ``atom``; ``parent`` is ``None`` for one atom.

    The empty trace is ``None``.
    """

    __slots__ = _fields = ("parent", "atom")
    parent: Optional["Cell"]
    atom: TraceAtom

    def __repr__(self) -> str:
        return f"Cell{trace_of(self)!r}"


def grow(cell: Optional[Cell], atoms) -> Optional[Cell]:
    """The trace ``cell`` followed by ``atoms``: one cell per atom, the tail shared."""
    for atom in atoms:
        cell = Cell(cell, atom)
    return cell


def trace_of(cell: Optional[Cell]) -> Trace:
    """The atoms of ``cell``'s trace as a tuple, first atom first."""
    atoms = []
    while cell is not None:
        atoms.append(cell.atom)
        cell = cell.parent
    atoms.reverse()
    return tuple(atoms)
