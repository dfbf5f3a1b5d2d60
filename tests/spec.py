"""The paper's definitions, kept as the tests' specification of the engine.

LAGC defines its trace operations on whole traces: the semantic chop,
the well-formedness of a trace under a path condition, invocation
well-formedness, harvested call arguments and concretization by a
mapping.  The engine computes none of them as they are defined.  It
folds what a step needs of a trace atom by atom (``lagc.trace.Summary``)
and concretizes atom by atom (``lagc.concretize.concretize_atom``).  So
the definitions live here, restated over the engine's data types: a
trace is a tuple of atoms, each a ``State`` or an ``EventAtom``, and a
state maps each name to an arithmetic expression or ``*``.  The
property, law and acceptance tests hold the engine against them, and
the frozen reference engine composes with them.

Invocation well-formedness and the harvested arguments are spelled out
over the whole trace here, independently of the engine's fold.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import NamedTuple

from lagc.concretize import concretize_atom
from lagc.errors import LagcError, UndefinedTraceOpError
from lagc.evaluate import eval_bexp_set, is_concrete
from lagc.localeval import DONE, Par
from lagc.state import State, is_concrete_state
from lagc.syntax import ArithExp, LocPar, MethodRef, Num, Seq, Star, occurrences
from lagc.trace import EventAtom, EventKind, Trace, is_concrete_trace


class MalformedParamError(LagcError):
    """A harvested call argument was not an arithmetic expression."""


# ---------------------------------------------------------------------------
# Syntax and states


def free_vars(item) -> frozenset:
    """The free variables of any syntax value: the set of its ``occurrences``."""
    return frozenset(occurrences(item))


def domain(sigma: State) -> frozenset:
    return frozenset(name for name, _ in sigma.entries)


def symbolic_vars(sigma: State) -> frozenset:
    """Variables the state maps to the symbolic placeholder."""
    return frozenset(name for name, value in sigma.entries if isinstance(value, Star))


def is_wellformed_state(sigma: State) -> bool:
    """Every variable mentioned in an image must be symbolic in the state."""
    symbolic = symbolic_vars(sigma)
    return all(free_vars(value) <= symbolic for _, value in sigma.entries)


def marker_stmt(marker):
    """A pending marker's statements as one left-nested ``Seq``, each ``Par`` as a ``LocPar``."""
    heads = []
    while marker is not DONE:
        head, marker = marker.head, marker.rest
        if isinstance(head, Par):
            head = LocPar(marker_stmt(head.left), marker_stmt(head.right))
        heads.append(head)
    return reduce(Seq, heads)


# ---------------------------------------------------------------------------
# Traces


class CondTrace(NamedTuple):
    """A symbolic trace guarded by a path condition; a tuple, also built by ``cond_trace``."""

    pc: frozenset
    trace: Trace


# a CondTrace from the pair (pc, trace)
cond_trace = partial(tuple.__new__, CondTrace)


def semantic_chop(left: Trace, right: Trace) -> Trace:
    """Concatenate two traces that share a boundary state, dropping one copy.

    Only the shape of ``left`` is checked; whether the boundary states agree
    is the caller's responsibility.
    """
    if left and isinstance(left[-1], State):
        return left[:-1] + right
    raise UndefinedTraceOpError("semantic chop needs a final state on the left")


def semantic_chop_cond(left: CondTrace, right: CondTrace) -> CondTrace:
    return CondTrace(left.pc | right.pc, semantic_chop(left.trace, right.trace))


def trace_symbolic_vars(trace: Trace) -> frozenset:
    out = frozenset()
    for atom in trace:
        if isinstance(atom, State):
            out |= symbolic_vars(atom)
    return out


def is_wellformed_cond_trace(cond: CondTrace) -> bool:
    """The five wellformedness conditions, checked together.

    1. Variables concrete in some state never occur symbolic elsewhere.
    2. Path-condition variables are symbolic variables of the trace.
    3. Event-argument variables are symbolic variables of the trace.
    4. Events sit between identical states, and the trace starts and ends
       with a state (the empty trace therefore fails).
    5. All states are wellformed.
    """
    trace = cond.trace
    symbolic = trace_symbolic_vars(trace)
    for atom in trace:
        if isinstance(atom, State):
            non_symbolic = domain(atom) - symbolic_vars(atom)
            if non_symbolic & symbolic:
                return False
            if not is_wellformed_state(atom):
                return False
        else:
            if not all(free_vars(arg) <= symbolic for arg in atom.args):
                return False
    for b in cond.pc:
        if not free_vars(b) <= symbolic:
            return False
    if not trace or not isinstance(trace[0], State) or not isinstance(trace[-1], State):
        return False
    for i, atom in enumerate(trace):
        if isinstance(atom, EventAtom):
            if i == 0 or i == len(trace) - 1:
                return False
            before, after = trace[i - 1], trace[i + 1]
            if not (isinstance(before, State) and isinstance(after, State)):
                return False
            if before != after:
                return False
    return True


def is_concrete_cond_trace(cond: CondTrace) -> bool:
    return (
        is_wellformed_cond_trace(cond)
        and is_concrete(cond.pc)
        and is_concrete_trace(cond.trace)
    )


def unanswered_invocations(trace: Trace) -> dict | None:
    """Invocations not yet reacted to, counted per argument list.

    Only argument lists with a positive count are kept.  Returns ``None``
    when some reaction event has no unmatched invocation before it.
    Appending a reaction with arguments ``args`` keeps the trace
    invocation-wellformed iff ``args`` has a count.
    """
    open_calls = {}
    for atom in trace:
        if isinstance(atom, State) or atom.kind is EventKind.INPUT:
            continue
        args = atom.args
        if atom.kind is EventKind.INVOKE:
            open_calls[args] = open_calls.get(args, 0) + 1
        elif not open_calls.get(args):
            return None
        elif open_calls[args] == 1:
            del open_calls[args]
        else:
            open_calls[args] -= 1
    return open_calls


def invocation_wellformed(trace: Trace) -> bool:
    """Every reaction event must have an unmatched invocation before it."""
    return unanswered_invocations(trace) is not None


def harvest_params(trace: Trace) -> frozenset:
    """Arguments of all invocation events shaped [method, arithmetic arg]."""
    return frozenset(
        atom.args[1]
        for atom in trace
        if isinstance(atom, EventAtom)
        and atom.kind is EventKind.INVOKE
        and len(atom.args) == 2
        and isinstance(atom.args[0], MethodRef)
        and isinstance(atom.args[1], ArithExp)
    )


# ---------------------------------------------------------------------------
# Concretization mappings


def is_conc_map_state(rho: State, sigma: State) -> bool:
    return domain(rho) & domain(sigma) == symbolic_vars(sigma) and is_concrete_state(rho)


def min_conc_map_state(sigma: State, numeral: int) -> State:
    value = Num(numeral)
    return State(tuple((name, value) for name in symbolic_vars(sigma)))


def is_conc_map_trace(rho: State, trace: Trace) -> bool:
    if not is_concrete_state(rho):
        return False
    return all(is_conc_map_state(rho, atom) for atom in trace if isinstance(atom, State))


def concretize_trace(rho: State, trace: Trace) -> Trace:
    return tuple(concretize_atom(rho, atom) for atom in trace)


def concretize_cond_trace(rho: State, cond: CondTrace) -> CondTrace:
    return CondTrace(eval_bexp_set(cond.pc, rho), concretize_trace(rho, cond.trace))
