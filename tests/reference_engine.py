"""The composition engine and local valuation as of the first benchmarked release.

A frozen copy, kept as an oracle for the current engine: every round
explores again from the initial configuration, and a pending statement is
a left-nested ``Seq`` that ``valuate`` walks by recursion.  It imports only
the syntax, state, evaluation, trace and concretization layers, never
``lagc.compose`` or ``lagc.localeval``, and takes the paper's definitions
from ``spec``.  Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from lagc.concretize import min_conc_map_trace
from lagc.errors import (
    DivergenceLimitError,
    FreshBoundExceededError,
    ModeError,
    UndefinedTraceOpError,
)
from lagc.evaluate import eval_arith, eval_bexp_set, eval_bool
from lagc.state import BOUND_EXCEEDED_PREFIX, State, initial_state, update, vargen
from lagc.syntax import (
    ArithExp,
    Assign,
    Call,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    MethodRef,
    Neg,
    Num,
    Program,
    STAR,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
    canon_key,
    check_mode,
    language_check,
    occurrences,
    substitute,
)
from lagc.trace import EventKind, Trace, gen_event, is_consistent, last_state, singleton

from spec import (
    CondTrace,
    MalformedParamError,
    concretize_trace,
    harvest_params,
    invocation_wellformed,
    semantic_chop,
)

DEFAULT_FRESH_BOUND = 100


@dataclass(frozen=True)
class Pending:
    """A statement still left to evaluate."""

    stmt: Stmt


@dataclass(frozen=True)
class Done:
    """The empty continuation: the process has finished."""


DONE = Done()

Marker = Union[Pending, Done]


@dataclass(frozen=True)
class ContTrace:
    cond: CondTrace
    marker: Marker


def cont_append(marker: Marker, stmt: Stmt) -> Marker:
    """Sequence another statement after whatever the marker still holds."""
    if isinstance(marker, Pending):
        return Pending(Seq(marker.stmt, stmt))
    return Pending(stmt)


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


def valuate(stmt: Stmt, sigma: State, mode: str, fresh_bound: int = DEFAULT_FRESH_BOUND) -> frozenset:
    """All continuation traces of ``stmt`` in ``sigma`` up to one scheduling point."""
    check_mode(mode)
    if isinstance(stmt, Skip):
        return frozenset({ContTrace(CondTrace(frozenset(), singleton(sigma)), DONE)})
    if isinstance(stmt, Assign):
        value = eval_arith(stmt.value, sigma)
        trace = singleton(sigma) + (update(sigma, stmt.target, value),)
        return frozenset({ContTrace(CondTrace(frozenset(), trace), DONE)})
    if isinstance(stmt, If):
        return frozenset(
            {
                ContTrace(
                    CondTrace(frozenset({eval_bool(stmt.cond, sigma)}), singleton(sigma)),
                    Pending(stmt.body),
                ),
                ContTrace(
                    CondTrace(frozenset({eval_bool(Neg(stmt.cond), sigma)}), singleton(sigma)),
                    DONE,
                ),
            }
        )
    if isinstance(stmt, While):
        return frozenset(
            {
                ContTrace(
                    CondTrace(frozenset({eval_bool(stmt.cond, sigma)}), singleton(sigma)),
                    Pending(Seq(stmt.body, stmt)),
                ),
                ContTrace(
                    CondTrace(frozenset({eval_bool(Neg(stmt.cond), sigma)}), singleton(sigma)),
                    DONE,
                ),
            }
        )
    if isinstance(stmt, Seq):
        return frozenset(
            ContTrace(cont.cond, cont_append(cont.marker, stmt.second))
            for cont in valuate(stmt.first, sigma, mode, fresh_bound)
        )
    if mode != "ext":
        raise ModeError(f"{type(stmt).__name__} is not available in wl mode")
    if isinstance(stmt, LocPar):
        from_left = frozenset(
            ContTrace(cont.cond, parallel(cont.marker, Pending(stmt.right)))
            for cont in valuate(stmt.left, sigma, mode, fresh_bound)
        )
        from_right = frozenset(
            ContTrace(cont.cond, parallel(Pending(stmt.left), cont.marker))
            for cont in valuate(stmt.right, sigma, mode, fresh_bound)
        )
        return from_left | from_right
    if isinstance(stmt, LocMem):
        if not stmt.decls:
            return valuate(stmt.body, sigma, mode, fresh_bound)
        declared, rest = stmt.decls[0], stmt.decls[1:]
        fresh = _fresh(sigma, declared, "::Scope", fresh_bound)
        trace = singleton(sigma) + (update(sigma, fresh, Num(0)),)
        marker = Pending(substitute(LocMem(rest, stmt.body), declared, fresh))
        return frozenset({ContTrace(CondTrace(frozenset(), trace), marker)})
    if isinstance(stmt, Input):
        fresh = _fresh(sigma, stmt.target, "::Input", fresh_bound)
        rerouted = update(update(sigma, fresh, STAR), stmt.target, Var(fresh))
        trace = singleton(sigma) + gen_event(
            EventKind.INPUT, rerouted, (ArithExp(Var(fresh)),)
        )
        return frozenset({ContTrace(CondTrace(frozenset(), trace), DONE)})
    if isinstance(stmt, Guard):
        return frozenset(
            {
                ContTrace(
                    CondTrace(frozenset({eval_bool(stmt.cond, sigma)}), singleton(sigma)),
                    Pending(stmt.body),
                )
            }
        )
    if isinstance(stmt, Call):
        trace = gen_event(
            EventKind.INVOKE, sigma, (MethodRef(stmt.method), ArithExp(stmt.arg))
        )
        return frozenset({ContTrace(CondTrace(frozenset(), trace), DONE)})
    raise ModeError(f"valuate: unsupported statement {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Composition


@dataclass(frozen=True)
class WlConfig:
    """Composed global trace plus the one statement left to run."""

    trace: Trace
    marker: Marker


@dataclass(frozen=True)
class ExtConfig:
    """Composed global trace plus a multiset of pending process markers.

    The multiset is kept as a canonically sorted tuple so configurations
    compare and hash structurally.
    """

    trace: Trace
    markers: tuple

    def __post_init__(self):
        object.__setattr__(self, "markers", tuple(sorted(self.markers, key=canon_key)))


@dataclass(frozen=True)
class ComposePolicy:
    initial_bound: int = 0
    increment: int = 100
    max_rounds: int = 100
    fresh_bound: int = DEFAULT_FRESH_BOUND
    conc_numeral: int = 0

    def __post_init__(self):
        if self.increment < 1:
            raise ValueError("increment must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


DEFAULT_POLICY = ComposePolicy()


def method_table(methods) -> tuple:
    """Deduplicate a method list, keeping first occurrences."""
    return tuple(dict.fromkeys(methods))


def _pending_stmt(config) -> tuple:
    """Split a configuration into its final state and pending statement."""
    if not isinstance(config.marker, Pending):
        raise UndefinedTraceOpError("no successors for a finished configuration")
    return last_state(config.trace), config.marker.stmt


# ---------------------------------------------------------------------------
# Plain while language


def successors_wl(config: WlConfig) -> frozenset:
    """One evaluation step: glue each consistent local trace onto the global one."""
    sigma, stmt = _pending_stmt(config)
    out = set()
    for cont in valuate(stmt, sigma, "wl"):
        if not is_consistent(cont.cond.pc):
            continue
        out.add(WlConfig(semantic_chop(config.trace, cont.cond.trace), cont.marker))
    return frozenset(out)


def _explore_wl(bound: int, config: WlConfig) -> tuple:
    frontier = {config}
    finished = set()
    for _ in range(bound):
        if not frontier:
            break
        step = set()
        for candidate in frontier:
            if isinstance(candidate.marker, Done):
                finished.add(candidate)
            else:
                step |= successors_wl(candidate)
        frontier = step
    return finished, frontier


def compose_bounded_wl(bound: int, config: WlConfig) -> frozenset:
    """Terminal configurations reachable within the bound, plus the frontier."""
    finished, frontier = _explore_wl(bound, config)
    return frozenset(finished | frontier)


def compose_wl(policy: ComposePolicy, config: WlConfig) -> frozenset:
    """Grow the bound until every reached configuration is finished."""
    bound = policy.initial_bound
    for _ in range(policy.max_rounds):
        finished, frontier = _explore_wl(bound, config)
        if all(isinstance(c.marker, Done) for c in frontier):
            return frozenset(finished | frontier)
        bound += policy.increment
    raise DivergenceLimitError(
        f"no fixpoint after {policy.max_rounds} rounds (bound {bound})"
    )


def traces_wl(stmt: Stmt, sigma: State, policy: ComposePolicy = DEFAULT_POLICY) -> frozenset:
    if not language_check(stmt, "wl"):
        raise ModeError("statement uses constructs outside the wl subset")
    start = WlConfig(singleton(sigma), Pending(stmt))
    return frozenset(c.trace for c in compose_wl(policy, start))


# ---------------------------------------------------------------------------
# Concurrent extension


def basic_successors(
    config: WlConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """One step of a single process, with composition-time concretization.

    Path conditions are judged after simplification under the minimal
    mapping of the local trace; surviving glued traces are concretized
    under their own minimal mapping.
    """
    sigma, stmt = _pending_stmt(config)
    out = set()
    for cont in valuate(stmt, sigma, "ext", fresh_bound):
        local_map = min_conc_map_trace(cont.cond.trace, conc_numeral)
        if not is_consistent(eval_bexp_set(cont.cond.pc, local_map)):
            continue
        glued = semantic_chop(config.trace, cont.cond.trace)
        concretized = concretize_trace(min_conc_map_trace(glued, conc_numeral), glued)
        out.add(WlConfig(concretized, cont.marker))
    return frozenset(out)


def successors1(
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """Schedule one marker out of the multiset and reinsert its continuation."""
    last_state(config.trace)
    out = set()
    for marker in set(config.markers):
        if isinstance(marker, Done):
            continue
        rest = list(config.markers)
        rest.remove(marker)
        for succ in basic_successors(WlConfig(config.trace, marker), fresh_bound, conc_numeral):
            out.add(ExtConfig(succ.trace, tuple(rest) + (succ.marker,)))
    return frozenset(out)


def successors2(table, config: ExtConfig, fresh_bound: int = DEFAULT_FRESH_BOUND) -> frozenset:
    """Spawn processes reacting to pending method invocations.

    Candidate reactions pair every known method with every harvested call
    argument; a reaction survives only if appending it keeps the invocation
    bookkeeping wellformed.
    """
    sigma = last_state(config.trace)
    params = harvest_params(config.trace)
    out = set()
    for method in table:
        for value in params:
            if not isinstance(value, ArithExp):
                raise MalformedParamError(f"call argument {value!r} is not arithmetic")
            reaction = gen_event(EventKind.REACT, sigma, (MethodRef(method.name), value))
            extended = semantic_chop(config.trace, reaction)
            if not invocation_wellformed(extended):
                continue
            fresh = vargen(sigma, 0, fresh_bound, "$" + method.name + "::Param")
            if fresh.startswith(BOUND_EXCEEDED_PREFIX):
                raise FreshBoundExceededError(fresh)
            bound_state = update(sigma, fresh, value.arith)
            body = substitute(method.body, method.formal, fresh)
            out.add(
                ExtConfig(
                    extended + (bound_state,),
                    config.markers + (Pending(body),),
                )
            )
    return frozenset(out)


def successors_ext(
    table,
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    return successors1(config, fresh_bound, conc_numeral) | successors2(
        table, config, fresh_bound
    )


def _explore_ext(bound, table, config, fresh_bound, conc_numeral) -> tuple:
    frontier = {config}
    finished = set()
    for _ in range(bound):
        if not frontier:
            break
        step = set()
        for candidate in frontier:
            succ = successors_ext(table, candidate, fresh_bound, conc_numeral)
            if not succ:
                finished.add(candidate)
            else:
                step |= succ
        frontier = step
    return finished, frontier


def compose_bounded_ext(
    bound: int,
    table,
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """Like the wl variant, but a configuration is terminal iff it has no successors."""
    finished, frontier = _explore_ext(bound, table, config, fresh_bound, conc_numeral)
    return frozenset(finished | frontier)


def compose_ext(policy: ComposePolicy, table, config: ExtConfig) -> frozenset:
    bound = policy.initial_bound
    for _ in range(policy.max_rounds):
        finished, frontier = _explore_ext(
            bound, table, config, policy.fresh_bound, policy.conc_numeral
        )
        if all(
            not successors_ext(table, c, policy.fresh_bound, policy.conc_numeral)
            for c in frontier
        ):
            return frozenset(finished | frontier)
        bound += policy.increment
    raise DivergenceLimitError(
        f"no fixpoint after {policy.max_rounds} rounds (bound {bound})"
    )


def traces_ext(program: Program, sigma: State, policy: ComposePolicy = DEFAULT_POLICY) -> frozenset:
    table = method_table(program.methods)
    start = ExtConfig(singleton(sigma), (Pending(program.main),))
    return frozenset(c.trace for c in compose_ext(policy, table, start))


# ---------------------------------------------------------------------------
# Trace equivalence


def trace_equivalent(
    left,
    right,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    mode: str | None = None,
) -> bool:
    """Whether both operands generate the same global trace set from ``sigma``."""
    if isinstance(left, Program) and isinstance(right, Program):
        return traces_ext(left, sigma, policy) == traces_ext(right, sigma, policy)
    if isinstance(left, Program) or isinstance(right, Program):
        raise ModeError("cannot compare a program against a bare statement")
    if mode == "ext":
        return traces_ext(Program((), left), sigma, policy) == traces_ext(
            Program((), right), sigma, policy
        )
    return traces_wl(left, sigma, policy) == traces_wl(right, sigma, policy)


def initial_state_for(item) -> State:
    """The canonical start state: every occurring variable mapped to zero."""
    return initial_state(occurrences(item))
