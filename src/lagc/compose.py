"""Trace composition: successor functions, bounded and fixpoint exploration.

The plain while language composes a single continuation marker per
configuration; the concurrent extension keeps a multiset of markers, glues
every local trace onto the global one via the semantic chop, and
concretizes the result under its minimal mapping after every step.
Invocation reactions spawn new processes out of harvested call arguments.

Both languages explore breadth first with one engine.  The fixpoint
search grows the step bound round by round, and each round carries the
previous round's frontier and finished set forward instead of exploring
again from the initial configuration.  A configuration's successors are
computed once: those the fixpoint check computes are kept for the step
that follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .concretize import concretize_trace, min_conc_map_trace
from .errors import (
    DivergenceLimitError,
    FreshBoundExceededError,
    MalformedParamError,
    ModeError,
    UndefinedTraceOpError,
)
from .evaluate import eval_bexp_set
from .localeval import DEFAULT_FRESH_BOUND, Done, Marker, Pending, valuate
from .state import BOUND_EXCEEDED_PREFIX, State, initial_state, update, vargen
from .syntax import (
    ArithExp,
    MethodRef,
    Program,
    Stmt,
    StoredExp,
    canon_key,
    language_check,
    occurrences,
    substitute,
)
from .trace import (
    EventKind,
    StateAtom,
    Trace,
    gen_event,
    harvest_params,
    invocation_wellformed,
    is_consistent,
    last_state,
    semantic_chop,
    singleton,
)


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


def _pending(config) -> tuple:
    """Split a configuration into its final state and pending marker."""
    if not isinstance(config.marker, Pending):
        raise UndefinedTraceOpError("no successors for a finished configuration")
    return last_state(config.trace), config.marker


class _Exploration:
    """Breadth-first exploration that a later, larger bound extends.

    ``expand`` maps a configuration to its successor set, or to ``None``
    when the configuration is terminal; terminal configurations move to
    ``finished``.  Successors that ``settled`` computes are kept for the
    next step, so no configuration is expanded twice.
    """

    def __init__(self, start, expand):
        self.frontier = {start}
        self.finished = set()
        self.depth = 0
        self._expand = expand
        self._ahead = {}

    def advance(self, bound: int) -> "_Exploration":
        """Run steps until ``bound`` steps from the start have been taken."""
        while self.depth < bound and self.frontier:
            ahead, self._ahead = self._ahead, {}
            step = set()
            for candidate in self.frontier:
                if ahead and candidate in ahead:
                    succ = ahead.pop(candidate)
                else:
                    succ = self._expand(candidate)
                if succ is None:
                    self.finished.add(candidate)
                else:
                    step |= succ
            self.frontier = step
            self.depth += 1
        return self

    def settled(self) -> bool:
        """Whether every frontier configuration is terminal."""
        if not self._ahead:
            self._ahead = {c: self._expand(c) for c in self.frontier}
        return all(succ is None for succ in self._ahead.values())

    def reached(self) -> frozenset:
        return frozenset(self.finished | self.frontier)


def _fixpoint(policy: ComposePolicy, exploration: _Exploration) -> frozenset:
    """Grow the bound by the policy's increment until the exploration settles."""
    bound = policy.initial_bound
    for _ in range(policy.max_rounds):
        if exploration.advance(bound).settled():
            return exploration.reached()
        bound += policy.increment
    raise DivergenceLimitError(
        f"no fixpoint after {policy.max_rounds} rounds (bound {bound})"
    )


# ---------------------------------------------------------------------------
# Plain while language


def successors_wl(config: WlConfig) -> frozenset:
    """One evaluation step: glue each consistent local trace onto the global one."""
    sigma, marker = _pending(config)
    out = set()
    for cont in valuate(marker, sigma, "wl"):
        if not is_consistent(cont.cond.pc):
            continue
        out.add(WlConfig(semantic_chop(config.trace, cont.cond.trace), cont.marker))
    return frozenset(out)


def _expand_wl(config: WlConfig):
    return None if isinstance(config.marker, Done) else successors_wl(config)


def compose_bounded_wl(bound: int, config: WlConfig) -> frozenset:
    """Terminal configurations reachable within the bound, plus the frontier."""
    return _Exploration(config, _expand_wl).advance(bound).reached()


def compose_wl(policy: ComposePolicy, config: WlConfig) -> frozenset:
    """Grow the bound until every reached configuration is finished."""
    return _fixpoint(policy, _Exploration(config, _expand_wl))


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
    sigma, marker = _pending(config)
    out = set()
    for cont in valuate(marker, sigma, "ext", fresh_bound):
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
            bound_state = update(sigma, fresh, StoredExp(value.arith))
            body = substitute(method.body, method.formal, fresh)
            out.add(
                ExtConfig(
                    extended + (StateAtom(bound_state),),
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


def _expand_ext(table, fresh_bound: int, conc_numeral: int):
    def expand(config: ExtConfig):
        return successors_ext(table, config, fresh_bound, conc_numeral) or None

    return expand


def compose_bounded_ext(
    bound: int,
    table,
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """Like the wl variant, but a configuration is terminal iff it has no successors."""
    expand = _expand_ext(table, fresh_bound, conc_numeral)
    return _Exploration(config, expand).advance(bound).reached()


def compose_ext(policy: ComposePolicy, table, config: ExtConfig) -> frozenset:
    expand = _expand_ext(table, policy.fresh_bound, policy.conc_numeral)
    return _fixpoint(policy, _Exploration(config, expand))


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
