"""Trace composition: successor functions, bounded and fixpoint exploration.

The plain while language composes a single continuation marker per
configuration; the concurrent extension keeps a multiset of markers, glues
every local trace onto the global one via the semantic chop, and
concretizes the result under its minimal mapping after every step.  A
glued trace that is already concrete is its own concretization (its
minimal mapping is empty), so it is kept as it is and shares its states
with the global trace it extends; only a step that brings in a symbolic
value rebuilds the trace.  Invocation reactions spawn new processes out of
harvested call arguments, checked against the invocations still
unanswered.

Every configuration carries ``prefix``, a ``trace.Summary`` of its trace
without the last state: a chained hash, whether every atom is concrete,
the unanswered invocations and the harvested call arguments.  A step
extends its parent's summary by only the atoms it adds (a glued trace
keeps ``trace[:-1]`` and appends the local trace up to its last state), so
neither hashing a configuration nor deciding concreteness nor spawning
reactions walks the whole trace.  A configuration hashes the prefix's
chained hash, its last state and the set of its markers.  The fold depends
only on the trace's content, so equal configurations hash alike however
they were built; the summary does not take part in equality.  Only a step that
concretizes the whole trace folds its summary afresh.

Both languages explore breadth first with one function, for at most a
given number of steps.  Bounded composition stops there.  The fixpoint
search runs at most ``(max_rounds - 1) * increment`` steps and then
requires every configuration left on the frontier to be terminal.  A
frontier of terminal configurations is empty one step later, so how that
budget is split into rounds does not change the result, only the error
text.  When configurations of one step fail, the least error by type and
message is raised, whatever order the frontier set iterates in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .concretize import concretize_trace, min_conc_map_trace
from .errors import (
    DivergenceLimitError,
    FreshBoundExceededError,
    LagcError,
    ModeError,
    PolicyError,
    UndefinedTraceOpError,
)
from .evaluate import eval_bexp_set
from .localeval import DEFAULT_FRESH_BOUND, Done, Marker, Pending, valuate
from .state import BOUND_EXCEEDED_PREFIX, State, initial_state, update, vargen
from .syntax import (
    MethodRef,
    Program,
    Stmt,
    StoredExp,
    language_check,
    occurrences,
    substitute,
)
from .trace import (
    EventKind,
    StateAtom,
    Summary,
    Trace,
    gen_event,
    is_concrete_trace,
    is_consistent,
    last_state,
    semantic_chop,
    singleton,
    summarize,
)


def _summarize_prefix(config) -> None:
    """Fold ``trace[:-1]`` into the configuration's summary unless one was given."""
    if config.prefix is None:
        object.__setattr__(config, "prefix", summarize(config.trace[:-1]))


@dataclass(frozen=True)
class WlConfig:
    """Composed global trace plus the one statement left to run.

    ``prefix`` summarizes ``trace[:-1]``; see the module docstring.
    """

    trace: Trace
    marker: Marker
    prefix: Summary = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _summarize_prefix(self)

    def __hash__(self) -> int:
        return hash((self.prefix.hash, self.trace[-1:], self.marker))


@dataclass(frozen=True)
class ExtConfig:
    """Composed global trace plus a multiset of pending process markers.

    ``markers`` is a tuple in the order the steps built it; only how often
    each marker occurs matters.  Equality compares the tuples directly and
    counts the markers only when the orders differ, and the hash takes the
    set of distinct markers, so neither puts markers in a canonical order.
    ``prefix`` summarizes ``trace[:-1]`` as for ``WlConfig``.
    """

    trace: Trace
    markers: tuple
    prefix: Summary = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "markers", tuple(self.markers))
        _summarize_prefix(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtConfig):
            return NotImplemented
        return self.trace == other.trace and (
            self.markers == other.markers or Counter(self.markers) == Counter(other.markers)
        )

    def __hash__(self) -> int:
        return hash((self.prefix.hash, self.trace[-1:], frozenset(self.markers)))


@dataclass(frozen=True)
class ComposePolicy:
    increment: int = 100
    max_rounds: int = 100
    fresh_bound: int = DEFAULT_FRESH_BOUND
    conc_numeral: int = 0

    def __post_init__(self):
        if self.increment < 1:
            raise PolicyError("increment must be at least 1")
        if self.max_rounds < 1:
            raise PolicyError("max_rounds must be at least 1")
        if self.fresh_bound < 0:
            raise PolicyError("fresh_bound must be at least 0")


DEFAULT_POLICY = ComposePolicy()


def method_table(methods) -> tuple:
    """Deduplicate a method list, keeping first occurrences."""
    return tuple(dict.fromkeys(methods))


def _pending(config) -> tuple:
    """Split a configuration into its final state and pending marker."""
    if not isinstance(config.marker, Pending):
        raise UndefinedTraceOpError("no successors for a finished configuration")
    return last_state(config.trace), config.marker


def _expand_all(items, expand) -> list:
    """``(item, expand(item))`` for every configuration or marker, in order.

    Every item is expanded even after one of them fails; then the least
    error by type name and message is raised, so which error a run reports
    does not depend on the order in which the items are iterated.
    """
    results, errors = [], []
    for item in items:
        try:
            results.append((item, expand(item)))
        except LagcError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: (type(exc).__name__, str(exc)))
    return results


def _explore(start, expand, bound: int) -> tuple:
    """Breadth-first exploration for at most ``bound`` steps.

    ``expand`` maps a configuration to its successor set, or to ``None``
    when the configuration is terminal.  Returns the terminal
    configurations reached and the frontier left after the last step.
    """
    if bound < 0:
        raise PolicyError("bound must be at least 0")
    finished, frontier = set(), {start}
    for _ in range(bound):
        if not frontier:
            break
        step = set()
        for config, succ in _expand_all(frontier, expand):
            if succ is None:
                finished.add(config)
            else:
                step |= succ
        frontier = step
    return finished, frontier


def _fixpoint(policy: ComposePolicy, start, expand) -> frozenset:
    """Explore the whole step budget, then require a frontier of terminal configurations.

    Every frontier configuration is expanded, so an error any of them
    raises surfaces.
    """
    budget = (policy.max_rounds - 1) * policy.increment
    finished, frontier = _explore(start, expand, budget)
    if all(succ is None for _, succ in _expand_all(frontier, expand)):
        return frozenset(finished | frontier)
    raise DivergenceLimitError(
        f"no fixpoint after {policy.max_rounds} rounds "
        f"(bound {policy.max_rounds * policy.increment})"
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
        local = cont.cond.trace
        glued = semantic_chop(config.trace, local)
        out.add(WlConfig(glued, cont.marker, config.prefix.extend(local[:-1])))
    return frozenset(out)


def _expand_wl(config: WlConfig):
    return None if isinstance(config.marker, Done) else successors_wl(config)


def compose_bounded_wl(bound: int, config: WlConfig) -> frozenset:
    """Terminal configurations reachable within the bound, plus the frontier."""
    finished, frontier = _explore(config, _expand_wl, bound)
    return frozenset(finished | frontier)


def compose_wl(policy: ComposePolicy, config: WlConfig) -> frozenset:
    """Every configuration reached, provided all are finished within the policy's budget."""
    return _fixpoint(policy, config, _expand_wl)


def traces_wl(
    stmt: Stmt,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    bound: int | None = None,
) -> frozenset:
    """The fixpoint trace set of ``stmt``, or the bounded one when ``bound`` is given."""
    if not language_check(stmt, "wl"):
        raise ModeError("statement uses constructs outside the wl subset")
    start = WlConfig(singleton(sigma), Pending(stmt))
    if bound is None:
        reached = compose_wl(policy, start)
    else:
        reached = compose_bounded_wl(bound, start)
    return frozenset(c.trace for c in reached)


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

    That step is skipped when the global trace before its last state and
    the local trace are both concrete, which the configuration's prefix
    summary, extended by the local trace, tells without walking the global
    trace.  The glued trace is then concrete, its minimal mapping (like
    the local trace's) is empty, and concretizing under the empty mapping
    rebuilds every atom equal to itself, so the glued trace is kept as it
    is and shares the global trace's states.  A non-empty mapping adds its
    keys (a fresh ``$x::Input``, say) to every earlier state, so then the
    whole glued trace is concretized and its summary folded afresh.
    """
    sigma, marker = _pending(config)
    out = set()
    for cont in valuate(marker, sigma, "ext", fresh_bound):
        local = cont.cond.trace
        local_map = min_conc_map_trace(local, conc_numeral)
        if not is_consistent(eval_bexp_set(cont.cond.pc, local_map)):
            continue
        glued = semantic_chop(config.trace, local)
        prefix = config.prefix.extend(local[:-1])
        if prefix.concrete and is_concrete_trace(local[-1:]):
            out.add(WlConfig(glued, cont.marker, prefix))
        else:
            glued = concretize_trace(min_conc_map_trace(glued, conc_numeral), glued)
            out.add(WlConfig(glued, cont.marker))
    return frozenset(out)


def successors1(
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """Schedule one marker out of the multiset and reinsert its continuation.

    Every distinct pending marker is stepped, even after one of them fails;
    then the least error is raised, so the error does not depend on the
    order in which the configuration lists its markers.
    """
    last_state(config.trace)
    pending = [m for m in dict.fromkeys(config.markers) if isinstance(m, Pending)]

    def step(marker: Pending) -> frozenset:
        process = WlConfig(config.trace, marker, config.prefix)
        return basic_successors(process, fresh_bound, conc_numeral)

    out = set()
    for marker, succs in _expand_all(pending, step):
        rest = list(config.markers)
        rest.remove(marker)
        for succ in succs:
            out.add(ExtConfig(succ.trace, tuple(rest) + (succ.marker,), succ.prefix))
    return frozenset(out)


def successors2(table, config: ExtConfig, fresh_bound: int = DEFAULT_FRESH_BOUND) -> frozenset:
    """Spawn processes reacting to pending method invocations.

    Candidate reactions pair every known method with every harvested call
    argument; a reaction survives only if appending it keeps the invocation
    bookkeeping wellformed, that is, if an invocation with the reaction's
    arguments is still unanswered.  The counts and the arguments travel
    with the configuration in its prefix summary.
    """
    if not table:
        return frozenset()
    sigma = last_state(config.trace)
    open_calls = config.prefix.open_calls
    if not open_calls:
        return frozenset()
    out = set()
    for method in table:
        for value in config.prefix.params:
            reaction = gen_event(EventKind.REACT, sigma, (MethodRef(method.name), value))
            _, event, _ = reaction
            if event.args not in open_calls:
                continue
            fresh = vargen(sigma, 0, fresh_bound, "$" + method.name + "::Param")
            if fresh.startswith(BOUND_EXCEEDED_PREFIX):
                raise FreshBoundExceededError(fresh)
            bound_state = update(sigma, fresh, StoredExp(value.arith))
            body = substitute(method.body, method.formal, fresh)
            out.add(
                ExtConfig(
                    semantic_chop(config.trace, reaction) + (StateAtom(bound_state),),
                    config.markers + (Pending(body),),
                    config.prefix.extend(reaction),
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
    finished, frontier = _explore(config, expand, bound)
    return frozenset(finished | frontier)


def compose_ext(policy: ComposePolicy, table, config: ExtConfig) -> frozenset:
    expand = _expand_ext(table, policy.fresh_bound, policy.conc_numeral)
    return _fixpoint(policy, config, expand)


def traces_ext(
    program: Program,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    bound: int | None = None,
) -> frozenset:
    """The fixpoint trace set of ``program``, or the bounded one when ``bound`` is given."""
    table = method_table(program.methods)
    start = ExtConfig(singleton(sigma), (Pending(program.main),))
    if bound is None:
        reached = compose_ext(policy, table, start)
    else:
        reached = compose_bounded_ext(
            bound, table, start, policy.fresh_bound, policy.conc_numeral
        )
    return frozenset(c.trace for c in reached)


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


def initial_state_for(*items) -> State:
    """The canonical start state: every variable occurring in ``items`` mapped to zero."""
    return initial_state(name for item in items for name in occurrences(item))
