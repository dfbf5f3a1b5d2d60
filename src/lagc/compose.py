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
chained hash, its last state and its markers, which are hash-consed
nodes.  The fold depends only on the trace's content, so equal
configurations hash alike however they were built; the summary does not
take part in equality.  Only a step that concretizes the whole trace folds
its summary afresh.

Bounded composition explores at most a given number of steps; the
fixpoint search has the budget ``B = (max_rounds - 1) * increment`` and
diverges iff some path is longer than ``B``, so how that budget is split
into rounds does not change the result, only the error text.  When
configurations of one step fail, the least error by type and message is
raised, whatever order they are iterated in.

The wl search walks the configurations breadth first, one frontier per
step, and for a fixpoint requires every configuration on the last
frontier to be terminal.  From a concrete start a wl run has one
configuration per step, so merging configurations would save nothing
there and only add bookkeeping.

The ext search explores a graph instead of the trace tree.  The
successors of a configuration whose prefix is concrete depend on nothing
of its trace but the last state and the prefix's open invocations and
harvested arguments, so its node is that *future key* together with the
marker multiset; any other configuration is its own node.  A node keeps
the first configuration that reached it, with its whole trace, and
expands it once.  Each edge keeps the atoms its step appends after
``trace[:-1]`` and, for a step that concretized the whole trace, the
mapping ``rho`` it used.  For a concrete prefix that mapping comes from
the local trace alone, and concretization works atom by atom, so the
step takes every trace ``t`` of the node to
``concretize_trace(rho, t[:-1])`` followed by those atoms, exactly as
expanding ``t`` itself would.  Only the start configuration can have a
concrete prefix and a symbolic last state, and no step returns to it, so
no node with a future key reaches a node without one along more than
one trace.

Nodes are expanded layer by layer in order of minimum depth, and the
least error of the shallowest failing layer is raised, which is the
error the trace tree meets first.  The fixpoint search diverges iff a
node first appears after ``B + 1`` steps or, once the graph is closed, a
cycle is reachable or the longest path is longer than ``B``.  The traces
come from replaying the paths layer by layer over pairs of a node and a
trace, merged by node and the chained hash of ``trace[:-1]``.

Three caches keep the ext engine from computing the same thing twice in
one command.  A local step is memoized per ``(marker, state, fresh_bound,
conc_numeral)``: ``valuate``, the minimal mapping of each local trace and
the consistency check run once per key, and only gluing the kept local
traces onto a configuration's trace is done per configuration.  A state
keeps, once asked, whether it is concrete and which names it maps to
``*`` (see ``lagc.state``).  Concretizing is memoized per ``(rho,
atom)``, shared by the steps that concretize a whole trace and by the
replay of their edges.  The step and concretization tables live as long
as the outermost ``memoizing`` block; ``lagc.cli.main`` opens one per
command, and an exploration or ``trace_equivalent`` called outside any
opens its own.  No table outlives the block.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager

from .concretize import concretize_atom, min_conc_map_trace
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
    Record,
    Stmt,
    StoredExp,
    language_check,
    occurrences,
    substitute,
)
from .trace import (
    EMPTY_SUMMARY,
    EventKind,
    StateAtom,
    Summary,
    Trace,
    gen_event,
    is_concrete_atom,
    is_consistent,
    last_state,
    semantic_chop,
    singleton,
    summarize,
)


def _init_config(config, trace: Trace, prefix: Summary | None, rho: State | None) -> None:
    """Set the fields a configuration shares, folding ``trace[:-1]`` unless a summary is given."""
    object.__setattr__(config, "trace", trace)
    object.__setattr__(config, "prefix", summarize(trace[:-1]) if prefix is None else prefix)
    object.__setattr__(config, "rho", rho)


class WlConfig(Record):
    """Composed global trace plus the one statement left to run.

    ``prefix`` summarizes ``trace[:-1]``; see the module docstring.
    ``rho`` is the mapping the step that built the configuration
    concretized the whole glued trace under, or ``None`` when it kept the
    glued trace as it is.  Neither takes part in equality.
    """

    __slots__ = ("trace", "marker", "prefix", "rho")
    _fields = ("trace", "marker")
    trace: Trace
    marker: Marker
    prefix: Summary
    rho: State

    def __init__(self, trace: Trace, marker: Marker, prefix: Summary = None, rho: State = None):
        _init_config(self, trace, prefix, rho)
        object.__setattr__(self, "marker", marker)

    def __hash__(self) -> int:
        return hash((self.prefix.hash, self.trace[-1:], self.marker))


class ExtConfig(Record):
    """Composed global trace plus a multiset of pending process markers.

    Markers are hash-consed, so equal markers are one object, and
    ``markers`` keeps them sorted by ``id``: equal multisets are equal
    tuples, without putting markers in a canonical order.  ``prefix`` and
    ``rho`` are as for ``WlConfig``.
    """

    __slots__ = ("trace", "markers", "prefix", "rho")
    _fields = ("trace", "markers")
    trace: Trace
    markers: tuple
    prefix: Summary
    rho: State

    def __init__(self, trace: Trace, markers, prefix: Summary = None, rho: State = None):
        _init_config(self, trace, prefix, rho)
        object.__setattr__(self, "markers", tuple(sorted(markers, key=id)))

    def __hash__(self) -> int:
        return hash((self.prefix.hash, self.trace[-1:], self.markers))


class ComposePolicy(Record):
    __slots__ = _fields = ("increment", "max_rounds", "fresh_bound", "conc_numeral")
    increment: int
    max_rounds: int
    fresh_bound: int
    conc_numeral: int

    def __init__(
        self,
        increment: int = 100,
        max_rounds: int = 100,
        fresh_bound: int = DEFAULT_FRESH_BOUND,
        conc_numeral: int = 0,
    ):
        if increment < 1:
            raise PolicyError("increment must be at least 1")
        if max_rounds < 1:
            raise PolicyError("max_rounds must be at least 1")
        if fresh_bound < 0:
            raise PolicyError("fresh_bound must be at least 0")
        object.__setattr__(self, "increment", increment)
        object.__setattr__(self, "max_rounds", max_rounds)
        object.__setattr__(self, "fresh_bound", fresh_bound)
        object.__setattr__(self, "conc_numeral", conc_numeral)


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
    """Breadth-first exploration of the wl configurations for at most ``bound`` steps.

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


def _divergence(policy: ComposePolicy) -> DivergenceLimitError:
    return DivergenceLimitError(
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
    """Every configuration reached, provided all are finished within the policy's budget.

    Every configuration on the last frontier is expanded, so an error any
    of them raises surfaces before the divergence.
    """
    budget = (policy.max_rounds - 1) * policy.increment
    finished, frontier = _explore(config, _expand_wl, budget)
    if all(succ is None for _, succ in _expand_all(frontier, _expand_wl)):
        return frozenset(finished | frontier)
    raise _divergence(policy)


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


class _Memo:
    """The local-step and concretization tables one command shares; see ``memoizing``."""

    __slots__ = ("steps", "atoms")

    def __init__(self):
        self.steps, self.atoms = {}, {}


# the tables of the outermost ``memoizing`` block, or None outside every block
_memo = None


@contextmanager
def memoizing():
    """Share one step table and one concretization table across the block.

    A block inside another uses the outer block's tables, and the
    outermost block drops them when it ends; see the module docstring.
    """
    global _memo
    if _memo is not None:
        yield
        return
    _memo = _Memo()
    try:
        yield
    finally:
        _memo = None


def _local_steps(marker: Pending, sigma: State, fresh_bound: int, conc_numeral: int) -> tuple:
    """The local steps of ``marker`` in ``sigma`` whose path condition is consistent.

    Each is ``(local trace, next marker, minimal mapping of the local
    trace)``.  The path condition is judged after simplification under
    that mapping.  The result is memoized per ``(marker, sigma,
    fresh_bound, conc_numeral)`` in the command's table; an error is not,
    so it is raised again on every call.
    """
    table = {} if _memo is None else _memo.steps
    key = (marker, sigma, fresh_bound, conc_numeral)
    steps = table.get(key)
    if steps is None:
        steps = []
        for cont in valuate(marker, sigma, "ext", fresh_bound):
            local = cont.cond.trace
            local_map = min_conc_map_trace(local, conc_numeral)
            if is_consistent(eval_bexp_set(cont.cond.pc, local_map)):
                steps.append((local, cont.marker, local_map))
        steps = table[key] = tuple(steps)
    return steps


def _concretize(rho: State, trace: Trace) -> Trace:
    """``concretize_trace(rho, trace)``, mapping each distinct (ρ, atom) once per command."""
    images = {} if _memo is None else _memo.atoms.setdefault(rho, {})
    out = []
    for atom in trace:
        image = images.get(atom)
        if image is None:
            image = images[atom] = concretize_atom(rho, atom)
        out.append(image)
    return tuple(out)


def _glue(
    trace: Trace,
    prefix: Summary,
    sigma: State,
    marker: Pending,
    fresh_bound: int,
    conc_numeral: int,
) -> list:
    """The steps of ``marker`` in ``sigma``, the last state of ``trace``, glued onto ``trace``.

    Each is ``(glued trace, next marker, summary of the glued trace
    without its last state or None, rho)``, the fields of a configuration
    but its markers.  Path conditions are judged after simplification
    under the minimal mapping of the local trace; surviving glued traces
    are concretized under their own minimal mapping.  The surviving local
    steps come from ``_local_steps``; gluing them onto ``trace`` is done
    per configuration.

    Concretizing is skipped when the global trace before its last state
    and the local trace are both concrete, which ``prefix``, the summary
    of ``trace[:-1]``, extended by the local trace, tells without walking
    the global trace.  The glued trace is then concrete, its minimal
    mapping (like the local trace's) is empty, and concretizing under the
    empty mapping rebuilds every atom equal to itself, so the glued trace
    is kept as it is and shares the global trace's states.  A non-empty
    mapping adds its keys (a fresh ``$x::Input``, say) to every earlier
    state, so then the whole glued trace is concretized, its summary left
    to be folded afresh, and the mapping kept as the step's ``rho``.  When
    the global trace before its last state is concrete, it maps no name
    to ``*``, so that mapping is the local trace's.
    """
    out = []
    for local, after, local_map in _local_steps(marker, sigma, fresh_bound, conc_numeral):
        glued = semantic_chop(trace, local)
        extended = prefix.extend(local[:-1])
        if extended.concrete and is_concrete_atom(local[-1]):
            out.append((glued, after, extended, None))
        else:
            rho = local_map if prefix.concrete else min_conc_map_trace(glued, conc_numeral)
            out.append((_concretize(rho, glued), after, None, rho))
    return out


def basic_successors(
    config: WlConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """One step of a single process, with composition-time concretization; see ``_glue``."""
    sigma, marker = _pending(config)
    steps = _glue(config.trace, config.prefix, sigma, marker, fresh_bound, conc_numeral)
    return frozenset(WlConfig(*step) for step in steps)


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
    trace, prefix = config.trace, config.prefix
    sigma = last_state(trace)
    pending = [m for m in dict.fromkeys(config.markers) if isinstance(m, Pending)]

    def step(marker: Pending) -> list:
        return _glue(trace, prefix, sigma, marker, fresh_bound, conc_numeral)

    out = set()
    for marker, steps in _expand_all(pending, step):
        i = config.markers.index(marker)
        rest = config.markers[:i] + config.markers[i + 1 :]
        for glued, after, summary, rho in steps:
            out.add(ExtConfig(glued, rest + (after,), summary, rho))
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


def _future_key(config: ExtConfig):
    """The graph node of ``config``; see the module docstring.

    For a concrete prefix that is the last state, the marker multiset and
    the prefix's open invocations and harvested arguments; otherwise it is
    the configuration itself.
    """
    prefix = config.prefix
    if not prefix.concrete:
        return config
    open_calls = prefix.open_calls
    return (
        config.trace[-1],
        config.markers,
        None if open_calls is None else frozenset(open_calls.items()),
        prefix.params,
    )


class _Node:
    """The first configuration that reached a node and, once expanded, its edges.

    An edge is ``(target, rho, tail)``: the step takes a trace ``t`` of
    this node to ``concretize_trace(rho, t[:-1]) + tail``, or to
    ``t[:-1] + tail`` when ``rho`` is ``None``.  ``edges`` stays ``None``
    for a node that was not expanded.
    """

    __slots__ = ("rep", "edges")

    def __init__(self, rep: ExtConfig):
        self.rep, self.edges = rep, None


def _graph(start: ExtConfig, table, fresh_bound: int, conc_numeral: int, depth: int) -> tuple:
    """Expand, layer by layer, every node first reached within fewer than ``depth`` steps.

    Returns every node, in order of minimum depth with the root first, and
    the nodes first reached after exactly ``depth`` steps, which are left
    unexpanded.  The least error of the shallowest failing layer is raised.
    """
    if depth < 0:
        raise PolicyError("bound must be at least 0")

    def expand(node: _Node) -> frozenset:
        return successors_ext(table, node.rep, fresh_bound, conc_numeral)

    root = _Node(start)
    nodes = {_future_key(start): root}
    layer = [root]
    for _ in range(depth):
        if not layer:
            break
        step = []
        for node, succs in _expand_all(layer, expand):
            cut = len(node.rep.trace) - 1
            node.edges = []
            for succ in succs:
                key = _future_key(succ)
                target = nodes.get(key)
                if target is None:
                    target = nodes[key] = _Node(succ)
                    step.append(target)
                node.edges.append((target, succ.rho, succ.trace[cut:]))
        layer = step
    return list(nodes.values()), layer


def _longest_path(nodes: list) -> float:
    """Steps on the longest path from the first node, infinite if a cycle is reachable.

    Every node must be expanded and reachable from the first one.
    """
    indegree = Counter(target for node in nodes for target, _, _ in node.edges)
    length = dict.fromkeys(nodes, 0)
    ready = [node for node in nodes if not indegree[node]]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        for target, _, _ in node.edges:
            length[target] = max(length[target], length[node] + 1)
            indegree[target] -= 1
            if not indegree[target]:
                ready.append(target)
    return max(length.values()) if done == len(nodes) else math.inf


def _chain(chained: int, atoms) -> int:
    """Extend a chained trace hash as ``Summary.extend`` does."""
    for atom in atoms:
        chained = hash((chained, atom))
    return chained


def _paths(root: _Node, steps: int) -> list:
    """The ends of the paths from ``root`` of at most ``steps`` steps.

    A path ends at a terminal or unexpanded node, or after ``steps`` steps.
    An end is ``(node, chained, trace)``, where ``chained`` is the chained
    hash of ``trace[:-1]``.  A layer maps a node and that hash to the
    distinct traces reached there, so equal traces meet without hashing
    whole tuples.
    """
    layer = {(root, root.rep.prefix.hash): [root.rep.trace]}
    ends = []
    for _ in range(steps):
        step = {}
        for (node, chained), traces in layer.items():
            if not node.edges:
                ends += ((node, chained, trace) for trace in traces)
                continue
            for target, rho, tail in node.edges:
                if rho is None:
                    # the traces here share ``trace[:-1]``'s hash, so they share the new one
                    bucket = step.setdefault((target, _chain(chained, tail[:-1])), [])
                for trace in traces:
                    if rho is None:
                        reached = trace[:-1] + tail
                    else:
                        reached = _concretize(rho, trace[:-1]) + tail
                        key = (target, _chain(EMPTY_SUMMARY.hash, reached[:-1]))
                        bucket = step.setdefault(key, [])
                    if reached not in bucket:
                        bucket.append(reached)
        layer = step
        if not layer:
            break
    for (node, chained), traces in layer.items():
        ends += ((node, chained, trace) for trace in traces)
    return ends


def _end(node: _Node, chained: int, trace: Trace) -> ExtConfig:
    """The configuration of ``node`` with ``trace``, whose ``trace[:-1]`` chains to ``chained``."""
    rep = node.rep
    return ExtConfig(trace, rep.markers, rep.prefix._replace(hash=chained))


def _bounded_ends(
    bound: int, table, config: ExtConfig, fresh_bound: int, conc_numeral: int
) -> list:
    with memoizing():
        nodes, _ = _graph(config, table, fresh_bound, conc_numeral, bound)
        return _paths(nodes[0], bound)


def _fixpoint_ends(policy: ComposePolicy, table, config: ExtConfig) -> list:
    budget = (policy.max_rounds - 1) * policy.increment
    with memoizing():
        nodes, beyond = _graph(config, table, policy.fresh_bound, policy.conc_numeral, budget + 1)
        longest = math.inf if beyond else _longest_path(nodes)
        if longest > budget:
            raise _divergence(policy)
        return _paths(nodes[0], longest)


def compose_bounded_ext(
    bound: int,
    table,
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """Like the wl variant, but a configuration is terminal iff it has no successors."""
    ends = _bounded_ends(bound, table, config, fresh_bound, conc_numeral)
    return frozenset(_end(*end) for end in ends)


def compose_ext(policy: ComposePolicy, table, config: ExtConfig) -> frozenset:
    """Every configuration reached, provided no path is longer than the policy's budget."""
    return frozenset(_end(*end) for end in _fixpoint_ends(policy, table, config))


def traces_ext(
    program: Program,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    bound: int | None = None,
) -> frozenset:
    """The fixpoint trace set of ``program``, or the bounded one when ``bound`` is given.

    The traces come straight from the path ends; no configuration is built for them.
    """
    table = method_table(program.methods)
    start = ExtConfig(singleton(sigma), (Pending(program.main),))
    if bound is None:
        ends = _fixpoint_ends(policy, table, start)
    else:
        ends = _bounded_ends(bound, table, start, policy.fresh_bound, policy.conc_numeral)
    return frozenset(trace for _, _, trace in ends)


# ---------------------------------------------------------------------------
# Trace equivalence


def trace_equivalent(
    left,
    right,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    mode: str | None = None,
) -> bool:
    """Whether both operands generate the same global trace set from ``sigma``.

    Both sides share one set of ``memoizing`` tables.
    """
    with memoizing():
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
