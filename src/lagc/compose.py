"""Trace composition: the wl walk and the ext graph, bounded and fixpoint exploration.

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

No step copies the global trace.  A local trace starts with the state it
ran in, which is the last atom of the global trace, so gluing appends
the rest of the local trace.  Both engines consume ``localeval.step``'s
``(pc, trace, next marker)`` triples directly.  A wl run keeps its trace
in one list, and since a wl step reads only the last state and the
marker, ``_walk`` calls ``step`` on those and builds no configuration
until the run ends.

An ext step is a *record* ``(added, markers, summary, rho)``: the atoms
it appends, the markers after it, the ``trace.Summary`` of the glued
trace without its last state (concreteness, the unanswered invocations
and the harvested call arguments), and, when the step concretized the
whole glued trace, the mapping ``rho`` it used, else ``None``.  The
step takes a trace ``t`` to ``_glued(t, rho, added)``: ``t`` followed by
``added``, or ``t[:-1]`` concretized under ``rho`` followed by it.  A step
computes the summary from its parent's and the atoms it adds, so neither
deciding concreteness nor spawning reactions walks the trace.  That
holds for a step that concretizes the whole trace too: concretizing a
concrete prefix changes none of its summary.  ``_scheduled`` and
``_reactions`` produce the records, and ``_records`` is both.  The
exploration consumes them directly and builds no configuration and no
trace.

Bounded composition explores at most a given number of steps; the
fixpoint search has the budget ``B = (max_rounds - 1) * increment`` and
diverges iff some path is longer than ``B``, so how that budget is split
into rounds does not change the result, only the error text.  When
configurations of one step fail, the least error by type and message is
raised, whatever order they are iterated in.

A wl step has at most one successor: a local step yields one trace, or
the two branches of a test under complementary conditions, and at most
one of those is consistent.  So a wl run is one path, which the wl engine
walks one step at a time.  It ends finished, once the marker is
``Done``; stuck, once every local trace is inconsistent (a test on
``*``, say); or at the budget.  A stuck wl run reaches nothing and is
dropped, while a stuck ext configuration is a deadlock and is kept.  For
a fixpoint, a run still pending at the budget is expanded once more, so
that an error there wins, and then diverges.

The ext search explores a graph instead of the trace tree.  The
successors of a configuration whose prefix is concrete depend on nothing
of its trace but the last state and the prefix's open invocations and
harvested arguments, so its node is that *future key* together with the
marker multiset.  A node keeps the last atom, the markers and the
summary of the first step that reached it, and expands them once.  A
configuration with a symbolic prefix is its own node and keeps its
whole trace: only a start built by hand from a trace has one, and so do
the reactions from it, which concretize nothing, while a scheduled step
concretizes the whole trace.  Each edge keeps the ``rho`` and ``added``
of its record.  For a concrete prefix that mapping comes from the local
trace alone, and concretization works atom by atom, so the step takes
every trace ``t`` of the node to ``_glued(t, rho, added)``, exactly as
expanding ``t`` itself would.  A node with a symbolic prefix is reached
only from the start or from another such node, each of which keeps its
whole trace: a scheduled step ends in a concrete state, and so does a
reaction from one, so only the start can have a concrete prefix and a
symbolic last state, and only a reaction from it, or from a node with a
symbolic prefix, keeps the prefix symbolic.

Records come out in the order they were generated, as ``step`` lists
its local traces, the scheduled steps before the reactions, and a layer
of the graph is expanded in the order its nodes were first reached, so
which step represents a node does not depend on identity hashes.  Nodes
are expanded layer by layer in order of minimum depth, and the least
error of the shallowest failing layer is raised, which is the error the
trace tree meets first.  The fixpoint search diverges iff a node first
appears after ``B + 1`` steps or, once the graph is closed, a cycle is
reachable or the longest path is longer than ``B``.

The traces come from replaying the paths layer by layer over the
distinct traces reaching each node, and only the replay holds traces.
It holds each as a *rope* (Boehm, Atkinson and Plass, "Ropes: an
Alternative to Strings", 1995): a cell of a multiple of ``_LOOSE`` atoms
and a tuple of the last 1 to ``_LOOSE`` atoms.  ``_rope`` is the one
split rule, and it depends only on the trace's length, so equal traces
are equal ropes and meet in a set.  ``_extend`` replays an edge on a
rope as ``_glued`` does on a tuple: it concretizes the trace before its
last state when the step did, appends the atoms the step adds and splits
again.  An edge thus copies at most ``_LOOSE`` atoms plus those it adds
and builds about one cell per atom it adds, a long trace is held as
cells shared with every trace that extends it, and a short one builds no
cell at all; building a cell costs about as much as copying a tuple of
several hundred atoms.  Each returned trace is spelled out as a tuple
once.

``trace_equivalent`` builds the two sides of an ext comparison into one
node table when both programs have the same methods: the left side as
``traces_ext`` would, then the right side, which walks the nodes the
left one expanded instead of expanding them again but keeps its own
minimum depths, budget check and errors.  Without a mapping on any
reachable edge, a step appends ``added`` to whatever trace it extends,
and both sides start from the same trace, so the trace sets are equal
iff the two roots append the same set of words along their maximal
paths, which ``_same_words`` decides on the graph (Hopcroft and Karp,
1971).  Only when an edge carries a mapping are both trace sets
replayed and compared.

Five caches keep the ext engine from computing the same thing twice in
one command.  A local step is memoized per ``(marker, state, fresh_bound,
conc_numeral)``: ``step``, the consistency check and the choice between
keeping a local trace and concretizing it run once per key, and only
making the records of the kept local traces is done per node.  A
concrete local trace is judged by its path condition directly and
builds no mapping; only a symbolic one computes its minimal mapping.  A
state keeps, once asked, whether it is concrete and which names it maps
to ``*`` (see ``lagc.state``).  Concretizing is memoized per ``(rho,
atom)`` and per ``(rho, cell)``, shared by the steps that concretize a
whole trace and by the replay of their edges.  A reaction renames its
method's body once per ``(method, fresh name)``.  The step, body and
concretization tables live as long as the outermost ``memoizing`` block;
``lagc.cli.main`` opens one per command, and an exploration or
``trace_equivalent`` called outside any opens its own.  No table
outlives the block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cache, partial
from typing import NamedTuple

from .concretize import concretize_atom, min_conc_map_trace
from .errors import (
    DivergenceLimitError,
    LagcError,
    ModeError,
    PolicyError,
)
from .evaluate import eval_bexp_set, eval_exp
from .localeval import DEFAULT_FRESH_BOUND, Done, Marker, Pending, fresh_name, step
from .state import State, initial_state, update
from .syntax import (
    MethodRef,
    Program,
    Stmt,
    canon_key,
    language_check,
    occurrences,
    substitute,
)
from .trace import (
    _ONLY_TRUE,
    Cell,
    EventAtom,
    EventKind,
    Summary,
    Trace,
    grow,
    is_concrete_trace,
    is_consistent,
    last_state,
    singleton,
    summarize,
    trace_of,
)


class WlConfig(NamedTuple):
    """Composed global trace plus the one statement left to run; a tuple, built by ``_wl``."""

    trace: Trace
    marker: Marker


# a WlConfig from the pair (trace, marker)
_wl = partial(tuple.__new__, WlConfig)


def _bag(markers: tuple) -> tuple:
    """``markers`` sorted by ``id``; markers are hash-consed, so equal multisets are equal bags."""
    return markers if len(markers) < 2 else tuple(sorted(markers, key=id))


class ExtConfig(NamedTuple):
    """Composed global trace plus a multiset of pending process markers; a tuple.

    ``markers`` keeps the order the configuration was built in, which is
    the order its successors come out in.  A configuration hashes and
    compares its trace and its markers as a bag (``_bag``), and is not
    ordered.  ``prefix`` summarizes ``trace[:-1]``.  A start is a
    configuration; the exploration builds no other (see ``_graph``).
    """

    trace: Trace
    markers: tuple

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExtConfig:
            return NotImplemented
        return self.trace == other.trace and _bag(self.markers) == _bag(other.markers)

    # object's comparisons: ``!=`` negates ``__eq__``, where tuple's would
    # compare the markers in order, and ordering raises ``TypeError``
    __ne__ = object.__ne__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def __hash__(self) -> int:
        return hash((self.trace, _bag(self.markers)))

    @property
    def prefix(self) -> Summary:
        return summarize(self.trace[:-1])


# the most atoms a replayed trace keeps in the tuple after its cell; see ``_rope``
_LOOSE = 32


def _rope(cell: Cell, loose: Trace) -> tuple:
    """The trace ``cell`` + ``loose`` as a rope: ``loose`` keeps its last 1 to ``_LOOSE`` atoms.

    The cell takes the others, a multiple of ``_LOOSE`` atoms, so the
    split depends only on the trace's length, and equal traces are equal
    ropes.  The empty trace is ``(None, ())``.
    """
    if len(loose) <= _LOOSE:
        return cell, loose
    cut = _LOOSE * ((len(loose) - 1) // _LOOSE)
    return grow(cell, loose[:cut]), loose[cut:]


def _extend(rope: tuple, rho, added: Trace) -> tuple:
    """``_glued`` on a rope: the rope of the trace of ``rope`` followed by ``added``.

    When ``rho`` is not ``None`` the step concretized the whole glued
    trace, so ``added`` follows the trace before its last state
    concretized under ``rho`` instead, which maps each cell once per
    (ρ, cell) and command.  An edge replayed so copies at most
    ``_LOOSE + len(added)`` atoms, whatever the length of the trace.
    """
    cell, loose = rope
    if rho is not None:
        cell, loose = _concretize_cell(rho, cell), _concretize(rho, loose[:-1])
    loose += added
    return (cell, loose) if len(loose) <= _LOOSE else _rope(cell, loose)


def _glued(trace: Trace, rho, added: Trace) -> Trace:
    """The trace a step record takes ``trace`` to: ``trace`` followed by ``added``.

    When ``rho`` is not ``None`` the step concretized the whole glued
    trace, so ``added`` follows ``trace[:-1]`` concretized under ``rho``.
    """
    return trace + added if rho is None else _concretize(rho, trace[:-1]) + added


class _PolicyFields(NamedTuple):
    increment: int
    max_rounds: int
    fresh_bound: int
    conc_numeral: int


class ComposePolicy(_PolicyFields):
    """The exploration's budget and fresh-name settings, a named tuple checked when built."""

    __slots__ = ()

    def __new__(
        cls,
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
        return tuple.__new__(cls, (increment, max_rounds, fresh_bound, conc_numeral))


DEFAULT_POLICY = ComposePolicy()


def method_table(methods) -> tuple:
    """Deduplicate a method list, keeping first occurrences."""
    return tuple(dict.fromkeys(methods))


def _least(errors: list) -> LagcError:
    """The least of ``errors`` by type name and message.

    Every marker of a node, and every node of a layer, is expanded even
    after one of them fails, and then this error is raised, so which error
    a run reports does not depend on the order in which they are iterated.
    """
    return min(errors, key=lambda exc: (type(exc).__name__, str(exc)))


def _divergence(policy: ComposePolicy) -> DivergenceLimitError:
    return DivergenceLimitError(
        f"no fixpoint after {policy.max_rounds} rounds "
        f"(bound {policy.max_rounds * policy.increment})"
    )


# ---------------------------------------------------------------------------
# Plain while language


def _walk(config: WlConfig, steps: int):
    """The configuration a wl run from ``config`` reaches in at most ``steps`` steps.

    The run keeps its atoms in one list.  A step reads only the last state
    and the marker, so each one calls ``step`` on them and appends the
    consistent local trace after its first atom, which is that state; no
    configuration is built until the run ends.  The state the next step
    runs in is the last atom of the local trace kept, so the list is read
    once, by ``last_state`` before the first step, which raises on a trace
    that does not end with a state.  A path condition is consistent when
    it holds no literal but ``true``, a subset test with no call per local
    trace.  The run stops once its marker is ``Done``, and reaches nothing,
    ``None``, once it gets stuck: a step without a consistent local trace.
    A step has no second one (see the module docstring); the walk fails
    loudly if one ever does.
    """
    if steps < 0:
        raise PolicyError("bound must be at least 0")
    trace, marker = config
    atoms = list(trace)
    if steps and marker.__class__ is not Done:
        sigma = last_state(atoms)
    for _ in range(steps):
        if marker.__class__ is Done:
            break
        kept = None
        for pc, local, after in step(marker, sigma, "wl", DEFAULT_FRESH_BOUND):
            if pc <= _ONLY_TRUE:
                if kept is not None:
                    raise AssertionError("a wl step with two consistent local traces")
                kept = local, after
        if kept is None:
            return None
        local, marker = kept
        atoms += local[1:]
        sigma = local[-1]
    return _wl((tuple(atoms), marker))


def compose_bounded_wl(bound: int, config: WlConfig) -> frozenset:
    """The configuration a run reaches within the bound, finished or not; none if it gets stuck."""
    end = _walk(config, bound)
    return frozenset(() if end is None else (end,))


def compose_wl(policy: ComposePolicy, config: WlConfig) -> frozenset:
    """The configuration a run finishes in, none if it gets stuck, within the policy's budget.

    A run still pending at the budget is expanded once more, so an error
    there surfaces before the divergence.
    """
    end = _walk(config, (policy.max_rounds - 1) * policy.increment)
    if end is not None and isinstance(end.marker, Pending):
        _walk(_wl((end.trace[-1:], end.marker)), 1)
        raise _divergence(policy)
    return frozenset(() if end is None else (end,))


def traces_wl(
    stmt: Stmt,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    bound: int | None = None,
) -> frozenset:
    """The fixpoint trace set of ``stmt``, or the bounded one when ``bound`` is given."""
    if not language_check(stmt, "wl"):
        raise ModeError("statement uses constructs outside the wl subset")
    start = _wl((singleton(sigma), Pending(stmt)))
    if bound is None:
        reached = compose_wl(policy, start)
    else:
        reached = compose_bounded_wl(bound, start)
    return frozenset(trace for trace, _ in reached)


# ---------------------------------------------------------------------------
# Concurrent extension


class _Memo:
    """The tables one command shares; see ``memoizing``."""

    __slots__ = ("steps", "atoms", "cells", "bodies")

    def __init__(self):
        self.steps, self.atoms, self.cells, self.bodies = {}, {}, {}, {}


# the tables of the outermost ``memoizing`` block, or None outside every block
_memo = None


@contextmanager
def memoizing():
    """Share the step, renamed body and concretization tables across the block.

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

    Each is ``(local, next marker, added, rho)``, made from a triple of
    ``step``, in the order ``step`` lists them.  A concrete local trace is
    kept as it is, judged by its path condition directly: ``added`` is
    ``local[1:]`` and ``rho`` is ``None``.  Its minimal mapping is empty
    and would change nothing: the trace starts with the state it ran in,
    so that state is concrete and every test evaluated in it is a literal.
    Only a symbolic local trace computes its minimal mapping, ``rho``,
    and is judged by its path condition simplified under it; it is then
    concretized, and ``added`` is the whole concretized local trace,
    which replaces the last state it ran in.  So whether a step
    concretizes is decided here, once per key, for every configuration
    whose prefix is concrete; see ``_scheduled``.  The result is
    memoized per ``(marker, sigma, fresh_bound, conc_numeral)`` in the
    command's table; an error is not, so it is raised again on every call.
    """
    table = {} if _memo is None else _memo.steps
    key = (marker, sigma, fresh_bound, conc_numeral)
    steps = table.get(key)
    if steps is None:
        steps = []
        for pc, local, after in step(marker, sigma, "ext", fresh_bound):
            if is_concrete_trace(local):
                if is_consistent(pc):
                    steps.append((local, after, local[1:], None))
                continue
            local_map = min_conc_map_trace(local, conc_numeral)
            if is_consistent(eval_bexp_set(pc, local_map)):
                steps.append((local, after, _concretize(local_map, local), local_map))
        steps = table[key] = tuple(steps)
    return steps


def _concretize(rho: State, trace: Trace) -> Trace:
    """``trace`` concretized under ``rho``, mapping each distinct (ρ, atom) once per command."""
    images = {} if _memo is None else _memo.atoms.setdefault(rho, {})
    out = []
    for atom in trace:
        image = images.get(atom)
        if image is None:
            image = images[atom] = concretize_atom(rho, atom)
        out.append(image)
    return tuple(out)


def _concretize_cell(rho: State, cell: Cell) -> Cell:
    """The trace ``cell`` concretized under ``rho``, as a cell.

    Each distinct (ρ, cell) is mapped once per command: the walk stops at
    the first cell already mapped and maps the cells below it in turn.
    """
    images = {} if _memo is None else _memo.cells.setdefault(rho, {})
    unmapped = []
    while cell is not None and cell not in images:
        unmapped.append(cell)
        cell = cell.parent
    image = None if cell is None else images[cell]
    for cell in reversed(unmapped):
        image = images[cell] = Cell(image, _concretize(rho, (cell.atom,))[0])
    return image


def _glue(
    trace: Trace, sigma: State, marker: Pending, rest: tuple, fresh_bound: int, conc_numeral: int
) -> list:
    """The step records of ``marker`` in ``sigma`` after ``trace``, whose prefix is symbolic.

    ``sigma`` is the last state of ``trace`` and ``rest`` the other
    markers.  Only a configuration built by hand from a trace can have a
    symbolic prefix.  Then each local trace is glued on whole: ρ is the
    minimal mapping of the whole glued trace, which may concretize earlier
    event arguments, so the summary is folded afresh from the concretized
    trace, which is concrete.  Whether a local step is kept is still
    judged by ``_local_steps`` on the local trace alone: a concrete one by
    its path condition directly, a symbolic one by its path condition
    simplified under the local trace's minimal mapping.
    """
    before = trace[:-1]
    out = []
    for local, after, _, _ in _local_steps(marker, sigma, fresh_bound, conc_numeral):
        rho = min_conc_map_trace(before + local, conc_numeral)
        added = _concretize(rho, local)
        out.append((added, rest + (after,), summarize(_concretize(rho, before) + added[:-1]), rho))
    return out


def _scheduled(rep: tuple, fresh_bound: int, conc_numeral: int) -> list:
    """The records of scheduling one marker of ``rep``, a ``(trace, markers, prefix)``.

    A record is ``(added, markers, summary of the glued trace without its
    last state, rho)``; the glued trace is ``_glued(trace, rho, added)``.
    The scheduled marker's continuation takes its place at the end of the
    markers.  Each distinct pending marker is stepped once, at its first
    occurrence, in the order of the markers, even after one of them
    fails; then the least error is raised (``_least``), so the error does
    not depend on the order in which they are listed.

    For a concrete prefix the records are built in this loop.  A concrete
    prefix maps no name to ``*``, so the glued trace's minimal mapping is
    the local trace's, and ``_local_steps`` has already kept a concrete
    local trace as it is, judged by its path condition directly, or
    concretized a symbolic one.  Concretizing a concrete prefix only adds
    ρ's names to its states and changes no event argument, so the summary
    is ``prefix`` extended by ``added`` before its last state, and nothing
    of ``trace`` is read but its last state.  A symbolic prefix is left to
    ``_glue``.
    """
    trace, markers, prefix = rep
    sigma = last_state(trace)
    out, errors = [], []
    for i, marker in enumerate(markers):
        if not isinstance(marker, Pending) or marker in markers[:i]:
            continue
        rest = markers[:i] + markers[i + 1 :]
        try:
            if not prefix.concrete:
                out += _glue(trace, sigma, marker, rest, fresh_bound, conc_numeral)
                continue
            for _, after, added, rho in _local_steps(marker, sigma, fresh_bound, conc_numeral):
                out.append((added, rest + (after,), prefix.extend(added[:-1]), rho))
        except LagcError as exc:
            errors.append(exc)
    if errors:
        raise _least(errors)
    return out


def _reactions(table, rep: tuple, fresh_bound: int) -> list:
    """The records of spawning a process that reacts to a pending invocation in ``rep``.

    Candidate reactions pair every known method with every harvested call
    argument; a reaction survives only if appending it keeps the invocation
    bookkeeping wellformed, that is, if an invocation with the reaction's
    arguments is still unanswered.  The counts and the arguments come
    from ``rep``'s prefix summary.  Arguments are tried in ``canon_key``
    order, so the reactions come out in an order that does not depend on
    identity hashes.  Each argument is evaluated once, and a reaction's
    atoms are built only when it survives.
    """
    if not table:
        return []
    trace, markers, prefix = rep
    sigma = last_state(trace)
    open_calls = prefix.open_calls
    if not open_calls:
        return []
    params = prefix.params
    if len(params) > 1:
        params = sorted(params, key=canon_key)
    # each argument as the reaction event would carry it, evaluated once
    evaluated = [eval_exp(value, sigma) for value in params]
    bodies = {} if _memo is None else _memo.bodies
    out = []
    for method in table:
        name = MethodRef(method.name)
        for value, arg in zip(params, evaluated):
            args = (name, arg)
            if args not in open_calls:
                continue
            event = EventAtom(EventKind.REACT, args)
            fresh = fresh_name(sigma, method.name, "::Param", fresh_bound)
            bound_state = update(sigma, fresh, value.arith)
            body = bodies.get((method, fresh))
            if body is None:
                body = bodies[method, fresh] = Pending(substitute(method.body, method.formal, fresh))
            added = (event, sigma, bound_state)
            out.append((added, markers + (body,), prefix.extend((sigma, event, sigma)), None))
    return out


def _records(table, rep: tuple, fresh_bound: int, conc_numeral: int) -> list:
    """The step records of ``rep``: the scheduled steps, then the reactions.

    This is the one expansion of a graph node.
    """
    return _scheduled(rep, fresh_bound, conc_numeral) + _reactions(table, rep, fresh_bound)


def _rep(config: ExtConfig) -> tuple:
    """``config`` as a node holds it: ``(trace, markers, prefix)``, with the whole trace."""
    return config.trace, config.markers, config.prefix


def _future_key(trace: Trace, markers: tuple, prefix: Summary) -> tuple:
    """The graph node of a configuration; see the module docstring.

    For a concrete prefix ``prefix`` that is the last atom of ``trace``,
    the marker multiset and the prefix's open invocations and harvested
    arguments; otherwise it is the whole trace and the marker multiset.
    """
    if not prefix.concrete:
        return trace, _bag(markers)
    open_calls = prefix.open_calls
    return (
        trace[-1:],
        _bag(markers),
        None if open_calls is None else frozenset(open_calls.items()),
        prefix.params,
    )


class _Node:
    """A node's representative, its edges once expanded, and its last walk.

    ``rep`` is ``(trace, markers, prefix)`` of the first configuration
    that reached the node: of the trace only the last atom, as a 1-tuple,
    which is all that a node with a concrete prefix reads; the markers in
    the order that step built them; and the summary of the trace without
    its last state.  The start, and a node with a symbolic prefix, keep
    their whole trace.  An edge is ``(target, rho, added)``: the step
    takes a trace ``t`` of this node to ``_glued(t, rho, added)``.
    ``edges`` stays ``None`` for a node that was not expanded.  ``walk``
    is the token of the last ``_graph`` call that reached the node.
    """

    __slots__ = ("rep", "edges", "walk")

    def __init__(self, rep: tuple, walk):
        self.rep, self.edges, self.walk = rep, None, walk


def _graph(
    start: ExtConfig, table, fresh_bound: int, conc_numeral: int, depth: int, nodes=None
) -> tuple:
    """Expand, layer by layer, every node first reached within fewer than ``depth`` steps.

    Returns the nodes reached, in order of minimum depth with the root
    first, and the nodes first reached after exactly ``depth`` steps,
    which are left unexpanded.  A layer is expanded in the order its nodes
    were first reached, and a node's records in the order ``_records``
    lists them, so which step represents a node does not depend on
    identity hashes.  Each node of a layer not yet expanded is expanded by
    one call of ``_records``, even after another node fails; the least
    error (``_least``) is raised once the layer is done, so the least
    error of the shallowest failing layer wins.  A scheduled step of a
    concrete local trace is judged by its path condition directly and
    builds no mapping (see ``_local_steps``).

    ``nodes`` is a node table, by future key, that an earlier call with
    the same methods and settings filled.  A node's successors depend only
    on its key, so a node that call expanded is walked, not expanded
    again; the minimum depths are this call's own, so its layers, result
    and errors are those of a call on an empty table.
    """
    if depth < 0:
        raise PolicyError("bound must be at least 0")
    walk = object()
    nodes = {} if nodes is None else nodes
    rep = _rep(start)
    root = nodes.setdefault(_future_key(*rep), _Node(rep, walk))
    root.walk = walk
    reached, layer = [root], [root]
    for _ in range(depth):
        if not layer:
            break
        found, errors = [], []
        for node in layer:
            edges = node.edges
            if edges is None:
                try:
                    records = _records(table, node.rep, fresh_bound, conc_numeral)
                except LagcError as exc:
                    errors.append(exc)
                    continue
                node.edges = edges = []
                trace = node.rep[0]
                for added, markers, summary, rho in records:
                    if summary.concrete:
                        after = added[-1:] or trace[-1:]
                    else:
                        after = _glued(trace, rho, added)
                    key = _future_key(after, markers, summary)
                    target = nodes.get(key)
                    if target is None:
                        target = nodes[key] = _Node((after, markers, summary), walk)
                        found.append(target)
                    elif target.walk is not walk:
                        target.walk = walk
                        found.append(target)
                    edges.append((target, rho, added))
                continue
            for target, _, _ in edges:
                if target.walk is not walk:
                    target.walk = walk
                    found.append(target)
        if errors:
            raise _least(errors)
        reached += found
        layer = found
    return reached, layer


def _longest_path(nodes: list) -> float:
    """Steps on the longest path from the first node, infinite if a cycle is reachable.

    Every node must be expanded and reachable from the first one.
    """
    indegree = dict.fromkeys(nodes, 0)
    for node in nodes:
        for target, _, _ in node.edges:
            indegree[target] += 1
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


def _paths(root: _Node, trace: Trace, steps: int) -> list:
    """The ends of the paths from ``root`` of at most ``steps`` steps, as ``(node, trace)``.

    The paths start with ``trace``, the start configuration's.  A path
    ends at a terminal or unexpanded node, or after ``steps`` steps.  A
    layer maps each node to the distinct ropes of the traces that reach
    it, and an edge extends each of them with ``_extend``, as ``_glued``
    would, so an edge costs what it appends, whatever the length of the
    trace.
    """
    layer = {root: {_rope(None, trace)}}
    ends = []
    for _ in range(steps):
        ahead = {}
        for node, ropes in layer.items():
            if not node.edges:
                ends += ((node, rope) for rope in ropes)
                continue
            for target, rho, added in node.edges:
                bucket = ahead.get(target)
                if bucket is None:
                    bucket = ahead[target] = set()
                for rope in ropes:
                    bucket.add(_extend(rope, rho, added))
        layer = ahead
        if not layer:
            break
    for node, ropes in layer.items():
        ends += ((node, rope) for rope in ropes)
    return [(node, trace_of(cell) + loose) for node, (cell, loose) in ends]


def _fixpoint_graph(policy: ComposePolicy, table, config: ExtConfig, nodes=None) -> tuple:
    """The nodes ``config`` reaches and the steps of its longest path, if within the budget."""
    budget = (policy.max_rounds - 1) * policy.increment
    reached, beyond = _graph(
        config, table, policy.fresh_bound, policy.conc_numeral, budget + 1, nodes
    )
    longest = math.inf if beyond else _longest_path(reached)
    if longest > budget:
        raise _divergence(policy)
    return reached, longest


def _ends(table, config: ExtConfig, fresh_bound: int, conc_numeral: int, bound, policy=None):
    """The ends of the paths from ``config``, as ``_paths`` lists them.

    The paths are cut after ``bound`` steps, or, when ``bound`` is
    ``None``, are those of the fixpoint within ``policy``'s budget.
    """
    with memoizing():
        if bound is None:
            reached, bound = _fixpoint_graph(policy, table, config)
        else:
            reached, _ = _graph(config, table, fresh_bound, conc_numeral, bound)
        return _paths(reached[0], config.trace, bound)


def _start(program: Program, sigma: State) -> ExtConfig:
    return ExtConfig(singleton(sigma), (Pending(program.main),))


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
    start = _start(program, sigma)
    ends = _ends(table, start, policy.fresh_bound, policy.conc_numeral, bound, policy)
    return frozenset(trace for _, trace in ends)


# ---------------------------------------------------------------------------
# Trace equivalence


def _same_words(left: _Node, right: _Node) -> bool:
    """Whether the maximal paths from ``left`` and from ``right`` append the same words.

    Hopcroft and Karp's check on the subset automaton, built as it is
    needed.  A position is a node without edges, which accepts, or
    ``(added, i, target)``, an edge with the index of the next atom it
    appends; a state is the frozen set of positions a word leads to,
    closed under the edges that append nothing.  A union-find merges the
    states found equal, and a pair of states is pushed only when it joins
    two classes, so fewer pairs are pushed than there are states.
    """

    @cache
    def closure(node: _Node) -> frozenset:
        found, todo, seen = set(), [node], {node}
        while todo:
            item = todo.pop()
            if not item.edges:
                found.add(item)
            for target, _, added in item.edges:
                if added:
                    found.add((added, 0, target))
                elif target not in seen:
                    seen.add(target)
                    todo.append(target)
        return frozenset(found)

    def moves(state: frozenset) -> tuple:
        """Whether ``state`` accepts, and the state each atom leads to."""
        accepts, out = False, {}
        for position in state:
            if position.__class__ is _Node:
                accepts = True
                continue
            added, i, target = position
            after = out.setdefault(added[i], set())
            if i + 1 < len(added):
                after.add((added, i + 1, target))
            else:
                after |= closure(target)
        return accepts, {atom: frozenset(after) for atom, after in out.items()}

    parent, todo = {}, []

    def find(state: frozenset) -> frozenset:
        while state in parent:
            up = parent[state]
            parent[state] = state = parent.get(up, up)
        return state

    def join(a: frozenset, b: frozenset):
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b
            todo.append((a, b))

    join(closure(left), closure(right))
    empty = frozenset()
    while todo:
        (accepts_a, moves_a), (accepts_b, moves_b) = map(moves, todo.pop())
        if accepts_a != accepts_b:
            return False
        for atom in moves_a.keys() | moves_b.keys():
            join(moves_a.get(atom, empty), moves_b.get(atom, empty))
    return True


def _programs_equivalent(left: Program, right: Program, sigma: State, policy) -> bool:
    """Whether both programs have the same fixpoint trace set; see the module docstring."""
    nodes, sides = {}, []
    methods = set(left.methods)
    for program in (left, right):
        table, start = method_table(program.methods), _start(program, sigma)
        shared = nodes if set(table) == methods else None
        reached, longest = _fixpoint_graph(policy, table, start, shared)
        sides.append((reached, start.trace, longest))
    edges = [edge for reached, _, _ in sides for node in reached for edge in node.edges]
    if any(rho is not None for _, rho, _ in edges):
        left_traces, right_traces = (
            frozenset(trace for _, trace in _paths(reached[0], trace, longest))
            for reached, trace, longest in sides
        )
        return left_traces == right_traces
    return _same_words(sides[0][0][0], sides[1][0][0])


def trace_equivalent(
    left,
    right,
    sigma: State,
    policy: ComposePolicy = DEFAULT_POLICY,
    mode: str | None = None,
) -> bool:
    """Whether both operands generate the same global trace set from ``sigma``.

    Both sides share one set of ``memoizing`` tables and, for ext, one
    node table; see the module docstring.
    """
    with memoizing():
        if isinstance(left, Program) and isinstance(right, Program):
            return _programs_equivalent(left, right, sigma, policy)
        if isinstance(left, Program) or isinstance(right, Program):
            raise ModeError("cannot compare a program against a bare statement")
        if mode == "ext":
            return _programs_equivalent(Program((), left), Program((), right), sigma, policy)
        return traces_wl(left, sigma, policy) == traces_wl(right, sigma, policy)


def initial_state_for(*items) -> State:
    """The canonical start state: every variable occurring in ``items`` mapped to zero."""
    return initial_state(name for item in items for name in occurrences(item))
