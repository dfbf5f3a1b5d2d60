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

No step copies the global trace.  A local trace starts with the state it
ran in, which is the last atom of the global trace, so gluing appends the
rest of the local trace.  A ``WlConfig`` holds its trace as a
``trace.Cell``, a hash-consed cons cell of the trace before the last atom
and that atom, so a wl step builds one cell per atom it appends, and a
configuration hashes and compares its cell and marker in O(1).  The ext
engine holds every trace as a *rope* (Boehm, Atkinson and Plass, "Ropes:
an Alternative to Strings", 1995): a cell of a multiple of ``_LOOSE``
atoms and a tuple of the last 1 to ``_LOOSE`` atoms.  ``_rope`` is the
one split rule, and it depends only on the trace's length, so equal
traces are equal ropes.  ``_extend`` is the one step rule, shared by the
successor functions and by the replay of the paths: it concretizes the
rope's trace before its last state when the step did, appends the atoms
the step adds and splits again.  A step thus copies at most ``_LOOSE``
atoms plus those it adds and builds about one cell per atom it adds, a
long trace is held as cells shared with every trace that extends it, and
a short one builds no cell at all; building a cell costs about as much as
copying a tuple of several hundred atoms.  An ``ExtConfig`` also carries
``prefix``, a ``trace.Summary`` of its trace without the last state
(concreteness, the unanswered invocations and the harvested call
arguments), which a step extends by the atoms it adds, so neither
deciding concreteness nor spawning reactions walks the trace.  Only a
step that concretizes the whole trace leaves its summary to be folded
afresh, from cells that keep their folds.

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
the first configuration that reached it and expands it once.  Each edge
keeps the atoms its step appends and, for a step that concretized the
whole trace, the mapping ``rho`` it used.  For a concrete prefix that
mapping comes from the local trace alone, and concretization works atom
by atom, so the step takes every trace ``t`` of the node to ``t``
followed by those atoms, or to ``concretize_trace(rho, t[:-1])``
followed by them, exactly as expanding ``t`` itself would.  Only the
start configuration can have a concrete prefix and a symbolic last state,
and no step returns to it, so no node with a future key reaches a node
without one along more than one trace.

Successors, like ``valuate``'s local traces, come out as set-like views
that list them in the order they were generated, and a layer of the
graph is expanded in the order its nodes were first reached, so which
configuration represents a node does not depend on identity hashes.
Nodes are expanded layer by layer in order of minimum depth, and the
least error of the shallowest failing layer is raised, which is the
error the trace tree meets first.  The fixpoint search diverges iff a
node first appears after ``B + 1`` steps or, once the graph is closed, a
cycle is reachable or the longest path is longer than ``B``.  The traces
come from replaying the paths layer by layer over the distinct ropes
reaching each node, each edge extended with ``_extend`` as its step was,
so equal traces meet in a set and an edge costs what it appends; each
returned trace is spelled out as a tuple once.

Five caches keep the ext engine from computing the same thing twice in
one command.  A local step is memoized per ``(marker, state, fresh_bound,
conc_numeral)``: ``valuate``, the minimal mapping of each local trace and
the consistency check run once per key, and only gluing the kept local
traces onto a configuration's trace is done per configuration.  A state
keeps, once asked, whether it is concrete and which names it maps to
``*`` (see ``lagc.state``).  Concretizing is memoized per ``(rho,
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
from collections import Counter
from contextlib import contextmanager
from functools import partial
from operator import itemgetter

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
from .localeval import DEFAULT_FRESH_BOUND, Done, Marker, Pending, ordered, valuate
from .state import BOUND_EXCEEDED_PREFIX, State, initial_state, update, vargen
from .syntax import (
    MethodRef,
    Program,
    Record,
    Stmt,
    StoredExp,
    canon_key,
    language_check,
    occurrences,
    substitute,
)
from .trace import (
    Cell,
    EventKind,
    StateAtom,
    Summary,
    Trace,
    cell_of,
    gen_event,
    grow,
    is_concrete_atom,
    is_consistent,
    singleton,
    summary_of,
    trace_of,
)

_set = object.__setattr__


class WlConfig(tuple):
    """Composed global trace plus the one statement left to run.

    Underneath it is the pair ``(cell, marker)`` of the trace as a
    ``trace.Cell`` and the marker, both hash-consed, so a configuration
    hashes and compares in O(1) and a step builds one (``_wl``) without
    running Python code of its own.  ``trace`` spells the trace out as a
    tuple and ``prefix`` folds the summary of ``trace[:-1]``; the engine
    uses neither.

    The wl engine keeps the cell where the ext engine keeps a rope
    (``_rope``): from a concrete start a wl step has one successor and
    appends the few atoms of one local trace, so a cell per atom is cheap,
    while a rope would copy and hash up to ``_LOOSE`` atoms per step.  Holding the wl trace as a rope
    read the wl-sequential benchmark's ``cmds_per_s`` 1.1% lower (median
    of 6 alternating pairs, 220.7 against 218.2, lower in 5 of them).
    """

    __slots__ = ()

    def __new__(cls, trace: Trace, marker: Marker):
        return tuple.__new__(cls, (cell_of(trace), marker))

    marker = property(itemgetter(1))

    @property
    def trace(self) -> Trace:
        return trace_of(self[0])

    @property
    def prefix(self) -> Summary:
        cell = self[0]
        return summary_of(None if cell is None else cell.parent)

    def __repr__(self) -> str:
        return f"WlConfig(trace={self.trace!r}, marker={self.marker!r})"


# a WlConfig from the pair (cell, marker)
_wl = partial(tuple.__new__, WlConfig)


# the most atoms an ext trace keeps in the tuple after its cell; see ``_rope``
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
    """The rope of a step's glued trace: the trace of ``rope`` followed by ``added``.

    When ``rho`` is not ``None`` the step concretized the whole glued
    trace, so ``added`` follows ``concretize_trace(rho, trace[:-1])``
    instead, which maps each cell once per (ρ, cell) and command.  A step
    copies at most ``_LOOSE + len(added)`` atoms, whatever the length of
    the trace.
    """
    cell, loose = rope
    if rho is not None:
        cell, loose = _concretize_cell(rho, cell), _concretize(rho, loose[:-1])
    loose += added
    return (cell, loose) if len(loose) <= _LOOSE else _rope(cell, loose)


class ExtConfig(Record):
    """Composed global trace plus a multiset of pending process markers.

    The trace is the rope ``rope`` (``_rope``), which a step builds from
    its parent's with ``_extend``: a long trace is held as cells shared
    with every configuration that extends it, and a short one builds no
    cell at all, since building a cell costs about as much as copying a
    tuple of several hundred atoms.  A step also extends its parent's
    ``prefix``, the summary of ``trace[:-1]``, by the atoms it adds,
    ``added``.  A configuration built from a trace tuple, or by a step
    that concretized the whole trace, folds its ``prefix`` when first
    asked.

    ``markers`` keeps the order the configuration was built in, which is
    the order its successors come out in.  ``bag`` holds the same markers
    sorted by ``id``: markers are hash-consed, so equal multisets are
    equal bags.  A configuration hashes and compares ``(rope, bag)``;
    equal traces are equal ropes, so its hash agrees with its equality.
    ``rho`` is the mapping the step that built the configuration
    concretized the whole glued trace under, or ``None`` when it kept the
    glued trace as it is; see ``_extend``.
    """

    __slots__ = ("rope", "added", "markers", "bag", "rho", "_prefix")
    _fields = ("rope", "bag")
    rope: tuple
    added: Trace
    markers: tuple
    bag: tuple
    rho: State

    def __init__(self, trace: Trace, markers):
        _fill(self, _rope(None, tuple(trace)), (), tuple(markers), None, None)

    @property
    def trace(self) -> Trace:
        cell, loose = self.rope
        return trace_of(cell) + loose

    @property
    def last(self):
        """The last atom of the trace, ``None`` for the empty trace."""
        loose = self.rope[1]
        return loose[-1] if loose else None

    @property
    def prefix(self) -> Summary:
        prefix = self._prefix
        if prefix is None:
            cell, loose = self.rope
            prefix = summary_of(cell).extend(loose[:-1])
            _set(self, "_prefix", prefix)
        return prefix

    def __repr__(self) -> str:
        return f"ExtConfig(trace={self.trace!r}, markers={self.markers!r})"


def _fill(config: ExtConfig, rope: tuple, added: tuple, markers: tuple, prefix, rho):
    _set(config, "rope", rope)
    _set(config, "added", added)
    _set(config, "markers", markers)
    _set(config, "bag", markers if len(markers) < 2 else tuple(sorted(markers, key=id)))
    _set(config, "rho", rho)
    _set(config, "_prefix", prefix)


def _ext(rope: tuple, added: tuple, markers: tuple, prefix, rho) -> ExtConfig:
    """A configuration a step built; see ``ExtConfig``."""
    config = object.__new__(ExtConfig)
    _fill(config, rope, added, markers, prefix, rho)
    return config


def _final_state(atom) -> State:
    """The state of a trace's last atom, which must be a state."""
    if isinstance(atom, StateAtom):
        return atom.state
    raise UndefinedTraceOpError("trace does not end with a state")


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


# the successors of a configuration that has none
_NO_SUCCESSORS = {}.keys()


def _pending(cell: Cell, marker: Marker) -> State:
    """The final state of a configuration whose marker is pending."""
    if not isinstance(marker, Pending):
        raise UndefinedTraceOpError("no successors for a finished configuration")
    return _final_state(None if cell is None else cell.atom)


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

    ``expand`` maps a configuration to its successors, or to ``None``
    when the configuration is terminal.  Returns the terminal
    configurations reached and the frontier left after the last step,
    each as a dict keeping the order configurations were first reached in.
    """
    if bound < 0:
        raise PolicyError("bound must be at least 0")
    finished, frontier = {}, {start: None}
    for _ in range(bound):
        if not frontier:
            break
        step = {}
        for config, succ in _expand_all(frontier, expand):
            if succ is None:
                finished[config] = None
            else:
                for reached in succ:
                    step[reached] = None
        frontier = step
    return finished, frontier


def _divergence(policy: ComposePolicy) -> DivergenceLimitError:
    return DivergenceLimitError(
        f"no fixpoint after {policy.max_rounds} rounds "
        f"(bound {policy.max_rounds * policy.increment})"
    )


# ---------------------------------------------------------------------------
# Plain while language


def successors_wl(config: WlConfig):
    """One evaluation step: glue each consistent local trace onto the global one.

    A local trace starts with the state it ran in, the last atom of the
    global trace, so gluing appends the rest of it to the configuration's
    cell.  The successors come out in the order ``valuate`` lists the
    local traces.
    """
    cell, marker = config
    sigma = _pending(cell, marker)
    out = []
    for cont in valuate(marker, sigma, "wl"):
        if is_consistent(cont.cond.pc):
            out.append(_wl((grow(cell, cont.cond.trace[1:]), cont.marker)))
    return ordered(out)


def _expand_wl(config: WlConfig):
    return None if isinstance(config[1], Done) else successors_wl(config)


def compose_bounded_wl(bound: int, config: WlConfig) -> frozenset:
    """Terminal configurations reachable within the bound, plus the frontier."""
    finished, frontier = _explore(config, _expand_wl, bound)
    return frozenset(finished.keys() | frontier.keys())


def compose_wl(policy: ComposePolicy, config: WlConfig) -> frozenset:
    """Every configuration reached, provided all are finished within the policy's budget.

    Every configuration on the last frontier is expanded, so an error any
    of them raises surfaces before the divergence.
    """
    budget = (policy.max_rounds - 1) * policy.increment
    finished, frontier = _explore(config, _expand_wl, budget)
    if all(succ is None for _, succ in _expand_all(frontier, _expand_wl)):
        return frozenset(finished.keys() | frontier.keys())
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
    start = _wl((cell_of(singleton(sigma)), Pending(stmt)))
    if bound is None:
        reached = compose_wl(policy, start)
    else:
        reached = compose_bounded_wl(bound, start)
    return frozenset(trace_of(cell) for cell, _ in reached)


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

    Each is ``(local trace, next marker, minimal mapping of the local
    trace)``, in the order ``valuate`` lists them.  The path condition is
    judged after simplification under that mapping.  The result is
    memoized per ``(marker, sigma, fresh_bound, conc_numeral)`` in the
    command's table; an error is not, so it is raised again on every call.
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


def _concretize_cell(rho: State, cell: Cell) -> Cell:
    """``concretize_trace(rho, ·)`` of the trace ``cell``, as a cell.

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
    rope: tuple,
    prefix: Summary,
    sigma: State,
    marker: Pending,
    fresh_bound: int,
    conc_numeral: int,
) -> list:
    """The steps of ``marker`` in ``sigma``, to glue onto the trace of ``rope``.

    ``sigma`` is the last state of that trace and ``prefix`` the summary
    of the trace without it.  Each step is ``(added, next marker, summary
    of the glued trace without its last state or None, rho)``; the glued
    trace is ``_extend(rope, rho, added)``.  Path conditions are judged
    after simplification under the minimal mapping of the local trace;
    surviving glued traces are concretized under their own minimal
    mapping.  The surviving local steps come from ``_local_steps``; gluing
    them onto the trace is done per configuration.

    A local trace starts with ``sigma``, so the glued trace is the trace
    followed by the rest of the local trace, ``added``.  Concretizing is
    skipped when the trace before its last state and the local trace are
    both concrete, which ``prefix`` extended by the local trace tells
    without walking the global trace.  The glued trace is then concrete,
    its minimal mapping (like the local trace's) is empty, and
    concretizing under the empty mapping rebuilds every atom equal to
    itself, so ``rho`` is ``None``.  A non-empty mapping adds its keys (a
    fresh ``$x::Input``, say) to every earlier state, so then the glued
    trace is concretized under it, ``added`` is the concretized local
    trace, and the summary is left to be folded afresh.  When the global
    trace before its last state is concrete, it maps no name to ``*``, so
    that mapping is the local trace's; otherwise it is computed from the
    whole glued trace.
    """
    out = []
    for local, after, local_map in _local_steps(marker, sigma, fresh_bound, conc_numeral):
        extended = prefix.extend(local[:-1])
        if extended.concrete and is_concrete_atom(local[-1]):
            out.append((local[1:], after, extended, None))
            continue
        rho = local_map
        if not prefix.concrete:
            cell, loose = rope
            rho = min_conc_map_trace(trace_of(cell) + loose[:-1] + local, conc_numeral)
        out.append((_concretize(rho, local), after, None, rho))
    return out


def basic_successors(
    config: WlConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """One step of a single process, with composition-time concretization; see ``_glue``."""
    cell, marker = config
    sigma = _pending(cell, marker)
    rope = cell.parent, (cell.atom,)
    steps = _glue(rope, config.prefix, sigma, marker, fresh_bound, conc_numeral)
    return frozenset(
        _wl((grow(*_extend(rope, rho, added)), after)) for added, after, _, rho in steps
    )


def successors1(
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
):
    """Schedule one marker out of the multiset and reinsert its continuation.

    Every distinct pending marker is stepped, in the order of
    ``config.markers``, even after one of them fails; then the least error
    is raised, so the error does not depend on the order in which the
    configuration lists its markers.
    """
    sigma = _final_state(config.last)
    rope, prefix, markers = config.rope, config.prefix, config.markers
    pending = [m for m in dict.fromkeys(markers) if isinstance(m, Pending)]

    def step(marker: Pending) -> list:
        return _glue(rope, prefix, sigma, marker, fresh_bound, conc_numeral)

    out = []
    for marker, steps in _expand_all(pending, step):
        i = markers.index(marker)
        rest = markers[:i] + markers[i + 1 :]
        for added, after, summary, rho in steps:
            out.append(_ext(_extend(rope, rho, added), added, rest + (after,), summary, rho))
    return ordered(out)


def successors2(table, config: ExtConfig, fresh_bound: int = DEFAULT_FRESH_BOUND):
    """Spawn processes reacting to pending method invocations.

    Candidate reactions pair every known method with every harvested call
    argument; a reaction survives only if appending it keeps the invocation
    bookkeeping wellformed, that is, if an invocation with the reaction's
    arguments is still unanswered.  The counts and the arguments travel
    with the configuration in its prefix summary.  Arguments are tried in
    ``canon_key`` order, so the reactions come out in an order that does
    not depend on identity hashes.
    """
    if not table:
        return _NO_SUCCESSORS
    sigma = _final_state(config.last)
    prefix = config.prefix
    open_calls = prefix.open_calls
    if not open_calls:
        return _NO_SUCCESSORS
    params = prefix.params
    if len(params) > 1:
        params = sorted(params, key=canon_key)
    bodies = {} if _memo is None else _memo.bodies
    out = []
    for method in table:
        for value in params:
            reaction = gen_event(EventKind.REACT, sigma, (MethodRef(method.name), value))
            _, event, after = reaction
            if event.args not in open_calls:
                continue
            fresh = vargen(sigma, 0, fresh_bound, "$" + method.name + "::Param")
            if fresh.startswith(BOUND_EXCEEDED_PREFIX):
                raise FreshBoundExceededError(fresh)
            bound_state = update(sigma, fresh, StoredExp(value.arith))
            body = bodies.get((method, fresh))
            if body is None:
                body = bodies[method, fresh] = Pending(substitute(method.body, method.formal, fresh))
            added = (event, after, StateAtom(bound_state))
            markers = config.markers + (body,)
            rope = _extend(config.rope, None, added)
            out.append(_ext(rope, added, markers, prefix.extend(reaction), None))
    return ordered(out)


def successors_ext(
    table,
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
):
    """The scheduled steps of ``successors1``, then the reactions of ``successors2``."""
    scheduled = successors1(config, fresh_bound, conc_numeral)
    reactions = successors2(table, config, fresh_bound)
    if not reactions:
        return scheduled
    return ordered([*scheduled, *reactions])


def _future_key(config: ExtConfig):
    """The graph node of ``config``; see the module docstring.

    For a concrete prefix that is the last atom, the marker multiset and
    the prefix's open invocations and harvested arguments; otherwise it is
    the configuration itself.
    """
    prefix = config.prefix
    if not prefix.concrete:
        return config
    open_calls = prefix.open_calls
    return (
        config.last,
        config.bag,
        None if open_calls is None else frozenset(open_calls.items()),
        prefix.params,
    )


class _Node:
    """The first configuration that reached a node and, once expanded, its edges.

    An edge is ``(target, rho, added)``: the step takes a trace of this
    node, as a rope, to ``_extend(rope, rho, added)``.  ``edges`` stays
    ``None`` for a node that was not expanded.
    """

    __slots__ = ("rep", "edges")

    def __init__(self, rep: ExtConfig):
        self.rep, self.edges = rep, None


def _graph(start: ExtConfig, table, fresh_bound: int, conc_numeral: int, depth: int) -> tuple:
    """Expand, layer by layer, every node first reached within fewer than ``depth`` steps.

    Returns every node, in order of minimum depth with the root first, and
    the nodes first reached after exactly ``depth`` steps, which are left
    unexpanded.  A layer is expanded in the order its nodes were first
    reached, and a node's successors in the order ``successors_ext``
    lists them, so which configuration represents a node does not depend
    on identity hashes.  The least error of the shallowest failing layer
    is raised.
    """
    if depth < 0:
        raise PolicyError("bound must be at least 0")

    def expand(node: _Node):
        return successors_ext(table, node.rep, fresh_bound, conc_numeral)

    root = _Node(start)
    nodes = {_future_key(start): root}
    layer = [root]
    for _ in range(depth):
        if not layer:
            break
        step = []
        for node, succs in _expand_all(layer, expand):
            node.edges = edges = []
            for succ in succs:
                key = _future_key(succ)
                target = nodes.get(key)
                if target is None:
                    target = nodes[key] = _Node(succ)
                    step.append(target)
                edges.append((target, succ.rho, succ.added))
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


def _paths(root: _Node, steps: int) -> list:
    """The ends of the paths from ``root`` of at most ``steps`` steps, as ``(node, trace)``.

    A path ends at a terminal or unexpanded node, or after ``steps``
    steps.  A layer maps each node to the distinct ropes of the traces
    that reach it, and an edge extends each of them with ``_extend``, as
    the step it replays did, so an edge costs what it appends, whatever
    the length of the trace.
    """
    layer = {root: {root.rep.rope}}
    ends = []
    for _ in range(steps):
        step = {}
        for node, ropes in layer.items():
            if not node.edges:
                ends += ((node, rope) for rope in ropes)
                continue
            for target, rho, added in node.edges:
                bucket = step.get(target)
                if bucket is None:
                    bucket = step[target] = set()
                for rope in ropes:
                    bucket.add(_extend(rope, rho, added))
        layer = step
        if not layer:
            break
    for node, ropes in layer.items():
        ends += ((node, rope) for rope in ropes)
    return [(node, trace_of(cell) + loose) for node, (cell, loose) in ends]


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
    return frozenset(ExtConfig(trace, node.rep.markers) for node, trace in ends)


def compose_ext(policy: ComposePolicy, table, config: ExtConfig) -> frozenset:
    """Every configuration reached, provided no path is longer than the policy's budget."""
    ends = _fixpoint_ends(policy, table, config)
    return frozenset(ExtConfig(trace, node.rep.markers) for node, trace in ends)


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
    return frozenset(trace for _, trace in ends)


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
