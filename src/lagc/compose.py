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
arguments), which the step that builds it computes by extending its
parent's by the atoms it adds, so neither deciding concreteness nor
spawning reactions walks the trace.  That holds for a step that
concretizes the whole trace too: concretizing a concrete prefix changes
none of its summary.

Bounded composition explores at most a given number of steps; the
fixpoint search has the budget ``B = (max_rounds - 1) * increment`` and
diverges iff some path is longer than ``B``, so how that budget is split
into rounds does not change the result, only the error text.  When
configurations of one step fail, the least error by type and message is
raised, whatever order they are iterated in.

A wl step has at most one successor: a local step yields one trace, or
the two branches of a test under complementary conditions, and at most
one of those is consistent.  So a wl run is one path, which the wl engine
walks one configuration at a time.  It ends finished, once the marker is
``Done``; stuck, once every local trace is inconsistent (a test on
``*``, say); or at the budget.  A stuck wl run reaches nothing and is
dropped, while a stuck ext configuration is a deadlock and is kept.  For
a fixpoint, a run still pending at the budget is expanded once more, so
that an error there wins, and then diverges.

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
conc_numeral)``: ``valuate``, the minimal mapping of each local trace,
the consistency check and the choice between keeping a local trace and
concretizing it run once per key, and only gluing the kept local traces
onto a configuration's trace is done per configuration.  A state
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
from functools import cache, partial
from operator import itemgetter
from typing import NamedTuple

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
    is_concrete_trace,
    is_consistent,
    singleton,
    summarize,
    trace_of,
)


class WlConfig(tuple):
    """Composed global trace plus the one statement left to run.

    Underneath it is the pair ``(cell, marker)`` of the trace as a
    ``trace.Cell`` and the marker, both hash-consed, so a configuration
    hashes and compares in O(1) and a step builds one (``_wl``) without
    running Python code of its own.  ``trace`` spells the trace out as a
    tuple, for ``basic_successors``, and ``prefix`` summarizes
    ``trace[:-1]``, for the tests; the wl engine uses neither.

    The wl engine keeps the cell where the ext engine keeps a rope
    (``_rope``): a wl step has at most one successor and appends the few
    atoms of one local trace, so a cell per atom is cheap, while a rope
    would copy and hash up to ``_LOOSE`` atoms per step.  Holding the wl
    trace as a rope read the wl-sequential benchmark's ``cmds_per_s`` 1.1%
    lower (median of 6 alternating pairs, 220.7 against 218.2, lower in 5
    of them).
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
        return summarize(self.trace[:-1])

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


class _ExtFields(NamedTuple):
    rope: tuple
    bag: tuple
    markers: tuple
    added: Trace
    prefix: Summary
    rho: State


class ExtConfig(_ExtFields):
    """Composed global trace plus a multiset of pending process markers.

    The trace is the rope ``rope`` (``_rope``), which a step builds from
    its parent's with ``_extend``: a long trace is held as cells shared
    with every configuration that extends it, and a short one builds no
    cell at all, since building a cell costs about as much as copying a
    tuple of several hundred atoms.  ``prefix`` is the summary of
    ``trace[:-1]``: a step sets it from its parent's and the atoms it
    adds, ``added`` (see ``_glue``), and a configuration built from a
    trace tuple folds it from the tuple.

    ``markers`` keeps the order the configuration was built in, which is
    the order its successors come out in.  ``bag`` holds the same markers
    sorted by ``id``: markers are hash-consed, so equal multisets are
    equal bags.  A configuration is a named tuple that hashes and
    compares ``(rope, bag)`` only; equal traces are equal ropes, so its
    hash agrees with its equality.  Configurations are not ordered.
    ``rho`` is the mapping the step that built the configuration
    concretized the whole glued trace under, or ``None`` when it kept the
    glued trace as it is; see ``_extend``.
    """

    __slots__ = ()

    def __new__(cls, trace: Trace, markers):
        trace = tuple(trace)
        return _ext(_rope(None, trace), (), tuple(markers), summarize(trace[:-1]), None)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExtConfig:
            return NotImplemented
        return self[0] == other[0] and self[1] == other[1]

    # object's comparisons: ``!=`` negates ``__eq__``, where tuple's would
    # compare every field, and ordering raises ``TypeError``
    __ne__ = object.__ne__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def __hash__(self) -> int:
        return hash((self[0], self[1]))

    @property
    def trace(self) -> Trace:
        cell, loose = self.rope
        return trace_of(cell) + loose

    @property
    def last(self):
        """The last atom of the trace, ``None`` for the empty trace."""
        loose = self.rope[1]
        return loose[-1] if loose else None

    def __repr__(self) -> str:
        return f"ExtConfig(trace={self.trace!r}, markers={self.markers!r})"


# an ExtConfig from its six fields, in ``_ExtFields`` order
_ext_config = partial(tuple.__new__, ExtConfig)


def _ext(rope: tuple, added: tuple, markers: tuple, prefix, rho) -> ExtConfig:
    """A configuration a step built; see ``ExtConfig``."""
    bag = markers if len(markers) < 2 else tuple(sorted(markers, key=id))
    return _ext_config((rope, bag, markers, added, prefix, rho))


def _final_state(atom) -> State:
    """The state of a trace's last atom, which must be a state."""
    if isinstance(atom, StateAtom):
        return atom.state
    raise UndefinedTraceOpError("trace does not end with a state")


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


# the successors of a configuration that has none
_NO_SUCCESSORS = {}.keys()


def _pending(cell: Cell, marker: Marker) -> State:
    """The final state of a configuration whose marker is pending."""
    if not isinstance(marker, Pending):
        raise UndefinedTraceOpError("no successors for a finished configuration")
    return _final_state(None if cell is None else cell.atom)


def _expand_all(items, expand) -> list:
    """``(item, expand(item))`` for every item, a graph node or a marker, in order.

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


def _walk(config: WlConfig, steps: int):
    """The configuration a wl run from ``config`` reaches in at most ``steps`` steps.

    The run stops once its marker is ``Done``, and reaches nothing,
    ``None``, once it gets stuck: a step without a successor, because
    every local trace is inconsistent.  A step has no second successor
    (see the module docstring); unpacking fails loudly if one ever does.
    """
    if steps < 0:
        raise PolicyError("bound must be at least 0")
    for _ in range(steps):
        if isinstance(config[1], Done):
            break
        succ = successors_wl(config)
        if not succ:
            return None
        (config,) = succ
    return config


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
    if end is not None and isinstance(end[1], Pending):
        successors_wl(end)
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

    Each is ``(local, next marker, added, rho)``, in the order ``valuate``
    lists them.  The path condition is judged after simplification under
    the local trace's minimal mapping.  A concrete local trace is kept as
    it is: ``added`` is ``local[1:]`` and ``rho`` is ``None``.  Any other
    is concretized under that mapping, ``rho``, and ``added`` is the whole
    concretized local trace, which replaces the last state it ran in.  So
    whether a step concretizes is decided here, once per key, for every
    configuration whose prefix is concrete; see ``_glue``.  The result is
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
            if not is_consistent(eval_bexp_set(cont.cond.pc, local_map)):
                continue
            if is_concrete_trace(local):
                steps.append((local, cont.marker, local[1:], None))
            else:
                steps.append((local, cont.marker, _concretize(local_map, local), local_map))
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
    of the glued trace without its last state, rho)``; the glued trace is
    ``_extend(rope, rho, added)``.

    A concrete prefix maps no name to ``*``, so the glued trace's minimal
    mapping is the local trace's, and ``_local_steps`` has already decided
    whether to concretize.  Concretizing a concrete prefix only adds
    ρ's names to its states and changes no event argument, so the summary
    is ``prefix`` extended by ``added`` before its last state.  Only a
    configuration built by hand from a trace can have a symbolic prefix;
    then ρ is computed from the whole glued trace, which may concretize
    earlier event arguments, so the summary is folded afresh.
    """
    steps = _local_steps(marker, sigma, fresh_bound, conc_numeral)
    if prefix.concrete:
        return [(added, after, prefix.extend(added[:-1]), rho) for _, after, added, rho in steps]
    cell, loose = rope
    before = trace_of(cell) + loose[:-1]
    out = []
    for local, after, _, _ in steps:
        rho = min_conc_map_trace(before + local, conc_numeral)
        added = _concretize(rho, local)
        out.append((added, after, summarize(_concretize(rho, before) + added[:-1]), rho))
    return out


def basic_successors(
    config: WlConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """One step of a single process, with composition-time concretization.

    That is ``successors1`` of the configuration with ``config``'s marker
    as its only one; see ``_glue``.
    """
    _pending(*config)
    succs = successors1(ExtConfig(config.trace, (config.marker,)), fresh_bound, conc_numeral)
    return frozenset(WlConfig(succ.trace, succ.markers[0]) for succ in succs)


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
    """The first configuration that reached a node, its edges once expanded, and its last walk.

    An edge is ``(target, rho, added)``: the step takes a trace of this
    node, as a rope, to ``_extend(rope, rho, added)``.  ``edges`` stays
    ``None`` for a node that was not expanded.  ``walk`` is the token of
    the last ``_graph`` call that reached the node.
    """

    __slots__ = ("rep", "edges", "walk")

    def __init__(self, rep: ExtConfig, walk):
        self.rep, self.edges, self.walk = rep, None, walk


def _graph(
    start: ExtConfig, table, fresh_bound: int, conc_numeral: int, depth: int, nodes=None
) -> tuple:
    """Expand, layer by layer, every node first reached within fewer than ``depth`` steps.

    Returns the nodes reached, in order of minimum depth with the root
    first, and the nodes first reached after exactly ``depth`` steps,
    which are left unexpanded.  A layer is expanded in the order its nodes
    were first reached, and a node's successors in the order
    ``successors_ext`` lists them, so which configuration represents a
    node does not depend on identity hashes.  The least error of the
    shallowest failing layer is raised.

    ``nodes`` is a node table, by future key, that an earlier call with
    the same methods and settings filled.  A node's successors depend only
    on its key, so a node that call expanded is walked, not expanded
    again; the minimum depths are this call's own, so its layers, result
    and errors are those of a call on an empty table.
    """
    if depth < 0:
        raise PolicyError("bound must be at least 0")

    def expand(node: _Node):
        if node.edges is not None:
            return None
        return successors_ext(table, node.rep, fresh_bound, conc_numeral)

    walk = object()
    nodes = {} if nodes is None else nodes
    root = nodes.setdefault(_future_key(start), _Node(start, walk))
    root.walk = walk
    reached, layer = [root], [root]
    for _ in range(depth):
        if not layer:
            break
        step = []
        for node, succs in _expand_all(layer, expand):
            if succs is None:
                for target, _, _ in node.edges:
                    if target.walk is not walk:
                        target.walk = walk
                        step.append(target)
                continue
            node.edges = edges = []
            for succ in succs:
                key = _future_key(succ)
                target = nodes.get(key)
                if target is None:
                    target = nodes[key] = _Node(succ, walk)
                    step.append(target)
                elif target.walk is not walk:
                    target.walk = walk
                    step.append(target)
                edges.append((target, succ.rho, succ.added))
        reached += step
        layer = step
    return reached, layer


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


def _paths(root: _Node, rope: tuple, steps: int) -> list:
    """The ends of the paths from ``root`` of at most ``steps`` steps, as ``(node, trace)``.

    The paths start with the trace ``rope`` of the start configuration.
    A path ends at a terminal or unexpanded node, or after ``steps``
    steps.  A layer maps each node to the distinct ropes of the traces
    that reach it, and an edge extends each of them with ``_extend``, as
    the step it replays did, so an edge costs what it appends, whatever
    the length of the trace.
    """
    layer = {root: {rope}}
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
        return _paths(reached[0], config.rope, bound)


def compose_bounded_ext(
    bound: int,
    table,
    config: ExtConfig,
    fresh_bound: int = DEFAULT_FRESH_BOUND,
    conc_numeral: int = 0,
) -> frozenset:
    """The configurations at the ends of the paths of at most ``bound`` steps.

    Unlike a stuck wl run, which reaches nothing, a configuration without
    successors here (a deadlock) is kept as an end.
    """
    ends = _ends(table, config, fresh_bound, conc_numeral, bound)
    return frozenset(ExtConfig(trace, node.rep.markers) for node, trace in ends)


def compose_ext(policy: ComposePolicy, table, config: ExtConfig) -> frozenset:
    """Every configuration reached, provided no path is longer than the policy's budget."""
    ends = _ends(table, config, policy.fresh_bound, policy.conc_numeral, None, policy)
    return frozenset(ExtConfig(trace, node.rep.markers) for node, trace in ends)


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
        sides.append((reached, start.rope, longest))
    edges = [edge for reached, _, _ in sides for node in reached for edge in node.edges]
    if any(rho is not None for _, rho, _ in edges):
        left_traces, right_traces = (
            frozenset(trace for _, trace in _paths(reached[0], rope, longest))
            for reached, rope, longest in sides
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
