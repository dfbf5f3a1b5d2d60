"""The per-step shortcuts of ext composition against what they replace.

A scheduled step (``compose._scheduled``) keeps an already concrete glued
trace as it is instead of concretizing it again; the frozen
``reference_engine`` always concretizes, so both must agree from
concrete, half-symbolic and symbolic starts.  A reaction
(``compose._reactions``) reads the unanswered invocations off the prefix
summary; here it is held against the quadratic definition of invocation
wellformedness, spelled out over every candidate reaction.
"""

import random
from functools import reduce

import reference_engine as ref
from lagc import compose
from lagc.errors import LagcError
from lagc.localeval import DONE, Pending
from lagc.state import make_state, update
from lagc.syntax import (
    ArithExp,
    Guard,
    Input,
    LocMem,
    LocPar,
    Method,
    MethodRef,
    Num,
    Seq,
    Skip,
    Var,
    seq_spine,
    substitute,
)
from lagc.trace import EventAtom, EventKind

from gens import (
    NAMES,
    rand_concrete_state,
    rand_concrete_trace,
    rand_ext_stmt,
    rand_state,
    rand_trace,
    rand_wl_stmt,
)
from spec import domain, marker_stmt
from steps import bounded, process_step, reactions

PREFIX_NAMES = NAMES + ("u", "v")


STMT_FIELDS = ("first", "second", "left", "right", "body")


def _kinds(stmt) -> set:
    """The statement classes occurring in ``stmt``."""
    out, todo = set(), [stmt]
    while todo:
        item = todo.pop()
        out.add(type(item))
        todo.extend(getattr(item, name) for name in STMT_FIELDS if hasattr(item, name))
    return out


def _flat(stmt):
    """``stmt`` with every sequence in it, at any depth, nested to the left."""
    if isinstance(stmt, Seq):
        return reduce(Seq, map(_flat, seq_spine(stmt)))
    parts = [_flat(getattr(stmt, n)) if n in STMT_FIELDS else getattr(stmt, n) for n in stmt._fields]
    return type(stmt)(*parts)


def _programs(rng, count: int) -> list:
    stmts = [rand_ext_stmt(rng, rng.randint(1, 6)) for _ in range(count)]
    kinds = set().union(*map(_kinds, stmts))
    assert {Input, LocMem, Guard, LocPar, Seq} <= kinds
    return stmts


def _prefix(rng, symbolic: bool) -> tuple:
    """A trace over states whose domains are random subsets of ``PREFIX_NAMES``."""
    names = tuple(rng.sample(PREFIX_NAMES, rng.randint(0, len(PREFIX_NAMES))))
    if symbolic:
        return rand_trace(rng, names, max_len=4)
    return rand_concrete_trace(rng, names, max_len=4)


def _outcome(run):
    """The value of ``run()``, or the type of the engine error it raised.

    The text is left out: which of several failing continuations raises
    first depends on set iteration order.
    """
    try:
        return run()
    except LagcError as exc:
        return type(exc).__name__


def _left(marker):
    """What ``marker`` of either engine leaves to run, in one nesting; None when done."""
    if isinstance(marker, Pending):
        return _flat(marker_stmt(marker))
    return _flat(marker.stmt) if isinstance(marker, ref.Pending) else None


def _normalized(configs) -> frozenset:
    """Traces paired with what is left to run (None when done), in one nesting."""
    return frozenset((c.trace, _left(c.marker)) for c in configs)


def _compare(trace, stmt):
    """Both engines' successors of one process; returns the current engine's result."""
    current = _outcome(lambda: process_step(compose.WlConfig(trace, Pending(stmt))))
    expected = _outcome(
        lambda: _normalized(ref.basic_successors(ref.WlConfig(trace, ref.Pending(stmt))))
    )
    if isinstance(current, frozenset):
        assert _normalized(current) == expected
    else:
        assert current == expected
    return current


def test_concrete_prefixes_share_their_states():
    rng = random.Random(501)
    shared = rebuilt = 0
    for stmt in _programs(rng, 300):
        trace = _prefix(rng, symbolic=False) + (rand_concrete_state(rng),)
        result = _compare(trace, stmt)
        if not isinstance(result, frozenset):
            continue
        for succ in result:
            head = succ.trace[: len(trace) - 1]
            if head == trace[:-1]:
                assert all(a is b for a, b in zip(head, trace))
                shared += 1
            else:
                rebuilt += 1
    # steps without an input keep the prefix; an input adds its variable to every state
    assert shared > 100 and rebuilt > 10


def _unwellformed_state(rng):
    """Images that name other variables, none of them symbolic."""
    images = {}
    for name in NAMES:
        images[name] = Var(rng.choice(NAMES)) if rng.random() < 0.3 else Num(1)
    return make_state(images)


def test_symbolic_last_state_matches_reference():
    rng = random.Random(502)
    for i, stmt in enumerate(_programs(rng, 300)):
        # a last state that is not concrete but has no symbolic variable
        # makes concretization raise, so it must not be skipped either
        last = _unwellformed_state(rng) if i % 3 == 0 else rand_state(rng)
        trace = _prefix(rng, symbolic=False) + (last,)
        _compare(trace, stmt)


def test_symbolic_prefix_is_still_concretized():
    rng = random.Random(503)
    concretized = 0
    for stmt in _programs(rng, 300):
        trace = _prefix(rng, symbolic=True) + (rand_concrete_state(rng),)
        result = _compare(trace, stmt)
        if isinstance(result, frozenset):
            concretized += sum(succ.trace[: len(trace) - 1] != trace[:-1] for succ in result)
    assert concretized > 100


# ---------------------------------------------------------------------------
# Reactions


TABLE = (
    Method("m0", "v", Skip()),
    Method("m1", "v", rand_wl_stmt(random.Random(504), 2)),
)
ARGS = tuple(
    (MethodRef(name), ArithExp(Num(value))) for name in ("m0", "m1", "zz") for value in (0, 1)
)


def _balanced(trace) -> bool:
    """Each reaction has more equal invocations than equal reactions before it."""
    for i, atom in enumerate(trace):
        if isinstance(atom, EventAtom) and atom.kind is EventKind.REACT:
            before = trace[:i]
            invokes = sum(a == EventAtom(EventKind.INVOKE, atom.args) for a in before)
            reacts = sum(a == EventAtom(EventKind.REACT, atom.args) for a in before)
            if invokes <= reacts:
                return False
    return True


def _expected_reactions(table, config) -> frozenset:
    trace, sigma = config.trace, config.trace[-1]
    params = {
        atom.args[1]
        for atom in trace
        if isinstance(atom, EventAtom) and atom.kind is EventKind.INVOKE
    }
    out = set()
    for method in table:
        for value in params:
            event = EventAtom(EventKind.REACT, (MethodRef(method.name), value))
            candidate = trace[:-1] + (sigma, event, sigma)
            if not _balanced(candidate):
                continue
            fresh = "$" + method.name + "::Param"
            while fresh in domain(sigma):
                fresh = "c" + fresh
            bound = update(sigma, fresh, value.arith)
            body = Pending(substitute(method.body, method.formal, fresh))
            out.add(compose.ExtConfig(candidate + (bound,), config.markers + (body,)))
    return frozenset(out)


def _events_trace(rng, events) -> tuple:
    """Concrete states with one event between each pair of equal neighbours."""
    atoms = [rand_concrete_state(rng)]
    for event in events:
        atoms += [event, atoms[-1]]
    return tuple(atoms)


def _invoke(args):
    return EventAtom(EventKind.INVOKE, args)


def _react(args):
    return EventAtom(EventKind.REACT, args)


def test_unanswered_invocations_decide_reactions():
    rng = random.Random(505)
    a, b = ARGS[0], ARGS[3]
    hand_built = [
        [_react(a), _invoke(a)],  # an earlier reaction with no invocation: no reaction
        [_invoke(a), _react(a), _react(a), _invoke(a), _invoke(b)],
        [_invoke(a), _invoke(a), _react(a)],  # repeated invocations: one more reaction
        [_invoke(a), _invoke(a), _react(a), _react(a)],
        [_invoke(a), _invoke(b), _invoke(ARGS[4]), _react(b)],
    ]
    random_events = [
        [
            (_invoke if rng.random() < 0.7 else _react)(rng.choice(ARGS))
            for _ in range(rng.randint(0, 7))
        ]
        for _ in range(300)
    ]
    spawned = 0
    for events in hand_built + random_events:
        config = compose.ExtConfig(_events_trace(rng, events), (DONE,))
        expected = _expected_reactions(TABLE, config)
        assert reactions(TABLE, config) == expected
        assert reactions((), config) == frozenset()
        spawned += len(expected)
    assert spawned > 100
    config = compose.ExtConfig(_events_trace(rng, hand_built[0]), (DONE,))
    assert reactions(TABLE, config) == frozenset()
    config = compose.ExtConfig(_events_trace(rng, hand_built[2]), (DONE,))
    assert len(reactions(TABLE, config)) == 1


def test_reactions_from_a_symbolic_start_match_reference():
    # a reaction concretizes nothing, so from a start with a symbolic prefix
    # it keeps that prefix; the exploration must keep such a node's whole
    # trace, since its scheduled steps concretize all of it
    rng = random.Random(506)
    table = compose.method_table(TABLE)
    symbolic = 0
    for _ in range(150):
        events = [_invoke(rng.choice(ARGS[:4])) for _ in range(rng.randint(1, 3))]
        atoms = [rand_state(rng)]
        for event in events:
            atoms += [event, atoms[-1]]
        trace = (*atoms, rand_state(rng))
        stmt = rand_ext_stmt(rng, rng.randint(1, 3))
        start = compose.ExtConfig(trace, (Pending(stmt),))
        ref_start = ref.ExtConfig(trace, (ref.Pending(stmt),))
        symbolic += not start.prefix.concrete
        for bound in range(4):
            reached = _outcome(
                lambda: frozenset(c.trace for c in bounded(bound, table, start))
            )
            expected = _outcome(
                lambda: frozenset(c.trace for c in ref.compose_bounded_ext(bound, table, ref_start))
            )
            assert reached == expected
    assert symbolic > 50
