"""Constant-time step bookkeeping: prefix summaries, marker multisets, scaling.

A configuration carries a summary of ``trace[:-1]`` that every step
extends by the atoms it adds.  Here the carried summaries are held against
a fold from scratch and against the definitions spelled out atom by atom,
markers that share their head and length are checked to stay apart, and
the number of ``StateAtom`` hashes a run makes is checked to
grow about linearly with the length of the program.
"""

import random
from collections import Counter
from functools import reduce

import pytest

from lagc import compose, localeval, syntax
from lagc.errors import LagcError, UnboundVariableError
from lagc.localeval import DONE, Pending
from lagc.parser import parse_program
from lagc.state import initial_state
from lagc.syntax import (
    ArithExp,
    Assign,
    Call,
    Input,
    Method,
    MethodRef,
    Num,
    Program,
    Seq,
    Skip,
    Var,
    free_vars,
    occurrences,
)
from lagc.trace import (
    EMPTY_SUMMARY,
    Cell,
    EventAtom,
    EventKind,
    StateAtom,
    harvest_params,
    is_concrete_trace,
    singleton,
    summarize,
    unanswered_invocations,
)

from gens import rand_concrete_state, rand_ext_stmt, rand_state, rand_trace, rand_wl_stmt

METHODS = (
    Method("m0", "v", Skip()),
    Method("m1", "v", Seq(Input("x"), Assign("y", Var("v")))),
    Method("m2", "v", Call("m0", Var("v"))),
)


def _spelled_out(trace):
    """The summary's three parts, each from its own definition."""
    open_calls, malformed = Counter(), False
    for atom in trace:
        if isinstance(atom, EventAtom) and atom.kind is EventKind.INVOKE:
            open_calls[atom.args] += 1
        elif isinstance(atom, EventAtom) and atom.kind is EventKind.REACT:
            malformed = malformed or open_calls[atom.args] == 0
            open_calls[atom.args] -= 1
    params = {
        atom.args[1]
        for atom in trace
        if isinstance(atom, EventAtom)
        and atom.kind is EventKind.INVOKE
        and len(atom.args) == 2
        and isinstance(atom.args[0], MethodRef)
        and isinstance(atom.args[1], ArithExp)
    }
    counts = None if malformed else {args: n for args, n in open_calls.items() if n}
    return is_concrete_trace(trace), counts, params


def _reached(monkeypatch, name: str, run) -> set:
    """Every configuration the engine builds as a successor while ``run()`` composes."""
    reached = set()
    successors = getattr(compose, name)

    def recording(*args):
        succ = successors(*args)
        reached.update(succ)
        return succ

    monkeypatch.setattr(compose, name, recording)
    try:
        run()
    except LagcError:
        pass
    monkeypatch.setattr(compose, name, successors)
    return reached


def _check_summary(config, fresh) -> None:
    assert config.prefix == summarize(config.trace[:-1]) == fresh.prefix
    assert tuple(config.prefix) == _spelled_out(config.trace[:-1])
    assert config == fresh and hash(config) == hash(fresh)


def test_carried_summaries_equal_a_fold_from_scratch(monkeypatch):
    rng = random.Random(701)
    seen = Counter()
    for i in range(200):
        program = Program(METHODS, rand_ext_stmt(rng, rng.randint(1, 5)))
        names = tuple(sorted(free_vars(program) | {"x", "y"}))
        sigma = rand_concrete_state(rng, names) if i % 3 else rand_state(rng, names)
        table = compose.method_table(program.methods)
        start = compose.ExtConfig(singleton(sigma), (Pending(program.main),))
        run = lambda: compose.compose_bounded_ext(6, table, start)
        for config in _reached(monkeypatch, "successors_ext", run):
            _check_summary(config, compose.ExtConfig(config.trace, config.markers))
            seen["config"] += 1
            seen["open call"] += bool(config.prefix.open_calls)
            seen["argument"] += bool(config.prefix.params)
    # the sample reaches unanswered calls and harvested arguments
    assert min(seen.values()) > 100, seen


def test_carried_wl_summaries_equal_a_fold_from_scratch(monkeypatch):
    rng = random.Random(703)
    seen = Counter()
    for _ in range(200):
        stmt = rand_wl_stmt(rng, rng.randint(1, 8))
        sigma = rand_state(rng, tuple(sorted(free_vars(stmt) | {"x"})))
        start = compose.WlConfig(singleton(sigma), Pending(stmt))
        run = lambda: compose.compose_bounded_wl(8, start)
        for config in _reached(monkeypatch, "successors_wl", run):
            _check_summary(config, compose.WlConfig(config.trace, config.marker))
            seen[config.prefix.concrete] += 1
    # symbolic start states keep some prefixes symbolic
    assert min(seen[True], seen[False]) > 100, seen


def test_fold_matches_the_definitions_on_malformed_traces():
    rng = random.Random(702)
    malformed = 0
    for _ in range(500):
        trace = rand_trace(rng, max_len=8)
        summary = summarize(trace)
        assert tuple(summary) == _spelled_out(trace)
        assert summary == EMPTY_SUMMARY.extend(trace[:3]).extend(trace[3:])
        assert unanswered_invocations(trace) == summary.open_calls
        # arguments harvested after an unmatched reaction are kept
        assert harvest_params(trace) == summary.params
        malformed += summary.open_calls is None
    assert malformed > 20


def test_empty_summary_is_not_changed_by_extending_it():
    invoke = EventAtom(EventKind.INVOKE, (MethodRef("m"), ArithExp(Num(1))))
    sigma = StateAtom(initial_state(["x"]))
    extended = EMPTY_SUMMARY.extend((sigma, invoke, sigma))
    assert extended.open_calls == {invoke.args: 1}
    assert EMPTY_SUMMARY.open_calls == {} and EMPTY_SUMMARY.params == frozenset()
    assert EMPTY_SUMMARY.extend((sigma,)).open_calls is EMPTY_SUMMARY.open_calls


def test_markers_sharing_head_and_length_stay_apart():
    a, b, c = Assign("x", Num(1)), Assign("y", Num(1)), Assign("y", Num(2))
    left, right = Pending(Skip(), Pending(Seq(a, b))), Pending(Skip(), Pending(Seq(a, c)))
    assert left != right
    assert len({left, right}) == 2
    sigma = singleton(initial_state(["x", "y"]))
    config = compose.ExtConfig(sigma, (right, left, DONE, right))
    assert Counter(config.markers) == Counter((left, right, right, DONE))
    assert config != compose.ExtConfig(sigma, (left, left, DONE, right))


def test_marker_hash_and_key_ignore_the_nesting():
    stmts = [Assign("x", Num(i)) for i in range(6)]
    left = Pending(reduce(Seq, stmts))
    right = Pending(reduce(lambda rest, s: Seq(s, rest), reversed(stmts)))
    assert left is right


def test_markers_form_an_order_free_multiset():
    a, b, c = Assign("x", Num(1)), Assign("y", Num(1)), Assign("y", Num(2))
    left, right = Pending(Skip(), Pending(Seq(a, b))), Pending(Skip(), Pending(Seq(a, c)))
    sigma = singleton(initial_state(["x", "y"]))

    def config(*markers):
        return compose.ExtConfig(sigma, markers)

    assert config(left, right) == config(right, left)
    assert hash(config(left, right)) == hash(config(right, left))
    assert len({config(left, right), config(right, left)}) == 1
    # equal sets of distinct markers, different counts
    assert config(left, left, right) != config(left, right, right)
    assert config(left, right) != config(left)


def test_expanded_configurations_hash_apart_when_unequal(monkeypatch):
    # a hash weaker than equality lets unequal configurations collide, and a
    # count of distinct hashes then undercounts the distinct configurations
    methods = "method f(p) { r1 := (p + 4) } method g(q) { r2 := (q * 2) }"
    left = parse_program(f"program {{ {methods} main {{ co call f(9) || call g(36) oc }} }}")
    right = parse_program(f"program {{ {methods} main {{ co call g(36) || call f(9) oc }} }}")
    expanded = []
    original = compose.successors_ext

    def recording(table, config, *rest):
        expanded.append(config)
        return original(table, config, *rest)

    monkeypatch.setattr(compose, "successors_ext", recording)
    assert compose.trace_equivalent(left, right, compose.initial_state_for(left, right))
    assert len(set(expanded)) == len({hash(config) for config in expanded})


def test_a_stepped_configuration_equals_the_one_built_from_its_trace():
    # on both sides of a multiple of 32 atoms, before and after an input
    # concretizes the whole trace
    stmt = reduce(Seq, [Assign("x", Num(i)) for i in range(64)] + [Input("y")])
    config = compose.ExtConfig(singleton(initial_state(["x", "y"])), (Pending(stmt),))
    lengths = []
    while config.markers != (DONE,):
        (config,) = compose.successors_ext((), config)
        lengths.append(len(config.trace))
        built = compose.ExtConfig(config.trace, config.markers)
        assert built == config and hash(built) == hash(config), len(config.trace)
    assert {31, 32, 33, 64, 65} <= set(lengths) and lengths[-1] > 65


def test_error_does_not_depend_on_the_order_of_the_markers():
    first = Pending(Assign("x", Var("a")))
    second = Pending(Assign("x", Var("b")))
    sigma = singleton(initial_state(["x"]))
    for markers in ((first, second), (second, first)):
        with pytest.raises(UnboundVariableError, match="unbound variable: 'a'"):
            compose.successors_ext((), compose.ExtConfig(sigma, markers))


def test_a_step_computes_no_canonical_key(monkeypatch):
    stmts = Pending(reduce(Seq, [Assign("x", Num(i)) for i in range(1000)]))
    loop = parse_program("while x >= 1 do x := x - 1 ;; y := y + 1 od").main
    sigma = singleton(initial_state(["x", "y"]))
    config = compose.ExtConfig(sigma, (Pending(loop, stmts), Pending(Skip(), stmts)))
    keys = [0]
    original = syntax.canon_key

    def counting(value):
        keys[0] += 1
        return original(value)

    for module in (syntax, localeval, compose):
        monkeypatch.setattr(module, "canon_key", counting, raising=False)
    assert len(compose.successors_ext((), config)) == 2
    assert keys[0] == 0


def _state_atom_hashes(monkeypatch, run) -> int:
    calls = [0]
    original = StateAtom.__hash__

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(StateAtom, "__hash__", counting)
    run()
    monkeypatch.setattr(StateAtom, "__hash__", original)
    return calls[0]


def test_wl_state_hashes_grow_linearly(monkeypatch):
    def countdown(n):
        stmt = parse_program(f"x := {n} ;; while x >= 1 do x := x - 1 od").main
        return _state_atom_hashes(
            monkeypatch, lambda: compose.traces_wl(stmt, initial_state(["x"]))
        )

    small, large = countdown(100), countdown(400)
    assert large <= 5 * small, (small, large)


def test_ext_state_hashes_grow_linearly(monkeypatch):
    def straight_line(n):
        body = " ;; ".join(["x := x + 1"] * n)
        program = parse_program(
            f"program {{ method m(v){{ y := v }} main {{ {body} ;; call m(1) }} }}"
        )
        sigma = initial_state(occurrences(program))
        return _state_atom_hashes(monkeypatch, lambda: compose.traces_ext(program, sigma))

    small, large = straight_line(100), straight_line(400)
    assert large <= 5 * small, (small, large)


def _cells_and_steps(monkeypatch, successors: str, run) -> tuple:
    """How many trace cells ``run()`` asks for (found or built), and how many steps it expands."""
    cells, steps = [0], [0]
    expand = getattr(compose, successors)

    def counting_cell(cls, *fields):
        cells[0] += 1
        return syntax.Node.__new__(cls, *fields)

    def counting_step(*args):
        steps[0] += 1
        return expand(*args)

    monkeypatch.setattr(Cell, "__new__", counting_cell)
    monkeypatch.setattr(compose, successors, counting_step)
    run()
    monkeypatch.undo()
    return cells[0], steps[0]


def test_cells_per_step_do_not_grow_with_the_trace(monkeypatch):
    # a step appends its atoms to the cell of the trace it extends; copying
    # the trace instead would make the cells per step grow with its length
    def countdown(n):
        stmt = parse_program(f"x := {n} ;; while x >= 1 do x := x - 1 od").main
        run = lambda: compose.traces_wl(stmt, initial_state(["x"]))
        return _cells_and_steps(monkeypatch, "successors_wl", run)

    def straight_line(n):
        body = " ;; ".join(["x := x + 1"] * n)
        program = parse_program(f"program {{ main {{ {body} ;; y := 1 }} }}")
        run = lambda: compose.traces_ext(program, initial_state(["x", "y"]))
        return _cells_and_steps(monkeypatch, "successors_ext", run)

    for family in (countdown, straight_line):
        (small, small_steps), (large, large_steps) = family(100), family(400)
        assert large_steps >= 4 * small_steps - 10
        assert large / large_steps <= 1.05 * small / small_steps, (small, large)
