"""The per-command tables of the ext engine: each local step, state fact and
concretized atom is computed once per command, and nothing outlives it.

Counts, not wall-clock times: a wrapped local ``step`` or ``apply_conc_state``
records the pair it is called on.  The cached results are checked against
copies of the definitions they replace, kept here.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from lagc import cli, compose, concretize, localeval
from lagc.compose import (
    ComposePolicy,
    WlConfig,
    initial_state_for,
    memoizing,
    trace_equivalent,
    traces_ext,
)
from lagc.errors import LagcError
from lagc.evaluate import eval_bexp_set, eval_exp_list
from lagc.localeval import Pending, step
from lagc.parser import parse_program
from lagc.state import State, is_concrete_state, star_names
from lagc.syntax import Num, Program, Star, holding_nodes
from lagc.trace import (
    EventAtom,
    is_concrete_trace,
    is_consistent,
    last_state,
)

from gens import rand_concrete_state, rand_ext_stmt, rand_state, rand_trace
from spec import concretize_trace, semantic_chop, symbolic_vars
from steps import process_step

CALLS = """program {
  method m(v) { y := y + v ;; input z }
  main { call m(1) ;; co call m(2) || x := 1 oc ;; call m(3) }
}
"""

# triple 64 of seed 90 in tests/test_laws.py: three branches, two inputs,
# 2240 traces, so most steps replay a mapping over many traces
TRIPLE = (
    "co if 5 * w >= z then call m0(-1 + y) fi || y := -3 oc",
    "scope(y){ co input x ;; input y || skip oc }",
    "co call m1(x) ;; w := 0 * x * (-1 * 1) || w := z * (w - w) oc ;; skip",
)


LAW_POLICY = ComposePolicy(max_rounds=3, increment=20)


def _count(monkeypatch, module, name, key):
    """Wrap ``module.name`` so that every call counts ``key(*args)``."""
    counts = Counter()
    original = getattr(module, name)

    def counting(*args):
        counts[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return counts


def _count_steps(monkeypatch):
    return _count(monkeypatch, compose, "step", lambda marker, sigma, *rest: (marker, sigma))


def test_traces_ext_valuates_each_marker_and_state_once(monkeypatch):
    counts = _count_steps(monkeypatch)
    program = parse_program(CALLS)
    traces = traces_ext(program, initial_state_for(program))
    assert traces and counts
    assert max(counts.values()) == 1


def test_equiv_shares_the_local_steps_of_both_sides(monkeypatch, tmp_path, capsys):
    left, right = tmp_path / "a.prog", tmp_path / "b.prog"
    left.write_text(CALLS, encoding="utf-8")
    right.write_text(CALLS.replace("main { ", "main { skip ;; "), encoding="utf-8")
    counts = _count_steps(monkeypatch)
    assert cli.main(["equiv", str(left), str(right)]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert max(counts.values()) == 1
    # the right side adds one step, the skip; every other step is the left side's
    both = len(counts)
    program = parse_program(CALLS)
    alone = _count_steps(monkeypatch)
    traces_ext(program, initial_state_for(program))
    assert both == len(alone) + 1


def test_a_reaction_renames_each_method_body_once(monkeypatch, tmp_path, capsys):
    # many configurations react with the same method under the same fresh
    # name; the renamed body is built once per command and shared
    counts = _count(monkeypatch, compose, "substitute", lambda item, old, new: (item, old, new))
    program = parse_program(CALLS)
    assert traces_ext(program, initial_state_for(program))
    assert counts and max(counts.values()) == 1
    counts.clear()
    # every reaction that survives draws a fresh name for its parameter
    reactions = _count(monkeypatch, localeval, "vargen", lambda sigma, n, bound, name: name)
    left, right = tmp_path / "a.prog", tmp_path / "b.prog"
    left.write_text(CALLS, encoding="utf-8")
    right.write_text(CALLS.replace("main { ", "main { skip ;; "), encoding="utf-8")
    assert cli.main(["equiv", str(left), str(right)]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert counts and max(counts.values()) == 1
    assert sum(reactions.values()) > len(counts)


def test_the_co_associativity_case_concretizes_each_state_once(monkeypatch):
    a, b, c = TRIPLE
    left = parse_program(f"co co {a} || {b} oc || {c} oc").main
    right = parse_program(f"co {a} || co {b} || {c} oc oc").main
    sigma = initial_state_for(left)
    assert len(traces_ext(Program((), left), sigma, LAW_POLICY)) == 2240
    counts = _count(monkeypatch, concretize, "apply_conc_state", lambda rho, state: (rho, state))
    assert trace_equivalent(left, right, sigma, LAW_POLICY, mode="ext")
    assert counts
    assert max(counts.values()) == 1


def test_no_table_outlives_a_command(monkeypatch, tmp_path, capsys):
    path = tmp_path / "p.prog"
    path.write_text("co input x ;; y := 4242 || x := 4243 oc", encoding="utf-8")
    seen = {}
    render = cli.render_traces

    def spying(traces, fmt):
        seen["steps"] = len(compose._memo.steps)
        seen["atoms"] = len(compose._memo.atoms)
        seen["state"] = weakref.ref(last_state(next(iter(traces))))
        return render(traces, fmt)

    monkeypatch.setattr(cli, "render_traces", spying)
    assert cli.main(["traces", str(path)]) == 0
    assert "4242" in capsys.readouterr().out
    assert seen["steps"] and seen["atoms"]
    assert compose._memo is None
    gc.collect()
    assert seen["state"]() is None
    # outside a command an exploration opens its own tables and drops them too
    program = parse_program(path.read_text(encoding="utf-8"))
    traces_ext(program, initial_state_for(program))
    assert compose._memo is None
    # and so does a command that fails
    path.write_text("while true do skip od", encoding="utf-8")
    assert cli.main(["traces", str(path), "--max-rounds", "2"]) == 3
    assert compose._memo is None


# ---------------------------------------------------------------------------
# The definitions the tables replace


def _min_conc_map_state(sigma, numeral):
    return State(
        tuple(
            (name, Num(numeral))
            for name, value in sigma.entries
            if isinstance(value, Star)
        )
    )


def _min_conc_map_trace(trace, numeral):
    merged = {}
    for atom in trace:
        if isinstance(atom, State):
            merged.update(_min_conc_map_state(atom, numeral).as_dict())
    return State(tuple(merged.items()))


def _apply_conc_state(rho, sigma):
    merged = {name: concretize.eval_sexp(value, rho) for name, value in sigma.entries}
    merged.update(rho.as_dict())
    return State(tuple(merged.items()))


def _concretize_trace(rho, trace):
    return tuple(
        _apply_conc_state(rho, atom)
        if isinstance(atom, State)
        else EventAtom(atom.kind, eval_exp_list(atom.args, rho))
        for atom in trace
    )


def _basic_successors(config, fresh_bound, conc_numeral):
    out = set()
    for pc, local, after in step(config.marker, last_state(config.trace), "ext", fresh_bound):
        local_map = _min_conc_map_trace(local, conc_numeral)
        if not is_consistent(eval_bexp_set(pc, local_map)):
            continue
        glued = semantic_chop(config.trace, local)
        if is_concrete_trace(glued):
            out.add(WlConfig(glued, after))
        else:
            rho = _min_conc_map_trace(glued, conc_numeral)
            out.add(WlConfig(_concretize_trace(rho, glued), after))
    return frozenset(out)


def _outcome(step, *args):
    try:
        return step(*args)
    except LagcError as exc:
        return type(exc), str(exc)


def test_state_facts_match_their_definitions():
    rng = random.Random(121)
    for _ in range(300):
        sigma = rand_state(rng)
        stars = tuple(name for name, value in sigma.entries if isinstance(value, Star))
        concrete = all(isinstance(value, Num) for _, value in sigma.entries)
        for _ in range(2):
            assert star_names(sigma) == stars
            assert symbolic_vars(sigma) == frozenset(stars)
            assert is_concrete_state(sigma) is concrete


def test_minimal_mapping_and_memoized_concretization_match_their_definitions():
    rng = random.Random(122)
    with holding_nodes(), memoizing():
        for _ in range(300):
            trace = rand_trace(rng, max_len=6)
            numeral = rng.randint(-2, 2)
            rho = concretize.min_conc_map_trace(trace, numeral)
            assert rho is _min_conc_map_trace(trace, numeral)
            other = rand_concrete_state(rng)
            for mapping in (rho, other):
                expected = _concretize_trace(mapping, trace)
                assert concretize_trace(mapping, trace) == expected
                assert compose._concretize(mapping, trace) == expected
                assert compose._concretize(mapping, trace) == expected


@pytest.mark.parametrize("numeral", [0, 3])
def test_memoized_local_steps_match_the_step_definition(numeral):
    rng = random.Random(123 + numeral)
    cases = []
    for _ in range(150):
        trace = rand_trace(rng, max_len=3)
        stmt = rand_ext_stmt(rng, rng.randint(1, 4))
        cases.append((WlConfig(trace, Pending(stmt)), rng.choice([0, 1, 100])))
    expected = [_outcome(_basic_successors, c, fresh, numeral) for c, fresh in cases]
    with holding_nodes(), memoizing():
        for _ in range(2):
            for (config, fresh), want in zip(cases, expected):
                got = _outcome(process_step, config, fresh, numeral)
                assert got == want, config
    # outside any block the step still agrees and keeps no table
    for (config, fresh), want in zip(cases, expected):
        assert _outcome(process_step, config, fresh, numeral) == want
    assert compose._memo is None
