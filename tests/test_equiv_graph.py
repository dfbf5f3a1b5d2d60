"""Trace equivalence decided on one shared graph.

``trace_equivalent`` builds both sides of an ext comparison into one node
table and, when no edge carries a mapping, compares the words the two
roots append instead of spelling out the traces.  The verdict is checked
against frozenset equality of the two ``traces_ext`` sets and, on small
cases, against the frozen oracle ``tests/reference_engine.py``; the
sharing is checked by counting node expansions (``compose._records``
calls), and the budget
and errors of each side against ``lagc traces`` of that side alone.
"""

import random
from collections import Counter

import pytest

import reference_engine
from lagc import compose
from lagc.cli import main
from lagc.compose import ComposePolicy, initial_state_for, trace_equivalent, traces_ext
from lagc.parser import parse_program
from lagc.syntax import Input, LocPar, Method, Program, Seq, Skip

from gens import rand_ext_stmt, rand_wl_stmt

POLICY = ComposePolicy(max_rounds=3, increment=20)
REF_POLICY = reference_engine.ComposePolicy(max_rounds=3, increment=20)

CALLS = """program {
  method m(v) { y := y + v }
  method n(v) { x := v }
  main { call m(1) ;; co call n(2) || x := 1 oc ;; call m(3) }
}
"""


def _pair(rng: random.Random) -> tuple:
    """Two programs over the same methods: ``A;;B`` and ``B;;A``, a ``co`` swap or a skip prefix."""
    a, b = (rand_ext_stmt(rng, rng.randint(1, 4)) for _ in range(2))
    methods = tuple(
        Method(f"m{i}", "v", rand_wl_stmt(rng, rng.randint(1, 2))) for i in range(rng.randint(0, 2))
    )
    kind = rng.randrange(3)
    if kind == 0:
        left, right = Seq(a, b), Seq(b, a)
    elif kind == 1:
        left, right = LocPar(a, b), LocPar(b, a)
    else:
        left, right = Seq(Skip(), a), rng.choice((a, b))
    return Program(methods, left), Program(methods, right)


def _count_replays(monkeypatch) -> list:
    """Record each ``_paths`` call, that is each trace set spelled out."""
    replays = []
    original = compose._paths

    def counting(*args):
        replays.append(args)
        return original(*args)

    monkeypatch.setattr(compose, "_paths", counting)
    return replays


def test_graph_verdict_agrees_with_the_trace_sets(monkeypatch):
    rng = random.Random(21)
    replays = _count_replays(monkeypatch)
    verdicts = Counter()
    oracle = 0
    for _ in range(300):
        left, right = _pair(rng)
        sigma = initial_state_for(left, right)
        sets = traces_ext(left, sigma, POLICY), traces_ext(right, sigma, POLICY)
        expected = sets[0] == sets[1]
        replays.clear()
        assert trace_equivalent(left, right, sigma, POLICY) == expected, (left, right)
        verdicts["trace sets" if replays else "graph", expected] += 1
        # the oracle walks the trace tree, so it gets the pairs with few traces
        if len(sets[0]) + len(sets[1]) <= 12:
            assert reference_engine.trace_equivalent(left, right, sigma, REF_POLICY) == expected
            oracle += 1
    # each way of deciding meets both verdicts
    assert min(verdicts.values()) >= 40 and len(verdicts) == 4 and oracle >= 200


def test_input_on_either_side_falls_back_to_the_trace_sets(monkeypatch):
    rng = random.Random(22)
    replays = _count_replays(monkeypatch)
    unequal = 0
    for _ in range(30):
        left, right = _pair(rng)
        left = Program(left.methods, Seq(Input("x"), left.main))
        right = Program(right.methods, Seq(right.main, Input("x")))
        sigma = initial_state_for(left, right)
        expected = traces_ext(left, sigma, POLICY) == traces_ext(right, sigma, POLICY)
        replays.clear()
        assert trace_equivalent(left, right, sigma, POLICY) == expected, (left, right)
        # one trace set per side, spelled out only for the verdict
        assert len(replays) == 2
        unequal += not expected
    assert unequal >= 10


def _fan(words_by_edge: list) -> compose._Node:
    """A root with one edge per word, each to a terminal node; ``""`` is an edge adding nothing."""
    end = compose._Node(None, None)
    end.edges = []
    root = compose._Node(None, None)
    root.edges = [(end, None, tuple(word)) for word in words_by_edge]
    return root


def _then(node: compose._Node, added: str) -> compose._Node:
    """A node whose one edge adds ``added`` and leads to ``node``."""
    before = compose._Node(None, None)
    before.edges = [(node, None, tuple(added))]
    return before


@pytest.mark.parametrize(
    "left, right, same",
    [
        (_fan(["ab", "ac"]), _fan(["ab", "ab"]), False),
        (_fan(["ab", "ac"]), _then(_fan(["ab", "ac"]), ""), True),
        (_fan(["ab", "ac"]), _then(_fan(["b", "c"]), "a"), True),
        (_fan(["a", "ab"]), _fan(["ab"]), False),
        (_fan(["a", "ab"]), _then(_fan(["", "b"]), "a"), True),
        (_fan(["abc"]), _then(_then(_fan(["c"]), "b"), "a"), True),
        (_fan(["abc"]), _then(_then(_fan(["c", "d"]), "b"), "a"), False),
    ],
)
def test_same_words_compares_the_words_along_maximal_paths(left, right, same):
    assert compose._same_words(left, right) is same
    assert compose._same_words(right, left) is same


def _count_expansions(monkeypatch) -> list:
    """Record the node each graph expansion is handed."""
    expanded = []
    original = compose._records

    def counting(table, rep, *rest):
        expanded.append(rep)
        return original(table, rep, *rest)

    monkeypatch.setattr(compose, "_records", counting)
    return expanded


def test_a_skip_prefix_expands_one_node_more_than_the_program(monkeypatch):
    program = parse_program(CALLS)
    prefixed = Program(program.methods, Seq(Skip(), program.main))
    sigma = initial_state_for(program)
    expanded = _count_expansions(monkeypatch)
    traces_ext(program, sigma)
    alone = len(expanded)
    assert alone > 20
    for left, right in ((program, prefixed), (prefixed, program)):
        expanded.clear()
        assert trace_equivalent(left, right, sigma)
        assert len(expanded) == alone + 1


def test_methods_in_another_order_share_the_node_table(monkeypatch):
    program = parse_program(CALLS)
    swapped = Program(program.methods[::-1], Seq(Skip(), program.main))
    sigma = initial_state_for(program)
    expanded = _count_expansions(monkeypatch)
    traces_ext(program, sigma)
    alone = len(expanded)
    assert alone
    expanded.clear()
    assert trace_equivalent(program, swapped, sigma)
    assert len(expanded) == alone + 1


def test_other_methods_get_a_table_of_their_own(monkeypatch):
    program = parse_program(CALLS)
    other = parse_program(CALLS.replace("x := v", "x := v + 1"))
    sigma = initial_state_for(program, other)
    expanded = _count_expansions(monkeypatch)
    alone = []
    for side in (program, other):
        expanded.clear()
        traces_ext(side, sigma)
        alone.append(len(expanded))
    assert all(alone)
    expanded.clear()
    assert not trace_equivalent(program, other, sigma)
    assert len(expanded) == sum(alone)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


BUDGET = ["--max-rounds", "2", "--increment", "2"]


def test_each_side_keeps_its_own_budget(write, capsys):
    short = write("short.ext", "x := 1 ;; x := 2")
    long = write("long.ext", "skip ;; x := 1 ;; x := 2")
    for files in ((short, long), (long, short)):
        assert main(["equiv", *files, *BUDGET]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no fixpoint after 2 rounds (bound 4)\n"
    assert main(["equiv", short, short, *BUDGET]) == 0
    assert capsys.readouterr().out == "equivalent\n"


SIDES = {
    "fine": "co x := 2 || y := 1 oc",
    "loop": "skip ;; while true do x := x + 1 od",
    "unbound": "program { method m(v){ x := a } main { call m(1) } }",
    "fresh": "co scope(y){ skip } || scope(y){ skip } oc",
    "deep": "skip ;; co x := 2 || y := 1 oc",
}


@pytest.mark.parametrize("left", SIDES)
@pytest.mark.parametrize("right", SIDES)
def test_an_error_is_the_first_failing_side(write, capsys, left, right):
    # the verdict needs both sides, so the first side that fails alone decides the error
    flags = [*BUDGET, "--fresh-bound", "1", "--state", "x=0,y=0"]
    files = write("left.ext", SIDES[left]), write("right.ext", SIDES[right])
    alone = []
    for path in files:
        code = main(["traces", path, *flags])
        alone.append((code, capsys.readouterr().err))
    code = main(["equiv", *files, *flags])
    captured = capsys.readouterr()
    failing = [result for result in alone if result[0]]
    if failing:
        assert (code, captured.err) == failing[0]
        assert captured.out == ""
    else:
        assert code == 0 and captured.err == ""

