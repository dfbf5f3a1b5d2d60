"""The fixpoint round schedule, the work it does, and long sequential programs."""

import json
import random

import pytest

import reference_engine as ref
from lagc import compose
from lagc.cli import main
from lagc.compose import ComposePolicy, ExtConfig, WlConfig
from lagc.errors import DivergenceLimitError
from lagc.localeval import Pending
from lagc.parser import parse_program
from lagc.state import EMPTY_STATE
from lagc.syntax import Assign, BoolLit, Num, Program, Seq, Skip, While, canon_key
from lagc.trace import singleton

from bigstep import execute

LOOP = While(BoolLit(True), Skip())
SCHEDULE = "no fixpoint after 3 rounds (bound 21)"


@pytest.mark.parametrize("engine", [compose, ref], ids=["current", "reference"])
@pytest.mark.parametrize("lang", ["wl", "ext"])
def test_divergence_names_rounds_and_final_bound(engine, lang):
    policy = engine.ComposePolicy(increment=7, max_rounds=3)
    with pytest.raises(DivergenceLimitError) as caught:
        if lang == "wl":
            engine.traces_wl(LOOP, EMPTY_STATE, policy)
        else:
            engine.traces_ext(Program((), LOOP), EMPTY_STATE, policy)
    assert str(caught.value) == SCHEDULE


@pytest.mark.parametrize("lang", ["wl", "ext"])
def test_cli_reports_divergence_schedule(tmp_path, capsys, lang):
    path = tmp_path / "loop.prog"
    path.write_text("while true do skip od", encoding="utf-8")
    argv = ["traces", str(path), "--lang", lang, "--increment", "7", "--max-rounds", "3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {SCHEDULE}\n"


def _counting(monkeypatch, name):
    calls = []
    original = getattr(compose, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(compose, name, counted)
    return calls


def test_rounds_continue_the_wl_exploration(monkeypatch):
    # ten rounds reach bound 45; starting every round over would expand 225
    calls = _counting(monkeypatch, "successors_wl")
    start = WlConfig(singleton(EMPTY_STATE), Pending(LOOP))
    with pytest.raises(DivergenceLimitError):
        compose.compose_wl(ComposePolicy(max_rounds=10, increment=5), start)
    assert len(calls) <= 50


def test_rounds_continue_the_ext_exploration(monkeypatch):
    # the fixpoint check's successors serve the next round's first step
    calls = _counting(monkeypatch, "successors_ext")
    start = ExtConfig(singleton(EMPTY_STATE), (Pending(LOOP),))
    with pytest.raises(DivergenceLimitError):
        compose.compose_ext(ComposePolicy(max_rounds=10, increment=5), (), start)
    assert len(calls) <= 50


def test_terminating_run_expands_each_configuration_once(monkeypatch):
    calls = _counting(monkeypatch, "successors_ext")
    program = parse_program("x := 3 ;; while x >= 1 do x := x - 1 od", "ext")
    policy = ComposePolicy(increment=2)
    traces = compose.traces_ext(program, compose.initial_state_for(program), policy)
    assert len(traces) == 1
    expanded = [args[1] for args in calls]
    assert len(expanded) == len(set(expanded))


def test_pending_is_one_stack_for_every_nesting():
    a, b, c = Assign("a", Num(1)), Assign("b", Num(2)), Skip()
    left, right = Pending(Seq(Seq(a, b), c)), Pending(Seq(a, Seq(b, c)))
    assert left == right == Pending(a, (b, c))
    assert hash(left) == hash(right)
    assert (left.head, left.rest) == (a, (b, c))
    assert left.stmt == Seq(Seq(a, b), c)


def test_long_sequence_marker_hashes_and_orders_without_recursion():
    stmt = Skip()
    for i in range(5000):
        stmt = Seq(stmt, Assign("x", Num(i)))
    marker = Pending(stmt)
    assert len(marker.rest) == 5000
    assert hash(marker) == hash(Pending(Skip(), marker.rest))
    assert canon_key(marker) == canon_key(Pending(Skip(), marker.rest))


def test_600_statement_program_runs(tmp_path, capsys):
    rng = random.Random(600)
    names = ("a", "b", "c", "d")
    lines = []
    for i in range(600):
        target = names[i % len(names)]
        if rng.random() < 0.3:
            lines.append(f"{target} := {rng.randint(-20, 99)}")
        else:
            lines.append(f"{target} := {rng.choice(names)} + {rng.randint(1, 9)}")
    text = " ;;\n".join(lines)
    path = tmp_path / "straight.wl"
    path.write_text(text, encoding="utf-8")
    assert main(["traces", str(path), "--lang", "wl", "--format", "json"]) == 0
    (trace,) = json.loads(capsys.readouterr().out)["traces"]
    assert len(trace) == 601
    final = {name: int(value) for name, value in trace[-1]["state"].items()}
    stmt = parse_program(text, "wl").main
    assert final == execute(stmt, {name: 0 for name in names})
