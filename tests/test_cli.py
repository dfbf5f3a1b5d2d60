import json
import os
import subprocess
import sys

import pytest

from lagc import cli
from lagc.cli import main, parse_state_spec
from lagc.compose import ExtConfig, compose_bounded_ext, initial_state_for, method_table
from lagc.errors import (
    DivergenceLimitError,
    FreshBoundExceededError,
    ModeError,
    ParseError,
    PolicyError,
    UnboundVariableError,
    UndefinedTraceOpError,
)
from lagc.localeval import Pending
from lagc.parser import parse_program
from lagc.render import render_traces
from lagc.state import make_state
from lagc.syntax import Num, StoredExp
from lagc.trace import singleton

FACTORIAL = "x := 6 ;; y := 1 ;; while x >= 2 do y := y*x ;; x := x-1 od"
CALL_PROGRAM = "program { method foo(x){ x := 2 } main { (x := 0 ;; call foo(x)) ;; x := 1 } }"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def test_traces_factorial(write, capsys):
    path = write("fact.wl", FACTORIAL)
    assert main(["traces", path, "--lang", "wl"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 trace\n")
    assert out.rstrip().endswith("{x=1, y=720}")


def test_traces_ext_scope(write, capsys):
    path = write("par.ext", "scope(x){ co x := 1 || x := 2 oc }")
    assert main(["traces", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 traces\n")
    assert "$x::Scope=1" in out and "$x::Scope=2" in out


def test_nested_scope_of_the_same_name_gets_a_doubled_fresh_name(write, capsys):
    # the outer scope's renaming reaches the inner binder; see README
    path = write("nested.ext", "scope(x){ x := 1 ;; scope(x){ x := 2 } }")
    assert main(["traces", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 trace\n")
    assert out.rstrip().endswith("{$$x::Scope::Scope=2, $x::Scope=1}")


def test_traces_json(write, capsys):
    path = write("inp.ext", "input x ;; x := x + 1")
    assert main(["traces", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"event": {"kind": "inpEv", "args": ["0"]}} in payload["traces"][0]


def test_traces_deterministic_output(write, capsys):
    path = write("call.ext", "program { method foo(x){ x := 2 } main { (x := 0 ;; call foo(x)) ;; x := 1 } }")
    assert main(["traces", path]) == 0
    first = capsys.readouterr().out
    assert main(["traces", path]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("3 traces\n")


def test_traces_bounded(write, capsys):
    path = write("fact.wl", FACTORIAL)
    assert main(["traces-bounded", path, "--bound", "0", "--lang", "wl"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 trace\n")
    assert main(["traces-bounded", path, "--bound", "3", "--lang", "wl"]) == 0
    out = capsys.readouterr().out
    assert "{x=6, y=1}" in out


@pytest.mark.parametrize("bound", [0, 2, 20])
def test_traces_bounded_ext_matches_compose_bounded(write, capsys, bound):
    path = write("call.ext", CALL_PROGRAM)
    argv = ["traces-bounded", path, "--bound", str(bound), "--lang", "ext", "--fresh-bound", "7"]
    assert main(argv) == 0
    program = parse_program(CALL_PROGRAM, "ext")
    start = ExtConfig(singleton(initial_state_for(program)), (Pending(program.main),))
    reached = compose_bounded_ext(bound, method_table(program.methods), start, 7)
    assert capsys.readouterr().out == render_traces(frozenset(c.trace for c in reached))


def test_equiv(write, capsys):
    one = write("skip.wl", "skip")
    two = write("skipskip.wl", "skip ;; skip")
    assert main(["equiv", one, two, "--lang", "wl"]) == 0
    assert capsys.readouterr().out == "equivalent\n"

    other = write("assign.wl", "x := 1")
    assert main(["equiv", one, other, "--lang", "wl"]) == 0
    assert capsys.readouterr().out == "not equivalent\n"


def test_equiv_commuted_parallel(write, capsys):
    left = write("l.ext", "co x := 1 || x := 2 oc")
    right = write("r.ext", "co x := 2 || x := 1 oc")
    assert main(["equiv", left, right]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_eval(write, capsys):
    path = write("ctx.wl", "x := x ;; y := y")
    assert main(["eval", path, "--expr", "x*y - x", "--state", "x=8,y=2"]) == 0
    assert capsys.readouterr().out == "8\n"
    assert main(["eval", path, "--expr", "x == 0 && true"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_eval_reports_the_arithmetic_parse_error(write, capsys):
    path = write("ctx.wl", "x := x")
    assert main(["eval", path, "--expr", "x + * 2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1:5: expected an arithmetic expression, found '*'\n"


def test_main_builds_the_argument_parser_once(write, capsys, monkeypatch):
    used = []
    parse_args = cli.argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        used.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", recording)
    path = write("one.wl", "x := 1")
    assert main(["traces", path, "--lang", "wl"]) == 0
    with pytest.raises(SystemExit) as caught:
        main(["traces-bounded", path])
    assert caught.value.code == 2
    assert "the following arguments are required: --bound" in capsys.readouterr().err
    assert main(["traces-bounded", path, "--bound", "1", "--lang", "wl"]) == 0
    assert len(used) == 3
    assert all(parser is cli.build_parser() for parser in used)


def test_exit_code_parse_error(write, capsys):
    path = write("bad.wl", "while true do skip")
    assert main(["traces", path, "--lang", "wl"]) == 1
    assert "expected" in capsys.readouterr().err


def test_exit_code_mode_error(write, capsys):
    path = write("ext.wl", "input x")
    assert main(["traces", path, "--lang", "wl"]) == 1
    assert capsys.readouterr().err


def test_exit_code_divergence(write, capsys):
    path = write("loop.wl", "while true do skip od")
    assert main(["traces", path, "--lang", "wl", "--max-rounds", "3"]) == 3
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "text, state, name",
    [
        ("input x", "$x::Input=0", "$x::Input"),
        ("scope(y){ y := 1 }", "$y::Scope=0", "$y::Scope"),
        (
            "program { method m(v) { x := v } main { call m(1) } }",
            "$m::Param=0,x=0",
            "$m::Param",
        ),
    ],
    ids=["input", "scope", "method-parameter"],
)
def test_exit_code_fresh_bound(write, capsys, text, state, name):
    path = write("fresh.ext", text)
    code = main(["traces", path, "--state", state, "--fresh-bound", "1"])
    assert code == 4
    assert capsys.readouterr().err == f"error: $BOUND_EXCEEDED::{name}\n"


def test_exit_code_unbound_variable(write, capsys):
    path = write("open.wl", "x := y + 1")
    assert main(["traces", path, "--lang", "wl", "--state", "x=0"]) == 2
    assert "unbound" in capsys.readouterr().err


def test_deadlocked_guard_exits_normally(write, capsys):
    path = write("dead.ext", "guard false then skip end")
    assert main(["traces", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 trace\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["traces", "{one}", "--increment", "0"], "increment must be at least 1"),
        (["traces-bounded", "{one}", "--bound", "2", "--increment", "0"],
         "increment must be at least 1"),
        (["equiv", "{one}", "{one}", "--max-rounds", "0"], "max_rounds must be at least 1"),
    ],
    ids=["traces", "traces-bounded", "equiv"],
)
def test_invalid_round_flags_are_usage_errors(write, capsys, argv, message):
    one = write("skip.ext", "skip")
    assert main([arg.format(one=one) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


LONG_BODY = " ;; ".join(["x := x + 1"] * 1200)
DEEP_PARENS = "(" * 2000 + "1" + ")" * 2000
LONG_SUM = " + ".join(["1"] * 1200)


@pytest.mark.parametrize(
    "text",
    [
        f"scope(y){{ x := {DEEP_PARENS} }}",
        f"program {{ method foo(p){{ x := {DEEP_PARENS} }} main {{ call foo(1) }} }}",
        f"x := {LONG_SUM}",
    ],
    ids=["scope-body", "method-body", "long-sum"],
)
def test_recursion_limit_is_exit_5(write, capsys, text):
    # the parser descends once per parenthesis; free variables and evaluation
    # descend once per operator of the left-nested chain a long sum parses to
    path = write("deep.ext", text)
    assert main(["traces", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: resources exhausted: recursion limit reached\n"
    assert "Traceback" not in captured.err


def test_a_condition_in_400_parentheses_runs(write, capsys):
    # two frames per parenthesis: the parser reads either sort inside one
    # without a second attempt, so 400 levels stay below the recursion limit
    path = write("deep_cond.wl", "if " + "(" * 400 + "x <= 1" + ")" * 400 + " then x := 1 fi")
    assert main(["traces", path, "--lang", "wl"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "1 trace"
    assert captured.err == ""


@pytest.mark.parametrize(
    "text",
    [
        f"scope(y){{ {LONG_BODY} }}",
        f"program {{ method foo(p){{ {LONG_BODY} }} main {{ call foo(1) }} }}",
    ],
    ids=["scope-body", "method-body"],
)
def test_traces_runs_a_long_body(write, capsys, text):
    path = write("long.ext", text)
    assert main(["traces", path, "--format", "json"]) == 0
    (trace,) = json.loads(capsys.readouterr().out)["traces"]
    assert [atom["state"]["x"] for atom in trace[-1201:]] == [str(i) for i in range(1201)]


def test_traces_runs_a_deep_co_branch(write, capsys):
    branch = " ;; ".join(["x := x + 1"] * 500)
    path = write("deep_co.ext", f"co {branch} || y := 1 oc")
    assert main(["traces", path]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    traces = [line for line in lines if line]
    assert header == "501 traces" and len(traces) == 501
    assert all(trace.endswith(" ~> {x=500, y=1}") for trace in traces)


def test_memory_error_is_exit_5(write, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "traces", exhausted)
    assert main(["traces", write("skip.ext", "skip")]) == 5
    assert capsys.readouterr().err == "error: resources exhausted: out of memory\n"


def test_missing_file(capsys):
    assert main(["traces", "/nonexistent/prog.wl"]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["traces", "{bad}"], ["equiv", "{bad}", "{bad}"], ["eval", "{bad}", "--expr", "1"]],
    ids=["traces", "equiv", "eval"],
)
def test_non_utf8_file_is_a_usage_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.ext"
    bad.write_bytes(b"x := 1 \xff")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["traces", "{one}"],
        ["traces-bounded", "{one}", "--bound", "2"],
        ["equiv", "{one}", "{one}"],
    ],
    ids=["traces", "traces-bounded", "equiv"],
)
def test_negative_fresh_bound_is_a_usage_error(write, capsys, argv):
    one = write("scope.ext", "scope(y){ x := y }")
    assert main([arg.format(one=one) for arg in argv] + ["--fresh-bound", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fresh_bound must be at least 0\n"


def test_zero_fresh_bound_is_valid(write, capsys):
    assert main(["traces", write("skip.ext", "skip"), "--fresh-bound", "0"]) == 0
    assert capsys.readouterr().out.startswith("1 trace\n")


def test_parse_state_spec():
    assert parse_state_spec("x=1, y=-2") == make_state(
        {"x": StoredExp(Num(1)), "y": StoredExp(Num(-2))}
    )
    assert parse_state_spec("$x::Input=0") == make_state(
        {"$x::Input": StoredExp(Num(0))}
    )


def test_console_entry_point(write, tmp_path):
    path = write("fact.wl", FACTORIAL)
    result = subprocess.run(
        [sys.executable, "-m", "lagc.cli", "traces", path, "--lang", "wl"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("1 trace\n")


def test_error_does_not_depend_on_the_hash_seed(write):
    # both methods fail, in configurations of the same step
    path = write(
        "two_errors.lagc",
        "program { method m(v){ x := a } method n(v){ x := b } "
        "main { co call m(1) || call n(1) oc } }",
    )
    outcomes = set()
    for seed in range(8):
        result = subprocess.run(
            [sys.executable, "-m", "lagc.cli", "traces", path, "--state", "x=0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        outcomes.add((result.returncode, result.stdout, result.stderr))
    assert outcomes == {(2, "", "error: unbound variable: 'a'\n")}


@pytest.mark.parametrize("lang", ["wl", "ext"])
def test_negative_bound_is_a_usage_error(write, capsys, lang):
    path = write("fact.prog", FACTORIAL)
    assert main(["traces-bounded", path, "--bound", "-1", "--lang", lang]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound must be at least 0\n"


EXIT_CASES = [
    (ParseError(2, 3, "a token", "?"), 1, "2:3: expected a token, found '?'"),
    (ModeError("mode"), 1, "mode"),
    (PolicyError("policy"), 1, "policy"),
    (OSError("os"), 1, "os"),
    (FileNotFoundError("missing"), 1, "missing"),
    (
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        1,
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    (UnboundVariableError("v"), 2, "unbound variable: 'v'"),
    (UndefinedTraceOpError("undefined"), 2, "undefined"),
    (DivergenceLimitError("diverged"), 3, "diverged"),
    (FreshBoundExceededError("fresh"), 4, "fresh"),
    (RecursionError("deep"), 5, "resources exhausted: recursion limit reached"),
    (MemoryError("big"), 5, "resources exhausted: out of memory"),
]


@pytest.mark.parametrize(
    "error, code, message", EXIT_CASES, ids=[type(case[0]).__name__ for case in EXIT_CASES]
)
def test_exit_code_table(write, capsys, monkeypatch, error, code, message):
    def failing(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "traces", failing)
    assert main(["traces", write("skip.ext", "skip")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unmapped_error_propagates(write, monkeypatch):
    def failing(args):
        raise ValueError("not a lagc error")

    monkeypatch.setitem(cli._COMMANDS, "traces", failing)
    with pytest.raises(ValueError, match="not a lagc error"):
        main(["traces", write("skip.ext", "skip")])
