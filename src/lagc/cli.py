"""Command line driver.

Subcommands: ``traces`` (fixpoint composition), ``traces-bounded`` (bounded
composition), ``equiv`` (trace equivalence of two files) and ``eval``
(expression evaluation under an explicit state).  Results go to stdout,
diagnostics to stderr as one ``error: ...`` line.  Exit codes, as listed in
``_EXIT_CODES``: 0 success, 1 parse, mode or policy error (a round flag or a
negative ``--bound`` or ``--fresh-bound``) or a file that cannot be read or
is not UTF-8, 2 semantic error, 3 divergence limit, 4 fresh-variable bound
exceeded, 5 resources exhausted (Python's recursion limit or memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .compose import (
    DEFAULT_POLICY,
    ComposePolicy,
    initial_state_for,
    memoizing,
    trace_equivalent,
    traces_ext,
    traces_wl,
)
from .errors import (
    DivergenceLimitError,
    FreshBoundExceededError,
    ModeError,
    ParseError,
    PolicyError,
    UnboundVariableError,
    UndefinedTraceOpError,
)
from .evaluate import eval_arith, eval_bool
from .parser import IDENT_RE, numeral_value, parse_expression, parse_program
from .render import pretty_aexp, pretty_bexp, render_traces
from .state import State, make_state
from .syntax import ABin, Num, Program, Var, holding_nodes


def _add_common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--lang", choices=("wl", "ext"), default="ext")
    sub.add_argument("--increment", type=int, default=DEFAULT_POLICY.increment)
    sub.add_argument("--max-rounds", type=int, default=DEFAULT_POLICY.max_rounds)
    sub.add_argument("--fresh-bound", type=int, default=DEFAULT_POLICY.fresh_bound)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--state", default=None, help="initial state override, k=v,...")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="lagc", description="Trace semantics for a While language"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    traces = sub.add_parser("traces", help="fixpoint trace composition")
    traces.add_argument("file")
    traces.set_defaults(bound=None)
    _add_common_flags(traces)

    bounded = sub.add_parser("traces-bounded", help="bounded trace composition")
    bounded.add_argument("file")
    bounded.add_argument("--bound", type=int, required=True)
    _add_common_flags(bounded)

    equiv = sub.add_parser("equiv", help="trace equivalence of two programs")
    equiv.add_argument("file")
    equiv.add_argument("file2")
    equiv.set_defaults(bound=None)
    _add_common_flags(equiv)

    evaluate = sub.add_parser("eval", help="evaluate an expression under a state")
    evaluate.add_argument("file")
    evaluate.add_argument("--expr", required=True)
    _add_common_flags(evaluate)

    return parser


def parse_state_spec(spec: str) -> State:
    entries = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not IDENT_RE.fullmatch(name):
            raise ParseError(1, 1, "a variable name", name)
        try:
            entries.append((name, Num(numeral_value(value))))
        except ValueError:
            raise ParseError(1, 1, "an integer value", value) from None
    return make_state(entries)


def _policy(args) -> ComposePolicy:
    return ComposePolicy(
        increment=args.increment,
        max_rounds=args.max_rounds,
        fresh_bound=args.fresh_bound,
    )


def _load(path: str, mode: str) -> Program:
    return parse_program(Path(path).read_text(encoding="utf-8"), mode)


def _initial(args, *items) -> State:
    if args.state is not None:
        return parse_state_spec(args.state)
    return initial_state_for(*items)


def _cmd_traces(args) -> int:
    program = _load(args.file, args.lang)
    sigma = _initial(args, program)
    if args.lang == "wl":
        traces = traces_wl(program.main, sigma, _policy(args), args.bound)
    else:
        traces = traces_ext(program, sigma, _policy(args), args.bound)
    sys.stdout.write(render_traces(traces, args.format))
    return 0


def _cmd_equiv(args) -> int:
    left = _load(args.file, args.lang)
    right = _load(args.file2, args.lang)
    sigma = _initial(args, left, right)
    if args.lang == "wl":
        left, right = left.main, right.main
    same = trace_equivalent(left, right, sigma, _policy(args), args.lang)
    sys.stdout.write("equivalent\n" if same else "not equivalent\n")
    return 0


def _cmd_eval(args) -> int:
    program = _load(args.file, args.lang)
    sigma = _initial(args, program)
    expr = parse_expression(args.expr)
    if isinstance(expr, (Num, Var, ABin)):
        result = pretty_aexp(eval_arith(expr, sigma))
    else:
        result = pretty_bexp(eval_bool(expr, sigma))
    if args.format == "json":
        sys.stdout.write(json.dumps({"result": result}) + "\n")
    else:
        sys.stdout.write(result + "\n")
    return 0


_COMMANDS = {
    "traces": _cmd_traces,
    "traces-bounded": _cmd_traces,
    "equiv": _cmd_equiv,
    "eval": _cmd_eval,
}


_EXIT_CODES = {
    ParseError: 1,
    ModeError: 1,
    PolicyError: 1,
    OSError: 1,
    UnicodeDecodeError: 1,
    UnboundVariableError: 2,
    UndefinedTraceOpError: 2,
    DivergenceLimitError: 3,
    FreshBoundExceededError: 4,
    RecursionError: 5,
    MemoryError: 5,
}

# Errors reported by a fixed text instead of their own message.
_MESSAGES = {
    RecursionError: "resources exhausted: recursion limit reached",
    MemoryError: "resources exhausted: out of memory",
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the error is reported inside the block, so its traceback, which holds
    # the failed run's frames, is gone before the block drops their nodes
    with holding_nodes(), memoizing():
        try:
            return _COMMANDS[args.command](args)
        except tuple(_EXIT_CODES) as exc:
            kind = next(kind for kind in _EXIT_CODES if isinstance(exc, kind))
            print(f"error: {_MESSAGES.get(kind, exc)}", file=sys.stderr)
            return _EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
