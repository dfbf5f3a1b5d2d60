"""Seeded differential test of the parser against its frozen oracle.

``tests/reference_parser.py`` parses conditions by trying a relation, then
``( bexp )``, and keeps the failure that got further.  The current parser
decides by the sorts of operands instead.  Every input here must give both
the same tree or the same ``(line, column, expected, found)``.  Inputs are
printed random programs, soups of expression tokens, and generated
conditions and arithmetic with redundant parentheses, each also with one
token mutated; every expression goes through ``parse_expression`` and
through each statement position an expression can take.
"""

import random
from collections import Counter

import reference_parser
from lagc.errors import ModeError, ParseError
from lagc.parser import parse_expression, parse_program
from lagc.render import pretty_program
from lagc.syntax import Method, Program

from gens import rand_ext_stmt, rand_wl_stmt

# the oracle descends about four frames per parenthesis around a condition,
# so deeper inputs are skipped before it raises ``RecursionError``
MAX_NESTING = 200

CONTEXTS = (
    "if {} then skip fi",
    "while {} do skip od",
    "guard {} then skip end",
    "x := {}",
    "call m({})",
)

VOCABULARY = (
    "x y 0 7 42 true false ( ( ) ) ! - - + * <= >= == && || then ;; fi"
).split()

EXPECTED = {"a relational operator", "(", ")", "an arithmetic expression", "end of input", "num"}


def _wrap(rng, tokens):
    while rng.random() < 0.3:
        tokens = ["(", *tokens, ")"]
    return tokens


def _arith(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _wrap(rng, rng.choice((["x"], ["y"], ["0"], ["7"], ["-", "3"])))
    return _wrap(rng, [*_arith(rng, depth - 1), rng.choice("+-*"), *_arith(rng, depth - 1)])


def _cond(rng, depth):
    roll = rng.random()
    if roll < 0.05:
        tokens = [rng.choice(("true", "false"))]
    elif depth <= 0 or roll < 0.4:
        tokens = [*_arith(rng, 1), rng.choice(("<=", ">=", "==")), *_arith(rng, 1)]
    elif roll < 0.55:
        tokens = ["!", *_cond(rng, depth - 1)]
    else:
        tokens = [*_cond(rng, depth - 1), rng.choice(("&&", "||")), *_cond(rng, depth - 1)]
    return _wrap(rng, tokens)


def _mutate(rng, tokens):
    tokens = list(tokens)
    at = rng.randrange(len(tokens) + 1)
    roll = rng.random()
    if roll < 0.3 and at < len(tokens):
        del tokens[at]
    elif roll < 0.6 and at < len(tokens):
        tokens[at] = rng.choice(VOCABULARY)
    else:
        tokens.insert(at, rng.choice(VOCABULARY))
    return tokens


def _text(rng, tokens):
    return "".join(token + ("\n" if rng.random() < 0.05 else " ") for token in tokens)


def _expressions(rng):
    for _ in range(300):
        tokens = _cond(rng, 3) if rng.random() < 0.7 else _arith(rng, 3)
        yield _text(rng, tokens)
        yield _text(rng, _mutate(rng, tokens))
        yield _text(rng, _mutate(rng, tokens))
    for _ in range(300):
        yield _text(rng, rng.choices(VOCABULARY, k=rng.randint(0, 12)))
    for depth in (30, 100, MAX_NESTING + 30):
        for tokens in (_cond(rng, 1), _arith(rng, 1)):
            yield _text(rng, ["("] * depth + tokens + [")"] * depth)


def _programs(rng):
    for _ in range(150):
        stmt = rand_wl_stmt if rng.random() < 0.5 else rand_ext_stmt
        main = stmt(rng, rng.randint(1, 8))
        methods = ()
        if rng.random() < 0.3:
            methods = (Method("m0", "v", rand_ext_stmt(rng, rng.randint(1, 3))),)
        yield pretty_program(Program(methods, main))


def _outcome(parse, source):
    try:
        return "tree", parse(source)
    except ParseError as error:
        return "error", (error.line, error.column, error.expected, error.found)


def _nesting(source):
    depth = deepest = 0
    for char in source:
        depth += (char == "(") - (char == ")")
        deepest = max(deepest, depth)
    return deepest


def _cases(rng):
    for expression in _expressions(rng):
        yield parse_expression, reference_parser.parse_expression, expression
        for context in CONTEXTS:
            yield parse_program, reference_parser.parse_program, context.format(expression)
    for program in _programs(rng):
        yield parse_program, reference_parser.parse_program, program


def _wl_outcome(parse, source):
    try:
        return _outcome(lambda text: parse(text, "wl"), source)
    except ModeError as error:
        return "mode", str(error)


def test_the_wl_check_of_a_parse_matches_the_frozen_oracle():
    # the parser reads the wl subset off its tokens; the oracle walks the tree
    rng = random.Random(23)
    outcomes = Counter()
    for source in _programs(rng):
        tokens = source.split()
        for text in (source, _text(rng, _mutate(rng, tokens)), _text(rng, _mutate(rng, tokens))):
            got = _wl_outcome(parse_program, text)
            assert got == _wl_outcome(reference_parser.parse_program, text), text
            outcomes[got[0] if got[0] != "mode" else got[1]] += 1
    assert outcomes["tree"] > 40 and outcomes["error"] > 40
    assert outcomes["statement uses constructs outside the wl subset"] > 30
    assert outcomes["methods are not available in wl mode"] > 30


def test_parser_matches_the_frozen_oracle():
    rng = random.Random(22)
    trees, expected = 0, set()
    failures = skipped = 0
    for parse, oracle, source in _cases(rng):
        if _nesting(source) > MAX_NESTING:
            skipped += 1
            continue
        got, want = _outcome(parse, source), _outcome(oracle, source)
        assert got == want, source
        if got[0] == "tree":
            trees += 1
        else:
            failures += 1
            expected.add(got[1][2])
    assert trees >= 1000 and failures >= 1000, (trees, failures)
    assert EXPECTED <= expected, EXPECTED - expected
    assert skipped > 0
