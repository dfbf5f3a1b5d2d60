import random

import pytest

from lagc import parser
from lagc.errors import ModeError, ParseError
from lagc.parser import parse_expression, parse_program
from lagc.render import pretty_program
from lagc.syntax import (
    ABin,
    ArithOp,
    Assign,
    BBin,
    BoolLit,
    BoolOp,
    Neg,
    Num,
    Program,
    Rel,
    RelOp,
    Seq,
    Skip,
    Var,
)

from gens import rand_ext_stmt, rand_wl_stmt
from samples import EXT_CALL, EXT_INPUT, EXT_SCOPE_PAR, WL_FACTORIAL, WL_SWAP


def test_parse_skip():
    assert parse_program("skip") == Program((), Skip())


def test_parse_factorial():
    src = "x := 6 ;; y := 1 ;; while x >= 2 do y := y*x ;; x := x-1 od"
    assert parse_program(src, "wl") == Program((), WL_FACTORIAL)


def test_parse_swap():
    src = "if !(x == y) then (z := y ;; y := x) ;; x := z fi"
    assert parse_program(src, "wl") == Program((), WL_SWAP)


def test_parse_program_with_method():
    src = "program { method foo(x){ x := 2 } main { (x := 0 ;; call foo(x)) ;; x := 1 } }"
    assert parse_program(src) == EXT_CALL


def test_parse_scope_and_input():
    assert parse_program("scope(x){ co x := 1 || x := 2 oc }") == EXT_SCOPE_PAR
    assert parse_program("input x ;; x := x + 1") == EXT_INPUT


def test_seq_is_left_associative():
    program = parse_program("skip ;; x := 1 ;; skip")
    assert program.main == Seq(Seq(Skip(), Assign("x", Num(1))), Skip())


def test_parallel_bar_binds_looser_than_seq():
    program = parse_program("co x := 1 || x := 2 ;; skip oc")
    assert program.main.right == Seq(Assign("x", Num(2)), Skip())


def test_arith_precedence():
    program = parse_program("x := 1 + 2 * 3 - 4")
    assert program.main.value == ABin(
        ABin(Num(1), ArithOp.ADD, ABin(Num(2), ArithOp.MUL, Num(3))),
        ArithOp.SUB,
        Num(4),
    )


def test_bool_precedence():
    cond = parse_program("if !x == 1 && true || false then skip fi").main.cond
    assert cond == BBin(
        BBin(Neg(Rel(Var("x"), RelOp.EQ, Num(1))), BoolOp.CONJ, BoolLit(True)),
        BoolOp.DISJ,
        BoolLit(False),
    )


def test_negative_numerals():
    assert parse_program("x := -3").main == Assign("x", Num(-3))
    assert parse_program("x := x - -3").main == Assign(
        "x", ABin(Var("x"), ArithOp.SUB, Num(-3))
    )


def test_generated_names_lex_as_identifiers():
    program = parse_program("$x::Scope := c$x::Scope + 1")
    assert program.main == Assign(
        "$x::Scope", ABin(Var("c$x::Scope"), ArithOp.ADD, Num(1))
    )


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_program("x :=\n:= 2")
    assert info.value.line == 2
    assert info.value.column == 1
    with pytest.raises(ParseError):
        parse_program("while true do skip")  # missing od
    with pytest.raises(ParseError):
        parse_program("x := 1 }")  # trailing token


def test_a_malformed_condition_reports_the_relation_when_it_got_further():
    # a condition is tried as a relation, then as ``( bexp )``
    cases = [
        ("if x <= then skip fi", 9, "an arithmetic expression", "then"),
        ("if x then skip fi", 6, "a relational operator", "then"),
    ]
    for source, column, expected, found in cases:
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        error = caught.value
        assert (error.line, error.column, error.expected, error.found) == (1, column, expected, found)


@pytest.mark.parametrize("depth", [1, 10, 100, 400])
def test_a_valid_nested_condition_builds_no_error(monkeypatch, depth):
    # a condition is read once, so no failed attempt builds a ``ParseError``
    built, error = [], parser._error

    def counting(*args):
        built.append(args)
        return error(*args)

    source = "if " + "(" * depth + "!x <= 1 && (y) == 2" + ")" * depth + " then skip fi"
    monkeypatch.setattr(parser, "_error", counting)
    program = parse_program(source)
    assert program.main.cond == BBin(
        Neg(Rel(Var("x"), RelOp.LEQ, Num(1))), BoolOp.CONJ, Rel(Var("y"), RelOp.EQ, Num(2))
    )
    assert built == []


def test_mode_errors():
    with pytest.raises(ModeError):
        parse_program("input x", "wl")
    with pytest.raises(ModeError):
        parse_program("program { method m(v){ skip } main { skip } }", "wl")
    # the program wrapper itself is fine in wl mode when no methods occur
    assert parse_program("program { main { skip } }", "wl") == Program((), Skip())


def test_parse_expression():
    assert parse_expression("x*y - x") == ABin(
        ABin(Var("x"), ArithOp.MUL, Var("y")), ArithOp.SUB, Var("x")
    )
    assert parse_expression("x == 2 || false") == BBin(
        Rel(Var("x"), RelOp.EQ, Num(2)), BoolOp.DISJ, BoolLit(False)
    )
    with pytest.raises(ParseError):
        parse_expression("x +")


@pytest.mark.parametrize(
    "source, column, expected, found",
    [
        ("x + * 2", 5, "an arithmetic expression", "*"),
        ("1 +", 4, "an arithmetic expression", "end of input"),
        ("1 2", 3, "end of input", "2"),
        ("x == 1 &&", 10, "(", "end of input"),
        ("x == 1 )", 8, "end of input", ")"),
        ("x <= ", 6, "an arithmetic expression", "end of input"),
    ],
)
def test_parse_expression_reports_the_failure_that_got_furthest(source, column, expected, found):
    with pytest.raises(ParseError) as caught:
        parse_expression(source)
    error = caught.value
    assert (error.line, error.column, error.expected, error.found) == (1, column, expected, found)


def test_round_trip_random_programs():
    rng = random.Random(71)
    for _ in range(300):
        if rng.random() < 0.5:
            main = rand_wl_stmt(rng, rng.randint(1, 8))
        else:
            main = rand_ext_stmt(rng, rng.randint(1, 8))
        program = Program((), main)
        assert parse_program(pretty_program(program)) == program


def test_malformed_sources_raise_parse_errors_only():
    rng = random.Random(72)
    vocabulary = [
        "skip", "if", "then", "fi", "while", "do", "od", "co", "oc", "scope",
        "input", "guard", "end", "call", "program", "method", "main", "x",
        "y", "0", "1", ":=", ";;", "||", "&&", "<=", "==", "!", "+", "-",
        "*", "(", ")", "{", "}", ";", "true", "false",
    ]
    for _ in range(500):
        source = " ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
        try:
            parse_program(source)
        except ParseError:
            pass


def test_round_trip_methods():
    assert parse_program(pretty_program(EXT_CALL)) == EXT_CALL


SCAN_PIECES = (
    # identifiers, generated names, keywords
    "x", "y1", "_t", "$x::Scope", "a::b", "a:::b", "x::", "if", "then", "fi", "while", "do",
    "od", "co", "oc", "scope", "input", "guard", "end", "call", "program", "method", "main",
    "true", "false", "skip",
    # numerals, two with a digit of another script
    "0", "42", "007", "٣", "1٣",
    # symbols
    ":=", ";;", "||", "&&", "<=", ">=", "==", "!", "+", "-", "*", "(", ")", ";", "{", "}",
)
BAD_CHARACTERS = (":", "|", "&", "=", "<", "@", "²")
# besides spaces, tabs and newlines, three other characters that both the
# token pattern's ``\s`` and ``str.rstrip`` take for whitespace
SEPARATORS = ("", " ", " ", "\n", "\t", "  \n ", "\u00a0", "\x1c", "\u2003 ")


def _scan_sources(rng):
    yield from ("", " ", "\n\t ", "x", "x  \n", "a::b", "x::", "٣", "x := ٣ ;; y := 1  ", "x ²")
    yield from ("x\u00a0", "x := 1\x1c\u2003", "x\u200b", "\u200b")
    for _ in range(3000):
        pieces = rng.choices(SCAN_PIECES, k=rng.randint(0, 10))
        if rng.random() < 0.3:
            pieces.insert(rng.randint(0, len(pieces)), rng.choice(BAD_CHARACTERS))
        # a piece glued to the next may scan as another token, as "<" "=" does
        yield "".join(piece + rng.choice(SEPARATORS) for piece in pieces)
    for _ in range(200):
        stmt = rand_wl_stmt if rng.random() < 0.5 else rand_ext_stmt
        yield pretty_program(Program((), stmt(rng, rng.randint(1, 6)))) + rng.choice(SEPARATORS)


def _scanned(scan, source):
    try:
        return "tokens", scan(source)
    except ParseError as error:
        return "error", (error.line, error.column, error.expected, error.found, str(error))


def _parsed(parse, source):
    try:
        return "tree", parse(source)
    except ParseError as error:
        return "error", (error.line, error.column, error.expected, error.found, str(error))


def test_scan_matches_tokenize():
    # the one-findall scan gives tokenize's (kind, text) list, or the same
    # error at the same place; the parse built on it reports every error as
    # the frozen parser, which reads tokenize's offsets, does
    import reference_parser

    def offsets_dropped(source):
        return [(kind, text) for kind, text, _ in parser.tokenize(source)]

    seen, outcomes, bad = set(), [], set()
    for source in _scan_sources(random.Random(26)):
        got = _scanned(parser._scan, source)
        assert got == _scanned(offsets_dropped, source), source
        if got[0] == "error":
            bad.add(got[1][3])
            continue
        seen.update(kind for kind, _ in got[1])
        for parse, oracle in (
            (parse_program, reference_parser.parse_program),
            (parse_expression, reference_parser.parse_expression),
        ):
            outcome = _parsed(parse, source)
            assert outcome == _parsed(oracle, source), source
            outcomes.append(outcome[0])
    assert seen == {"ident", "kw", "num", "sym", "eof"}
    assert bad == {*BAD_CHARACTERS, "\u200b"}
    assert outcomes.count("tree") > 250 and outcomes.count("error") > 3000
