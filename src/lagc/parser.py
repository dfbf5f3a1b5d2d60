"""Surface syntax parser.

Programs are either a bare statement or a ``program { method ... main
{...} }`` block.  Statement separators bind tighter than the parallel bar,
so ``co x := 1 || x := 2 ;; skip oc`` splits at the bar.  Identifiers admit
``::`` segments so generated names such as ``$x::Scope`` round-trip.

Expressions of both sorts, arithmetic and Boolean, are read by one
precedence-climbing loop (Pratt, "Top down operator precedence", 1973)
over ``_BINARY``, in one pass without backtracking.  A binary operator
applies only to a left operand of its sort (conditions for ``&&`` and
``||``, arithmetic for relations and ``+ - *``), so where a condition is
due a ``(`` may enclose either sort, and what follows decides: an
arithmetic content goes on to a relation.  An arithmetic expression left
where a condition is due reports a missing relational operator.  Each
level of parentheses costs two stack frames.

The scanner lists the token texts with one ``findall`` and finds each
distinct text's kind once, in a bounded cache; offsets are found only
when a ``ParseError`` is reported, by ``tokenize``, which keeps every
error's text and position.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ModeError, ParseError
from .syntax import (
    ABin,
    AExp,
    ArithOp,
    Assign,
    BBin,
    BExp,
    BoolOp,
    Call,
    FALSE,
    Guard,
    If,
    Input,
    LocMem,
    LocPar,
    Method,
    Neg,
    Num,
    Program,
    Rel,
    RelOp,
    Seq,
    Skip,
    Stmt,
    TRUE,
    Var,
    While,
    check_mode,
    uncapped,
)

KEYWORDS = {
    "skip", "if", "then", "fi", "while", "do", "od", "co", "oc",
    "scope", "input", "guard", "end", "call", "program", "method",
    "main", "true", "false",
}

IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*(?::+[A-Za-z0-9_$]+)*")

_SYMBOLS = r":=|;;|\|\||&&|<=|>=|==|[!+\-*();{}]"

# Each match skips the whitespace before one token: an identifier (a
# keyword is one too), a numeral, a symbol, the end of the input or, for
# any other character, ``bad``.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{IDENT_RE.pattern})"
    r"|(?P<num>\d+)"
    rf"|(?P<sym>{_SYMBOLS})"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)
# The same matches with the token's text in one group, so that ``findall``
# lists the texts; the end of the input is the empty text.
_TEXT_RE = re.compile(rf"\s*({IDENT_RE.pattern}|\d+|{_SYMBOLS}|\Z|.)", re.DOTALL)


# Each binary operator's binding level (higher binds tighter), node class
# and operator.  ``!`` binds at the relations' level: its operand is one
# relation, literal, negation or bracketed condition.
_BINARY = {
    "||": (1, BBin, BoolOp.DISJ),
    "&&": (2, BBin, BoolOp.CONJ),
    "<=": (3, Rel, RelOp.LEQ),
    ">=": (3, Rel, RelOp.GEQ),
    "==": (3, Rel, RelOp.EQ),
    "+": (4, ABin, ArithOp.ADD),
    "-": (4, ABin, ArithOp.SUB),
    "*": (5, ABin, ArithOp.MUL),
}
_RELATION, _SUM = 3, 4
_ARITH = (Num, Var, ABin)
_LITERALS = {"true": TRUE, "false": FALSE}
# Each statement of the shape ``kw cond middle body end``: its node class
# and its two other keywords.
_BLOCKS = {"if": (If, "then", "fi"), "while": (While, "do", "od"), "guard": (Guard, "then", "end")}
# The tokens that begin a statement outside the wl subset.  Every token of
# a parsed program has its place in the grammar, so a program holds such a
# statement exactly when its tokens hold one of these, and the wl check of
# a parse reads the tokens instead of walking the tree.
_EXT_TOKENS = frozenset(("kw", text) for text in ("co", "scope", "input", "guard", "call"))


def _error(source: str, offset: int, expected: str, found: str) -> ParseError:
    """A ``ParseError`` at ``offset`` of ``source``, with 1-based line and column."""
    line_start = source.rfind("\n", 0, offset)
    return ParseError(source.count("\n", 0, offset) + 1, offset - line_start, expected, found)


def tokenize(source: str) -> list:
    """The tokens of ``source``, each ``(kind, text, offset)``, the last of kind ``eof``.

    A kind is ``ident``, ``kw``, ``num``, ``sym`` or ``eof``, and the
    offset is where the token starts in ``source``.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text, offset = match[kind], match.start(kind)
        if kind == "ident":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "bad":
            raise _error(source, offset, "a token", text)
        tokens.append((kind, text, offset))
        if kind == "eof":
            return tokens


@lru_cache(maxsize=1024)
def _token(text: str) -> tuple:
    """The ``(kind, text)`` token that ``tokenize`` makes of a text ``_TEXT_RE`` found.

    The kind is found by matching the text alone against ``_TOKEN_RE``,
    once for as long as the text stays among the 1024 most recent ones.
    A bad character raises a ``ParseError`` without its position.
    """
    kind = _TOKEN_RE.match(text).lastgroup
    if kind == "bad":
        raise ParseError(0, 0, "a token", text)
    return ("kw" if text in KEYWORDS else kind, text)


def _scan(source: str) -> list:
    """The tokens of ``source`` as ``tokenize`` gives them, without offsets: each ``(kind, text)``.

    One ``findall`` lists the texts; trailing whitespace is stripped
    first, or the end of the input would match twice.  A bad character
    makes ``tokenize`` raise its error, with its position, before
    anything is parsed.
    """
    texts = _TEXT_RE.findall(source.rstrip())
    try:
        return list(map(_token, texts))
    except ParseError:
        tokenize(source)  # raises at the first bad character, with its line and column
        raise


def numeral_value(text: str) -> int:
    """``int(text)``, however many digits ``text`` has."""
    try:
        return int(text)
    except ValueError:
        return uncapped(int, text)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _scan(source)
        self.index = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.index]

    def advance(self):
        self.index += 1

    def fail(self, expected: str):
        # offsets are found only here, by scanning again with ``tokenize``
        _, text, offset = tokenize(self.source)[self.index]
        raise _error(self.source, offset, expected, text or "end of input")

    def accept(self, kind: str, text: str = None):
        token = self.tokens[self.index]
        if token[0] == kind and (text is None or token[1] == text):
            self.index += 1
            return token
        return None

    def expect(self, kind: str, text: str = None) -> tuple:
        return self.accept(kind, text) or self.fail(text or kind)

    def ident(self) -> str:
        token = self.peek()
        if token[0] != "ident":
            self.fail("an identifier")
        self.index += 1
        return token[1]

    # -- expressions -------------------------------------------------------

    def expr(self, least: int, arith: bool):
        """The expression whose binary operators bind at ``least`` or tighter.

        With ``arith`` only an arithmetic expression can start here;
        otherwise either sort can, as the left operand of a relation does.
        An operator applies only to a left operand of its own sort, so a
        relation cannot follow a relation and a condition cannot be added.
        """
        left = self.primary(arith)
        while True:
            entry = _BINARY.get(self.peek()[1])
            if entry is None or entry[0] < least or (entry[1] is BBin) == isinstance(left, _ARITH):
                return left
            level, node, op = entry
            self.advance()
            if node is BBin:
                left = BBin(left, op, self.cond(self.expr(level + 1, False)))
            else:
                left = node(left, op, self.expr(level + 1, True))

    def primary(self, arith: bool):
        kind, text = self.peek()
        if kind == "num":
            self.advance()
            return Num(numeral_value(text))
        if kind == "ident":
            self.advance()
            return Var(text)
        if text == "-":
            self.advance()
            return Num(-numeral_value(self.expect("num")[1]))
        if text == "(":
            # where a condition is due the content may be of either sort, and
            # arithmetic content that does not close here lacks its relation
            self.advance()
            inner = self.expr(_SUM if arith else 1, arith)
            if not arith and self.peek()[1] != ")":
                self.cond(inner)
            self.expect("sym", ")")
            return inner
        if not arith:
            if text in _LITERALS:
                self.advance()
                return _LITERALS[text]
            if text == "!":
                self.advance()
                return Neg(self.cond(self.expr(_RELATION, False)))
        self.fail("an arithmetic expression" if arith else "(")

    def cond(self, expr):
        """``expr``, unless it is arithmetic where a condition is due: then it lacks a relation."""
        if isinstance(expr, _ARITH):
            self.fail("a relational operator")
        return expr

    def aexp(self) -> AExp:
        return self.expr(_SUM, True)

    def bexp(self) -> BExp:
        return self.cond(self.expr(1, False))

    # -- statements ----------------------------------------------------------

    def stmt(self) -> Stmt:
        node = self.atom_stmt()
        while self.accept("sym", ";;"):
            node = Seq(node, self.atom_stmt())
        return node

    def atom_stmt(self) -> Stmt:
        kind, text = self.peek()
        if kind == "kw":
            if text == "skip":
                self.advance()
                return Skip()
            if text in _BLOCKS:
                node, middle, end = _BLOCKS[text]
                self.advance()
                cond = self.bexp()
                self.expect("kw", middle)
                body = self.stmt()
                self.expect("kw", end)
                return node(cond, body)
            if text == "co":
                self.advance()
                left = self.stmt()
                self.expect("sym", "||")
                right = self.stmt()
                self.expect("kw", "oc")
                return LocPar(left, right)
            if text == "scope":
                self.advance()
                self.expect("sym", "(")
                decls = []
                if self.peek()[0] == "ident":
                    decls.append(self.ident())
                    while self.accept("sym", ";"):
                        decls.append(self.ident())
                self.expect("sym", ")")
                self.expect("sym", "{")
                body = self.stmt()
                self.expect("sym", "}")
                return LocMem(tuple(decls), body)
            if text == "input":
                self.advance()
                return Input(self.ident())
            if text == "call":
                self.advance()
                name = self.ident()
                self.expect("sym", "(")
                arg = self.aexp()
                self.expect("sym", ")")
                return Call(name, arg)
            self.fail("a statement")
        if kind == "sym" and text == "(":
            self.advance()
            inner = self.stmt()
            self.expect("sym", ")")
            return inner
        if kind == "ident":
            target = self.ident()
            self.expect("sym", ":=")
            return Assign(target, self.aexp())
        self.fail("a statement")

    # -- programs ------------------------------------------------------------

    def method(self) -> Method:
        self.expect("kw", "method")
        name = self.ident()
        self.expect("sym", "(")
        formal = self.ident()
        self.expect("sym", ")")
        self.expect("sym", "{")
        body = self.stmt()
        self.expect("sym", "}")
        return Method(name, formal, body)

    def program(self) -> Program:
        if self.accept("kw", "program"):
            self.expect("sym", "{")
            methods = []
            while self.peek() == ("kw", "method"):
                methods.append(self.method())
            self.expect("kw", "main")
            self.expect("sym", "{")
            main = self.stmt()
            self.expect("sym", "}")
            self.expect("sym", "}")
            return Program(tuple(methods), main)
        return Program((), self.stmt())


def parse_program(source: str, mode: str = "ext") -> Program:
    """Parse a source text; in wl mode methods and extensions are rejected."""
    check_mode(mode)
    parser = _Parser(source)
    program = parser.program()
    if parser.peek()[0] != "eof":
        parser.fail("end of input")
    if mode == "wl":
        if program.methods:
            raise ModeError("methods are not available in wl mode")
        if not _EXT_TOKENS.isdisjoint(parser.tokens):
            raise ModeError("statement uses constructs outside the wl subset")
    return program


def _reach(error: ParseError) -> tuple:
    """How far a failed parse got: the ``(line, column)`` it failed at."""
    return error.line, error.column


def parse_expression(source: str):
    """Parse an arithmetic or Boolean expression, trying arithmetic first.

    If neither parse covers the whole input, the failure that got further
    is raised, the arithmetic one on a tie.
    """
    parser = _Parser(source)
    failures = []
    for parse in (parser.aexp, parser.bexp):
        parser.index = 0
        try:
            expr = parse()
            if parser.peek()[0] == "eof":
                return expr
            parser.fail("end of input")
        except ParseError as exc:
            failures.append(exc)
    raise max(failures, key=_reach)
