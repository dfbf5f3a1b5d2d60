"""The surface-syntax parser as it was before expressions were parsed by precedence climbing.

A frozen copy, kept as an oracle for ``lagc.parser``: a condition is tried
first as a relation, then as ``( bexp )``, rewinding between the two
attempts and keeping the failure that got further.  It shares only the
error and syntax layers with the current parser.  Do not optimise it.
"""

from __future__ import annotations

import re

from lagc.errors import ModeError, ParseError
from lagc.syntax import (
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
    language_check,
)

KEYWORDS = {
    "skip", "if", "then", "fi", "while", "do", "od", "co", "oc",
    "scope", "input", "guard", "end", "call", "program", "method",
    "main", "true", "false",
}

IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*(?::+[A-Za-z0-9_$]+)*")

# Each match skips the whitespace before one token: an identifier (a
# keyword is one too), a numeral, a symbol, the end of the input or, for
# any other character, ``bad``.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{IDENT_RE.pattern})"
    r"|(?P<num>\d+)"
    r"|(?P<sym>:=|;;|\|\||&&|<=|>=|==|[!+\-*();{}])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)


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


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.index]

    def advance(self) -> tuple:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, expected: str):
        _, text, offset = self.peek()
        raise _error(self.source, offset, expected, text or "end of input")

    def accept(self, kind: str, text: str = None):
        token = self.tokens[self.index]
        if token[0] == kind and (text is None or token[1] == text):
            self.index += 1
            return token
        return None

    def expect(self, kind: str, text: str = None) -> tuple:
        token = self.accept(kind, text)
        if token is None:
            self.fail(text if text is not None else kind)
        return token

    def ident(self) -> str:
        token = self.peek()
        if token[0] != "ident":
            self.fail("an identifier")
        self.index += 1
        return token[1]

    # -- arithmetic expressions --------------------------------------------

    def aexp(self) -> AExp:
        left = self.amul()
        while True:
            if self.accept("sym", "+"):
                left = ABin(left, ArithOp.ADD, self.amul())
            elif self.accept("sym", "-"):
                left = ABin(left, ArithOp.SUB, self.amul())
            else:
                return left

    def amul(self) -> AExp:
        left = self.aprimary()
        while self.accept("sym", "*"):
            left = ABin(left, ArithOp.MUL, self.aprimary())
        return left

    def aprimary(self) -> AExp:
        kind, text, _ = self.peek()
        if kind == "num":
            self.advance()
            return Num(int(text))
        if kind == "sym" and text == "-":
            self.advance()
            literal = self.expect("num")
            return Num(-int(literal[1]))
        if kind == "ident":
            self.advance()
            return Var(text)
        if kind == "sym" and text == "(":
            self.advance()
            inner = self.aexp()
            self.expect("sym", ")")
            return inner
        self.fail("an arithmetic expression")

    # -- Boolean expressions -----------------------------------------------

    def bexp(self) -> BExp:
        left = self.band()
        while self.accept("sym", "||"):
            left = BBin(left, BoolOp.DISJ, self.band())
        return left

    def band(self) -> BExp:
        left = self.bnot()
        while self.accept("sym", "&&"):
            left = BBin(left, BoolOp.CONJ, self.bnot())
        return left

    def bnot(self) -> BExp:
        if self.accept("sym", "!"):
            return Neg(self.bnot())
        return self.batom()

    def batom(self) -> BExp:
        if self.accept("kw", "true"):
            return TRUE
        if self.accept("kw", "false"):
            return FALSE
        saved = self.index
        try:
            left = self.aexp()
            op = self.relop()
            return Rel(left, op, self.aexp())
        except ParseError as error:
            relation = error
        self.index = saved
        try:
            self.expect("sym", "(")
            inner = self.bexp()
            self.expect("sym", ")")
        except ParseError as bracket:
            # the attempt that got further, the bracketed one on a tie
            raise max(bracket, relation, key=_reach) from None
        return inner

    def relop(self) -> RelOp:
        if self.accept("sym", "<="):
            return RelOp.LEQ
        if self.accept("sym", ">="):
            return RelOp.GEQ
        if self.accept("sym", "=="):
            return RelOp.EQ
        self.fail("a relational operator")

    # -- statements ----------------------------------------------------------

    def stmt(self) -> Stmt:
        node = self.atom_stmt()
        while self.accept("sym", ";;"):
            node = Seq(node, self.atom_stmt())
        return node

    def atom_stmt(self) -> Stmt:
        kind, text, _ = self.peek()
        if kind == "kw":
            if text == "skip":
                self.advance()
                return Skip()
            if text == "if":
                self.advance()
                cond = self.bexp()
                self.expect("kw", "then")
                body = self.stmt()
                self.expect("kw", "fi")
                return If(cond, body)
            if text == "while":
                self.advance()
                cond = self.bexp()
                self.expect("kw", "do")
                body = self.stmt()
                self.expect("kw", "od")
                return While(cond, body)
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
            if text == "guard":
                self.advance()
                cond = self.bexp()
                self.expect("kw", "then")
                body = self.stmt()
                self.expect("kw", "end")
                return Guard(cond, body)
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
            while self.peek()[:2] == ("kw", "method"):
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
        if not language_check(program.main, "wl"):
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
