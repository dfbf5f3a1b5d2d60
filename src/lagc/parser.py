"""Surface syntax parser.

Programs are either a bare statement or a ``program { method ... main
{...} }`` block.  Statement separators bind tighter than the parallel bar,
so ``co x := 1 || x := 2 ;; skip oc`` splits at the bar.  Identifiers admit
``::`` segments so generated names such as ``$x::Scope`` round-trip.
"""

from __future__ import annotations

import re

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
    Record,
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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<ident>{IDENT_RE.pattern})"
    r"|(?P<num>\d+)"
    r"|(?P<sym>:=|;;|\|\||&&|<=|>=|==|[!+\-*();{}])"
)


class Token(Record):
    __slots__ = _fields = ("kind", "text", "line", "column")
    kind: str  # 'ident' | 'num' | 'sym' | 'kw' | 'eof'
    text: str
    line: int
    column: int

    def __init__(self, kind: str, text: str, line: int, column: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


def tokenize(source: str):
    tokens = []
    line, column = 1, 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(line, column, "a token", source[pos])
        text = match.group(0)
        kind = match.lastgroup
        if kind != "ws":
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            column = len(text) - text.rfind("\n")
        else:
            column += len(text)
        pos = match.end()
    tokens.append(Token("eof", "", line, column))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.index = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, expected: str):
        token = self.peek()
        raise ParseError(token.line, token.column, expected, token.text or "end of input")

    def accept(self, kind: str, text: str = None):
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            self.fail(text if text is not None else kind)
        return token

    def ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            self.fail("an identifier")
        return self.advance().text

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
        token = self.peek()
        if token.kind == "num":
            self.advance()
            return Num(int(token.text))
        if token.kind == "sym" and token.text == "-":
            self.advance()
            literal = self.expect("num")
            return Num(-int(literal.text))
        if token.kind == "ident":
            self.advance()
            return Var(token.text)
        if token.kind == "sym" and token.text == "(":
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
        except ParseError:
            self.index = saved
        self.expect("sym", "(")
        inner = self.bexp()
        self.expect("sym", ")")
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
        token = self.peek()
        if token.kind == "kw":
            if token.text == "skip":
                self.advance()
                return Skip()
            if token.text == "if":
                self.advance()
                cond = self.bexp()
                self.expect("kw", "then")
                body = self.stmt()
                self.expect("kw", "fi")
                return If(cond, body)
            if token.text == "while":
                self.advance()
                cond = self.bexp()
                self.expect("kw", "do")
                body = self.stmt()
                self.expect("kw", "od")
                return While(cond, body)
            if token.text == "co":
                self.advance()
                left = self.stmt()
                self.expect("sym", "||")
                right = self.stmt()
                self.expect("kw", "oc")
                return LocPar(left, right)
            if token.text == "scope":
                self.advance()
                self.expect("sym", "(")
                decls = []
                if self.peek().kind == "ident":
                    decls.append(self.ident())
                    while self.accept("sym", ";"):
                        decls.append(self.ident())
                self.expect("sym", ")")
                self.expect("sym", "{")
                body = self.stmt()
                self.expect("sym", "}")
                return LocMem(tuple(decls), body)
            if token.text == "input":
                self.advance()
                return Input(self.ident())
            if token.text == "guard":
                self.advance()
                cond = self.bexp()
                self.expect("kw", "then")
                body = self.stmt()
                self.expect("kw", "end")
                return Guard(cond, body)
            if token.text == "call":
                self.advance()
                name = self.ident()
                self.expect("sym", "(")
                arg = self.aexp()
                self.expect("sym", ")")
                return Call(name, arg)
            self.fail("a statement")
        if token.kind == "sym" and token.text == "(":
            self.advance()
            inner = self.stmt()
            self.expect("sym", ")")
            return inner
        if token.kind == "ident":
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
            while self.peek().kind == "kw" and self.peek().text == "method":
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
    if parser.peek().kind != "eof":
        parser.fail("end of input")
    if mode == "wl":
        if program.methods:
            raise ModeError("methods are not available in wl mode")
        if not language_check(program.main, "wl"):
            raise ModeError("statement uses constructs outside the wl subset")
    return program


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
            if parser.peek().kind == "eof":
                return expr
            parser.fail("end of input")
        except ParseError as exc:
            failures.append(exc)
    raise max(failures, key=lambda exc: (exc.line, exc.column))
