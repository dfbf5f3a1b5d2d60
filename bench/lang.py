"""A tiny program model for generating benchmark inputs, independent of lagc.

Programs are nested tuples.  They render to lagc's surface syntax, and a
plain-integer interpreter runs the deterministic (wl) subset, so expected
outputs never come from the code under test.

Arithmetic: an int, a variable name, or ``(op, left, right)`` with op in
``+ - *``.  Conditions: ``("true",)``, ``("rel", op, left, right)`` with op
in ``<= >= ==``, ``("not", c)``.  Statements: ``("skip",)``,
``("asg", var, aexp)``, ``("seq", [stmt, ...])``, ``("if", cond, stmt)``,
``("while", cond, stmt)``, ``("co", left, right)``,
``("scope", [var, ...], stmt)``, ``("guard", cond, stmt)``,
``("call", method, aexp)``, ``("input", var)``.
"""

from __future__ import annotations

import operator

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_REL = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


# ---------------------------------------------------------------------------
# Rendering


def render_aexp(a) -> str:
    if isinstance(a, int):
        return str(a)
    if isinstance(a, str):
        return a
    op, left, right = a
    return f"({render_aexp(left)} {op} {render_aexp(right)})"


def render_cond(c) -> str:
    if c[0] == "true":
        return "true"
    if c[0] == "rel":
        return f"{render_aexp(c[2])} {c[1]} {render_aexp(c[3])}"
    return f"!({render_cond(c[1])})"


def render_stmt(s) -> str:
    kind = s[0]
    if kind == "skip":
        return "skip"
    if kind == "asg":
        return f"{s[1]} := {render_aexp(s[2])}"
    if kind == "seq":
        return " ;; ".join(f"({render_stmt(t)})" if t[0] == "seq" else render_stmt(t) for t in s[1])
    if kind == "if":
        return f"if {render_cond(s[1])} then {render_stmt(s[2])} fi"
    if kind == "while":
        return f"while {render_cond(s[1])} do {render_stmt(s[2])} od"
    if kind == "co":
        return f"co {render_stmt(s[1])} || {render_stmt(s[2])} oc"
    if kind == "scope":
        return f"scope({'; '.join(s[1])}){{ {render_stmt(s[2])} }}"
    if kind == "guard":
        return f"guard {render_cond(s[1])} then {render_stmt(s[2])} end"
    if kind == "call":
        return f"call {s[1]}({render_aexp(s[2])})"
    if kind == "input":
        return f"input {s[1]}"
    raise ValueError(f"unknown statement {kind!r}")


def render_program(methods, main) -> str:
    """``methods`` is a list of ``(name, formal, body)``."""
    if not methods:
        return render_stmt(main)
    parts = " ".join(
        f"method {name}({formal}) {{ {render_stmt(body)} }}" for name, formal, body in methods
    )
    return f"program {{ {parts} main {{ {render_stmt(main)} }} }}"


def co_nest(branches):
    """Right-nested ``co`` over two or more branches."""
    nest = branches[-1]
    for branch in reversed(branches[:-1]):
        nest = ("co", branch, nest)
    return nest


# ---------------------------------------------------------------------------
# Variables


def aexp_vars(a, out: list):
    if isinstance(a, str):
        out.append(a)
    elif isinstance(a, tuple):
        aexp_vars(a[1], out)
        aexp_vars(a[2], out)


def cond_vars(c, out: list):
    if c[0] == "rel":
        aexp_vars(c[2], out)
        aexp_vars(c[3], out)
    elif c[0] == "not":
        cond_vars(c[1], out)


def free_vars(s, bound=frozenset()) -> list:
    """Variables occurring in ``s`` outside the scopes that declare them."""
    out: list = []
    _free(s, bound, out)
    return out


def _free(s, bound, out):
    kind = s[0]
    found: list = []
    if kind == "asg":
        found.append(s[1])
        aexp_vars(s[2], found)
    elif kind == "seq":
        for t in s[1]:
            _free(t, bound, out)
    elif kind in ("if", "while", "guard"):
        cond_vars(s[1], found)
        _free(s[2], bound, out)
    elif kind == "co":
        _free(s[1], bound, out)
        _free(s[2], bound, out)
    elif kind == "scope":
        _free(s[2], bound | frozenset(s[1]), out)
    elif kind == "call":
        aexp_vars(s[2], found)
    elif kind == "input":
        found.append(s[1])
    out.extend(v for v in found if v not in bound)


# ---------------------------------------------------------------------------
# Plain-integer interpreter for the deterministic subset


def eval_aexp(a, store: dict) -> int:
    if isinstance(a, int):
        return a
    if isinstance(a, str):
        return store[a]
    op, left, right = a
    return _ARITH[op](eval_aexp(left, store), eval_aexp(right, store))


def eval_cond(c, store: dict) -> bool:
    if c[0] == "true":
        return True
    if c[0] == "rel":
        return _REL[c[1]](eval_aexp(c[2], store), eval_aexp(c[3], store))
    return not eval_cond(c[1], store)


def run_wl(stmt, store: dict, max_steps: int = 1_000_000) -> list:
    """Execute a wl statement on a copy of ``store``.

    Returns the stores after the start and after every executed
    assignment, which is exactly the global trace of the program.
    """
    store = dict(store)
    states = [dict(store)]
    work = [stmt]
    steps = 0
    while work:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("wl program did not terminate within the step budget")
        s = work.pop()
        kind = s[0]
        if kind == "asg":
            store[s[1]] = eval_aexp(s[2], store)
            states.append(dict(store))
        elif kind == "seq":
            work.extend(reversed(s[1]))
        elif kind == "if":
            if eval_cond(s[1], store):
                work.append(s[2])
        elif kind == "while":
            if eval_cond(s[1], store):
                work.append(s)
                work.append(s[2])
        elif kind != "skip":
            raise ValueError(f"{kind!r} is outside the wl subset")
    return states
