"""Pretty-printing for syntax values and deterministic trace rendering.

``parse_program(pretty_program(p))`` returns ``p`` for every program, and
trace output is byte-identical across runs: states list their variables in
sorted order and trace sets are sorted by the canonical syntax order.
"""

from __future__ import annotations

import json

from .state import State
from .syntax import (
    ArithExp,
    ArithOp,
    Assign,
    BoolExp,
    BoolLit,
    Call,
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
    Seq,
    Skip,
    Star,
    Var,
    While,
    canon_key,
)
from .trace import StateAtom, Trace

_ADDSUB = 1
_MUL = 2

_DISJ = 1
_CONJ = 2
_NOT = 3

_SEQ = 1
_STMT = 2


def pretty_aexp(a, min_prec: int = _ADDSUB) -> str:
    if isinstance(a, Num):
        return str(a.value)
    if isinstance(a, Var):
        return a.name
    prec = _MUL if a.op is ArithOp.MUL else _ADDSUB
    text = f"{pretty_aexp(a.left, prec)} {a.op.value} {pretty_aexp(a.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text


def pretty_bexp(b, min_prec: int = _DISJ) -> str:
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    if isinstance(b, Rel):
        return f"{pretty_aexp(b.left)} {b.op.value} {pretty_aexp(b.right)}"
    if isinstance(b, Neg):
        text = f"!{pretty_bexp(b.operand, _NOT)}"
        return f"({text})" if _NOT < min_prec else text
    prec = _CONJ if b.op.value == "&&" else _DISJ
    text = f"{pretty_bexp(b.left, prec)} {b.op.value} {pretty_bexp(b.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text


def pretty_exp(e) -> str:
    if isinstance(e, ArithExp):
        return pretty_aexp(e.arith)
    if isinstance(e, BoolExp):
        return pretty_bexp(e.boolexp)
    return e.name


def pretty_sexp(s) -> str:
    if isinstance(s, Star):
        return "*"
    return pretty_aexp(s.arith)


def pretty_stmt(s, min_prec: int = _SEQ) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{s.target} := {pretty_aexp(s.value)}"
    if isinstance(s, If):
        return f"if {pretty_bexp(s.cond)} then {pretty_stmt(s.body)} fi"
    if isinstance(s, While):
        return f"while {pretty_bexp(s.cond)} do {pretty_stmt(s.body)} od"
    if isinstance(s, Seq):
        text = f"{pretty_stmt(s.first, _SEQ)} ;; {pretty_stmt(s.second, _STMT)}"
        return f"({text})" if _SEQ < min_prec else text
    if isinstance(s, LocPar):
        return f"co {pretty_stmt(s.left)} || {pretty_stmt(s.right)} oc"
    if isinstance(s, LocMem):
        return f"scope({'; '.join(s.decls)}){{ {pretty_stmt(s.body)} }}"
    if isinstance(s, Input):
        return f"input {s.target}"
    if isinstance(s, Guard):
        return f"guard {pretty_bexp(s.cond)} then {pretty_stmt(s.body)} end"
    if isinstance(s, Call):
        return f"call {s.method}({pretty_aexp(s.arg)})"
    raise TypeError(f"pretty_stmt: unsupported {type(s).__name__}")


def pretty_method(m: Method) -> str:
    return f"method {m.name}({m.formal}) {{ {pretty_stmt(m.body)} }}"


def pretty_program(p: Program) -> str:
    if not p.methods:
        return pretty_stmt(p.main)
    methods = " ".join(pretty_method(m) for m in p.methods)
    return f"program {{ {methods} main {{ {pretty_stmt(p.main)} }} }}"


# ---------------------------------------------------------------------------
# Trace rendering


def render_state(sigma: State) -> str:
    inner = ", ".join(f"{name}={pretty_sexp(value)}" for name, value in sigma.entries)
    return "{" + inner + "}"


def render_atom(atom) -> str:
    if isinstance(atom, StateAtom):
        return render_state(atom.state)
    args = ", ".join(pretty_exp(arg) for arg in atom.args)
    return f"Event({atom.kind.value}, [{args}])"


def render_trace(trace: Trace) -> str:
    return " ~> ".join(render_atom(atom) for atom in trace)


def _atom_table(traces) -> tuple:
    """Number the distinct atoms of ``traces``.

    Returns the distinct atoms in order of first occurrence and each trace
    as a list of atom numbers.  Equal atoms are one node, so the atom
    itself is the key.
    """
    numbers = {}
    rows = [[numbers.setdefault(atom, len(numbers)) for atom in trace] for trace in traces]
    return list(numbers), rows


def _ranks(atoms) -> list:
    """Each atom's position in ``canon_key`` order; equal keys share a rank."""
    keys = [canon_key(atom) for atom in atoms]
    ranks = [0] * len(atoms)
    rank, previous = -1, None
    for number in sorted(range(len(atoms)), key=keys.__getitem__):
        if keys[number] != previous:
            rank, previous = rank + 1, keys[number]
        ranks[number] = rank
    return ranks


def _order(atoms, rows) -> list:
    """The positions of ``rows`` in ``canon_key`` order of the traces they number.

    Fewer than two rows are already in order, so no key is built for
    them.  A trace's key is ``tuple_key`` of its atoms' keys, so comparing
    traces by the ranks of their atoms, element-wise, gives the same order
    while ``canon_key`` runs once per distinct atom.
    """
    if len(rows) < 2:
        return list(range(len(rows)))
    ranks = _ranks(atoms)
    keys = [[ranks[number] for number in row] for row in rows]
    return sorted(range(len(rows)), key=keys.__getitem__)


def sorted_traces(traces) -> list:
    """The traces in ``canon_key`` order."""
    traces = list(traces)
    return [traces[i] for i in _order(*_atom_table(traces))]


def _atom_json(atom) -> str:
    """The atom's JSON fragment, laid out as ``json.dumps(indent=2, sort_keys=True)``."""
    if isinstance(atom, StateAtom):
        fragment = {"state": {name: pretty_sexp(value) for name, value in atom.state.entries}}
    else:
        fragment = {
            "event": {"kind": atom.kind.value, "args": [pretty_exp(arg) for arg in atom.args]}
        }
    return json.dumps(fragment, indent=2, sort_keys=True)


def _json_list(items, indent: str) -> str:
    """A JSON list of laid-out items, as ``json.dumps(indent=2)`` lays it out
    at the depth whose indentation is ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def render_traces(traces, fmt: str = "text") -> str:
    """Render a trace set; the output is byte-deterministic.

    Each distinct atom is formatted once and the output is joined from
    those pieces.  The JSON is what ``json.dumps(indent=2, sort_keys=True)``
    makes of ``{"traces": [[fragment, ...], ...]}``.
    """
    atoms, rows = _atom_table(traces)
    rows = [rows[i] for i in _order(atoms, rows)]
    if fmt == "json":
        # An atom sits at depth 3 of the payload: object, trace list, trace.
        pieces = [_atom_json(atom).replace("\n", "\n      ") for atom in atoms]
        blocks = [_json_list([pieces[n] for n in row], "    ") for row in rows]
        return '{\n  "traces": ' + _json_list(blocks, "  ") + "\n}\n"
    pieces = [render_atom(atom) for atom in atoms]
    count = len(rows)
    header = f"{count} trace" + ("" if count == 1 else "s") + "\n"
    return header + "".join(["\n" + " ~> ".join([pieces[n] for n in row]) + "\n" for row in rows])
