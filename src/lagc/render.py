"""Pretty-printing for syntax values and deterministic trace rendering.

``parse_program(pretty_program(p))`` returns ``p`` for every program, and
trace output is byte-identical across runs: states list their variables in
sorted order and trace sets are sorted by the canonical syntax order.  A
state's value is an arithmetic expression, printed as one, or ``*``, and
``*`` sorts before every expression (``syntax.value_key``).
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter

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
    uncapped,
    value_key,
)

_ADDSUB = 1
_MUL = 2

_DISJ = 1
_CONJ = 2
_NOT = 3

_SEQ = 1
_STMT = 2


def pretty_aexp(a, min_prec: int = _ADDSUB) -> str:
    if isinstance(a, Num):
        try:
            return str(a.value)
        except ValueError:
            return uncapped(str, a.value)
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
    return "*" if s.__class__ is Star else pretty_aexp(s)


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


# The {state value: text} memo of the ``render_traces`` call under way, or
# None: ``render_state`` and ``_atom_json`` share it, so a call formats each
# distinct value once.
_texts = None


def render_state(sigma: State) -> str:
    texts = {} if _texts is None else _texts
    parts = [f"{name}={texts.get(v) or texts.setdefault(v, pretty_sexp(v))}"
             for name, v in sigma.entries]
    return "{" + ", ".join(parts) + "}"


def render_atom(atom) -> str:
    if isinstance(atom, State):
        return render_state(atom)
    args = ", ".join(pretty_exp(arg) for arg in atom.args)
    return f"Event({atom.kind.value}, [{args}])"


def _dense_ranks(items, key, start: int = 0) -> dict:
    """Number ``items`` from ``start`` in ``key`` order; equal keys share a number."""
    keyed = sorted([(key(item), item) for item in items], key=itemgetter(0))
    ranks = {}
    for rank, (_, group) in enumerate(groupby(keyed, itemgetter(0)), start):
        for _, item in group:
            ranks[item] = rank
    return ranks


def _atom_ranks(atoms) -> dict:
    """Each atom's rank in ``canon_key`` order; equal keys share a rank.

    A state is its own atom.  Keys order nodes by class name first, and
    ``"EventAtom" < "State"``, so every event ranks before every state,
    and events are ranked by their keys.  A state's key compares its
    entries in name order, each by name and then by its value's
    ``value_key`` (``*`` before every expression), and a state whose
    entries begin another's sorts first.  So only the distinct values are
    ranked, by ``value_key``, and a state is ranked by the tuple of
    ``(name, value rank)`` over its entries, which orders states as their
    keys do while comparing small integers.
    """
    states, events = [], []
    for atom in atoms:
        (states if atom.__class__ is State else events).append(atom)
    value_rank = _dense_ranks(
        {value for sigma in states for _, value in sigma.entries}, value_key
    )

    def state_key(sigma) -> tuple:
        return tuple([(name, value_rank[value]) for name, value in sigma.entries])

    ranks = _dense_ranks(events, canon_key)
    ranks.update(_dense_ranks(states, state_key, len(events)))
    return ranks


def _ordered(traces) -> tuple:
    """The traces as a list in ``canon_key`` order, and the set of their atoms.

    A trace's key compares its atoms' keys element-wise, shorter first, so
    comparing traces by the lists of their atoms' ranks gives the same
    order, and ties keep their input order.  Fewer than two traces are
    already in order, so no key is built for them.
    """
    traces = list(traces)
    atoms = set().union(*traces)
    if len(traces) > 1:
        rank = _atom_ranks(atoms)
        traces.sort(key=lambda trace: list(map(rank.__getitem__, trace)))
    return traces, atoms


# An atom sits at depth 3 of the JSON payload: object, trace list, trace.
_DEPTH3 = "\n      "


def _atom_json(atom) -> str:
    """The atom's JSON fragment at depth 3, laid out as ``json.dumps(indent=2, sort_keys=True)``.

    A state's entries are already in name order, so its fragment is laid
    out directly and only its strings go through ``json.dumps``.
    """
    if atom.__class__ is not State:
        fragment = {
            "event": {"kind": atom.kind.value, "args": [pretty_exp(arg) for arg in atom.args]}
        }
        return json.dumps(fragment, indent=2, sort_keys=True).replace("\n", _DEPTH3)
    entries = atom.entries
    if not entries:
        return '{\n        "state": {}\n      }'
    dumps, texts = json.dumps, {} if _texts is None else _texts
    parts = [dumps(name) + ": " + dumps(texts.get(v) or texts.setdefault(v, pretty_sexp(v)))
             for name, v in entries]
    inner = ",\n          ".join(parts)
    return '{\n        "state": {\n          ' + inner + "\n        }\n      }"


def render_traces(traces, fmt: str = "text") -> str:
    """Render a trace set; the output is byte-deterministic.

    Each distinct atom is formatted once, each distinct state value once
    for all the states that hold it, and every row is joined from those
    pieces.  The JSON is what ``json.dumps(indent=2, sort_keys=True)``
    makes of ``{"traces": [[fragment, ...], ...]}``.
    """
    global _texts
    traces, atoms = _ordered(traces)
    form = _atom_json if fmt == "json" else render_atom
    _texts = {}
    try:
        piece = {atom: form(atom) for atom in atoms}
    finally:
        _texts = None
    if fmt == "json":
        rows = [
            "[" + _DEPTH3 + ("," + _DEPTH3).join(map(piece.__getitem__, trace)) + "\n    ]"
            if trace else "[]"
            for trace in traces
        ]
        if not rows:
            return '{\n  "traces": []\n}\n'
        return '{\n  "traces": [\n    ' + ",\n    ".join(rows) + "\n  ]\n}\n"
    rows = [" ~> ".join(map(piece.__getitem__, trace)) for trace in traces]
    count = len(rows)
    header = f"{count} trace" + ("" if count == 1 else "s") + "\n"
    return header + "\n" + "\n\n".join(rows) + "\n" if rows else header
