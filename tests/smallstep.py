"""Direct small-step interleaving enumerator over plain integer stores.

Deliberately independent of the composition engine: no symbolic states,
no trace atoms, no continuation markers, no local step and no
``substitute``.  A run holds one store, a dict of integers, and one stack
of work items.  An item is a statement together with its renaming, the
store names its ``scope`` variables stand for, or a ``co`` that holds the
stacks of its two branches.  A step runs one ready statement up to the
next scheduling point, inside either branch of a ``co``:

- ``x := e`` appends the updated store to the trace;
- ``scope(x) { S }`` binds ``x`` to a fresh store name, the first of
  ``$x::Scope``, ``c$x::Scope``, ``cc$x::Scope``, ... not in the store,
  and appends the store with that name set to 0; inside another scope of
  ``x``, the name is made from the outer store name instead
  (``$$x::Scope::Scope``), as renaming the outer body renames the inner
  declaration too;
- ``skip``, ``if``, ``while`` and a true ``guard`` append nothing;
- a false ``guard`` cannot step until another branch makes it true.

A sequence, a ``co`` and a ``scope`` without declarations are no step of
their own.  A run ends when its stack is empty or nothing can step, and
its trace is kept either way, so deadlocked runs count.  Covers the
call-free, input-free statements: ``skip``, ``:=``, ``if``, ``while``,
``co``, ``scope`` and ``guard``.  Serves as the differential oracle for
the full traces of both engines.
"""

from typing import NamedTuple

from lagc.syntax import Assign, Guard, If, LocMem, LocPar, Seq, Skip, While

from bigstep import run_aexp, run_bexp


class _Co(NamedTuple):
    left: tuple
    right: tuple


class _View:
    """A store read through a renaming."""

    def __init__(self, store: dict, names: tuple):
        self.store, self.names = store, dict(names)

    def __getitem__(self, name: str) -> int:
        return self.store[self.names.get(name, name)]


def _fresh(name: str, store: dict) -> str:
    fresh = "$" + name + "::Scope"
    while fresh in store:
        fresh = "c" + fresh
    return fresh


def _join(left: tuple, right: tuple, rest: tuple) -> tuple:
    """The two branches of a ``co``, then ``rest``; a finished branch drops out."""
    if not left:
        return right + rest
    if not right:
        return left + rest
    return (_Co(left, right),) + rest


def _steps(stack: tuple, store: dict) -> list:
    """Every step of ``stack`` in ``store``: ``(writes, next stack)``."""
    if not stack:
        return []
    item, rest = stack[0], stack[1:]
    if isinstance(item, _Co):
        out = [(w, _join(left, item.right, rest)) for w, left in _steps(item.left, store)]
        out += [(w, _join(item.left, right, rest)) for w, right in _steps(item.right, store)]
        return out
    stmt, names = item
    view = _View(store, names)
    if isinstance(stmt, Seq):
        return _steps(((stmt.first, names), (stmt.second, names)) + rest, store)
    if isinstance(stmt, LocPar):
        return _steps((_Co(((stmt.left, names),), ((stmt.right, names),)),) + rest, store)
    if isinstance(stmt, Skip):
        return [((), rest)]
    if isinstance(stmt, Assign):
        target = view.names.get(stmt.target, stmt.target)
        return [(((target, run_aexp(stmt.value, view)),), rest)]
    if isinstance(stmt, If):
        taken = ((stmt.body, names),) if run_bexp(stmt.cond, view) else ()
        return [((), taken + rest)]
    if isinstance(stmt, While):
        taken = ((stmt.body, names), item) if run_bexp(stmt.cond, view) else ()
        return [((), taken + rest)]
    if isinstance(stmt, Guard):
        return [((), ((stmt.body, names),) + rest)] if run_bexp(stmt.cond, view) else []
    if isinstance(stmt, LocMem):
        if not stmt.decls:
            return _steps(((stmt.body, names),) + rest, store)
        declared = stmt.decls[0]
        fresh = _fresh(view.names.get(declared, declared), store)
        inner = tuple(sorted({**view.names, declared: fresh}.items()))
        return [(((fresh, 0),), ((LocMem(stmt.decls[1:], stmt.body), inner),) + rest)]
    raise TypeError(f"not covered: {type(stmt).__name__}")


def traces(stmt, store: dict) -> frozenset:
    """Every trace of ``stmt`` run from ``store``, each a tuple of sorted store items."""
    start = tuple(sorted(store.items()))
    todo, seen, out = [((start,), ((stmt, ()),))], set(), set()
    while todo:
        trace, stack = todo.pop()
        if (trace, stack) in seen:
            continue
        seen.add((trace, stack))
        current = dict(trace[-1])
        steps = _steps(stack, current)
        if not steps:
            out.add(trace)
        for writes, after in steps:
            if writes:
                todo.append((trace + (tuple(sorted({**current, **dict(writes)}.items())),), after))
            else:
                todo.append((trace, after))
    return frozenset(out)
