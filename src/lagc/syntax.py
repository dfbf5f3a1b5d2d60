"""Abstract syntax for expressions, statements, methods and programs.

Two language subsets share one statement type: the plain while language
(``wl``) and its concurrent extension (``ext``).  ``language_check`` tells
them apart.

Syntax nodes are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006).  Constructing a node looks its class and fields up
in a table of the nodes alive and returns the node found there, so equal
nodes are one object: equality is identity and the hash is the object's,
both O(1) however deep the node.  Nodes are immutable.

Outside every ``holding_nodes`` block the table refers to its nodes
weakly, so a node nothing else holds leaves it.  Inside, the table is
the block's arena, a plain dict that starts with the live nodes of the
weak table and holds every node built in the block until the outermost
block ends (region-based allocation; Tofte and Talpin, "Region-based
memory management", 1997).  So a node is looked up in one table and
built there on a miss, with no weak reference; nested blocks share one
arena.  When the block ends, the new nodes still held move to the weak
table and the rest are dropped.

``canon_key`` gives a total order over every syntax value, so that sets
and multisets built from them can be canonicalized deterministically; a
node computes its key once and keeps it.  States, events and
continuation markers are nodes too; a state is its own trace atom, and
an event's atom is an ``EventAtom``.  A state is a shared ``Domain`` of
names and a tuple of values.  A state's value is an arithmetic
expression or ``*`` itself, with no node around it, and states order
their values by ``value_key``: ``*`` first.
"""

from __future__ import annotations

import sys
import weakref
from contextlib import contextmanager
from enum import Enum
from typing import Union

from .errors import ModeError

_set = object.__setattr__


# (class, *fields) -> weak reference to the one node with them, for each
# node built outside every ``holding_nodes`` block or kept after one
_interned: dict = {}


class _Ref(weakref.ref):
    """A table entry's weak reference, which knows its key."""

    __slots__ = ("key",)


def _forget(ref: _Ref, table: dict = _interned) -> None:
    """Drop a dead node's entry, unless a newer node has taken its key."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def _enter(key: tuple, node) -> None:
    """Enter ``node`` in the weak table under ``key``, until it dies."""
    ref = _interned[key] = _Ref(node, _forget)
    ref.key = key


class Node:
    """A syntax node, hash-consed at construction; see the module docstring.

    A node is immutable and, being hash-consed, compares and hashes by
    identity, as ``object`` does.  The constructor takes the fields
    positionally.  Every other slot, such as the memoized ``_key``, starts
    out as ``None`` in a new node, so a memo is read without catching an
    ``AttributeError``.

    Each class gets a constructor for its number of fields, 0 to 3, as
    ``_new`` and, unless the class defines its own ``__new__`` (which then
    calls ``_new``), as ``__new__``.  ``State``, whose fields are a
    ``Domain`` and a tuple of values, and ``Domain``, which fills its slot
    index, define their own.  It takes the fields as positional
    parameters, builds one key tuple, looks it up in the arena if one is
    open and in the weak table if not, and calls the slot setters
    directly, so no ``*args`` tuple, arity check or loop over the fields
    runs per node.
    """

    __slots__ = ("_key", "__weakref__")
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, which goes round the raising ``__setattr__``
        setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        # the setters of the slots that are not fields, each set to None
        memo = tuple(
            getattr(cls, name).__set__
            for klass in cls.__mro__
            for name in vars(klass).get("__slots__", ())
            if name not in cls._fields and name != "__weakref__"
        )
        cls._new = _constructor(cls.__name__, setters, memo)
        if "__new__" not in vars(cls):
            cls.__new__ = cls._new

    def __new__(cls, *fields):
        """``cls``'s own constructor, for a caller that names this one."""
        return cls._new(cls, *fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _canon(self) -> tuple:
        """This node's ``canon_key``, which ``canon_key`` computes once and keeps."""
        return _fields_key(self, self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _field_repr(value) -> str:
    """``repr(value)``, retried through ``uncapped`` when an int is past the cap on digits."""
    try:
        return repr(value)
    except ValueError:
        return uncapped(repr, value)


def _constructor(name: str, setters: tuple, memo: tuple):
    """The constructor of a node class with these field and memo slot setters.

    Inside a block the arena holds every live node (see ``holding_nodes``),
    so a key the arena lacks is a new node, built there and then.  Outside
    every block the key is looked up in the weak table, which a new node
    enters.
    """
    if len(setters) > 3:
        raise TypeError(f"{name} has {len(setters)} fields; a node has at most 3")
    get = _interned.get
    set_a, set_b, set_c = setters + (None,) * (3 - len(setters))

    def fresh(key):
        """A new node of the class ``key[0]`` in the weak table; the caller sets its fields."""
        node = object.__new__(key[0])
        for setter in memo:
            setter(node, None)
        _enter(key, node)
        return node

    def new0(cls):
        key = (cls,)
        arena = _arena
        if arena is not None:
            node = arena.get(key)
            if node is None:
                node = arena[key] = object.__new__(cls)
                for setter in memo:
                    setter(node, None)
            return node
        ref = get(key)
        if ref is None or (node := ref()) is None:
            node = fresh(key)
        return node

    def new1(cls, a):
        key = (cls, a)
        arena = _arena
        if arena is not None:
            node = arena.get(key)
            if node is None:
                node = arena[key] = object.__new__(cls)
                for setter in memo:
                    setter(node, None)
                set_a(node, a)
            return node
        ref = get(key)
        if ref is None or (node := ref()) is None:
            node = fresh(key)
            set_a(node, a)
        return node

    def new2(cls, a, b):
        key = (cls, a, b)
        arena = _arena
        if arena is not None:
            node = arena.get(key)
            if node is None:
                node = arena[key] = object.__new__(cls)
                for setter in memo:
                    setter(node, None)
                set_a(node, a)
                set_b(node, b)
            return node
        ref = get(key)
        if ref is None or (node := ref()) is None:
            node = fresh(key)
            set_a(node, a)
            set_b(node, b)
        return node

    def new3(cls, a, b, c):
        key = (cls, a, b, c)
        arena = _arena
        if arena is not None:
            node = arena.get(key)
            if node is None:
                node = arena[key] = object.__new__(cls)
                for setter in memo:
                    setter(node, None)
                set_a(node, a)
                set_b(node, b)
                set_c(node, c)
            return node
        ref = get(key)
        if ref is None or (node := ref()) is None:
            node = fresh(key)
            set_a(node, a)
            set_b(node, b)
            set_c(node, c)
        return node

    return (new0, new1, new2, new3)[len(setters)]


# (class, *fields) -> the node with them, for each node alive when the
# outermost ``holding_nodes`` block began and then each node built inside
# it, in the order they were built; None outside every block
_arena = None


@contextmanager
def holding_nodes():
    """Keep every node built inside the block alive until the block ends.

    Nodes here include states and events.  A run builds many
    short-lived nodes again and again, such as the numerals a loop test
    compares, the statements a step leaves pending and the states of
    traces it drops.  Held, each is built once and found from then on,
    and a node's identity, and so its hash, stays the same for the whole
    block, so hashes taken at different times of a run compare like the
    values.

    The outermost block opens an arena, a plain table from key to node.
    It starts with the live nodes of the weak table, taken from a copy,
    since a node dying while the table is walked would change it; from
    then on the arena alone is probed, and a new node enters it instead of
    the weak table, so a node built in the block costs one lookup and no
    weak reference.  A block inside another uses the outer block's arena.
    When the outermost block ends, ``_sweep`` empties the arena and moves
    each new node that something still holds into the weak table.
    """
    global _arena
    if _arena is not None:
        yield
        return
    _arena = _live_nodes()
    try:
        yield
    finally:
        arena, _arena = _arena, None
        _sweep(arena)


def _live_nodes() -> dict:
    """Key to node for each node of the weak table still alive, in the table's order.

    It walks a copy of the table: a node that dies during the walk would
    delete its entry from the table itself.
    """
    live = {}
    for key, ref in _interned.copy().items():
        node = ref()
        if node is not None:
            live[key] = node
    return live


def _sweep(arena: dict) -> None:
    """Empty ``arena``, newest node first, keeping the nodes still held findable.

    A node's fields are older than the node, so by the time a node is
    checked every newer node of the arena that held it has been dropped;
    what holds it now lies outside the arena, or is a newer node that was
    itself still held, and so kept.  Such a node enters the weak table,
    under the same key, unless the table already refers to it, as it does
    to each node the arena started with; a node leaves the table when it
    dies.  A memo slot may point at a newer node; that node is kept then,
    which is safe.

    A node is still held when its reference count exceeds that of an
    object only a local variable holds, measured here, since what a local
    adds to the count differs between Python versions.
    """
    count, pop, get = sys.getrefcount, arena.popitem, _interned.get
    probe = object()
    # the references of a node that only this function's local holds
    alone = count(probe)
    while arena:
        key, node = pop()
        if count(node) > alone:
            ref = get(key)
            if ref is None or ref() is not node:
                _enter(key, node)


def uncapped(convert, value):
    """``convert(value)`` with Python's cap on the digits of an int lifted for the call.

    ``convert`` is ``int``, ``str`` or ``repr``.  Python 3.10.7 and later refuse to
    convert an int of more than 4300 digits either way, but wl integers
    are unbounded.  A caller converts as usual and comes here only when
    that fails, so the usual conversion costs nothing more.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        # before 3.10.7 there is no cap, so the conversion failed for another reason
        return convert(value)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(cap)


class ArithOp(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"

    # members are singletons; ``Enum.__hash__`` hashes the name in Python
    __hash__ = object.__hash__


class BoolOp(Enum):
    CONJ = "&&"
    DISJ = "||"

    __hash__ = object.__hash__


class RelOp(Enum):
    LEQ = "<="
    GEQ = ">="
    EQ = "=="

    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Expressions


class Num(Node):
    __slots__ = _fields = ("value",)
    value: int


class Var(Node):
    __slots__ = _fields = ("name",)
    name: str


class ABin(Node):
    __slots__ = _fields = ("left", "op", "right")
    left: AExp
    op: ArithOp
    right: AExp


AExp = Union[Num, Var, ABin]


class BoolLit(Node):
    __slots__ = _fields = ("value",)
    value: bool


TRUE = BoolLit(True)
FALSE = BoolLit(False)


class Neg(Node):
    __slots__ = _fields = ("operand",)
    operand: BExp


class BBin(Node):
    __slots__ = _fields = ("left", "op", "right")
    left: BExp
    op: BoolOp
    right: BExp


class Rel(Node):
    __slots__ = _fields = ("left", "op", "right")
    left: AExp
    op: RelOp
    right: AExp


BExp = Union[BoolLit, Neg, BBin, Rel]


class ArithExp(Node):
    """An arithmetic expression used as a generic expression."""

    __slots__ = _fields = ("arith",)
    arith: AExp


class BoolExp(Node):
    """A Boolean expression used as a generic expression."""

    __slots__ = _fields = ("boolexp",)
    boolexp: BExp


class MethodRef(Node):
    """A method name used as a generic expression (event payloads only)."""

    __slots__ = _fields = ("name",)
    name: str


Exp = Union[ArithExp, BoolExp, MethodRef]


class Star(Node):
    """The symbolic placeholder for a value unknown until concretization."""

    __slots__ = ()


STAR = Star()

# A state value: an arithmetic expression, or ``*``.
SExp = Union[AExp, Star]


# ---------------------------------------------------------------------------
# Statements, methods, programs


class Skip(Node):
    __slots__ = ()


class Assign(Node):
    __slots__ = _fields = ("target", "value")
    target: str
    value: AExp


class If(Node):
    __slots__ = _fields = ("cond", "body")
    cond: BExp
    body: Stmt


class While(Node):
    __slots__ = _fields = ("cond", "body")
    cond: BExp
    body: Stmt


class Seq(Node):
    __slots__ = _fields = ("first", "second")
    first: Stmt
    second: Stmt


class LocPar(Node):
    __slots__ = _fields = ("left", "right")
    left: Stmt
    right: Stmt


class LocMem(Node):
    __slots__ = _fields = ("decls", "body")
    decls: tuple
    body: Stmt


class Input(Node):
    __slots__ = _fields = ("target",)
    target: str


class Guard(Node):
    __slots__ = _fields = ("cond", "body")
    cond: BExp
    body: Stmt


class Call(Node):
    __slots__ = _fields = ("method", "arg")
    method: str
    arg: AExp


Stmt = Union[Skip, Assign, If, While, Seq, LocPar, LocMem, Input, Guard, Call]

EXT_ONLY = (LocPar, LocMem, Input, Guard, Call)


class Method(Node):
    __slots__ = _fields = ("name", "formal", "body")
    name: str
    formal: str
    body: Stmt


class Program(Node):
    __slots__ = _fields = ("methods", "main")
    methods: tuple
    main: Stmt


def seq_spine(stmt: Stmt) -> list:
    """The statements of a ``Seq`` spine in execution order, none of them a ``Seq``.

    Walks the spine with a loop, so a long sequence of either nesting
    does not recurse.
    """
    out, todo = [], [stmt]
    while todo:
        item = todo.pop()
        if isinstance(item, Seq):
            todo.append(item.second)
            todo.append(item.first)
        else:
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# Canonical total order

_KIND_PRIMITIVE = 0
_KIND_STRING = 1
_KIND_TUPLE = 2
_KIND_FROZENSET = 3
_KIND_ENUM = 4
_KIND_NODE = 5


def canon_key(value):
    """Map any syntax-level value onto a totally ordered key.

    Nodes order by constructor name first, then by their fields;
    containers, named tuples among them, order element-wise.  The induced
    order is arbitrary but fixed, which is all that deterministic
    canonicalization needs.  A node's key is computed once, by its
    ``_canon``, and kept in the node.  A state keys its values by
    ``value_key``, not by their own keys.
    """
    if isinstance(value, Node):
        key = value._key
        if key is None:
            key = value._canon()
            _set(value, "_key", key)
        return key
    if isinstance(value, bool):
        return (_KIND_PRIMITIVE, 0, int(value))
    if isinstance(value, int):
        return (_KIND_PRIMITIVE, 1, value)
    if isinstance(value, str):
        return (_KIND_STRING, value)
    if isinstance(value, tuple):
        return tuple_key(canon_key(v) for v in value)
    if isinstance(value, frozenset):
        return (_KIND_FROZENSET, tuple(sorted(canon_key(v) for v in value)))
    if isinstance(value, Enum):
        return (_KIND_ENUM, type(value).__name__, value.name)
    if hasattr(value, "__dataclass_fields__"):
        # a dataclass defined outside lagc; its class loaded the module
        import dataclasses

        return _fields_key(value, [f.name for f in dataclasses.fields(value)])
    raise TypeError(f"no canonical order for {type(value).__name__}")


def _fields_key(value, names) -> tuple:
    return node_key(value, [canon_key(getattr(value, n)) for n in names])


def node_key(node, field_keys) -> tuple:
    """``canon_key`` of a node, given the keys of its fields in order."""
    return (_KIND_NODE, type(node).__name__, tuple(field_keys))


def tuple_key(element_keys) -> tuple:
    """``canon_key`` of a tuple, given the keys of its elements in order."""
    return (_KIND_TUPLE, tuple(element_keys))


# ``value_key`` of ``*``, less than that of every arithmetic expression
_STAR_KEY = (0,)


def value_key(value: SExp) -> tuple:
    """The key a state orders a value by: ``*`` first, then expressions by ``canon_key``.

    This is the one rule for ordering state values, which ``State``'s key
    and ``render``'s ranks both follow, and it fixes the order of rendered
    trace sets.  The values' own keys, which start with the class name,
    would put ``*`` between numerals and variables.
    """
    return _STAR_KEY if value.__class__ is Star else (1, canon_key(value))


# ---------------------------------------------------------------------------
# Free variables


# Every class ``occurrences`` walks; a subclass walks as its base among them.
_WALKED = frozenset({
    Num, BoolLit, MethodRef, Star, Skip, Var, ABin, Rel, BBin, LocPar, Neg, ArithExp, BoolExp,
    tuple, Assign, If, While, Guard, Seq, LocMem, Input, Call, Method, Program,
})


def occurrences(item) -> list:
    """Left-to-right list of free variable occurrences, duplicates kept.

    Scope declarations and method formals bind, so their occurrences in the
    respective bodies are left out.  Works on any syntax value, state values
    and event arguments included; a tuple stands for the names it holds.
    The walk keeps its own stack, each item with the names bound around
    it, so a long program or expression does not recurse.  It tells the
    classes apart by identity, the most frequent first, and pushes a
    node's parts directly; a subclass walks as the class it derives from.
    """
    out, todo = [], [(item, frozenset())]
    append, push = out.append, todo.append
    while todo:
        item, bound = todo.pop()
        cls = item.__class__
        if cls not in _WALKED:
            cls = next((base for base in cls.__mro__ if base in _WALKED), None)
            if cls is None:
                raise TypeError(f"occurrences: unsupported {type(item).__name__}")
        if cls is Var:
            if item.name not in bound:
                append(item.name)
        elif cls is Num or cls is BoolLit or cls is MethodRef or cls is Star or cls is Skip:
            pass
        elif cls is ABin or cls is Rel or cls is BBin or cls is LocPar:
            todo += (item.right, bound), (item.left, bound)
        elif cls is Assign:
            if item.target not in bound:
                append(item.target)
            push((item.value, bound))
        elif cls is Seq:
            todo += (item.second, bound), (item.first, bound)
        elif cls is If or cls is While or cls is Guard:
            todo += (item.body, bound), (item.cond, bound)
        elif cls is Neg:
            push((item.operand, bound))
        elif cls is ArithExp:
            push((item.arith, bound))
        elif cls is BoolExp:
            push((item.boolexp, bound))
        elif cls is tuple:
            out += [name for name in item if name not in bound]
        elif cls is LocMem:
            push((item.body, bound.union(item.decls)))
        elif cls is Input:
            if item.target not in bound:
                append(item.target)
        elif cls is Call:
            push((item.arg, bound))
        elif cls is Method:
            push((item.body, bound | {item.formal}))
        else:  # Program, the last class left
            todo += [(part, bound) for part in reversed((*item.methods, item.main))]
    return out


# ---------------------------------------------------------------------------
# Substitution


def substitute(item, old: str, new: str):
    """Rename every occurrence of ``old`` to ``new``, binders included."""
    if isinstance(item, (Num, BoolLit, MethodRef, Star, Skip)):
        return item
    if isinstance(item, Var):
        return Var(new) if item.name == old else item
    if isinstance(item, ABin):
        return ABin(substitute(item.left, old, new), item.op, substitute(item.right, old, new))
    if isinstance(item, Neg):
        return Neg(substitute(item.operand, old, new))
    if isinstance(item, BBin):
        return BBin(substitute(item.left, old, new), item.op, substitute(item.right, old, new))
    if isinstance(item, Rel):
        return Rel(substitute(item.left, old, new), item.op, substitute(item.right, old, new))
    if isinstance(item, ArithExp):
        return ArithExp(substitute(item.arith, old, new))
    if isinstance(item, BoolExp):
        return BoolExp(substitute(item.boolexp, old, new))
    if isinstance(item, tuple):
        return tuple(
            (new if element == old else element) if isinstance(element, str)
            else substitute(element, old, new)
            for element in item
        )
    if isinstance(item, Assign):
        target = new if item.target == old else item.target
        return Assign(target, substitute(item.value, old, new))
    if isinstance(item, If):
        return If(substitute(item.cond, old, new), substitute(item.body, old, new))
    if isinstance(item, While):
        return While(substitute(item.cond, old, new), substitute(item.body, old, new))
    if isinstance(item, Seq):
        # walk a left-nested spine with a loop and rebuild the same shape
        seconds = []
        while isinstance(item, Seq):
            seconds.append(item.second)
            item = item.first
        out = substitute(item, old, new)
        for second in reversed(seconds):
            out = Seq(out, substitute(second, old, new))
        return out
    if isinstance(item, LocPar):
        return LocPar(substitute(item.left, old, new), substitute(item.right, old, new))
    if isinstance(item, LocMem):
        return LocMem(substitute(item.decls, old, new), substitute(item.body, old, new))
    if isinstance(item, Input):
        return Input(new if item.target == old else item.target)
    if isinstance(item, Guard):
        return Guard(substitute(item.cond, old, new), substitute(item.body, old, new))
    if isinstance(item, Call):
        return Call(item.method, substitute(item.arg, old, new))
    if isinstance(item, Method):
        formal = new if item.formal == old else item.formal
        return Method(item.name, formal, substitute(item.body, old, new))
    if isinstance(item, Program):
        return Program(
            tuple(substitute(m, old, new) for m in item.methods),
            substitute(item.main, old, new),
        )
    raise TypeError(f"substitute: unsupported {type(item).__name__}")


# ---------------------------------------------------------------------------
# Language subset check


def check_mode(mode: str) -> str:
    if mode not in ("wl", "ext"):
        raise ModeError(f"unknown language mode {mode!r}")
    return mode


def language_check(stmt: Stmt, mode: str) -> bool:
    """True iff ``stmt`` stays within the selected language subset.

    The walk keeps its own stack, so deep nesting does not recurse.
    """
    check_mode(mode)
    if mode == "ext":
        return True
    todo = [stmt]
    while todo:
        stmt = todo.pop()
        # identity first: most statements met here are sequences
        if stmt.__class__ is Seq or isinstance(stmt, Seq):
            todo += stmt.second, stmt.first
        elif isinstance(stmt, (If, While)):
            todo.append(stmt.body)
        elif isinstance(stmt, EXT_ONLY):
            return False
    return True
