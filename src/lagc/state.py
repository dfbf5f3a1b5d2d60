"""Symbolic states: finite maps from variables to arithmetic expressions or ``*``.

States are hash-consed syntax nodes, so equal states are one object.  A
state is a ``Domain``, the sorted names it maps, and a tuple of values
in that order.  All the states over the same names share one domain,
which also holds each name's slot (the "maps" of SELF; Chambers, Ungar
and Lee, "An Efficient Implementation of SELF", 1989).  So an assignment
to a name the state has copies one tuple and builds no dict, and traces
built from states can live in sets and be rendered deterministically.
A value is the expression itself, with no node around it; a state orders
its values by ``syntax.value_key``, ``*`` before every expression.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Optional, Tuple, Union

from .syntax import Node, Num, SExp, Star, _field_repr, canon_key, node_key, tuple_key, value_key

_set = object.__setattr__

BOUND_EXCEEDED_PREFIX = "$BOUND_EXCEEDED::"

Entries = Union[Mapping[str, SExp], Iterable[Tuple[str, SExp]]]


class Domain(Node):
    """The sorted names some states map, and ``index``: each name's slot.

    The index is built once, when the domain is.
    """

    __slots__ = ("names", "index")
    _fields = ("names",)

    def __new__(cls, names: tuple):
        domain = cls._new(cls, names)
        if domain.index is None:
            _set(domain, "index", {name: slot for slot, name in enumerate(names)})
        return domain


class State(Node):
    """A state, built from (name, value) pairs of which later ones win.

    Its fields are its ``domain`` and its ``values``, the value of each
    name of the domain in the same order; ``entries`` pairs them up.
    Besides those a state keeps, once asked, whether it is concrete and
    which names it maps to ``*``.  Each of those facts is computed at most
    once per state, when first asked, and the two separately: a wl run
    asks every state the first and hardly any the second.
    """

    __slots__ = ("domain", "values", "_concrete", "_stars")
    _fields = ("domain", "values")

    def __new__(cls, entries: tuple = ()):
        mapping = dict(entries)
        names = tuple(sorted(mapping))
        return cls._new(cls, Domain(names), tuple([mapping[name] for name in names]))

    @property
    def entries(self) -> tuple:
        """The (name, value) pairs in name order."""
        return tuple(zip(self.domain.names, self.values))

    def _canon(self) -> tuple:
        """The state's ``canon_key``: its entries in name order, each by name and ``value_key``."""
        entries = tuple_key(
            tuple_key((canon_key(name), value_key(value)))
            for name, value in zip(self.domain.names, self.values)
        )
        return node_key(self, (entries,))

    def __repr__(self) -> str:
        return f"State(entries={_field_repr(self.entries)})"

    def lookup(self, variable: str) -> Optional[SExp]:
        slot = self.domain.index.get(variable)
        return None if slot is None else self.values[slot]

    def __contains__(self, variable: str) -> bool:
        return variable in self.domain.index

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict:
        return dict(zip(self.domain.names, self.values))


EMPTY_STATE = State()


def make_state(entries: Entries) -> State:
    """Build a state from a mapping or (name, value) pairs; later pairs win.

    Every value must be an arithmetic expression or ``*``.  The engine's own
    ``State(...)`` and ``update`` build states from values it made, and
    check nothing.
    """
    if isinstance(entries, Mapping):
        entries = entries.items()
    entries = tuple(entries)
    for name, value in entries:
        if not isinstance(value, SExp):
            raise TypeError(f"make_state: unsupported {type(value).__name__} for {name!r}")
    return State(entries)


def update(sigma: State, variable: str, value: SExp) -> State:
    """``sigma`` with ``variable`` mapped to ``value``.

    Assigning a name the state has keeps its domain and copies the values
    with that slot replaced.  A new name goes in at its place in name
    order, with its value, and the domain of the new names is found or
    built once.
    """
    domain = sigma.domain
    slot = domain.index.get(variable)
    if slot is not None:
        values = list(sigma.values)
        values[slot] = value
        return State._new(State, domain, tuple(values))
    names, values = domain.names, sigma.values
    slot = bisect_left(names, variable)
    return State._new(
        State,
        Domain(names[:slot] + (variable,) + names[slot:]),
        values[:slot] + (value,) + values[slot:],
    )


def star_names(sigma: State) -> tuple:
    """The variables the state maps to the symbolic placeholder, in name order."""
    stars = sigma._stars
    if stars is None:
        stars = tuple(
            name for name, value in zip(sigma.domain.names, sigma.values)
            if isinstance(value, Star)
        )
        _set(sigma, "_stars", stars)
    return stars


def is_concrete_state(sigma: State) -> bool:
    """Every image is a plain numeral."""
    concrete = sigma._concrete
    if concrete is None:
        concrete = all(value.__class__ is Num for value in sigma.values)
        _set(sigma, "_concrete", concrete)
    return concrete


def vargen(sigma: State, n: int, bound: int, variable: str) -> str:
    """Deterministic fresh-name search: prepend 'c' until outside the domain.

    When the bound runs out the standardized failure name is returned;
    ``localeval.fresh_name`` turns that into a hard error.
    """
    while bound > 0:
        candidate = "c" * n + variable
        if candidate not in sigma:
            return candidate
        n += 1
        bound -= 1
    return BOUND_EXCEEDED_PREFIX + variable


def initial_state(variables: Iterable[str]) -> State:
    """Map each distinct variable to the numeral 0."""
    zero = Num(0)
    return State(tuple((name, zero) for name in dict.fromkeys(variables)))

