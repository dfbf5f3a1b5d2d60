"""Symbolic states: finite maps from variables to arithmetic expressions or ``*``.

States are hash-consed syntax nodes keyed by their key-value sets, so
equal states are one object, and they iterate in sorted key order, so
traces built from them can live in sets and be rendered deterministically.
A value is the expression itself, with no node around it; a state orders
its values by ``syntax.value_key``, ``*`` before every expression.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple, Union

from .syntax import Node, Num, SExp, Star, canon_key, node_key, tuple_key, value_key

_set = object.__setattr__

BOUND_EXCEEDED_PREFIX = "$BOUND_EXCEEDED::"

Entries = Union[Mapping[str, SExp], Iterable[Tuple[str, SExp]]]


class State(Node):
    """A state, built from (name, value) pairs of which later ones win.

    Besides its entries a state keeps its map for lookups and, once asked,
    whether it is concrete and which names it maps to ``*``.  Each of those
    facts is computed at most once per state, when first asked, and the
    two separately: a wl run asks every state the first and hardly any
    the second.
    """

    __slots__ = ("entries", "_map", "_concrete", "_stars")
    _fields = ("entries",)

    def __new__(cls, entries: tuple = ()):
        mapping = dict(entries)
        state = cls._new(cls, tuple(sorted(mapping.items())))
        if state._map is None:
            # a new state; one found in the table has its map already
            _set(state, "_map", mapping)
        return state

    def _canon(self) -> tuple:
        """The state's ``canon_key``: its entries in name order, each by name and ``value_key``."""
        entries = tuple_key(
            tuple_key((canon_key(name), value_key(value))) for name, value in self.entries
        )
        return node_key(self, (entries,))

    def lookup(self, variable: str) -> Optional[SExp]:
        return self._map.get(variable)

    def __contains__(self, variable: str) -> bool:
        return variable in self._map

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)


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

    Assigning a name the state has keeps the entries' order, so the new
    entries are not sorted again, and their dict becomes the new state's map.
    """
    if variable not in sigma._map:
        return State(sigma.entries + ((variable, value),))
    mapping = dict(sigma.entries)
    mapping[variable] = value
    state = State._new(State, tuple(mapping.items()))
    if state._map is None:
        _set(state, "_map", mapping)
    return state


def star_names(sigma: State) -> tuple:
    """The variables the state maps to the symbolic placeholder, in name order."""
    stars = sigma._stars
    if stars is None:
        stars = tuple(name for name, value in sigma.entries if isinstance(value, Star))
        _set(sigma, "_stars", stars)
    return stars


def is_concrete_state(sigma: State) -> bool:
    """Every image is a plain numeral."""
    concrete = sigma._concrete
    if concrete is None:
        concrete = all(value.__class__ is Num for _, value in sigma.entries)
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

