"""Concretization mappings for states and traces.

A concretization mapping is itself a concrete state covering exactly the
symbolic variables of its target.  Applying one evaluates the target under
the mapping and then lets the mapping win on common keys.  The minimal
mapping sends every symbolic variable to one fixed numeral, which is what
the composition engine uses at every step.

Concretization works atom by atom (``concretize_atom``), so the engine
maps each distinct pair of a mapping and an atom once per command and
reuses the result (``compose._concretize``).  Which names a state maps to
``*`` is kept with the state (``state.star_names``), so the minimal
mapping of a trace reads one slot per state and builds no state of its
own but the result.
"""

from __future__ import annotations

from .evaluate import eval_exp_list, eval_sexp
from .state import EMPTY_STATE, State, star_names
from .syntax import Num
from .trace import EventAtom, Trace


def apply_conc_state(rho: State, sigma: State) -> State:
    """Simplify ``sigma`` under ``rho``, then merge with ``rho`` winning."""
    merged = {name: eval_sexp(value, rho) for name, value in sigma.entries}
    merged.update(rho.as_dict())
    return State(tuple(merged.items()))


def min_conc_map_trace(trace: Trace, numeral: int) -> State:
    """Combine the minimal mappings of all states, later states winning.

    Every image is the same numeral, so the mapping is that numeral on
    every name some state maps to ``*``: ``EMPTY_STATE`` for a concrete
    trace.
    """
    names = set()
    for atom in trace:
        if isinstance(atom, State):
            names.update(star_names(atom))
    if not names:
        return EMPTY_STATE
    value = Num(numeral)
    return State(tuple((name, value) for name in names))


def concretize_atom(rho: State, atom):
    if isinstance(atom, State):
        return apply_conc_state(rho, atom)
    return EventAtom(atom.kind, eval_exp_list(atom.args, rho))

