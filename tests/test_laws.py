"""Algebraic laws of the ext trace semantics, checked on seeded random statements.

Each law compares two statements through ``trace_equivalent`` in ext mode
from the state that maps every variable of the triple to zero.  A triple is
left out of a law only when both sides raise the same kind of engine error
(a divergence or fresh-bound limit under the small policy); one side
raising alone is a counterexample.
"""

import random

import pytest

from lagc.compose import ComposePolicy, initial_state_for, trace_equivalent, traces_ext
from lagc.errors import LagcError
from lagc.syntax import LocPar, Program, Seq, Skip

from gens import rand_ext_stmt

POLICY = ComposePolicy(max_rounds=3, increment=20)
TRIPLES = 150

LAWS = {
    "skip is a left unit of ;;": lambda a, b, c: (Seq(Skip(), a), a),
    ";; is associative": lambda a, b, c: (Seq(Seq(a, b), c), Seq(a, Seq(b, c))),
    "co is commutative": lambda a, b, c: (LocPar(a, b), LocPar(b, a)),
}


def _error(stmt, sigma):
    """The kind of engine error composing ``stmt`` raises, or ``None``."""
    try:
        traces_ext(Program((), stmt), sigma, POLICY)
    except LagcError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("law", LAWS)
def test_law_holds_on_random_triples(law):
    rng = random.Random(90)
    checked = 0
    for _ in range(TRIPLES):
        triple = [rand_ext_stmt(rng, rng.randint(1, 4)) for _ in range(3)]
        left, right = LAWS[law](*triple)
        sigma = initial_state_for(*triple)
        try:
            same = trace_equivalent(left, right, sigma, POLICY, mode="ext")
        except LagcError:
            errors = (_error(left, sigma), _error(right, sigma))
            assert errors[0] is not None and errors[0] is errors[1], (law, left, right, errors)
            continue
        assert same, (law, left, right)
        checked += 1
    assert checked >= TRIPLES // 2
