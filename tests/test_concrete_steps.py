"""A concrete ext step builds no mapping, and a node and a layer each expand in one loop.

``compose._local_steps`` keeps a concrete local trace as it is, judged by
its path condition directly, and computes a minimal mapping only for a
symbolic one.  The counts below show that a program without ``input``
builds no mapping at all.  The differential tests check the rule, and
``_scheduled``'s one loop over the markers, against frozen copies of the
rules they replace: the mapping first, then the simplified path
condition, then keep or concretize; and the markers stepped through a
generic expand-all helper.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from lagc import compose
from lagc.compose import initial_state_for, traces_ext
from lagc.concretize import min_conc_map_trace
from lagc.errors import LagcError
from lagc.evaluate import eval_bexp_set, is_concrete
from lagc.localeval import DEFAULT_FRESH_BOUND, DONE, Pending, step
from lagc.parser import parse_program
from lagc.state import is_concrete_state
from lagc.syntax import Assign, Star, Var, holding_nodes
from lagc.trace import is_concrete_trace, is_consistent, last_state, summarize

from gens import (
    NAMES,
    rand_concrete_state,
    rand_concrete_trace,
    rand_ext_stmt,
    rand_state,
    rand_trace,
)
from spec import concretize_trace

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

THREE_BRANCHES = "co x := 1 ;; y := x + 1 || co y := 2 || z := y ;; w := z oc oc"
CALLS = (
    "program { method m(v){ x := v ;; y := x + v } "
    "main { call m(1) ;; co call m(2) || z := 1 oc } }"
)


def _mapping_calls(monkeypatch, source: str) -> int:
    """Calls of the minimal mapping and of the path-condition simplifier in one ``traces_ext``."""
    counts = Counter()
    for name in ("min_conc_map_trace", "eval_bexp_set"):
        original = getattr(compose, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(compose, name, counting)
    program = parse_program(source)
    assert traces_ext(program, initial_state_for(program))
    monkeypatch.undo()
    return sum(counts.values())


@pytest.mark.parametrize(
    "source",
    [(PROGRAMS / "scope_par.ext").read_text(), THREE_BRANCHES, CALLS],
    ids=["scope_par", "three-branch-co", "call"],
)
def test_a_concrete_step_builds_no_mapping(monkeypatch, source):
    assert _mapping_calls(monkeypatch, source) == 0


@pytest.mark.parametrize("name", ["input.ext", "call_input.ext"])
def test_a_symbolic_step_builds_its_mapping(monkeypatch, name):
    assert _mapping_calls(monkeypatch, (PROGRAMS / name).read_text()) > 0


def _frozen_local_steps(marker, sigma, fresh_bound: int, conc_numeral: int) -> tuple:
    """The rule ``_local_steps`` replaced, with no memo: the mapping of every local trace first."""
    steps = []
    for pc, local, after in step(marker, sigma, "ext", fresh_bound):
        local_map = min_conc_map_trace(local, conc_numeral)
        if not is_consistent(eval_bexp_set(pc, local_map)):
            continue
        if is_concrete_trace(local):
            steps.append((local, after, local[1:], None))
        else:
            steps.append((local, after, concretize_trace(local_map, local), local_map))
    return tuple(steps)


def _frozen_expand_all(items, expand) -> list:
    """``(item, expand(item))`` for every item; then the least error, if any failed."""
    results, errors = [], []
    for item in items:
        try:
            results.append((item, expand(item)))
        except LagcError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: (type(exc).__name__, str(exc)))
    return results


def _frozen_scheduled(rep: tuple, fresh_bound: int, conc_numeral: int) -> list:
    """``_scheduled`` before its one loop: the markers through ``_frozen_expand_all``."""
    trace, markers, prefix = rep
    sigma = last_state(trace)
    before = trace[:-1]

    def glue(marker) -> list:
        i = markers.index(marker)
        rest = markers[:i] + markers[i + 1 :]
        steps = _frozen_local_steps(marker, sigma, fresh_bound, conc_numeral)
        if prefix.concrete:
            return [
                (added, rest + (after,), prefix.extend(added[:-1]), rho)
                for _, after, added, rho in steps
            ]
        out = []
        for local, after, _, _ in steps:
            rho = min_conc_map_trace(before + local, conc_numeral)
            added = concretize_trace(rho, local)
            summary = summarize(concretize_trace(rho, before) + added[:-1])
            out.append((added, rest + (after,), summary, rho))
        return out

    pending = [m for m in dict.fromkeys(markers) if isinstance(m, Pending)]
    return [record for _, records in _frozen_expand_all(pending, glue) for record in records]


def _outcome(run):
    """The value of ``run()``, or the type and text of the engine error it raised."""
    try:
        return run()
    except LagcError as exc:
        return (type(exc).__name__, str(exc))


def _kinds(sigma) -> list:
    """Which of concrete, holding ``*`` and storing a symbolic expression ``sigma`` is."""
    if is_concrete_state(sigma):
        return ["concrete"]
    values = [value for _, value in sigma.entries]
    kinds = ["star"] if any(isinstance(value, Star) for value in values) else []
    if any(not isinstance(value, Star) and not is_concrete(value) for value in values):
        kinds.append("symbolic")
    return kinds


def _rand_sigma(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return rand_concrete_state(rng)
    if roll < 0.9:
        return rand_state(rng)
    # a state missing a name, so that some steps fail
    return rand_state(rng, NAMES[: rng.randint(1, 3)])


@pytest.mark.parametrize("numeral", [0, 2])
def test_local_steps_match_the_frozen_rule(numeral):
    rng = random.Random(30 + numeral)
    kinds, kept, failed = Counter(), Counter(), 0
    with holding_nodes():
        for _ in range(1200):
            marker = Pending(rand_ext_stmt(rng, rng.randint(1, 5)))
            sigma = _rand_sigma(rng)
            fresh = rng.choice([0, 1, DEFAULT_FRESH_BOUND])
            want = _outcome(lambda: _frozen_local_steps(marker, sigma, fresh, numeral))
            with compose.memoizing():
                for _ in range(2):
                    got = _outcome(lambda: compose._local_steps(marker, sigma, fresh, numeral))
                    assert got == want, (marker, sigma)
            kinds.update(_kinds(sigma))
            if isinstance(want, tuple) and want and isinstance(want[0], str):
                failed += 1
                continue
            for _, _, _, rho in want:
                kept["kept" if rho is None else "concretized"] += 1
    assert kinds["concrete"] >= 400, kinds
    assert kinds["star"] >= 300, kinds
    assert kinds["symbolic"] >= 150, kinds
    assert kept["kept"] >= 300 and kept["concretized"] >= 300, kept
    assert failed >= 80, failed


FAILING = (Pending(Assign("x", Var("q"))), Pending(Assign("y", Var("p"))))


def _rand_bag(rng: random.Random) -> tuple:
    """Markers with repeats, ``DONE`` and markers that fail on an unbound name."""
    pool = [Pending(rand_ext_stmt(rng, rng.randint(1, 4))) for _ in range(rng.randint(1, 3))]
    pool += [DONE]
    if rng.random() < 0.3:
        pool += rng.sample(FAILING, rng.randint(1, 2))
    return tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))


@pytest.mark.parametrize("numeral", [0, 2])
def test_scheduled_matches_the_frozen_expand_all(numeral):
    rng = random.Random(40 + numeral)
    seen = Counter()
    with holding_nodes():
        for _ in range(800):
            trace = rand_concrete_trace(rng) if rng.random() < 0.6 else rand_trace(rng, max_len=4)
            markers = _rand_bag(rng)
            rep = (trace, markers, summarize(trace[:-1]))
            fresh = rng.choice([0, DEFAULT_FRESH_BOUND])
            want = _outcome(lambda: _frozen_scheduled(rep, fresh, numeral))
            with compose.memoizing():
                got = _outcome(lambda: compose._scheduled(rep, fresh, numeral))
            assert got == want, rep
            seen["concrete prefix" if rep[2].concrete else "symbolic prefix"] += 1
            seen["repeats"] += len(set(markers)) < len(markers)
            seen["done"] += DONE in markers
            seen["error"] += isinstance(want, tuple)
            seen["records"] += isinstance(want, list) and bool(want)
    assert seen["concrete prefix"] >= 450 and seen["symbolic prefix"] >= 150, seen
    assert seen["repeats"] >= 350 and seen["done"] >= 350, seen
    assert seen["error"] >= 150 and seen["records"] >= 350, seen
