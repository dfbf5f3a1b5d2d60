import functools
import json
import random
from collections import Counter

from lagc import render
from lagc.compose import initial_state_for, traces_ext, traces_wl
from lagc.render import render_atom, render_state, render_traces
from lagc.state import State, make_state
from lagc.syntax import ArithExp, MethodRef, Num, STAR, canon_key, tuple_key
from lagc.trace import EventAtom, EventKind

from gens import rand_aexp, rand_concrete_trace, rand_trace
from samples import EXT_INPUT, SIGMA1, TAU1, WL_FACTORIAL


def test_render_state_sorted_keys():
    sigma = make_state({"y": Num(720), "x": Num(1)})
    assert render_state(sigma) == "{x=1, y=720}"
    assert render_state(SIGMA1) == "{x=y * 4, y=*}"
    assert render_state(make_state({"s": STAR})) == "{s=*}"


def test_render_trace_atoms():
    assert (
        render_traces({TAU1})
        == "1 trace\n\n" + "{x=y * 4, y=*} ~> Event(inpEv, []) ~> {x=y * 4, y=*}" + "\n"
    )


def test_render_empty_set():
    assert render_traces(frozenset(), "text") == "0 traces\n"


def test_render_factorial():
    traces = traces_wl(WL_FACTORIAL, initial_state_for(WL_FACTORIAL))
    text = render_traces(traces, "text")
    assert text.startswith("1 trace\n")
    assert text.count("~>") == 12
    assert text.rstrip().endswith("{x=1, y=720}")


def test_render_json_input_event():
    traces = traces_ext(EXT_INPUT, initial_state_for(EXT_INPUT))
    payload = json.loads(render_traces(traces, "json"))
    assert len(payload["traces"]) == 1
    atoms = payload["traces"][0]
    assert {"event": {"kind": "inpEv", "args": ["0"]}} in atoms
    assert atoms[0] == {"state": {"x": "0", "$x::Input": "0"}}


def test_render_deterministic():
    traces = traces_ext(EXT_INPUT, initial_state_for(EXT_INPUT))
    for fmt in ("text", "json"):
        assert render_traces(traces, fmt) == render_traces(set(traces), fmt)


def test_sorted_traces_is_stable():
    traces = list(traces_wl(WL_FACTORIAL, initial_state_for(WL_FACTORIAL)))
    assert render._ordered(traces)[0] == render._ordered(reversed(traces))[0]


def test_sorted_traces_follows_canon_key():
    rng = random.Random(58)
    for _ in range(100):
        prefixes = [make(rng, max_len=3) for make in (rand_trace, rand_concrete_trace) * 3]
        traces = {
            rng.choice(prefixes) + rng.choice((rand_trace, rand_concrete_trace))(rng, max_len=3)
            for _ in range(rng.randint(0, 12))
        }
        assert render._ordered(traces)[0] == sorted(traces, key=canon_key)


def test_sorted_traces_builds_no_key_for_fewer_than_two(monkeypatch):
    def no_key(value):
        raise AssertionError("a lone trace needs no sort key")

    monkeypatch.setattr(render, "canon_key", no_key)
    trace = rand_trace(random.Random(59))
    for make in (list, iter):
        assert render._ordered(make([]))[0] == []
        (alone,) = render._ordered(make([trace]))[0]
        assert alone is trace


def _whole_payload_render(traces, fmt):
    """The renderer as it was before atoms were formatted once: one sort key
    per trace and one ``json.dumps`` over the whole payload."""
    atom_key = functools.cache(canon_key)
    ordered = sorted(traces, key=lambda trace: tuple_key(map(atom_key, trace)))
    if fmt == "json":
        payload = {"traces": [[_atom_payload(atom) for atom in t] for t in ordered]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    header = f"{len(ordered)} trace" + ("" if len(ordered) == 1 else "s") + "\n"
    return header + "".join("\n" + " ~> ".join(map(render_atom, t)) + "\n" for t in ordered)


def _atom_payload(atom):
    if isinstance(atom, State):
        return {"state": {name: render.pretty_sexp(value) for name, value in atom.entries}}
    return {"event": {"kind": atom.kind.value, "args": [render.pretty_exp(a) for a in atom.args]}}


def _rebuilt(seed):
    """A random trace whose atoms are built afresh on every call."""
    return rand_trace(random.Random(seed))


def _trace_sets(rng):
    empty_state = make_state({})
    no_args = EventAtom(EventKind.INPUT, ())
    yield frozenset()
    yield frozenset({rand_trace(rng)})
    yield frozenset({(empty_state,), (empty_state, no_args, empty_state)})
    yield frozenset({(), _rebuilt(1)})
    for _ in range(60):
        prefixes = [rand_trace(rng, max_len=3) for _ in range(4)]
        traces = {
            rng.choice(prefixes)[:-1] + rand_trace(rng, max_len=3)
            for _ in range(rng.randint(2, 12))
        }
        seeds = [rng.randrange(1000) for _ in range(3)]
        traces |= {_rebuilt(a)[:-1] + _rebuilt(b) for a in seeds for b in seeds}
        traces.add(rng.choice(prefixes)[:-1] + (empty_state, no_args, empty_state))
        yield frozenset(traces)


def test_render_traces_matches_the_whole_payload_renderer():
    for traces in _trace_sets(random.Random(60)):
        for fmt in ("text", "json"):
            assert render_traces(traces, fmt) == _whole_payload_render(traces, fmt)


def test_render_traces_formats_each_distinct_atom_once(monkeypatch):
    formatted = Counter()

    def counting(format_atom):
        def wrapper(atom):
            formatted[atom] += 1
            return format_atom(atom)

        return wrapper

    monkeypatch.setattr(render, "render_atom", counting(render.render_atom))
    monkeypatch.setattr(render, "_atom_json", counting(render._atom_json))
    for traces in _trace_sets(random.Random(61)):
        distinct = {atom for trace in traces for atom in trace}
        for fmt in ("text", "json"):
            formatted.clear()
            render_traces(traces, fmt)
            assert formatted == Counter(distinct)



def test_render_traces_formats_each_distinct_stored_value_once(monkeypatch):
    # the states of one call share a memo of value texts, in text and JSON
    printed = Counter()
    pretty_sexp = render.pretty_sexp

    def counting(value):
        printed[value] += 1
        return pretty_sexp(value)

    monkeypatch.setattr(render, "pretty_sexp", counting)
    shared = 0
    for traces in _trace_sets(random.Random(62)):
        entries = [
            value
            for atom in {atom for trace in traces for atom in trace}
            if isinstance(atom, State)
            for _, value in atom.entries
        ]
        shared += len(entries) > len(set(entries))
        for fmt in ("text", "json"):
            printed.clear()
            render_traces(traces, fmt)
            assert printed == Counter(set(entries))
    # most sets hold one value in several states
    assert shared > 30

def test_sorted_traces_gives_atoms_with_equal_keys_equal_ranks(monkeypatch):
    # the coarse key ties the values of one class, and every two events;
    # values rank by ``value_key`` and events by ``canon_key``, both coarse here
    def coarse_key(value):
        return type(value).__name__

    def atom_key(atom):
        if isinstance(atom, State):
            return (1, tuple((name, coarse_key(value)) for name, value in atom.entries))
        return (0, coarse_key(atom))

    monkeypatch.setattr(render, "canon_key", coarse_key)
    monkeypatch.setattr(render, "value_key", coarse_key)
    rng = random.Random(62)
    for _ in range(50):
        traces = [rand_trace(rng, max_len=3) for _ in range(rng.randint(2, 8))]
        expected = sorted(traces, key=lambda trace: [atom_key(atom) for atom in trace])
        assert render._ordered(traces)[0] == expected
        atoms = set().union(*traces)
        ranks = render._atom_ranks(atoms)
        for a in atoms:
            for b in atoms:
                assert (ranks[a] == ranks[b]) == (atom_key(a) == atom_key(b))


def _rand_value(rng):
    roll = rng.random()
    if roll < 0.25:
        return STAR
    if roll < 0.7:
        return Num(rng.randint(-12, 12))
    return rand_aexp(rng, depth=2)


def _rand_atom(rng):
    if rng.random() < 0.2:
        kind = rng.choice(list(EventKind))
        args = () if kind is EventKind.INPUT else (
            MethodRef(rng.choice("mn")),
            ArithExp(Num(rng.randint(-3, 3))),
        )
        return EventAtom(kind, args)
    # names taken in order from a prefix, so entry lists are often prefixes of one another
    names = [name for name in "abcde"[: rng.randint(0, 5)] if rng.random() < 0.8]
    return make_state({name: _rand_value(rng) for name in names})


def test_atom_ranks_order_atoms_as_canon_key_does():
    rng = random.Random(63)
    for _ in range(150):
        atoms = {_rand_atom(rng) for _ in range(rng.randint(1, 25))}
        atoms.add(make_state({}))
        ranks = render._atom_ranks(atoms)
        assert sorted(atoms, key=ranks.__getitem__) == sorted(atoms, key=canon_key)
        for a in atoms:
            for b in atoms:
                assert (ranks[a] < ranks[b]) == (canon_key(a) < canon_key(b))
                assert (ranks[a] == ranks[b]) == (canon_key(a) == canon_key(b))
