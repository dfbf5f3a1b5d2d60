import json
import random

from lagc import render
from lagc.compose import initial_state_for, traces_ext, traces_wl
from lagc.render import (
    render_state,
    render_trace,
    render_traces,
    sorted_traces,
)
from lagc.state import make_state
from lagc.syntax import Num, STAR, StoredExp, canon_key

from gens import rand_concrete_trace, rand_trace
from samples import EXT_INPUT, SIGMA1, TAU1, WL_FACTORIAL


def test_render_state_sorted_keys():
    sigma = make_state({"y": StoredExp(Num(720)), "x": StoredExp(Num(1))})
    assert render_state(sigma) == "{x=1, y=720}"
    assert render_state(SIGMA1) == "{x=y * 4, y=*}"
    assert render_state(make_state({"s": STAR})) == "{s=*}"


def test_render_trace_atoms():
    assert (
        render_trace(TAU1)
        == "{x=y * 4, y=*} ~> Event(inpEv, []) ~> {x=y * 4, y=*}"
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
    assert sorted_traces(traces) == sorted_traces(reversed(traces))


def test_sorted_traces_follows_canon_key():
    rng = random.Random(58)
    for _ in range(100):
        prefixes = [make(rng, max_len=3) for make in (rand_trace, rand_concrete_trace) * 3]
        traces = {
            rng.choice(prefixes) + rng.choice((rand_trace, rand_concrete_trace))(rng, max_len=3)
            for _ in range(rng.randint(0, 12))
        }
        assert sorted_traces(traces) == sorted(traces, key=canon_key)


def test_sorted_traces_builds_no_key_for_fewer_than_two(monkeypatch):
    def no_key(value):
        raise AssertionError("a lone trace needs no sort key")

    monkeypatch.setattr(render, "canon_key", no_key)
    trace = rand_trace(random.Random(59))
    for make in (list, iter):
        assert sorted_traces(make([])) == []
        (alone,) = sorted_traces(make([trace]))
        assert alone is trace
