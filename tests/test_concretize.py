import random

from lagc.concretize import (
    apply_conc_state,
    min_conc_map_trace,
)
from lagc.state import EMPTY_STATE, is_concrete_state, make_state
from lagc.syntax import Num, STAR
from lagc.trace import (
    EventAtom,
    EventKind,
    is_concrete_trace,
)

from gens import rand_concrete_state, rand_concrete_trace, rand_state, rand_trace
from samples import PI1, SIGMA1, SIGMA2, TAU1
from spec import (
    CondTrace,
    concretize_cond_trace,
    concretize_trace,
    domain,
    is_conc_map_state,
    is_conc_map_trace,
    min_conc_map_state,
    trace_symbolic_vars,
)

RHO_Y2 = make_state({"y": Num(2)})


def test_is_conc_map_state():
    assert is_conc_map_state(EMPTY_STATE, EMPTY_STATE)
    assert is_conc_map_state(EMPTY_STATE, SIGMA2)
    assert not is_conc_map_state(make_state({"x": STAR}), SIGMA2)
    assert is_conc_map_state(RHO_Y2, SIGMA1)
    # rho must hit exactly the symbolic variables among shared names
    assert not is_conc_map_state(make_state({"x": Num(1)}), SIGMA1)


def test_apply_conc_state():
    assert apply_conc_state(RHO_Y2, EMPTY_STATE) == RHO_Y2
    assert apply_conc_state(RHO_Y2, SIGMA1) == SIGMA2
    rng = random.Random(41)
    for _ in range(100):
        sigma = rand_concrete_state(rng)
        assert apply_conc_state(EMPTY_STATE, sigma) == sigma


def test_apply_conc_state_domain():
    rng = random.Random(42)
    for _ in range(100):
        sigma = rand_state(rng)
        rho = min_conc_map_state(sigma, 0)
        assert domain(apply_conc_state(rho, sigma)) == domain(rho) | domain(sigma)
        assert is_concrete_state(apply_conc_state(rho, sigma))


def test_min_conc_map_state():
    assert min_conc_map_state(SIGMA1, 0) == make_state({"y": Num(0)})
    assert min_conc_map_state(SIGMA2, 7) == EMPTY_STATE
    rng = random.Random(43)
    for _ in range(100):
        sigma = rand_state(rng)
        assert domain(min_conc_map_state(sigma, 0)) == frozenset(
            name for name, value in sigma.entries if value == STAR
        )


def test_is_conc_map_trace():
    assert is_conc_map_trace(EMPTY_STATE, ())
    assert is_conc_map_trace(RHO_Y2, TAU1)
    assert not is_conc_map_trace(make_state({"x": STAR}), ())


def test_concretize_trace_examples():
    assert concretize_trace(RHO_Y2, ()) == ()
    expected = (
        SIGMA2,
        EventAtom(EventKind.INPUT, ()),
        SIGMA2,
    )
    assert concretize_cond_trace(RHO_Y2, PI1) == CondTrace(frozenset(), expected)


def test_concrete_traces_are_fixed_points():
    rng = random.Random(44)
    for _ in range(100):
        trace = rand_concrete_trace(rng)
        rho = min_conc_map_trace(trace, 0)
        assert rho == EMPTY_STATE
        assert concretize_trace(rho, trace) == trace


def test_min_conc_map_trace():
    assert min_conc_map_trace(TAU1, 0) == make_state({"y": Num(0)})
    assert min_conc_map_trace((), 5) == EMPTY_STATE
    rng = random.Random(45)
    for _ in range(200):
        trace = rand_trace(rng)
        assert domain(min_conc_map_trace(trace, 0)) == trace_symbolic_vars(trace)


def test_concretize_preserves_shape():
    rng = random.Random(46)
    for _ in range(100):
        trace = rand_trace(rng)
        rho = min_conc_map_trace(trace, 0)
        result = concretize_trace(rho, trace)
        assert len(result) == len(trace)
        assert [type(a) for a in result] == [type(a) for a in trace]
        assert is_concrete_trace(result)
